package com.demo.j17;

public class InvalidNoteException extends RuntimeException {
}
