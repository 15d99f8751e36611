package com.demo.orders;

public class OrderMissingException extends RuntimeException {
}
