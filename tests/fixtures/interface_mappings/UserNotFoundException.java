package com.demo.users;

public class UserNotFoundException extends RuntimeException {
}
