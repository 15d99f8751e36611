package com.demo.orders;

public class OrderLockedException extends RuntimeException {
}
