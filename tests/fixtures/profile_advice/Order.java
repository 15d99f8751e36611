package com.demo.orders;

public class Order {
    private long id;
    private String item;
}
