package com.shop.app;

public class Order {
    private long id;
    private int quantity;
}
