package com.shop.app;

public class Customer {
    private long id;
    private String name;
    private String email;
}
