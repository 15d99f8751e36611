package com.shop.api;

public class Product {
    private long id;
    private String title;
}
