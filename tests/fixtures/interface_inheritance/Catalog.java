package com.demo.web;

public interface Catalog {
    String ITEMS = "/items";

    class Item {
        private String sku;
        private int stock;
    }
}
