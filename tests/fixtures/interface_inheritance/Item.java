package com.demo.web;

class Item {
    private long legacyId;
}
