package com.demo.web;

public interface Listing extends Catalog {
}
