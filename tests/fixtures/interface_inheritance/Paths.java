package com.demo.web;

public interface Paths {
    String BASE = "/k";
}
