package com.demo.users;

public class User {
    private long id;
    private String name;
}
