package com.demo.shared;

public final class Defaults {
    public static final String BASE = "/other";
}
