package com.demo.j17;

import jakarta.validation.constraints.NotNull;

public class Author {

    private @NotNull String name;
    private java.util.@NotNull List<String> aliases;
    private String @NotNull [] emails;

    {
        name = "{unnamed";
    }

    public Author(String name) {
        this.name = name + "}";
    }
}
