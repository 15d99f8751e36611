package app.model;

public class Customer {
    private String name;
}
