package app.model;

public class Order {
    private String id;
    private int quantity;
}
