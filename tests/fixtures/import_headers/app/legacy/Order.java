package app.legacy;

public class Order {
    private long legacyId;
}
