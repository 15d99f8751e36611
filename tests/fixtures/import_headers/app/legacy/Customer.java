package app.legacy;

public class Customer {
    private long legacyNo;
}
