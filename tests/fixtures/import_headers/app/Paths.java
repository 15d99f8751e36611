/*
 * Copyright 2026 The Demo Authors.
 *
 * Licensed under the Apache License, Version 2.0 (the "License"); you may
 * not use this file except in compliance with the License.
 */
package app;

public final class Paths {
    public static final String ORDERS = "/orders";
    public static final String CUSTOMERS = "/customers";
}
