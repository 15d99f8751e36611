/*
 * Copyright 2026 The Demo Authors.
 *
 * Licensed under the Apache License, Version 2.0 (the "License"); you may
 * not use this file except in compliance with the License.
 */

// The header below mixes comments and blank lines with its imports.
package app.web;

import static app.Paths.*;

// the mapping annotations
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;

/* the model; the commented-out import below would clash with the real one */
import app.model.Order;
import java.util.*;
// import app.legacy.Order;
import org.springframework.web.bind.annotation
        .RestController;

@RestController
public class OrderController {

    // ORDERS is app.Paths.ORDERS, through the static import on demand
    @GetMapping(ORDERS + "/{id}")
    public Order get(@PathVariable String id) {
        return new Order();
    }

    @GetMapping(ORDERS)
    public List<Order> list() {
        return new ArrayList<>();
    }
}
