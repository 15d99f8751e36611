/* Copyright 2026 The Demo Authors. Licensed under the Apache License 2.0. */
package app.web;
import static app.Paths.CUSTOMERS;
import app.model.*;   // Customer is app.model's, not app.legacy's
import org.springframework.web.bind.annotation./* mapping */GetMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
public class CustomerController {

    @GetMapping(CUSTOMERS)
    public Customer first() {
        return new Customer();
    }
}
