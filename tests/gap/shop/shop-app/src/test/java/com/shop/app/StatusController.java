package com.shop.app;

import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RestController;

// A test copy of the application's class: it is compiled into the tests
// only, so the application serves /status, not /shadowed
@RestController
public class StatusController {

    @GetMapping("/shadowed")
    public String status() {
        return "stub";
    }
}
