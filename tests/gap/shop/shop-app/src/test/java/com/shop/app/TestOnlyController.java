package com.shop.app;

import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RestController;

// A controller that only the tests compile: the application does not
// serve it
@RestController
public class TestOnlyController {

    @GetMapping("/test-only")
    public String probe() {
        return "";
    }
}
