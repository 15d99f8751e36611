package com.demo.orders;

import org.springframework.context.annotation.Profile;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RestController;

@Profile("prod")
@RestController
public class AuditController {

    @GetMapping("/audit")
    public String latest() {
        return "";
    }
}
