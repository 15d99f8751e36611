package com.demo.web;

import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
@RequestMapping("/base")
public abstract class BaseController {

    @GetMapping("/ping")
    public String ping() {
        return "pong";
    }
}
