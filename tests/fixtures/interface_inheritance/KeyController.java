package com.demo.web;

import static com.demo.shared.Defaults.*;

import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
public class KeyController implements Paths {

    // BASE is the field inherited from Paths, which shadows the one the
    // static import on demand names
    @GetMapping(BASE + "/x")
    public String x() {
        return "x";
    }
}
