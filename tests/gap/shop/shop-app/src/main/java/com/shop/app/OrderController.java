package com.shop.app;

import java.util.List;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
@RequestMapping("/orders")
public class OrderController {

    // `page` has no annotation: Spring binds it as an optional ?page=
    @GetMapping
    public List<Order> list(int page) {
        return List.of();
    }

    @GetMapping("/{id}")
    public Order get(@PathVariable long id) {
        return new Order();
    }
}
