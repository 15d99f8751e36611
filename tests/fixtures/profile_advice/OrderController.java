package com.demo.orders;

import org.springframework.web.bind.annotation.DeleteMapping;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

// Active in every profile: the statuses of its exceptions depend on the
// advices of each profile.
@RestController
@RequestMapping("/orders")
public class OrderController {

    @GetMapping("/{id}")
    public Order find(@PathVariable long id) {
        if (id < 0) {
            throw new OrderLockedException();
        }
        if (id == 0) {
            throw new OrderMissingException();
        }
        return new Order();
    }

    @DeleteMapping("/{id}")
    public void cancel(@PathVariable long id) throws OrderLockedException {
    }
}
