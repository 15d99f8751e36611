package com.demo.users;

import org.springframework.cloud.openfeign.FeignClient;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;

// A client of another service: it carries the controllers' mapping
// annotations, but no controller implements it, so it serves nothing
@FeignClient(name = "accounts")
public interface UserClient {

    @GetMapping("/accounts/{id}")
    User account(@PathVariable("id") long id);
}
