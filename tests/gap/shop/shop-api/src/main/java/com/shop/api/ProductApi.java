package com.shop.api;

import java.util.List;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RequestParam;

// API-first: the application's controller implements this interface and
// inherits its mappings and parameter bindings
@RequestMapping("/products")
public interface ProductApi {

    @GetMapping("/{id}")
    Product get(@PathVariable("id") long id);

    @GetMapping
    List<Product> search(@RequestParam(name = "q", required = false)
                         String q);
}
