package com.shop.app;

import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;
import org.springframework.web.bind.annotation.PostMapping;
import org.springframework.web.bind.annotation.RequestBody;
import org.springframework.web.bind.annotation.ResponseStatus;

// A generic CRUD base: each subclass binds T and ID
public abstract class CrudController<T, ID> {

    @GetMapping("/{id}")
    public T get(@PathVariable ID id) {
        return null;
    }

    @PostMapping
    @ResponseStatus(HttpStatus.CREATED)
    public T create(@RequestBody T body) {
        return body;
    }
}
