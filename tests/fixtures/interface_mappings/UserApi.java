package com.demo.users;

import java.util.List;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.ExceptionHandler;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;
import org.springframework.web.bind.annotation.PostMapping;
import org.springframework.web.bind.annotation.RequestBody;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RequestParam;
import org.springframework.web.bind.annotation.ResponseStatus;

// An API-first interface: the controller that implements it inherits its
// type-level mapping, its method mappings, their parameter bindings, its
// @ResponseStatus and its exception handler
@RequestMapping("/api")
public interface UserApi {

    @GetMapping("/users/{id}")
    User get(@PathVariable("id") long id);

    @PostMapping("/users")
    @ResponseStatus(HttpStatus.CREATED)
    User create(@RequestBody User user);

    // not overridden, so this default method is the handler
    @GetMapping("/users")
    default List<User> list(@RequestParam(name = "q", required = false)
                            String q) {
        return List.of();
    }

    @ExceptionHandler(UserNotFoundException.class)
    @ResponseStatus(HttpStatus.NOT_FOUND)
    default void notFound() {
    }
}
