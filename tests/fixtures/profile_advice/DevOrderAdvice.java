package com.demo.orders;

import org.springframework.context.annotation.Profile;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.ExceptionHandler;
import org.springframework.web.bind.annotation.ResponseStatus;
import org.springframework.web.bind.annotation.RestControllerAdvice;

// Found before OrderAdvice, so in "dev" it decides the status of a locked
// order.
@Profile("dev")
@RestControllerAdvice
public class DevOrderAdvice {

    @ExceptionHandler(OrderLockedException.class)
    @ResponseStatus(HttpStatus.LOCKED)
    public void locked() {
    }
}
