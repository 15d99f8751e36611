package com.demo.orders;

import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.ExceptionHandler;
import org.springframework.web.bind.annotation.ResponseStatus;
import org.springframework.web.bind.annotation.RestControllerAdvice;

@RestControllerAdvice
public class OrderAdvice {

    @ExceptionHandler(OrderMissingException.class)
    @ResponseStatus(HttpStatus.NOT_FOUND)
    public void missing() {
    }

    @ExceptionHandler(OrderLockedException.class)
    @ResponseStatus(HttpStatus.CONFLICT)
    public void locked() {
    }
}
