package com.demo.j17;

import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.ExceptionHandler;
import org.springframework.web.bind.annotation.RestControllerAdvice;

@RestControllerAdvice
public class NoteAdvice {

    @ExceptionHandler(InvalidNoteException.class)
    public ResponseEntity<String> invalid(InvalidNoteException e) {
        String json = """
            {"error": "}invalid{"}
            """;
        return ResponseEntity.unprocessableEntity().body(json);
    }
}
