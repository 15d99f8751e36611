package com.demo.j17;

import java.util.List;
import java.util.Map;

import jakarta.validation.constraints.NotNull;
import jakarta.validation.constraints.Size;

// a record DTO: its components are its properties
public record NoteDto(long id, @NotNull String title,
                      List<@NotNull @Size(max = 8) String> tags) {

    static final String EMPTY = "{}";

    static {
        String opened = "static { block";
    }

    // the compact constructor
    public NoteDto {
        if (title == null) {
            title = "}";
        }
    }

    public NoteDto(String title) {
        this(0L, title + "{", List.of());
    }

    public Map<@NotNull String, String @NotNull []> labels() {
        return Map.of("{", new String[] {"}"});
    }
}
