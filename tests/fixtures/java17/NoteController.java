package com.demo.j17;

import java.util.Comparator;
import java.util.List;
import java.util.function.Supplier;

import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PathVariable;
import org.springframework.web.bind.annotation.PostMapping;
import org.springframework.web.bind.annotation.RequestBody;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
@RequestMapping("/notes")
public class NoteController {

    // a block lambda and an anonymous class in field initializers
    private final Supplier<String> banner = () -> {
        String s = "}{";
        return s + '}';
    };

    private final Comparator<String> byLength = new Comparator<>() {
        @Override
        public int compare(String a, String b) {
            return a.length() - b.length(); // }
        }
    };

    @GetMapping("/{id}")
    public NoteDto get(@PathVariable("id") long id) {
        String open = "{"; // a brace } in a line comment
        char close = '}';
        /* { a brace in a block comment */
        String block = """
            { "id": "}" }
            """;
        if (id < 0) {
            if (id < -1) {
                throw new NoteNotFoundException();
            }
        }
        return new NoteDto(id, open + close + block, List.of());
    }

    @PostMapping
    public ResponseEntity<NoteDto> create(@RequestBody NoteDto note) {
        Runnable check = () -> {
            if (note.title().isEmpty()) {
                throw new InvalidNoteException();
            }
        };
        check.run();
        if (note.id() == 0) {
            return ResponseEntity.status(201).body(note);
        }
        return ResponseEntity.ok(note);
    }

    @GetMapping("/kind/{kind}")
    public ResponseEntity<String> kind(@PathVariable("kind") int kind) {
        String label = switch (kind) {
            case 0 -> "{zero";
            case 1 -> {
                String s = "one}";
                yield s;
            }
            case 2 -> throw new NoteNotFoundException();
            default -> {
                throw new InvalidNoteException();
            }
        };
        return ResponseEntity.ok(label);
    }

    @GetMapping("/local")
    public String local() {
        class Helper {
            String name = "}";
        }
        record Pair(String left, String right) {
        }
        Comparator<Pair> order = new Comparator<>() {
            public int compare(Pair a, Pair b) {
                return a.left().compareTo(b.left());
            }
        };
        return new Helper().name + new Pair("{", "}").left();
    }

    @GetMapping("/author")
    public Author author() {
        return new Author("{anonymous}");
    }
}
