"""Properties: any small Spring-like tree gives documents that both
`validate_document` and openapi-spec-validator accept, whose components are
the schemas their operations reach, and whose schema names mean one schema
across profiles; and `generate` on a mutated fixture tree ends either in
documents or in one `error:` line, never in a traceback."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, run_cli
from oasforge.emitter import MergeConflictError, merge_documents
from oasforge.oasvalidate import validate_document
from oasforge.pipeline import generate_project

oracle = pytest.importorskip("openapi_spec_validator")

SEGMENTS = ["orders", "items", "{id}", "{id:[0-9]+}", "{slug}",
            "{name}.{ext:[a-z]+}"]

# Distinct Java names, so any subset is a legal parameter list. Path
# variables match some templates and not others; "q" and "page" repeat
# across @RequestParam and the @ModelAttribute DTOs.
PARAMETERS = [
    "@PathVariable Long id",
    '@PathVariable("id") String key',
    '@PathVariable("orderId") Long order',
    "@PathVariable String slug",
    "@PathVariable String ext",
    "@RequestParam String q",
    '@RequestParam("q") String q2',
    '@RequestParam(defaultValue = "1") int page',
    '@RequestHeader("X-Org") String org',
    '@CookieValue(name = "s", required = false) String session',
    "@ModelAttribute Filter filter",
    "@ModelAttribute Paging paging",
    "@RequestBody Filter body",
    "@RequestParam List<@NotNull String> tags",
    "HttpServletRequest request",
    "String unannotated",
]

BODIES = (
    [f"return ResponseEntity.status({n}).build();"
     for n in (200, 201, 404, 600, 999)]
    + ["return new ResponseEntity<>(HttpStatus.NO_SUCH_STATUS);",
       "throw new MissingException();",
       "throw new IllegalArgumentException();",
       "if (page < 0) throw new IllegalStateException();",
       "return ResponseEntity.status(HttpStatus.valueOf(page)).build();",
       "return null;",
       "java.util.List.of(1).forEach(n -> { return; });\n"
       "        return new ResponseEntity<>(HttpStatus.CREATED);",
       'String json = """\n            {"a": "}"}\n            """;\n'
       "        return ResponseEntity.status(201).build();"])

# A plain DTO, a generic wrapper, the wrapper used raw, a DTO that refers
# to itself, one that extends a base class, a record with a varargs
# component, a record with a compact constructor, a class that extends the
# generic wrapper, and two classes named like ones of package `app` (so a
# profile's `Filter` may be another profile's `Filter_2`); type arguments
# may carry type-use annotations.
RETURNS = ["Filter", "Page<Filter>", "Page", "TreeNode", "Order", "Tag",
           "Note", "FilterPage", "app.other.Filter", "Page<app.other.Order>",
           "Page<@NotNull Filter>"]

MAPPINGS = ['@GetMapping("{}")', '@PostMapping("{}")', '@RequestMapping("{}")',
            '@RequestMapping(path = "{}", method = RequestMethod.PUT)',
            '@RequestMapping(path = "{}", method = {{RequestMethod.GET, '
            'RequestMethod.TRACE}})',
            '@org.springframework.web.bind.annotation.GetMapping("{}")',
            '@GetMapping(("{}"))']

SHARED = """package app;

import java.util.List;
import javax.validation.constraints.NotNull;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

class Filter {
    private String q;
    private String owner;

    Filter() {}

    <T> Filter(T seed) {}
}

class Paging {
    private int page;
    private String q;
}

class TreeNode {
    private String label;
    private List<TreeNode> children;
}

class Page<T> {
    private long total;
    private List<T> items;
}

class FilterPage extends Page<Filter> {}

class Entity {
    private long id;
}

class Order extends Entity {
    private String owner;
}

record Tag(String label, String... aliases) {}

record Note(@NotNull String title, List<@NotNull String> tags) {
    Note {
        if (title == null) {
            title = \"""
                {"}": "{"}
                \""";
        }
    }
}

// a class-level status that controllers and MissingException may inherit
@ResponseStatus(HttpStatus.ACCEPTED)
interface Tracked {}

class MissingException extends RuntimeException {}

@RestControllerAdvice
class Advice {
    @ExceptionHandler(MissingException.class)
    @ResponseStatus(HttpStatus.NOT_FOUND)
    void missing() {}

    @ExceptionHandler(RuntimeException.class)
    @ResponseStatus(HttpStatus.CONFLICT)
    void runtime() {}
}
"""

OTHER = """package app.other;

class Filter {
    private int rank;
}

class Order {
    private Filter filter;
}
"""

# An advice active in one profile only, so an operation's statuses may
# differ between profiles.
DEV_ADVICE = """package app;

import org.springframework.context.annotation.Profile;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

@RestControllerAdvice
@Profile("dev")
class DevAdvice {
    @ExceptionHandler(IllegalArgumentException.class)
    @ResponseStatus(HttpStatus.BAD_REQUEST)
    void invalid() {}
}
"""

# A base class whose exception handler and handler its subclasses inherit;
# a subclass may override the handler without a mapping.
BASE_CONTROLLER = """package app;

import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

abstract class BaseController {
    @ExceptionHandler(IllegalStateException.class)
    @ResponseStatus(HttpStatus.SERVICE_UNAVAILABLE)
    void unavailable() {}

    @GetMapping("/shared/{id}")
    String shared(@PathVariable Long id) { return ""; }
}
"""

# An interface whose constant the controllers that implement it map
# their handlers under.
PATHS = """package app;

interface Paths {
    String BASE = "/base";
}
"""

OVERRIDE = ("    @Override\n    String shared(Long id) {\n"
            "        throw new IllegalStateException();\n    }\n")

# Field declarations whose initializers hold commas: of type arguments,
# which end no declarator, and between declarators; and a text block that
# holds braces.
FIELDS = [
    "",
    "    private java.util.Map<String, Integer> counts =\n"
    "        new java.util.HashMap<String, Integer>();\n",
    "    private Object pair = java.util.Map.<String, Long>entry(\"a\", 1L),"
    " other;\n",
    "    private int low = 1 < 2 ? 1 : 2, high = 3;\n",
    '    private String doc = """\n        { "}": 1 }\n        """, two;\n',
]

paths = st.lists(st.sampled_from(SEGMENTS), max_size=3).map(
    lambda segments: "/" + "/".join(segments))


@st.composite
def handlers(draw, index: int, implements: bool) -> str:
    mappings = MAPPINGS + ['@GetMapping(BASE + "{}")'] if implements \
        else MAPPINGS
    mapping = draw(st.sampled_from(mappings)).format(draw(paths))
    status = draw(st.sampled_from(
        ["", "@ResponseStatus(HttpStatus.CREATED)\n    ",
         "@ResponseStatus(HttpStatus.NO_SUCH_STATUS)\n    "]))
    params = draw(st.lists(st.sampled_from(PARAMETERS), unique=True,
                           max_size=4))
    returned = draw(st.sampled_from(RETURNS))
    return (f"    {status}{mapping}\n"
            f"    ResponseEntity<{returned}> h{index}({', '.join(params)}) "
            "{\n"
            f"        {draw(st.sampled_from(BODIES))}\n    }}\n")


@st.composite
def controllers(draw, index: int, parent: str, paths_interface: bool) -> str:
    profile = draw(st.sampled_from([None, "default", "dev", "prod"]))
    base = draw(st.one_of(st.none(), paths))
    annotations = "@RestController\n" + draw(st.sampled_from(
        ["", "@ResponseStatus(HttpStatus.CREATED)\n",
         "@ResponseStatus(HttpStatus.NO_SUCH_STATUS)\n",
         '@ResponseStatus(reason = "x")\n']))
    if profile:
        annotations += f'@Profile("{profile}")\n'
    if base is not None:
        annotations += draw(st.sampled_from([
            '@RequestMapping("{}")\n',
            '@RequestMapping(path = "{}", method = RequestMethod.POST)\n'
        ])).format(base)
    implements = paths_interface and draw(st.booleans())
    body = draw(st.sampled_from(FIELDS)) + "\n".join(
        draw(handlers(i, implements)) for i in range(draw(st.integers(1, 3))))
    if parent and draw(st.booleans()):
        body += OVERRIDE
    interfaces = ["Paths"] if implements else []
    if draw(st.booleans()):
        interfaces.append("Tracked")
    if interfaces:
        parent += " implements " + ", ".join(interfaces)
    return ("package app;\n\n"
            "import java.util.List;\n"
            "import javax.servlet.http.HttpServletRequest;\n"
            "import javax.validation.constraints.NotNull;\n"
            "import org.springframework.context.annotation.Profile;\n"
            "import org.springframework.http.*;\n"
            "import org.springframework.web.bind.annotation.*;\n\n"
            f"{annotations}class C{index}{parent} {{\n{body}}}\n")


@st.composite
def trees(draw) -> dict[str, str]:
    count = draw(st.integers(1, 4))
    parent = draw(st.sampled_from(["", " extends BaseController"]))
    paths_interface = draw(st.booleans())
    files = {f"C{i}.java": draw(controllers(i, parent, paths_interface))
             for i in range(count)}
    if parent:
        files["BaseController.java"] = BASE_CONTROLLER
    if paths_interface:
        files["Paths.java"] = PATHS
    missing = "class MissingException extends RuntimeException"
    files["Shared.java"] = SHARED.replace(
        missing, missing + " implements Tracked") if draw(st.booleans()) \
        else SHARED
    files["Other.java"] = OTHER
    if draw(st.booleans()):
        files["DevAdvice.java"] = DEV_ADVICE
    return files


_REF = re.compile(r'"\$ref": "#/components/schemas/([^"]+)"')


def reached(doc: dict) -> set[str]:
    """The component names that the operations of `doc` refer to, directly
    or through the schemas they refer to."""
    schemas = doc.get("components", {}).get("schemas", {})
    names: set[str] = set()
    todo = _REF.findall(json.dumps(doc["paths"]))
    while todo:
        name = todo.pop()
        if name not in names:
            names.add(name)
            todo += _REF.findall(json.dumps(schemas.get(name, {})))
    return names


@settings(max_examples=50)
@given(trees())
def test_generated_documents_pass_both_validators(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text)
        result = generate_project(root)
    assert result.documents
    # `BASE` resolves in each controller that implements `Paths`, and
    # every file parses
    assert {"UNRESOLVED_CONSTANT", "PARSE_ERROR"}.isdisjoint(
        d.code for d in result.diagnostics)
    for profile, doc in result.documents.items():
        assert validate_document(doc) == [], profile
        errors = oracle.OpenAPIV30SpecValidator(doc).iter_errors()
        assert [e.message for e in errors] == [], profile
        assert set(doc.get("components", {}).get("schemas", {})) == \
            reached(doc), profile
    named: dict[str, dict] = {}
    for doc in result.documents.values():
        for name, schema in doc.get("components", {}).get("schemas",
                                                          {}).items():
            assert named.setdefault(name, schema) == schema, name
    try:
        merge_documents(result.documents, result.project)
    except MergeConflictError as exc:
        assert all(c.startswith("operation ") for c in exc.conflicts)


# Each fixture's files, read once: path under the fixture -> bytes.
FIXTURE_FILES = {fixture.name: {p.relative_to(fixture).as_posix():
                                p.read_bytes()
                                for p in sorted(fixture.rglob("*.java"))}
                 for fixture in sorted(FIXTURES_DIR.iterdir())
                 if fixture.is_dir()}

JAVA_FRAGMENTS = [
    "{", "}", "(", ")", "<", ">", ";", ",", ".", "@", "=", '"', "'", "/*",
    "//", "\\u", "#", "\n", "class X {", "interface I {}",
    "record R(int a) {}", "extends Missing", " implements Missing",
    "interface J extends J {}", "@RestController",
    '@GetMapping("/m")', '@RequestMapping(path = P.C)', '@Profile("dev")',
    "@PathVariable", "0b101", "0x1F", "010", "-1", "\u00e9",
    "<T extends Comparable<T>>",
]


@st.composite
def mutated_trees(draw) -> tuple[dict[str, bytes], list[str]]:
    """A fixture tree, one of whose `.java` files has had 1-3 spans of up
    to 80 bytes cut or duplicated, or Java fragments inserted, and the
    flags to run it with."""
    files = dict(FIXTURE_FILES[draw(st.sampled_from(sorted(FIXTURE_FILES)))])
    name = draw(st.sampled_from(sorted(files)))
    data = files[name]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 80)))
        kind = draw(st.sampled_from(["cut", "duplicate", "insert"]))
        if kind == "cut":
            data = data[:i] + data[j:]
        elif kind == "duplicate":
            data = data[:j] + data[i:j] + data[j:]
        else:
            data = data[:i] + draw(st.sampled_from(JAVA_FRAGMENTS)).encode(
                "utf-8") + data[i:]
    files[name] = data
    flags = draw(st.sampled_from([[], ["--merge"], ["--format", "yaml"],
                                  ["--profiles", "default"]]))
    return files, flags


@settings(max_examples=150)
@given(mutated_trees())
def test_mutated_tree_ends_in_documents_or_one_error_line(case):
    files, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        root, out = Path(tmp) / "tree", Path(tmp) / "out"
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        result = run_cli("generate", "--input", str(root),
                         "--output", str(out), *flags)
        assert result.exit_code in (0, 1), result.output
        assert result.exception is None or \
            isinstance(result.exception, SystemExit), result.exc_info
        assert "Traceback" not in result.output
        if result.exit_code == 1:
            errors = [line for line in result.stderr.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1, result.stderr
            assert not out.exists() or not any(out.iterdir())
