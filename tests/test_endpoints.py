"""Endpoint extraction: paths, verbs, parameters, responses."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import model_from
from oasforge import endpoints
from oasforge.discovery import discover_rest_classes, group_by_profile
from oasforge.endpoints import (expand_model_attribute, extract_endpoints,
                                extract_parameters, extract_responses,
                                normalize_path, resolve_exception_status,
                                split_template)
from oasforge.pipeline import generate_project
from oasforge.schemas import SchemaRegistry
from oasforge.spring import HTTP_VERBS


def analyze(*sources):
    """The model, first profile unit, registry, operations by (path, VERB)
    and diagnostics of a tree."""
    model = model_from(*sources)
    cs = discover_rest_classes(model)
    units = group_by_profile(cs, model, [])
    reg = SchemaRegistry()
    diags = []
    ops = extract_endpoints(units[0], model, reg, {}, diags)
    return model, units[0], reg, ops, diags


def params_of(op):
    return op.get("parameters", [])


def statuses(op):
    return list(op["responses"])


# -- paths ------------------------------------------------------------------

def test_normalize_joins_and_collapses():
    assert normalize_path("/config", "/scoring.project") == \
        "/config/scoring.project"
    assert normalize_path("/api", "") == "/api"
    assert normalize_path("a//b", "/c/") == "/a/b/c"


@given(st.lists(st.text(alphabet="abc{}/.-", max_size=12), max_size=4))
def test_normalize_is_idempotent_and_clean(parts):
    once = normalize_path(*parts)
    assert normalize_path(once) == once
    assert once.startswith("/")
    assert "//" not in once


def test_split_pattern_strips_regex():
    assert split_template("/{year:\\d+}", "", 0, []) == \
        ("/{year}", {"year": "\\d+"})
    assert split_template("/a/{id:[0-9]+}/b", "", 0, []) == \
        ("/a/{id}/b", {"id": "[0-9]+"})
    # braces inside the regex are read by depth
    assert split_template("/{id:\\d{3}}", "", 0, []) == \
        ("/{id}", {"id": "\\d{3}"})
    # two variables in one segment each keep their own regex
    assert split_template("/f/{name}.{ext:[a-z]+}", "", 0, []) == \
        ("/f/{name}.{ext}", {"name": None, "ext": "[a-z]+"})


def test_split_pattern_passthrough():
    assert split_template("/items", "", 0, []) == ("/items", {})
    assert split_template("/{id}/x/{id}", "", 0, []) == \
        ("/{id}/x/{id}", {"id": None})


def test_split_pattern_unbalanced_is_diagnostic():
    diags = []
    assert split_template("/{id:[0-9]+", "C.java", 7, diags) == \
        ("/{id:[0-9]+", {})
    assert [(d.code, d.file, d.line) for d in diags] == \
        [("BAD_PATH_SEGMENT", "C.java", 7)]


@given(st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True),
       st.from_regex(r"[\[\]0-9a-z+*?\\-]{1,10}", fullmatch=True))
def test_split_pattern_round_trip(name, regex):
    clean, variables = split_template("/{" + name + ":" + regex + "}",
                                      "", 0, [])
    assert variables == {name: regex}
    assert clean == "/{" + name + "}"


@given(st.text(alphabet="ab{}:/.", max_size=16))
def test_split_template_names_what_the_validator_reads(text):
    # generate's own check reads template variables with a flat regex; any
    # template the scanner writes must show it exactly the scanner's names
    clean, variables = split_template(normalize_path(text), "", 0, [])
    assert set(re.findall(r"\{([^{}]+)\}", clean)) == set(variables)


# -- verbs ------------------------------------------------------------------

BARE_MAPPING = """
package app;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
class C {
    @RequestMapping(path = "/x")
    String all() { return "x"; }
}
"""


def test_mapping_without_verb_expands_to_all_seven():
    _, _, _, ops, _ = analyze(BARE_MAPPING)
    assert list(ops) == [("/x", verb) for verb in HTTP_VERBS]


def test_declared_verbs_expand_exactly():
    src = """
package app;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RequestMethod;
import org.springframework.web.bind.annotation.RestController;

@RestController
class C {
    @RequestMapping(value = "/y", method = {RequestMethod.GET, RequestMethod.POST})
    void two() {}
}
"""
    _, _, _, ops, _ = analyze(src)
    assert set(ops) == {("/y", "GET"), ("/y", "POST")}


def _method_mapping(method):
    return ("package app;\n"
            "import org.springframework.web.bind.annotation.*;\n"
            "@RestController\nclass C {\n"
            f'    @RequestMapping(value = "/t", method = {method})\n'
            "    void t() {}\n}\n")


@pytest.mark.parametrize("method, verbs", [
    ("RequestMethod.TRACE", ["TRACE"]),
    ("{RequestMethod.GET, RequestMethod.TRACE}", ["GET", "TRACE"]),
    ("{}", HTTP_VERBS),  # Spring's default: no method named
])
def test_explicit_method_gives_exactly_the_methods_it_names(method, verbs):
    _, _, _, ops, diags = analyze(_method_mapping(method))
    assert list(ops) == [("/t", verb) for verb in verbs]
    assert diags == []


def test_method_element_naming_no_request_method_is_left_out():
    _, _, _, ops, diags = analyze(
        _method_mapping('{RequestMethod.GET, "POST", Verbs.ANY}'))
    assert list(ops) == [("/t", "GET")]
    assert [(d.code, d.message, d.line) for d in diags] == [
        ("UNRESOLVED_CONSTANT", f"cannot resolve request method {m!r} in "
         "app.C", 6) for m in ('"POST"', "Verbs.ANY")]


def test_trace_is_written_after_the_other_verbs(tmp_path):
    (tmp_path / "C.java").write_text(_method_mapping(
        "{RequestMethod.TRACE, RequestMethod.OPTIONS, RequestMethod.GET}"))
    doc = generate_project(tmp_path).documents["default"]
    assert list(doc["paths"]["/t"]) == ["get", "options", "trace"]



def test_non_sealed_controller_endpoints_are_found(tmp_path):
    # `non-sealed` is three tokens; read as one modifier, the file parses
    (tmp_path / "Base.java").write_text(
        "package app;\npublic sealed class Base permits Api {}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        "@RestController\n@RequestMapping(\"/api\")\n"
        "public non-sealed class Api extends Base {\n"
        "    @GetMapping(\"/items\") String items() { return \"\"; }\n"
        "    @DeleteMapping(\"/items/{id}\") void drop(@PathVariable long id)"
        " {}\n}\n")
    result = generate_project(tmp_path)
    assert result.diagnostics == []
    assert {path: list(ops) for path, ops in
            result.documents["default"]["paths"].items()} == {
        "/api/items": ["get"], "/api/items/{id}": ["delete"]}


TYPE_LEVEL_METHOD = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping(path = "/a", method = RequestMethod.POST)
class C {
    @RequestMapping("/x")
    String x() { return ""; }

    @GetMapping("/y")
    String y() { return ""; }
}
"""


# As Spring's RequestMappingInfo.combine does: the request methods of the
# two levels are a union, the type level's first
def test_type_level_method_joins_the_method_levels():
    _, _, _, ops, diags = analyze(TYPE_LEVEL_METHOD)
    assert list(ops) == [("/a/x", "POST"), ("/a/y", "POST"), ("/a/y", "GET")]
    assert diags == []


# A type-level `method` that names only what resolves to no request method
# leaves no verb to a handler without its own, as at the method level
def test_type_level_method_is_read_once_per_controller():
    _, _, _, ops, diags = analyze(TYPE_LEVEL_METHOD.replace(
        "method = RequestMethod.POST", "method = {Verbs.ANY}"))
    assert list(ops) == [("/a/y", "GET")]
    assert [(d.code, d.message, d.line) for d in diags] == [
        ("UNRESOLVED_CONSTANT", "cannot resolve request method 'Verbs.ANY' "
         "in app.C", 0)]


def test_multiple_paths_cross_verbs():
    src = """
package app;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
class C {
    @GetMapping({"/a", "/b"})
    void h() {}
}
"""
    _, _, _, ops, _ = analyze(src)
    assert set(ops) == {("/a", "GET"), ("/b", "GET")}


TWO_ANNOTATIONS = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    %s %s
    void h(%s %s String x) {}
}
"""


@pytest.mark.parametrize("first, second, operation", [
    ('@GetMapping("/a")', '@PostMapping("/b")', ("/a", "GET")),
    ('@PostMapping("/b")', '@GetMapping("/a")', ("/b", "POST")),
], ids=["get-first", "post-first"])
def test_first_declared_mapping_annotation_wins(first, second, operation):
    src = TWO_ANNOTATIONS % (first, second, '@RequestParam("q")', "")
    _, _, _, ops, _ = analyze(src)
    assert list(ops) == [operation]


@pytest.mark.parametrize("first, second, parameter", [
    ('@RequestHeader("h")', '@RequestParam("q")', ("h", "header")),
    ('@RequestParam("q")', '@RequestHeader("h")', ("q", "query")),
], ids=["header-first", "param-first"])
def test_first_declared_binding_annotation_wins(first, second, parameter):
    src = TWO_ANNOTATIONS % ('@GetMapping("/a")', "", first, second)
    _, _, _, ops, _ = analyze(src)
    (op,) = ops.values()
    assert [(p["name"], p["in"]) for p in params_of(op)] == [parameter]


def test_same_arity_overloads_both_emitted():
    src = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping("/a")
    String get(@RequestParam String q) { return q; }
    @PostMapping("/b")
    String get(@RequestParam int n) { return ""; }
}
"""
    _, _, _, ops, diags = analyze(src)
    assert set(ops) == {("/a", "GET"), ("/b", "POST")}
    assert diags == []


def test_overriding_subclass_handler_wins():
    src = """
package app;
import org.springframework.web.bind.annotation.*;

class Base {
    @GetMapping("/base")
    String get(@RequestParam String q) { return q; }
}

@RestController
class Sub extends Base {
    @GetMapping("/sub")
    String get(@RequestParam java.lang.String q) { return q; }
}
"""
    _, _, _, ops, _ = analyze(src)
    assert list(ops) == [("/sub", "GET")]


INHERITED_MAPPING_BASE = """
package app;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

abstract class Base {
    @GetMapping("/items/{id}")
    public String get(@PathVariable("id") long id) { return ""; }

    @GetMapping(Missing.PATH)
    public ResponseEntity<String> other(@RequestParam String q) {
        return ResponseEntity.ok(q);
    }
}
"""

INHERITED_MAPPING_API = """
package app;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

@RestController
@RequestMapping("/api")
class Api extends Base {
    @Override
    public String get(long id) { return "item " + id; }

    @Override
    public ResponseEntity<String> other(String q) {
        return ResponseEntity.status(999).build();
    }
}
"""


# Spring finds a handler's mapping with find-semantics, which search the
# methods it overrides too
def test_override_without_a_mapping_inherits_the_one_it_overrides():
    _, _, _, ops, diags = analyze(INHERITED_MAPPING_BASE.replace(
        "\n    @GetMapping(Missing.PATH)", "\n    @Deprecated"),
        INHERITED_MAPPING_API)
    assert list(ops) == [("/api/items/{id}", "GET")]
    op = ops["/api/items/{id}", "GET"]
    assert params_of(op) == [{
        "name": "id", "in": "path", "required": True,
        "schema": {"type": "integer", "format": "int64"}}]
    assert op["responses"] == {"200": {
        "description": "OK",
        "content": {"application/json": {"schema": {"type": "string"}}}}}
    assert diags == []


@pytest.mark.parametrize("own, middle, mapped, code", [
    ("", "", "@ResponseStatus(HttpStatus.CREATED)", "201"),
    ("", "@ResponseStatus(HttpStatus.ACCEPTED)",
     "@ResponseStatus(HttpStatus.CREATED)", "202"),
    ("@ResponseStatus(HttpStatus.NO_CONTENT)", "",
     "@ResponseStatus(HttpStatus.CREATED)", "204"),
    ("", "@ResponseStatus(HttpStatus.ACCEPTED)", "", "202"),
    ("", "", "", "200"),
], ids=["mapped", "nearest-override", "own", "unmapped-override", "none"])
def test_override_takes_the_nearest_response_status(own, middle, mapped,
                                                    code):
    # Spring's HandlerMethod finds @ResponseStatus on the methods a handler
    # overrides too; the name resolves where it is declared, so the
    # controller's own `ResponseStatus` import does not hide Base's
    spring = ("import org.springframework.http.HttpStatus;\n"
              "import org.springframework.web.bind.annotation.*;\n")
    base = ("package app;\n" + spring + "abstract class Base {\n"
            f'    @PostMapping("/items") {mapped}\n'
            "    String create(@RequestBody String body) { return body; }\n}\n"
            "abstract class Middle extends Base {\n"
            f"    @Override {middle}\n"
            "    String create(String body) { return body; }\n}\n")
    api = ("package app;\n"
           + (spring if own else "import com.acme.ResponseStatus;\n")
           + "@org.springframework.web.bind.annotation.RestController\n"
           f"class Api extends Middle {{\n    @Override {own}\n"
           "    String create(String body) { return body; }\n}\n")
    _, _, _, ops, diags = analyze(base, api)
    assert list(ops) == [("/items", "POST")]
    assert statuses(ops["/items", "POST"]) == [code]
    assert diags == []


SEARCH_ORDER = """
package app;
import org.springframework.web.bind.annotation.*;

@RequestMapping("/s")
abstract class S {
    @GetMapping("/from-s")
    public String m() { return ""; }
}

@RequestMapping("/i")
interface I {
    @GetMapping("/from-i")
    String m();
}

@RestController
OWN_TYPE
class C extends S implements I {
    @Override OWN_METHOD
    public String m() { return ""; }
}
"""


# Spring reads a handler's mapping, and the controller's type-level one,
# with MergedAnnotations' TYPE_HIERARCHY search, which AnnotationsScanner
# runs over a class, then its interfaces, then its superclass: so I's
# mappings win over S's, and C's own over both
@pytest.mark.parametrize("own_type, own_method, paths", [
    ("", "", ["/i/from-i"]),
    ("", '@GetMapping("/from-c")', ["/i/from-c"]),
    ('@RequestMapping("/c")', "", ["/c/from-i"]),
], ids=["interface", "own-method", "own-type"])
def test_interface_mappings_are_searched_before_the_superclass(
        own_type, own_method, paths):
    _, _, _, ops, diags = analyze(SEARCH_ORDER.replace(
        "OWN_TYPE", own_type).replace("OWN_METHOD", own_method))
    assert [path for path, _ in ops] == paths
    assert diags == []


# A class's method wins over an interface's (JLS 8.4.8), so a handler that
# an interface redeclares without a mapping is still the superclass's, with
# its body and its parameter bindings
def test_an_interface_redeclaring_a_handler_does_not_replace_its_body():
    _, _, _, ops, diags = analyze("""
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

class Gone extends RuntimeException {}

interface Lookup {
    String find(String key);
}

abstract class Base {
    @GetMapping("/find")
    public String find(@RequestParam("k") String key) { throw new Gone(); }
}

@RestController
class C extends Base implements Lookup {
    @ExceptionHandler(Gone.class)
    @ResponseStatus(HttpStatus.GONE)
    void gone() {}
}
""")
    op = ops["/find", "GET"]
    assert [p["name"] for p in params_of(op)] == ["k"]
    assert statuses(op) == ["200", "410"]
    assert diags == []


def test_inherited_mapping_diagnostics_name_the_mapped_declaration():
    model, _, _, ops, diags = analyze(INHERITED_MAPPING_BASE,
                                      INHERITED_MAPPING_API)
    base, api = (model.classes[name] for name in ("app.Base", "app.Api"))
    assert list(ops) == [("/api/items/{id}", "GET"),
                         ("/api/Missing.PATH", "GET")]
    # the mapping is read where it is declared, the body where it is
    assert [(d.code, d.file, d.line) for d in diags] == [
        ("UNRESOLVED_CONSTANT", "<test-0>", base.methods[1].line),
        ("UNRESOLVED_STATUS", "<test-1>", api.methods[1].line)]
    assert [p["name"] for p in params_of(ops["/api/Missing.PATH", "GET"])] \
        == ["q"]


@pytest.mark.parametrize("marker, paths", [
    ("@org.springframework.web.bind.annotation.RestController", ["/a"]),
    ("@com.acme.web.RestController", []),
], ids=["spring", "elsewhere"])
def test_a_qualified_annotation_counts_by_its_written_package(marker, paths):
    _, _, _, ops, diags = analyze(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        f"{marker}\nclass Api {{\n"
        '    @GetMapping("/a") String get() { return ""; }\n}\n')
    assert [path for path, _ in ops] == paths
    assert diags == []


def test_inherited_parameter_annotations_are_read_with_their_own_imports():
    # `Api` imports another `RequestParam`; `q` is bound in Base's file
    base = ("package app;\n"
            "import org.springframework.web.bind.annotation.*;\n"
            "abstract class Base {\n"
            '    @GetMapping("/items") String list(@RequestParam("q") '
            'String q) { return q; }\n}\n')
    api = ("package app;\nimport com.acme.RequestParam;\n"
           "import org.springframework.web.bind.annotation.*;\n"
           "@RestController\nclass Api extends Base {}\n")
    _, _, _, ops, diags = analyze(base, api)
    assert params_of(ops["/items", "GET"]) == [{
        "name": "q", "in": "query", "required": True,
        "schema": {"type": "string"}}]
    assert diags == []


def test_parenthesized_annotation_values_are_read(tmp_path):
    # a parenthesized constant expression is legal (JLS 15.8.5, 15.29)
    (tmp_path / "Api.java").write_text(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        '@RestController\n@RequestMapping(("/api"))\nclass Api {\n'
        '    static final String ID = "/{id}";\n'
        '    @GetMapping(("/x")) String x() { return ""; }\n'
        '    @DeleteMapping(path = ("/y" + (ID))) void y(@PathVariable(("id"))'
        " long key) {}\n}\n")
    result = generate_project(tmp_path)
    assert result.diagnostics == []
    paths = result.documents["default"]["paths"]
    assert {path: list(ops) for path, ops in paths.items()} == {
        "/api/x": ["get"], "/api/y/{id}": ["delete"]}
    assert [p["name"] for p in paths["/api/y/{id}"]["delete"]["parameters"]] \
        == ["id"]


def test_class_base_path_joined_with_method_path():
    src = """
package app;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
@RequestMapping("/config")
class C {
    @GetMapping("/scoring.project")
    String get() { return "{}"; }

    @GetMapping("")
    String root() { return "{}"; }
}
"""
    _, _, _, ops, _ = analyze(src)
    assert {path for path, _ in ops} == {"/config/scoring.project",
                                         "/config"}


MORE_BASE = """
package app.b;
class More { static final String BASE = "/more"; }
"""


@pytest.mark.parametrize("controller", [
    """
package app.web;
import static app.Paths.*;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
@RequestMapping(BASE)
class Api {
    @GetMapping("/a")
    String get() { return "{}"; }
}
""", """
package app;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RequestMapping;
import org.springframework.web.bind.annotation.RestController;

class Outer {
    static final String BASE = "/base";

    @RestController
    @RequestMapping(BASE)
    static class Api {
        @GetMapping("/a")
        String get() { return "{}"; }
    }
}
"""], ids=["static-import-on-demand", "enclosing-class"])
def test_constant_found_where_javac_finds_it(controller):
    paths = "package app;\nclass Paths { static final String BASE = \"/base\"; }"
    _, _, _, ops, diags = analyze(paths, MORE_BASE, controller)
    assert list(ops) == [("/base/a", "GET")]
    assert diags == []


def test_duplicate_path_verb_is_diagnostic():
    src = """
package app;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
class C {
    @GetMapping("/dup")
    void one() {}

    @GetMapping("/dup")
    void two() {}
}
"""
    _, _, _, ops, diags = analyze(src)
    assert len(ops) == 1
    assert any(d.code == "DUPLICATE_METHOD" for d in diags)


# -- parameters -------------------------------------------------------------

PARAMS = """
package app;
import javax.servlet.http.HttpServletRequest;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PostMapping;
import org.springframework.web.bind.annotation.RequestBody;
import org.springframework.web.bind.annotation.RequestHeader;
import org.springframework.web.bind.annotation.RequestParam;
import org.springframework.web.bind.annotation.RestController;

@RestController
class C {
    @GetMapping("/q")
    void q(@RequestParam("sort_by") String sortBy,
           @RequestParam(value = "limit", required = false) int limit,
           @RequestHeader("X-Org") String org,
           HttpServletRequest raw,
           String unannotated) {}

    @PostMapping("/scoring")
    void post(@RequestBody ScoringConfig body) {}
}

class ScoringConfig {
    private String name;
}
"""


def params_for(name):
    model, unit, reg, ops, diags = analyze(PARAMS)
    op = next(op for (path, _), op in ops.items() if path == name)
    return op, diags


def test_request_param_name_attribute_wins():
    op, _ = params_for("/q")
    names = {p["name"]: p for p in params_of(op)}
    assert "sort_by" in names and "sortBy" not in names
    assert names["sort_by"]["in"] == "query"


def test_required_attribute_honored():
    op, _ = params_for("/q")
    by_name = {p["name"]: p for p in params_of(op)}
    assert by_name["sort_by"]["required"] is True
    assert by_name["limit"]["required"] is False
    assert by_name["X-Org"]["in"] == "header"


def test_cookie_value_binds_a_cookie_parameter():
    src = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping("/c")
    void c(@CookieValue("s") String s,
           @CookieValue(name = "theme", defaultValue = "dark") String theme,
           @CookieValue(value = "t", required = false) String t) {}
}
"""
    _, _, _, ops, diags = analyze(src)
    params = {p["name"]: p for p in params_of(ops["/c", "GET"])}
    assert {name: (p["in"], p["required"]) for name, p in params.items()} \
        == {"s": ("cookie", True), "theme": ("cookie", False),
            "t": ("cookie", False)}
    assert params["s"]["schema"] == {"type": "string"}
    assert not [d for d in diags if d.code == "SKIPPED_PARAMETER"]


def test_servlet_and_unannotated_parameters_skipped_with_diagnostics():
    op, diags = params_for("/q")
    assert {p["name"] for p in params_of(op)} == {"sort_by", "limit",
                                                   "X-Org"}
    codes = [d.code for d in diags]
    assert "SERVLET_PARAMETER" in codes
    assert "SKIPPED_PARAMETER" in codes


def test_request_body_is_not_a_parameter():
    op, _ = params_for("/scoring")
    assert params_of(op) == []
    assert op["requestBody"] == {
        "content": {"application/json": {
            "schema": {"$ref": "#/components/schemas/ScoringConfig"}}},
        "required": True}


MODEL_ATTR = """
package app;

class Filter extends Base {
    private int a;
    private String b;
}

class Base {
    private String c;
    static String IGNORED = "x";
}

class Empty {}
"""


def test_model_attribute_expands_fields_subclass_first():
    model = model_from(MODEL_ATTR)
    from oasforge.javasrc import TypeRef
    reg = SchemaRegistry()
    ctx = model.classes["app.Filter"]
    params = expand_model_attribute(TypeRef("Filter"), model, reg, ctx, [])
    assert [(p["name"], p["in"], p["required"]) for p in params] == \
        [("a", "query", False), ("b", "query", False), ("c", "query", False)]
    assert params[0]["schema"] == {"type": "integer", "format": "int32"}


def test_model_attribute_empty_class():
    model = model_from(MODEL_ATTR)
    from oasforge.javasrc import TypeRef
    ctx = model.classes["app.Empty"]
    assert expand_model_attribute(TypeRef("Empty"), model, SchemaRegistry(),
                                  ctx, []) == []


def test_model_attribute_unresolvable_type_is_diagnostic():
    model = model_from(MODEL_ATTR)
    from oasforge.javasrc import TypeRef
    ctx = model.classes["app.Empty"]
    diags = []
    assert expand_model_attribute(TypeRef("Nowhere"), model, SchemaRegistry(),
                                  ctx, diags) == []
    assert diags and diags[0].code == "UNRESOLVED_TYPE"


TEMPLATE = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping("/shops/{shop:[a-z]+}/items/{item}/{shop}")
    void get(@RequestParam String q, @ModelAttribute Filter f,
             @RequestParam("q") int again) {}
}

class Filter {
    private String q;
    private String owner;
}
"""


def test_template_binding_fills_in_unbound_variables_and_drops_repeats():
    _, _, _, ops, diags = analyze(TEMPLATE)
    [(path, _)] = ops
    assert path == "/shops/{shop}/items/{item}/{shop}"
    assert [(p["name"], p["in"], p["required"], p["schema"])
            for p in params_of(ops[path, "GET"])] == [
        ("q", "query", True, {"type": "string"}),
        ("owner", "query", False, {"type": "string"}),
        ("shop", "path", True, {"type": "string", "pattern": "[a-z]+"}),
        ("item", "path", True, {"type": "string"})]
    assert [(d.code, d.message) for d in diags] == [
        ("SKIPPED_PARAMETER",
         "query parameter 'q' of get repeats an earlier parameter"),
        ("SKIPPED_PARAMETER",
         "query parameter 'q' of get repeats an earlier parameter"),
        ("UNBOUND_PATH_VARIABLE",
         "variable 'shop' of path '/shops/{shop}/items/{item}/{shop}' is "
         "bound by no parameter of get; typed as string"),
        ("UNBOUND_PATH_VARIABLE",
         "variable 'item' of path '/shops/{shop}/items/{item}/{shop}' is "
         "bound by no parameter of get; typed as string")]


# -- responses --------------------------------------------------------------

RESPONSES = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.ControllerAdvice;
import org.springframework.web.bind.annotation.ExceptionHandler;
import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.PostMapping;
import org.springframework.web.bind.annotation.ResponseStatus;
import org.springframework.web.bind.annotation.RestController;

@RestController
class C {
    @GetMapping("/void")
    void nothing() {}

    @PostMapping("/mixed")
    ResponseEntity<String> mixed(boolean flag) {
        if (flag) {
            return new ResponseEntity<>("x", HttpStatus.CREATED);
        }
        return service();
    }

    @GetMapping("/forbidden")
    String locked() {
        throw new ForbiddenOperationException();
    }

    @GetMapping("/annotated")
    @ResponseStatus(HttpStatus.ACCEPTED)
    void accepted() {}

    @ExceptionHandler(NotHereException.class)
    @ResponseStatus(HttpStatus.NOT_FOUND)
    void localHandler() {}
}

@ControllerAdvice
class Advice {
    @ExceptionHandler(ForbiddenOperationException.class)
    @ResponseStatus(HttpStatus.FORBIDDEN)
    void forbidden() {}

    @ExceptionHandler(NotHereException.class)
    @ResponseStatus(HttpStatus.BAD_REQUEST)
    void globalNotHere() {}
}

class ForbiddenOperationException extends RuntimeException {}
class NotHereException extends RuntimeException {}
class SubNotHereException extends NotHereException {}
"""


def endpoint(path):
    model, unit, reg, ops, diags = analyze(RESPONSES)
    return model, unit, next(op for (p, _), op in ops.items() if p == path)


def test_void_handler_defaults_to_200_without_schema():
    _, _, op = endpoint("/void")
    assert op["responses"] == {"200": {"description": "OK"}}


def test_explicit_and_default_statuses_union():
    _, _, op = endpoint("/mixed")
    assert statuses(op) == ["200", "201"]


def test_thrown_exception_translated_via_advice():
    _, _, op = endpoint("/forbidden")
    assert statuses(op) == ["200", "403"]


def test_response_status_annotation_replaces_200():
    _, _, op = endpoint("/annotated")
    assert statuses(op) == ["202"]


def test_local_handler_beats_global():
    model, unit, _ = endpoint("/void")
    local = model.classes["app.C"]
    code = resolve_exception_status("NotHereException", local,
                                    unit.controller_set.advices, model, [])
    assert code == "404"


def test_unhandled_exception_maps_to_500():
    model, unit, _ = endpoint("/void")
    local = model.classes["app.C"]
    assert resolve_exception_status("NoSuchHandlerException", local,
                                    unit.controller_set.advices, model, []) == "500"


def test_superclass_handler_matches_subclass_exception():
    model, unit, _ = endpoint("/void")
    local = model.classes["app.C"]
    code = resolve_exception_status("SubNotHereException", local,
                                    unit.controller_set.advices, model, [])
    assert code == "404"


EXCEPTIONS = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

class Base extends RuntimeException {}
class NotFound extends Base {}
class Deep extends Base {}
class Gone extends RuntimeException {}

@RestControllerAdvice
class Handlers {
    @ExceptionHandler(NotFound.class)
    @ResponseStatus(HttpStatus.NOT_FOUND)
    void notFound() {}

    @ExceptionHandler(Base.class)
    @ResponseStatus(HttpStatus.BAD_REQUEST)
    void base() {}

    @ExceptionHandler(RuntimeException.class)
    @ResponseStatus(HttpStatus.CONFLICT)
    void runtime() {}

    @ExceptionHandler(app.b.Err.class)
    @ResponseStatus(HttpStatus.UNPROCESSABLE_ENTITY)
    void otherErr() {}

    @ExceptionHandler(Err.class)
    @ResponseStatus(HttpStatus.GONE)
    void ambiguous() {}

    @ExceptionHandler(IllegalStateException.class)
    @ResponseStatus(HttpStatus.SERVICE_UNAVAILABLE)
    void illegalState() {}
}
"""

# `Err` names two classes, so the `ambiguous` handler's target does not
# resolve in `Handlers`; `Leaf` extends `app.a.Err` through an import, so
# the `otherErr` handler, which names the other one, must not catch it;
# nor must it catch `LibLeaf`, whose superclass `Err` is outside the tree.
EXCEPTION_PACKAGES = (
    "package app.a;\npublic class Err extends RuntimeException {}\n",
    "package app.b;\npublic class Err extends RuntimeException {}\n",
    "package app;\nimport app.a.Err;\nclass Leaf extends Err {}\n",
    "package app;\nimport com.lib.Err;\nclass LibLeaf extends Err {}\n",
)


@pytest.mark.parametrize("thrown, status", [
    # both names resolve: exact match, then a match on a superclass
    ("NotFound", "404"),
    ("Deep", "400"),
    ("Base", "400"),
    ("app.b.Err", "422"),
    # the handler target is outside the tree: it matches a class of the
    # thrown type's chain by simple name; past the tree's edge the chain
    # goes on through the table of JDK and Spring exception superclasses,
    # and the nearest handler wins (Err, not RuntimeException, for Leaf)
    ("Leaf", "410"),
    ("LibLeaf", "410"),
    ("Gone", "409"),
    # the thrown type is outside the tree: the table alone
    ("UncheckedIOException", "409"),
    ("NumberFormatException", "409"),
    # neither name resolves; the exact handler is nearer than the
    # RuntimeException one declared before it
    ("IllegalStateException", "503"),
    ("java.lang.IllegalStateException", "503"),
])
def test_exception_status_by_name_resolution(thrown, status):
    model = model_from(EXCEPTIONS, *EXCEPTION_PACKAGES)
    handlers = model.classes["app.Handlers"]
    assert resolve_exception_status(thrown, handlers, [], model, []) == status


NEAREST_HANDLER = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

class Root extends RuntimeException {}
class Base extends Root {}
class NotFound extends Base {}

@RestControllerAdvice
class Handlers {
    @ExceptionHandler(RuntimeException.class)
    @ResponseStatus(HttpStatus.CONFLICT)
    void runtime() {}

    @ExceptionHandler(Root.class)
    @ResponseStatus(HttpStatus.GONE)
    void root() {}

    @ExceptionHandler(Base.class)
    @ResponseStatus(HttpStatus.BAD_REQUEST)
    void base() {}
}
"""


# Within one class the handler nearest the thrown type wins, not the first
# declared one, also where the whole chain is inside the tree.
@pytest.mark.parametrize("thrown, status", [
    ("NotFound", "400"),
    ("Base", "400"),
    ("Root", "410"),
])
def test_nearest_handler_wins_over_an_earlier_broader_one(thrown, status):
    model = model_from(NEAREST_HANDLER)
    handlers = model.classes["app.Handlers"]
    assert resolve_exception_status(thrown, handlers, [], model, []) == status


SPRING_HEAD = ("import org.springframework.http.HttpStatus;\n"
               "import org.springframework.web.bind.annotation.*;\n")


def test_thrown_name_is_read_with_the_controllers_imports():
    # `NotFound` is ambiguous where the advice is declared; the controller
    # imports `app.err.NotFound`, which extends the advice's `Base`
    _, _, _, ops, diags = analyze(
        "package app.err;\npublic class Base extends RuntimeException {}\n",
        "package app.err;\npublic class NotFound extends Base {}\n",
        "package app.other;\n"
        "public class NotFound extends RuntimeException {}\n",
        "package app.web;\nimport app.err.NotFound;\n" + SPRING_HEAD
        + '@RestController\nclass C {\n    @GetMapping("/x")\n'
        "    String get() { throw new NotFound(); }\n}\n",
        "package app.advice;\nimport app.err.Base;\n" + SPRING_HEAD
        + "@RestControllerAdvice\nclass Advice {\n"
        "    @ExceptionHandler(Base.class)\n"
        "    @ResponseStatus(HttpStatus.NOT_FOUND)\n    void base() {}\n}\n")
    assert statuses(ops["/x", "GET"]) == ["200", "404"]
    assert diags == []


def test_thrown_name_imported_from_outside_the_tree_is_not_a_tree_class():
    # `C` throws `com.lib.Err`; the advice handles `app.err.Err`, the only
    # tree class of that simple name, which the import shadows in `C`
    _, _, _, ops, _ = analyze(
        "package app.err;\npublic class Err extends RuntimeException {}\n",
        "package app.web;\nimport com.lib.Err;\n" + SPRING_HEAD
        + '@RestController\nclass C {\n    @GetMapping("/x")\n'
        "    String get() { throw new Err(); }\n}\n",
        "package app.advice;\nimport app.err.Err;\n" + SPRING_HEAD
        + "@RestControllerAdvice\nclass Advice {\n"
        "    @ExceptionHandler(Err.class)\n"
        "    @ResponseStatus(HttpStatus.GONE)\n    void gone() {}\n}\n")
    assert statuses(ops["/x", "GET"]) == ["200", "500"]


INHERITED_HANDLERS = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

class Gone extends RuntimeException {}

abstract class BaseController {
    @ExceptionHandler(IllegalStateException.class)
    @ResponseStatus(HttpStatus.CONFLICT)
    void conflict() {}

    @ExceptionHandler(Gone.class)
    @ResponseStatus(HttpStatus.GONE)
    void gone() {}
}

@RestController
class C extends BaseController {
    @GetMapping("/state")
    String state() { throw new IllegalStateException(); }

    @GetMapping("/argument")
    String argument() { throw new IllegalArgumentException(); }

    @GetMapping("/gone")
    String vanished() { throw new Gone(); }

    @GetMapping("/io")
    String io() throws java.io.IOException { return ""; }

    @ExceptionHandler(RuntimeException.class)
    @ResponseStatus(HttpStatus.BAD_REQUEST)
    void runtime() {}
}

abstract class BaseAdvice {
    @ExceptionHandler(Exception.class)
    @ResponseStatus(HttpStatus.SERVICE_UNAVAILABLE)
    void any() {}
}

@RestControllerAdvice
class Advice extends BaseAdvice {}
"""


# As Spring's ExceptionHandlerMethodResolver does, a class's handlers
# include those of its superclasses, and the nearest target wins across
# the hierarchy: the base class's IllegalStateException handler beats the
# subclass's RuntimeException one. An advice's superclass handlers count
# too.
@pytest.mark.parametrize("path, codes", [
    ("/state", ["200", "409"]),
    ("/argument", ["200", "400"]),
    ("/gone", ["200", "410"]),
    ("/io", ["200", "503"]),
])
def test_handlers_of_superclasses_count(path, codes):
    _, _, _, ops, diags = analyze(INHERITED_HANDLERS)
    assert statuses(ops[path, "GET"]) == codes
    assert diags == []


INTERFACE_HANDLERS = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

class Gone extends RuntimeException {}

class Bad extends RuntimeException {}

interface GoneHandling {
    @ExceptionHandler(Gone.class)
    @ResponseStatus(HttpStatus.GONE)
    default void gone() {}
}

interface BadHandling {
    @ExceptionHandler(Bad.class)
    @ResponseStatus(HttpStatus.BAD_REQUEST)
    default void bad() {}
}

@RestController
class C implements GoneHandling {
    @GetMapping("/gone")
    String vanished() { throw new Gone(); }

    @GetMapping("/bad")
    String bad() { throw new Bad(); }
}

@RestControllerAdvice
class Advice implements BadHandling {
    @ExceptionHandler(Gone.class)
    @ResponseStatus(HttpStatus.CONFLICT)
    void conflict() {}
}
"""


# Spring's ExceptionHandlerMethodResolver reads a class's handlers through
# MethodIntrospector.selectMethods, which takes its interfaces' methods
# too: a default @ExceptionHandler method of a controller's interface is a
# local handler, and one of an advice's interface is the advice's
@pytest.mark.parametrize("path, codes", [
    ("/gone", ["200", "410"]),
    ("/bad", ["200", "400"]),
], ids=["controller-interface", "advice-interface"])
def test_exception_handlers_of_interfaces_count(path, codes):
    _, _, _, ops, diags = analyze(INTERFACE_HANDLERS)
    assert statuses(ops[path, "GET"]) == codes
    assert diags == []


PARAMETER_TARGETS = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;
import org.springframework.web.context.request.WebRequest;

class NotFound extends RuntimeException {}

class Other extends RuntimeException {}

@RestControllerAdvice
class Advice {
    @ExceptionHandler
    @ResponseStatus(HttpStatus.GONE)
    String gone(WebRequest request, NotFound e) { return ""; }
}

@RestController
class C {
    @GetMapping("/nf")
    String nf() { throw new NotFound(); }

    @GetMapping("/other")
    String other() { throw new Other(); }
}
"""


# As in Spring, an @ExceptionHandler without a `value` handles the
# exception types among its parameters
def test_exception_handler_without_a_value_targets_its_parameter_types():
    _, _, _, ops, diags = analyze(PARAMETER_TARGETS)
    assert {path: statuses(op) for (path, _), op in ops.items()} == {
        "/nf": ["200", "410"], "/other": ["200", "500"]}
    assert diags == []


ANNOTATED_EXCEPTIONS = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

@ResponseStatus(HttpStatus.NOT_FOUND)
class NotFound extends RuntimeException {}

class Missing extends NotFound {}

@ResponseStatus(code = HttpStatus.NO_SUCH, reason = "odd")
class Odd extends NotFound {}

@ResponseStatus(HttpStatus.GONE)
class Handled extends RuntimeException {}

@RestController
class C {
    @GetMapping("/nf")
    String nf() { throw new NotFound(); }

    @GetMapping("/missing")
    String missing() { throw new Missing(); }

    @GetMapping("/odd")
    String odd() { throw new Odd(); }

    @GetMapping("/handled")
    String handled() { throw new Handled(); }

    @ExceptionHandler(Handled.class)
    @ResponseStatus(HttpStatus.CONFLICT)
    void conflict() {}
}
"""


# As Spring's ResponseStatusExceptionResolver does after the handler
# resolvers: the @ResponseStatus of the nearest annotated class of the
# exception's chain, unless a handler catches it; an unmappable value is
# reported and gives 500.
def test_response_status_of_an_unhandled_exception_class_applies():
    _, _, _, ops, diags = analyze(ANNOTATED_EXCEPTIONS)
    assert {path: statuses(op) for (path, _), op in ops.items()} == {
        "/nf": ["200", "404"], "/missing": ["200", "404"],
        "/odd": ["200", "500"], "/handled": ["200", "409"]}
    assert [(d.code, d.message, d.file) for d in diags] == [
        ("UNRESOLVED_STATUS", "@ResponseStatus of app.Odd maps to no HTTP "
         "status code; ignored", "<test-0>")]


CLASS_STATUSES = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

class Bad extends RuntimeException {}

class Worse extends RuntimeException {}

class Local extends RuntimeException {}

@ResponseStatus(HttpStatus.CREATED)
abstract class Base {}

@RestController
class C extends Base {
    @PostMapping("/c") void create() {}

    @PostMapping("/own") @ResponseStatus(HttpStatus.ACCEPTED) void own() {}

    @PostMapping("/entity") ResponseEntity<String> entity() {
        return ResponseEntity.status(HttpStatus.OK).body("");
    }

    @GetMapping("/bad") String bad() { throw new Bad(); }

    @GetMapping("/worse") String worse() { throw new Worse(); }

    @GetMapping("/local") String local() { throw new Local(); }

    @ExceptionHandler(Local.class) void onLocal() {}
}

@ResponseStatus(HttpStatus.NO_CONTENT)
@RestController
class D extends Base {
    @DeleteMapping("/d") void delete() {}
}

@ResponseStatus(HttpStatus.BAD_REQUEST)
abstract class BaseAdvice {}

@RestControllerAdvice
class A extends BaseAdvice {
    @ExceptionHandler(Bad.class) String h() { return "bad"; }

    @ExceptionHandler(Worse.class) @ResponseStatus(HttpStatus.CONFLICT)
    String w() { return "worse"; }
}
"""


# As Spring's HandlerMethod does: a handler or exception handler with no
# @ResponseStatus of its own takes the nearest one of its bean's class and
# superclasses; the bean of an exception handler is the class that scopes
# it, a controller or an advice. Such a status counts as a handler's own.
def test_response_status_of_a_bean_class_applies_to_its_handlers():
    _, _, _, ops, diags = analyze(CLASS_STATUSES)
    assert {(path, verb): statuses(op) for (path, verb), op in ops.items()} \
        == {("/c", "POST"): ["201"], ("/own", "POST"): ["202"],
            ("/entity", "POST"): ["200", "201"],
            ("/bad", "GET"): ["201", "400"],
            ("/worse", "GET"): ["201", "409"],
            ("/local", "GET"): ["201"], ("/d", "DELETE"): ["204"]}
    assert diags == []
    # the same status declared on each handler gives the same responses
    _, _, _, own_ops, _ = analyze(CLASS_STATUSES.replace(
        '@PostMapping("/entity")',
        '@PostMapping("/entity") @ResponseStatus(HttpStatus.CREATED)'))
    assert own_ops["/entity", "POST"] == ops["/entity", "POST"]


def test_unmappable_response_status_of_a_bean_class_is_reported(tmp_path):
    (tmp_path / "C.java").write_text(
        "package app;\n" + SPRING_HEAD
        + "class Bad extends RuntimeException {}\n"
        "@ResponseStatus(HttpStatus.NO_SUCH)\n@RestController\nclass C {\n"
        '    @GetMapping("/a") void a() {}\n'
        '    @GetMapping("/b") String b() { throw new Bad(); }\n}\n'
        "@ResponseStatus(code = HttpStatus.NO_SUCH)\n"
        "@RestControllerAdvice\nclass A {\n"
        "    @ExceptionHandler(Bad.class) void h() {}\n}\n")
    result = generate_project(tmp_path)
    assert {path: list(item["get"]["responses"]) for path, item
            in result.documents["default"]["paths"].items()} == {
        "/a": ["200"], "/b": ["200", "500"]}
    # each once, though C's applies to two handlers
    assert [(d.code, d.message, d.file, d.line)
            for d in result.diagnostics] == [
        ("UNRESOLVED_STATUS", "@ResponseStatus of app.C maps to no HTTP "
         "status code; ignored", "C.java", 0),
        ("UNRESOLVED_STATUS", "@ResponseStatus of app.A maps to no HTTP "
         "status code; ignored", "C.java", 0),
        ("UNRESOLVED_STATUS", "exception handler h for Bad has no "
         "statically readable status; assuming 500", "C.java", 14)]


BARE_STATUSES = """
package app;
import org.springframework.web.bind.annotation.*;

@ResponseStatus(reason = "gone")
class Gone extends RuntimeException {}

class Bad extends RuntimeException {}

@RestController
class C {
    @GetMapping("/a") @ResponseStatus(reason = "nope") void a() {}

    @GetMapping("/gone") String gone() { throw new Gone(); }

    @GetMapping("/bad") String bad() { throw new Bad(); }

    @ExceptionHandler(Bad.class) @ResponseStatus void onBad() {}
}

@ResponseStatus(reason = "x")
@RestController
class D {
    @GetMapping("/d") void d() {}
}
"""


# The Javadoc of @ResponseStatus gives `code` the default
# INTERNAL_SERVER_ERROR, so one that sets neither `value` nor `code` means
# 500 on a handler, an exception handler, a bean or an exception class.
def test_response_status_without_a_code_means_500():
    _, _, _, ops, diags = analyze(BARE_STATUSES)
    assert {path: statuses(op) for (path, _), op in ops.items()} == {
        "/a": ["500"], "/gone": ["200", "500"], "/bad": ["200", "500"],
        "/d": ["500"]}
    assert diags == []


INTERFACE_STATUSES = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.web.bind.annotation.*;

@ResponseStatus(HttpStatus.CREATED)
interface Created {}

@ResponseStatus(HttpStatus.ACCEPTED)
interface Accepted {}

@ResponseStatus(HttpStatus.NOT_FOUND)
interface Missing {}

@ResponseStatus(HttpStatus.BAD_REQUEST)
interface Rejected {}

class NoSuchOrder extends RuntimeException implements Missing {}

class Bad extends RuntimeException {}

abstract class Base implements Created {}

@RestController
class C implements Created {
    @PostMapping("/d") void d() {}

    @GetMapping("/e") String e() { throw new NoSuchOrder(); }

    @GetMapping("/bad") String bad() { throw new Bad(); }
}

@RestController
class D extends Base implements Accepted {
    @PostMapping("/f") void f() {}
}

@RestControllerAdvice
class A implements Rejected {
    @ExceptionHandler(Bad.class) void h() {}
}
"""


# Spring's HandlerMethod reads the bean's @ResponseStatus, and its
# ResponseStatusExceptionResolver the exception's, with
# AnnotatedElementUtils.findMergedAnnotation, whose TYPE_HIERARCHY search
# visits a class, its interfaces, then its superclass: so D's interface
# wins over its superclass's.
def test_response_status_of_an_interface_applies():
    _, _, _, ops, diags = analyze(INTERFACE_STATUSES)
    assert {path: statuses(op) for (path, _), op in ops.items()} == {
        "/d": ["201"], "/e": ["201", "404"], "/bad": ["201", "400"],
        "/f": ["202"]}
    assert diags == []


def test_every_endpoint_has_a_response():
    _, _, _, ops, _ = analyze(RESPONSES)
    assert ops
    assert all(op["responses"] for op in ops.values())


UNMAPPED_STATUS = """
package app;
import org.springframework.http.HttpStatus;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping({"/a", "/b"})
    ResponseEntity<String> get() {
        return ResponseEntity.status(600).body(HttpStatus.NO_SUCH.name());
    }

    @GetMapping("/c")
    @ResponseStatus(HttpStatus.NO_SUCH)
    void annotated() {}
}
"""


def test_unmapped_status_is_diagnosed_once_and_200_applies():
    _, _, _, ops, diags = analyze(UNMAPPED_STATUS)
    assert [(path, statuses(op)) for (path, _), op in ops.items()] == [
        ("/a", ["200"]), ("/b", ["200"]), ("/c", ["200"])]
    assert [(d.code, d.message) for d in diags] == [
        ("UNRESOLVED_STATUS",
         "status '600' in get maps to no HTTP status code; ignored"),
        ("UNRESOLVED_STATUS",
         "status 'NO_SUCH' in get maps to no HTTP status code; ignored"),
        ("UNRESOLVED_STATUS",
         "@ResponseStatus of annotated maps to no HTTP status code; "
         "ignored")]


# -- one reading per decision -----------------------------------------------

TWO_VARIABLE_SEGMENT = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping("/f/{name}.{ext:[a-z]+}")
    String get(@PathVariable String name, @PathVariable String ext) {
        return name;
    }

    @GetMapping({"/p/{id:[0-9]+}", "/q/{id}"})
    String two(@PathVariable String id) { return id; }
}
"""


def test_each_variable_of_a_segment_keeps_its_pattern():
    _, _, _, ops, diags = analyze(TWO_VARIABLE_SEGMENT)
    assert [(path, [(p["name"], p["schema"].get("pattern"))
                    for p in params_of(op)])
            for (path, _), op in ops.items()] == [
        ("/f/{name}.{ext}", [("name", None), ("ext", "[a-z]+")]),
        ("/p/{id}", [("id", "[0-9]+")]),
        ("/q/{id}", [("id", None)])]
    assert diags == []


EXCEPTION_BODY_STATUS = """
package app;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

class Missing extends RuntimeException {}

@RestController
class C {
    @GetMapping("/x")
    String get() { throw new Missing(); }

    @ExceptionHandler(Missing.class)
    ResponseEntity<String> missing(boolean teapot) {
        if (teapot) {
            return ResponseEntity.status(999).build();
        }
        return ResponseEntity.status(404).build();
    }
}
"""


def test_exception_handler_reports_an_unmapped_status():
    model = model_from(EXCEPTION_BODY_STATUS)
    local = model.classes["app.C"]
    diags = []
    assert resolve_exception_status("Missing", local, [], model, diags) \
        == "404"
    handler = next(m for m in local.methods if m.name == "missing")
    assert [(d.code, d.message, d.file, d.line) for d in diags] == [
        ("UNRESOLVED_STATUS",
         "status '999' in missing maps to no HTTP status code; ignored",
         "<test-0>", handler.line)]


def test_exception_handler_without_a_readable_status_gives_500():
    model = model_from("""
package app;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

class Missing extends RuntimeException {}

@RestControllerAdvice
class Advice {
    @ExceptionHandler(Missing.class)
    ResponseEntity<String> missing(Missing e) {
        return ResponseEntity.status(e.code()).build();
    }
}
""")
    advice = model.classes["app.Advice"]
    diags = []
    assert resolve_exception_status("Missing", advice, [advice], model,
                                    diags) == "500"
    assert [(d.code, d.message, d.line) for d in diags] == [
        ("UNRESOLVED_STATUS", "exception handler missing for Missing has no "
         "statically readable status; assuming 500",
         advice.methods[0].line)]


def test_handler_returning_object_has_a_response_without_schema():
    _, _, reg, ops, diags = analyze("""
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping("/any")
    Object any() { return lookup(); }

    @GetMapping("/all")
    Object[] all() { return lookup(); }
}
""")
    # an array of Object still has a body: an array of anything
    assert {path: op["responses"] for (path, _), op in ops.items()} == {
        "/any": {"200": {"description": "OK"}},
        "/all": {"200": {"description": "OK", "content": {
            "application/json": {"schema": {"type": "array",
                                            "items": {}}}}}}}
    assert reg.schemas == {}
    assert diags == []


RETURNING = """
package app;
import org.springframework.web.bind.annotation.*;

class User {{ String name; }}

@RestController
class C {{
    @GetMapping("/u")
    {returns} u() {{ return null; }}
}}
"""


def body_schema(returns):
    """The body schema of a handler returning `returns`, and the schemas
    registered."""
    _, _, reg, ops, diags = analyze(RETURNING.format(returns=returns))
    assert diags == []
    (ok,) = ops["/u", "GET"]["responses"].values()
    return ok["content"]["application/json"]["schema"], reg.schemas


USER = {"type": "object", "properties": {"name": {"type": "string"}}}


@pytest.mark.parametrize("returns", [
    "HttpEntity<User>", "Callable<User>", "WebAsyncTask<User>",
    "ListenableFuture<User>", "CompletionStage<User>",
    "CompletableFuture<User>", "CompletableFuture<ResponseEntity<User>>"])
def test_entity_and_async_returns_write_their_type_argument(returns):
    assert body_schema(returns) == (
        {"$ref": "#/components/schemas/User"}, {"User": USER})


def test_a_raw_future_refers_to_the_unspecified_type():
    assert body_schema("CompletableFuture") == (
        {"$ref": "#/components/schemas/UNSPECIFIED_TYPE"},
        {"UNSPECIFIED_TYPE": {}})


def test_a_model_class_named_unspecified_type_has_its_own_schema():
    _, _, reg, ops, _ = analyze("""
package app;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

class UNSPECIFIED_TYPE { String name; }

@RestController
class C {
    @GetMapping("/model")
    UNSPECIFIED_TYPE model() { return null; }

    @GetMapping("/raw")
    ResponseEntity raw() { return null; }
}
""")
    assert {path: op["responses"]["200"]["content"]["application/json"]
            ["schema"]["$ref"].rsplit("/", 1)[1]
            for (path, _), op in ops.items()} == {
        "/model": "UNSPECIFIED_TYPE", "/raw": "UNSPECIFIED_TYPE_2"}
    assert reg.schemas == {"UNSPECIFIED_TYPE": USER, "UNSPECIFIED_TYPE_2": {}}


def test_return_in_an_anonymous_class_or_lambda_adds_no_200():
    _, _, _, ops, _ = analyze("""
package app;
import java.util.*;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @PostMapping("/sorted")
    ResponseEntity<Void> sorted(@RequestBody List<String> names) {
        names.sort(new Comparator<>() {
            public int compare(String a, String b) {
                return 0;
            }
        });
        names.removeIf(name -> {
            if (name.isEmpty()) {
                throw new IllegalArgumentException();
            }
            return false;
        });
        return ResponseEntity.status(201).build();
    }
}
""")
    # the lambda's throw still counts
    assert statuses(ops["/sorted", "POST"]) == ["201", "500"]


UNRESOLVED_NAMES = """
package app;
import javax.servlet.http.HttpServletRequest;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping(Missing.PATH)
    String get(@RequestParam(Missing.NAME) String q) { return q; }

    @GetMapping({"/a", "/b/{id:[0-9]+"})
    String servlet(HttpServletRequest request) { return ""; }

    static final String ROOT = "/r";

    @GetMapping({Missing.BASE + "/x", ROOT + Missing.BASE + "/x"})
    String concat() { return ""; }
}
"""


def test_unresolved_names_and_bad_segments_carry_the_handler_line():
    model, _, _, ops, diags = analyze(UNRESOLVED_NAMES)
    lines = {m.name: m.line for m in model.classes["app.C"].methods}
    assert [(path, [p["name"] for p in params_of(op)])
            for (path, _), op in ops.items()] == [
        ("/Missing.PATH", ["q"]), ("/a", []), ("/b/{id:[0-9]+", []),
        ("/Missing.BASE/x", []), ("/rMissing.BASE/x", [])]
    assert [(d.code, d.message, d.file, d.line) for d in diags] == [
        ("UNRESOLVED_CONSTANT",
         "cannot resolve path constant 'Missing.PATH' in app.C",
         "<test-0>", lines["get"]),
        ("UNRESOLVED_CONSTANT",
         "cannot resolve parameter name 'Missing.NAME' in app.C",
         "<test-0>", lines["get"]),
        # once for the handler, not once for each of its two paths
        ("SERVLET_PARAMETER",
         "servlet parameter 'request' of servlet skipped; encapsulated "
         "parameters are not statically visible",
         "<test-0>", lines["servlet"]),
        ("BAD_PATH_SEGMENT",
         "unclosed '{' in path '/b/{id:[0-9]+'; kept as text",
         "<test-0>", lines["servlet"]),
        ("UNRESOLVED_CONSTANT",
         "cannot resolve path constant 'Missing.BASE + \"/x\"' in app.C",
         "<test-0>", lines["concat"]),
        ("UNRESOLVED_CONSTANT",
         "cannot resolve path constant 'ROOT + Missing.BASE + \"/x\"' in "
         "app.C", "<test-0>", lines["concat"])]


INHERITED_BASE = """
package app;
import javax.servlet.http.HttpServletRequest;
import org.springframework.http.ResponseEntity;
import org.springframework.web.bind.annotation.*;

class Base {
    @GetMapping("/s/{id}")
    ResponseEntity<String> servlet(HttpServletRequest request, String loose,
                                   @RequestParam(Missing.NAME) String q) {
        return ResponseEntity.status(999).build();
    }

    @GetMapping("/dup")
    String dup(@RequestParam int x) { return ""; }
}
"""

INHERITED_API = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class Api extends Base {
    @GetMapping("/dup")
    String dup() { return ""; }
}
"""


def test_inherited_handler_diagnostics_name_the_declaring_file():
    model, _, _, ops, diags = analyze(INHERITED_BASE, INHERITED_API)
    base = model.classes["app.Base"]
    lines = {m.name + str(len(m.parameters)): m.line for m in base.methods}
    assert base.source_file == "<test-0>"
    assert model.classes["app.Api"].source_file == "<test-1>"
    assert [(d.code, d.file, d.line) for d in diags] == [
        ("SERVLET_PARAMETER", "<test-0>", lines["servlet3"]),
        ("SKIPPED_PARAMETER", "<test-0>", lines["servlet3"]),
        ("UNRESOLVED_CONSTANT", "<test-0>", lines["servlet3"]),
        ("UNBOUND_PATH_VARIABLE", "<test-0>", lines["servlet3"]),
        ("UNRESOLVED_STATUS", "<test-0>", lines["servlet3"]),
        ("DUPLICATE_METHOD", "<test-0>", lines["dup1"])]
    # the subclass's own handler comes first and keeps GET /dup; the
    # inherited one follows
    assert list(ops) == [("/dup", "GET"), ("/s/{id}", "GET")]
    assert params_of(ops["/dup", "GET"]) == []


NON_STRING_PATHS = """
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    @GetMapping(5)
    String number() { return ""; }

    @GetMapping(path = Api.class)
    String type() { return ""; }

    @GetMapping({true, @Deprecated})
    String mixed() { return ""; }
}
"""


def test_non_string_path_values_are_spelled_as_in_the_source():
    _, _, _, ops, diags = analyze(NON_STRING_PATHS)
    assert sorted(path for path, _ in ops) == [
        "/5", "/@Deprecated", "/Api.class", "/true"]
    assert [(d.code, d.message) for d in diags] == [
        ("UNRESOLVED_CONSTANT", f"cannot resolve path constant {value!r} in "
                                "app.C")
        for value in ("5", "Api.class", "true", "@Deprecated")]


def test_handlers_are_analyzed_once_and_linked_per_profile(tmp_path,
                                                          monkeypatch):
    head = ("package app;\n"
            "import org.springframework.context.annotation.Profile;\n"
            "import org.springframework.http.HttpStatus;\n"
            "import org.springframework.web.bind.annotation.*;\n")
    (tmp_path / "Api.java").write_text(
        head + "@RestController\nclass Api {\n"
        '    @GetMapping("/a")\n    String a() { throw new NotFound(); }\n'
        '    @GetMapping("/b")\n'
        '    String b(@RequestParam String q) { return ""; }\n}\n'
        "class NotFound extends RuntimeException {}\n")
    (tmp_path / "Dev.java").write_text(
        head + '@RestControllerAdvice\n@Profile("dev")\nclass DevAdvice {\n'
        "    @ExceptionHandler(NotFound.class)\n"
        "    @ResponseStatus(HttpStatus.NOT_FOUND)\n    void gone() {}\n}\n")
    (tmp_path / "Prod.java").write_text(
        head + '@RestController\n@Profile("prod")\nclass ProdApi {\n'
        '    @GetMapping("/p")\n    String p() { return ""; }\n}\n')
    analyzed = []
    original = endpoints.extract_parameters

    def counting(handler, *args):
        analyzed.append(handler.name)
        return original(handler, *args)

    monkeypatch.setattr(endpoints, "extract_parameters", counting)
    finished = []
    original_responses = endpoints.extract_responses

    def counting_responses(handler, success, advices, *args):
        finished.append((handler.name,
                         tuple(a.simple_name for a in advices)))
        return original_responses(handler, success, advices, *args)

    monkeypatch.setattr(endpoints, "extract_responses", counting_responses)
    docs = generate_project(tmp_path).documents
    assert list(docs) == ["default", "dev", "prod"]
    assert sorted(analyzed) == ["a", "b", "p"]
    assert {profile: list(doc["paths"]["/a"]["get"]["responses"])
            for profile, doc in docs.items()} == {
        "default": ["200", "500"], "dev": ["200", "404"],
        "prod": ["200", "500"]}
    # "default" and "prod" have the same advices, none, and share the
    # finished operation; "dev" finishes its own
    a = {profile: doc["paths"]["/a"]["get"] for profile, doc in docs.items()}
    assert a["default"] is a["prod"]
    assert a["dev"] is not a["default"]
    assert sorted(finished) == [("a", ()), ("a", ("DevAdvice",)),
                                ("b", ()), ("b", ("DevAdvice",)),
                                ("p", ())]


def test_constants_defined_by_each_other_are_unresolved_not_recursive():
    model, _, _, ops, diags = analyze("""
package app;
import org.springframework.web.bind.annotation.*;

@RestController
class C {
    static final String A = B + "/x";
    static final String B = A;

    @GetMapping(A)
    String get() { return ""; }
}
""")
    assert list(ops) == [("/A", "GET")]
    assert [(d.code, d.message) for d in diags] == [
        ("UNRESOLVED_CONSTANT", "cannot resolve path constant 'A' in app.C")]
