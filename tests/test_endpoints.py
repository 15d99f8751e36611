"""Endpoint extraction: paths, verbs, parameters, responses."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import model_from
from oasforge.discovery import discover_rest_classes, group_by_profile
from oasforge.endpoints import (expand_model_attribute, extract_endpoints,
                                extract_parameters, extract_responses,
                                normalize_path, resolve_exception_status,
                                split_path_pattern)
from oasforge.schemas import SchemaRegistry
from oasforge.spring import HTTP_VERBS


def analyze(*sources):
    model = model_from(*sources)
    cs = discover_rest_classes(model)
    units = group_by_profile(cs, model, [])
    reg = SchemaRegistry()
    diags = []
    eps = extract_endpoints(units[0], model, reg, diags)
    return model, units[0], reg, eps, diags


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
    assert split_path_pattern("{year:\\d+}", []) == ("{year}", ("year", "\\d+"))
    assert split_path_pattern("{id:[0-9]+}", []) == ("{id}", ("id", "[0-9]+"))


def test_split_pattern_passthrough():
    assert split_path_pattern("items", []) == ("items", None)
    assert split_path_pattern("{id}", []) == ("{id}", None)


def test_split_pattern_unbalanced_is_diagnostic():
    diags = []
    seg, constraint = split_path_pattern("{id:[0-9]+", diags)
    assert seg == "{id:[0-9]+" and constraint is None
    assert len(diags) == 1


@given(st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True),
       st.from_regex(r"[\[\]0-9a-z+*?\\-]{1,10}", fullmatch=True))
def test_split_pattern_round_trip(name, regex):
    clean, constraint = split_path_pattern("{" + name + ":" + regex + "}", [])
    assert constraint is not None
    rebuilt = "{" + constraint[0] + ":" + constraint[1] + "}"
    assert rebuilt == "{" + name + ":" + regex + "}"
    assert clean == "{" + name + "}"


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
    _, _, _, eps, _ = analyze(BARE_MAPPING)
    assert {e.verb for e in eps} == set(HTTP_VERBS)
    assert all(e.path == "/x" for e in eps)


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
    _, _, _, eps, _ = analyze(src)
    assert {e.verb for e in eps} == {"GET", "POST"}


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
    _, _, _, eps, _ = analyze(src)
    assert {(e.path, e.verb) for e in eps} == {("/a", "GET"), ("/b", "GET")}


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
    _, _, _, eps, diags = analyze(src)
    assert {(e.path, e.verb) for e in eps} == {("/a", "GET"), ("/b", "POST")}
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
    _, _, _, eps, _ = analyze(src)
    assert [(e.path, e.verb) for e in eps] == [("/sub", "GET")]


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
    _, _, _, eps, _ = analyze(src)
    assert {e.path for e in eps} == {"/config/scoring.project", "/config"}


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
    _, _, _, eps, diags = analyze(src)
    assert len(eps) == 1
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
    model, unit, reg, eps, diags = analyze(PARAMS)
    ep = next(e for e in eps if e.path == name)
    return ep, diags


def test_request_param_name_attribute_wins():
    ep, _ = params_for("/q")
    names = {p.name: p for p in ep.parameters}
    assert "sort_by" in names and "sortBy" not in names
    assert names["sort_by"].location == "query"


def test_required_attribute_honored():
    ep, _ = params_for("/q")
    by_name = {p.name: p for p in ep.parameters}
    assert by_name["sort_by"].required is True
    assert by_name["limit"].required is False
    assert by_name["X-Org"].location == "header"


def test_servlet_and_unannotated_parameters_skipped_with_diagnostics():
    ep, diags = params_for("/q")
    assert {p.name for p in ep.parameters} == {"sort_by", "limit", "X-Org"}
    codes = [d.code for d in diags]
    assert "SERVLET_PARAMETER" in codes
    assert "SKIPPED_PARAMETER" in codes


def test_request_body_is_not_a_parameter():
    ep, _ = params_for("/scoring")
    assert ep.parameters == []
    assert ep.request_body is not None
    assert ep.request_body.schema.kind == "ref"
    assert ep.request_body.schema.ref_name == "ScoringConfig"


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
    assert [(p.name, p.location) for p in params] == \
        [("a", "query"), ("b", "query"), ("c", "query")]
    assert params[0].schema.oas_type == "integer"


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
    _, _, _, eps, diags = analyze(TEMPLATE)
    [ep] = eps
    assert ep.path == "/shops/{shop}/items/{item}/{shop}"
    assert [(p.name, p.location, p.required, p.schema.oas_type, p.pattern)
            for p in ep.parameters] == [
        ("q", "query", True, "string", None),
        ("owner", "query", False, "string", None),
        ("shop", "path", True, "string", "[a-z]+"),
        ("item", "path", True, "string", None)]
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
    model, unit, reg, eps, diags = analyze(RESPONSES)
    return model, unit, next(e for e in eps if e.path == path)


def test_void_handler_defaults_to_200_without_schema():
    _, _, ep = endpoint("/void")
    assert [(r.status, r.schema) for r in ep.responses] == [("200", None)]


def test_explicit_and_default_statuses_union():
    _, _, ep = endpoint("/mixed")
    assert [r.status for r in ep.responses] == ["200", "201"]


def test_thrown_exception_translated_via_advice():
    _, _, ep = endpoint("/forbidden")
    assert [r.status for r in ep.responses] == ["200", "403"]


def test_response_status_annotation_replaces_200():
    _, _, ep = endpoint("/annotated")
    assert [r.status for r in ep.responses] == [("202")]


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
# the `otherErr` handler, which names the other one, must not catch it.
EXCEPTION_PACKAGES = (
    "package app.a;\npublic class Err extends RuntimeException {}\n",
    "package app.b;\npublic class Err extends RuntimeException {}\n",
    "package app;\nimport app.a.Err;\nclass Leaf extends Err {}\n",
)


@pytest.mark.parametrize("thrown, status", [
    # both names resolve: exact match, then a match on a superclass
    ("NotFound", "404"),
    ("Deep", "400"),
    ("Base", "400"),
    ("app.b.Err", "422"),
    # the handler target is outside the tree: it matches a class of the
    # thrown type's chain by simple name, but the chain ends at the tree's
    # edge, so a RuntimeException handler does not see Gone's superclass
    ("Leaf", "410"),
    ("Gone", "500"),
    # the thrown type is outside the tree: simple-name equality only
    ("UncheckedIOException", "500"),
    # neither name resolves
    ("IllegalStateException", "503"),
    ("java.lang.IllegalStateException", "503"),
])
def test_exception_status_by_name_resolution(thrown, status):
    model = model_from(EXCEPTIONS, *EXCEPTION_PACKAGES)
    handlers = model.classes["app.Handlers"]
    assert resolve_exception_status(thrown, handlers, [], model, []) == status


def test_every_endpoint_has_a_response():
    _, _, _, eps, _ = analyze(RESPONSES)
    assert eps
    assert all(e.responses for e in eps)


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
    _, _, _, eps, diags = analyze(UNMAPPED_STATUS)
    assert [(e.path, [r.status for r in e.responses]) for e in eps] == [
        ("/a", ["200"]), ("/b", ["200"]), ("/c", ["200"])]
    assert [(d.code, d.message) for d in diags] == [
        ("UNRESOLVED_STATUS",
         "status '600' in get maps to no HTTP status code; ignored"),
        ("UNRESOLVED_STATUS",
         "status 'NO_SUCH' in get maps to no HTTP status code; ignored"),
        ("UNRESOLVED_STATUS",
         "@ResponseStatus of annotated maps to no HTTP status code; "
         "assuming 200")]
