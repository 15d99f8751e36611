"""Controller discovery and profile grouping."""

import pytest

from conftest import model_from
from oasforge.discovery import (assign_profiles, discover_rest_classes,
                                group_by_profile)
from oasforge.endpoints import extract_endpoints
from oasforge.javasrc import SourceModel, parse_source
from oasforge.pipeline import generate_project
from oasforge.schemas import SchemaRegistry

PLAIN = """
package app;

import org.springframework.web.bind.annotation.RestController;

@RestController
class Api {}

class Helper {}
"""

ADVICE = """
package app;

import org.springframework.web.bind.annotation.ControllerAdvice;
import org.springframework.web.bind.annotation.ExceptionHandler;
import org.springframework.web.bind.annotation.RestController;

@RestController
class PasteController {}

@ControllerAdvice
class PasteErrorAdvice {
    @ExceptionHandler(IllegalArgumentException.class)
    void bad() {}
}
"""

INHERITED = """
package app;

import org.springframework.web.bind.annotation.RestController;

@RestController
abstract class AbstractApi {}

class ConcreteApi extends AbstractApi {}
"""


def test_marker_annotation_makes_controller():
    cs = discover_rest_classes(model_from(PLAIN))
    assert [c.simple_name for c in cs.controllers] == ["Api"]
    assert cs.advices == []


def test_advice_discovered_alongside_controller():
    cs = discover_rest_classes(model_from(ADVICE))
    assert len(cs.controllers) == 1
    assert [a.simple_name for a in cs.advices] == ["PasteErrorAdvice"]


def test_controller_marker_inherited_from_superclass():
    # the abstract class that carries the marker is not registered itself
    cs = discover_rest_classes(model_from(INHERITED))
    assert [c.simple_name for c in cs.controllers] == ["ConcreteApi"]


def test_abstract_classes_are_neither_controllers_nor_advices():
    cs = discover_rest_classes(model_from(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nabstract class Api {}\n"
        "@RestControllerAdvice\nabstract class Advice {}\n"
        "abstract class Mid extends Api {}\nclass Leaf extends Mid {}\n"
        "@RestControllerAdvice\nclass Concrete extends Advice {}\n"))
    assert [c.simple_name for c in cs.controllers] == ["Leaf"]
    assert [a.simple_name for a in cs.advices] == ["Concrete"]


LAYERED = """
package app;

import org.springframework.web.bind.annotation.RestController;

class Leaf extends Mid {}
class Mid extends Base {}
@RestController
class Base extends Root {}
class Root {}
class Other extends Root {}
"""


def test_controller_marker_reaches_subclasses_declared_before_it():
    cs = discover_rest_classes(model_from(LAYERED))
    assert [c.simple_name for c in cs.controllers] == ["Leaf", "Mid", "Base"]


class _CountingClasses(dict):
    """Classes by name that count the lookups made in them."""

    reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.reads += 1
        return super().get(name, default)

    def __contains__(self, name):
        self.reads += 1
        return super().__contains__(name)


def _chain_reads(depth: int) -> int:
    """Lookups in `classes` by discovery, grouping and extraction on
    `D{i} extends D{i-1}`, `depth` classes, and a controller that returns
    the deepest."""
    source = (
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        f'    @GetMapping("/d")\n    D{depth - 1} get() {{ return null; }}\n'
        "}\nclass D0 {}\n"
        + "".join(f"class D{i} extends D{i - 1} {{}}\n"
                  for i in range(1, depth)))
    classes = _CountingClasses(
        (cls.qualified_name, cls) for cls in parse_source(source))
    model = SourceModel(classes)
    classes.reads = 0
    diagnostics = []
    for unit in group_by_profile(discover_rest_classes(model), model,
                                 diagnostics):
        reg = SchemaRegistry()
        extract_endpoints(unit, model, reg, {}, diagnostics)
        assert len(reg.schemas) == depth
    return classes.reads


def test_hierarchy_walks_grow_linearly_with_chain_depth():
    # a count, not a timing: each class's superclass is looked up a
    # bounded number of times however deep the chain is
    assert _chain_reads(2000) / _chain_reads(1000) <= 2.2


PROFILED = """
package app;

import org.springframework.context.annotation.Profile;
import org.springframework.web.bind.annotation.RestController;

@Profile("external")
@RestController
class External {}

@Profile({"a", "b"})
@RestController
class Multi {}

@RestController
class Everywhere {}
"""


def test_single_profile_annotation():
    model = model_from(PROFILED)
    assert assign_profiles(model.classes["app.External"], model, []) == \
        {"external"}


def test_no_annotation_means_all():
    model = model_from(PROFILED)
    assert assign_profiles(model.classes["app.Everywhere"], model, []) is None


def test_profile_array_attribute():
    model = model_from(PROFILED)
    assert assign_profiles(model.classes["app.Multi"], model, []) == {"a", "b"}


def test_negated_profile_is_diagnostic_and_all():
    src = """
package app;
import org.springframework.context.annotation.Profile;
import org.springframework.web.bind.annotation.RestController;

@Profile("!prod")
@RestController
class NotProd {}
"""
    model = model_from(src)
    diags = []
    assert assign_profiles(model.classes["app.NotProd"], model, diags) is None
    assert len(diags) == 1 and diags[0].code == "PROFILE_NEGATION"


def test_grouping_splits_by_profile():
    model = model_from(PROFILED)
    cs = discover_rest_classes(model)
    units = {u.profile_name: u for u in group_by_profile(cs, model, [])}
    assert set(units) == {"default", "external", "a", "b"}
    assert {c.simple_name for c in units["external"].controller_set.controllers} \
        == {"External", "Everywhere"}
    assert {c.simple_name for c in units["default"].controller_set.controllers} \
        == {"Everywhere"}


def test_no_profiles_yields_single_default_unit():
    model = model_from(PLAIN)
    cs = discover_rest_classes(model)
    units = group_by_profile(cs, model, [])
    assert [u.profile_name for u in units] == ["default"]
    assert units[0].controller_set.controllers == cs.controllers


def test_union_over_units_covers_all_controllers():
    model = model_from(PROFILED)
    cs = discover_rest_classes(model)
    units = group_by_profile(cs, model, [])
    union = {c.qualified_name
             for u in units for c in u.controller_set.controllers}
    assert union == {c.qualified_name for c in cs.controllers}


def test_unresolved_profile_name_is_diagnostic_and_all():
    src = """
package app;
import org.springframework.context.annotation.Profile;
import org.springframework.web.bind.annotation.RestController;

@Profile(Missing.EU)
@RestController
class Api {}
"""
    model = model_from(src)
    diags = []
    assert assign_profiles(model.classes["app.Api"], model, diags) is None
    assert [(d.code, d.message, d.file) for d in diags] == [
        ("UNRESOLVED_CONSTANT",
         "cannot resolve profile name 'Missing.EU' in app.Api", "<test-0>")]


def profiles_and_diagnostics(value: str):
    """What `assign_profiles` gives for `@Profile(value)` on `app.Api`, and
    the code and message of each diagnostic it reports, in order."""
    model = model_from(
        "package app;\nimport org.springframework.context.annotation.Profile;"
        f"\n@Profile({value})\nclass Api {{}}\n")
    diags = []
    profiles = assign_profiles(model.classes["app.Api"], model, diags)
    return profiles, [(d.code, d.message) for d in diags]


def test_profile_names_are_read_up_to_the_first_negation():
    # an unresolved name before it is reported; one after it is not read
    assert profiles_and_diagnostics(
        '{Missing.A, "eu", "!prod", Missing.B}') == (None, [
            ("UNRESOLVED_CONSTANT",
             "cannot resolve profile name 'Missing.A' in app.Api"),
            ("PROFILE_NEGATION", "negated profile expression '!prod' on "
             "app.Api treated as all profiles")])


def test_unresolved_profile_name_is_left_out_of_the_others():
    assert profiles_and_diagnostics('{"eu", Missing.X}') == ({"eu"}, [
        ("UNRESOLVED_CONSTANT",
         "cannot resolve profile name 'Missing.X' in app.Api")])


def test_default_profile_named_explicitly_is_the_one_default_unit(tmp_path):
    sources = {name: "package app;\n"
               "import org.springframework.context.annotation.Profile;\n"
               "import org.springframework.web.bind.annotation.*;\n"
               f'@Profile("{profile}")\n@RestController\nclass {name} {{\n'
               f'    @GetMapping("{path}")\n'
               '    String get() { return ""; }\n}\n'
               for name, profile, path in (("D", "default", "/d"),
                                           ("Dev", "dev", "/dev"))}
    model = model_from(*sources.values())
    units = group_by_profile(discover_rest_classes(model), model, [])
    assert [u.profile_name for u in units] == ["default", "dev"]
    for name, source in sources.items():
        (tmp_path / f"{name}.java").write_text(source)
    docs = generate_project(tmp_path).documents
    assert {profile: list(doc["paths"]) for profile, doc in docs.items()} == {
        "default": ["/d"], "dev": ["/dev"]}


@pytest.mark.parametrize("client", [
    "import org.springframework.cloud.openfeign.FeignClient;\n"
    '@FeignClient(name = "users")',
    "import org.springframework.web.service.annotation.HttpExchange;\n"
    '@HttpExchange("/api")',
], ids=["feign", "http-exchange"])
def test_client_interface_without_a_controller_gives_no_operation(
        tmp_path, client):
    # a client interface carries the controllers' mapping annotations, but
    # no in-tree controller implements it, so Spring serves none of them
    (tmp_path / "UserClient.java").write_text(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        f"{client}\npublic interface UserClient {{\n"
        '    @GetMapping("/users/{id}")\n'
        '    String get(@PathVariable("id") long id);\n}\n')
    (tmp_path / "Api.java").write_text(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        '@RestController\nclass Api {\n    @GetMapping("/ping")\n'
        '    String ping() { return ""; }\n}\n')
    result = generate_project(tmp_path)
    assert {profile: list(doc["paths"])
            for profile, doc in result.documents.items()} == {
        "default": ["/ping"]}
    assert result.diagnostics == []
