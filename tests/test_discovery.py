"""Controller discovery and profile grouping."""

from conftest import model_from
from oasforge.discovery import (ALL, assign_profiles, discover_rest_classes,
                                group_by_profile)

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
    cs = discover_rest_classes(model_from(INHERITED))
    assert {c.simple_name for c in cs.controllers} == \
        {"AbstractApi", "ConcreteApi"}


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
    assert assign_profiles(model.classes["app.Everywhere"], model, []) is ALL


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
    assert assign_profiles(model.classes["app.NotProd"], model, diags) is ALL
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
