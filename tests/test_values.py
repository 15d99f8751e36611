"""The value classes compare, hash, copy and guard their fields as the
dataclasses they replaced did."""

import pytest

from conftest import model_from
from oasforge.diagnostics import Diagnostic
from oasforge.discovery import ControllerSet
from oasforge.evaluation import CategoryScore
from oasforge.javasrc import (AnnotationUse, BodyFacts, ClassDecl, ClassRef,
                              Concat, FieldDecl, MethodDecl, NameRef,
                              ParamDecl, TypeRef)
from oasforge.values import replace

STRING = TypeRef("String")
VALUES = [
    NameRef(("a", "B")), ClassRef("a.B"), Concat(("/a", NameRef(("B",)))),
    TypeRef("List", (STRING,), 1), BodyFacts(frozenset({"E"})),
    ParamDecl("q", STRING), FieldDecl("name", STRING, line=3),
    MethodDecl("get", (), (ParamDecl("q", STRING),), STRING, (), BodyFacts()),
    Diagnostic("PARSE_ERROR", "bad", "A.java", 1), CategoryScore(1, 2, 3),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_equals_hashes_and_copies_by_its_fields(value):
    fields = tuple(getattr(value, name) for name in value._fields)
    copy = replace(value)
    assert copy == value and copy is not value
    assert hash(value) == hash(fields)  # as a frozen dataclass hashes
    assert value != fields  # another class, even with the same fields
    assert len({value, copy}) == 1
    assert repr(value).startswith(f"{type(value).__name__}(")


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_assigning_or_deleting_a_field_of_a_value_raises(value):
    name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1  # no field of that name, and no __dict__


def test_replace_changes_only_the_fields_it_names():
    ref = TypeRef("String", (), 1)
    assert replace(ref, array_depth=2) == TypeRef("String", (), 2)
    assert replace(ref, raw_name="Long").array_depth == 1
    with pytest.raises(TypeError):
        replace(ref, unknown=1)


def test_equal_fields_of_different_classes_are_not_equal():
    assert NameRef(("a",)) != Concat(("a",))
    assert ClassRef("a") != "a"


def test_a_field_set_of_one_default_dict_per_instance():
    assert AnnotationUse("A").attributes == {}
    assert AnnotationUse("A").attributes is not AnnotationUse("B").attributes
    with pytest.raises(TypeError):  # a dict field, as with the dataclass
        hash(AnnotationUse("A"))


def test_records_are_mutable_unhashable_and_equal_by_their_fields():
    a, b = ControllerSet(), ControllerSet()
    assert a == b and a.controllers is not b.controllers
    a.controllers.append(None)
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_class_decl_keeps_its_cached_properties_out_of_its_fields():
    model = model_from("package app;\nclass Outer { static class In {\n"
                       '    static final String BASE = "/in"; } }')
    inner = model.classes["app.Outer.In"]
    assert inner.lexical_scopes == ["app.Outer.In", "app.Outer"]
    assert inner.string_constants == {"BASE": "/in"}
    assert inner.lexical_scopes is inner.lexical_scopes  # cached
    copy = replace(inner)
    assert copy == inner and "lexical_scopes" not in vars(copy)
    inner.access = "public"  # a record's fields may be assigned
    assert copy != inner
    assert "lexical_scopes" not in ClassDecl._fields
