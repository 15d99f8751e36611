"""Type-to-schema mapping, named-schema registration, response unwrapping."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import model_from
from oasforge.javasrc import TypeRef, UNSPECIFIED_TYPE
from oasforge.pipeline import generate_project
from oasforge.schemas import (PRIMITIVE_MAP, SchemaRegistry, primitive,
                              ref_to, required_fields, schema_for_type,
                              unwrap_response_wrapper)

DOMAIN = """
package app;

class Account {
    private long id;
    private String owner;
}
"""


def ctx_model():
    model = model_from(DOMAIN)
    return model, model.classes["app.Account"]


def t(name, *args, depth=0):
    return TypeRef(name, tuple(args), depth)


# -- simple mapping ---------------------------------------------------------

def schema_of(ref, model, ctx):
    return schema_for_type(ref, model, SchemaRegistry(), ctx)


def test_integer_widths():
    model, ctx = ctx_model()
    assert schema_of(t("int"), model, ctx) == \
        schema_of(t("Integer"), model, ctx)
    assert schema_of(t("int"), model, ctx) == \
        {"type": "integer", "format": "int32"}
    assert schema_of(t("long"), model, ctx) == \
        {"type": "integer", "format": "int64"}
    assert schema_of(t("double"), model, ctx) == {"type": "number"}


def test_string_family():
    model, ctx = ctx_model()
    for name in ("String", "char", "UUID", "LocalDate"):
        assert schema_of(t(name), model, ctx) == {"type": "string"}


def test_array_and_collection_both_become_array():
    model, ctx = ctx_model()
    from_array = schema_of(t("String", depth=1), model, ctx)
    from_list = schema_of(t("List", t("String")), model, ctx)
    assert from_array == from_list
    assert from_array == {"type": "array", "items": {"type": "string"}}


def test_map_becomes_additional_properties():
    model, ctx = ctx_model()
    node = schema_of(t("Map", t("String"), t("Double")), model, ctx)
    assert node == {"type": "object",
                    "additionalProperties": {"type": "number"}}
    assert list(node) == ["type", "additionalProperties"]


def test_raw_collection_and_object_are_unspecified():
    model, ctx = ctx_model()
    assert schema_of(t("List"), model, ctx) == {"type": "array", "items": {}}
    assert schema_of(t("Map"), model, ctx) == \
        {"type": "object", "additionalProperties": {}}
    assert schema_of(t("Object"), model, ctx) == {}


def test_custom_class_needs_registry():
    model, ctx = ctx_model()
    reg = SchemaRegistry()
    node = schema_for_type(t("Account"), model, reg, ctx)
    assert node == {"$ref": "#/components/schemas/Account"}
    assert list(reg.schemas) == ["Account"]


@given(st.sampled_from(sorted(PRIMITIVE_MAP)))
def test_primitive_mapping_total_and_stable(name):
    model, ctx = ctx_model()
    node = schema_of(t(name), model, ctx)
    assert node == primitive(*PRIMITIVE_MAP[name])
    assert node["type"] in {"integer", "number", "boolean", "string"}
    assert node == schema_of(t(name), model, ctx)


# -- response unwrapping ----------------------------------------------------

def test_unwrap_generic_wrapper():
    inner = t("Account")
    assert unwrap_response_wrapper(t("ResponseEntity", inner)) == inner
    assert unwrap_response_wrapper(
        t("DeferredResult", t("ResponseEntity", inner))) == inner


def test_unwrap_raw_wrapper_is_unspecified_type():
    assert unwrap_response_wrapper(t("ResponseEntity")) == UNSPECIFIED_TYPE


def test_unwrap_passes_plain_types_through():
    assert unwrap_response_wrapper(t("String")) == t("String")


# -- named schemas ----------------------------------------------------------

REF = "#/components/schemas/"


def ref_name(schema):
    """The schema name a $ref schema refers to."""
    assert schema["$ref"].startswith(REF)
    return schema["$ref"][len(REF):]


def named(model, reg, qualified_name):
    """Register the model class `qualified_name` by referring to it from
    itself; return its schema name."""
    cls = model.classes[qualified_name]
    return ref_name(schema_for_type(t(cls.simple_name), model, reg, cls))


INHERIT = """
package app;

class Derived extends Base {
    private int rank;
    private String note;
}

class Base {
    private long serial;
    private Boolean active;
}
"""


def test_inheritance_becomes_all_of():
    model = model_from(INHERIT)
    reg = SchemaRegistry()
    name = named(model, reg, "app.Derived")
    node = reg.schemas[name]
    assert list(node) == ["allOf"]
    assert node["allOf"][0] == ref_to("Base")
    own = node["allOf"][1]
    assert list(own) == ["required", "type", "properties"]
    assert list(own["properties"]) == ["rank", "note"]
    assert reg.schemas["Base"] == {
        "required": ["serial"], "type": "object",
        "properties": {"serial": {"type": "integer", "format": "int64"},
                       "active": {"type": "boolean"}}}


def test_object_keys_are_required_type_properties_in_order():
    src = """
package app;

class Point {
    private int x;
    private Integer y;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.Point")
    assert reg.schemas["Point"] == {
        "required": ["x"], "type": "object",
        "properties": {"x": {"type": "integer", "format": "int32"},
                       "y": {"type": "integer", "format": "int32"}}}
    assert list(reg.schemas["Point"]) == ["required", "type", "properties"]


def test_map_field_has_additional_properties():
    src = """
package app;

class Prices {
    private Map<String, Double> byCurrency;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.Prices")
    assert reg.schemas["Prices"]["properties"]["byCurrency"] == {
        "type": "object", "additionalProperties": {"type": "number"}}


def test_subclass_without_fields_is_all_of_a_ref_and_an_empty_object():
    src = """
package app;

class Leaf extends Base {}

class Base {
    private String id;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.Leaf")
    assert reg.schemas["Leaf"] == {"allOf": [
        {"$ref": "#/components/schemas/Base"},
        {"type": "object", "properties": {}},
    ]}


def test_required_nonnull_primitives_and_markers():
    src = """
package app;
import javax.validation.constraints.NotNull;

class P {
    private int a;
    private Integer b;
    @NotNull
    private String c;
    private String d;
}
"""
    model = model_from(src)
    assert required_fields(model.classes["app.P"]) == ["a", "c"]


def test_static_fields_excluded_from_schema():
    src = """
package app;

class S {
    static final String TAG = "s";
    private String name;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.S")
    assert list(reg.schemas["S"]["properties"]) == ["name"]


def test_simple_name_collision_gets_suffix():
    a = "package a;\nclass Thing { private int x; }\n"
    b = "package b;\nclass Thing { private String y; }\n"
    model = model_from(a, b)
    reg = SchemaRegistry()
    n1 = named(model, reg, "a.Thing")
    n2 = named(model, reg, "b.Thing")
    assert {n1, n2} == {"Thing", "Thing_2"}


def test_registration_is_idempotent():
    model = model_from(INHERIT)
    reg = SchemaRegistry()
    first = named(model, reg, "app.Derived")
    # deep: a shallow copy shares the schema dicts, so it shows no change
    snapshot = copy.deepcopy(reg.schemas)
    second = named(model, reg, "app.Derived")
    assert first == second
    assert reg.schemas == snapshot


def test_generic_instantiation_mangles_name():
    src = """
package app;

class Page<T> {
    private long total;
    private List<T> items;
}

class Item {
    private String sku;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    page = model.classes["app.Page"]
    name = ref_name(schema_for_type(t("Page", t("Item")), model, reg, page))
    assert name == "PageOfItem"
    props = reg.schemas[name]["properties"]
    assert props["items"] == {"type": "array", "items": ref_to("Item")}


@pytest.mark.parametrize("raw, parent, item", [
    # a raw reference binds T to Object
    ("Page", "Page", {}),
    # `extends Page<Item>` binds T to Item
    ("Sub", "PageOfItem", ref_to("Item")),
], ids=["Page", "Sub"])
def test_raw_generic_reference_binds_type_variables_to_object(raw, parent,
                                                              item):
    src = """
package app;

class Page<T> {
    private List<T> items;
    private T first;
}

class Sub extends Page<Item> {}

class Item {}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, f"app.{raw}")
    props = reg.schemas[parent]["properties"]
    assert props == {"items": {"type": "array", "items": item},
                     "first": item}
    assert "T" not in reg.schemas
    assert ("Page" in reg.schemas) == (parent == "Page")


@pytest.mark.parametrize("ref, name, parent, extra", [
    (t("Wrapped", t("Item")), "WrappedOfItem", "PageOfItem", ref_to("Item")),
    # the superclass of a raw reference is raw
    (t("Wrapped"), "Wrapped", "Page", {}),
], ids=["instantiated", "raw"])
def test_generic_subclass_binds_its_superclass_arguments(ref, name, parent,
                                                         extra):
    src = """
package app;

class Page<T> {
    private List<T> items;
}

class Wrapped<U> extends Page<U> {
    private U extra;
}

class Item {}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    wrapped = model.classes["app.Wrapped"]
    assert ref_name(schema_for_type(ref, model, reg, wrapped)) == name
    own = reg.schemas[name]["allOf"]
    assert own[0] == ref_to(parent)
    assert own[1]["properties"] == {"extra": extra}
    assert reg.schemas[parent]["properties"] == \
        {"items": {"type": "array", "items": extra}}


# `Item` names two classes, so it means `app.dto.Item` only where that is
# imported, not in `app.base`, where `Page` binds its type variable.
TWO_ITEMS = (
    "package app.base;\nimport java.util.List;\n"
    "public class Page<T> {\n    private List<T> items;\n}\n",
    "package app.dto;\npublic class Item {\n    private String sku;\n}\n",
    "package app.other;\npublic class Item {\n    private int code;\n}\n",
)
DTO_ITEM = {"type": "object", "properties": {"sku": {"type": "string"}}}


@pytest.mark.parametrize("ref, name, items", [
    (t("app.base.Page", t("Item")), "PageOfItem", ref_to("Item")),
    (t("app.base.Page", t("List", t("Item"))), "PageOfListOfItem",
     {"type": "array", "items": ref_to("Item")}),
], ids=["direct", "nested"])
def test_type_argument_means_the_class_named_where_it_is_written(ref, name,
                                                                 items):
    model = model_from(*TWO_ITEMS,
                       "package app.web;\nimport app.dto.Item;\nclass C {}\n")
    reg = SchemaRegistry()
    c = model.classes["app.web.C"]
    assert ref_name(schema_for_type(ref, model, reg, c)) == name
    assert reg.schemas[name]["properties"] == {
        "items": {"type": "array", "items": items}}
    assert reg.schemas["Item"] == DTO_ITEM


def test_superclass_type_argument_means_the_class_named_in_the_subclass():
    model = model_from(*TWO_ITEMS,
                       "package app.web;\nimport app.base.Page;\n"
                       "import app.dto.Item;\n"
                       "class Sub extends Page<Item> {}\n")
    reg = SchemaRegistry()
    named(model, reg, "app.web.Sub")
    assert reg.schemas["Sub"]["allOf"][0] == ref_to("PageOfItem")
    assert reg.schemas["PageOfItem"]["properties"] == {
        "items": {"type": "array", "items": ref_to("Item")}}
    assert reg.schemas["Item"] == DTO_ITEM


def test_nested_type_arguments_key_their_own_schemas():
    src = """
package app;
import java.util.List;

class Page<T> {
    private List<T> items;
}

class Item {}

class Order {}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    page = model.classes["app.Page"]
    for arg, name in (("Item", "PageOfListOfItem"),
                      ("Order", "PageOfListOfOrder")):
        ref = t("app.Page", t("List", t(arg)))
        assert ref_name(schema_for_type(ref, model, reg, page)) == name
        assert reg.schemas[name]["properties"] == {"items": {
            "type": "array",
            "items": {"type": "array", "items": ref_to(arg)}}}


def test_external_class_noted_with_package():
    src = """
package app;
import com.vendor.sdk.Widget;

class Holder {
    private Widget widget;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.Holder")
    assert reg.schemas["Widget"] == {"externalDocs": {
        "description": "Defined in package com.vendor.sdk",
        "url": "about:blank"}}


def test_imported_external_type_argument_is_the_field_types_schema():
    # `Widget` is imported where `Page<Widget>` is written, not in `Page`
    model = model_from(
        TWO_ITEMS[0],
        "package app.web;\nimport app.base.Page;\n"
        "import com.vendor.Widget;\n"
        "class C {\n    private Widget widget;\n"
        "    private Page<Widget> page;\n}\n")
    reg = SchemaRegistry()
    named(model, reg, "app.web.C")
    assert list(reg.schemas) == ["C", "Widget", "PageOfWidget"]
    assert reg.schemas["PageOfWidget"]["properties"] == {
        "items": {"type": "array", "items": ref_to("Widget")}}
    assert reg.schemas["Widget"] == {"externalDocs": {
        "description": "Defined in package com.vendor",
        "url": "about:blank"}}


def test_type_argument_key_does_not_depend_on_how_a_jdk_type_is_imported():
    model = model_from(
        "package app;\nimport java.util.List;\n"
        "public class Page<T> {\n    private List<T> items;\n}\n"
        "class Item {}\n",
        "package app;\nimport java.util.List;\nimport java.util.UUID;\n"
        "class A {}\n",
        "package app;\nimport java.util.*;\nclass B {}\n")
    reg = SchemaRegistry()
    for ctx in ("app.A", "app.B"):
        for ref in (t("Page", t("List", t("Item"))), t("Page", t("UUID"))):
            schema_for_type(ref, model, reg, model.classes[ctx])
    assert list(reg.schemas) == ["PageOfListOfItem", "Item", "PageOfUUID"]


def test_field_closure_is_registered():
    src = """
package app;

class Outer {
    private Inner inner;
}

class Inner {
    private Leaf leaf;
}

class Leaf {
    private String v;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.Outer")
    assert set(reg.schemas) == {"Outer", "Inner", "Leaf"}


def test_recursive_type_terminates():
    src = """
package app;

class Node {
    private String label;
    private List<Node> children;
}
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.Node")
    props = reg.schemas["Node"]["properties"]
    assert props["children"] == {"type": "array", "items": ref_to("Node")}


def test_enum_schema_preserves_declaration_order():
    src = "package app;\nenum Level { LOW, HIGH, MEDIUM }\n"
    model = model_from(src)
    reg = SchemaRegistry()
    node = schema_for_type(t("Level"), model, reg, model.classes["app.Level"])
    assert node == {"type": "string", "enum": ["LOW", "HIGH", "MEDIUM"]}
    assert list(node) == ["type", "enum"]
    assert reg.schemas == {}


def test_enum_and_array_field_schemas():
    src = """
package app;

class Tagged {
    private Level level;
    private String[] tags;
}

enum Level { LOW, HIGH }
"""
    model = model_from(src)
    reg = SchemaRegistry()
    named(model, reg, "app.Tagged")
    assert reg.schemas["Tagged"]["properties"] == {
        "level": {"type": "string", "enum": ["LOW", "HIGH"]},
        "tags": {"type": "array", "items": {"type": "string"}}}


def test_member_type_is_the_schema_of_its_simple_name(tmp_path):
    (tmp_path / "app" / "other").mkdir(parents=True)
    (tmp_path / "app" / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        "    static class Item { String name; Part part; }\n"
        "    static class Part { int size; }\n"
        '    @GetMapping("/item")\n    Item get() { return null; }\n}\n')
    (tmp_path / "app" / "other" / "Item.java").write_text(
        "package app.other;\npublic class Item { int other; }\n"
        "class Part { int other; }\n")
    result = generate_project(tmp_path)
    schemas = result.documents["default"]["components"]["schemas"]
    assert {name: list(s["properties"]) for name, s in schemas.items()} == \
        {"Item": ["name", "part"], "Part": ["size"]}
    assert result.diagnostics == []
