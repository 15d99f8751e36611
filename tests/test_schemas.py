"""Type-to-schema mapping, named-schema registration, response unwrapping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import model_from
from oasforge.javasrc import TypeRef, UNSPECIFIED_TYPE
from oasforge.schemas import (PRIMITIVE_MAP, SchemaRegistry, UNSPECIFIED,
                              array_of, ref_to, required_fields,
                              schema_for_type, unwrap_response_wrapper)

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
    assert schema_of(t("int"), model, ctx).oas_format == "int32"
    assert schema_of(t("long"), model, ctx).oas_format == "int64"
    assert schema_of(t("double"), model, ctx).oas_type == "number"


def test_string_family():
    model, ctx = ctx_model()
    for name in ("String", "char", "UUID", "LocalDate"):
        node = schema_of(t(name), model, ctx)
        assert node.oas_type == "string"


def test_array_and_collection_both_become_array():
    model, ctx = ctx_model()
    from_array = schema_of(t("String", depth=1), model, ctx)
    from_list = schema_of(t("List", t("String")), model, ctx)
    assert from_array == from_list
    assert from_array.kind == "array"
    assert from_array.items.oas_type == "string"


def test_map_becomes_additional_properties():
    model, ctx = ctx_model()
    node = schema_of(t("Map", t("String"), t("Double")), model, ctx)
    assert node.kind == "map"
    assert node.value_schema.oas_type == "number"


def test_raw_collection_and_object_are_unspecified():
    model, ctx = ctx_model()
    assert schema_of(t("List"), model, ctx).items == UNSPECIFIED
    assert schema_of(t("Object"), model, ctx) == UNSPECIFIED


def test_custom_class_needs_registry():
    model, ctx = ctx_model()
    node = schema_for_type(t("Account"), model, SchemaRegistry(), ctx)
    assert node.kind == "ref" and node.ref_name == "Account"


@given(st.sampled_from(sorted(PRIMITIVE_MAP)))
def test_primitive_mapping_total_and_stable(name):
    model, ctx = ctx_model()
    node = schema_of(t(name), model, ctx)
    assert node.kind == "primitive"
    assert node.oas_type in {"integer", "number", "boolean", "string"}
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

def named(model, reg, qualified_name):
    """Register the model class `qualified_name` by referring to it from
    itself; return its schema name."""
    cls = model.classes[qualified_name]
    return schema_for_type(t(cls.simple_name), model, reg, cls).ref_name


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
    assert node.kind == "all_of"
    assert node.parts[0].ref_name == "Base"
    own = node.parts[1]
    assert [p[0] for p in own.properties] == ["rank", "note"]
    assert reg.schemas["Base"].kind == "object"


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
    assert [p[0] for p in reg.schemas["S"].properties] == ["name"]


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
    snapshot = dict(reg.schemas)
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
    name = schema_for_type(t("Page", t("Item")), model, reg, page).ref_name
    assert name == "PageOfItem"
    node = reg.schemas[name]
    props = dict(node.properties)
    assert props["items"].kind == "array"
    assert props["items"].items.ref_name == "Item"


@pytest.mark.parametrize("raw, parent, item", [
    # a raw reference binds T to Object
    ("Page", "Page", UNSPECIFIED),
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
    props = dict(reg.schemas[parent].properties)
    assert props == {"items": array_of(item), "first": item}
    assert "T" not in reg.schemas
    assert ("Page" in reg.schemas) == (parent == "Page")


@pytest.mark.parametrize("ref, name, parent, extra", [
    (t("Wrapped", t("Item")), "WrappedOfItem", "PageOfItem", ref_to("Item")),
    # the superclass of a raw reference is raw
    (t("Wrapped"), "Wrapped", "Page", UNSPECIFIED),
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
    assert schema_for_type(ref, model, reg, wrapped).ref_name == name
    own = reg.schemas[name].parts
    assert own[0] == ref_to(parent)
    assert dict(own[1].properties) == {"extra": extra}
    assert dict(reg.schemas[parent].properties) == \
        {"items": array_of(extra)}


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
    assert reg.schemas["Widget"] == UNSPECIFIED
    assert reg.external_notes["Widget"] == "com.vendor.sdk"


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
    props = dict(reg.schemas["Node"].properties)
    assert props["children"].items.ref_name == "Node"


def test_enum_schema_preserves_declaration_order():
    src = "package app;\nenum Level { LOW, HIGH, MEDIUM }\n"
    model = model_from(src)
    reg = SchemaRegistry()
    node = schema_for_type(t("Level"), model, reg, model.classes["app.Level"])
    assert node.kind == "enum"
    assert node.enum_values == ("LOW", "HIGH", "MEDIUM")
    assert reg.schemas == {}
