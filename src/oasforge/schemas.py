"""Convert Java type references into OAS schema values.

Simple types map inline; custom classes become named schemas registered in a
SchemaRegistry and referenced with $ref. Inheritance is preserved with allOf
instead of flattening fields into one schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .javasrc import (ClassDecl, FieldDecl, SourceModel, TypeRef,
                      UNSPECIFIED_TYPE, supertype_chain)
from .spring import REQUIRED_MARKERS, find_annotation

PRIMITIVE_MAP = {
    "int": ("integer", "int32"), "Integer": ("integer", "int32"),
    "short": ("integer", "int32"), "Short": ("integer", "int32"),
    "byte": ("integer", "int32"), "Byte": ("integer", "int32"),
    "long": ("integer", "int64"), "Long": ("integer", "int64"),
    "BigInteger": ("integer", ""),
    "float": ("number", ""), "Float": ("number", ""),
    "double": ("number", ""), "Double": ("number", ""),
    "BigDecimal": ("number", ""),
    "boolean": ("boolean", ""), "Boolean": ("boolean", ""),
    "String": ("string", ""), "CharSequence": ("string", ""),
    "char": ("string", ""), "Character": ("string", ""),
    "UUID": ("string", ""), "Date": ("string", ""),
    "LocalDate": ("string", ""), "LocalDateTime": ("string", ""),
    "Instant": ("string", ""), "OffsetDateTime": ("string", ""),
    "ZonedDateTime": ("string", ""),
}

COLLECTION_TYPES = {
    "List", "Set", "Collection", "Iterable", "ArrayList", "LinkedList",
    "HashSet", "LinkedHashSet", "TreeSet", "SortedSet", "Queue", "Deque",
}

MAP_TYPES = {
    "Map", "HashMap", "TreeMap", "LinkedHashMap", "SortedMap",
    "NavigableMap", "ConcurrentMap", "ConcurrentHashMap", "Properties",
}

NONNULL_PRIMITIVES = {"int", "long", "short", "byte", "float", "double",
                      "boolean", "char"}

UNSPECIFIED_SCHEMA_NAME = "UNSPECIFIED_TYPE"


@dataclass(frozen=True)
class SchemaNode:
    kind: str  # primitive | array | enum | map | ref | all_of | object | unspecified
    oas_type: str = ""
    oas_format: str = ""
    items: Optional["SchemaNode"] = None
    enum_values: tuple[str, ...] = ()
    value_schema: Optional["SchemaNode"] = None
    ref_name: str = ""
    parts: tuple["SchemaNode", ...] = ()
    properties: tuple[tuple[str, "SchemaNode"], ...] = ()
    required: tuple[str, ...] = ()


UNSPECIFIED = SchemaNode("unspecified")


def primitive(oas_type: str, oas_format: str = "") -> SchemaNode:
    return SchemaNode("primitive", oas_type=oas_type, oas_format=oas_format)


def array_of(items: SchemaNode) -> SchemaNode:
    return SchemaNode("array", items=items)


def enum_of(values) -> SchemaNode:
    return SchemaNode("enum", oas_type="string", enum_values=tuple(values))


def map_of(value_schema: SchemaNode) -> SchemaNode:
    return SchemaNode("map", value_schema=value_schema)


def ref_to(name: str) -> SchemaNode:
    return SchemaNode("ref", ref_name=name)


def all_of(parts) -> SchemaNode:
    return SchemaNode("all_of", parts=tuple(parts))


def object_of(properties, required=()) -> SchemaNode:
    return SchemaNode("object", properties=tuple(properties),
                      required=tuple(required))


class SchemaRegistry:
    """Named schemas destined for #/components/schemas, insertion-ordered."""

    def __init__(self):
        self.schemas: dict[str, SchemaNode] = {}
        self.external_notes: dict[str, str] = {}
        self._name_by_key: dict[str, str] = {}

    def allocate_name(self, key: str, preferred: str) -> str:
        existing = self._name_by_key.get(key)
        if existing is not None:
            return existing
        name = preferred
        suffix = 2
        while name in self.schemas:
            name = f"{preferred}_{suffix}"
            suffix += 1
        self._name_by_key[key] = name
        self.schemas[name] = UNSPECIFIED  # placeholder until built
        return name

    def known(self, key: str) -> Optional[str]:
        return self._name_by_key.get(key)

    def sorted_items(self):
        return sorted(self.schemas.items())


def schema_for_type(t: TypeRef, model: SourceModel, reg: SchemaRegistry,
                    ctx: ClassDecl) -> SchemaNode:
    """Schema of `t` as named in `ctx`: simple types, collections, maps and
    enums inline; any other class as a $ref to a schema registered in `reg`.
    """
    if t.array_depth > 0:
        element = TypeRef(t.raw_name, t.type_arguments, t.array_depth - 1)
        return array_of(schema_for_type(element, model, reg, ctx))

    simple = t.simple_name
    if t.raw_name == UNSPECIFIED_TYPE.raw_name:
        return ref_to(register_unspecified(reg))
    if simple in PRIMITIVE_MAP:
        oas_type, oas_format = PRIMITIVE_MAP[simple]
        return primitive(oas_type, oas_format)
    if simple in COLLECTION_TYPES:
        if not t.type_arguments:
            return array_of(UNSPECIFIED)
        return array_of(schema_for_type(t.type_arguments[0], model, reg, ctx))
    if simple in MAP_TYPES:
        if len(t.type_arguments) < 2:
            return map_of(UNSPECIFIED)
        return map_of(schema_for_type(t.type_arguments[1], model, reg, ctx))
    if simple == "Object":
        return UNSPECIFIED

    cls = model.find_class(t.raw_name, ctx)
    if cls is not None and cls.kind == "enum":
        return enum_of(cls.enum_constants)
    return ref_to(build_named_schema_for_type(t, model, reg, ctx))


def register_unspecified(reg: SchemaRegistry) -> str:
    name = reg.allocate_name("<unspecified>", UNSPECIFIED_SCHEMA_NAME)
    reg.schemas[name] = UNSPECIFIED
    return name


def required_fields(cls: ClassDecl) -> list[str]:
    names = []
    for f in _instance_fields(cls):
        if f.type.array_depth == 0 and f.type.raw_name in NONNULL_PRIMITIVES:
            names.append(f.name)
        elif any(find_annotation([a], marker, cls)
                 for a in f.annotations for marker in REQUIRED_MARKERS):
            names.append(f.name)
    return names


def _instance_fields(cls: ClassDecl) -> list[FieldDecl]:
    return [f for f in cls.fields if not f.is_static]


def unwrap_response_wrapper(t: TypeRef) -> TypeRef:
    wrappers = {"ResponseEntity", "DeferredResult"}
    while t.simple_name in wrappers and t.array_depth == 0:
        if not t.type_arguments:
            return UNSPECIFIED_TYPE
        t = t.type_arguments[0]
    return t


def _mangled_name(t: TypeRef) -> str:
    base = t.simple_name
    if not t.type_arguments:
        return base
    parts = [_mangled_name(arg) for arg in t.type_arguments]
    return base + "Of" + "Of".join(parts)


def build_named_schema_for_type(t: TypeRef, model: SourceModel,
                                reg: SchemaRegistry, ctx: ClassDecl) -> str:
    """Register the named schema for a (possibly generic) class reference."""
    cls = model.find_class(t.raw_name, ctx)
    if cls is None:
        return _register_external(t, reg, ctx)
    if not t.type_arguments or not cls.type_params:
        return build_named_schema(cls, model, reg)
    # generic instantiation: one schema per argument combination
    bindings = dict(zip(cls.type_params, t.type_arguments))
    key = cls.qualified_name + "<" + ",".join(
        a.raw_name + "[]" * a.array_depth for a in t.type_arguments) + ">"
    known = reg.known(key)
    if known is not None:
        return known
    name = reg.allocate_name(key, _mangled_name(t))
    reg.schemas[name] = _class_schema(cls, model, reg, bindings)
    return name


def build_named_schema(cls: ClassDecl, model: SourceModel,
                       reg: SchemaRegistry) -> str:
    known = reg.known(cls.qualified_name)
    if known is not None:
        return known
    name = reg.allocate_name(cls.qualified_name, cls.simple_name)
    if cls.kind == "enum":
        reg.schemas[name] = enum_of(cls.enum_constants)
        return name
    reg.schemas[name] = _class_schema(cls, model, reg, bindings=None)
    return name


def _class_schema(cls: ClassDecl, model: SourceModel, reg: SchemaRegistry,
                  bindings: Optional[dict[str, TypeRef]]) -> SchemaNode:
    properties = []
    for f in _instance_fields(cls):
        ftype = _substitute(f.type, bindings) if bindings else f.type
        properties.append((f.name, schema_for_type(ftype, model, reg, cls)))
    own = object_of(properties, required_fields(cls))

    chain = supertype_chain(cls, model)
    if len(chain) > 1:
        parent_name = build_named_schema(chain[1], model, reg)
        return all_of([ref_to(parent_name), own])
    return own


def _substitute(t: TypeRef, bindings: dict[str, TypeRef]) -> TypeRef:
    if t.raw_name in bindings and not t.type_arguments:
        bound = bindings[t.raw_name]
        return TypeRef(bound.raw_name, bound.type_arguments,
                       bound.array_depth + t.array_depth)
    if not t.type_arguments:
        return t
    args = tuple(_substitute(a, bindings) for a in t.type_arguments)
    return TypeRef(t.raw_name, args, t.array_depth)


def _register_external(t: TypeRef, reg: SchemaRegistry,
                       ctx: ClassDecl) -> str:
    simple = t.simple_name
    package = ""
    if "." in t.raw_name:
        package = t.raw_name.rsplit(".", 1)[0]
    else:
        imported = ctx.imports.get(simple)
        if imported:
            package = imported.rsplit(".", 1)[0]
    key = f"<external>{package}.{simple}"
    known = reg.known(key)
    if known is not None:
        return known
    name = reg.allocate_name(key, simple)
    reg.schemas[name] = UNSPECIFIED
    if package:
        reg.external_notes[name] = package
    return name

