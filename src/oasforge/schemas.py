"""Convert Java type references into OAS schema dicts.

Simple types map inline; custom classes become named schemas registered in a
SchemaRegistry and referenced with $ref. Inheritance is preserved with allOf
instead of flattening fields into one schema. A schema dict may be shared by
several operations and documents, so none is changed after it is built.
"""

from __future__ import annotations

from .javasrc import (ClassDecl, FieldDecl, OBJECT_TYPE, PRIMITIVES,
                      RESPONSE_WRAPPERS, SourceModel, TypeRef,
                      UNSPECIFIED_TYPE)
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

NONNULL_PRIMITIVES = PRIMITIVES - {"void"}

UNSPECIFIED_SCHEMA_NAME = "UNSPECIFIED_TYPE"


def primitive(oas_type: str, oas_format: str = "") -> dict:
    if oas_format:
        return {"type": oas_type, "format": oas_format}
    return {"type": oas_type}


def ref_to(name: str) -> dict:
    return {"$ref": f"#/components/schemas/{name}"}


class SchemaRegistry:
    """Named schemas destined for #/components/schemas, insertion-ordered."""

    def __init__(self):
        self.schemas: dict[str, dict] = {}
        self._name_by_key: dict[str, str] = {}
        # Named classes whose schemas are still being built, newest last:
        # (name, class, type-parameter bindings, superclass reference,
        # instance fields, properties mapped so far).
        self.pending: list[tuple] = []

    def allocate_name(self, key: str, preferred: str) -> tuple[str, bool]:
        """The schema name of `key`, and whether this call allocated it."""
        existing = self._name_by_key.get(key)
        if existing is not None:
            return existing, False
        name = preferred
        suffix = 2
        while name in self.schemas:
            name = f"{preferred}_{suffix}"
            suffix += 1
        self._name_by_key[key] = name
        self.schemas[name] = {}  # placeholder until built
        return name, True


def schema_for_type(t: TypeRef, model: SourceModel, reg: SchemaRegistry,
                    ctx: ClassDecl) -> dict:
    """Schema of `t` as named in `ctx`: simple types, collections, maps and
    enums inline; any other class as a $ref to a schema registered in `reg`.
    """
    if t.array_depth > 0:
        element = TypeRef(t.raw_name, t.type_arguments, t.array_depth - 1)
        return {"type": "array",
                "items": schema_for_type(element, model, reg, ctx)}

    simple = t.simple_name
    if t.raw_name == UNSPECIFIED_TYPE.raw_name:
        name, _ = reg.allocate_name("<unspecified>", UNSPECIFIED_SCHEMA_NAME)
        return ref_to(name)
    if simple in PRIMITIVE_MAP:
        oas_type, oas_format = PRIMITIVE_MAP[simple]
        return primitive(oas_type, oas_format)
    if simple in COLLECTION_TYPES:
        items = schema_for_type(t.type_arguments[0], model, reg, ctx) \
            if t.type_arguments else {}
        return {"type": "array", "items": items}
    if simple in MAP_TYPES:
        values = schema_for_type(t.type_arguments[1], model, reg, ctx) \
            if len(t.type_arguments) >= 2 else {}
        return {"type": "object", "additionalProperties": values}
    if simple == "Object":
        return {}

    cls = model.find_class(t.raw_name, ctx)
    if cls is None:
        return ref_to(_register_external(t, reg, ctx))
    if cls.kind == "enum":
        return {"type": "string", "enum": list(cls.enum_constants)}
    # type arguments mean the classes they name where they are written
    return ref_to(build_named_schema(model.qualify_arguments(t, ctx), cls,
                                     model, reg))


def required_fields(cls: ClassDecl) -> list[str]:
    names = []
    for f in _instance_fields(cls):
        if f.type.array_depth == 0 and f.type.raw_name in NONNULL_PRIMITIVES:
            names.append(f.name)
        elif find_annotation(f.annotations, REQUIRED_MARKERS):
            names.append(f.name)
    return names


def _instance_fields(cls: ClassDecl) -> list[FieldDecl]:
    return [f for f in cls.fields if not f.is_static]


def unwrap_response_wrapper(t: TypeRef) -> TypeRef:
    while t.simple_name in RESPONSE_WRAPPERS and t.array_depth == 0:
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


# Types whose schema `schema_for_type` reads from the simple name alone.
_SIMPLE_NAMED = {*PRIMITIVE_MAP, *COLLECTION_TYPES, *MAP_TYPES, "Object"}


def _spelling(t: TypeRef) -> str:
    """`t` written out in full: raw name, type arguments and array depth.
    A type of _SIMPLE_NAMED is spelled by its simple name, so `List` and
    an imported `java.util.List` give one key."""
    name = t.simple_name if t.simple_name in _SIMPLE_NAMED else t.raw_name
    args = ",".join(map(_spelling, t.type_arguments))
    return name + (f"<{args}>" if args else "") + "[]" * t.array_depth


def build_named_schema(t: TypeRef, cls: ClassDecl, model: SourceModel,
                       reg: SchemaRegistry) -> str:
    """Name of the schema registered for `t`, a (possibly generic) reference
    to the model class `cls`.

    A newly named class is pushed on `reg.pending`, and the outermost call
    builds the class on top one field at a time. So a class named while a
    field is mapped is built next, names are allocated depth-first, and no
    call recurses per class. A class names its superclass after its fields,
    with the superclass's type arguments bound as the class binds its own
    type variables: `Sub extends Page<Item>` names `PageOfItem`. A raw
    reference binds each type variable to Object, and its superclass is
    raw too.
    """
    key = cls.qualified_name
    preferred = cls.simple_name
    bindings = dict.fromkeys(cls.type_params, OBJECT_TYPE)
    parent = cls.superclass
    if t.type_arguments and cls.type_params:
        # generic instantiation: one schema per argument combination
        bindings = dict(zip(cls.type_params, t.type_arguments))
        key += "<" + ",".join(map(_spelling, t.type_arguments)) + ">"
        preferred = _mangled_name(t)
        parent = parent and _substitute(parent, bindings)
    elif cls.type_params and parent:
        parent = TypeRef(parent.raw_name)
    name, new = reg.allocate_name(key, preferred)
    if not new:
        return name
    reg.pending.append((name, cls, bindings, parent, _instance_fields(cls),
                        []))
    if len(reg.pending) > 1:
        return name  # the outermost call's loop builds it
    while reg.pending:
        depth = len(reg.pending) - 1
        top_name, top, top_bindings, top_parent, fields, properties = \
            reg.pending[depth]
        if len(properties) < len(fields):
            f = fields[len(properties)]
            ftype = _substitute(f.type, top_bindings)
            properties.append(
                (f.name, schema_for_type(ftype, model, reg, top)))
            continue
        required = required_fields(top)
        schema = {"required": required} if required else {}
        schema["type"] = "object"
        schema["properties"] = dict(properties)
        parent_cls = model.superclass_of(top)
        if parent_cls is not None:
            # named while `top` is still pending, so this loop builds it next
            parent_name = build_named_schema(top_parent, parent_cls, model,
                                             reg)
            schema = {"allOf": [ref_to(parent_name), schema]}
        reg.schemas[top_name] = schema
        del reg.pending[depth]
    return name


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
    name, new = reg.allocate_name(f"<external>{package}.{simple}", simple)
    if new and package:
        reg.schemas[name] = {"externalDocs": {
            "description": f"Defined in package {package}",
            "url": "about:blank"}}
    return name

