"""The checks `generate` runs on each document before writing it.

Each check guards a rule that depends on the source tree and that extraction
keeps for any input: every $ref names a component schema, every template
variable is bound by exactly the path parameters of its operation, no two
parameters of an operation share a (name, location) pair, and every status
key is a code in 100-599. The rest of the OAS 3.0 shape is fixed by the
emitter; the tests check it with openapi-spec-validator.
"""

from __future__ import annotations

import re

_STATUS_RE = re.compile(r"[1-5]\d\d")
_TEMPLATE_VARIABLE = re.compile(r"\{([^{}]+)\}")
_REF_PREFIX = "#/components/schemas/"


def validate_document(doc: dict) -> list[str]:
    """Return a list of errors; empty means valid."""
    schemas = doc.get("components", {}).get("schemas", {})
    errors: list[str] = []
    _check_refs(schemas, "components.schemas", schemas, errors)
    for path, item in doc.get("paths", {}).items():
        template = set(_TEMPLATE_VARIABLE.findall(path))
        for verb, op in item.items():
            where = f"paths.{path}.{verb}"
            _check_refs(op, where, schemas, errors)
            seen: set[tuple[str, str]] = set()
            for param in op.get("parameters", []):
                key = (param["name"], param["in"])
                if key in seen:
                    errors.append(f"{where}: duplicate {key[1]} parameter "
                                  f"{key[0]!r}")
                seen.add(key)
            bound = {name for name, loc in seen if loc == "path"}
            errors += [f"{where}: template variable {name!r} has no path "
                       "parameter" for name in sorted(template - bound)]
            errors += [f"{where}: path parameter {name!r} not in template"
                       for name in sorted(bound - template)]
            errors += [f"{where}.responses.{status}: invalid status key"
                       for status in op.get("responses", {})
                       if not _STATUS_RE.fullmatch(str(status))]
    return errors


def _check_refs(node, where: str, schemas: dict, errors: list[str]):
    """Report each $ref under `node` that names no component schema."""
    if isinstance(node, dict):
        ref = node.get("$ref")
        if isinstance(ref, str) and not (ref.startswith(_REF_PREFIX)
                                         and ref[len(_REF_PREFIX):] in schemas):
            errors.append(f"{where}: dangling $ref {ref!r}")
        for value in node.values():
            _check_refs(value, where, schemas, errors)
    elif isinstance(node, list):
        for value in node:
            _check_refs(value, where, schemas, errors)
