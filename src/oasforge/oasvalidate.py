"""The checks `pipeline.generate_project` runs on each document it returns.

Each check guards a rule that depends on the source tree and that extraction
keeps for any input: every $ref names a component schema, every template
variable is bound by exactly the path parameters of its operation, no two
parameters of an operation share a (name, location) pair, and every status
key is a code in 100-599. The rest of the OAS 3.0 shape is fixed by the
emitter; the tests check it with openapi-spec-validator.
"""

from __future__ import annotations

import re

from .emitter import RunMemo

_STATUS_RE = re.compile(r"[1-5]\d\d")
_TEMPLATE_VARIABLE = re.compile(r"\{([^{}]+)\}")
_REF_PREFIX = "#/components/schemas/"


def validate_document(doc: dict, memo: RunMemo | None = None) -> list[str]:
    """Return a list of errors; empty means valid. The run's `memo` holds
    the `$ref`s of each operation and schema, and the checks of each
    operation under each path that holds it."""
    memo = memo or RunMemo()
    schemas = doc.get("components", {}).get("schemas", {})

    def dangling(where: str, part) -> list[str]:
        return [f"{where}: dangling $ref {ref!r}" for ref in memo.refs(part)
                if not (ref.startswith(_REF_PREFIX)
                        and ref[len(_REF_PREFIX):] in schemas)]

    errors = [error for schema in schemas.values()
              for error in dangling("components.schemas", schema)]
    for path, item in doc.get("paths", {}).items():
        for verb, op in item.items():
            where = f"paths.{path}.{verb}"
            errors += dangling(where, op)
            errors += [where + error for error in memo.of(
                ("checks", path), op, lambda op: _check(op, path))]
    return errors


def _check(op: dict, path: str) -> list[str]:
    """The errors of the parameters and statuses of `op` under `path`, each
    to follow the operation's location."""
    template = set(_TEMPLATE_VARIABLE.findall(path))
    errors: list[str] = []
    seen: set[tuple[str, str]] = set()
    for param in op.get("parameters", []):
        key = (param["name"], param["in"])
        if key in seen:
            errors.append(f": duplicate {key[1]} parameter {key[0]!r}")
        seen.add(key)
    bound = {name for name, loc in seen if loc == "path"}
    errors += [f": template variable {name!r} has no path parameter"
               for name in sorted(template - bound)]
    errors += [f": path parameter {name!r} not in template"
               for name in sorted(bound - template)]
    errors += [f".responses.{status}: invalid status key"
               for status in op.get("responses", {})
               if not _STATUS_RE.fullmatch(str(status))]
    return errors
