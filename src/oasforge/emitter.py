"""Assemble, merge, and serialize per-profile OpenAPI documents.

Serialization is deterministic: paths sorted, verbs in a fixed canonical
order, schema properties in declaration order, components sorted by name.
"""

from __future__ import annotations

import functools
import json
import re
import xml.etree.ElementTree as ET
from json.encoder import encode_basestring
from pathlib import Path

from .diagnostics import FatalError
from .schemas import SchemaRegistry
from .spring import REQUEST_METHODS

OAS_VERSION = "3.0.3"

VERB_ORDER = {verb.lower(): i for i, verb in enumerate(REQUEST_METHODS)}


class MergeConflictError(FatalError):
    def __init__(self, conflicts: list[str]):
        super().__init__("cannot merge documents:\n  " + "\n  ".join(conflicts))
        self.conflicts = conflicts


# ---------------------------------------------------------------------------
# Assembly, merging, serialization
# ---------------------------------------------------------------------------

def doc_to_dict(paths: dict[str, dict[str, dict]], schemas: dict[str, dict],
                title: str, version: str) -> dict:
    """The OpenAPI document of `paths` (path -> lower-case verb ->
    operation) and `schemas` (name -> component schema), with paths, verbs
    and schemas in their canonical order."""
    out = {
        "openapi": OAS_VERSION,
        "info": {"title": title, "version": version},
        "paths": {path: {verb: paths[path][verb]
                         for verb in sorted(paths[path], key=VERB_ORDER.get)}
                  for path in sorted(paths)},
    }
    if schemas:
        out["components"] = {
            "schemas": {name: schemas[name] for name in sorted(schemas)}}
    return out


def assemble_document(operations: dict[tuple[str, str], dict],
                      reg: SchemaRegistry, project: str, profile: str,
                      version: str) -> dict:
    """The document of one profile, from its operations by (path, VERB),
    with the schemas of `reg` that they reach; a profile other than
    "default" is named in its title."""
    paths: dict[str, dict[str, dict]] = {}
    for (path, verb), operation in operations.items():
        paths.setdefault(path, {})[verb.lower()] = operation
    title = project if profile == "default" else f"{project} ({profile})"
    return doc_to_dict(paths, _reached_schemas(paths, reg.schemas), title,
                       version)


def _reached_schemas(paths: dict, schemas: dict[str, dict]
                     ) -> dict[str, dict]:
    """The schemas that `paths` refer to by `$ref`, directly or through
    other schemas."""
    reached: dict[str, dict] = {}
    stack: list = [paths]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            ref = node.get("$ref")
            name = ref.rpartition("/")[2] if isinstance(ref, str) else None
            if name in schemas and name not in reached:
                stack.append(reached.setdefault(name, schemas[name]))
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return reached


def merge_documents(docs_by_profile: dict[str, dict], project: str) -> dict:
    """One document with every operation and schema of the per-profile
    documents; an operation or schema that two profiles define differently
    is a conflict."""
    if not docs_by_profile:
        raise ValueError("nothing to merge")
    conflicts: list[str] = []
    paths: dict[str, dict[str, dict]] = {}
    schemas: dict[str, dict] = {}
    owners: dict[str, str] = {}  # what is defined -> first profile with it
    for profile, doc in docs_by_profile.items():
        # (what, the dict that holds it, its key there, its definition)
        entries = [(f"operation {verb.upper()} {path}",
                    paths.setdefault(path, {}), verb, op)
                   for path, verbs in doc["paths"].items()
                   for verb, op in verbs.items()]
        entries += [(f"schema {name!r}", schemas, name, schema)
                    for name, schema in doc.get("components", {})
                    .get("schemas", {}).items()]
        for what, table, key, value in entries:
            if what not in owners:
                owners[what] = profile
                table[key] = value
            elif table[key] != value:
                conflicts.append(f"{what} differs between profiles "
                                 f"{owners[what]!r} and {profile!r}")
    if conflicts:
        raise MergeConflictError(conflicts)
    version = next(iter(docs_by_profile.values()))["info"]["version"]
    return doc_to_dict(paths, schemas, project, version)


@functools.cache
def _no_alias_dumper(base: str = "SafeDumper") -> type:
    """PyYAML's dumper `base`, `SafeDumper` or libyaml's `CSafeDumper`,
    made to write each occurrence of a sub-dict in full instead of as an
    anchor and its aliases: a document shares sub-dicts between operations.
    Built on first use, so PyYAML is imported only where YAML is written."""
    import yaml
    return type(f"_NoAlias{base}", (getattr(yaml, base),),
                {"ignore_aliases": lambda self, data: True})


def _libyaml_agrees(data) -> bool:
    """Whether libyaml writes `data` as `_no_alias_dumper()` does: it is a
    dict or list holding only dicts with printable ASCII str keys of 1-60
    characters, lists, printable ASCII str values and bools. Past that the
    two part ways: they fold long double-quoted scalars at different
    places, escape non-BMP characters and NEL differently, write long or
    empty keys as `? ` keys at different lengths, and only PyYAML ends a
    lone scalar with `...`."""
    if type(data) not in (dict, list):
        return False
    stack = [data]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is dict:
            for key in node:
                if not (type(key) is str and 0 < len(key) <= 60
                        and key.isascii() and key.isprintable()):
                    return False
            stack.extend(node.values())
        elif kind is list:
            stack.extend(node)
        elif kind is str:
            if not (node.isascii() and node.isprintable()):
                return False
        elif kind is not bool:
            return False
    return True


def _json_chunks(node, indent: str, out: list[str]) -> None:
    """Append `node` to `out` as `json.dumps(indent=2, ensure_ascii=False)`
    writes it at `indent`; dict keys are str."""
    if isinstance(node, str):
        out.append(encode_basestring(node))
    elif not node or not isinstance(node, (list, tuple, dict)):
        out.append(json.dumps(node))  # a scalar, `{}` or `[]`
    else:
        inner = indent + "  "
        separator = "\n" + inner
        if isinstance(node, dict):
            out.append("{")
            for key, value in node.items():
                out.append(f"{separator}{encode_basestring(key)}: ")
                _json_chunks(value, inner, out)
                separator = ",\n" + inner
            out.append("\n" + indent + "}")
        else:
            out.append("[")
            for value in node:
                out.append(separator)
                _json_chunks(value, inner, out)
                separator = ",\n" + inner
            out.append("\n" + indent + "]")


def serialize(data: dict, format: str = "json") -> bytes:
    """Render a document as JSON or YAML bytes. Both are written as PyYAML's
    pure-Python `_no_alias_dumper()` and `json.dumps(indent=2)` would write
    them, only faster: JSON by `_json_chunks`, YAML by libyaml where
    `_libyaml_agrees`, else (or in a PyYAML built without libyaml) by
    `_no_alias_dumper()`."""
    if format == "json":
        out: list[str] = []
        _json_chunks(data, "", out)
        out.append("\n")
        return "".join(out).encode("utf-8")
    if format == "yaml":
        import yaml
        fast = hasattr(yaml, "CSafeDumper") and _libyaml_agrees(data)
        dumper = _no_alias_dumper("CSafeDumper" if fast else "SafeDumper")
        return yaml.dump(data, Dumper=dumper, sort_keys=False,
                         allow_unicode=True).encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# Project metadata
# ---------------------------------------------------------------------------

def read_project_version(root: Path) -> str:
    """Service version from a build descriptor at the project root."""
    pom = root / "pom.xml"
    if pom.is_file():
        try:
            tree = ET.parse(pom)
            ns = ""
            if tree.getroot().tag.startswith("{"):
                ns = tree.getroot().tag.split("}")[0] + "}"
            node = tree.getroot().find(f"{ns}version")
            if node is not None and node.text:
                return node.text.strip()
        except ET.ParseError:
            pass
    for gradle in ("build.gradle", "build.gradle.kts"):
        path = root / gradle
        if path.is_file():
            m = re.search(r"""^version\s*=?\s*['"]([^'"]+)['"]""",
                          path.read_text(encoding="utf-8", errors="replace"),
                          re.MULTILINE)
            if m:
                return m.group(1)
    return "0.0.0"
