"""Assemble, merge, and serialize per-profile OpenAPI documents.

Serialization is deterministic: paths sorted, verbs in a fixed canonical
order, schema properties in declaration order, components sorted by name.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import yaml

from .endpoints import EndpointMethod, ParameterDesc, ResponseDesc
from .schemas import SchemaNode, SchemaRegistry
from .spring import HTTP_VERBS, reason_phrase

OAS_VERSION = "3.0.3"

VERB_ORDER = {verb.lower(): i for i, verb in enumerate(HTTP_VERBS)}


class MergeConflictError(Exception):
    def __init__(self, conflicts: list[str]):
        super().__init__("cannot merge documents:\n  " + "\n  ".join(conflicts))
        self.conflicts = conflicts


# ---------------------------------------------------------------------------
# Schema rendering
# ---------------------------------------------------------------------------

def schema_to_dict(node: SchemaNode) -> dict:
    if node.kind == "primitive":
        out = {"type": node.oas_type}
        if node.oas_format:
            out["format"] = node.oas_format
        return out
    if node.kind == "array":
        return {"type": "array", "items": schema_to_dict(node.items)}
    if node.kind == "enum":
        return {"type": "string", "enum": list(node.enum_values)}
    if node.kind == "map":
        return {"type": "object",
                "additionalProperties": schema_to_dict(node.value_schema)}
    if node.kind == "ref":
        return {"$ref": f"#/components/schemas/{node.ref_name}"}
    if node.kind == "all_of":
        return {"allOf": [schema_to_dict(p) for p in node.parts]}
    if node.kind == "object":
        out = {}
        if node.required:
            out["required"] = list(node.required)
        out["type"] = "object"
        out["properties"] = {name: schema_to_dict(s)
                             for name, s in node.properties}
        return out
    return {}  # unspecified


def _parameter_to_dict(param: ParameterDesc) -> dict:
    schema = schema_to_dict(param.schema)
    if param.pattern and "$ref" not in schema:
        schema["pattern"] = param.pattern
    return {
        "name": param.name,
        "in": param.location,
        "required": param.required,
        "schema": schema,
    }


def _response_to_dict(resp: ResponseDesc) -> dict:
    out = {"description": reason_phrase(resp.status)}
    if resp.schema is not None:
        out["content"] = {
            "application/json": {"schema": schema_to_dict(resp.schema)}}
    return out


def _operation_to_dict(endpoint: EndpointMethod) -> dict:
    op: dict = {}
    if endpoint.parameters:
        op["parameters"] = [_parameter_to_dict(p) for p in endpoint.parameters]
    if endpoint.request_body is not None:
        op["requestBody"] = {
            "content": {"application/json": {
                "schema": schema_to_dict(endpoint.request_body.schema)}},
            "required": endpoint.request_body.required,
        }
    op["responses"] = {
        r.status: _response_to_dict(r)
        for r in sorted(endpoint.responses, key=lambda r: r.status)
    }
    return op


def _components_to_dict(reg: SchemaRegistry) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name, node in reg.schemas.items():
        rendered = schema_to_dict(node)
        package = reg.external_notes.get(name)
        if package:
            rendered["externalDocs"] = {
                "description": f"Defined in package {package}",
                "url": "about:blank",
            }
        out[name] = rendered
    return out


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


def assemble_document(endpoints: list[EndpointMethod], reg: SchemaRegistry,
                      project: str, profile: str, version: str) -> dict:
    """The document of one profile; a profile other than "default" is
    named in its title."""
    paths: dict[str, dict[str, dict]] = {}
    for endpoint in endpoints:
        verbs = paths.setdefault(endpoint.path, {})
        verbs[endpoint.verb.lower()] = _operation_to_dict(endpoint)
    title = project if profile == "default" else f"{project} ({profile})"
    return doc_to_dict(paths, _components_to_dict(reg), title, version)


def merge_documents(docs_by_profile: dict[str, dict], project: str) -> dict:
    """One document with every operation and schema of the per-profile
    documents; an operation or schema that two profiles define differently
    is a conflict."""
    if not docs_by_profile:
        raise ValueError("nothing to merge")
    conflicts: list[str] = []
    paths: dict[str, dict[str, dict]] = {}
    owners: dict[tuple[str, str], str] = {}
    schemas: dict[str, dict] = {}
    schema_owners: dict[str, str] = {}
    for profile, doc in docs_by_profile.items():
        for path, verbs in doc["paths"].items():
            for verb, op in verbs.items():
                key = (path, verb)
                if key in owners:
                    if paths[path][verb] != op:
                        conflicts.append(
                            f"operation {verb.upper()} {path} differs between "
                            f"profiles {owners[key]!r} and {profile!r}")
                    continue
                owners[key] = profile
                paths.setdefault(path, {})[verb] = op
        doc_schemas = doc.get("components", {}).get("schemas", {})
        for name, schema in doc_schemas.items():
            if name in schemas:
                if schemas[name] != schema:
                    conflicts.append(
                        f"schema {name!r} differs between profiles "
                        f"{schema_owners[name]!r} and {profile!r}")
                continue
            schemas[name] = schema
            schema_owners[name] = profile
    if conflicts:
        raise MergeConflictError(conflicts)
    version = next(iter(docs_by_profile.values()))["info"]["version"]
    return doc_to_dict(paths, schemas, project, version)


def serialize(data: dict, format: str = "json") -> bytes:
    """Render a document as JSON or YAML bytes."""
    if format == "json":
        return (json.dumps(data, indent=2, ensure_ascii=False) + "\n"
                ).encode("utf-8")
    if format == "yaml":
        return yaml.safe_dump(data, sort_keys=False,
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
