"""End-to-end orchestration: parse, discover, analyze, assemble."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .diagnostics import Diagnostic
from .discovery import discover_rest_classes, group_by_profile
from .emitter import DocMeta, OpenApiDoc, assemble_document, \
    read_project_version
from .endpoints import extract_endpoints
from .javasrc import SourceModel, parse_project
from .schemas import SchemaRegistry


@dataclass
class GenerationResult:
    project: str
    model: SourceModel
    documents: dict[str, OpenApiDoc]  # profile -> document
    diagnostics: list[Diagnostic] = field(default_factory=list)


def generate_project(root: Path | str,
                     profiles_filter: Optional[list[str]] = None
                     ) -> GenerationResult:
    root = Path(root)
    model = parse_project(root)
    diagnostics: list[Diagnostic] = list(model.parse_diagnostics)

    controller_set = discover_rest_classes(model)
    units = group_by_profile(controller_set, model, diagnostics)
    if profiles_filter:
        wanted = set(profiles_filter)
        units = [u for u in units if u.profile_name in wanted]

    project = root.resolve().name
    version = read_project_version(root)
    documents: dict[str, OpenApiDoc] = {}
    for unit in units:
        reg = SchemaRegistry()
        endpoints = extract_endpoints(unit, model, reg, diagnostics)
        meta = DocMeta(project=project, profile=unit.profile_name,
                       version=version)
        documents[unit.profile_name] = assemble_document(endpoints, reg, meta)
    return GenerationResult(project, model, documents, diagnostics)
