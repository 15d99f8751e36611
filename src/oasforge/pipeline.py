"""End-to-end orchestration: parse, discover, analyze, assemble, check."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from . import oasvalidate
from .diagnostics import Diagnostic, FatalError
from .discovery import discover_rest_classes, group_by_profile
from .emitter import RunMemo, assemble_document, read_project_version
from .endpoints import extract_endpoints
from .javasrc import parse_project
from .schemas import SchemaRegistry
from .values import Record


class GenerationResult(Record):
    __slots__ = ("project", "documents", "diagnostics")

    def __init__(self, project: str, documents: dict[str, dict],
                 diagnostics: list[Diagnostic]):
        self.project = project
        self.documents = documents  # profile -> checked OpenAPI document
        self.diagnostics = diagnostics


def generate_project(root: Path | str,
                     profiles_filter: Optional[list[str]] = None
                     ) -> GenerationResult:
    """The tree's documents, checked by `oasvalidate` in profile order: the
    first that fails raises FatalError with its errors."""
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
    documents: dict[str, dict] = {}
    reg = SchemaRegistry()  # one schema name per class for the project
    analyses: dict = {}
    memo = RunMemo()
    for unit in units:
        operations = extract_endpoints(unit, model, reg, analyses, diagnostics)
        documents[unit.profile_name] = assemble_document(
            operations, reg, project, unit.profile_name, version, memo)
    for doc in documents.values():
        errors = oasvalidate.validate_document(doc, memo)
        if errors:
            raise FatalError("generated document failed validation:"
                             + "".join(f"\n  {err}" for err in errors))
    # An exception handler's finding repeats per handler and advice list.
    diagnostics = list(dict.fromkeys(diagnostics))
    return GenerationResult(project, documents, diagnostics)
