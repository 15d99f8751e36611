"""Command-line entry point: `oasforge generate` and `oasforge evaluate`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import yaml

from .emitter import MergeConflictError, doc_to_dict, merge_documents, \
    serialize
from .evaluation import (EMPTY_FLAT, GroundTruthError, evaluate,
                         flatten_for_eval, format_report, load_ground_truth)
from .javasrc import ProjectParseError
from .oasvalidate import validate_document
from .pipeline import generate_project

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_DIAGNOSTICS = 2


@click.group()
def main():
    """Generate OpenAPI 3 descriptions from Spring Boot source trees."""


@main.command()
@click.option("--input", "input_root", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Project root containing .java sources.")
@click.option("--output", "output_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="Directory for the generated descriptions.")
@click.option("--format", "fmt", type=click.Choice(["json", "yaml"]),
              default="json", show_default=True)
@click.option("--merge", is_flag=True,
              help="Additionally write a merged description of all profiles.")
@click.option("--profiles", default=None,
              help="Comma-separated list restricting generation to these "
                   "profiles.")
@click.option("--fail-on-diagnostics", is_flag=True,
              help="Exit with code 2 when any diagnostic was emitted.")
def generate(input_root: Path, output_dir: Path, fmt: str, merge: bool,
             profiles: str | None, fail_on_diagnostics: bool):
    """Analyze a source tree and write one description per Spring profile."""
    profiles_filter = [p.strip() for p in profiles.split(",") if p.strip()] \
        if profiles else None
    try:
        result = generate_project(input_root, profiles_filter)
    except ProjectParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_FATAL)

    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for profile, doc in result.documents.items():
        errors = validate_document(doc_to_dict(doc))
        if errors:
            click.echo("error: generated document failed validation:",
                       err=True)
            for err in errors:
                click.echo(f"  {err}", err=True)
            sys.exit(EXIT_FATAL)
        name = f"{result.project}-{profile}.openapi.{fmt}"
        path = output_dir / name
        path.write_bytes(serialize(doc, fmt))
        written.append(path)

    if merge and result.documents:
        try:
            merged = merge_documents(list(result.documents.values()))
        except MergeConflictError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_FATAL)
        path = output_dir / f"{result.project}-merged.openapi.json"
        path.write_bytes(serialize(merged, "json"))
        written.append(path)

    for diag in result.diagnostics:
        click.echo(diag.render(), err=True)

    endpoint_count = sum(
        len(ops) for doc in result.documents.values()
        for ops in doc.paths.values())
    schema_count = sum(len(doc.components_schemas)
                       for doc in result.documents.values())
    click.echo(f"profiles: {', '.join(result.documents) or '(none)'}")
    click.echo(f"operations: {endpoint_count}")
    click.echo(f"schemas: {schema_count}")
    click.echo(f"diagnostics: {len(result.diagnostics)}")
    for path in written:
        click.echo(f"wrote {path}")

    if fail_on_diagnostics and result.diagnostics:
        sys.exit(EXIT_DIAGNOSTICS)
    sys.exit(EXIT_OK)


def _load_description(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml") or path.name.endswith(".openapi.yaml"):
        return yaml.safe_load(text)
    return json.loads(text)


@main.command("evaluate")
@click.option("--oas", "oas_path", required=True,
              type=click.Path(exists=True, path_type=Path),
              help="A generated description file, or a directory of them.")
@click.option("--gt", "gt_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Ground truth JSON file.")
@click.option("--report-json", "report_json", default=None,
              type=click.Path(dir_okay=False, path_type=Path),
              help="Also write the report as machine-readable JSON.")
def evaluate_cmd(oas_path: Path, gt_path: Path, report_json: Path | None):
    """Score a generated description against a ground-truth file."""
    try:
        gt = load_ground_truth(gt_path)
    except GroundTruthError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_FATAL)

    if oas_path.is_dir():
        files = sorted(p for p in oas_path.iterdir()
                       if p.suffix in (".json", ".yaml", ".yml"))
        if not files:
            click.echo(f"error: no description files in {oas_path}", err=True)
            sys.exit(EXIT_FATAL)
    else:
        files = [oas_path]

    flat = EMPTY_FLAT
    for path in files:
        try:
            flat = flat.union(flatten_for_eval(_load_description(path)))
        except (json.JSONDecodeError, yaml.YAMLError, KeyError) as exc:
            click.echo(f"error: {path}: {exc}", err=True)
            sys.exit(EXIT_FATAL)

    report = evaluate(flat, gt)
    click.echo(format_report(report))
    if report_json is not None:
        report_json.write_text(json.dumps(report.as_dict(), indent=2) + "\n",
                               encoding="utf-8")
        click.echo(f"wrote {report_json}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
