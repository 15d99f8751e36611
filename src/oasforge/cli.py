"""Command-line entry point: `oasforge generate` and `oasforge evaluate`.

Each command imports the modules it runs inside its own body, so importing
this module loads only click and `diagnostics`, and `evaluate` never loads
the parser, the analysis or the writers that only `generate` runs.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .diagnostics import FatalError

if TYPE_CHECKING:
    from .emitter import RunMemo

EXIT_FATAL = 1
EXIT_DIAGNOSTICS = 2


class _Commands(click.Group):
    """The command group. A subcommand that raises an error that ends a
    run prints one `error:` line and exits 1; usage errors stay click's."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click ends a run whose stdout was closed, quietly
        except RecursionError:
            # constants, schemas and the YAML writer recurse once per level
            message = "the input is nested too deeply to describe"
        except (FatalError, OSError) as exc:
            message = str(exc)
        click.echo(f"error: {message}", err=True)
        sys.exit(EXIT_FATAL)


@click.group(cls=_Commands)
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
    from .emitter import merge_documents
    from .oasvalidate import validate_document
    from .pipeline import generate_project

    if fmt == "yaml":
        # PyYAML is loaded after the modules above and before the parse.
        # Loaded after the parse, its modules land on top of the parsed
        # model's heap; loaded before the modules above, under theirs. Each
        # raised the peak RSS of a 1,244-file tree by 0.5 MB. `serialize`
        # imports it where it is used.
        import yaml  # noqa: F401
    profiles_filter = [p.strip() for p in profiles.split(",") if p.strip()] \
        if profiles else None
    result = generate_project(input_root, profiles_filter)
    outputs = {}  # file name -> document; its suffix is its format
    for profile, doc in result.documents.items():
        errors = validate_document(doc, result.memo)
        if errors:
            raise FatalError("generated document failed validation:"
                             + "".join(f"\n  {err}" for err in errors))
        outputs[f"{result.project}-{profile}.openapi.{fmt}"] = doc
    if merge and result.documents:
        outputs[f"{result.project}-merged.openapi.json"] = merge_documents(
            result.documents, result.project)

    _write_outputs(output_dir, outputs, result.memo)

    for diag in result.diagnostics:
        click.echo(diag.render(), err=True)

    endpoint_count = sum(len(ops) for doc in result.documents.values()
                         for ops in doc["paths"].values())
    schema_count = sum(len(doc.get("components", {}).get("schemas", {}))
                       for doc in result.documents.values())
    click.echo(f"profiles: {', '.join(result.documents) or '(none)'}")
    click.echo(f"operations: {endpoint_count}")
    click.echo(f"schemas: {schema_count}")
    click.echo(f"diagnostics: {len(result.diagnostics)}")
    for name in outputs:
        click.echo(f"wrote {output_dir / name}")

    if fail_on_diagnostics and result.diagnostics:
        sys.exit(EXIT_DIAGNOSTICS)


def _write_outputs(output_dir: Path, outputs: dict[str, dict],
                   memo: RunMemo) -> None:
    """Write each document of `outputs` under `output_dir`, serialized one
    at a time through the run's `memo`, as written, so no two texts are
    held at once. On any error, the files this run opened and the
    directories it made are removed."""
    from .emitter import serialize

    made = [d for d in (output_dir, *output_dir.parents) if not d.exists()]
    opened: list[Path] = []
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in outputs.items():
            data = serialize(doc, name.rpartition(".")[2], memo)
            with open(output_dir / name, "wb") as out:
                opened.append(output_dir / name)
                out.write(data)
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                path.unlink()
        for directory in made:  # innermost first; only if left empty
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _load_description(path: Path) -> dict:
    """The description in `path`, JSON or YAML by its suffix. PyYAML is
    imported here, so a run that reads no YAML does not load it; its
    parse errors become ValueError with the same text."""
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        import yaml
        try:
            data = yaml.load(
                text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ValueError(str(exc)) from exc
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"top level is a {type(data).__name__}, not a "
                         "mapping")
    return data


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
    from .evaluation import (CATEGORIES, evaluate, flatten_for_eval,
                             format_report, load_ground_truth)

    gt = load_ground_truth(gt_path)
    files = sorted(p for p in oas_path.iterdir()
                   if p.suffix in (".json", ".yaml", ".yml")) \
        if oas_path.is_dir() else [oas_path]
    if not files:
        raise FatalError(f"no description files in {oas_path}")

    flat: dict[str, set] = {category: set() for category in CATEGORIES}
    for path in files:
        try:
            doc_flat = flatten_for_eval(_load_description(path))
        # The JSON and YAML parsers recurse once per nested value.
        except (ValueError, KeyError, RecursionError) as exc:
            raise FatalError(f"{path}: {exc}") from None
        for category, keys in doc_flat.items():
            flat[category] |= keys

    report = evaluate(flat, gt)
    text = format_report(report)
    if report_json is not None:  # written first: a failure prints no report
        rows = {name: score.as_dict() for name, score in report.items()}
        report_json.write_text(json.dumps(rows, indent=2) + "\n",
                               encoding="utf-8")
        text += f"\nwrote {report_json}"
    click.echo(text)


if __name__ == "__main__":
    main()
