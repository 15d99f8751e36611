"""Command-line entry point: `oasforge generate` and `oasforge evaluate`.

Each command imports the modules it runs inside its own body, so importing
this module loads only `argparse`, `diagnostics` and `values`, and
`evaluate` never loads the parser, the analysis or the writers that only
`generate` runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .diagnostics import FatalError

EXIT_FATAL = 1
EXIT_DIAGNOSTICS = 2


def main(argv: list[str] | None = None) -> None:
    """Run the command `argv` names (default: the process's arguments).

    Returns when the command succeeds, and raises SystemExit with its exit
    code otherwise: 2 for a usage error, printed by argparse; 1 for an error
    that ends a run, printed as one `error:` line; 2 for diagnostics under
    `--fail-on-diagnostics`. A closed stdout ends the run with exit code 1
    and nothing on stderr."""
    try:
        options = vars(_parser().parse_args(argv))
        code = options.pop("command")(**options)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone; keep the interpreter's last flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_FATAL)
    except RecursionError:
        # constants, schemas and the writers recurse once per level
        message = "the input is nested too deeply to describe"
    except (FatalError, OSError) as exc:
        message = str(exc)
    else:
        if code:
            sys.exit(code)
        return
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_FATAL)


# `perfbench/layers.run_cli` calls `main.main(args, prog_name=...,
# standalone_mode=False)`; this keeps that call working.
main.main = lambda args, **_: main(args)


def _path(must_exist: bool, not_a: str = "") -> Callable[[str], Path]:
    """An argparse type: the path given, which must exist if `must_exist`
    and, where it exists, must not be a `not_a` ("file" or "directory")."""
    def check(text: str) -> Path:
        path = Path(text)
        if must_exist and not path.exists():
            raise argparse.ArgumentTypeError(f"'{text}' does not exist")
        if not_a == "file" and path.is_file() or \
                not_a == "directory" and path.is_dir():
            raise argparse.ArgumentTypeError(f"'{text}' is a {not_a}")
        return path
    return check


def _parser() -> argparse.ArgumentParser:
    """The parser of both commands. Each command's `command` default is
    the function that runs it, called with the other options by name."""
    parser = argparse.ArgumentParser(
        prog="oasforge", allow_abbrev=False,
        description="Generate OpenAPI 3 descriptions from Spring Boot source "
                    "trees.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    gen = commands.add_parser(
        "generate", allow_abbrev=False,
        help="Analyze a source tree and write one description per Spring "
             "profile.")
    gen.set_defaults(command=generate)
    gen.add_argument("--input", dest="input_root", required=True,
                     metavar="DIR",
                     type=_path(must_exist=True, not_a="file"),
                     help="Project root containing .java sources.")
    gen.add_argument("--output", dest="output_dir", required=True,
                     metavar="DIR",
                     type=_path(must_exist=False, not_a="file"),
                     help="Directory for the generated descriptions.")
    gen.add_argument("--format", dest="fmt", choices=("json", "yaml"),
                     default="json", help="default: json")
    gen.add_argument("--merge", action="store_true",
                     help="Additionally write a merged description of all "
                          "profiles.")
    gen.add_argument("--profiles", default=None,
                     help="Comma-separated list restricting generation to "
                          "these profiles.")
    gen.add_argument("--fail-on-diagnostics", action="store_true",
                     help="Exit with code 2 when any diagnostic was emitted.")

    ev = commands.add_parser(
        "evaluate", allow_abbrev=False,
        help="Score a generated description against a ground-truth file.")
    ev.set_defaults(command=evaluate_cmd)
    ev.add_argument("--oas", dest="oas_path", required=True, metavar="PATH",
                    type=_path(must_exist=True),
                    help="A generated description file, or a directory of "
                         "them.")
    ev.add_argument("--gt", dest="gt_path", required=True, metavar="FILE",
                    type=_path(must_exist=True, not_a="directory"),
                    help="Ground truth JSON file.")
    ev.add_argument("--report-json", dest="report_json", metavar="FILE",
                    type=_path(must_exist=False, not_a="directory"),
                    help="Also write the report as machine-readable JSON.")
    return parser


def generate(input_root: Path, output_dir: Path, fmt: str, merge: bool,
             profiles: str | None, fail_on_diagnostics: bool) -> int:
    """Analyze a source tree and write one description per Spring profile;
    return the exit code."""
    from .emitter import merge_documents
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
    # file name -> document; its suffix is its format
    outputs = {f"{result.project}-{profile}.openapi.{fmt}": doc
               for profile, doc in result.documents.items()}
    if merge and result.documents:
        outputs[f"{result.project}-merged.openapi.json"] = merge_documents(
            result.documents, result.project)

    _write_outputs(output_dir, outputs)

    for diag in result.diagnostics:
        print(diag.render(), file=sys.stderr)

    endpoint_count = sum(len(ops) for doc in result.documents.values()
                         for ops in doc["paths"].values())
    schema_count = sum(len(doc.get("components", {}).get("schemas", {}))
                       for doc in result.documents.values())
    print(f"profiles: {', '.join(result.documents) or '(none)'}")
    print(f"operations: {endpoint_count}")
    print(f"schemas: {schema_count}")
    print(f"diagnostics: {len(result.diagnostics)}")
    for name in outputs:
        print(f"wrote {output_dir / name}")
    return EXIT_DIAGNOSTICS if fail_on_diagnostics and result.diagnostics \
        else 0


def _write_outputs(output_dir: Path, outputs: dict[str, dict]) -> None:
    """Write each document of `outputs` under `output_dir`, serialized one
    at a time through one memo, as written, so no two texts are held at
    once. On any error, the files this run opened and the directories it
    made are removed."""
    from .emitter import RunMemo, serialize

    memo = RunMemo()
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


def evaluate_cmd(oas_path: Path, gt_path: Path,
                 report_json: Path | None) -> int:
    """Score a generated description against a ground-truth file."""
    from .evaluation import (CATEGORIES, evaluate, flatten_for_eval,
                             format_report, load_description,
                             load_ground_truth)

    gt = load_ground_truth(gt_path)
    files = sorted(p for p in oas_path.iterdir()
                   if p.suffix in (".json", ".yaml", ".yml")) \
        if oas_path.is_dir() else [oas_path]
    if not files:
        raise FatalError(f"no description files in {oas_path}")

    flat: dict[str, set] = {category: set() for category in CATEGORIES}
    for path in files:
        try:
            doc_flat = flatten_for_eval(load_description(path))
        # json.loads recurses once per nested value, and so does yaml.load
        # on the input that the YAML reader hands it
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
    print(text)
    return 0


if __name__ == "__main__":
    main()
