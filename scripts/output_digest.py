#!/usr/bin/env python3
"""Write a digest of everything `oasforge generate` and `oasforge evaluate`
produce on the fixture corpus and on the benchmark workloads, to compare two
checkouts:

    python3 scripts/output_digest.py a.json      # in one checkout
    python3 scripts/output_digest.py b.json      # in the other
    python3 scripts/digest_diff.py a.json b.json

It makes 54 `generate` runs: each of the 16 fixtures plain, with `--merge`
and with `--format yaml`, and seeds 1 and 2 of each workload of
`perfbench/corpus.py` with that workload's flags. For each run it records
the exit code and the sha256 of stderr, of stdout and of each output file.
Each workload run, and each plain fixture run whose fixture has a truth
file in `tests/gt/`, is then scored by `evaluate --report-json` against its
truth: the generator's truth for a workload, the hand-written one for a
fixture. For each of those it records the exit code and the sha256 of
stdout, of stderr and of the report. The input, output, truth and report
paths are masked in stdout and stderr, so the digest does not depend on
where the checkout or the temporary files are. For each `.java` file of
those trees it also records two entries: the sha256 of its token stream,
or of the error text when it does not tokenize, and the sha256 of its
parsed declarations, or of the error text when it does not parse. 5,334
files, 10,731 entries in all. Each stream is a JSON list of [kind, text,
line] triples (see `token_triples`), and the declarations are the JSON of
`plain` over what `javasrc.parse_source` returns, with every method's
`body_facts` read. The code of this checkout's `src/` is the code that
runs.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
sys.path.insert(0, str(REPO / "src"))

import corpus  # noqa: E402
from oasforge import cli, javasrc  # noqa: E402
from oasforge.values import Record  # noqa: E402

FIXTURE_FLAGS = {"plain": [], "merge": ["--merge"],
                 "yaml": ["--format", "yaml"]}
SEEDS = (1, 2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(args: list[str], masks: dict[Path, str]) -> dict:
    """The exit code of `oasforge ARGS` and the sha256 of its stdout and
    stderr, in which each path of `masks` is replaced by its mask."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1

    def masked(text: str) -> bytes:
        for path, mask in masks.items():
            text = text.replace(str(path), mask)
        return text.encode("utf-8")

    return {"exit": code, "stdout": _sha(masked(out.getvalue())),
            "stderr": _sha(masked(err.getvalue()))}


def digest_run(root: Path, flags: list[str], scratch: Path) -> dict:
    """The digest of `generate` on `root` with `flags`, written under
    `scratch`."""
    out_dir = scratch / "out"
    run = _invoke(["generate", "--input", str(root), "--output",
                   str(out_dir), *flags], {out_dir: "<OUT>", root: "<IN>"})
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    return {**run, "files": {p.name: _sha(p.read_bytes()) for p in files}}


def digest_evaluate(truth: Path, scratch: Path) -> dict:
    """The digest of `evaluate` of what `digest_run` wrote under `scratch`
    against the ground-truth file `truth`."""
    out_dir, report = scratch / "out", scratch / "report.json"
    run = _invoke(["evaluate", "--oas", str(out_dir), "--gt", str(truth),
                   "--report-json", str(report)],
                  {out_dir: "<OUT>", report: "<REPORT>", truth: "<GT>"})
    run["report"] = _sha(report.read_bytes()) if report.is_file() else None
    return run


def token_triples(tokens) -> list[list]:
    """[kind, text, line] of each token `javasrc.tokenize` returned, from
    its `texts` and `lines` columns and `javasrc.token_kind`."""
    return [[javasrc.token_kind(text), text, line]
            for text, line in zip(tokens.texts, tokens.lines)]


def plain(value):
    """`value`, a parse result, as JSON data: a record as its class name and
    each of its `_fields` read with `getattr`, so a field that is computed
    on first read is computed, and a set sorted, so the data does not
    depend on the hash seed."""
    if isinstance(value, Record):
        return [type(value).__name__,
                {name: plain(getattr(value, name)) for name in value._fields}]
    if isinstance(value, frozenset):
        return sorted(map(plain, value))
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    return value


def _or_error(build) -> str:
    """What `build()` returns, or the error text where the file it reads
    does not decode, tokenize or parse."""
    try:
        return build()
    except (javasrc.JavaSyntaxError, UnicodeDecodeError) as exc:
        return f"error: {exc}"


def digest_files(root: Path, name: str) -> dict[str, str]:
    """For each `.java` file under `root`, keyed with its path under `root`:
    `NAME/PATH/tokens`, the sha256 of its token stream, and
    `NAME/PATH/model`, the sha256 of its declarations; each is the sha256
    of the error text where the file does not tokenize or parse."""
    digests = {}
    for path in sorted(root.rglob("*.java")):
        rel = path.relative_to(root).as_posix()
        stream = _or_error(lambda: json.dumps(token_triples(
            javasrc.tokenize(path.read_text(encoding="utf-8")))))
        model = _or_error(lambda: json.dumps(plain(javasrc.parse_source(
            path.read_text(encoding="utf-8"), rel)), sort_keys=True))
        digests[f"{name}/{rel}/tokens"] = _sha(stream.encode("utf-8"))
        digests[f"{name}/{rel}/model"] = _sha(model.encode("utf-8"))
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digest.py OUT.json", file=sys.stderr)
        return 2
    fixtures = REPO / "tests" / "fixtures"
    runs: dict[str, dict] = {}
    for fixture in sorted(p for p in fixtures.iterdir() if p.is_dir()):
        truth = REPO / "tests" / "gt" / f"{fixture.name}.json"
        runs.update(digest_files(fixture, fixture.name))
        for mode, flags in FIXTURE_FLAGS.items():
            name = f"{fixture.name}/{mode}"
            with tempfile.TemporaryDirectory() as tmp:
                runs[name] = digest_run(fixture, flags, Path(tmp))
                if mode == "plain" and truth.is_file():
                    runs[f"{name}/evaluate"] = digest_evaluate(truth,
                                                               Path(tmp))
    for workload, (_, flags) in corpus.BUILDERS.items():
        for seed in SEEDS:
            name = f"{workload}-{seed}"
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp) / name  # the project is named after it
                tree = corpus.build(workload, seed)
                tree.write(root)
                runs.update(digest_files(root, name))
                runs[name] = digest_run(root, flags, Path(tmp))
                truth = Path(tmp) / "truth.json"
                truth.write_bytes(tree.truth_bytes())
                runs[f"{name}/evaluate"] = digest_evaluate(truth, Path(tmp))
    Path(argv[0]).write_text(json.dumps(runs, indent=1, sort_keys=True)
                             + "\n")
    print(f"{len(runs)} entries digested into {argv[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
