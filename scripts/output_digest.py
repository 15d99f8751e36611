#!/usr/bin/env python3
"""Write a digest of everything `oasforge generate` and `oasforge evaluate`
produce on the fixture corpus and on the benchmark workloads, to compare two
checkouts:

    python3 scripts/output_digest.py a.json      # in one checkout
    python3 scripts/output_digest.py b.json      # in the other
    python3 scripts/digest_diff.py a.json b.json

It makes 51 `generate` runs: each of the 15 fixtures plain, with `--merge`
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
those trees it also records the sha256 of its token stream, or of the
error text when it does not tokenize: 5,328 files, 5,387 entries in all.
Each stream is a JSON list of [kind, text, line] triples (see
`token_triples`). The code of this checkout's `src/` is the code that
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


def digest_tokens(root: Path, name: str) -> dict[str, str]:
    """The sha256 of the token stream of each `.java` file under `root`,
    or of its error text where it does not tokenize, keyed
    `NAME/PATH/tokens` with the file's path under `root`."""
    digests = {}
    for path in sorted(root.rglob("*.java")):
        try:
            tokens = javasrc.tokenize(path.read_text(encoding="utf-8"))
            stream = json.dumps(token_triples(tokens))
        except (javasrc.JavaSyntaxError, UnicodeDecodeError) as exc:
            stream = f"error: {exc}"
        rel = path.relative_to(root).as_posix()
        digests[f"{name}/{rel}/tokens"] = _sha(stream.encode("utf-8"))
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digest.py OUT.json", file=sys.stderr)
        return 2
    fixtures = REPO / "tests" / "fixtures"
    runs: dict[str, dict] = {}
    for fixture in sorted(p for p in fixtures.iterdir() if p.is_dir()):
        truth = REPO / "tests" / "gt" / f"{fixture.name}.json"
        runs.update(digest_tokens(fixture, fixture.name))
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
                runs.update(digest_tokens(root, name))
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
