#!/usr/bin/env python3
"""Write a digest of everything `oasforge generate` produces on the fixture
corpus and on the benchmark workloads, to compare two checkouts:

    python3 scripts/output_digest.py a.json      # in one checkout
    python3 scripts/output_digest.py b.json      # in the other
    cmp a.json b.json

It makes 48 runs: each of the 14 fixtures plain, with `--merge` and with
`--format yaml`, and seeds 1 and 2 of each workload of
`perfbench/corpus.py` with that workload's flags. For each run it records
the exit code and the sha256 of stderr, of stdout and of each output file.
The input and output directories are masked in stdout and stderr, so the
digest does not depend on where the checkout or the temporary files are.
The code of this checkout's `src/` is the code that runs.
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
from oasforge import cli  # noqa: E402

FIXTURE_FLAGS = {"plain": [], "merge": ["--merge"],
                 "yaml": ["--format", "yaml"]}
SEEDS = (1, 2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(root: Path, flags: list[str], scratch: Path) -> dict:
    """The digest of `generate` on `root` with `flags`, written under
    `scratch`."""
    out_dir = scratch / "out"
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(["generate", "--input", str(root), "--output",
                           str(out_dir), *flags], prog_name="oasforge",
                          standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1

    def masked(text: str) -> bytes:
        text = text.replace(str(out_dir), "<OUT>").replace(str(root), "<IN>")
        return text.encode("utf-8")

    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    return {"exit": code, "stdout": _sha(masked(out.getvalue())),
            "stderr": _sha(masked(err.getvalue())),
            "files": {p.name: _sha(p.read_bytes()) for p in files}}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digest.py OUT.json", file=sys.stderr)
        return 2
    fixtures = REPO / "tests" / "fixtures"
    runs: dict[str, dict] = {}
    for fixture in sorted(p for p in fixtures.iterdir() if p.is_dir()):
        for mode, flags in FIXTURE_FLAGS.items():
            with tempfile.TemporaryDirectory() as tmp:
                runs[f"{fixture.name}/{mode}"] = digest_run(
                    fixture, flags, Path(tmp))
    for workload, (_, flags) in corpus.BUILDERS.items():
        for seed in SEEDS:
            name = f"{workload}-{seed}"
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp) / name  # the project is named after it
                corpus.build(workload, seed).write(root)
                runs[name] = digest_run(root, flags, Path(tmp))
    Path(argv[0]).write_text(json.dumps(runs, indent=1, sort_keys=True)
                             + "\n")
    print(f"{len(runs)} runs digested into {argv[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
