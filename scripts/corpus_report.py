#!/usr/bin/env python3
"""Summarize generation over the fixture corpus.

Prints one line per fixture project — profiles, operation/schema counts,
diagnostics, wall-clock time — plus a self-consistency check: each generated
description scored against itself must reach precision = recall = 1.0.
"""

import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from conftest import FIXTURES_DIR, GOLDEN_FIXTURES  # noqa: E402
from oasforge.evaluation import evaluate, flatten_for_eval  # noqa: E402
from oasforge.pipeline import generate_project  # noqa: E402


def main() -> int:
    print(f"{'project':<22} {'profiles':>8} {'ops':>5} {'schemas':>8} "
          f"{'diags':>6} {'time':>8}  self-eval")
    total = 0.0
    failures = 0
    for name in GOLDEN_FIXTURES:
        start = time.perf_counter()
        result = generate_project(FIXTURES_DIR / name)
        elapsed = time.perf_counter() - start
        total += elapsed
        ops = sum(len(v) for d in result.documents.values()
                  for v in d["paths"].values())
        schemas = sum(len(d.get("components", {}).get("schemas", {}))
                      for d in result.documents.values())
        consistent = True
        for doc in result.documents.values():
            flat = flatten_for_eval(doc)
            report = evaluate(flat, flat)
            for cat in ("methods", "parameters", "responses"):
                score = getattr(report, cat)
                if score.fp or score.fn:
                    consistent = False
        if not consistent:
            failures += 1
        print(f"{name:<22} {len(result.documents):>8} {ops:>5} {schemas:>8} "
              f"{len(result.diagnostics):>6} {elapsed:>7.3f}s  "
              f"{'ok' if consistent else 'FAIL'}")
    print(f"\ntotal generation time: {total:.3f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
