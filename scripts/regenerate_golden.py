#!/usr/bin/env python3
"""Rebuild the golden description corpus from the fixture projects.

Run after an intentional output change, then review the diff:

    python3 scripts/regenerate_golden.py
    git diff tests/golden/
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from conftest import FIXTURES_DIR, GOLDEN_DIR, GOLDEN_FIXTURES  # noqa: E402
from oasforge.emitter import serialize  # noqa: E402
from oasforge.pipeline import generate_project  # noqa: E402


def main() -> int:
    changed = 0
    for name in GOLDEN_FIXTURES:
        result = generate_project(FIXTURES_DIR / name)
        for diag in result.diagnostics:
            print(f"{name}: {diag.render()}", file=sys.stderr)
        for profile, doc in result.documents.items():
            target = GOLDEN_DIR / f"{name}-{profile}.openapi.json"
            payload = serialize(doc)
            if target.exists() and target.read_bytes() == payload:
                continue
            target.write_bytes(payload)
            changed += 1
            print(f"updated {target.relative_to(REPO)}")
    print(f"{changed} file(s) changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
