#!/usr/bin/env python3
"""Compare two digests written by `scripts/output_digest.py`:

    python3 scripts/digest_diff.py a.json b.json

It prints each entry that only one digest has, and for each entry in both
whose value differs, each field that differs (`exit`, `stderr`,
`files.NAME`, ...) with its two values. It exits 0 when the digests are
the same, 1 when any entry differs, and 2 on a usage error.
"""

import json
import sys
from pathlib import Path


def _fields(value, prefix: str = "") -> dict[str, object]:
    """`value` flattened to dotted field names: a run's `files` dict gives
    one `files.NAME` field per output file."""
    if not isinstance(value, dict):
        return {prefix: value}
    out: dict[str, object] = {}
    for key, inner in value.items():
        out.update(_fields(inner, f"{prefix}.{key}" if prefix else key))
    return out


def diff(a: dict, b: dict, a_name: str, b_name: str) -> list[str]:
    """One line per difference between the digests `a` and `b`, in entry
    order."""
    lines = []
    for entry in sorted(a.keys() | b.keys()):
        if entry not in b:
            lines.append(f"only in {a_name}: {entry}")
        elif entry not in a:
            lines.append(f"only in {b_name}: {entry}")
        elif a[entry] != b[entry]:
            fa, fb = _fields(a[entry]), _fields(b[entry])
            for field in sorted(fa.keys() | fb.keys()):
                if fa.get(field) != fb.get(field):
                    where = f"{entry}: {field}" if field else entry
                    lines.append(f"differs: {where}: {fa.get(field)} -> "
                                 f"{fb.get(field)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: digest_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(name).read_text()) for name in argv)
    lines = diff(a, b, *argv)
    for line in lines:
        print(line)
    print(f"{len(lines)} differences in {len(a.keys() | b.keys())} entries")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
