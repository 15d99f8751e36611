#!/usr/bin/env python3
"""Check that `javasrc.parse_project` finds and orders the `.java` files of
a tree as `sorted(Path(root).rglob("*.java"))` does, `module-info.java`
left out:

    PYTHONPATH=src python scripts/walk_check.py

It builds a tree in a temporary directory whose entries tell the two apart
where a walk might differ from `rglob`: names whose string order is not
their path-part order (`a/B.java`, `a b/D.java`, `a-b/C.java`), a hidden
directory, a directory named `Dir.java`, a symlinked directory (not
entered), a symlinked file (read), a dangling symlink, a file named
`.java`, `X.JAVA` (not matched) and `module-info.java` at the root and
nested. It compares the walk's paths with `rglob`'s, then the order of the
classes `parse_project` reads and of the `PARSE_ERROR`s it reports for the
entries it cannot read. `Path.rglob` was reimplemented in Python 3.12 and
again in 3.13, so this runs under each Python oasforge supports. It uses
the standard library only. It prints each difference and exits 1 if there
is any, else prints the order and exits 0.
"""

import os
import sys
import tempfile
from pathlib import Path

from oasforge import javasrc

# path below the root -> the file's text
FILES = {
    "a/B.java": "class B {}",
    "a-b/C.java": "class C {}",
    "a b/D.java": "class D {}",
    ".hidden/E.java": "class E {}",
    "Dir.java/F.java": "class F {}",
    "Dir.java/sub/G.java": "class G {}",
    ".java": "class Dot {}",
    "X.JAVA": "class X {}",
    "l.txt": "class L {}",
    "module-info.java": "module app { requires spring.web; }",
    "a/module-info.java": "module nested { }",
}
# symlink below the root -> its target, relative to the link's directory
LINKS = {"linked": "a-b", "L.java": "l.txt", "Broken.java": "nowhere.java"}
# the entries that match but are no readable file
UNREADABLE = ["Broken.java", "Dir.java"]


def build_tree(root: Path) -> None:
    """Write `FILES` and `LINKS` under the directory `root`."""
    for rel, text in FILES.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
    for rel, target in LINKS.items():
        os.symlink(target, root / rel,
                   target_is_directory=(root / target).is_dir())


def differences(root: Path) -> list[str]:
    """Each way in which what `parse_project` reads under `root` differs
    from `rglob`'s order: none when they agree."""
    expected = [str(path.relative_to(root))
                for path in sorted(root.rglob("*.java"))
                if path.name != "module-info.java"]
    walked = [rel for rel, _ in javasrc._java_files(str(root))]
    model = javasrc.parse_project(root)
    read = [cls.source_file for cls in model.classes.values()]
    failed = [d.file for d in model.parse_diagnostics]
    out = []
    if walked != expected:
        out.append(f"walk: {walked}\nrglob: {expected}")
    if read + failed != [rel for rel in expected if rel not in UNREADABLE] \
            + [rel for rel in expected if rel in UNREADABLE]:
        out.append(f"classes read from: {read}\nfiles not read: {failed}\n"
                   f"rglob: {expected}")
    if [d.code for d in model.parse_diagnostics] != ["PARSE_ERROR"] * 2:
        out.append(f"diagnostics: {model.parse_diagnostics}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_tree(root)
        problems = differences(root)
        order = [rel for rel, _ in javasrc._java_files(str(root))]
    version = sys.version.split()[0]
    if problems:
        print(f"Python {version}: parse_project differs from rglob")
        print("\n".join(problems))
        return 1
    print(f"Python {version}: parse_project reads what rglob finds, in its "
          f"order: {', '.join(order)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
