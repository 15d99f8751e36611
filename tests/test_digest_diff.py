"""`scripts/digest_diff.py`, which compares two output digests."""

import json
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest_diff.py"


def test_digest_diff_names_each_entry_that_differs(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    run = {"exit": 0, "stderr": "e0", "files": {"a.json": "f0"}}
    before = {"fx/plain": run, "fx/A.java/tokens": "t0", "gone": "g"}
    after = {"fx/plain": {**run, "files": {"a.json": "f1"}},
             "fx/A.java/tokens": "t1", "new": "n"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))
    assert main([str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 differences in 3 entries\n"
    assert main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: fx/A.java/tokens: t0 -> t1",
        "differs: fx/plain: files.a.json: f0 -> f1",
        f"only in {a}: gone",
        f"only in {b}: new",
        "4 differences in 4 entries"]
