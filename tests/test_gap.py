"""The gap corpus: `tests/gap/shop/` is scored against truth written from
Spring's documented behaviour, and the counts must equal
`tests/gap/SCORES.json`. A change that closes a gap updates that file; one
that opens a gap fails here (see `tests/gap/README.md`)."""

import json

from conftest import TESTS_DIR, run_cli

GAP_DIR = TESTS_DIR / "gap"


def test_gap_corpus_scores_what_scores_json_records(tmp_path):
    out = tmp_path / "out"
    result = run_cli("generate", "--input", str(GAP_DIR / "shop"),
                     "--output", str(out))
    assert result.exit_code == 0, result.output
    truths = sorted((GAP_DIR / "truth").glob("*.json"))
    assert sorted(p.name for p in out.iterdir()) == [
        f"shop-{truth.stem}.openapi.json" for truth in truths]
    scores = {}
    for truth in truths:
        # each profile's document against that profile's truth, so a
        # route in the wrong profile counts
        report = tmp_path / f"{truth.stem}.json"
        result = run_cli("evaluate", "--oas",
                         str(out / f"shop-{truth.stem}.openapi.json"),
                         "--gt", str(truth), "--report-json", str(report))
        assert result.exit_code == 0, result.output
        scores[truth.stem] = {
            category: {key: row[key] for key in ("tp", "fp", "fn")}
            for category, row in json.loads(report.read_text()).items()}
    assert scores == json.loads((GAP_DIR / "SCORES.json").read_text())
