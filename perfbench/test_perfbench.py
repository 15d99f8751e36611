"""Self-tests of the benchmark: generator determinism, truth counts, span
arithmetic, and agreement between BENCHMARK.json and the traced metrics.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import corpus
from spans import (Span, Tracer, busy, self_by_name, self_times,
                   self_times_cover)

ROOT = Path(__file__).resolve().parent.parent
TINY = {"profile-fanout": 3, "model-graph": 200, "monorepo-sparse": 12}


@pytest.mark.parametrize("workload", sorted(corpus.BUILDERS))
def test_same_seed_same_bytes_other_seed_differs(workload, tmp_path):
    first = corpus.build(workload, 7, TINY[workload])
    again = corpus.build(workload, 7, TINY[workload])
    other = corpus.build(workload, 8, TINY[workload])
    assert first.files == again.files
    assert first.truth_bytes() == again.truth_bytes()
    assert first.files != other.files
    first.write(tmp_path / "a")
    again.write(tmp_path / "b")
    for rel, text in first.files.items():
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes() == text.encode()


@pytest.mark.parametrize("workload", sorted(corpus.BUILDERS))
def test_scale_fixes_the_amount_of_work(workload):
    sizes = [corpus.build(workload, seed, TINY[workload]).size()
             for seed in (1, 2, 3)]
    assert len({s["files"] for s in sizes}) == 1
    assert len({s["classes"] for s in sizes}) == 1


def _truth(c: corpus.Corpus) -> dict:
    return json.loads(c.truth_bytes())


def test_profile_fanout_truth_counts_by_hand():
    # 3 controllers: GET, POST and a bare @RequestMapping (7 verbs) each.
    c = corpus.build("profile-fanout", 5, 3)
    truth = _truth(c)
    assert len(truth["methods"]) == 3 * (1 + 1 + 7)
    # raw: 200 per verb; GET: 200 + 404 (n // 4 = 0 also throw a 500);
    # POST: 201, and 409 for n // 2 = 1 controller.
    assert len(truth["responses"]) == 3 * (7 + 2 + 1) + 1
    statuses = {r["status"] for r in truth["responses"]}
    assert statuses == {"200", "201", "404", "409"}
    posts = [m["path"] for m in truth["methods"] if m["verb"] == "POST"
             and not m["path"].endswith("/raw")]
    for i, path in enumerate(sorted(posts, key=lambda p: int(
            p.rsplit("-", 1)[1]))):
        names = {p["name"] for p in truth["parameters"]
                 if p["path"] == path and p["verb"] == "POST"}
        # query param, Entity fields through two allOf levels, and the
        # chain reference for every DTO but the last.
        assert {"mode", "id", "version"} <= names
        assert ("next" in names) == (i < 2)
    # A controller and a DTO per resource, plus Entity, ten bases, Paths,
    # two exceptions, the error body and the advice.
    assert c.size()["files"] == 2 * 3 + 1 + 10 + 1 + 4


def test_model_graph_and_monorepo_truth_counts_by_hand():
    graph = _truth(corpus.build("model-graph", 5, 200))
    # 20 controllers x (list, get, create, update, delete)
    assert len(graph["methods"]) == 20 * 5
    assert len(graph["responses"]) == 20 * (1 + 2 + 2 + 2 + 1)
    sparse = _truth(corpus.build("monorepo-sparse", 5, 12))
    assert len(sparse["methods"]) == 5 * 2
    assert len(sparse["parameters"]) == 5 * (1 + 2)
    assert len(sparse["responses"]) == 5 * (1 + 2)


def test_model_graph_repeats_simple_names_across_packages():
    c = corpus.build("model-graph", 5, corpus.DEFAULT_SCALE["model-graph"])
    names = [Path(rel).name for rel in c.files if "/model/" in rel]
    assert len(names) > len(set(names))


def _spans(rows):
    return [Span(name, start, end, parent)
            for name, start, end, parent in rows]


def test_self_time_is_duration_minus_children():
    spans = _spans([("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                    ("a1", 2.0, 3.0, 1), ("b", 5.0, 9.0, 0)])
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0
    assert self_by_name(spans) == {"root": 3.0, "a": 2.0, "a1": 1.0,
                                   "b": 4.0}


def test_self_times_cover_checks_nesting_and_outside_clock():
    good = _spans([("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0)])
    assert self_times_cover(good, 10.0)
    assert not self_times_cover(good, 10.5)
    # A child that outlives its parent leaves the parent a negative self
    # time, though the self times still sum to the root's duration.
    overrun = _spans([("root", 0.0, 10.0, -1), ("a", 1.0, 12.0, 0)])
    assert sum(self_times(overrun)) == 10.0
    assert not self_times_cover(overrun, 10.0)
    unclosed = _spans([("root", 0.0, 10.0, -1), ("a", 1.0, 0.0, 0)])
    assert not self_times_cover(unclosed, 10.0)


def test_busy_time_counts_nested_same_name_once():
    spans = _spans([("x", 0.0, 10.0, -1), ("y", 1.0, 6.0, 0),
                    ("x", 2.0, 5.0, 1), ("x", 12.0, 13.0, -1)])
    assert busy(spans, "x") == 11.0
    assert busy(spans, "y") == 5.0
    assert busy(spans, "z") == 0.0


def test_tracer_records_parents():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1),
                                                          ("inner", 0)]
    assert tracer.spans[0].start <= tracer.spans[1].start \
        <= tracer.spans[1].end <= tracer.spans[0].end


@pytest.fixture
def oasforge_src(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    yield
    for name in [m for m in sys.modules if m.startswith("oasforge")]:
        del sys.modules[name]


@pytest.mark.parametrize("workload", sorted(corpus.BUILDERS))
def test_traced_tiny_run_matches_truth_and_benchmark_json(
        workload, tmp_path, oasforge_src):
    from layers import Probe, layer_metrics, run_cli
    c = corpus.build(workload, 3, TINY[workload])
    c.write(tmp_path / "project")
    (tmp_path / "truth.json").write_bytes(c.truth_bytes())
    plain_code, _ = run_cli(["generate", "--input", str(tmp_path / "project"),
                             "--output", str(tmp_path / "plain"), *c.flags])
    probe = Probe(Tracer())
    probe.install()
    try:
        code, _ = run_cli(["generate", "--input",
                           str(tmp_path / "project"), "--output",
                           str(tmp_path / "out"), *c.flags])
        report = tmp_path / "report.json"
        eval_code, _ = run_cli(["evaluate", "--oas", str(tmp_path / "out"),
                                "--gt", str(tmp_path / "truth.json"),
                                "--report-json", str(report)])
    finally:
        probe.remove()
    assert plain_code == code == eval_code == 0
    for path in (tmp_path / "plain").iterdir():
        assert path.read_bytes() == (tmp_path / "out" / path.name).read_bytes()
    scores = json.loads(report.read_text())
    for category in ("methods", "parameters", "responses"):
        assert scores[category]["fp"] == scores[category]["fn"] == 0

    metrics = layer_metrics(probe)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    added_by_run = {"trace.overhead_s", "endpoints.extract.growth",
                    "javasrc.parse.growth"}
    assert set(metrics) | added_by_run == {m["name"]
                                           for m in spec["per_layer"]}
    assert metrics["javasrc.parse.files"] == c.size()["files"]
    assert metrics["javasrc.parse.bytes"] == c.size()["bytes"]
    assert metrics["javasrc.parse.errors"] == 0
    assert metrics["endpoints.operations"] >= len(_truth(c)["methods"])
