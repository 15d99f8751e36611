"""Benchmark of the oasforge CLI on generated Spring source trees.

    python3 perfbench/run.py --workload profile-fanout --seed 1 \
        --seconds 30 --trace 0

Run from anywhere inside a checkout; oasforge is taken from the checkout's
`src/`. The workload's trees and their ground truth are generated from the
seed under `.perfbench/` and removed afterwards.

With `--trace 0` the run is a closed loop with one client: each round spawns
one `oasforge generate` and then one `oasforge evaluate` on its output, and
rounds repeat until `--seconds` have passed. It reports the end-to-end
metrics (medians over rounds). Each time is the CPU time of the CLI process,
scaled to a reference speed of the core it ran on (see `speed_probe`). With
`--trace 1` it runs the same commands in-process, once untraced and once
with every module's public functions wrapped in spans, also on the half-size
tree, and reports per-layer metrics.

Either way every output is checked: exit codes are 0, no traceback is
printed, output bytes are identical across repetitions (and equal to the CLI
output when traced) and `evaluate` against the generated truth finds no
false positive and no false negative. Any failure makes `correct` false and
the exit code 1. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpus as corpus_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUPS_PER_ROUND = 2    # fresh `import oasforge.cli` interpreters
# Trees of one workload that differ only in the generator's seed can differ
# in `generate` time by a fifth or more, the same on every run of a tree,
# though they hold as many classes and lead to the same calls. The gap
# follows the memory layout of the process, not the work: the in-process
# traced run ranks two such trees the other way round. So the end-to-end
# run spreads its rounds over TREES_PER_RUN trees of the workload, and its
# medians do not hang on one draw of the layout.
TREES_PER_RUN = 6
INVOKE_TIMEOUT_S = 150  # one CLI invocation; the whole run must end in 180 s
# While a CLI process runs, the runner times a small fixed job, the speed
# probe, every PROBE_GAP_S on the same core. Every time is reported as if
# one probe took REFERENCE_PROBE_S of CPU time, about its time on an
# unloaded 2.1 GHz x86 core.
PROBE_ROWS = 2000
PROBE_GAP_S = 0.02
REFERENCE_PROBE_S = 0.0025


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str
    scaled_s: float = 0.0  # CPU time at reference speed

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback" not in self.stderr


class _Row:
    __slots__ = ("key", "name", "cells")

    def __init__(self, key, name, cells):
        self.key, self.name, self.cells = key, name, cells


def speed_probe() -> float:
    """CPU seconds taken by a fixed pure-Python job shaped like oasforge's
    work: many small objects and strings, a sort, a grouping into lists.

    The host this runs on is shared. For stretches of a few seconds to
    minutes the same work runs up to twice as slow, in CPU time as in wall
    time, with no steal time to show for it, and one core can slow while
    the other does not. Raw medians of runs half a minute long therefore
    differ by more than any change worth measuring. The runner and the CLI
    process share one core, and the probe runs on it while the process
    runs, so it slows down with the process; a change to oasforge moves the
    process and not the probe.
    """
    start = time.thread_time()
    rows = [_Row(i * 7919 % 10007, str(i), (i, i + 1))
            for i in range(PROBE_ROWS)]
    rows.sort(key=lambda r: (r.key, r.name))
    groups: dict[int, list[str]] = {}
    for row in rows:
        groups.setdefault(row.key % 97, []).append(row.name)
    return time.thread_time() - start


class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def invoke(cmd: list[str], env: dict, log: Path) -> Invocation:
    """Spawn `cmd` and wait for it; return its wall time, its CPU time at
    reference speed (scaled by the mean speed probe while it ran) and its
    peak RSS."""
    ended = threading.Event()
    result = {}

    def wait():
        try:
            result["status"] = os.wait4(proc.pid, 0)
            result["end"] = time.perf_counter()
        finally:
            ended.set()

    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                cwd=ROOT)
        waiter = threading.Thread(target=wait)
        waiter.start()
        probes = []
        try:
            while True:
                probes.append(speed_probe())
                if ended.wait(PROBE_GAP_S):
                    break
                if time.perf_counter() - start > INVOKE_TIMEOUT_S:
                    break
        finally:
            if not ended.is_set():
                proc.kill()
            waiter.join()
    wall = result["end"] - start
    _, status, usage = result["status"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(errors="replace")
    cpu = usage.ru_utime + usage.ru_stime
    return Invocation(wall, usage.ru_maxrss / 1024, proc.returncode, stderr,
                      cpu * REFERENCE_PROBE_S / statistics.fmean(probes))


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def scores(report: dict) -> tuple[float, float, bool]:
    """Micro-averaged (precision, recall) over the three categories, and
    whether the truth was matched exactly."""
    tp = sum(report[c]["tp"] for c in ("methods", "parameters", "responses"))
    fp = sum(report[c]["fp"] for c in ("methods", "parameters", "responses"))
    fn = sum(report[c]["fn"] for c in ("methods", "parameters", "responses"))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, tp > 0 and fp == 0 and fn == 0


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "oasforge.cli", *map(str, args)]


def measure(work: Path, trees: list, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics of fresh CLI processes, tracing off. Round `r`
    runs on tree `r % len(trees)`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OAS_FORGE_LOG", None)
    # One core for the runner, its threads and every CLI process it spawns,
    # so the speed probe measures the core the process runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    flags = trees[0].flags
    out, report = work / "out", work / "report.json"
    logs = work / "logs"
    logs.mkdir()

    # The first import compiles bytecode; every later one is what a user
    # pays on each invocation. Imports are spread over the rounds, so the
    # median does not hang on one stretch of a noisy machine.
    import_cmd = [sys.executable, "-c", "import oasforge.cli"]
    tally.check(invoke(import_cmd, env, logs / "import").ok, "import")
    setup = []

    def set_up(tag: str):
        run = invoke(import_cmd, env, logs / tag)
        if tally.check(run.ok, f"{tag}: exit {run.code}"):
            setup.append(run)

    def generate(tag: str, tree: int) -> Invocation | None:
        shutil.rmtree(out, ignore_errors=True)
        run = invoke(cli("generate", "--input", work / f"project{tree}",
                         "--output", out, *flags), env, logs / tag)
        if not tally.check(run.ok, f"{tag}: exit {run.code}"):
            return None
        digest = output_digest(out)
        reference.setdefault(tree, digest)
        tally.check(digest == reference[tree],
                    f"{tag}: output bytes differ from the first run of "
                    f"tree {tree}")
        return run

    def evaluate(tag: str, tree: int) -> Invocation | None:
        report.unlink(missing_ok=True)
        run = invoke(cli("evaluate", "--oas", out, "--gt",
                         work / f"truth{tree}.json", "--report-json", report),
                     env, logs / tag)
        if not tally.check(run.ok and report.is_file(),
                           f"{tag}: exit {run.code}"):
            return None
        precision, recall, exact = scores(json.loads(report.read_text()))
        tally.check(exact, f"{tag}: precision {precision:.4f} recall "
                           f"{recall:.4f} against the generated truth")
        quality.append((precision, recall))
        return run

    reference: dict[int, str] = {}
    gen_s, rss, eval_s, quality = [], [], [], []
    # Untimed warm-up of both commands fills the page cache. Where evaluate
    # is much cheaper than generate, a round evaluates up to four times, so
    # both medians rest on a similar share of the run. The first round
    # repeats the warm-up's tree, so every run checks that a repetition
    # writes the same bytes.
    warm_gen = generate("warm-up", 0)
    warm_eval = evaluate("warm-up-evaluate", 0)
    if warm_gen is None or warm_eval is None:
        return {}
    per_round = max(1, min(4, round(warm_gen.wall_s / warm_eval.wall_s / 2)))
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        tree = rounds % len(trees)
        rounds += 1
        run = generate(f"generate{rounds}", tree)
        if run is None:
            break
        gen_s.append(run)
        rss.append(run.rss_mb)
        runs = [evaluate(f"evaluate{rounds}.{i}", tree)
                for i in range(per_round)]
        if None in runs:
            break
        eval_s.extend(runs)
        for i in range(SETUPS_PER_ROUND):
            set_up(f"import{rounds}.{i}")

    def med(values):
        return (statistics.median(values) if values else 0.0), values

    def scaled(runs: list[Invocation]):
        return med([r.scaled_s for r in runs])

    for name, runs in (("setup", setup), ("generate", gen_s),
                       ("evaluate", eval_s)):
        if runs:
            wall = statistics.median(r.wall_s for r in runs)
            print(f"  {name} median wall time {wall:.6g} s (unscaled, "
                  f"probe included)")
    return {
        "setup_s": (*scaled(setup), "s"),
        "generate_s": (*scaled(gen_s), "s"),
        "evaluate_s": (*scaled(eval_s), "s"),
        "peak_rss_mb": (*med(rss), "MB"),
        "precision": (*med([q[0] for q in quality]), "ratio"),
        "recall": (*med([q[1] for q in quality]), "ratio"),
    }


def traced(work: Path, trees: list, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics from in-process runs with and without spans, on
    the first tree."""
    corpus = trees[0]
    sys.path.insert(0, str(SRC))
    import oasforge
    from layers import Probe, layer_metrics, run_cli
    from spans import Tracer, busy, self_times_cover
    if Path(oasforge.__file__).resolve().parent != SRC / "oasforge":
        raise SystemExit(f"error: imported oasforge from {oasforge.__file__}")

    half = corpus_mod.build(corpus.workload, corpus.seed, corpus.scale // 2)
    half.write(work / "half")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    (work / "logs").mkdir()
    truth = work / "truth0.json"

    def gen_args(project: Path, out: Path) -> list[str]:
        shutil.rmtree(out, ignore_errors=True)
        return ["generate", "--input", str(project), "--output", str(out),
                *corpus.flags]

    ref = invoke(cli(*gen_args(work / "project0", work / "cli-out")), env,
                 work / "logs" / "cli")
    tally.check(ref.ok, f"cli generate: exit {ref.code}")
    reference = output_digest(work / "cli-out")

    # Untimed: the first in-process run pays one-off costs the CLI pays at
    # import, which would otherwise land in trace.overhead_s.
    run_cli(gen_args(work / "project0", work / "plain"))
    rounds: list[dict] = []
    last = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        code, err = run_cli(gen_args(work / "project0", work / "plain"))
        untraced_s = time.perf_counter() - t0
        tally.check(code == 0 and "Traceback" not in err
                    and output_digest(work / "plain") == reference,
                    "untraced in-process generate differs from the CLI")

        probe = Probe(Tracer())
        probe.install()
        report = work / "report.json"
        report.unlink(missing_ok=True)
        args = gen_args(work / "project0", work / "traced")
        try:
            t0 = time.perf_counter()
            root = probe.tracer.begin("cli.generate")
            code, err = run_cli(args)
            probe.tracer.end(root)
            root = probe.tracer.begin("cli.evaluate")
            code_ev, _ = run_cli(["evaluate", "--oas", str(work / "traced"),
                                  "--gt", str(truth), "--report-json",
                                  str(report)])
            probe.tracer.end(root)
            traced_wall_s = time.perf_counter() - t0
        finally:
            probe.remove()
        tally.check(code == 0 and "Traceback" not in err
                    and output_digest(work / "traced") == reference,
                    "traced generate output differs from the CLI output")
        tally.check(code_ev == 0 and scores(
            json.loads(report.read_text()))[2],
            "traced evaluate does not match the generated truth")
        spans = probe.tracer.spans
        tally.check(self_times_cover(spans, traced_wall_s),
                    "span self times do not add up to the traced wall time")
        metrics = layer_metrics(probe)
        metrics["trace.overhead_s"] = busy(spans, "cli.generate") - untraced_s

        small = Probe(Tracer())
        small.install()
        try:
            code, err = run_cli(gen_args(work / "half", work / "half-out"))
        finally:
            small.remove()
        tally.check(code == 0 and "Traceback" not in err,
                    "traced generate of the half-size tree failed")
        for key, name in (("endpoints.extract.growth", "endpoints.extract"),
                          ("javasrc.parse.growth", "javasrc.parse_project")):
            half_s = busy(small.tracer.spans, name)
            metrics[key] = (busy(spans, name) / half_s if half_s
                            else 0.0)
        rounds.append(metrics)
        last = probe.tracer

    last.write(WORK / f"spans-{corpus.workload}-{corpus.seed}.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for metric in spec["per_layer"]:
        values = [r[metric["name"]] for r in rounds]
        out[metric["name"]] = (statistics.median(values), values,
                               metric["unit"])
    return out


def tail_percentile(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        index = math.ceil(len(ordered) * p / 100) - 1
        if len(ordered) - 1 - index >= 10:
            return f" p{p}={ordered[index]:.6g}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus_mod.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oasforge" / "cli.py").is_file():
        print(f"error: no oasforge sources under {SRC}", file=sys.stderr)
        return 2

    # Tree k of the run with seed s is generated from seed s * TREES_PER_RUN
    # + k, so no two runs share a tree.
    trees = [corpus_mod.build(args.workload, args.seed * TREES_PER_RUN + k)
             for k in range(1 if args.trace else TREES_PER_RUN)]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        print(f"workload {args.workload} seed {args.seed}: generate "
              f"{' '.join(trees[0].flags) or '(json)'}")
        for k, corpus in enumerate(trees):
            corpus.write(work / f"project{k}")
            (work / f"truth{k}.json").write_bytes(corpus.truth_bytes())
            size = corpus.size()
            print(f"  tree {k} (seed {corpus.seed}, scale {corpus.scale}): "
                  f"{size['files']} files, {size['bytes']} bytes, "
                  f"{size['classes']} classes")
        run = traced if args.trace else measure
        metrics = run(work, trees, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failures)
    for name, (value, samples, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={len(samples)}"
              + tail_percentile(samples))
    print(f"  {'failed_ratio':<42} {failed / max(tally.attempted, 1):>14.6g}"
          f" ratio  n={tally.attempted}")
    for reason in tally.failures:
        print(f"FAILED: {reason}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
