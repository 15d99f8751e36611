"""perfbench's traced run wraps oasforge functions by name and reads some of
their arguments, so a rename or a signature change in oasforge must fail a
test here, not only a benchmark run."""

from pathlib import Path

import pytest

from conftest import FIXTURES_DIR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("fixture", ["profile_split",
                                     "exception_precedence"])
def test_traced_generate_reaches_the_wrapped_functions(fixture, tmp_path,
                                                        monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Probe, layer_metrics, run_cli
    from spans import Tracer
    probe = Probe(Tracer())
    probe.install()
    try:
        code, err = run_cli(["generate", "--input",
                             str(FIXTURES_DIR / fixture), "--output",
                             str(tmp_path / "out")])
    finally:
        probe.remove()
    assert code == 0, err
    metrics = layer_metrics(probe)
    assert metrics["endpoints.operations"] > 0
    assert metrics["endpoints.extract_responses.busy_s"] > 0
    if fixture == "exception_precedence":
        # every hierarchy walk goes through the wrapped `supertype_chain`
        assert metrics["javasrc.supertype_chain.calls"] > 0
