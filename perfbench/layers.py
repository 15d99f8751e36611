"""Per-module tracing of oasforge from outside the program.

`instrument` wraps the public functions of each module in every oasforge
module namespace that holds them (and two `SourceModel` methods), so calls
made through `from .x import f` are traced too. Per-token helpers such as
`ClassDecl.simple_name` are left alone: a wrapper costs about a microsecond
and would swamp them. `run_cli` runs the real click commands in-process, so
the traced pipeline is exactly `oasforge generate` / `oasforge evaluate`.
"""

from __future__ import annotations

import contextlib
import io
import sys

from spans import Tracer, busy, self_by_name

PARSE_ERROR = "PARSE_ERROR"


def _span(tracer: Tracer, fn, name: str, after=None, outermost=False):
    """Wrap `fn` in a span named `name` and count its calls. With
    `outermost`, calls nested in another call of `fn` run unwrapped."""
    depth = 0

    def wrapper(*args, **kwargs):
        nonlocal depth
        if outermost and depth:
            return fn(*args, **kwargs)
        depth += 1
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
            depth -= 1
        tracer.counts[name + ".calls"] += 1
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _counter(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class Probe:
    """Wrappers installed on the oasforge modules, and what they saw."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.unit_pairs: set = set()
        self._undo: list = []

    def install(self):
        from oasforge import (discovery, emitter, endpoints, evaluation,
                              javasrc, oasvalidate, pipeline, schemas)
        t, c = self.tracer, self.tracer.counts

        def tokenized(args, tokens):
            c["javasrc.parse.files"] += 1
            c["javasrc.parse.bytes"] += len(args[0].encode("utf-8"))
            c["javasrc.parse.tokens"] += len(tokens)

        def parsed(args, model):
            c["javasrc.parse.errors"] += sum(
                d.code == PARSE_ERROR for d in model.parse_diagnostics)

        def scanned(args, result):
            c["javasrc.by_simple_name.classes_scanned"] += len(args[0].classes)

        def extracted(args, endpoints_out):
            unit, reg = args[0], args[2]
            controllers = unit.controller_set.controllers
            advices = frozenset(a.qualified_name
                                for a in unit.controller_set.advices)
            c["endpoints.operations"] += len(endpoints_out)
            c["endpoints.controller_visits"] += len(controllers)
            c["schemas.registered"] += len(reg.schemas)
            self.unit_pairs.update((k.qualified_name, advices)
                                   for k in controllers)

        def generated(args, result):
            diags = result.diagnostics
            c["diagnostics.emitted"] += len(diags)
            c["diagnostics.unique"] += len({(d.code, d.file, d.line,
                                             d.message) for d in diags})

        functions = [
            (javasrc, "parse_project", "javasrc.parse_project", parsed, False),
            (javasrc, "tokenize", "javasrc.tokenize", tokenized, False),
            (javasrc, "resolve_string_constant",
             "javasrc.resolve_string_constant", None, True),
            (discovery, "discover_rest_classes", "discovery.discover",
             lambda a, r: c.update({"discovery.controllers":
                                    len(r.controllers)}), False),
            (discovery, "group_by_profile", "discovery.group",
             lambda a, r: c.update({"discovery.units": len(r)}), False),
            (endpoints, "extract_endpoints", "endpoints.extract", extracted,
             False),
            (endpoints, "extract_parameters", "endpoints.extract_parameters",
             None, False),
            (endpoints, "extract_responses", "endpoints.extract_responses",
             None, False),
            (schemas, "schema_for_type", "schemas.schema_for_type", None,
             True),
            (emitter, "assemble_document", "emitter.assemble", None, False),
            (emitter, "doc_to_dict", "emitter.doc_to_dict", None, False),
            (emitter, "merge_documents", "emitter.merge", None, False),
            (emitter, "serialize", "emitter.serialize",
             lambda a, r: c.update({"emitter.output_bytes": len(r)}), False),
            (oasvalidate, "validate_document", "oasvalidate.validate", None,
             False),
            (evaluation, "load_ground_truth", "evaluation.load_gt", None,
             False),
            (evaluation, "flatten_for_eval", "evaluation.flatten", None,
             False),
            (evaluation, "evaluate", "evaluation.evaluate", None, False),
            (pipeline, "generate_project", "pipeline.generate_project",
             generated, False),
        ]
        for module, attr, name, after, outermost in functions:
            original = getattr(module, attr)
            self._replace(original, _span(t, original, name, after, outermost))
        for module, attr, name in (
                (javasrc, "supertype_chain", "javasrc.supertype_chain.calls"),
                (schemas, "build_named_schema",
                 "schemas.build_named_schema.calls")):
            original = getattr(module, attr)
            self._replace(original, _counter(t, original, name))

        model = javasrc.SourceModel
        for attr, name, after in (
                ("resolve_type_name", "javasrc.resolve_type_name", None),
                ("by_simple_name", "javasrc.by_simple_name", scanned)):
            original = getattr(model, attr)
            setattr(model, attr, _span(t, original, name, after))
            self._undo.append((model, attr, original))

    def _replace(self, original, wrapper):
        """Point every oasforge namespace that holds `original` at
        `wrapper`."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("oasforge") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run `oasforge <args>` in this process; return (exit code, stderr)."""
    from oasforge import cli
    err = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            cli.main.main(args, prog_name="oasforge", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()


BUSY = ("javasrc.parse_project", "javasrc.tokenize",
        "javasrc.resolve_type_name", "javasrc.by_simple_name",
        "javasrc.resolve_string_constant", "discovery.discover",
        "discovery.group", "endpoints.extract",
        "endpoints.extract_parameters", "endpoints.extract_responses",
        "schemas.schema_for_type", "emitter.assemble", "emitter.doc_to_dict",
        "emitter.merge", "emitter.serialize", "oasvalidate.validate",
        "evaluation.load_gt", "evaluation.flatten", "evaluation.evaluate",
        "pipeline.generate_project")
CALLS = ("javasrc.resolve_type_name", "javasrc.by_simple_name",
         "javasrc.resolve_string_constant", "schemas.schema_for_type",
         "emitter.doc_to_dict")
COUNTS = ("javasrc.parse.files", "javasrc.parse.bytes", "javasrc.parse.tokens",
          "javasrc.parse.errors", "javasrc.by_simple_name.classes_scanned",
          "javasrc.supertype_chain.calls", "discovery.controllers",
          "discovery.units", "endpoints.operations",
          "endpoints.controller_visits", "schemas.build_named_schema.calls",
          "schemas.registered", "emitter.output_bytes", "diagnostics.emitted")


def layer_metrics(probe: Probe) -> dict[str, float]:
    """Per-layer metrics of one traced generate + evaluate."""
    spans, counts = probe.tracer.spans, probe.tracer.counts
    out: dict[str, float] = {f"{n}.busy_s": busy(spans, n) for n in BUSY}
    out.update({f"{n}.calls": counts[f"{n}.calls"] for n in CALLS})
    out.update({n: counts[n] for n in COUNTS})
    out["endpoints.extract.self_s"] = self_by_name(spans).get(
        "endpoints.extract", 0.0)
    parse_s = out["javasrc.parse_project.busy_s"]
    out["javasrc.parse.mb_per_s"] = (counts["javasrc.parse.bytes"] / 1e6
                                     / parse_s if parse_s else 0.0)
    visits = counts["endpoints.controller_visits"]
    out["endpoints.controller_unique_ratio"] = (
        len(probe.unit_pairs) / visits if visits else 1.0)
    emitted = counts["diagnostics.emitted"]
    out["diagnostics.unique_ratio"] = (
        counts["diagnostics.unique"] / emitted if emitted else 1.0)
    return out
