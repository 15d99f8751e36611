"""Score generated descriptions against a ground-truth file.

The ground truth is one JSON document per project-profile with three arrays:
methods [{path, verb}], parameters [{path, verb, name}], and responses
[{path, verb, status}]. Matching is exact on normalized keys; precision with
no TP and no FP is defined as 0 to penalize empty predictions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

MethodKey = tuple[str, str]
ParameterKey = tuple[str, str, str]
ResponseKey = tuple[str, str, str]

CATEGORIES = ("methods", "parameters", "responses")

# the keys of an OAS 3.0 path item that hold operations
OPERATION_KEYS = ("get", "put", "post", "delete", "options", "head", "patch",
                  "trace")


class GroundTruthError(Exception):
    pass


@dataclass(frozen=True)
class FlatSets:
    """The (path, verb[, name|status]) keys of a description, from
    `flatten_for_eval`, or of a ground-truth file, from
    `load_ground_truth`."""
    methods: frozenset[MethodKey]
    parameters: frozenset[ParameterKey]
    responses: frozenset[ResponseKey]

    def union(self, other: "FlatSets") -> "FlatSets":
        return FlatSets(self.methods | other.methods,
                        self.parameters | other.parameters,
                        self.responses | other.responses)


EMPTY_FLAT = FlatSets(frozenset(), frozenset(), frozenset())


@dataclass(frozen=True)
class CategoryScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0


@dataclass(frozen=True)
class EvalReport:
    methods: CategoryScore
    parameters: CategoryScore
    responses: CategoryScore

    def as_dict(self) -> dict:
        out = {}
        for category in CATEGORIES:
            score: CategoryScore = getattr(self, category)
            out[category] = {
                "tp": score.tp, "fp": score.fp, "fn": score.fn,
                "precision": round(score.precision, 4),
                "recall": round(score.recall, 4),
            }
        return out


# ---------------------------------------------------------------------------
# Ground truth loading
# ---------------------------------------------------------------------------

def _normalize_path(path: str) -> str:
    segments = [seg for seg in str(path).split("/") if seg]
    return "/" + "/".join(segments)


def _entry(row: dict, keys: tuple[str, ...], index: int, category: str
           ) -> tuple:
    if not isinstance(row, dict):
        raise GroundTruthError(f"{category}[{index}]: entry must be an object")
    values = []
    for key in keys:
        if key not in row:
            raise GroundTruthError(f"{category}[{index}]: missing {key!r}")
        value = str(row[key])
        if key == "path":
            value = _normalize_path(value)
        elif key == "verb":
            value = value.upper()
        values.append(value)
    return tuple(values)


def load_ground_truth(file: Path | str) -> FlatSets:
    path = Path(file)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise GroundTruthError(f"ground truth file not found: {path}")
    except json.JSONDecodeError as exc:
        raise GroundTruthError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise GroundTruthError(f"{path}: nested too deeply")
    if not isinstance(data, dict):
        raise GroundTruthError(f"{path}: top level must be an object")

    keys = {"methods": ("path", "verb"),
            "parameters": ("path", "verb", "name"),
            "responses": ("path", "verb", "status")}
    sets: dict[str, frozenset] = {}
    for category in CATEGORIES:
        rows = data.get(category, [])
        if not isinstance(rows, list):
            raise GroundTruthError(f"{path}: {category} must be an array")
        entries = set()
        for i, row in enumerate(rows):
            entry = _entry(row, keys[category], i, category)
            if entry in entries:
                raise GroundTruthError(
                    f"{path}: duplicate {category} entry at index {i}: {entry}")
            entries.add(entry)
        sets[category] = frozenset(entries)
    return FlatSets(sets["methods"], sets["parameters"], sets["responses"])


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------

def _schema_field_names(schema, components: dict, where: str) -> list[str]:
    """Field names of an object schema, expanded through $ref and allOf
    (the full inheritance chain); nested objects are not descended into.
    The walk keeps its own stack, so a chain of any length is read."""
    names: list[str] = []
    seen: set[str] = set()
    stack = [(schema, where)]
    while stack:
        schema, where = stack.pop()
        ref = _expect(schema, dict, where).get("$ref")
        if ref is not None:
            name = _expect(ref, str, where, ".$ref").rsplit("/", 1)[-1]
            if name in seen:
                continue
            seen.add(name)
            target = components.get(name)
            if target is None:
                raise KeyError(f"dangling $ref {ref!r} during flattening")
            stack.append((target, "components.schemas." + name))
            continue
        names.extend(_expect(schema.get("properties", {}), dict, where,
                             ".properties"))
        parts = _expect(schema.get("allOf", []), list, where, ".allOf")
        stack.extend((part, f"{where}.allOf[{i}]")
                     for i, part in enumerate(parts))
    return names


_KIND_NAMES = {dict: "mapping", list: "list", str: "string"}


def _expect(value, kind: type, where: str, key: str = ""):
    """`value`, if it is a `kind`; the error names the entry `where` + `key`,
    which are joined only then, because scoring reads many entries."""
    if not isinstance(value, kind):
        raise ValueError(f"{where}{key} is a {type(value).__name__}, not a "
                         f"{_KIND_NAMES[kind]}")
    return value


def flatten_for_eval(doc: dict) -> FlatSets:
    """Flat (path, verb[, name|status]) sets of a serialized description.

    Raises ValueError when an entry that scoring reads (paths, path items,
    operations, their parameters, request bodies and responses, the body
    schemas and the component schemas) has the wrong type."""
    components = _expect(_expect(doc.get("components", {}), dict,
                                 "components").get("schemas", {}),
                         dict, "components.schemas")
    methods: set[MethodKey] = set()
    parameters: set[ParameterKey] = set()
    responses: set[ResponseKey] = set()
    for path, item in _expect(doc.get("paths", {}), dict, "paths").items():
        norm = _normalize_path(path)
        for verb, op in _expect(item, dict, "paths.", path).items():
            if verb not in OPERATION_KEYS:
                continue
            where = f"paths.{path}.{verb}"
            _expect(op, dict, where)
            verb_u = verb.upper()
            methods.add((norm, verb_u))
            params = _expect(op.get("parameters", []), list, where,
                             ".parameters")
            for i, param in enumerate(params):
                name = _expect(param, dict,
                               f"{where}.parameters[{i}]").get("name")
                if name:
                    parameters.add((norm, verb_u, str(name)))
            body = _expect(op.get("requestBody", {}), dict, where,
                           ".requestBody")
            content = _expect(body.get("content", {}), dict, where,
                              ".requestBody.content")
            for media_type, media in content.items():
                at = f"{where}.requestBody.content.{media_type}"
                schema = _expect(media, dict, at).get("schema")
                if schema:
                    for field in _schema_field_names(schema, components,
                                                     at + ".schema"):
                        parameters.add((norm, verb_u, field))
            for status in _expect(op.get("responses", {}), dict, where,
                                  ".responses"):
                responses.add((norm, verb_u, str(status)))
    return FlatSets(frozenset(methods), frozenset(parameters),
                    frozenset(responses))


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def _score(predicted: frozenset, truth: frozenset) -> CategoryScore:
    tp = len(predicted & truth)
    return CategoryScore(tp=tp, fp=len(predicted - truth),
                         fn=len(truth - predicted))


def evaluate(flat: FlatSets, gt: FlatSets) -> EvalReport:
    return EvalReport(
        methods=_score(flat.methods, gt.methods),
        parameters=_score(flat.parameters, gt.parameters),
        responses=_score(flat.responses, gt.responses),
    )


def format_report(report: EvalReport) -> str:
    lines = [f"{'category':<12} {'TP':>6} {'FP':>6} {'FN':>6} "
             f"{'precision':>10} {'recall':>8}"]
    for category in CATEGORIES:
        score: CategoryScore = getattr(report, category)
        lines.append(f"{category:<12} {score.tp:>6} {score.fp:>6} "
                     f"{score.fn:>6} {score.precision:>10.2f} "
                     f"{score.recall:>8.2f}")
    return "\n".join(lines)
