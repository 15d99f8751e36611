"""Score generated descriptions against a ground-truth file.

`CATEGORIES` is the one table of scoring categories: each names the keys of
its entries. The ground truth is one JSON document per project-profile with
an array per category: methods [{path, verb}], parameters [{path, verb,
name}], and responses [{path, verb, status}]. `load_ground_truth` and
`flatten_for_eval` both give a set of key tuples per category, `evaluate` a
`CategoryScore` per category. Matching is exact on normalized keys;
precision with no TP and no FP is defined as 0 to penalize empty
predictions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .diagnostics import FatalError

CATEGORIES = {"methods": ("path", "verb"),
              "parameters": ("path", "verb", "name"),
              "responses": ("path", "verb", "status")}

# the keys of an OAS 3.0 path item that hold operations
OPERATION_KEYS = ("get", "put", "post", "delete", "options", "head", "patch",
                  "trace")


class GroundTruthError(FatalError):
    pass


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

    def as_dict(self) -> dict:
        """This category's row of the JSON report."""
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": round(self.precision, 4),
                "recall": round(self.recall, 4)}


# ---------------------------------------------------------------------------
# Ground truth loading
# ---------------------------------------------------------------------------

def _normalize_path(path: str) -> str:
    segments = [seg for seg in str(path).split("/") if seg]
    return "/" + "/".join(segments)


def _entry(row: dict, keys: tuple[str, ...]) -> tuple:
    if not isinstance(row, dict):
        raise GroundTruthError("entry must be an object")
    values = []
    for key in keys:
        if key not in row:
            raise GroundTruthError(f"missing {key!r}")
        value = str(row[key])
        if key == "path":
            value = _normalize_path(value)
        elif key == "verb":
            value = value.upper()
        values.append(value)
    return tuple(values)


def load_ground_truth(file: Path | str) -> dict[str, frozenset]:
    """The entries of a ground-truth file as key tuples, by category."""
    path = Path(file)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise GroundTruthError(f"ground truth file not found: {path}")
    except json.JSONDecodeError as exc:
        raise GroundTruthError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}")
    except UnicodeDecodeError as exc:
        raise GroundTruthError(f"{path}: {exc}")
    except RecursionError:
        raise GroundTruthError(f"{path}: nested too deeply")
    if not isinstance(data, dict):
        raise GroundTruthError(f"{path}: top level must be an object")

    sets: dict[str, frozenset] = {}
    for category, keys in CATEGORIES.items():
        rows = data.get(category, [])
        if not isinstance(rows, list):
            raise GroundTruthError(f"{path}: {category} must be an array")
        entries = set()
        for i, row in enumerate(rows):
            try:
                entry = _entry(row, keys)
            except GroundTruthError as exc:
                raise GroundTruthError(
                    f"{path}: {category}[{i}]: {exc}") from None
            if entry in entries:
                raise GroundTruthError(
                    f"{path}: duplicate {category} entry at index {i}: {entry}")
            entries.add(entry)
        sets[category] = frozenset(entries)
    return sets


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


def flatten_for_eval(doc: dict) -> dict[str, frozenset]:
    """The (path, verb[, name|status]) keys of a serialized description, by
    category.

    Raises ValueError when an entry that scoring reads (paths, path items,
    operations, their parameters, request bodies and responses, the body
    schemas and the component schemas) has the wrong type."""
    components = _expect(_expect(doc.get("components", {}), dict,
                                 "components").get("schemas", {}),
                         dict, "components.schemas")
    flat: dict[str, set] = {category: set() for category in CATEGORIES}
    for path, item in _expect(doc.get("paths", {}), dict, "paths").items():
        norm = _normalize_path(path)
        for verb, op in _expect(item, dict, "paths.", path).items():
            if verb not in OPERATION_KEYS:
                continue
            where = f"paths.{path}.{verb}"
            _expect(op, dict, where)
            verb_u = verb.upper()
            flat["methods"].add((norm, verb_u))
            params = _expect(op.get("parameters", []), list, where,
                             ".parameters")
            for i, param in enumerate(params):
                name = _expect(param, dict,
                               f"{where}.parameters[{i}]").get("name")
                if name:
                    flat["parameters"].add((norm, verb_u, str(name)))
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
                        flat["parameters"].add((norm, verb_u, field))
            for status in _expect(op.get("responses", {}), dict, where,
                                  ".responses"):
                flat["responses"].add((norm, verb_u, str(status)))
    return {category: frozenset(keys) for category, keys in flat.items()}


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def evaluate(flat: dict[str, frozenset], gt: dict[str, frozenset]
             ) -> dict[str, CategoryScore]:
    """The score of the predicted keys `flat` against the truth `gt`, by
    category."""
    return {category: CategoryScore(tp=len(flat[category] & gt[category]),
                                    fp=len(flat[category] - gt[category]),
                                    fn=len(gt[category] - flat[category]))
            for category in CATEGORIES}


def format_report(report: dict[str, CategoryScore]) -> str:
    lines = [f"{'category':<12} {'TP':>6} {'FP':>6} {'FN':>6} "
             f"{'precision':>10} {'recall':>8}"]
    for category, score in report.items():
        lines.append(f"{category:<12} {score.tp:>6} {score.fp:>6} "
                     f"{score.fn:>6} {score.precision:>10.2f} "
                     f"{score.recall:>8.2f}")
    return "\n".join(lines)
