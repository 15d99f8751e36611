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
import sys
from pathlib import Path

from .diagnostics import FatalError
from .values import Value, set_field

CATEGORIES = {"methods": ("path", "verb"),
              "parameters": ("path", "verb", "name"),
              "responses": ("path", "verb", "status")}

# the keys of an OAS 3.0 path item that hold operations
OPERATION_KEYS = ("get", "put", "post", "delete", "options", "head", "patch",
                  "trace")


class GroundTruthError(FatalError):
    pass


class CategoryScore(Value):
    __slots__ = ("tp", "fp", "fn")

    def __init__(self, tp: int, fp: int, fn: int):
        set_field(self, "tp", tp)
        set_field(self, "fp", fp)
        set_field(self, "fn", fn)

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
# Description loading
# ---------------------------------------------------------------------------

def load_description(path: Path) -> dict:
    """The description in `path`, JSON or YAML by its suffix. PyYAML is
    imported here, so a run that reads no YAML does not load it; its
    errors become ValueError with the same text."""
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        import yaml
        try:
            data = read_yaml(text)
        # PyYAML's scalar constructors raise these on a malformed tagged
        # scalar, as `!!int ""` or `!!timestamp x`
        except (yaml.YAMLError, IndexError, AttributeError) as exc:
            raise ValueError(str(exc)) from exc
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"top level is a {type(data).__name__}, not a "
                         "mapping")
    return data


class _HandOver(Exception):
    """Input that `read_yaml`'s walk does not build."""


_TAG = "tag:yaml.org,2002:"
# the scalar tags the walk builds with the loader's own constructors; a str
# is the event's value
_CONSTRUCTED = {_TAG + name for name in
                ("bool", "int", "float", "null", "timestamp")}


def read_yaml(text: str, loader_class: type | None = None):
    """What `yaml.load(text, Loader=loader_class)` gives (default: libyaml's
    `CSafeLoader` where PyYAML has it, else `SafeLoader`): an equal value,
    or the same error.

    The value is built from the loader's event stream with an explicit
    stack, with no node graph in between. Scalars are resolved and
    constructed as PyYAML does, and an anchored value is shared by its
    aliases. Input the walk does not build (a tag other than str, seq, map
    and the tags of `_CONSTRUCTED`, a merge `<<` or value `=` key, a second
    document, a duplicate or undefined anchor, an unhashable key, or any
    error) is handed to `yaml.load` whole. Before that the walk reads the
    rest of the stream, up to its end or first error: input more than
    `sys.getrecursionlimit()` levels deep raises ValueError instead, as
    `yaml.load`'s composer recurses once per level (in C with libyaml,
    where it can overflow the stack)."""
    import yaml
    from yaml.events import (AliasEvent, DocumentStartEvent,
                             MappingEndEvent, MappingStartEvent, ScalarEvent,
                             SequenceEndEvent, SequenceStartEvent,
                             StreamEndEvent)
    from yaml.nodes import MappingNode, ScalarNode, SequenceNode

    if loader_class is None:
        loader_class = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    str_tag, seq_tag, map_tag = _TAG + "str", _TAG + "seq", _TAG + "map"
    key_next = object()  # a mapping's `key` when its next event is a key
    doc: list = []  # the document's value, once read
    top, key = doc, key_next  # the collection being read
    stack: list = []  # (top, key) of each collection around `top`
    deepest = 0
    loader = event = None
    try:
        loader = loader_class(text)
        get_event, resolve = loader.get_event, loader.resolve
        constructors = loader.yaml_constructors
        if loader.yaml_path_resolvers:  # they follow the composer's path
            raise _HandOver
        anchors: dict = {}
        resolved: dict = {}  # (value, implicit) -> tag
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent:
                tag = event.tag
                if tag is None or tag == "!":
                    # `resolve` depends only on its arguments, and a
                    # description repeats its keys and values
                    resolving = event.value, event.implicit
                    tag = resolved.get(resolving)
                    if tag is None:
                        tag = resolved[resolving] = resolve(ScalarNode,
                                                            *resolving)
                if tag == str_tag:
                    value = event.value
                elif tag in _CONSTRUCTED:
                    value = constructors[tag](loader,
                                              ScalarNode(tag, event.value))
                else:
                    raise _HandOver
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                node, built, value = \
                    (MappingNode, map_tag, {}) if kind is MappingStartEvent \
                    else (SequenceNode, seq_tag, [])
                tag = event.tag
                if tag is None or tag == "!":
                    tag = resolve(node, None, event.implicit)
                if tag != built:
                    raise _HandOver
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                top, key = stack.pop()
                continue
            elif kind is AliasEvent:
                value = anchors[event.anchor]
            elif kind is StreamEndEvent:
                return doc[0] if doc else None
            elif kind is DocumentStartEvent and doc:
                raise _HandOver  # a second document
            else:  # the stream's start, a document's start or end
                continue
            anchor = event.anchor
            if anchor is not None and kind is not AliasEvent:
                if anchor in anchors:
                    raise _HandOver
                anchors[anchor] = value
            if top.__class__ is list:
                top.append(value)
            elif key is key_next:
                key = value
            else:
                top[key] = value  # a TypeError for an unhashable key
                key = key_next
            if kind is MappingStartEvent or kind is SequenceStartEvent:
                stack.append((top, key))
                top, key = value, key_next
                if len(stack) > deepest:
                    deepest = len(stack)
    except yaml.YAMLError:  # from the stream: it ends here
        pass
    # anything else: input the walk does not build, or an error of PyYAML's
    # constructors, which yaml.load raises again; read on, for the depth
    except Exception:
        starts = (MappingStartEvent, SequenceStartEvent)
        # a collection handed over at its start event is not on the stack
        depth = len(stack) + isinstance(event, starts)
        deepest = max(deepest, depth)
        try:
            while loader is not None and \
                    not isinstance(event, StreamEndEvent):
                event = loader.get_event()
                if isinstance(event, starts):
                    depth += 1
                    deepest = max(deepest, depth)
                elif isinstance(event, (MappingEndEvent, SequenceEndEvent)):
                    depth -= 1
        except yaml.YAMLError:
            pass
    finally:
        if loader is not None:
            loader.dispose()
    if deepest > sys.getrecursionlimit():
        raise ValueError("nested too deeply")
    return yaml.load(text, Loader=loader_class)


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
