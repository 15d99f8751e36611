"""Assemble, merge, and serialize per-profile OpenAPI documents.

Serialization is deterministic: paths sorted, verbs in a fixed canonical
order, schema properties in declaration order, components sorted by name.
"""

from __future__ import annotations

import functools
import json
import re
from json.encoder import encode_basestring
from pathlib import Path

from .diagnostics import FatalError
from .schemas import SchemaRegistry
from .spring import REQUEST_METHODS

OAS_VERSION = "3.0.3"

VERB_ORDER = {verb.lower(): i for i, verb in enumerate(REQUEST_METHODS)}


class MergeConflictError(FatalError):
    def __init__(self, conflicts: list[str]):
        super().__init__("cannot merge documents:\n  " + "\n  ".join(conflicts))
        self.conflicts = conflicts


class RunMemo:
    """What one run derives from each operation and each schema dict of its
    documents: its `$ref`s, its checks and its text, made once however many
    documents hold it, as the profiles with the same advices hold the same
    operations. A part is a dict that a document holds three dicts down
    (`paths.<path>.<verb>`, `components.schemas.<name>`), so its text is the
    same in each. Entries are keyed by a part's identity and hold the part,
    so no id is reused while the memo lives; a part must not change once a
    document holds it. Also holds the YAML text of each str."""

    def __init__(self):
        self._derived: dict[tuple, tuple] = {}  # (what, id) -> (part, value)
        self.yaml_tokens: dict[str, str] = {}

    def of(self, what, part, derive):
        """`derive(part)`, made on the first call for `what` and `part`."""
        key = (what, id(part))
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = (part, derive(part))
        return hit[1]

    def refs(self, part) -> list[str]:
        """Each str `$ref` under `part`, in document order."""
        return self.of("refs", part, _refs)


def _refs(node) -> list[str]:
    found: list[str] = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            ref = node.get("$ref")
            if isinstance(ref, str):
                found.append(ref)
            stack.extend(reversed(node.values()))
        elif isinstance(node, list):
            stack.extend(reversed(node))
    return found


# ---------------------------------------------------------------------------
# Assembly, merging, serialization
# ---------------------------------------------------------------------------

def doc_to_dict(paths: dict[str, dict[str, dict]], schemas: dict[str, dict],
                title: str, version: str) -> dict:
    """The OpenAPI document of `paths` (path -> lower-case verb ->
    operation) and `schemas` (name -> component schema), with paths, verbs
    and schemas in their canonical order."""
    out = {
        "openapi": OAS_VERSION,
        "info": {"title": title, "version": version},
        "paths": {path: {verb: paths[path][verb]
                         for verb in sorted(paths[path], key=VERB_ORDER.get)}
                  for path in sorted(paths)},
    }
    if schemas:
        out["components"] = {
            "schemas": {name: schemas[name] for name in sorted(schemas)}}
    return out


def assemble_document(operations: dict[tuple[str, str], dict],
                      reg: SchemaRegistry, project: str, profile: str,
                      version: str, memo: RunMemo | None = None) -> dict:
    """The document of one profile, from its operations by (path, VERB),
    with the schemas of `reg` that they reach; a profile other than
    "default" is named in its title. The run's `memo` holds the `$ref`s of
    each operation and schema."""
    paths: dict[str, dict[str, dict]] = {}
    for (path, verb), operation in operations.items():
        paths.setdefault(path, {})[verb.lower()] = operation
    title = project if profile == "default" else f"{project} ({profile})"
    reached = _reached_schemas(
        (op for verbs in paths.values() for op in verbs.values()),
        reg.schemas, memo or RunMemo())
    return doc_to_dict(paths, reached, title, version)


def _reached_schemas(operations, schemas: dict[str, dict], memo: RunMemo
                     ) -> dict[str, dict]:
    """The schemas that `operations` refer to by `$ref`, directly or
    through other schemas."""
    reached: dict[str, dict] = {}
    stack = list(operations)
    while stack:
        for ref in memo.refs(stack.pop()):
            name = ref.rpartition("/")[2]
            if name in schemas and name not in reached:
                stack.append(reached.setdefault(name, schemas[name]))
    return reached


def merge_documents(docs_by_profile: dict[str, dict], project: str) -> dict:
    """One document with every operation and schema of the per-profile
    documents; an operation or schema that two profiles define differently
    is a conflict."""
    if not docs_by_profile:
        raise ValueError("nothing to merge")
    conflicts: list[str] = []
    paths: dict[str, dict[str, dict]] = {}
    schemas: dict[str, dict] = {}
    owners: dict[str, str] = {}  # what is defined -> first profile with it
    for profile, doc in docs_by_profile.items():
        # (what, the dict that holds it, its key there, its definition)
        entries = [(f"operation {verb.upper()} {path}",
                    paths.setdefault(path, {}), verb, op)
                   for path, verbs in doc["paths"].items()
                   for verb, op in verbs.items()]
        entries += [(f"schema {name!r}", schemas, name, schema)
                    for name, schema in doc.get("components", {})
                    .get("schemas", {}).items()]
        for what, table, key, value in entries:
            if what not in owners:
                owners[what] = profile
                table[key] = value
            elif table[key] is not value and table[key] != value:
                conflicts.append(f"{what} differs between profiles "
                                 f"{owners[what]!r} and {profile!r}")
    if conflicts:
        raise MergeConflictError(conflicts)
    version = next(iter(docs_by_profile.values()))["info"]["version"]
    return doc_to_dict(paths, schemas, project, version)


@functools.cache
def _no_alias_dumper() -> type:
    """PyYAML's pure-Python `SafeDumper`, made to write each occurrence of
    a sub-dict in full instead of as an anchor and its aliases: a document
    shares sub-dicts between operations. Built on first use, so PyYAML is
    imported only where YAML is written."""
    import yaml
    return type("_NoAliasSafeDumper", (yaml.SafeDumper,),
                {"ignore_aliases": lambda self, data: True})


# The indent of a part in JSON, and of its keys in YAML.
_PART_INDENT = 6


def _yaml_strings(data) -> set[str] | None:
    """The distinct str keys and values of `data` if `serialize`'s YAML
    writer writes it as `_no_alias_dumper()` does, else None. It does for a
    dict or list at any depth holding only dicts with printable ASCII str
    keys of 1-60 characters, lists, printable ASCII str values and bools;
    the writer recurses once per level, as the JSON writer does, so it fails
    only where that one fails. Past that set the writer would need what it
    lacks, and libyaml, which renders its scalars where it is installed,
    would part ways with PyYAML: they fold long double-quoted scalars at
    different places, escape non-BMP characters and NEL differently, write
    long or empty keys as `? ` keys at different lengths, and only PyYAML
    ends a lone scalar with `...`."""
    if type(data) not in (dict, list):
        return None
    strings: set[str] = set()
    level = [data]
    while level:
        below = []
        for node in level:
            kind = type(node)
            if kind is dict:
                for key in node:
                    if not (type(key) is str and 0 < len(key) <= 60
                            and key.isascii() and key.isprintable()):
                        return None
                strings.update(node)
                below.extend(node.values())
            elif kind is list:
                below.extend(node)
            elif kind is str:
                if not (node.isascii() and node.isprintable()):
                    return None
                strings.add(node)
            elif kind is not bool:
                return None
        level = below
    return strings


def _json_chunks(node, indent: str, out: list[str], memo=None) -> None:
    """Append `node` to `out` as `json.dumps(indent=2, ensure_ascii=False)`
    writes it at `indent`; dict keys are str. The run's `memo` is passed
    down from a document's root through dict values only, so a dict value
    it reaches at `_PART_INDENT` is a part, written through it."""
    if isinstance(node, str):
        out.append(encode_basestring(node))
    elif not node or not isinstance(node, (list, tuple, dict)):
        out.append(json.dumps(node))  # a scalar, `{}` or `[]`
    else:
        inner = indent + "  "
        separator = "\n" + inner
        if isinstance(node, dict):
            out.append("{")
            for key, value in node.items():
                out.append(f"{separator}{encode_basestring(key)}: ")
                if memo is None or type(value) is not dict:
                    _json_chunks(value, inner, out)
                elif len(inner) == _PART_INDENT:
                    out.append(memo.of("json", value, _json_part))
                else:
                    _json_chunks(value, inner, out, memo)
                separator = ",\n" + inner
            out.append("\n" + indent + "}")
        else:
            out.append("[")
            for value in node:
                out.append(separator)
                _json_chunks(value, inner, out)
                separator = ",\n" + inner
            out.append("\n" + indent + "]")


def _json_part(part: dict) -> str:
    out: list[str] = []
    _json_chunks(part, " " * _PART_INDENT, out)
    return "".join(out)


def _render_yaml_tokens(strings: set[str], tokens: dict[str, str]) -> None:
    """Add to `tokens` each str of `strings` that it lacks, as the
    reference dumper writes it as a key or a block value before folding:
    plain or single-quoted, on one line. libyaml renders them where it is
    installed, in one call for all."""
    new = [text for text in strings if text not in tokens]
    if new:
        import yaml
        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
        # a width nothing reaches, so no string is folded
        lines = yaml.dump(new, Dumper=dumper, width=1 << 30).split("\n")
        tokens.update(zip(new, (line[2:] for line in lines)))


# A lone space inside a scalar, where PyYAML may fold it.
_FOLD_POINT = re.compile(r"(?<=[^ ]) (?=[^ ])")
_FOLD_WIDTH = 80  # PyYAML's default line width


def _yaml_scalar(token: str, column: int, indent: int, out: list[str]
                 ) -> None:
    """Append ` token`, a scalar that starts at `column`, folded as PyYAML
    folds a plain or single-quoted scalar: at each lone space past column
    80, other than a quoted text's first or last character, onto a new line
    at `indent`."""
    if column + len(token) <= _FOLD_WIDTH + 1 or " " not in token:
        out.append(" " + token)
        return
    quoted = token[0] == "'"
    lines = []
    start = 0  # of the line being written, in `token`; at `column`
    for match in _FOLD_POINT.finditer(token):
        at = match.start()
        if column + at - start > _FOLD_WIDTH and not (
                quoted and at in (1, len(token) - 2)):
            lines.append(token[start:at])
            start, column = at + 1, indent
    lines.append(token[start:])
    out.append(" " + ("\n" + " " * indent).join(lines))


def _yaml_leaf(value, column: int, indent: int, tokens: dict[str, str],
               out: list[str]) -> bool:
    """Append ` value` where `value` is a str, a bool or empty, as a block
    value at `column` that continues at `indent`; whether it was one."""
    kind = type(value)
    if kind is str:
        _yaml_scalar(tokens[value], column, indent, out)
    elif kind is bool:
        out.append(" true" if value else " false")
    elif not value:
        out.append(" {}" if kind is dict else " []")
    else:
        return False
    return True


def _yaml_mapping(node: dict, indent: int, tokens: dict[str, str],
                  out: list[str], memo=None) -> None:
    """Append the non-empty dict `node` as a block mapping with its keys at
    column `indent`, the first where `out` ends; `memo` as in
    `_json_chunks`, the keys of a part being at `_PART_INDENT`."""
    separator = ""
    inner = indent + 2
    for key, value in node.items():
        key = tokens[key]
        out.append(f"{separator}{key}:")
        separator = "\n" + " " * indent
        if _yaml_leaf(value, indent + len(key) + 2, inner, tokens, out):
            continue
        if type(value) is not dict:  # a sequence in a mapping: indentless
            out.append(separator)
            _yaml_sequence(value, indent, tokens, out)
            continue
        out.append("\n" + " " * inner)
        if memo is None:
            _yaml_mapping(value, inner, tokens, out)
        elif inner == _PART_INDENT:
            out.append(memo.of("yaml", value,
                               lambda part: _yaml_part(part, tokens)))
        else:
            _yaml_mapping(value, inner, tokens, out, memo)


def _yaml_part(part: dict, tokens: dict[str, str]) -> str:
    out: list[str] = []
    _yaml_mapping(part, _PART_INDENT, tokens, out)
    return "".join(out)


def _yaml_sequence(node: list, indent: int, tokens: dict[str, str],
                   out: list[str]) -> None:
    """Append the non-empty list `node` as a block sequence with its dashes
    at column `indent`, the first where `out` ends."""
    separator = ""
    inner = indent + 2
    for value in node:
        out.append(separator + "-")
        separator = "\n" + " " * indent
        if not _yaml_leaf(value, inner, inner, tokens, out):
            out.append(" ")
            if type(value) is dict:
                _yaml_mapping(value, inner, tokens, out)
            else:
                _yaml_sequence(value, inner, tokens, out)


def serialize(data: dict, format: str = "json",
              memo: RunMemo | None = None) -> bytes:
    """Render a document as JSON or YAML bytes, as `json.dumps(indent=2,
    ensure_ascii=False)` and PyYAML's pure-Python `_no_alias_dumper()` would
    write them, only faster. JSON is written by `_json_chunks`; YAML by
    `_yaml_mapping` where `_yaml_strings` admits the document, else by
    `_no_alias_dumper()`. Each part of the document is written through the
    run's `memo`, once for all the documents of the run."""
    if memo is None:
        memo = RunMemo()
    if format == "json":
        out: list[str] = []
        _json_chunks(data, "", out, memo)
        out.append("\n")
        return "".join(out).encode("utf-8")
    if format == "yaml":
        strings = _yaml_strings(data)
        if strings is None:
            import yaml
            return yaml.dump(data, Dumper=_no_alias_dumper(), sort_keys=False,
                             allow_unicode=True).encode("utf-8")
        _render_yaml_tokens(strings, memo.yaml_tokens)
        out = []
        if not data:
            out.append("{}" if type(data) is dict else "[]")
        elif type(data) is dict:
            _yaml_mapping(data, 0, memo.yaml_tokens, out, memo)
        else:
            _yaml_sequence(data, 0, memo.yaml_tokens, out)
        out.append("\n")
        return "".join(out).encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# Project metadata
# ---------------------------------------------------------------------------

def read_project_version(root: Path) -> str:
    """Service version from a build descriptor at the project root."""
    pom = root / "pom.xml"
    if pom.is_file():
        import xml.etree.ElementTree as ET
        try:
            tree = ET.parse(pom)
            ns = ""
            if tree.getroot().tag.startswith("{"):
                ns = tree.getroot().tag.split("}")[0] + "}"
            node = tree.getroot().find(f"{ns}version")
            if node is not None and node.text:
                return node.text.strip()
        except ET.ParseError:
            pass
    for gradle in ("build.gradle", "build.gradle.kts"):
        path = root / gradle
        if path.is_file():
            m = re.search(r"""^version\s*=?\s*['"]([^'"]+)['"]""",
                          path.read_text(encoding="utf-8", errors="replace"),
                          re.MULTILINE)
            if m:
                return m.group(1)
    return "0.0.0"
