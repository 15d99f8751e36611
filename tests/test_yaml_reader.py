"""`evaluation.read_yaml` against `yaml.load`, with libyaml and without it.

The reader must give `yaml.load`'s value, with the same types and the same
sharing, or raise its error with the same text."""

import json
import math
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR
from oasforge.emitter import serialize
from oasforge.evaluation import read_yaml

LOADERS = [loader for loader in (getattr(yaml, "CSafeLoader", None),
                                 yaml.SafeLoader) if loader is not None]
with_each_loader = pytest.mark.parametrize(
    "loader", LOADERS, ids=[loader.__name__ for loader in LOADERS])

# plain scalars that resolve to each implicit tag of PyYAML's resolver
IMPLICIT = ["true", "No", "~", "null", "", "0x1F", "0b101", "1_000", "017",
            "-12", "1:20", "1.5e3", ".inf", "-.Inf", ".NaN", "2001-12-14",
            "2001-12-14t21:59:43.10-05:00", "=", "<<", "text", "0b_",
            "2001-13-45"]


def outcome(read, text, loader):
    """("value", v) or ("error", the exception's type name and text)."""
    try:
        return "value", read(text, loader)
    except Exception as exc:
        return "error", (type(exc).__name__, str(exc))


def same(a, b, ids=None) -> bool:
    """Whether `a` and `b` are equal, with the same type at every place,
    NaN equal to NaN, and the same collections shared (or cyclic) in
    both."""
    if ids is None:
        ids = {}
    if type(a) is not type(b):
        return False
    if isinstance(a, (dict, list)):
        if id(a) in ids:
            return ids[id(a)] == id(b)
        if id(b) in ids.values():
            return False
        ids[id(a)] = id(b)
        if len(a) != len(b):
            return False
        if isinstance(a, dict):
            return all(same(ka, kb, ids) and same(va, vb, ids)
                       for (ka, va), (kb, vb) in zip(a.items(), b.items()))
        return all(same(x, y, ids) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def assert_reads_like_yaml_load(text, loader):
    got = outcome(read_yaml, text, loader)
    want = outcome(lambda t, ldr: yaml.load(t, Loader=ldr), text, loader)
    assert got[0] == want[0], (text, got, want)
    if got[0] == "error":
        assert got == want, text
    else:
        assert same(got[1], want[1]), (text, got, want)


# -- generated documents ---------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=8), st.sampled_from(IMPLICIT), st.dates(),
    st.datetimes())
keys = st.one_of(st.text(max_size=6), st.sampled_from(IMPLICIT),
                 st.integers(-3, 3), st.booleans(), st.none())


def trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(keys, inner, max_size=4),
        max_leaves=12)


@st.composite
def documents(draw):
    """A value with shared collections, which the dumper writes as anchors
    and aliases; now and then a tuple or a set, which take tags that
    `SafeLoader` does not build or that the walk hands over."""
    shared = draw(st.lists(trees(scalars), min_size=1, max_size=2))
    return draw(trees(scalars | st.sampled_from(shared) | st.tuples(scalars)
                      | st.sets(st.integers(0, 3))))


@st.composite
def dumped(draw):
    style = dict(default_flow_style=draw(st.sampled_from([False, True, None])),
                 canonical=draw(st.booleans()),
                 explicit_start=draw(st.booleans()),
                 explicit_end=draw(st.booleans()),
                 sort_keys=draw(st.booleans()),
                 allow_unicode=draw(st.booleans()))
    docs = draw(st.lists(documents(), min_size=1, max_size=2))
    try:
        return yaml.dump_all(docs, **style)
    except TypeError:  # keys of several types, under sort_keys
        return yaml.dump_all(docs, **{**style, "sort_keys": False})


# Pieces of hand-written YAML, so plain scalars of every implicit tag,
# anchors, tags, merge keys and directives appear in every position.
FRAGMENTS = [*IMPLICIT, "a", "b", ": ", ":", "- ", "? ", ", ", "[", "]", "{",
             "}", "\n", "\n  ", "\n    ", "&x ", "&y ", "*x", "*y", "!!str ",
             "!!int ", "!!seq ", "!!map ", "!!binary ", "! ", "!local ",
             "'q'", '"d\\n"', "|\n  lit\n", ">\n  fold\n", "---\n", "...\n",
             "<<: *x", "%YAML 1.1\n", "%TAG !e! tag:example.com,2000:\n",
             "!e!t ", "# c\n", "\t", "\ufeff", "\x85"]

hand_written = st.lists(st.sampled_from(FRAGMENTS), max_size=20).map(
    "".join)


@st.composite
def mutated(draw):
    """A dumped or hand-written text, cut, or with a character dropped or a
    fragment put in."""
    text = draw(dumped() | hand_written)
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["cut", "drop", "insert"]))
    if how == "cut":
        return text[:at]
    if how == "drop":
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]


@with_each_loader
@settings(max_examples=150)
@given(text=dumped())
def test_dumped_documents_read_as_yaml_load_reads_them(loader, text):
    assert_reads_like_yaml_load(text, loader)


@with_each_loader
@settings(max_examples=300)
@given(text=hand_written)
def test_hand_written_texts_read_as_yaml_load_reads_them(loader, text):
    assert_reads_like_yaml_load(text, loader)


@with_each_loader
@settings(max_examples=150)
@given(text=mutated())
def test_mutated_texts_read_as_yaml_load_reads_them(loader, text):
    assert_reads_like_yaml_load(text, loader)


# -- pinned cases ------------------------------------------------------------

@with_each_loader
@pytest.mark.parametrize("scalar", IMPLICIT)
def test_each_implicit_tag_resolves_as_yaml_load_resolves_it(loader, scalar):
    for text in (f"[{scalar}]", f"{scalar}: {scalar}\n", f"- {scalar}\n"):
        assert_reads_like_yaml_load(text, loader)


@with_each_loader
def test_a_list_holding_itself_is_one_list(loader):
    value = read_yaml("&a [*a]", loader)
    assert isinstance(value, list) and len(value) == 1
    assert value[0] is value
    mapping = read_yaml("&a {b: *a, c: &s x, d: *s}", loader)
    assert mapping["b"] is mapping
    assert mapping["c"] is mapping["d"]


@with_each_loader
def test_an_anchored_collection_is_shared_by_its_aliases(loader):
    value = read_yaml("a: &x {k: [1]}\nb: *x\nc: &y [2]\nd: [*y, *y]\n",
                      loader)
    assert value["a"] is value["b"]
    assert value["d"][0] is value["d"][1] is value["c"]


def test_the_default_loader_is_libyaml_where_pyyaml_has_it():
    # libyaml's error text quotes no snippet of the input; PyYAML's does
    text = "a: [1\n"
    assert outcome(lambda t, _: read_yaml(t), text, None) == \
        outcome(lambda t, ldr: yaml.load(t, Loader=ldr), text, LOADERS[0])


def _golden_texts():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        yield path.name, serialize(data, "yaml").decode("utf-8")


@with_each_loader
def test_written_descriptions_are_read_without_yaml_load(loader, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("handed over to yaml.load")
    expected = {name: yaml.load(text, Loader=loader)
                for name, text in _golden_texts()}
    monkeypatch.setattr(yaml, "load", refuse)
    for name, text in _golden_texts():
        assert same(read_yaml(text, loader), expected[name]), name


HANDED_OVER = {
    "explicit-tag": "a: !custom [1]\n",
    "set": "a: !!set {x: null}\n",
    "merge-key": "a: &x {k: 1}\nb: {<<: *x, m: 2}\n",
    "value-key": "{=: 1}\n",
    "second-document": "--- 1\n--- 2\n",
    "duplicate-anchor": "[&a 1, &a 2]\n",
    "undefined-alias": "[*a]\n",
    "unhashable-key": "? [1]\n: 2\n",
    "parse-error": "a: [1\n",
    "constructor-error": "a: 2001-13-45\n",
}


@with_each_loader
@pytest.mark.parametrize("text", HANDED_OVER.values(), ids=HANDED_OVER)
def test_what_the_walk_does_not_build_goes_to_yaml_load(loader, text,
                                                        monkeypatch):
    calls = []
    load = yaml.load

    def spy(stream, Loader):
        calls.append(Loader)
        return load(stream, Loader=Loader)
    monkeypatch.setattr(yaml, "load", spy)
    outcome(read_yaml, text, loader)
    assert calls == [loader]
    monkeypatch.undo()
    assert_reads_like_yaml_load(text, loader)


LIMIT = sys.getrecursionlimit()


# Deep input is written as nested block sequences, `- - - x`: the scanners
# of libyaml and PyYAML take time quadratic in the depth of flow
# collections, `[[[x]]]`, and linear in this.

@with_each_loader
def test_deep_input_the_walk_builds_is_read_at_any_depth(loader, monkeypatch):
    depth = 20 * LIMIT
    monkeypatch.setattr(yaml, "load", None)
    value = read_yaml("- " * depth + "x", loader)
    for _ in range(depth):
        value, = value
    assert value == "x"


@with_each_loader
@pytest.mark.parametrize("text", [
    "a: !custom\n" + "- " * LIMIT + "x",
    "- !custom x\n- " + "- " * LIMIT + "x",
    "- " * (LIMIT + 1) + "!custom x",
    "- " * (LIMIT + 1) + "*undefined",
    "- " * (LIMIT + 1) + "x\n}",
], ids=["tag-first", "tag-before", "tag-inside", "undefined-alias-inside",
        "parse-error-inside"])
def test_handed_over_input_deeper_than_the_limit_is_refused(loader, text,
                                                            monkeypatch):
    monkeypatch.setattr(yaml, "load", None)
    with pytest.raises(ValueError, match="^nested too deeply$"):
        read_yaml(text, loader)


class _Loaded(Exception):
    pass


@with_each_loader
def test_handed_over_input_at_the_limit_goes_to_yaml_load(loader,
                                                          monkeypatch):
    def load(stream, Loader):
        raise _Loaded
    monkeypatch.setattr(yaml, "load", load)
    with pytest.raises(_Loaded):
        read_yaml("- " * (LIMIT - 1) + "[!custom x]", loader)
