"""Document assembly, merging, serialization, structural validation."""

import json
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, GOLDEN_FIXTURES
from oasforge.emitter import (MergeConflictError, _libyaml_agrees,
                              _no_alias_dumper, assemble_document,
                              doc_to_dict, merge_documents,
                              read_project_version, serialize)
from oasforge.oasvalidate import validate_document
from oasforge.pipeline import generate_project
from oasforge.schemas import SchemaRegistry


def docs_for(name):
    result = generate_project(FIXTURES_DIR / name)
    return result.documents


# -- serialization ----------------------------------------------------------

def test_json_serialization_is_byte_stable():
    doc = docs_for("request_body")["default"]
    assert serialize(doc) == serialize(doc)
    again = docs_for("request_body")["default"]
    assert serialize(doc) == serialize(again)


def test_json_round_trips():
    doc = docs_for("allof_inheritance")["default"]
    parsed = json.loads(serialize(doc))
    assert parsed == doc


def test_yaml_round_trips():
    doc = docs_for("allof_inheritance")["default"]
    parsed = yaml.safe_load(serialize(doc, format="yaml"))
    assert parsed == doc


@pytest.mark.parametrize("name", GOLDEN_FIXTURES)
def test_yaml_writes_shared_dicts_in_full(name):
    # the operations of one handler share their dicts (all_verbs: seven
    # operations of one handler); YAML must not write them as anchors
    for doc in docs_for(name).values():
        text = serialize(doc, format="yaml").decode("utf-8")
        # an anchor and each of its aliases are events with an `anchor`
        assert not any(getattr(event, "anchor", None)
                       for event in yaml.parse(text))
        assert yaml.safe_load(text) == json.loads(serialize(doc))


def _reference_yaml(data):
    return yaml.dump(data, Dumper=_no_alias_dumper(), sort_keys=False,
                     allow_unicode=True).encode("utf-8")


# Characters on which YAML dumpers choose styles and escapes: controls, NEL,
# line and paragraph separators, BOM, a non-BMP emoji, quotes, indicators.
_TRICKY = "\x00\x07\t\n\r\x1b\x7f\x85\xa0\u2028\u2029\ufeff\U0001F600" \
    "'\"\\:#-?&*!|>%@`{}[], ab"
_PRINTABLE_ASCII = st.characters(min_codepoint=0x20, max_codepoint=0x7e)
_texts = st.one_of(
    st.text(),  # full Unicode
    st.text(st.sampled_from(_TRICKY), max_size=30),
    st.text(_PRINTABLE_ASCII),
    # past the 80-column width and the ~128-character simple-key limit
    st.text(_PRINTABLE_ASCII, min_size=78, max_size=160),
    st.text(st.sampled_from(" ab'\"\\\x01\xe9\U0001F600"), min_size=78,
            max_size=160),
)
_documents = st.recursive(
    st.one_of(_texts, st.booleans()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_texts, inner, max_size=4)),
    max_leaves=24)

_SHARED = {"type": "string"}
# Where libyaml and PyYAML part ways: a double-quoted value past the line
# width folds at different places, a non-BMP character is escaped by one
# only, NEL gets different styles, and empty or long keys become `? ` keys
# at different lengths.
_LIBYAML_DIVERGES = [
    {"a": "\x01 " * 60},
    {"smile": "\U0001F600"},
    {"nel": "x\x85y"},
    {"": "empty key"},
    {"k" * 127: "long key"},
    {"\xe9" * 70: "long key as UTF-8"},
]


@settings(max_examples=300)
@given(_documents)
@example({"paths": {"/a": _SHARED, "/b": [_SHARED, {"s": _SHARED}]}})
@example(True)
@example("a lone scalar")
@example({})
@example([])
def test_serialize_writes_the_reference_bytes(data):
    assert serialize(data) == (json.dumps(data, indent=2, ensure_ascii=False)
                               + "\n").encode("utf-8")
    assert serialize(data, "yaml") == _reference_yaml(data)


@pytest.mark.parametrize("data", _LIBYAML_DIVERGES)
def test_serialize_falls_back_where_libyaml_diverges(data):
    assert not _libyaml_agrees(data)
    assert serialize(data, "yaml") == _reference_yaml(data)
    fast = getattr(yaml, "CSafeDumper", None)
    if fast is not None:  # the guard is needed: libyaml writes other bytes
        assert yaml.dump(data, Dumper=fast, sort_keys=False,
                         allow_unicode=True).encode("utf-8") \
            != _reference_yaml(data)


def test_libyaml_guard_refuses_a_number():
    assert not _libyaml_agrees({"a": 1})


def _perfbench_documents(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import corpus
    tiny = {"profile-fanout": 3, "model-graph": 200, "monorepo-sparse": 12}
    for workload, scale in tiny.items():
        tree = corpus.build(workload, 1, scale)
        tree.write(tmp_path / workload)
        yield workload, generate_project(tmp_path / workload).documents


def test_fixture_and_benchmark_documents_take_the_libyaml_path(
        monkeypatch, tmp_path):
    # a guard that rejected them would keep the bytes and lose the speed
    trees = [(p.name, generate_project(p).documents)
             for p in sorted(FIXTURES_DIR.iterdir()) if p.is_dir()]
    trees += list(_perfbench_documents(monkeypatch, tmp_path))
    for name, docs in trees:
        try:
            docs = {**docs, "merged": merge_documents(docs, name)}
        except (MergeConflictError, ValueError):
            pass
        for profile, doc in docs.items():
            assert _libyaml_agrees(doc), (name, profile)


def test_serialize_without_libyaml_writes_the_same_bytes(monkeypatch):
    docs = [doc for name in GOLDEN_FIXTURES for doc in docs_for(name).values()]
    docs += _LIBYAML_DIVERGES
    fast = [serialize(doc, "yaml") for doc in docs]
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    assert [serialize(doc, "yaml") for doc in docs] == fast
    assert [serialize(doc, "yaml") for doc in docs] == \
        [_reference_yaml(doc) for doc in docs]


def test_serialize_rejects_unknown_format():
    doc = docs_for("void_default")["default"]
    with pytest.raises(ValueError):
        serialize(doc, format="toml")


def test_paths_sorted_and_verbs_canonical():
    data = docs_for("all_verbs")["default"]
    assert list(data["paths"]) == sorted(data["paths"])
    assert list(data["paths"]["/tasks"]) == [
        "get", "post", "put", "delete", "patch", "head", "options"]


def test_doc_to_dict_orders_paths_verbs_and_schemas():
    data = doc_to_dict({"/b": {"delete": {}, "get": {}}, "/a": {}},
                       {"Zed": {}, "Abc": {}}, "shop", "1.0")
    assert data == {
        "openapi": "3.0.3", "info": {"title": "shop", "version": "1.0"},
        "paths": {"/a": {}, "/b": {"get": {}, "delete": {}}},
        "components": {"schemas": {"Abc": {}, "Zed": {}}}}
    assert list(data["paths"]) == ["/a", "/b"]
    assert list(data["paths"]["/b"]) == ["get", "delete"]
    assert list(data["components"]["schemas"]) == ["Abc", "Zed"]
    assert "components" not in doc_to_dict({}, {}, "shop", "1.0")


# -- structural validity ----------------------------------------------------

@pytest.mark.parametrize("name", GOLDEN_FIXTURES)
def test_every_generated_document_is_structurally_valid(name):
    for doc in docs_for(name).values():
        assert validate_document(doc) == []


def test_validator_flags_dangling_ref():
    doc = docs_for("request_body")["default"]
    doc["paths"]["/orders"]["post"]["requestBody"]["content"][
        "application/json"]["schema"]["$ref"] = "#/components/schemas/Ghost"
    errors = validate_document(doc)
    assert any("Ghost" in e for e in errors)


def test_validator_flags_missing_path_parameter():
    doc = docs_for("path_regex")["default"]
    path = next(iter(doc["paths"]))
    op = doc["paths"][path]["get"]
    op["parameters"] = [p for p in op["parameters"]
                        if p["name"] != "year"]
    assert validate_document(doc) != []


def _repeat_first_parameter(op):
    op["parameters"].append(dict(op["parameters"][0]))


def _add_stray_path_parameter(op):
    op["parameters"].append({"name": "ghost", "in": "path", "required": True,
                             "schema": {"type": "string"}})


def _add_status_999(op):
    op["responses"]["999"] = {"description": "Status 999"}


@pytest.mark.parametrize("edit, error", [
    (_repeat_first_parameter, "duplicate path parameter 'year'"),
    (_add_stray_path_parameter, "path parameter 'ghost' not in template"),
    (_add_status_999, "responses.999: invalid status key"),
], ids=["repeated-parameter", "stray-path-parameter", "status-999"])
def test_validator_flags_what_extraction_must_prevent(edit, error):
    doc = docs_for("path_regex")["default"]
    path = next(iter(doc["paths"]))
    edit(doc["paths"][path]["get"])
    assert any(error in e for e in validate_document(doc))


# -- merging ----------------------------------------------------------------

def test_merge_is_idempotent():
    doc = docs_for("constant_paths")["default"]
    merged = merge_documents({"default": doc, "eu": doc}, "constant_paths")
    assert merged == doc


def test_merge_of_disjoint_documents_sums_paths():
    docs = {"a": docs_for("constant_paths")["default"],
            "b": docs_for("request_body")["default"]}
    merged = merge_documents(docs, "shop")
    assert len(merged["paths"]) == \
        sum(len(d["paths"]) for d in docs.values())


def test_merge_conflict_raises_with_location():
    # both profiles define GET /status with different response schemas
    docs = docs_for("profile_split")
    assert set(docs) == {"external", "internal"}
    with pytest.raises(MergeConflictError) as err:
        merge_documents(docs, "profile_split")
    assert "GET /status differs between profiles 'external' and " \
        "'internal'" in str(err.value)


def test_merge_checks_schemas_of_documents_from_different_runs():
    # within one run a name means one schema; documents from two runs can
    # give one name two schemas
    docs = {profile: doc_to_dict({}, {"Item": {"type": kind}}, "shop", "1")
            for profile, kind in (("old", "object"), ("new", "string"))}
    with pytest.raises(MergeConflictError) as err:
        merge_documents(docs, "shop")
    assert err.value.conflicts == [
        "schema 'Item' differs between profiles 'old' and 'new'"]


def test_components_hold_only_the_schemas_operations_reach(tmp_path):
    # `Other` is named by a handler dropped as a duplicate and `Third` by a
    # dropped parameter; `Item` reaches `Part` through a field
    (tmp_path / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        '    @GetMapping("/x")\n    Item first() { return null; }\n'
        '    @GetMapping("/x")\n    Other second() { return null; }\n'
        '    @GetMapping("/y/{id}")\n'
        '    String third(@PathVariable("zz") Third t) { return ""; }\n'
        "}\n"
        "class Item { Part part; }\nclass Part { int n; }\n"
        "class Other { int n; }\nclass Third { int n; }\n")
    result = generate_project(tmp_path)
    assert list(result.documents["default"]["components"]["schemas"]) == \
        ["Item", "Part"]
    assert [d.code for d in result.diagnostics] == [
        "SKIPPED_PARAMETER", "UNBOUND_PATH_VARIABLE", "DUPLICATE_METHOD"]


@pytest.mark.parametrize("first_profile", ["default", "eu"])
def test_merged_title_is_the_project_name(first_profile):
    docs = {profile: assemble_document({}, SchemaRegistry(), "shop (v2)",
                                       profile, "1.2")
            for profile in (first_profile, "us")}
    assert docs["us"]["info"]["title"] == "shop (v2) (us)"
    assert merge_documents(docs, "shop (v2)")["info"] == {
        "title": "shop (v2)", "version": "1.2"}


def test_merge_empty_list_rejected():
    with pytest.raises(ValueError):
        merge_documents({}, "shop")


@given(st.permutations(list(range(2))))
def test_merge_of_disjoint_docs_is_order_insensitive_in_content(order):
    docs = [docs_for("constant_paths")["default"],
            docs_for("request_body")["default"]]
    merged = merge_documents({str(i): docs[i] for i in order}, "shop")
    assert serialize(merged) == \
        serialize(merge_documents({"0": docs[0], "1": docs[1]}, "shop"))


# -- project metadata -------------------------------------------------------

def test_version_from_pom(tmp_path):
    (tmp_path / "pom.xml").write_text(
        '<project xmlns="http://maven.apache.org/POM/4.0.0">'
        "<version>2.4.1</version></project>")
    assert read_project_version(tmp_path) == "2.4.1"


def test_version_from_gradle(tmp_path):
    (tmp_path / "build.gradle").write_text("version = '0.9.0'\n")
    assert read_project_version(tmp_path) == "0.9.0"


def test_version_defaults_when_the_pom_is_malformed(tmp_path):
    (tmp_path / "pom.xml").write_text("<project><version>2.4.1</project>")
    assert read_project_version(tmp_path) == "0.0.0"


def test_version_defaults_without_descriptor(tmp_path):
    assert read_project_version(tmp_path) == "0.0.0"
