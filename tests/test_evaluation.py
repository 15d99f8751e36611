"""Ground-truth loading, flattening, and precision/recall scoring."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES_DIR
from oasforge.evaluation import (CATEGORIES, CategoryScore, GroundTruthError,
                                 evaluate, flatten_for_eval, format_report,
                                 load_ground_truth)
from oasforge.pipeline import generate_project


EMPTY = {category: frozenset() for category in CATEGORIES}


def flat_sets(**sets):
    """Key sets by category; a category not named is empty."""
    return {**EMPTY, **{category: frozenset(keys)
                        for category, keys in sets.items()}}


def write_gt(tmp_path, data):
    file = tmp_path / "gt.json"
    file.write_text(json.dumps(data))
    return file


# -- loading ----------------------------------------------------------------

def test_load_all_three_categories(tmp_path):
    gt = load_ground_truth(write_gt(tmp_path, {
        "methods": [{"path": "/a", "verb": "get"}],
        "parameters": [{"path": "/a", "verb": "GET", "name": "q"}],
        "responses": [{"path": "/a", "verb": "GET", "status": 200}],
    }))
    assert gt["methods"] == {("/a", "GET")}
    assert gt["parameters"] == {("/a", "GET", "q")}
    assert gt["responses"] == {("/a", "GET", "200")}


def test_load_normalizes_paths_and_verbs(tmp_path):
    gt = load_ground_truth(write_gt(tmp_path, {
        "methods": [{"path": "a//b/", "verb": "post"}]}))
    assert gt["methods"] == {("/a/b", "POST")}


def test_missing_categories_default_empty(tmp_path):
    gt = load_ground_truth(write_gt(tmp_path, {}))
    assert gt["methods"] == gt["parameters"] == gt["responses"] == frozenset()


def test_duplicate_entry_rejected_with_index(tmp_path):
    file = write_gt(tmp_path, {"methods": [
        {"path": "/a", "verb": "GET"}, {"path": "/a/", "verb": "get"}]})
    with pytest.raises(GroundTruthError, match="index 1"):
        load_ground_truth(file)


def test_missing_key_rejected(tmp_path):
    file = write_gt(tmp_path, {"parameters": [{"path": "/a", "verb": "GET"}]})
    with pytest.raises(GroundTruthError, match="'name'"):
        load_ground_truth(file)


@pytest.mark.parametrize("data, message", [
    ({"methods": [1]}, "methods[0]: entry must be an object"),
    ({"methods": [{"verb": "GET"}]}, "methods[0]: missing 'path'"),
    ([], "top level must be an object"),
    ({"responses": {}}, "responses must be an array"),
])
def test_malformed_truth_is_rejected_naming_its_file(tmp_path, data,
                                                     message):
    file = write_gt(tmp_path, data)
    with pytest.raises(GroundTruthError) as exc:
        load_ground_truth(file)
    assert str(exc.value) == f"{file}: {message}"


def test_malformed_json_reports_position(tmp_path):
    file = tmp_path / "bad.json"
    file.write_text("{\n  broken\n}")
    with pytest.raises(GroundTruthError, match="line 2"):
        load_ground_truth(file)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(GroundTruthError, match="not found"):
        load_ground_truth(tmp_path / "absent.json")


def test_truth_that_is_not_utf8_rejected(tmp_path):
    file = tmp_path / "truth.json"
    file.write_bytes(b'{"methods": "\xff"}')
    with pytest.raises(GroundTruthError, match="can't decode byte 0xff"):
        load_ground_truth(file)


# -- flattening -------------------------------------------------------------

def test_flatten_collects_methods_parameters_responses():
    doc = {
        "openapi": "3.0.3",
        "paths": {"/items/{id}": {"get": {
            "parameters": [{"name": "id", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "OK"},
                          "404": {"description": "Not Found"}},
        }}},
    }
    flat = flatten_for_eval(doc)
    assert flat["methods"] == {("/items/{id}", "GET")}
    assert flat["parameters"] == {("/items/{id}", "GET", "id")}
    assert flat["responses"] == {("/items/{id}", "GET", "200"),
                                 ("/items/{id}", "GET", "404")}


def test_flatten_expands_body_fields_through_inheritance():
    doc = {
        "openapi": "3.0.3",
        "paths": {"/x": {"post": {
            "requestBody": {"content": {"application/json": {
                "schema": {"$ref": "#/components/schemas/Child"}}}},
            "responses": {"200": {"description": "OK"}},
        }}},
        "components": {"schemas": {
            "Child": {"allOf": [
                {"$ref": "#/components/schemas/Parent"},
                {"type": "object", "properties": {"a": {"type": "string"},
                                                  "b": {"type": "integer"}}},
            ]},
            "Parent": {"type": "object",
                       "properties": {"c": {"type": "string"}}},
        }},
    }
    flat = flatten_for_eval(doc)
    assert {name for _, _, name in flat["parameters"]} == {"a", "b", "c"}


def test_flatten_reads_each_schema_of_an_all_of_cycle_once():
    def part(other, field):
        return {"allOf": [{"$ref": f"#/components/schemas/{other}"},
                          {"properties": {field: {"type": "string"}}}]}
    doc = {
        "paths": {"/x": {"post": {
            "requestBody": {"content": {"application/json": {
                "schema": {"$ref": "#/components/schemas/A"}}}},
            "responses": {"200": {"description": "OK"}},
        }}},
        "components": {"schemas": {"A": part("B", "a"), "B": part("A", "b")}},
    }
    assert flatten_for_eval(doc)["parameters"] == {("/x", "POST", "a"),
                                                   ("/x", "POST", "b")}


def test_flatten_dangling_ref_raises():
    doc = {
        "openapi": "3.0.3",
        "paths": {"/x": {"post": {
            "requestBody": {"content": {"application/json": {
                "schema": {"$ref": "#/components/schemas/Gone"}}}},
            "responses": {"200": {"description": "OK"}},
        }}},
    }
    with pytest.raises(KeyError):
        flatten_for_eval(doc)


def test_flatten_skips_path_item_keys_that_are_not_operations():
    doc = {"paths": {"/a": {"summary": "not an operation",
                            "get": {"responses": {"200": {}}}}}}
    assert flatten_for_eval(doc) == {
        "methods": {("/a", "GET")}, "parameters": set(),
        "responses": {("/a", "GET", "200")}}


def test_flatten_empty_document():
    assert flatten_for_eval({"openapi": "3.0.3", "paths": {}}) == EMPTY


# -- scoring ----------------------------------------------------------------

def test_scores_count_tp_fp_fn():
    flat = flat_sets(methods={("/a", "GET"), ("/b", "GET")})
    gt = flat_sets(methods={("/a", "GET"), ("/c", "GET")})
    score = evaluate(flat, gt)["methods"]
    assert (score.tp, score.fp, score.fn) == (1, 1, 1)
    assert score.precision == 0.5 and score.recall == 0.5


def test_empty_prediction_scores_zero_precision():
    score = CategoryScore(tp=0, fp=0, fn=3)
    assert score.precision == 0.0
    assert score.recall == 0.0


def test_perfect_prediction_scores_one():
    keys = frozenset({("/a", "GET", "200")})
    score = evaluate(flat_sets(responses=keys),
                     flat_sets(responses=keys))["responses"]
    assert score.precision == 1.0 and score.recall == 1.0


@given(st.sets(st.tuples(st.sampled_from(["/a", "/b", "/c"]),
                         st.sampled_from(["GET", "POST"]))),
       st.sets(st.tuples(st.sampled_from(["/a", "/b", "/c"]),
                         st.sampled_from(["GET", "POST"]))))
def test_swapping_prediction_and_truth_swaps_precision_recall(pred, truth):
    forward = evaluate(flat_sets(methods=pred), flat_sets(methods=truth))
    backward = evaluate(flat_sets(methods=truth), flat_sets(methods=pred))
    assert forward["methods"].precision == backward["methods"].recall
    assert forward["methods"].recall == backward["methods"].precision


def test_generated_document_matches_itself_exactly():
    result = generate_project(FIXTURES_DIR / "exception_precedence")
    for doc in result.documents.values():
        flat = flatten_for_eval(doc)
        report = evaluate(flat, flat)
        for score in report.values():
            assert score.fp == 0 and score.fn == 0


def test_report_formats_as_aligned_table():
    report = evaluate(EMPTY, EMPTY)
    text = format_report(report)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["category", "TP", "FP", "FN",
                                "precision", "recall"]
    assert report["methods"].as_dict()["precision"] == 0.0
