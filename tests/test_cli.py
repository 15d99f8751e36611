"""End-to-end CLI behaviour via click's test runner."""

import json

import pytest
from click.testing import CliRunner

from conftest import FIXTURES_DIR, GT_DIR
from oasforge.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args))


def test_generate_writes_one_file_per_profile(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "request_body"),
                 "--output", str(tmp_path))
    assert result.exit_code == 0, result.output
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["request_body-default.openapi.json"]
    assert "profiles: default" in result.output
    assert "operations: 1" in result.output


def test_generate_two_profiles_two_files(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(tmp_path))
    assert result.exit_code == 0, result.output
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["profile_split-external.openapi.json",
                     "profile_split-internal.openapi.json"]


def test_generate_profiles_filter(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(tmp_path),
                 "--profiles", "external")
    assert result.exit_code == 0, result.output
    assert [p.name for p in tmp_path.iterdir()] == \
        ["profile_split-external.openapi.json"]


def test_generate_yaml_format(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "void_default"),
                 "--output", str(tmp_path), "--format", "yaml")
    assert result.exit_code == 0, result.output
    import yaml
    file = tmp_path / "void_default-default.openapi.yaml"
    data = yaml.safe_load(file.read_text())
    assert data["openapi"] == "3.0.3"


def test_generate_merge_conflict_is_fatal(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(tmp_path), "--merge")
    assert result.exit_code == 1
    assert "cannot merge" in result.stderr


def test_generate_merge_single_profile(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "constant_paths"),
                 "--output", str(tmp_path), "--merge")
    assert result.exit_code == 0, result.output
    merged = tmp_path / "constant_paths-merged.openapi.json"
    assert merged.is_file()
    data = json.loads(merged.read_text())
    assert set(data["paths"]) == {"/api/settings/version",
                                  "/api/settings/flags"}


def test_generate_diagnostics_reported_on_stderr(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "parse_error"),
                 "--output", str(tmp_path))
    assert result.exit_code == 0
    assert "PARSE_ERROR" in result.stderr
    assert "Broken.java" in result.stderr


def test_bad_unicode_escape_is_parse_error_not_crash(runner, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Bad.java").write_text(
        "package app;\nclass Bad {\n"
        "    static final String P = \"\\uZZZZ\";\n}\n")
    (src / "Good.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Good {\n"
        "    @GetMapping(\"/ok\")\n"
        "    String ok() { return \"x\"; }\n}\n")
    out = tmp_path / "out"
    result = run(runner, "generate", "--input", str(src), "--output", str(out))
    assert result.exit_code == 0, result.output
    assert "PARSE_ERROR" in result.stderr and "Bad.java:3" in result.stderr
    data = json.loads((out / "src-default.openapi.json").read_text())
    assert list(data["paths"]) == ["/ok"]


def test_inheritance_cycle_is_fatal_without_traceback(runner, tmp_path):
    (tmp_path / "A.java").write_text("package app;\nclass A extends B {}\n")
    (tmp_path / "B.java").write_text("package app;\nclass B extends A {}\n")
    result = run(runner, "generate", "--input", str(tmp_path),
                 "--output", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: inheritance cycle: app.A -> app.B -> app.A" in \
        result.stderr
    assert "Traceback" not in result.output


def test_fail_on_diagnostics_exits_2(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "parse_error"),
                 "--output", str(tmp_path), "--fail-on-diagnostics")
    assert result.exit_code == 2


def test_generate_missing_input_is_usage_error(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(tmp_path / "nowhere"),
                 "--output", str(tmp_path))
    assert result.exit_code != 0


def test_generate_source_tree_without_java_is_fatal(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = run(runner, "generate",
                 "--input", str(empty), "--output", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_evaluate_perfect_match(runner, tmp_path):
    out = tmp_path / "out"
    run(runner, "generate",
        "--input", str(FIXTURES_DIR / "request_body"), "--output", str(out))
    result = run(runner, "evaluate",
                 "--oas", str(out / "request_body-default.openapi.json"),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 0, result.output
    for line in result.output.splitlines()[1:4]:
        assert line.split()[-2:] == ["1.00", "1.00"]


def test_evaluate_accepts_directory_and_writes_json_report(runner, tmp_path):
    out = tmp_path / "out"
    run(runner, "generate",
        "--input", str(FIXTURES_DIR / "request_body"), "--output", str(out))
    report = tmp_path / "report.json"
    result = run(runner, "evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "request_body.json"),
                 "--report-json", str(report))
    assert result.exit_code == 0, result.output
    data = json.loads(report.read_text())
    assert data["methods"] == {"tp": 1, "fp": 0, "fn": 0,
                               "precision": 1.0, "recall": 1.0}
    assert data["parameters"]["tp"] == 2


def test_evaluate_bad_ground_truth_is_fatal(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    out = tmp_path / "out"
    run(runner, "generate",
        "--input", str(FIXTURES_DIR / "void_default"), "--output", str(out))
    result = run(runner, "evaluate",
                 "--oas", str(out / "void_default-default.openapi.json"),
                 "--gt", str(bad))
    assert result.exit_code == 1
    assert "error:" in result.stderr
