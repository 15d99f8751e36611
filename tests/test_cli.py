"""End-to-end CLI behaviour via click's test runner."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import FIXTURES_DIR, GT_DIR
from oasforge import cli
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


def test_same_named_classes_of_different_profiles_merge(runner, tmp_path):
    # one schema name per class for the whole project, so `a.Item` and
    # `b.Item` cannot both be `Item`
    head = ("import org.springframework.context.annotation.Profile;\n"
            "import org.springframework.web.bind.annotation.*;\n")
    for pkg, profile, field in (("a", "dev", "String name;"),
                                ("b", "prod", "long id;")):
        (tmp_path / f"{pkg.upper()}.java").write_text(
            f"package {pkg};\n{head}"
            f'@RestController\n@Profile("{profile}")\n'
            f"class {pkg.upper()}Api {{\n"
            f'    @GetMapping("/{profile}")\n'
            "    Item get() { return null; }\n}\n"
            f"class Item {{ {field} }}\n")
    out = tmp_path / "out"
    result = run(runner, "generate", "--input", str(tmp_path),
                 "--output", str(out), "--merge")
    assert result.exit_code == 0, result.output
    docs = {name: json.loads((out / f"{tmp_path.name}-{name}.openapi.json")
                             .read_text())
            for name in ("dev", "prod", "merged")}
    ref = "#/components/schemas/"
    for profile, name in (("dev", "Item"), ("prod", "Item_2")):
        op = docs[profile]["paths"][f"/{profile}"]["get"]
        assert op["responses"]["200"]["content"]["application/json"][
            "schema"] == {"$ref": ref + name}
        assert list(docs[profile]["components"]["schemas"]) == [name]
    assert docs["merged"]["components"]["schemas"] == {
        "Item": docs["dev"]["components"]["schemas"]["Item"],
        "Item_2": docs["prod"]["components"]["schemas"]["Item_2"]}
    assert set(docs["merged"]["paths"]) == {"/dev", "/prod"}


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


def test_surrogate_pair_escape_is_one_character(runner, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Lone.java").write_text(
        "package app;\nclass Lone {\n"
        "    static final String P = \"\\uD83D\";\n}\n")
    (src / "Smile.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Smile {\n"
        "    @GetMapping(\"/smile\\uD83D\\uDE00\")\n"
        "    String smile() { return \"x\"; }\n}\n")
    out = tmp_path / "out"
    result = run(runner, "generate", "--input", str(src), "--output", str(out))
    assert result.exit_code == 0, result.output
    assert "PARSE_ERROR" in result.stderr and "Lone.java:3" in result.stderr
    data = json.loads((out / "src-default.openapi.json").read_text())
    assert list(data["paths"]) == ["/smile\U0001F600"]


def test_duplicate_class_is_reported_and_later_file_wins(runner, tmp_path):
    src = tmp_path / "src"
    for module, path in (("a", "/one"), ("b", "/two")):
        (src / module).mkdir(parents=True)
        (src / module / "Api.java").write_text(
            "package app;\n"
            "import org.springframework.web.bind.annotation.*;\n"
            f"@RestController\nclass Api {{\n"
            f"    @GetMapping(\"{path}\")\n"
            "    String get() { return \"x\"; }\n}\n")
    out = tmp_path / "out"
    result = run(runner, "generate", "--input", str(src), "--output", str(out))
    assert result.exit_code == 0, result.output
    assert ("DUPLICATE_CLASS: app.Api is declared in a/Api.java and "
            "b/Api.java; using b/Api.java") in result.stderr
    data = json.loads((out / "src-default.openapi.json").read_text())
    assert list(data["paths"]) == ["/two"]


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


CONSTANT_CHAIN = "interface P {\n    String C0 = \"/a\";\n" + "".join(
    f"    String C{i} = C{i - 1} + \"/x\";\n" for i in range(1, 300)) + "}\n"


# Each parses, and the analysis or the YAML writer then recurses once per
# constant or array dimension.
@pytest.mark.parametrize("mapping, returned, flags", [
    ("P.C299", "String", []),
    ('"/a"', "String" + "[]" * 990, []),
    ('"/a"', "String" + "[]" * 500, ["--format", "yaml"]),
], ids=["constant-chain", "array-dimensions", "array-dimensions-yaml"])
def test_input_nested_too_deeply_is_fatal_without_traceback(
        runner, tmp_path, mapping, returned, flags):
    (tmp_path / "P.java").write_text("package app;\n" + CONSTANT_CHAIN)
    (tmp_path / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        f"@RestController\nclass Api {{\n    @GetMapping({mapping})\n"
        f"    {returned} get() {{ return null; }}\n}}\n")
    result = run(runner, "generate", "--input", str(tmp_path),
                 "--output", str(tmp_path / "out"), *flags)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == \
        "error: the input is nested too deeply to describe\n"
    assert "Traceback" not in result.output
    # the YAML writer fails while writing, after the directory was made
    assert not (tmp_path / "out").exists()


def test_class_extending_outside_class_of_same_name_is_not_a_cycle(
        runner, tmp_path):
    (tmp_path / "Date.java").write_text(
        "package app;\nclass Date extends java.util.Date {}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        "    @GetMapping(\"/now\")\n"
        "    Date now() { return null; }\n}\n")
    out = tmp_path / "out"
    result = run(runner, "generate", "--input", str(tmp_path),
                 "--output", str(out))
    assert result.exit_code == 0, result.output
    data = json.loads((out / f"{tmp_path.name}-default.openapi.json")
                      .read_text())
    assert list(data["paths"]) == ["/now"]


def test_fail_on_diagnostics_exits_2(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "parse_error"),
                 "--output", str(tmp_path), "--fail-on-diagnostics")
    assert result.exit_code == 2


def test_generate_missing_input_is_usage_error(runner, tmp_path):
    result = run(runner, "generate",
                 "--input", str(tmp_path / "nowhere"),
                 "--output", str(tmp_path))
    assert result.exit_code == 2


def test_generate_source_tree_without_java_is_fatal(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = run(runner, "generate",
                 "--input", str(empty), "--output", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_unreadable_java_path_is_a_parse_error(runner, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES_DIR / "request_body", tree)
    (tree / "Broken.java").symlink_to(tree / "nowhere.java")
    (tree / "Dir.java").mkdir()
    result = run(runner, "generate", "--input", str(tree),
                 "--output", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    parse_errors = [line for line in result.stderr.splitlines()
                    if line.startswith("PARSE_ERROR: ")]
    assert [line.rpartition(" ")[2] for line in parse_errors] == \
        ["(Broken.java:0)", "(Dir.java:0)"]
    assert str(tree) not in result.stderr
    assert "operations: 1" in result.stdout


def _fatal_run(case: str, runner, tmp_path) -> list[str]:
    """The arguments of `case`, a run that must end in one `error:` line,
    once what it reads is made under `tmp_path`."""
    regular = tmp_path / "regular"
    regular.write_text("")
    described = tmp_path / "described"
    run(runner, "generate", "--input", str(FIXTURES_DIR / "request_body"),
        "--output", str(described))
    truth = str(GT_DIR / "request_body.json")
    if case == "merge-conflict":
        return ["generate", "--input", str(FIXTURES_DIR / "profile_split"),
                "--output", str(tmp_path / "out"), "--merge"]
    if case == "output-under-file":
        return ["generate", "--input", str(FIXTURES_DIR / "request_body"),
                "--output", str(regular / "out")]
    if case == "report-under-file":
        return ["evaluate", "--oas", str(described), "--gt", truth,
                "--report-json", str(regular / "report.json")]
    if case == "truth-not-utf8":
        (tmp_path / "truth.json").write_bytes(b'{"methods": "\xff"}')
        return ["evaluate", "--oas", str(described),
                "--gt", str(tmp_path / "truth.json")]
    assert case == "directory-named-json"
    (described / "sub.json").mkdir()
    return ["evaluate", "--oas", str(described), "--gt", truth]


@pytest.mark.parametrize("case, message", [
    ("merge-conflict", "cannot merge documents:"),
    ("output-under-file", "Not a directory"),
    ("report-under-file", "Not a directory"),
    ("truth-not-utf8", "can't decode byte 0xff"),
    ("directory-named-json", "Is a directory"),
])
def test_fatal_error_is_one_error_line_and_writes_nothing(
        runner, tmp_path, case, message):
    args = _fatal_run(case, runner, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    result = run(runner, *args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert [line for line in result.stderr.splitlines()
            if line.startswith("error:")] == result.stderr.splitlines()[:1]
    assert message in result.stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_document_that_fails_validation_is_fatal_and_writes_nothing(
        runner, tmp_path, monkeypatch):
    validated = []

    def fail_second(doc):
        validated.append(doc)
        return ["first fault", "second fault"] if len(validated) == 2 else []

    monkeypatch.setattr(cli, "validate_document", fail_second)
    out = tmp_path / "out"
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(out))
    assert result.exit_code == 1
    assert result.stderr == ("error: generated document failed validation:\n"
                             "  first fault\n  second fault\n")
    assert len(validated) == 2
    assert not out.exists()


@pytest.mark.parametrize("nested", [False, True])
def test_failed_write_removes_what_the_run_wrote(runner, tmp_path,
                                                 monkeypatch, nested):
    serialized = []
    real_serialize = cli.serialize

    def fail_second(doc, fmt):
        serialized.append(fmt)
        if len(serialized) == 2:
            raise OSError("No space left on device")
        return real_serialize(doc, fmt)

    monkeypatch.setattr(cli, "serialize", fail_second)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    target = out / "a" / "b" if nested else out
    result = run(runner, "generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(target))
    assert result.exit_code == 1
    assert result.stderr == "error: No space left on device\n"
    assert len(serialized) == 2
    # the first document was written, and is removed with the directories
    # this run made; what was there before stays
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["notes.txt",
                                                           "out"]
    assert (out / "notes.txt").read_text() == "kept"


def test_evaluate_directory_without_descriptions_is_fatal(runner, tmp_path):
    (tmp_path / "notes.txt").write_text("")
    result = run(runner, "evaluate", "--oas", str(tmp_path),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 1
    assert result.stderr == f"error: no description files in {tmp_path}\n"


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


def test_evaluate_report_bytes_are_pinned(runner, tmp_path):
    out = tmp_path / "out"
    run(runner, "generate",
        "--input", str(FIXTURES_DIR / "request_body"), "--output", str(out))
    report = tmp_path / "report.json"
    result = run(runner, "evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "request_body.json"),
                 "--report-json", str(report))
    assert result.exit_code == 0, result.output
    assert result.stdout == (
        "category         TP     FP     FN  precision   recall\n"
        "methods           1      0      0       1.00     1.00\n"
        "parameters        2      0      0       1.00     1.00\n"
        "responses         1      0      0       1.00     1.00\n"
        f"wrote {report}\n")
    row = ('{{\n    "tp": {},\n    "fp": 0,\n    "fn": 0,\n'
           '    "precision": 1.0,\n    "recall": 1.0\n  }}')
    assert report.read_text(encoding="utf-8") == (
        f'{{\n  "methods": {row.format(1)},\n'
        f'  "parameters": {row.format(2)},\n'
        f'  "responses": {row.format(1)}\n}}\n')


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


def test_evaluate_yaml_output_scores_like_json_output(runner, tmp_path):
    reports = {}
    for fmt in ("json", "yaml"):
        out = tmp_path / fmt
        run(runner, "generate", "--input", str(FIXTURES_DIR / "request_body"),
            "--output", str(out), "--format", fmt)
        report = tmp_path / f"{fmt}-report.json"
        result = run(runner, "evaluate",
                     "--oas", str(out / f"request_body-default.openapi.{fmt}"),
                     "--gt", str(GT_DIR / "request_body.json"),
                     "--report-json", str(report))
        assert result.exit_code == 0, result.output
        reports[fmt] = json.loads(report.read_text())
    assert reports["yaml"] == reports["json"]


def test_evaluate_malformed_yaml_is_fatal_without_traceback(runner, tmp_path):
    bad = tmp_path / "bad.openapi.yaml"
    bad.write_text("paths: [unclosed\n")
    result = run(runner, "evaluate", "--oas", str(bad),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr
    assert "Traceback" not in result.output


def test_evaluate_deeply_nested_json_is_fatal_without_traceback(runner,
                                                                tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    description = tmp_path / "deep.openapi.json"
    description.write_text('{"paths": ' + deep + "}")
    truth = tmp_path / "truth.json"
    truth.write_text('{"methods": ' + deep + "}")
    for gt in (GT_DIR / "request_body.json", truth):
        result = run(runner, "evaluate", "--oas", str(description),
                     "--gt", str(gt))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr
        assert "Traceback" not in result.output


OPERATION = "paths:\n  /a:\n    get:\n"


@pytest.mark.parametrize("content, suffix, message", [
    ("hello\n", ".openapi.yaml", "top level is a str, not a mapping"),
    ("[1]\n", ".openapi.json", "top level is a list, not a mapping"),
    ("paths: [1]\n", ".openapi.yaml", "paths is a list, not a mapping"),
    ("paths:\n  /a: 1\n", ".openapi.yaml",
     "paths./a is a int, not a mapping"),
    ("paths:\n  /a:\n    get: x\n", ".openapi.yaml",
     "paths./a.get is a str, not a mapping"),
    ("components:\n  schemas: [1]\n", ".openapi.yaml",
     "components.schemas is a list, not a mapping"),
    (OPERATION + "      parameters: [1]\n", ".openapi.yaml",
     "paths./a.get.parameters[0] is a int, not a mapping"),
    (OPERATION + "      requestBody: [1]\n", ".openapi.yaml",
     "paths./a.get.requestBody is a list, not a mapping"),
    (OPERATION + "      requestBody:\n        content:\n"
     "          application/json:\n            schema: {$ref: 1}\n",
     ".openapi.yaml", "paths./a.get.requestBody.content.application/json"
     ".schema.$ref is a int, not a string"),
    (OPERATION + "      responses: [1]\n", ".openapi.yaml",
     "paths./a.get.responses is a list, not a mapping"),
], ids=["yaml-scalar", "json-list", "paths-list", "path-item-int",
        "operation-str", "schemas-list", "parameter-int", "request-body-list",
        "ref-int", "responses-list"])
def test_evaluate_description_that_is_not_a_mapping_is_fatal(
        runner, tmp_path, content, suffix, message):
    bad = tmp_path / f"bad{suffix}"
    bad.write_text(content)
    result = run(runner, "evaluate", "--oas", str(bad),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: {bad}: {message}" in result.stderr
    assert "Traceback" not in result.output


DEPTH = 1000


@pytest.mark.parametrize("chain", ["field", "inheritance"])
def test_thousand_class_chain_generates_and_evaluates(runner, tmp_path, chain):
    """C0 -> C1 -> ... -> C999, linked by a field or by `extends`; each
    class is one more level of schema references."""
    classes = []
    for i in range(DEPTH):
        last = i == DEPTH - 1
        if chain == "field":
            link = "" if last else f" private C{i + 1} next;"
            classes.append(f"class C{i} {{ private String f{i};{link} }}")
        else:
            link = "" if last else f" extends C{i + 1}"
            classes.append(f"class C{i}{link} {{ private String f{i}; }}")
    src = tmp_path / "src"
    src.mkdir()
    (src / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        '    @PostMapping("/c")\n'
        "    C0 post(@RequestBody C0 body) { return body; }\n}\n"
        + "\n".join(classes) + "\n")
    fields = ["f0", "next"] if chain == "field" \
        else [f"f{i}" for i in range(DEPTH)]
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({
        "methods": [{"path": "/c", "verb": "POST"}],
        "parameters": [{"path": "/c", "verb": "POST", "name": f}
                       for f in fields],
        "responses": [{"path": "/c", "verb": "POST", "status": "200"}]}))
    out = tmp_path / "out"
    result = run(runner, "generate", "--input", str(src),
                 "--output", str(out))
    assert result.exit_code == 0, result.output
    assert f"schemas: {DEPTH}" in result.output
    result = run(runner, "evaluate", "--oas", str(out), "--gt", str(gt))
    assert result.exit_code == 0, result.output
    for line in result.output.splitlines()[1:4]:
        assert line.split()[-2:] == ["1.00", "1.00"]


@pytest.mark.parametrize("handler, diagnostic, operation", [
    ('@GetMapping("/orders/{id}")\n'
     '    String get(@PathVariable("orderId") Long id) { return ""; }',
     "SKIPPED_PARAMETER: path parameter 'orderId' of get is not a variable "
     "of path '/orders/{id}'",
     {"path": "/orders/{id}", "parameters": [
         {"name": "id", "in": "path", "required": True,
          "schema": {"type": "string"}}], "responses": ["200"]}),
    ('@GetMapping("/orders")\n'
     '    ResponseEntity<String> get() '
     '{ return ResponseEntity.status(999).build(); }',
     "UNRESOLVED_STATUS: status '999' in get maps to no HTTP status code",
     {"path": "/orders", "parameters": [], "responses": ["200"]}),
    ('@GetMapping("/orders")\n'
     '    String get(@RequestParam String q, @RequestParam("q") String q2) '
     '{ return ""; }',
     "SKIPPED_PARAMETER: query parameter 'q' of get repeats an earlier "
     "parameter",
     {"path": "/orders", "parameters": [
         {"name": "q", "in": "query", "required": True,
          "schema": {"type": "string"}}], "responses": ["200"]}),
], ids=["path-variable-not-in-template", "status-999", "repeated-query"])
def test_invalid_binding_is_diagnosed_and_document_is_valid(
        runner, tmp_path, handler, diagnostic, operation):
    oracle = pytest.importorskip("openapi_spec_validator")
    (tmp_path / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.http.ResponseEntity;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        f"@RestController\nclass Api {{\n    {handler}\n}}\n")
    out = tmp_path / "out"
    result = run(runner, "generate", "--input", str(tmp_path),
                 "--output", str(out))
    assert result.exit_code == 0, result.output
    assert diagnostic in result.stderr
    data = json.loads((out / f"{tmp_path.name}-default.openapi.json")
                      .read_text())
    op = data["paths"][operation["path"]]["get"]
    assert op.get("parameters", []) == operation["parameters"]
    assert list(op["responses"]) == operation["responses"]
    assert [e.message for e in
            oracle.OpenAPIV30SpecValidator(data).iter_errors()] == []


def test_profile_independent_diagnostic_is_printed_once(runner, tmp_path):
    head = ("package app;\n"
            "import javax.servlet.http.HttpServletRequest;\n"
            "import org.springframework.context.annotation.Profile;\n"
            "import org.springframework.web.bind.annotation.*;\n")
    (tmp_path / "Shared.java").write_text(
        head + "@RestController\nclass Shared {\n"
        '    @GetMapping({"/s", "/t"})\n'
        '    String get(HttpServletRequest request) { return ""; }\n}\n')
    for profile in ("dev", "prod"):
        (tmp_path / f"{profile.title()}.java").write_text(
            head + f'@RestController\n@Profile("{profile}")\n'
            f"class {profile.title()} {{\n"
            f'    @GetMapping("/{profile}")\n'
            '    String get() { return ""; }\n}\n')
    result = run(runner, "generate", "--input", str(tmp_path),
                 "--output", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    assert "profiles: default, dev, prod" in result.output
    assert result.stderr.splitlines() == [
        "SERVLET_PARAMETER: servlet parameter 'request' of get skipped; "
        "encapsulated parameters are not statically visible "
        "(Shared.java:8)"]
    assert "diagnostics: 1" in result.output


_JSON_RUNS = """
import sys
from oasforge import cli
from oasforge.cli import main
fixture, truth, out = sys.argv[1:]
for args in (["generate", "--input", fixture, "--output", out],
             ["evaluate", "--oas", out, "--gt", truth]):
    try:
        main.main(args, standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert "yaml" not in sys.modules
"""


def test_json_runs_do_not_import_yaml(tmp_path):
    # PyYAML is imported only where YAML is read or written, so a JSON
    # `generate` and `evaluate` do not pay its import; a fresh interpreter
    # shows what they load
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _JSON_RUNS, str(FIXTURES_DIR / "request_body"),
         str(GT_DIR / "request_body.json"), str(out)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "request_body-default.openapi.json").is_file()


def test_closed_stdout_ends_quietly(tmp_path):
    # click ends a run whose stdout was closed with exit 1 and nothing on
    # stderr; the handler of fatal errors leaves that to it
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "oasforge.cli", "generate", "--input",
         str(FIXTURES_DIR / "request_body"), "--output", str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the interpreter has started
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")
