"""End-to-end CLI behaviour, run in-process through `conftest.run_cli`."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, GOLDEN_DIR, GT_DIR, run_cli as run
from oasforge import cli, emitter, oasvalidate


def test_generate_writes_one_file_per_profile(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "request_body"),
                 "--output", str(tmp_path))
    assert result.exit_code == 0, result.output
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["request_body-default.openapi.json"]
    assert "profiles: default" in result.output
    assert "operations: 1" in result.output


def test_generate_two_profiles_two_files(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(tmp_path))
    assert result.exit_code == 0, result.output
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["profile_split-external.openapi.json",
                     "profile_split-internal.openapi.json"]


def test_generate_profiles_filter(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(tmp_path),
                 "--profiles", "external")
    assert result.exit_code == 0, result.output
    assert [p.name for p in tmp_path.iterdir()] == \
        ["profile_split-external.openapi.json"]


def test_generate_yaml_format(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "void_default"),
                 "--output", str(tmp_path), "--format", "yaml")
    assert result.exit_code == 0, result.output
    import yaml
    file = tmp_path / "void_default-default.openapi.yaml"
    data = yaml.safe_load(file.read_text())
    assert data["openapi"] == "3.0.3"


def test_generate_merge_conflict_is_fatal(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(tmp_path), "--merge")
    assert result.exit_code == 1
    assert "cannot merge" in result.stderr


def test_generate_merge_single_profile(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "constant_paths"),
                 "--output", str(tmp_path), "--merge")
    assert result.exit_code == 0, result.output
    merged = tmp_path / "constant_paths-merged.openapi.json"
    assert merged.is_file()
    data = json.loads(merged.read_text())
    assert set(data["paths"]) == {"/api/settings/version",
                                  "/api/settings/flags"}


def test_same_named_classes_of_different_profiles_merge(tmp_path):
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
    result = run("generate", "--input", str(tmp_path),
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


def test_inherited_member_type_is_the_schema_of_a_handler(tmp_path):
    # `Item` names a member type `Api` inherits from `Base` (JLS 8.5), not
    # the other package's `Item`
    (tmp_path / "Base.java").write_text(
        "package app;\nclass Base {\n"
        "    public static class Item { public String name; }\n}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api extends Base {\n"
        '    @GetMapping("/item")\n    Item get() { return null; }\n}\n')
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "Item.java").write_text(
        "package app.other;\npublic class Item { public int code; }\n")
    out = tmp_path / "out"
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(out), "--fail-on-diagnostics")
    assert result.exit_code == 0, result.output
    assert "diagnostics: 0" in result.output
    doc = json.loads((out / f"{tmp_path.name}-default.openapi.json")
                     .read_text())
    assert doc["components"]["schemas"] == {
        "Item": {"type": "object",
                 "properties": {"name": {"type": "string"}}}}


def test_record_with_a_compact_constructor_is_a_schema(tmp_path):
    (tmp_path / "R.java").write_text(
        "package app;\npublic record R(int a, String b) {\n"
        "    public R { if (a < 0) throw new IllegalArgumentException(); }\n"
        "}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        '    @GetMapping("/r")\n    R get() { return null; }\n}\n')
    out = tmp_path / "out"
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(out), "--fail-on-diagnostics")
    assert result.exit_code == 0, result.output
    assert "diagnostics: 0" in result.output
    doc = json.loads((out / f"{tmp_path.name}-default.openapi.json")
                     .read_text())
    assert list(doc["components"]["schemas"]["R"]["properties"]) == \
        ["a", "b"]


def test_type_use_annotations_are_read_and_dropped(tmp_path):
    (tmp_path / "Item.java").write_text(
        "package app;\npublic class Item {\n"
        "    public List<@NotNull String> tags;\n"
        "    public String @NotNull [] names;\n}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\nimport java.util.*;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        '    @PostMapping("/items")\n'
        "    List<@NotNull String> post(\n"
        "            @RequestBody Map<@NotBlank String, @Valid Item> items,\n"
        "            @RequestParam List<@NotNull String> q) {\n"
        "        return null;\n    }\n}\n")
    out = tmp_path / "out"
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(out), "--fail-on-diagnostics")
    assert result.exit_code == 0, result.output
    assert "diagnostics: 0" in result.output
    doc = json.loads((out / f"{tmp_path.name}-default.openapi.json")
                     .read_text())
    strings = {"type": "array", "items": {"type": "string"}}
    assert doc["components"]["schemas"]["Item"]["properties"] == {
        "tags": strings, "names": strings}
    post = doc["paths"]["/items"]["post"]
    assert post["parameters"][0]["schema"] == strings
    assert post["requestBody"]["content"]["application/json"]["schema"] == {
        "type": "object",
        "additionalProperties": {"$ref": "#/components/schemas/Item"}}
    assert post["responses"]["200"]["content"]["application/json"][
        "schema"] == strings


def test_text_blocks_are_read_as_strings(tmp_path):
    (tmp_path / "P.java").write_text(
        'package app;\ninterface P {\n'
        '    String Y = """\n        /tb2""";\n}\n')
    (tmp_path / "Api.java").write_text(
        "package app;\nimport org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        '    @Operation(description = """\n'
        "      Lists the users.\n"
        '      """)\n'
        "    @GetMapping(P.Y)\n"
        '    String get() { return ""; }\n}\n')
    out = tmp_path / "out"
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(out), "--fail-on-diagnostics")
    assert result.exit_code == 0, result.output
    assert "diagnostics: 0" in result.output
    doc = json.loads((out / f"{tmp_path.name}-default.openapi.json")
                     .read_text())
    assert list(doc["paths"]) == ["/tb2"]


def test_generate_diagnostics_reported_on_stderr(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "parse_error"),
                 "--output", str(tmp_path))
    assert result.exit_code == 0
    assert "PARSE_ERROR" in result.stderr
    assert "Broken.java" in result.stderr


def test_bad_unicode_escape_is_parse_error_not_crash(tmp_path):
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
    result = run("generate", "--input", str(src), "--output", str(out))
    assert result.exit_code == 0, result.output
    assert "PARSE_ERROR" in result.stderr and "Bad.java:3" in result.stderr
    data = json.loads((out / "src-default.openapi.json").read_text())
    assert list(data["paths"]) == ["/ok"]


def test_surrogate_pair_escape_is_one_character(tmp_path):
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
    result = run("generate", "--input", str(src), "--output", str(out))
    assert result.exit_code == 0, result.output
    assert "PARSE_ERROR" in result.stderr and "Lone.java:3" in result.stderr
    data = json.loads((out / "src-default.openapi.json").read_text())
    assert list(data["paths"]) == ["/smile\U0001F600"]


def test_duplicate_class_is_reported_and_later_file_wins(tmp_path):
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
    result = run("generate", "--input", str(src), "--output", str(out))
    assert result.exit_code == 0, result.output
    assert ("DUPLICATE_CLASS: app.Api is declared in a/Api.java and "
            "b/Api.java; using b/Api.java") in result.stderr
    data = json.loads((out / "src-default.openapi.json").read_text())
    assert list(data["paths"]) == ["/two"]


def test_inheritance_cycle_is_fatal_without_traceback(tmp_path):
    (tmp_path / "A.java").write_text("package app;\nclass A extends B {}\n")
    (tmp_path / "B.java").write_text("package app;\nclass B extends A {}\n")
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: inheritance cycle: app.A -> app.B -> app.A" in \
        result.stderr
    assert "Traceback" not in result.output


def test_interface_inheritance_cycle_is_fatal_without_traceback(tmp_path):
    (tmp_path / "A.java").write_text(
        "package app;\ninterface A extends B {}\n")
    (tmp_path / "B.java").write_text(
        "package app;\ninterface B extends A {}\n")
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == \
        "error: inheritance cycle: app.A -> app.B -> app.A\n"
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def _paths(tmp_path, sources: dict[str, str]) -> list[str]:
    """The paths `generate` documents for a tree of `sources`, which must
    give no diagnostic."""
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    for name, text in sources.items():
        (src / name).write_text(text)
    result = run("generate", "--input", str(src), "--output", str(out))
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    return list(json.loads((out / "src-default.openapi.json").read_text())
                ["paths"])


WEB = "import org.springframework.web.bind.annotation.*;\n"


def test_constant_inherited_from_an_interface_gives_the_path(tmp_path):
    # javac and Spring read BASE as Paths.BASE, not as the O.BASE that the
    # static import on demand names
    assert _paths(tmp_path, {
        "O.java": "package app.o;\n"
                  "public class O { public static final String BASE = "
                  "\"/other\"; }\n",
        "Paths.java": "package app;\ninterface Paths { String BASE = "
                      "\"/k\"; }\n",
        "C.java": "package app;\nimport static app.o.O.*;\n" + WEB
                  + "@RestController\nclass C implements Paths {\n"
                  "    @GetMapping(BASE + \"/x\")\n"
                  "    String x() { return \"\"; }\n}\n"}) == ["/k/x"]


def test_abstract_controller_is_not_documented(tmp_path):
    # component scanning registers concrete classes only; the subclass is
    # a controller through the marker it inherits
    assert _paths(tmp_path, {
        "Base.java": "package app;\n" + WEB
                     + "@RestController\n@RequestMapping(\"/base\")\n"
                     "abstract class Base {\n    @GetMapping(\"/x\")\n"
                     "    String x() { return \"\"; }\n}\n",
        "Sub.java": "package app;\n" + WEB
                    + "@RequestMapping(\"/sub\")\n"
                    "class Sub extends Base {}\n"}) == ["/sub/x"]


def test_interface_inheritance_fixture_scores_perfectly(tmp_path):
    # its truth is written by hand from the Java source
    out = tmp_path / "out"
    run("generate", "--input", str(FIXTURES_DIR / "interface_inheritance"),
        "--output", str(out))
    result = run("evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "interface_inheritance.json"))
    assert result.exit_code == 0, result.output
    assert [line.split()[-2:] for line in result.stdout.splitlines()[1:]] \
        == [["1.00", "1.00"], ["0.00", "0.00"], ["1.00", "1.00"]]


def test_interface_mappings_fixture_scores_perfectly(tmp_path):
    # its truth is written by hand from the Java source and Spring's rules:
    # the controller serves its interface's mappings, bindings, status and
    # exception handler, and the Feign client interface serves nothing
    out = tmp_path / "out"
    run("generate", "--input", str(FIXTURES_DIR / "interface_mappings"),
        "--output", str(out))
    result = run("evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "interface_mappings.json"))
    assert result.exit_code == 0, result.output
    assert [line.split()[-2:] for line in result.stdout.splitlines()[1:]] \
        == [["1.00", "1.00"]] * 3


def test_java17_fixture_scores_perfectly(tmp_path):
    # its truth is written by hand from the Java source
    out = tmp_path / "out"
    run("generate", "--input", str(FIXTURES_DIR / "java17"),
        "--output", str(out))
    result = run("evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "java17.json"))
    assert result.exit_code == 0, result.output
    assert [line.split()[-2:] for line in result.stdout.splitlines()[1:]] \
        == [["1.00", "1.00"]] * 3


def test_profile_advice_fixture_scores_perfectly(tmp_path):
    # its truth is written by hand from the Java source: the union of the
    # "default", "dev" and "prod" documents, whose advices map one
    # exception to 409 in two of them and to 423 in "dev"
    out = tmp_path / "out"
    run("generate", "--input", str(FIXTURES_DIR / "profile_advice"),
        "--output", str(out))
    assert sorted(p.name for p in out.iterdir()) == [
        f"profile_advice-{profile}.openapi.json"
        for profile in ("default", "dev", "prod")]
    result = run("evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "profile_advice.json"))
    assert result.exit_code == 0, result.output
    assert [line.split()[-2:] for line in result.stdout.splitlines()[1:]] \
        == [["1.00", "1.00"]] * 3


def test_import_headers_fixture_scores_perfectly(tmp_path):
    # its truth is written by hand from the Java source: each mapping and
    # type resolves only through imports that the header regex or the
    # tokens read, and not through the commented-out one
    out = tmp_path / "out"
    run("generate", "--input", str(FIXTURES_DIR / "import_headers"),
        "--output", str(out))
    result = run("evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "import_headers.json"))
    assert result.exit_code == 0, result.output
    assert [line.split()[-2:] for line in result.stdout.splitlines()[1:]] \
        == [["1.00", "1.00"]] * 3


CONSTANT_CHAIN = "interface P {\n    String C0 = \"/a\";\n" + "".join(
    f"    String C{i} = C{i - 1} + \"/x\";\n" for i in range(1, 300)) + "}\n"


# Each parses, and the analysis then recurses once per constant or array
# dimension; YAML fails where JSON does.
@pytest.mark.parametrize("mapping, returned, flags", [
    ("P.C299", "String", []),
    ('"/a"', "String" + "[]" * 990, []),
    ('"/a"', "String" + "[]" * 990, ["--format", "yaml"]),
], ids=["constant-chain", "array-dimensions", "array-dimensions-yaml"])
def test_input_nested_too_deeply_is_fatal_without_traceback(
        tmp_path, mapping, returned, flags):
    (tmp_path / "P.java").write_text("package app;\n" + CONSTANT_CHAIN)
    (tmp_path / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        f"@RestController\nclass Api {{\n    @GetMapping({mapping})\n"
        f"    {returned} get() {{ return null; }}\n}}\n")
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(tmp_path / "out"), *flags)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == \
        "error: the input is nested too deeply to describe\n"
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_class_extending_outside_class_of_same_name_is_not_a_cycle(tmp_path):
    (tmp_path / "Date.java").write_text(
        "package app;\nclass Date extends java.util.Date {}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        "@RestController\nclass Api {\n"
        "    @GetMapping(\"/now\")\n"
        "    Date now() { return null; }\n}\n")
    out = tmp_path / "out"
    result = run("generate", "--input", str(tmp_path),
                 "--output", str(out))
    assert result.exit_code == 0, result.output
    data = json.loads((out / f"{tmp_path.name}-default.openapi.json")
                      .read_text())
    assert list(data["paths"]) == ["/now"]


def test_fail_on_diagnostics_exits_2(tmp_path):
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "parse_error"),
                 "--output", str(tmp_path), "--fail-on-diagnostics")
    assert result.exit_code == 2


def test_generate_missing_input_is_usage_error(tmp_path):
    result = run("generate",
                 "--input", str(tmp_path / "nowhere"),
                 "--output", str(tmp_path))
    assert result.exit_code == 2


# Each usage error: the arguments, with {absent}, {file} and {dir} standing
# for paths made under tmp_path, and what stderr must name.
USAGE_ERRORS = {
    "no-command": ([], ["COMMAND"]),
    "unknown-command": (["frob"], ["frob"]),
    "unknown-option": (["generate", "--input", "{dir}", "--output", "{out}",
                        "--bogus"], ["--bogus"]),
    "input-missing": (["generate", "--output", "{out}"], ["--input"]),
    "input-absent": (["generate", "--input", "{absent}", "--output", "{out}"],
                     ["--input", "{absent}", "does not exist"]),
    "input-file": (["generate", "--input", "{file}", "--output", "{out}"],
                   ["--input", "{file}", "is a file"]),
    "output-file": (["generate", "--input", "{dir}", "--output", "{file}"],
                    ["--output", "{file}", "is a file"]),
    "format-xml": (["generate", "--input", "{dir}", "--output", "{out}",
                    "--format", "xml"], ["--format", "xml"]),
    "oas-absent": (["evaluate", "--oas", "{absent}", "--gt", "{gt}"],
                   ["--oas", "{absent}", "does not exist"]),
    "gt-absent": (["evaluate", "--oas", "{golden}", "--gt", "{absent}"],
                  ["--gt", "{absent}", "does not exist"]),
    "gt-directory": (["evaluate", "--oas", "{golden}", "--gt", "{dir}"],
                     ["--gt", "{dir}", "is a directory"]),
    "report-json-directory": (["evaluate", "--oas", "{golden}", "--gt",
                               "{gt}", "--report-json", "{dir}"],
                              ["--report-json", "{dir}", "is a directory"]),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_exits_2_and_names_the_option(tmp_path, case):
    paths = {"absent": tmp_path / "absent", "file": tmp_path / "file",
             "dir": FIXTURES_DIR / "request_body", "out": tmp_path / "out",
             "gt": GT_DIR / "request_body.json",
             "golden": GOLDEN_DIR / "request_body-default.openapi.json"}
    paths["file"].write_text("")
    args, named = USAGE_ERRORS[case]
    result = run(*(arg.format(**paths) for arg in args))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    for text in named:
        assert text.format(**paths) in result.stderr
    assert "Traceback" not in result.output
    assert not paths["out"].exists()


@pytest.mark.parametrize("args, code", [
    (["--input", str(FIXTURES_DIR / "request_body")], None),
    (["--input", str(FIXTURES_DIR / "parse_error"), "--fail-on-diagnostics"],
     2),
    (["--input", str(FIXTURES_DIR / "profile_split"), "--merge"], 1),
], ids=["success", "diagnostics", "fatal"])
def test_perfbench_call_returns_on_success_and_raises_exit_code(
        tmp_path, args, code):
    # `perfbench/layers.run_cli` and `scripts/output_digest.py` make this
    # call: it returns on exit code 0 and raises SystemExit otherwise
    call = ["generate", *args, "--output", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if code is None:
            cli.main.main(call, prog_name="oasforge", standalone_mode=False)
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main.main(call, prog_name="oasforge",
                              standalone_mode=False)
            assert exc.value.code == code


def test_generate_source_tree_without_java_is_fatal(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = run("generate",
                 "--input", str(empty), "--output", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_unreadable_java_path_is_a_parse_error(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES_DIR / "request_body", tree)
    (tree / "Broken.java").symlink_to(tree / "nowhere.java")
    (tree / "Dir.java").mkdir()
    result = run("generate", "--input", str(tree),
                 "--output", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    parse_errors = [line for line in result.stderr.splitlines()
                    if line.startswith("PARSE_ERROR: ")]
    assert [line.rpartition(" ")[2] for line in parse_errors] == \
        ["(Broken.java:0)", "(Dir.java:0)"]
    assert str(tree) not in result.stderr
    assert "operations: 1" in result.stdout


def _fatal_run(case: str, tmp_path) -> list[str]:
    """The arguments of `case`, a run that must end in one `error:` line,
    once what it reads is made under `tmp_path`."""
    regular = tmp_path / "regular"
    regular.write_text("")
    described = tmp_path / "described"
    run("generate", "--input", str(FIXTURES_DIR / "request_body"),
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
        tmp_path, case, message):
    args = _fatal_run(case, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    result = run(*args)
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
        tmp_path, monkeypatch):
    validated = []

    def fail_second(doc, memo):
        validated.append(doc)
        return ["first fault", "second fault"] if len(validated) == 2 else []

    monkeypatch.setattr(oasvalidate, "validate_document", fail_second)
    out = tmp_path / "out"
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(out))
    assert result.exit_code == 1
    assert result.stderr == ("error: generated document failed validation:\n"
                             "  first fault\n  second fault\n")
    assert len(validated) == 2
    assert not out.exists()


@pytest.mark.parametrize("nested", [False, True])
def test_failed_write_removes_what_the_run_wrote(tmp_path,
                                                 monkeypatch, nested):
    serialized = []
    memos = set()
    real_serialize = emitter.serialize

    def fail_second(doc, fmt, memo):
        serialized.append(fmt)
        memos.add(id(memo))
        if len(serialized) == 2:
            raise OSError("No space left on device")
        return real_serialize(doc, fmt, memo)

    monkeypatch.setattr(emitter, "serialize", fail_second)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    target = out / "a" / "b" if nested else out
    result = run("generate",
                 "--input", str(FIXTURES_DIR / "profile_split"),
                 "--output", str(target))
    assert result.exit_code == 1
    assert result.stderr == "error: No space left on device\n"
    assert len(serialized) == 2
    assert len(memos) == 1  # both documents are written through one memo
    # the first document was written, and is removed with the directories
    # this run made; what was there before stays
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["notes.txt",
                                                           "out"]
    assert (out / "notes.txt").read_text() == "kept"


def test_evaluate_directory_without_descriptions_is_fatal(tmp_path):
    (tmp_path / "notes.txt").write_text("")
    result = run("evaluate", "--oas", str(tmp_path),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 1
    assert result.stderr == f"error: no description files in {tmp_path}\n"


def test_evaluate_perfect_match(tmp_path):
    out = tmp_path / "out"
    run("generate",
        "--input", str(FIXTURES_DIR / "request_body"), "--output", str(out))
    result = run("evaluate",
                 "--oas", str(out / "request_body-default.openapi.json"),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 0, result.output
    for line in result.output.splitlines()[1:4]:
        assert line.split()[-2:] == ["1.00", "1.00"]


def test_evaluate_accepts_directory_and_writes_json_report(tmp_path):
    out = tmp_path / "out"
    run("generate",
        "--input", str(FIXTURES_DIR / "request_body"), "--output", str(out))
    report = tmp_path / "report.json"
    result = run("evaluate", "--oas", str(out),
                 "--gt", str(GT_DIR / "request_body.json"),
                 "--report-json", str(report))
    assert result.exit_code == 0, result.output
    data = json.loads(report.read_text())
    assert data["methods"] == {"tp": 1, "fp": 0, "fn": 0,
                               "precision": 1.0, "recall": 1.0}
    assert data["parameters"]["tp"] == 2


def test_evaluate_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "out"
    run("generate",
        "--input", str(FIXTURES_DIR / "request_body"), "--output", str(out))
    report = tmp_path / "report.json"
    result = run("evaluate", "--oas", str(out),
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


def test_evaluate_bad_ground_truth_is_fatal(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    out = tmp_path / "out"
    run("generate",
        "--input", str(FIXTURES_DIR / "void_default"), "--output", str(out))
    result = run("evaluate",
                 "--oas", str(out / "void_default-default.openapi.json"),
                 "--gt", str(bad))
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_evaluate_yaml_output_scores_like_json_output(tmp_path):
    reports = {}
    for fmt in ("json", "yaml"):
        out = tmp_path / fmt
        run("generate", "--input", str(FIXTURES_DIR / "request_body"),
            "--output", str(out), "--format", fmt)
        report = tmp_path / f"{fmt}-report.json"
        result = run("evaluate",
                     "--oas", str(out / f"request_body-default.openapi.{fmt}"),
                     "--gt", str(GT_DIR / "request_body.json"),
                     "--report-json", str(report))
        assert result.exit_code == 0, result.output
        reports[fmt] = json.loads(report.read_text())
    assert reports["yaml"] == reports["json"]


def test_evaluate_malformed_yaml_is_fatal_without_traceback(tmp_path):
    bad = tmp_path / "bad.openapi.yaml"
    bad.write_text("paths: [unclosed\n")
    result = run("evaluate", "--oas", str(bad),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr
    assert "Traceback" not in result.output


def test_evaluate_deeply_nested_json_is_fatal_without_traceback(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    description = tmp_path / "deep.openapi.json"
    description.write_text('{"paths": ' + deep + "}")
    truth = tmp_path / "truth.json"
    truth.write_text('{"methods": ' + deep + "}")
    for gt in (GT_DIR / "request_body.json", truth):
        result = run("evaluate", "--oas", str(description),
                     "--gt", str(gt))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr
        assert "Traceback" not in result.output


@pytest.mark.parametrize("tag, message", [
    ("", "paths is a list, not a mapping"),
    # the tag hands the text to yaml.load, whose composer recurses once per
    # level; the reader refuses it first
    ("!custom", "nested too deeply"),
], ids=["walked", "handed-over"])
def test_evaluate_deeply_nested_yaml_is_fatal_without_traceback(
        tmp_path, tag, message):
    # in a fresh interpreter, as libyaml's composer, which recurses in C,
    # ended this with a segmentation fault
    # block sequences, `- - - x`: the scanner's time is quadratic in the
    # depth of flow sequences, `[[[x]]]`
    description = tmp_path / "deep.openapi.yaml"
    description.write_text(f"paths: {tag}\n" + "- " * 100_000 + "x\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "oasforge.cli", "evaluate",
         "--oas", str(description), "--gt", str(GT_DIR / "request_body.json")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {description}: {message}\n"


@pytest.mark.parametrize("content, message", [
    ('paths: !!int ""\n', "string index out of range"),
    ("paths: !!timestamp x\n",
     "'NoneType' object has no attribute 'groupdict'"),
    ("paths: !!float x\n", "could not convert string to float: 'x'"),
], ids=["int", "timestamp", "float"])
def test_evaluate_malformed_tagged_scalar_is_fatal_without_traceback(
        tmp_path, content, message):
    bad = tmp_path / "bad.openapi.yaml"
    bad.write_text(content)
    result = run("evaluate", "--oas", str(bad),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {bad}: {message}\n"


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
        tmp_path, content, suffix, message):
    bad = tmp_path / f"bad{suffix}"
    bad.write_text(content)
    result = run("evaluate", "--oas", str(bad),
                 "--gt", str(GT_DIR / "request_body.json"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: {bad}: {message}" in result.stderr
    assert "Traceback" not in result.output


DEPTH = 1000


@pytest.mark.parametrize("chain", ["field", "inheritance"])
def test_thousand_class_chain_generates_and_evaluates(tmp_path, chain):
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
    result = run("generate", "--input", str(src),
                 "--output", str(out))
    assert result.exit_code == 0, result.output
    assert f"schemas: {DEPTH}" in result.output
    result = run("evaluate", "--oas", str(out), "--gt", str(gt))
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
        tmp_path, handler, diagnostic, operation):
    oracle = pytest.importorskip("openapi_spec_validator")
    (tmp_path / "Api.java").write_text(
        "package app;\n"
        "import org.springframework.http.ResponseEntity;\n"
        "import org.springframework.web.bind.annotation.*;\n"
        f"@RestController\nclass Api {{\n    {handler}\n}}\n")
    out = tmp_path / "out"
    result = run("generate", "--input", str(tmp_path),
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


def test_profile_independent_diagnostic_is_printed_once(tmp_path):
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
    result = run("generate", "--input", str(tmp_path),
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
        main(args)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert "yaml" not in sys.modules
assert "xml.etree.ElementTree" not in sys.modules
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


_LOADED_BY_STEP = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("oasforge")
                  or name in ("yaml", "click", "dataclasses", "inspect"))
import oasforge.cli
seen = {"import": loaded()}
json_dir, yaml_file, truth, source, out = sys.argv[1:]
for step, args in (
        ("evaluate-json", ["evaluate", "--oas", json_dir, "--gt", truth]),
        ("evaluate-yaml", ["evaluate", "--oas", yaml_file, "--gt", truth]),
        ("generate", ["generate", "--input", source, "--output", out])):
    try:
        oasforge.cli.main(args)
    except SystemExit as exc:
        assert exc.code == 0, (step, exc.code)
    seen[step] = loaded()
print(json.dumps(seen))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # `import oasforge.cli` loads `diagnostics` and `values` only;
    # `evaluate` adds `evaluation`, and PyYAML only when it reads YAML;
    # `generate` loads the parser, the analysis and the writers. No step
    # loads click, `dataclasses` or `inspect`. A fresh interpreter shows
    # what each step loads.
    import yaml
    golden = GOLDEN_DIR / "request_body-default.openapi.json"
    json_dir = tmp_path / "json"
    json_dir.mkdir()
    shutil.copy(golden, json_dir)
    yaml_file = tmp_path / "request_body-default.openapi.yaml"
    yaml_file.write_text(yaml.safe_dump(json.loads(golden.read_text())))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_STEP, str(json_dir), str(yaml_file),
         str(GT_DIR / "request_body.json"),
         str(FIXTURES_DIR / "request_body"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    base = ["oasforge", "oasforge.cli", "oasforge.diagnostics",
            "oasforge.values"]
    evaluating = sorted(base + ["oasforge.evaluation"])
    generating = {f"oasforge.{name}" for name in (
        "pipeline", "emitter", "oasvalidate", "javasrc", "endpoints",
        "schemas", "discovery", "spring")}
    assert seen["import"] == base
    assert seen["evaluate-json"] == evaluating
    assert seen["evaluate-yaml"] == sorted(evaluating + ["yaml"])
    assert generating <= set(seen["generate"])
    assert not {"click", "dataclasses", "inspect"} & set(seen["generate"])
    assert (tmp_path / "out" / "request_body-default.openapi.json").is_file()


_WITHOUT_CLICK = """
import sys
sys.modules["click"] = None  # any import of click now raises ImportError
from oasforge.cli import main
fixture, truth, out = sys.argv[1:]
for args in (["generate", "--input", fixture, "--output", out + "/json"],
             ["generate", "--input", fixture, "--output", out + "/yaml",
              "--format", "yaml"],
             ["generate", "--input", fixture, "--output", out + "/merged",
              "--merge"],
             ["evaluate", "--oas", out + "/json", "--gt", truth]):
    main(args)
"""


def test_no_command_needs_click(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_CLICK,
         str(FIXTURES_DIR / "request_body"),
         str(GT_DIR / "request_body.json"), str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "methods" in proc.stdout  # the evaluation report
    for name in ("json/request_body-default.openapi.json",
                 "yaml/request_body-default.openapi.yaml",
                 "merged/request_body-merged.openapi.json"):
        assert (tmp_path / name).is_file(), name


def test_closed_stdout_ends_quietly(tmp_path):
    # a run whose stdout was closed ends with exit 1 and nothing on stderr,
    # not with the interpreter's report of a failed flush
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    # in a fresh interpreter, as the branch puts /dev/null on descriptor 1
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the process starts
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oasforge.cli", "generate", "--input",
             str(FIXTURES_DIR / "request_body"), "--output", str(tmp_path)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
