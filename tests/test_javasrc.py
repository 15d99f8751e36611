"""Source-model tests: parsing, constant resolution, supertype chains."""

import errno
import os
import re
import runpy
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, model_from
from oasforge import javasrc
from oasforge.javasrc import (AnnotationUse, BodyFacts, ClassRef, Concat,
                              InvalidEscapeError, JavaSyntaxError,
                              MethodDecl, NameRef,
                              ProjectParseError, SupertypeCycleError, TypeRef,
                              extract_body_facts, parse_project,
                              parse_source, resolve_string_constant,
                              spelling, supertype_chain, token_kind, tokenize,
                              unescape_string)
from oasforge.pipeline import generate_project

SIMPLE_CONTROLLER = """
package app;

import org.springframework.web.bind.annotation.RestController;

@RestController
public class OneController {
}
"""


def test_parse_single_class(tmp_path):
    (tmp_path / "OneController.java").write_text(SIMPLE_CONTROLLER)
    model = parse_project(tmp_path)
    assert len(model.classes) == 1
    assert model.parse_diagnostics == []
    assert "app.OneController" in model.classes


def test_missing_root_is_fatal(tmp_path):
    with pytest.raises(ProjectParseError):
        parse_project(tmp_path / "nope")


def test_no_parsable_files_is_fatal(tmp_path):
    (tmp_path / "Broken.java").write_text("class {{{")
    with pytest.raises(ProjectParseError):
        parse_project(tmp_path)


def test_unreadable_java_path_is_a_parse_error_naming_it(tmp_path):
    (tmp_path / "A.java").write_text("package app;\nclass A {}\n")
    (tmp_path / "Broken.java").symlink_to(tmp_path / "nowhere.java")
    (tmp_path / "Dir.java").mkdir()
    (tmp_path / "Dir.java" / "B.java").write_text(
        "package app;\nclass B {}\n")
    model = parse_project(tmp_path)
    assert sorted(model.classes) == ["app.A", "app.B"]
    assert [(d.code, d.file, d.line, d.message)
            for d in model.parse_diagnostics] == [
        ("PARSE_ERROR", "Broken.java", 0, os.strerror(errno.ENOENT)),
        ("PARSE_ERROR", "Dir.java", 0, os.strerror(errno.EISDIR))]


def test_annotated_package_declaration_is_read(tmp_path):
    # JLS 7.4.1: `package-info.java` may annotate its package
    (tmp_path / "package-info.java").write_text(
        "@NonNullApi\n@Deprecated(since = \"2\")\npackage app;\n\n"
        "import org.springframework.lang.NonNullApi;\n")
    (tmp_path / "A.java").write_text("package app;\n@Deprecated class A {}\n")
    model = parse_project(tmp_path)
    assert model.parse_diagnostics == []
    assert list(model.classes) == ["app.A"]
    source = "/* license */\n@Foo package app;\nimport a.B;\n@Bar class A {}\n"
    assert header_statements(source) == 0  # the tokens read it all
    [a] = parse_source(source)
    assert (a.qualified_name, a.package, a.imports) == \
        ("app.A", "app", {"B": "a.B"})
    assert [anno.simple_name for anno in a.annotations] == ["Bar"]


def test_module_info_declares_no_type_and_is_skipped(tmp_path):
    # JLS 7.7: a modular compilation unit declares no type
    (tmp_path / "module-info.java").write_text(
        "module app {\n    requires spring.web;\n    exports app;\n}\n")
    (tmp_path / "A.java").write_text("package app;\nclass A {}\n")
    model = parse_project(tmp_path)
    assert model.parse_diagnostics == []
    assert list(model.classes) == ["app.A"]
    (tmp_path / "A.java").unlink()
    with pytest.raises(ProjectParseError, match="no .java files under"):
        parse_project(tmp_path)


WALK_CHECK = Path(__file__).resolve().parent.parent / "scripts" / \
    "walk_check.py"


def test_project_files_are_found_and_ordered_as_rglob_finds_them(tmp_path):
    # the tree and the comparison of `scripts/walk_check.py`, which CI runs
    # under each supported Python
    check = runpy.run_path(str(WALK_CHECK))
    check["build_tree"](tmp_path)
    assert check["differences"](tmp_path) == []
    model = parse_project(tmp_path)
    # by path parts: `a` before `a b` before `a-b`, whose strings sort the
    # other way; not the symlinked directory, nor `X.JAVA`
    assert [cls.source_file for cls in model.classes.values()] == [
        ".hidden/E.java", ".java", "Dir.java/F.java", "Dir.java/sub/G.java",
        "L.java", "a/B.java", "a b/D.java", "a-b/C.java"]
    assert [d.file for d in model.parse_diagnostics] == \
        ["Broken.java", "Dir.java"]


LINE_ENDS_SOURCE = '''package app;

/* a block comment
   over two lines */
@RestController
public class Ends {
    static final String TEXT = """
        one

        two
        """;

    @GetMapping("/x")
    String get(
            int a) {
        String t = """
            in a body
            """;
        return t;
    }

    int after;
}
'''


@pytest.mark.parametrize("ends", ["\n", "\r\n", "\r", "mixed"])
def test_line_ends_give_the_same_declarations(tmp_path, ends):
    lines = LINE_ENDS_SOURCE.split("\n")
    if ends == "mixed":
        # no `\r` is followed by a `\n` that ends the next line
        cycle = ["\r\n", "\n", "\r"]
        source = "".join(line + cycle[i % 3] for i, line in enumerate(lines))
    else:
        source = ends.join(lines)
    (tmp_path / "Ends.java").write_bytes(source.encode("utf-8"))
    model = parse_project(tmp_path)
    assert model.parse_diagnostics == []
    expected = parse_source(LINE_ENDS_SOURCE, "Ends.java")
    assert list(model.classes.values()) == expected
    (ends_class,) = expected
    assert [(m.name, m.line) for m in ends_class.methods] == [("get", 14)]
    assert [(f.name, f.line, f.initializer) for f in ends_class.fields] == [
        ("TEXT", 7, "one\n\ntwo\n"), ("after", 22, None)]


def test_file_that_is_not_utf8_is_a_parse_error_at_its_byte(tmp_path):
    (tmp_path / "A.java").write_text("class A {}\n")
    (tmp_path / "Mid.java").write_bytes(b"class Mid {\n  int \xff;\n}\n")
    (tmp_path / "Cut.java").write_bytes(
        "class Cut { String s = \"\u00e9".encode() + "\u20ac".encode()[:2])
    # the position counts the bytes of each `\r\n`
    (tmp_path / "Crlf.java").write_bytes(
        b"class Crlf {\r\n  int a;\r\n  int b;\r\n  \xc3\x28\r\n}\r\n")
    model = parse_project(tmp_path)
    assert [(d.code, d.file, d.line, d.message)
            for d in model.parse_diagnostics] == [
        ("PARSE_ERROR", "Crlf.java", 0, "'utf-8' codec can't decode byte "
         "0xc3 in position 36: invalid continuation byte"),
        ("PARSE_ERROR", "Cut.java", 0, "'utf-8' codec can't decode bytes "
         "in position 26-27: unexpected end of data"),
        ("PARSE_ERROR", "Mid.java", 0, "'utf-8' codec can't decode byte "
         "0xff in position 18: invalid start byte")]


def test_syntax_error_recorded_and_skipped():
    # fixture: 3 files, 1 with a syntax error -> 2 classes + 1 diagnostic
    model = parse_project(FIXTURES_DIR / "parse_error")
    assert len(model.parse_diagnostics) == 1
    assert model.parse_diagnostics[0].file == "Broken.java"
    assert len(model.classes) == 2


def test_reparse_is_deterministic():
    m1 = parse_project(FIXTURES_DIR / "constant_paths")
    m2 = parse_project(FIXTURES_DIR / "constant_paths")
    assert sorted(m1.classes) == sorted(m2.classes)
    c1 = m1.classes["com.demo.config.ConfigController"]
    c2 = m2.classes["com.demo.config.ConfigController"]
    assert c1.methods == c2.methods
    assert c1.annotations == c2.annotations


CONSTANTS = """
package app;

class Paths {
    static final String BASE = "/v1";
    static final String ITEMS = BASE + "/items";
}

class User {
    static final String ENDPOINT_NAME = "/version";
}
"""


def test_literal_resolves_to_itself():
    model = model_from(CONSTANTS)
    ctx = model.classes["app.Paths"]
    assert resolve_string_constant("/api", ctx, model) == "/api"


def test_constant_reference_resolves():
    model = model_from(CONSTANTS)
    ctx = model.classes["app.User"]
    init = ctx.string_constants["ENDPOINT_NAME"]
    assert resolve_string_constant(init, ctx, model) == "/version"


def test_concatenation_resolves_recursively():
    model = model_from(CONSTANTS)
    ctx = model.classes["app.Paths"]
    init = ctx.string_constants["ITEMS"]
    assert resolve_string_constant(init, ctx, model) == "/v1/items"


def test_unresolvable_reference_returns_none():
    model = model_from(CONSTANTS)
    ctx = model.classes["app.Paths"]
    from oasforge.javasrc import NameRef
    assert resolve_string_constant(NameRef(("MISSING",)), ctx, model) is None


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=40))
def test_resolve_string_constant_is_pure(text):
    model = model_from(CONSTANTS)
    ctx = model.classes["app.Paths"]
    assert resolve_string_constant(text, ctx, model) == \
        resolve_string_constant(text, ctx, model) == text


HIERARCHY = """
package app;

class A {}
class B extends A {}
class C extends B {}
"""


def test_chain_without_supertype_is_singleton():
    model = model_from(HIERARCHY)
    a = model.classes["app.A"]
    assert supertype_chain(a, model) == [a]


def test_chain_walks_upward_in_order():
    model = model_from(HIERARCHY)
    chain = supertype_chain(model.classes["app.C"], model)
    assert [c.simple_name for c in chain] == ["C", "B", "A"]


def test_chain_stops_at_unknown_supertype():
    model = model_from("package app;\nclass D extends Unknown {}\n")
    chain = supertype_chain(model.classes["app.D"], model)
    assert [c.simple_name for c in chain] == ["D"]


def test_chain_has_no_duplicates():
    model = model_from(HIERARCHY)
    for cls in model.classes.values():
        chain = supertype_chain(cls, model)
        names = [c.qualified_name for c in chain]
        assert len(names) == len(set(names))


def test_cycle_raises():
    with pytest.raises(SupertypeCycleError) as exc:
        model_from("package app;\nclass X extends Y {}\n"
                   "class Y extends X {}\n")
    assert str(exc.value) == "inheritance cycle: app.X -> app.Y -> app.X"


def test_class_leading_into_a_cycle_starts_the_message():
    # the first class in model order whose walk reaches the cycle
    with pytest.raises(SupertypeCycleError) as exc:
        model_from("package app;\nclass C extends A {}\n"
                   "class A extends B {}\nclass B extends A {}\n")
    assert str(exc.value) == \
        "inheritance cycle: app.C -> app.A -> app.B -> app.A"


def test_chain_follows_superclass_imported_from_another_package():
    model = model_from(
        "package app.base;\npublic class Parent {}\n",
        "package app.other;\npublic class Parent {}\n",
        "package app.web;\nimport app.base.Parent;\n"
        "class Child extends Parent {}\n")
    chain = supertype_chain(model.classes["app.web.Child"], model)
    assert [c.qualified_name for c in chain] == ["app.web.Child",
                                                 "app.base.Parent"]


def test_superclass_is_resolved_and_keeps_its_type_arguments():
    # a type argument naming a model class is spelled by its qualified
    # name, at any depth; a type variable of the subclass stays as written
    model = model_from(
        "package app.base;\npublic class Page<T> {}\n",
        "package app.web;\nimport app.base.Page;\n"
        "class Sub extends Page<List<Item>> {}\nclass Item {}\n"
        "class Wrapped<Item> extends Page<Item> {}\n")
    assert model.classes["app.web.Sub"].superclass == TypeRef(
        "app.base.Page", (TypeRef("List", (TypeRef("app.web.Item"),)),))
    assert model.classes["app.web.Wrapped"].superclass == TypeRef(
        "app.base.Page", (TypeRef("Item"),))


def test_class_extending_itself_in_a_package_raises():
    with pytest.raises(SupertypeCycleError) as exc:
        model_from("package app;\nclass Loop extends Loop {}\n")
    assert str(exc.value) == "inheritance cycle: app.Loop -> app.Loop"


def test_supertype_lists_are_kept_and_qualified():
    # the `implements` list of a class, enum or record and the `extends`
    # list of an interface, each name resolved as a superclass's is
    model = model_from(
        "package app.base;\npublic interface Named<T> {}\n",
        "package app.web;\nimport app.base.Named;\n"
        "interface Tagged extends Named<Item>, Missing {}\n"
        "class C extends Base implements Tagged, Comparable<C> {}\n"
        "enum E implements Tagged { A }\n"
        "record R(int a) implements Tagged {}\nclass Item {}\nclass Base {}\n")
    tagged = model.classes["app.web.Tagged"]
    assert tagged.superclass is None
    assert tagged.interfaces == (
        TypeRef("app.base.Named", (TypeRef("app.web.Item"),)),
        TypeRef("Missing"))
    c = model.classes["app.web.C"]
    assert c.superclass == TypeRef("app.web.Base")
    assert c.interfaces == (TypeRef("app.web.Tagged"),
                            TypeRef("Comparable", (TypeRef("app.web.C"),)))
    for name in ("app.web.E", "app.web.R"):
        assert model.classes[name].interfaces == (TypeRef("app.web.Tagged"),)


def test_type_hierarchy_visits_interfaces_before_the_superclass():
    # as Spring's TYPE_HIERARCHY search: the class, then each interface's
    # hierarchy depth-first, then the same for the superclass; a class
    # reached twice is visited the first time only
    model = model_from(
        "package app;\ninterface I1 extends I3 {}\n"
        "interface I2 extends I3 {}\ninterface I3 {}\ninterface J {}\nclass Top {}\n"
        "class S extends Top implements J, I3 {}\n"
        "class C extends S implements I1, Outside, I2 {}\n")
    walk = model.type_hierarchy(model.classes["app.C"])
    assert [c.simple_name for c in walk] == \
        ["C", "I1", "I3", "I2", "S", "J", "Top"]
    top = model.classes["app.Top"]
    assert list(model.type_hierarchy(top)) == [top]
    # supertype_chain keeps to superclasses
    assert [c.simple_name for c in supertype_chain(model.classes["app.C"],
                                                   model)] == ["C", "S", "Top"]


def test_diamond_of_interfaces_is_not_a_cycle():
    model = model_from(
        "package app;\ninterface A {}\ninterface B extends A {}\n"
        "interface C extends A {}\nclass D implements B, C {}\n"
        "class E extends D implements A {}\n")
    walk = model.type_hierarchy(model.classes["app.E"])
    assert [c.simple_name for c in walk] == ["E", "A", "D", "B", "C"]


@pytest.mark.parametrize("sources, message", [
    ("interface A extends B {}\ninterface B extends A {}\n",
     "app.A -> app.B -> app.A"),
    ("interface J extends J {}\n", "app.J -> app.J"),
    ("class C extends S implements I {}\ninterface I extends K {}\n"
     "interface K extends I {}\nclass S {}\n",
     "app.C -> app.I -> app.K -> app.I"),
    ("class C implements I {}\ninterface I extends C {}\n",
     "app.C -> app.I -> app.C"),
], ids=["two-interfaces", "interface-extending-itself", "through-a-class",
        "interface-extending-its-class"])
def test_cycle_through_interfaces_raises(sources, message):
    with pytest.raises(SupertypeCycleError) as exc:
        model_from("package app;\n" + sources)
    assert str(exc.value) == f"inheritance cycle: {message}"


def test_constant_inherited_from_an_interface_shadows_a_static_import():
    # JLS 8.3: a field the class inherits from its interface is in scope,
    # and a static import on demand only gives names nothing else declares
    model = model_from(
        "package app.o;\npublic class O { public static final String BASE "
        "= \"/other\"; public static final String ONLY = \"/o\"; }\n",
        "package app;\ninterface Paths { String BASE = \"/k\"; }\n",
        "package app;\nimport static app.o.O.*;\n"
        "class C implements Paths { static class Nested {} }\n")
    for name in ("app.C", "app.C.Nested"):
        ctx = model.classes[name]
        assert resolve_string_constant(
            Concat((NameRef(("BASE",)), "/x")), ctx, model) == "/k/x"
        assert resolve_string_constant(NameRef(("ONLY",)), ctx,
                                       model) == "/o"


def test_qualified_constant_is_found_in_a_superinterface():
    # JLS 9.3: `L.X` names the field X that interface L inherits from K
    model = model_from(
        "package app;\ninterface K { String X = \"/lx\"; }\n"
        "interface L extends K {}\nclass Impl implements L {}\n"
        "class Sub extends Impl {}\nclass C {}\n")
    ctx = model.classes["app.C"]
    for owner in ("L", "Impl", "Sub"):
        assert resolve_string_constant(NameRef((owner, "X")), ctx,
                                       model) == "/lx"
    assert resolve_string_constant(NameRef(("X",)), ctx, model) is None


def test_interface_member_types_are_public():
    # JLS 9.5; a member of a class nested in an interface keeps its own
    classes = parse_source(
        "package app;\ninterface K { class Dto { static class Deep {} }\n"
        "  interface Inner { class More {} } }\n")
    assert {c.qualified_name: c.access for c in classes} == {
        "app.K": "", "app.K.Dto": "public", "app.K.Dto.Deep": "",
        "app.K.Inner": "public", "app.K.Inner.More": "public"}


def test_member_type_inherited_from_an_interface_shadows_the_package(
        tmp_path):
    # JLS 8.5: a class inherits the member types of its superinterfaces,
    # which are public (JLS 9.5), before its package's classes are tried
    (tmp_path / "api").mkdir()
    (tmp_path / "api" / "K.java").write_text(
        "package app.api;\npublic interface K { class Dto {} }\n")
    (tmp_path / "L.java").write_text(
        "package app;\ninterface L extends app.api.K {}\n")
    (tmp_path / "Dto.java").write_text("package app;\nclass Dto {}\n")
    (tmp_path / "Part.java").write_text("package app;\nclass Part {}\n")
    (tmp_path / "Base.java").write_text(
        "package app;\nclass Base { static class Part {} }\n")
    (tmp_path / "Api.java").write_text(
        "package app;\nclass Api extends Base implements L {\n"
        "  static class Inner {}\n}\n"
        "class Plain {}\n")
    model = parse_project(tmp_path)
    api, inner = model.classes["app.Api"], model.classes["app.Api.Inner"]
    assert model.resolve_type_name("Dto", api) == "app.api.K.Dto"
    assert model.resolve_type_name("Dto", inner) == "app.api.K.Dto"
    # an interface of another package walked before the superclass does
    # not stop a package-private member type of the superclass
    assert model.resolve_type_name("Part", api) == "app.Base.Part"
    plain = model.classes["app.Plain"]
    assert model.resolve_type_name("Dto", plain) == "app.Dto"


class _NoScan(Mapping):
    """Classes by name that can be looked up but not iterated."""

    def __init__(self, classes):
        self._classes = classes

    def __getitem__(self, name):
        return self._classes[name]

    def __len__(self):
        return len(self._classes)

    def __iter__(self):
        raise AssertionError("a lookup scanned SourceModel.classes")


def test_name_lookups_do_not_scan_classes():
    model = model_from(
        "package app.a;\nclass Item {}\nclass Dup {}\n",
        "package app.b;\nclass Dup {}\n",
        "package app.web;\nclass User {}\n")
    model.classes = _NoScan(model.classes)
    ctx = model.classes["app.web.User"]
    assert model.resolve_type_name("Item", ctx) == "app.a.Item"
    assert model.resolve_type_name("Dup", ctx) is None


def test_bare_constant_that_no_scope_declares_does_not_resolve():
    # javac does not guess a class, not even the one class declaring it
    model = model_from(
        "package app.a;\nclass Paths { static final String ROOT = \"/r\"; "
        "static final String DUP = \"/a\"; }\n",
        "package app.b;\nclass More { static final String DUP = \"/b\"; }\n",
        "package app.web;\nclass User {}\n")
    ctx = model.classes["app.web.User"]
    assert resolve_string_constant(NameRef(("ROOT",)), ctx, model) is None
    assert resolve_string_constant(NameRef(("DUP",)), ctx, model) is None


def test_interface_fields_are_static_final_constants():
    model = model_from(
        "package app;\ninterface Paths { String BASE = \"/base\"; }\n"
        "class C { static final String A = Paths.BASE + \"/a\"; }\n")
    fields = model.classes["app.Paths"].fields
    assert [(f.is_static, f.is_final) for f in fields] == [(True, True)]
    ctx = model.classes["app.C"]
    assert resolve_string_constant(ctx.string_constants["A"], ctx,
                                   model) == "/base/a"


def test_single_static_import_names_the_class_of_a_constant():
    model = model_from(
        "package app;\nclass Root { static final String BASE = \"/base\"; }\n"
        "class Paths extends Root {}\n",
        "package app.b;\nclass More { static final String BASE = \"/b\"; }\n",
        "package app.web;\nimport static app.Paths.BASE;\nclass C {}\n"
        "class D { static final String BASE = \"/own\"; }\n")
    base = NameRef(("BASE",))
    # found in a superclass of the imported class, though three declare it
    assert resolve_string_constant(base, model.classes["app.web.C"],
                                   model) == "/base"
    # a field of the naming class shadows the import
    assert resolve_string_constant(base, model.classes["app.web.D"],
                                   model) == "/own"


def test_static_import_on_demand_names_the_class_of_a_constant():
    model = model_from(
        "package app;\nclass Paths { static final String BASE = \"/base\"; "
        "static class Inner {} }\n",
        "package app.b;\nclass More { static final String BASE = \"/b\"; "
        "static final String ROOT = \"/top\"; }\nclass Inner {}\n",
        "package app.web;\nimport static app.Paths.*;\nclass C {}\n",
        "package app.web2;\nimport static app.b.More.BASE;\n"
        "import static app.Paths.*;\nclass D {}\n")
    c, d = model.classes["app.web.C"], model.classes["app.web2.D"]
    assert (c.wildcard_imports, c.static_wildcard_imports) == \
        ((), ("app.Paths",))
    # found in the imported class, though two classes declare it
    assert resolve_string_constant(NameRef(("BASE",)), c, model) == "/base"
    # a single-static import shadows an import on demand
    assert resolve_string_constant(NameRef(("BASE",)), d, model) == "/b"
    # a name no scope gives does not resolve, though one class declares it
    assert resolve_string_constant(NameRef(("ROOT",)), c, model) is None
    # the import also gives the static member types of the class
    assert model.resolve_type_name("Inner", c) == "app.Paths.Inner"


def test_simple_name_is_searched_in_the_enclosing_classes():
    model = model_from(
        "package app;\n"
        "class Root { static final String BASE = \"/inherited\"; }\n"
        "class Outer { static final String BASE = \"/outer\";\n"
        "  static final String TOP = \"/top\";\n"
        "  static class Mid { static final String TOP = \"/mid\";\n"
        "    static class Api {}\n"
        "    static class Sub extends Root {} } }\n",
        "package app.b;\nclass More { static final String BASE = \"/b\"; "
        "static final String TOP = \"/t\"; }\n")
    api = model.classes["app.Outer.Mid.Api"]
    sub = model.classes["app.Outer.Mid.Sub"]
    assert resolve_string_constant(NameRef(("BASE",)), api, model) == \
        "/outer"
    # the innermost enclosing class that declares the name wins
    assert resolve_string_constant(NameRef(("TOP",)), api, model) == "/mid"
    # a constant a class inherits shadows one of its enclosing classes
    assert resolve_string_constant(NameRef(("BASE",)), sub, model) == \
        "/inherited"


@pytest.mark.parametrize("literal, value", [
    (r'"\101\377"', "A\xff"),
    (r'"\400"', " 0"),
    (r'"\0\12x"', "\0\nx"),
    (r'"a\sb"', "a b"),
    (r'"\uu0041\uuu0042"', "AB"),
    (r'"\t\u0021\\u0041"', "\t!\\u0041"),
    (r'"\u004"', None),
    (r'"\u00G1"', None),
    (r'"\"\'\\"', "\"'\\"),
    (r'"/{year:\\d{4}}"', r"/{year:\d{4}}"),
    (r'"\q"', None),
    (r'"/{year:\d{4}}"', None),
    ('"a\\\nb"', None),
])
def test_string_escapes_are_read_as_javac_reads_them(literal, value):
    if value is None:
        with pytest.raises(InvalidEscapeError):
            unescape_string(literal, 1)
    else:
        assert unescape_string(literal, 1) == value


@pytest.mark.parametrize("literal, value", [
    ('"""\n      Lists the users.\n      """', "Lists the users.\n"),
    ('"""\n    /tb2"""', "/tb2"),
    # escapes are read after the white space is stripped
    ('"""\n  a  \n    b\\s\n  c \\\n  d"""', "a\n  b \nc d"),
    ('"""\r\n  x\r  y\r\n  """', "x\ny\n"),
    ('"""\n  a\n\n   \n  b\n"""', "  a\n\n\n  b\n"),
    ('"""\n    a\n  """', "  a\n"),
    ('"""\t\n\tsay \\"""hi\\""" "\n\t"""', 'say """hi""" "\n'),
    ('"""\n  \\q"""', None),
], ids=["annotation", "constant", "escapes", "line-terminators",
        "blank-lines", "closing-indent", "quotes", "illegal-escape"])
def test_text_blocks_are_read_as_javac_reads_them(literal, value):
    (text,) = tokenize(literal).texts
    if value is None:
        with pytest.raises(InvalidEscapeError):
            unescape_string(text, 1)
    else:
        assert unescape_string(text, 1) == value


def test_text_block_constant_and_annotation_value_resolve():
    model = model_from(
        'package app;\ninterface P {\n'
        '    String Y = """\n        /tb2""";\n}\n',
        'package app;\nclass Api {\n'
        '    @Operation(description = """\n'
        '      Lists the users.\n      """)\n'
        "    @GetMapping(P.Y)\n    String get() { return null; }\n}\n")
    api = model.classes["app.Api"]
    (get,) = api.methods
    operation, mapping = get.annotations
    assert operation.attributes["description"] == "Lists the users.\n"
    assert resolve_string_constant(mapping.attributes["value"], api,
                                   model) == "/tb2"


def test_qualified_name_resolves_only_to_a_class_ending_with_it():
    model = model_from(
        "package app;\nclass Outer { static class Inner {} }\n"
        "class Date extends java.util.Date {}\n",
        "package app.web;\nclass User {}\n")
    ctx = model.classes["app.web.User"]
    assert model.resolve_type_name("Outer.Inner", ctx) == "app.Outer.Inner"
    assert model.resolve_type_name("ter.Inner", ctx) is None
    assert model.resolve_type_name("java.util.Date", ctx) is None
    assert model.resolve_type_name("Date", ctx) == "app.Date"
    assert model.classes["app.Date"].superclass == TypeRef("java.util.Date")


def test_qualified_name_reaches_a_member_type_its_qualifier_inherits():
    # JLS 6.5.5.2: in `Q.Id`, Q is a type and Id a member type that Q
    # declares or inherits
    model = model_from(
        "package app;\npublic interface K { class Dto { public String a; } }\n"
        "public interface L extends K {}\n"
        "class Base { static class Part { static class Leaf {} } }\n"
        "class Sub extends Base {}\n"
        "class Far extends Sub { private static class Hidden {} }\n"
        "class Deep extends Far {}\n",
        "package app.web;\nimport app.Sub;\nclass User {}\n")
    user = model.classes["app.web.User"]
    assert model.resolve_type_name("L.Dto", user) == "app.K.Dto"
    assert model.resolve_type_name("app.L.Dto", user) == "app.K.Dto"
    assert model.resolve_type_name("Sub.Part", user) == "app.Base.Part"
    assert model.resolve_type_name("Sub.Part.Leaf", user) == \
        "app.Base.Part.Leaf"
    assert model.resolve_type_name("Far.Part", user) == "app.Base.Part"
    # a private member type is not inherited, nor is a name no type declares
    assert model.resolve_type_name("Deep.Hidden", user) is None
    assert model.resolve_type_name("Sub.Missing", user) is None
    assert model.resolve_type_name("Nowhere.Part", user) is None


def test_only_a_member_type_name_searches_the_hierarchy(monkeypatch):
    model = model_from(
        "package app;\nclass Base { static class Part {} }\n"
        "class Sub extends Base { static class Inner {} }\n"
        "class Item {}\n")
    walked = []
    real_walk = javasrc.SourceModel.type_hierarchy
    monkeypatch.setattr(javasrc.SourceModel, "type_hierarchy",
                        lambda self, cls: walked.append(cls.qualified_name)
                        or real_walk(self, cls))
    inner = model.classes["app.Sub.Inner"]
    # no member type is named `Item` or `Missing`
    assert model.resolve_type_name("Item", inner) == "app.Item"
    assert model.resolve_type_name("Sub.Missing", inner) is None
    assert walked == []
    # `Part` is: each lexical scope up to the one that inherits it is walked
    assert model.resolve_type_name("Part", inner) == "app.Base.Part"
    assert walked == ["app.Sub.Inner", "app.Sub"]


def test_handler_returning_an_inherited_member_type_documents_it(tmp_path):
    (tmp_path / "K.java").write_text(
        "package app;\npublic interface K { class Dto { public String a; } }\n")
    (tmp_path / "L.java").write_text(
        "package app;\npublic interface L extends K {}\n")
    (tmp_path / "C.java").write_text(
        "package app;\n@RestController\nclass C {\n"
        "  @GetMapping(\"/x\") L.Dto x() { return null; }\n}\n")
    result = generate_project(tmp_path)
    assert result.diagnostics == []
    assert result.documents["default"]["components"]["schemas"] == {
        "Dto": {"type": "object", "properties": {"a": {"type": "string"}}}}


def test_member_type_shadows_imports_and_other_packages():
    model = model_from(
        "package app;\nimport app.other.Part;\n"
        "class Api { static class Item { Part part; }\n"
        "  static class Part {}\n  Item get() { return null; } }\n",
        "package app.other;\npublic class Item { int other; }\n"
        "public class Part {}\n")
    api, item = model.classes["app.Api"], model.classes["app.Api.Item"]
    # a member type of the naming class, though two classes are `Item`
    assert model.resolve_type_name("Item", api) == "app.Api.Item"
    # a member of the enclosing class shadows the single-type import
    assert model.resolve_type_name("Part", item) == "app.Api.Part"
    assert model.resolve_type_name("Part", api) == "app.Api.Part"


def test_inherited_member_types_are_searched_before_imports(tmp_path):
    # JLS 8.5: a class inherits the member types of its superclasses
    (tmp_path / "Base.java").write_text(
        "package app;\nclass Base {\n"
        "  public static class Item { public String name; }\n"
        "  public static class Part {}\n}\n")
    (tmp_path / "Mid.java").write_text(
        "package app;\nclass Mid extends Base {\n"
        "  public static class Part {}\n}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\nimport app.other.Part;\n"
        "class Api extends Mid {\n  static class Inner {}\n}\n")
    (tmp_path / "other").mkdir()
    for simple in ("Item", "Part"):
        (tmp_path / "other" / f"{simple}.java").write_text(
            f"package app.other;\npublic class {simple} {{}}\n")
    model = parse_project(tmp_path)
    api, inner = model.classes["app.Api"], model.classes["app.Api.Inner"]
    # inherited through a chain, though another package declares `Item`
    assert model.resolve_type_name("Item", api) == "app.Base.Item"
    # the nearer superclass's member hides the further one, and shadows
    # the single-type import
    assert model.resolve_type_name("Part", api) == "app.Mid.Part"
    # a class nested in the naming class sees what its encloser inherits
    assert model.resolve_type_name("Item", inner) == "app.Base.Item"
    # a class outside the hierarchy finds its own package's `Part`
    other = model.classes["app.other.Item"]
    assert model.resolve_type_name("Part", other) == "app.other.Part"


def test_private_and_foreign_package_private_member_types_are_not_inherited(
        tmp_path):
    # JLS 8.5 inherits only the member types that are not private and are
    # accessible to the inheriting class; a nearer one hides the rest
    (tmp_path / "Base.java").write_text(
        "package app;\npublic class Base {\n"
        "  private static class Item {}\n"
        "  static class Part {}\n"
        "  protected static class Tag {}\n"
        "  public static class Note {}\n}\n")
    (tmp_path / "Mid.java").write_text(
        "package app;\npublic class Mid extends Base {\n"
        "  private static class Note {}\n}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\nimport app.other.Item;\nimport app.other.Note;\n"
        "class Api extends Mid {}\n")
    (tmp_path / "web").mkdir()
    (tmp_path / "web" / "Far.java").write_text(
        "package app.web;\nimport app.other.Part;\n"
        "class Far extends app.Base {}\n")
    (tmp_path / "other").mkdir()
    for simple in ("Item", "Part", "Note"):
        (tmp_path / "other" / f"{simple}.java").write_text(
            f"package app.other;\npublic class {simple} {{}}\n")
    model = parse_project(tmp_path)
    api, far = model.classes["app.Api"], model.classes["app.web.Far"]
    assert model.classes["app.Base.Item"].access == "private"
    assert model.classes["app.Base.Part"].access == ""
    # a private member type is not inherited, so the import decides
    assert model.resolve_type_name("Item", api) == "app.other.Item"
    # package-private: inherited in its own package only
    assert model.resolve_type_name("Part", api) == "app.Base.Part"
    assert model.resolve_type_name("Part", far) == "app.other.Part"
    # protected: inherited in any package
    assert model.resolve_type_name("Tag", far) == "app.Base.Tag"
    # Mid's private `Note` is not inherited, and it hides Base's
    assert model.resolve_type_name("Note", api) == "app.other.Note"


def test_single_type_import_from_outside_the_tree_shadows_a_tree_class():
    model = model_from(
        "package app.err;\nclass Err extends RuntimeException {}\n",
        "package app.web;\nimport com.lib.Err;\nclass C {}\n")
    ctx = model.classes["app.web.C"]
    assert model.resolve_type_name("Err", ctx) is None
    assert model.find_class("Err", ctx) is None


def test_duplicate_class_found_by_simple_name_is_the_later_file(tmp_path):
    for module in ("a", "b"):
        (tmp_path / module).mkdir()
        (tmp_path / module / "Api.java").write_text(
            "package app;\nclass Api {}\n")
    (tmp_path / "User.java").write_text("package web;\nclass User {}\n")
    model = parse_project(tmp_path)
    assert [c.source_file for c in model.by_simple_name("Api")] == \
        ["b/Api.java"]
    ctx = model.classes["web.User"]
    assert model.find_class("Api", ctx) is model.classes["app.Api"]


def test_body_facts_capture_throw_and_statuses():
    src = """
package app;

import org.springframework.http.HttpStatus;
import org.springframework.http.ResponseEntity;

class H {
    ResponseEntity<String> h(boolean flag) {
        if (flag) {
            throw new IllegalStateException("x");
        }
        return new ResponseEntity<>("ok", HttpStatus.CREATED);
    }

    String nullOnly() {
        return null;
    }
}
"""
    model = model_from(src)
    methods = {m.name: m for m in model.classes["app.H"].methods}
    facts = methods["h"].body_facts
    assert facts.thrown_exception_types == {"IllegalStateException"}
    assert facts.returned_status_literals == {"CREATED"}
    assert not methods["nullOnly"].body_facts.has_plain_return


@pytest.mark.parametrize("statement", [
    "if (flag) throw new IllegalStateException();",
    "if (flag) { return; } else throw new IllegalStateException();",
    "switch (flag) { case A -> throw new IllegalStateException(); }",
])
def test_body_facts_read_a_throw_anywhere_in_a_statement(statement):
    model = model_from("package app;\nclass H { void h() { "
                       + statement + " } }\n")
    facts = model.classes["app.H"].methods[0].body_facts
    assert facts.thrown_exception_types == {"IllegalStateException"}


@pytest.mark.parametrize("body, thrown, statuses, plain_return", [
    # a lambda block inside a call is part of that call's statement
    ("{ list.forEach(x -> { throw new A(); }); }", {"A"}, set(), False),
    ("{ if (ok) { return x; } return null; }", set(), set(), True),
    ("{ return null; }", set(), set(), False),
    ("{ return ResponseEntity.ok(x); }", set(), {"OK"}, False),
    ("{ throw e; }", set(), set(), False),
    ('{ throw new app.err.Gone("x"); }', {"app.err.Gone"}, set(), False),
    # the `;` of a for-header ends no statement
    ("{ for (int i = 0; i < n; i++) { sum += i; } return sum; }",
     set(), set(), True),
    ('{ String s = "return"; }', set(), set(), False),
    ("{ if (x == null) throw new NotFound(); "
     "else return ResponseEntity.status(201).build(); }",
     {"NotFound"}, {"201"}, False),
    # a name followed by `(` is a call of HttpStatus, not a constant of it
    ("{ return ResponseEntity.status(HttpStatus.valueOf(code)).build(); }",
     set(), set(), True),
])
def test_body_reading_rules(body, thrown, statuses, plain_return):
    assert extract_body_facts(tokenize(body).texts) == BodyFacts(
        frozenset(thrown), frozenset(statuses), plain_return)


CREATED = "return ResponseEntity.status(201).build(); }"


@pytest.mark.parametrize("body, thrown, plain_return", [
    ("{ list.sort(new Comparator<>() { public int compare(A a, A b) { "
     "return 0; } }); " + CREATED, set(), False),
    ("{ Comparator<A> c = new java.util.Comparator<A>() { public int "
     "compare(A a, A b) { if (a == b) { return 0; } return 1; } }; "
     + CREATED, set(), False),
    ("{ list.forEach(x -> { return; }); " + CREATED, set(), False),
    ("{ Runnable r = () -> { if (a) { throw new Bad(); } return; }; "
     + CREATED, {"Bad"}, False),
    # a block of a switch statement's `case … ->` rule is no lambda
    ("{ switch (k) { case 1 -> { return x; } default -> { "
     "throw new Bad(); } } }", {"Bad"}, True),
    ("{ class L { int n() { return 1; } } " + CREATED, set(), False),
    ("{ class L<T> implements I<T> { T n() throws E { return t; } } "
     + CREATED, set(), False),
    ("{ record P(int a) { int n() { return a; } } " + CREATED, set(), False),
    ("{ if (a) { return x; } " + CREATED, set(), True),
    ("{ synchronized (lock) { return x; } }", set(), True),
    ("{ try (var in = open()) { return in.read(); } "
     "catch (IOException e) { throw new Bad(); } }", {"Bad"}, True),
    ("{ try { x(); } finally { return y; } }", set(), True),
    ("{ do { x(); } while (a); if (b) x(); else { return y; } }",
     set(), True),
    ("{ switch (k) { case 1: { return x; } } }", set(), True),
], ids=["anonymous-in-call", "anonymous-in-field", "lambda-in-call",
        "lambda-assigned", "case-rule", "local-class", "local-class-throws",
        "local-record", "if", "synchronized", "try-catch", "try-finally",
        "do-else", "case-label"])
def test_return_in_lambda_or_anonymous_class_is_not_plain(body, thrown,
                                                          plain_return):
    facts = extract_body_facts(tokenize(body).texts)
    assert facts.thrown_exception_types == thrown
    assert facts.has_plain_return is plain_return


def test_java17_fixture_bodies_hold_no_model_class():
    # local classes and records, anonymous classes and lambdas in bodies
    # and initializers, braces in literals and comments: none of them ends
    # a body early or becomes a class of the model
    model = parse_project(FIXTURES_DIR / "java17")
    assert model.parse_diagnostics == []
    assert sorted(model.classes) == [
        f"com.demo.j17.{name}" for name in (
            "Author", "InvalidNoteException", "NoteAdvice", "NoteController",
            "NoteDto", "NoteNotFoundException")]
    methods = {m.name: m for m in model.classes[
        "com.demo.j17.NoteController"].methods}
    assert list(methods) == ["get", "create", "kind", "local", "author"]
    assert methods["get"].body_facts == BodyFacts(
        frozenset({"NoteNotFoundException"}), frozenset(), True)
    assert methods["create"].body_facts == BodyFacts(
        frozenset({"InvalidNoteException"}), frozenset({"201", "OK"}), False)
    assert methods["kind"].body_facts == BodyFacts(
        frozenset({"NoteNotFoundException", "InvalidNoteException"}),
        frozenset({"OK"}), False)
    dto = model.classes["com.demo.j17.NoteDto"]
    assert [(f.name, f.is_static) for f in dto.fields] == [
        ("id", False), ("title", False), ("tags", False), ("EMPTY", True)]
    assert [m.name for m in dto.methods] == ["labels"]


# Tokens that a method body may hold, each of which tokenizes to itself:
# every operator, so `>` `>` and `.` `5`, numbers that start or end
# with `.`, literals that hold spaces, braces or `//`, and identifiers
# outside ASCII, with the words that body reading looks for.
_BODY_TOKENS = st.one_of(
    st.sampled_from([
        "...", "->", "::", "<<=", "<<", "++", "--", "&&", "||",
        *"+-*/%=<>!&|^~?:;,.(){}[]@", ".5", "1.", "1.e5", "0x1F",
        "0b1_0L", "1_000L", "3.14f", "201", '"a b"', '"// not a comment"',
        '"/* x */"', '"{"', '"}"', '"\\""', "' '", "'}'", "'\\''",
        '"""\n    { a } "" b\n    """', "\u00f1ame", "\u53d8\u91cf",
        "\u0394x", "$", "_x$", "throw", "new", "return", "null", "yield",
        "HttpStatus", "CREATED", "ResponseEntity", "status", "ok",
        "created", "NotFound", "app"]),
    st.from_regex(r"[^\W\d][\w$]{0,4}", fullmatch=True).filter(
        lambda t: tokenize(t).texts == [t]))


@given(st.lists(_BODY_TOKENS, max_size=40))
@example([">", ">", ">", "=", ".", "5", "1.", "."])
@example(["{", "throw", "new", "NotFound", "(", ")", ";", "}"])
@example(["{"])
def test_a_body_kept_as_joined_text_reads_as_its_tokens(texts):
    body = " ".join(texts)
    assert [t for _, t, _ in javasrc._TOKEN_RE.findall(body) if t] == texts
    method = MethodDecl("m", (), (), TypeRef("void"), (), body=body)
    assert method.body_facts == extract_body_facts(texts)


@pytest.fixture
def body_reads(monkeypatch):
    """The token texts of each body that `extract_body_facts` reads."""
    reads = []
    read = javasrc.extract_body_facts

    def counted(texts):
        reads.append(texts)
        return read(texts)
    monkeypatch.setattr(javasrc, "extract_body_facts", counted)
    return reads


def test_parsing_reads_no_method_body(body_reads):
    n = 25
    methods = "".join(f"  int m{i}(int x) {{ if (x > {i}) throw new E(); "
                      f"return x; }}\n" for i in range(n))
    (cls,) = parse_source(f"class A {{\n{methods}}}\n")
    assert len(cls.methods) == n
    assert body_reads == []
    # a body is read on the first use of its facts only
    assert cls.methods[3].body_facts == BodyFacts(frozenset({"E"}),
                                                  frozenset(), True)
    assert cls.methods[3].body_facts.has_plain_return
    assert len(body_reads) == 1


def test_generate_reads_the_bodies_of_handlers_and_their_advice_only(
        tmp_path, body_reads):
    (tmp_path / "Api.java").write_text(
        "package app;\n@RestController\nclass Api {\n"
        "  Api() { helper(); }\n"
        "  @GetMapping(\"/a\") String a() { return \"handler-a\"; }\n"
        "  @PostMapping(\"/b\") String b() {\n"
        "    if (x) throw new Gone(); return \"handler-b\"; }\n"
        "  String helper() { return \"helper\"; }\n"
        "  @ExceptionHandler(Other.class) @ResponseStatus(HttpStatus.CONFLICT)"
        "\n  void other() { log(\"unused-local\"); }\n}\n")
    (tmp_path / "Advice.java").write_text(
        "package app;\n@ControllerAdvice\nclass Advice {\n"
        "  @ExceptionHandler(Gone.class) ResponseEntity<String> gone() {\n"
        "    return ResponseEntity.status(410).body(\"advice-gone\"); }\n"
        "  @ExceptionHandler(Other.class) ResponseEntity<String> other() {\n"
        "    return ResponseEntity.status(409).body(\"advice-other\"); }\n}\n")
    (tmp_path / "Service.java").write_text(
        "package app;\nclass Service {\n"
        + "".join(f"  int s{i}() {{ return {i}; }}\n" for i in range(10))
        + "}\nclass Gone extends RuntimeException {}\n"
        "class Other extends RuntimeException {}\n")
    result = generate_project(tmp_path)
    assert sorted(result.documents["default"]["paths"]["/b"]["post"]
                  ["responses"]) == ["200", "410"]
    markers = sorted(next(t for t in texts if t.startswith('"'))
                     for texts in body_reads)
    assert markers == ['"advice-gone"', '"handler-a"', '"handler-b"']


def test_enum_constants_in_declaration_order():
    model = model_from("package app;\nenum Color { RED, GREEN, BLUE }\n")
    assert model.classes["app.Color"].enum_constants == ("RED", "GREEN", "BLUE")


def test_annotation_value_array_and_named_attributes():
    src = """
package app;
import org.springframework.web.bind.annotation.RequestMapping;

@RequestMapping(value = {"/a", "/b"}, produces = "application/json")
class M {}
"""
    model = model_from(src)
    anno = model.classes["app.M"].annotations[0]
    assert anno.attributes == {"value": ("/a", "/b"),
                               "produces": "application/json"}


def only_class(source):
    (cls,) = parse_source("package app;\n" + source)
    return cls


def test_generic_constructor_is_skipped():
    cls = only_class("class A { <T> A(T t) {} String name; }")
    assert [f.name for f in cls.fields] == ["name"]
    assert cls.methods == ()


@pytest.mark.parametrize("params", [
    "List<@NotNull String> ids",
    "@Size(max = 2 * 1024) String body",
    "Outer<T>.Inner x",
    "String @A [] xs",
])
def test_constructor_parameters_are_skipped_unread(params):
    cls = only_class(f"class A {{ A({params}) throws E, F {{}} String name; }}")
    assert [f.name for f in cls.fields] == ["name"]
    assert cls.methods == ()


def test_record_components_are_formal_parameters():
    cls = only_class("record R(@Valid String... xs) {}")
    (xs,) = cls.fields
    assert (xs.name, xs.type.raw_name, xs.type.array_depth) == \
        ("xs", "String", 1)
    assert [a.simple_name for a in xs.annotations] == ["Valid"]


def test_method_parameters_drop_the_receiver_and_count_every_dimension():
    cls = only_class(
        "class H { void m(H this, final int a[][], String[]... rest) {} }")
    (m,) = cls.methods
    assert [(p.name, p.type.raw_name, p.type.array_depth)
            for p in m.parameters] == [("a", "int", 2), ("rest", "String", 2)]


def test_record_implements_several_interfaces():
    cls = only_class("record R(int a) implements X, Y {}")
    assert [f.name for f in cls.fields] == ["a"]
    assert cls.superclass is None


def test_type_use_annotations_are_dropped_from_types():
    cls = only_class(
        "class H {\n"
        "    List<@NotNull String> a;\n"
        "    String @NotNull [] @A [] b;\n"
        "    Map<@NotBlank String, @Valid Item> c;\n"
        "    List<? extends @A Item> d;\n"
        "    List<@NotNull String> m(List<@NotNull String> p, "
        "String @A ... q) { return null; }\n}")
    a, b, c, d = cls.fields
    assert a.type == TypeRef("List", (TypeRef("String"),))
    assert b.type == TypeRef("String", array_depth=2)
    assert c.type == TypeRef("Map", (TypeRef("String"), TypeRef("Item")))
    assert d.type == TypeRef("List", (TypeRef("Item"),))
    (m,) = cls.methods
    assert m.return_type == a.type
    assert [(p.name, p.type) for p in m.parameters] == [
        ("p", a.type), ("q", TypeRef("String", array_depth=1))]


def test_type_use_annotations_inside_a_qualified_name_are_dropped():
    cls = only_class(
        "class H {\n"
        "    java.util.@NotNull List<String> a;\n"
        "    Outer.@A Inner b;\n"
        "    a.@X b.@Y(1) @Z c.D<java.lang.@N String> @Q [] c;\n"
        "    java.util.@NotNull List<String> m(Outer.@A Inner p) "
        "{ return null; }\n}")
    a, b, c = cls.fields
    assert a.type == TypeRef("java.util.List", (TypeRef("String"),))
    assert b.type == TypeRef("Outer.Inner")
    assert c.type == TypeRef("a.b.c.D", (TypeRef("java.lang.String"),),
                             array_depth=1)
    (m,) = cls.methods
    assert m.return_type == a.type
    assert [(p.name, p.type) for p in m.parameters] == [("p", b.type)]


def test_compact_record_constructor_is_skipped():
    cls = only_class("record R(int a, String b) {\n"
                     "    public R { if (a < 0) throw new E(); }\n"
                     "    int twice() { return 2 * a; }\n}")
    assert [f.name for f in cls.fields] == ["a", "b"]
    assert [m.name for m in cls.methods] == ["twice"]


def test_nested_type_arguments_close_one_level_per_token():
    cls = only_class("class H { A<B<C<D>>> deep; int after; }")
    deep, after = cls.fields
    assert deep.type == TypeRef("A", (TypeRef("B", (TypeRef(
        "C", (TypeRef("D"),)),)),))
    assert after.name == "after"


def test_generic_method_with_bounded_type_parameter_and_throws():
    cls = only_class(
        "class H { <T extends Comparable<List<T>>> void m() throws E, F {} }")
    (m,) = cls.methods
    assert (m.name, m.declared_throws) == ("m", ("E", "F"))


def test_shift_assignments_in_a_body():
    cls = only_class(
        "class H { void m(int x, int y) { x >>>= 1; y >>= 2; } int k; }")
    assert [m.name for m in cls.methods] == ["m"]
    assert [f.name for f in cls.fields] == ["k"]


SPELLINGS = [
    (NameRef(("Paths", "BASE")), "Paths.BASE"),
    (Concat((NameRef(("BASE",)), "/x")), 'BASE + "/x"'),
    (-5, "-5"),
    (False, "false"),
    (ClassRef("app.Api"), "app.Api.class"),
    ((NameRef(("a",)), NameRef(("b",))), "{a, b}"),
    (AnnotationUse("Deprecated"), "@Deprecated"),
    (True, "true"),
    ((1, (True, 'a"b')), '{1, {true, "a\\"b"}}'),
]


@pytest.mark.parametrize("value, text", SPELLINGS, ids=[
    f"value{i}-{text}" for i, (_, text) in enumerate(SPELLINGS)])
def test_spelling_writes_each_value_kind_as_source(value, text):
    assert spelling(value) == text


def test_wildcard_import_resolves_a_simple_name_used_in_two_packages():
    model = model_from("package app.dto;\nclass Item {}\n",
                       "package app.other;\nclass Item {}\n",
                       "package app.web;\nimport app.dto.*;\nclass C {}\n")
    ctx = model.classes["app.web.C"]
    assert model.resolve_type_name("Item", ctx) == "app.dto.Item"


def test_negative_annotation_value_is_an_int_literal():
    (field,) = only_class("class A { @Min(-1) int n; }").fields
    value = field.annotations[0].attributes["value"]
    assert value == -1 and type(value) is int


def test_minus_before_a_name_is_a_syntax_error():
    with pytest.raises(JavaSyntaxError,
                       match=r"^expected number after '-' \(line 1\)$"):
        parse_source("class A { @Max(-x) int n; }")


@pytest.mark.parametrize("literal, value", [
    ("0", 0), ("7", 7), ("1_000", 1000), ("12L", 12), ("0x1F", 31),
    ("0x1d", 29), ("0xFF", 255), ("0X7fff_ffffL", 2147483647), ("010", 8),
    ("0_17l", 15), ("0b101", 5), ("0B1_1L", 3),
    # a floating-point literal is no integer
    ("2f", 0), ("1.5", 0), ("1e3", 0),
])
def test_integer_literals_are_read_as_the_jls_reads_them(literal, value):
    (field,) = only_class(f"class A {{ @Max({literal}) int n; }}").fields
    read = field.annotations[0].attributes["value"]
    assert read == value and type(read) is int


def test_annotation_types_are_skipped_whole():
    classes = parse_source("""
package app;
@interface Marker { String value() default "x"; int[] codes() default {}; }
@RestController
class C {
    @interface Inner { Class<?> type() default Object.class; }
    String name;
}
""")
    assert [c.qualified_name for c in classes] == ["app.C"]
    assert [f.name for f in classes[0].fields] == ["name"]


def test_sealed_class_with_permits_clause():
    cls = only_class("sealed class Shape extends Base permits Circle, Square "
                     "{ int sides; }")
    assert cls.superclass == TypeRef("Base")
    assert [f.name for f in cls.fields] == ["sides"]


def test_type_parameter_with_an_intersection_bound():
    cls = only_class("class Box<T extends Number & Comparable<T>, U> "
                     "{ T value; }")
    assert cls.type_params == ("T", "U")
    assert [f.type for f in cls.fields] == [TypeRef("T")]


def test_enum_constants_with_arguments_and_bodies():
    cls = only_class("""enum Level {
    LOW(1), HIGH(9) { @Override int weight() { return 2; } }, @Deprecated OFF;
    private final int code;
    Level(int code) { this.code = code; }
    Level() { this(0); }
    int weight() { return 1; }
}""")
    assert cls.enum_constants == ("LOW", "HIGH", "OFF")
    assert [f.name for f in cls.fields] == ["code"]
    assert [m.name for m in cls.methods] == ["weight"]


def test_initializer_blocks_are_skipped():
    cls = only_class("class A { static int n; static { n = 1; } "
                     "{ n += 1; } String s; }")
    assert [f.name for f in cls.fields] == ["n", "s"]
    assert cls.methods == ()


def test_one_declaration_of_several_fields():
    cls = only_class("class A { private int a, b[], c = 3; }")
    assert [(f.name, f.type.array_depth, f.initializer)
            for f in cls.fields] == [("a", 0, None), ("b", 1, None),
                                     ("c", 0, 3)]
    assert type(cls.fields[2].initializer) is int


@pytest.mark.parametrize("declaration, fields", [
    ("private java.util.Map<String, Integer> m = "
     "new java.util.HashMap<String, Integer>();", [("m", 0, None)]),
    ("Object m = Foo.<A, B>of();", [("m", 0, None)]),
    ("Object t = new Triple<A, B, C>(), u;", [("t", 0, None), ("u", 0, None)]),
    ("Object t = new HashMap<K, V[]>(), u[] = {};",
     [("t", 0, None), ("u", 1, ())]),
    ("int a = x < y ? 1 : 2, b = 3;", [("a", 0, None), ("b", 0, 3)]),
    ("int a = f(1, 2), b, c[], d = 4;",
     [("a", 0, None), ("b", 0, None), ("c", 1, None), ("d", 0, 4)]),
    ("Object m = new HashMap<String, Map<K, ? extends V>>(), n;",
     [("m", 0, None), ("n", 0, None)]),
], ids=["new-generic", "generic-call", "three-arguments", "array-argument",
        "ternary", "call", "nested-arguments"])
def test_comma_of_type_arguments_ends_no_skipped_initializer(declaration,
                                                             fields):
    cls = only_class("class A { " + declaration + " }")
    assert [(f.name, f.type.array_depth, f.initializer)
            for f in cls.fields] == fields


@pytest.mark.parametrize("declaration", [
    "int a = x < y ? 1 : 2, ;", "int a = f(x), b, ;"])
def test_comma_before_no_declarator_is_a_syntax_error(declaration):
    with pytest.raises(JavaSyntaxError, match="expected identifier"):
        only_class("class A { " + declaration + " }")


def test_file_cut_off_mid_class_is_one_parse_error(tmp_path):
    (tmp_path / "A.java").write_text("package app;\nclass A {}\n")
    (tmp_path / "Cut.java").write_text("package app;\nclass Cut {\n"
                                       "    int n;\n")
    (tmp_path / "Z.java").write_text("package app;\nclass Z {}\n")
    model = parse_project(tmp_path)
    assert sorted(model.classes) == ["app.A", "app.Z"]
    # the error names the line of the last token, not line 0
    assert [(d.code, d.file, d.line, d.message)
            for d in model.parse_diagnostics] == \
        [("PARSE_ERROR", "Cut.java", 3,
          "unexpected end of class body (line 3)")]


@pytest.mark.parametrize("tail, message", [
    ("    @GetMapping(value =\n", "unexpected end in annotation value"),
    ("    int n = 5\n", "unterminated initializer"),
    ("    List<\n", "expected type"),
], ids=["annotation", "initializer", "type"])
def test_file_cut_off_mid_member_names_the_last_line(tmp_path, tail,
                                                     message):
    (tmp_path / "A.java").write_text("package app;\nclass A {}\n")
    (tmp_path / "Cut.java").write_text("package app;\nclass Cut {\n" + tail)
    model = parse_project(tmp_path)
    assert [(d.file, d.line, d.message) for d in model.parse_diagnostics] \
        == [("Cut.java", 3, f"{message} (line 3)")]


# Each level of these costs the recursive-descent parser a few Python
# frames, so each goes past the interpreter's recursion limit.
@pytest.mark.parametrize("deep", [
    "class Deep { " + "java.util.List<" * 400 + "String" + ">" * 400
    + " f; }",
    "".join(f"class A{i} {{ " for i in range(1000)) + "}" * 1000,
    "@X(" + "{" * 1000 + "}" * 1000 + ") class Deep {}",
], ids=["type-arguments", "classes", "annotation-arrays"])
def test_deep_nesting_is_a_parse_error_of_its_file(tmp_path, deep):
    (tmp_path / "A.java").write_text("package app;\nclass A {}\n")
    (tmp_path / "Deep.java").write_text(
        "package app;\n\n" + deep + "\nclass After {}\n")
    model = parse_project(tmp_path)
    assert sorted(model.classes) == ["app.A"]
    assert [(d.code, d.file, d.line, d.message)
            for d in model.parse_diagnostics] == \
        [("PARSE_ERROR", "Deep.java", 3, "nested too deeply to parse (line 3)")]


@pytest.mark.parametrize("value, expected", [
    ('"/a"', "/a"), ("'c'", "c"), ("true", True), ("false", False),
    ("7", 7), ("-7", -7), ("0x10", 16), ('{1, "x", true}', (1, "x", True)),
    ("{}", ()), ('("/x")', "/x"), ('(("/x"))', "/x"), ("(-1)", -1),
    ('{("/a"), {(false)}}', ("/a", (False,))),
    ('("/a" + B)', Concat(("/a", NameRef(("B",))))),
])
def test_annotation_values_are_plain_python_values(value, expected):
    (field,) = only_class(f"class A {{ @X({value}) int n; }}").fields
    # repr tells `True` from `1`, which compare equal
    assert repr(field.annotations[0].attributes["value"]) == repr(expected)


@pytest.mark.parametrize("imports, written, qualified", [
    ("import org.springframework.web.bind.annotation.GetMapping;",
     "GetMapping", "org.springframework.web.bind.annotation.GetMapping"),
    ("import org.springframework.web.bind.annotation.GetMapping;",
     "com.acme.GetMapping", "com.acme.GetMapping"),
    ("import org.springframework.web.bind.annotation.*;", "GetMapping",
     None),
], ids=["imported", "qualified", "no-import"])
def test_annotation_records_the_qualified_name_its_file_gives(
        imports, written, qualified):
    (cls,) = parse_source(f"package app;\n{imports}\n"
                          f"class A {{ @{written}(\"/a\") String a() "
                          "{ return null; } }")
    (anno,) = cls.methods[0].annotations
    assert (anno.simple_name, anno.qualified_name) == ("GetMapping",
                                                       qualified)


def test_interface_method_without_a_body_and_an_unbounded_wildcard():
    cls = only_class("interface Api { List<?> all(); "
                     "default int n() { return 1; } }")
    assert [(m.name, m.return_type, m.body_facts.has_plain_return)
            for m in cls.methods] == [
        ("all", TypeRef("List", (TypeRef("java.lang.Object"),)), False),
        ("n", TypeRef("int"), True)]


# A reference tokenizer: one `re.match` per token over named groups, each
# kind its own alternative, whitespace and comments matched and dropped.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<str>\"\"\"[ \t\f]*(?:\r\n|\r|\n)(?:[^"\\]|\\.|""?(?!"))*\"\"\"
        |"(?:\\.|[^"\\])*")
    | (?P<char>'(?:\\.|[^'\\])+')
    | (?P<num>0[xX][0-9a-fA-F_]+[lL]?
        |0[bB][01_]+[lL]?
        |\d[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d+)?[fFdDlL]?
        |\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?)
    | (?P<ident>[A-Za-z_$][\w$]*|[^\W\d][\w$]*)
    | (?P<op>\.\.\.|->|::|<<=|<<|\+\+|--|&&|\|\||[+\-*/%=<>!&|^~?:;,.(){}\[\]@])
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, line) of each token of `source`."""
    tokens = []
    pos, line = 0, 1
    while pos < len(source):
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            raise JavaSyntaxError(f"unexpected character {source[pos]!r}",
                                  line)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group(), line))
        line += m.group().count("\n")
        pos = m.end()
    return tokens


def columns_as_triples(source):
    """(kind, text, line) of each token of `source`, from `tokenize`'s
    columns and `token_kind`."""
    tokens = tokenize(source)
    assert len(tokens.texts) == len(tokens.lines)
    return [(token_kind(text), text, line)
            for text, line in zip(tokens.texts, tokens.lines)]


def tokens_or_error(tokenizer, source):
    try:
        return tokenizer(source)
    except JavaSyntaxError as exc:
        return str(exc)


@pytest.mark.parametrize("source, expected", [
    # a comment does not stretch over a character no token starts with
    ("/* a */ # /* b */x", "unexpected character '#' (line 1)"),
    ("x //", [("ident", "x", 1)]),
    ("'\n' y", [("char", "'\n'", 1), ("ident", "y", 2)]),
    ('"""', "unexpected character '\"' (line 1)"),
    (".5 ... a.b", [("num", ".5", 1), ("op", "...", 1), ("ident", "a", 1),
                    ("op", ".", 1), ("ident", "b", 1)]),
    ("\n\u0663 x", [("num", "\u0663", 2), ("ident", "x", 2)]),
    # the line of an error after tokens that span lines
    ("/* a\n */ \"b\nc\" d\n`", "unexpected character '`' (line 4)"),
    ("", []),
    # identifiers hold Unicode letters and digits (JLS 3.8)
    ("\u00e9", [("ident", "\u00e9", 1)]),
    ("void f(String gr\u00f6\u00dfe) {}",
     [("ident", "void", 1), ("ident", "f", 1), ("op", "(", 1),
      ("ident", "String", 1), ("ident", "gr\u00f6\u00dfe", 1),
      ("op", ")", 1), ("op", "{", 1), ("op", "}", 1)]),
    ("\u03c0 x\u0663 $\u00fc", [("ident", "\u03c0", 1),
                               ("ident", "x\u0663", 1),
                               ("ident", "$\u00fc", 1)]),
    ("0b101 0B1_0L 0b2", [("num", "0b101", 1), ("num", "0B1_0L", 1),
                          ("num", "0", 1), ("ident", "b2", 1)]),
    # a text block ends at the first `"""` no backslash escapes
    ('""" \n a "" \\""" b"""""x', [("str", '""" \n a "" \\""" b"""', 1),
                                  ("str", '""', 2), ("ident", "x", 2)]),
    ('"""x"""', [("str", '""', 1), ("str", '"x"', 1), ("str", '""', 1)]),
])
def test_tokenize_pinned_cases(source, expected):
    assert tokens_or_error(columns_as_triples, source) == expected
    assert tokens_or_error(reference_tokenize, source) == expected


_TOKENIZER_FRAGMENTS = st.sampled_from([
    *"ab1.5e+_$ \n\t/*\"'\\#\u00e9\u00f6\u00b2\u0663`xX0{}()<>=-;",
    "/*", "*/", "//", "...", '"""', "0x1F", "0b1_0L", "class"])


@given(st.lists(_TOKENIZER_FRAGMENTS, max_size=40).map("".join))
@example("/* a */ # /* b */x")
@example("'\n'")
def test_tokenize_agrees_with_a_match_per_token(source):
    expected = tokens_or_error(reference_tokenize, source)
    assert tokens_or_error(columns_as_triples, source) == expected
    if isinstance(expected, list):  # `len()` counts tokens, not columns
        assert len(tokenize(source)) == len(expected)


def test_illegal_escape_makes_the_file_a_parse_error(tmp_path):
    (tmp_path / "A.java").write_text("package app;\nclass A {}\n")
    (tmp_path / "Api.java").write_text(
        "package app;\n@RequestMapping(\"/a\\\\q\")\nclass Api {\n"
        "  @GetMapping(\"/b\\q\") void get() {}\n}\n")
    model = parse_project(tmp_path)
    assert sorted(model.classes) == ["app.A"]
    assert [(d.code, d.file, d.line, d.message)
            for d in model.parse_diagnostics] == \
        [("PARSE_ERROR", "Api.java", 4,
          "illegal escape character 'q' (line 4)")]


def test_body_cut_off_is_an_unexpected_end_of_file():
    with pytest.raises(JavaSyntaxError,
                       match=r"^unexpected end of file \(line 2\)$"):
        parse_source("class A {\n void f() { if (x) { y(); }")


@pytest.mark.parametrize("source, error", [
    ("class A {\n  int x", ("unexpected end of file (line 2)", 2)),
    # from `skip_balanced`, which finds no `)`
    ("class A {\n  A(int a\n", ("unexpected end of file (line 2)", 2)),
    ("@A(\n", ("unexpected end in annotation value (line 1)", 1)),
], ids=["member", "constructor", "annotation"])
def test_end_of_input_is_an_error_at_the_last_line(source, error):
    assert parsed_or_error(parse_source, source) == error
    assert parsed_or_error(token_path, source) == error


def test_declarations_that_end_at_the_last_tokens_parse():
    # a body read in one match inside an enum constant's arguments, which
    # `skip_balanced` opens and then scans again
    (enum,) = parse_source(
        "enum E { X(new Object() { int f() { return (1); } }) }")
    assert (enum.qualified_name, enum.enum_constants) == ("E", ("X",))
    # a constructor with no body
    (cls,) = parse_source("class A {\n  A();\n}")
    assert (cls.qualified_name, cls.methods, cls.fields) == ("A", (), ())
    assert parse_source("") == []
    assert parse_source("// only a comment\n/* and another */\n") == []


# -- the header: `package` and `import` statements read by one regex -------

def token_path(source: str):
    """The declarations of `source` read from its tokens alone, as
    `parse_source` reads what follows the header."""
    return javasrc._Parser(tokenize(source), "<memory>").parse_unit()


def parsed_or_error(parse, source):
    try:
        return parse(source)
    except JavaSyntaxError as exc:
        return str(exc), exc.line


# Statements the regex reads, statements it declines (each of which the
# tokens read or reject), and what may come between them.
_HEADER_STATEMENTS = [
    "package app;", "package app.web ;", "package static;",
    "import a.B;", "import a.b.C;", "import a.b.*;", "import\tstatic a.B.c;",
    "import static a.B.*;", "import static a;", "import staticx.Y;",
    "import a.static;", "import class.B;", "import a.classy.B;",
    "import a./* c */B;", "import a.\n    B;", "import a.b\u00e9ta.C;",
    "import \u00e9.B;", "@NonNullApi package app;", "public package app;",
    "import a.class;", "import a.B.class.*;", "import static;",
    "import static.X;", "import static static.Y;", "import a.B",
    "import a.*.B;", "import ;", "package a.*;", "package static a;",
    "import a . B ;", "import a.B;;", ";", "import a.1B;", "import a...B;",
    "importa.B;", "import a.B*;", "package true;", "import int.X;",
    "import a.null.*;", "import static a.B.false;", "package a._;",
    "import a.goto.B;", "import a.trueish.B;", "import _x.B;",
]
_HEADER_SEPARATORS = [
    "", " ", "\n", "\n\n", "\r\n", "\t", "// c\n", "// import a.Z;\n",
    "/* c */", "/** doc\n * x */\n", "/* a * b ** / c **/", "/*/ c */",
    "/* open", "\u00a0", "\u2028", "\ufeff",
]
_HEADER_TAILS = ["\nclass A {}\n", "\n@Bar class A {}", "\nclass A {\n",
                 "\npublic class A extends B { B b; }", "\nclass A { # }",
                 ""]


@given(st.lists(st.sampled_from(_HEADER_STATEMENTS + _HEADER_SEPARATORS),
                max_size=12).map("".join),
       st.sampled_from(_HEADER_TAILS))
@example("/*\n * License\n */\n\npackage app;\n\n// x\nimport a.B;\n"
         "import static a.C.*;\n", "\nclass A {}\n")
@example("import a.B;\n// import c.B;\n", "\nclass A {}\n")
@example("import a.B;\n@Ann package app;", "\nclass A {}\n")
@example("package a; package b;", "\nclass A {}\n")
def test_header_regex_reads_what_the_tokens_read(header, tail):
    source = header + tail
    assert parsed_or_error(parse_source, source) == \
        parsed_or_error(token_path, source)


def header_statements(source: str) -> int:
    """How many statements `parse_source` reads from the start of `source`
    by `_HEADER_RE`: it stops at one with a reserved word in its name."""
    count = end = 0
    while (match := javasrc._HEADER_RE.match(source, end)) \
            and javasrc.RESERVED_WORDS.isdisjoint(match[3].split(".")):
        count, end = count + 1, match.end()
    return count


@pytest.mark.parametrize("statement, imports", [
    ("import a./* c */B;", {"B": "a.B"}),  # a comment inside
    ("import a.\n    B;", {"B": "a.B"}),  # a line break inside
    ("import a.b\u00e9ta.C;", {"C": "a.b\u00e9ta.C"}),  # outside ASCII
    ("import \u00e9.B;", {"B": "\u00e9.B"}),
    ("import a . B ;", {"B": "a.B"}),  # spaces around a dot
])
def test_header_statement_the_regex_declines_is_read_from_tokens(
        statement, imports):
    source = f"package app;\nimport x.Y;\n{statement}\nimport z.W;\n" \
        "class A {}\n"
    assert header_statements(source) == 2
    [a] = parse_source(source)
    assert (a.package, a.imports) == \
        ("app", {"Y": "x.Y", **imports, "W": "z.W"})


@pytest.mark.parametrize("statement, error", [
    ("import a.class;", "expected '*', found 'class' (line 3)"),
    ("import static;", "expected identifier, found ';' (line 3)"),
    ("import a.B", "expected ';', found 'class' (line 4)"),
    ("package a.*;", "expected ';', found '.' (line 3)"),
])
def test_header_syntax_error_is_the_token_paths(statement, error):
    source = f"package app;\nimport x.Y;\n{statement}\nclass A {{}}\n"
    assert header_statements(source) == 2
    with pytest.raises(JavaSyntaxError) as exc:
        parse_source(source)
    assert str(exc.value) == error
    assert parsed_or_error(token_path, source) == (error, exc.value.line)


def test_header_lines_carry_over_to_the_tokens():
    source = "/*\n * License\n */\npackage app;\n\n// x\nimport a.B;\n\n" \
        "class A {\n    void f() {}\n}\n"
    assert header_statements(source) == 2
    [a] = parse_source(source)
    assert [m.line for m in a.methods] == [10]
    rest, whole = tokenize(source, source.index("class"), 9), \
        tokenize(source)
    assert (rest.texts, rest.lines) == \
        (whole.texts[-len(rest):], whole.lines[-len(rest):])


@pytest.mark.parametrize("statement, word", [
    ("package static;", "static"), ("package true;", "true"),
    ("import int.X;", "int"), ("import a.static;", "static"),
    ("import class.B;", "class"), ("import a.null.*;", "null"),
    ("import static a.B.false;", "false"), ("package a._;", "_"),
    ("import static static.Y;", "static"), ("import a.goto.B;", "goto"),
])
def test_keyword_or_literal_in_a_header_name_is_a_parse_error(
        tmp_path, statement, word):
    source = f"package app;\nimport x.Y;\n{statement}\nclass A {{}}\n"
    error = f"expected identifier, found {word!r} (line 3)"
    assert parsed_or_error(parse_source, source) == (error, 3)
    assert parsed_or_error(token_path, source) == (error, 3)
    (tmp_path / "A.java").write_text(source)
    (tmp_path / "B.java").write_text("package app;\nclass B {}\n")
    assert [(d.code, d.file, d.line, d.message)
            for d in parse_project(tmp_path).parse_diagnostics] == \
        [("PARSE_ERROR", "A.java", 3, error)]


# -- declarator and file ends ---------------------------------------------

@pytest.mark.parametrize("member, return_type, throws", [
    ("int m()[] { return null; }", TypeRef("int", (), 1), ()),
    ("String[] n()[];", TypeRef("String", (), 2), ()),
    ("int[] p() @A [] [] throws IOException, a.B { throw new E(); }",
     TypeRef("int", (), 3), ("IOException", "a.B")),
])
def test_dimensions_after_the_parameter_list_belong_to_the_return_type(
        member, return_type, throws):
    # JLS 8.4: `int m()[]` declares a method that returns `int[]`
    [a] = parse_source(f"abstract class A {{\n  {member}\n  int x;\n}}\n")
    [m] = a.methods
    assert (m.return_type, m.declared_throws, m.line) == \
        (return_type, throws, 2)
    assert [f.name for f in a.fields] == ["x"]


def test_handler_with_dimensions_after_its_parameters_is_documented(
        tmp_path):
    (tmp_path / "C.java").write_text(
        "package app;\n@RestController\nclass C {\n"
        "  @GetMapping(\"/names\") String names()[] { return null; }\n}\n")
    result = generate_project(tmp_path)
    assert result.diagnostics == []
    response = result.documents["default"]["paths"]["/names"]["get"][
        "responses"]["200"]
    assert response["content"]["application/json"]["schema"] == \
        {"type": "array", "items": {"type": "string"}}


@pytest.mark.parametrize("tail, line", [
    ("public", 3), ("@Deprecated", 3), ("@A(x = {1})\nfinal abstract", 4)])
def test_annotations_or_modifiers_that_end_the_file_are_a_parse_error(
        tmp_path, tail, line):
    source = f"package app;\nclass A {{}}\n{tail}\n"
    error = f"unexpected end of file (line {line})"
    assert parsed_or_error(parse_source, source) == (error, line)
    assert parsed_or_error(token_path, source) == (error, line)
    (tmp_path / "A.java").write_text(source)
    (tmp_path / "C.java").write_text(
        "package app;\n@RestController\nclass C {\n"
        "  @GetMapping(\"/c\") String c() { return null; }\n}\n")
    result = generate_project(tmp_path)
    assert [(d.code, d.file, d.line, d.message)
            for d in result.diagnostics] == \
        [("PARSE_ERROR", "A.java", line, error)]
    assert list(result.documents["default"]["paths"]) == ["/c"]


# -- method bodies read in one match ----------------------------------------

def test_a_body_read_in_one_match_is_a_brace_pair_and_its_text():
    source = ("class A {\n  int f(int x) throws A, b.C {\n"
              "    return x; // }\n  }\n  void g() {}\n}\n")
    tokens = tokenize(source, 0, 1, True)
    assert tokens.texts == ["class", "A", "{", "int", "f", "(", "int", "x",
                            ")", "throws", "A", ",", "b", ".", "C", "{",
                            "}", "void", "g", "(", ")", "{", "}", "}"]
    assert tokens.lines == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
                            4, 5, 5, 5, 5, 5, 5, 6]
    assert {i: text.text for i, text in enumerate(tokens.texts)
            if isinstance(text, javasrc._Body)} == \
        {15: "{\n    return x; // }\n  ", 21: "{"}
    # without `bodies`, the full token stream
    assert len(tokenize(source)) == 27


def test_parse_source_tokenizes_each_file_once_whole(monkeypatch):
    calls = []
    real = javasrc.tokenize

    def counted(source, *args):
        calls.append(source)
        return real(source, *args)
    monkeypatch.setattr(javasrc, "tokenize", counted)
    source = "package app;\nrecord R(int x) {\n  int y() { return x; }\n}\n"
    (cls,) = parse_source(source)
    assert calls == [source]
    assert [m.name for m in cls.methods] == ["y"]


def same_as_token_path(source):
    """`parse_source` gives what the tokens alone give: the declarations,
    with every method's line and body facts, or the error and its line."""
    expected = parsed_or_error(token_path, source)
    assert parsed_or_error(parse_source, source) == expected
    return expected


# Statements a body may hold: words that body facts read, and literals and
# comments that hold braces; and, one draw in ten, a piece that makes a
# body one the single match declines (a character no token starts with, an
# unclosed literal or comment, an unbalanced brace) or that unbalances
# parentheses.
_BODY_BITS = st.sampled_from([
    "f(x);", "return 1;", "return null;", "throw new E();",
    "return ResponseEntity.ok(x);", "return HttpStatus.NOT_FOUND;",
    "r = () -> { return 2; };", "/* } */", "// {\n", '"}"', "'{'",
    '"""\n  { """', "\n"] * 9 + [
    "case 1 -> {", "new Y() {", "(", ")", ";", "#", '"', "/*", "'", '"""',
    "{", "}", "\\"])
_BODIES = st.recursive(
    st.lists(_BODY_BITS, max_size=3).map(" ".join),
    lambda inner: st.lists(st.one_of(_BODY_BITS,
                                     inner.map("if (a) {{ {} }}".format),
                                     inner.map("{{ {} }}".format)),
                           max_size=3).map(" ".join),
    max_leaves=10)
# Members whose bodies the single match may read: of methods, constructors,
# a record's compact constructor, initializers, an anonymous class and a
# switch in field initializers and an enum constant's argument; with heads
# and members that are broken or that the single match declines (`int
# m()[]`) one draw in four.
_MEMBERS = st.one_of(
    st.tuples(st.sampled_from(["void f()", "int g(int a)", "<T> T h(T t)",
                               "A()", "A(int a)", "R", "static"] * 3
                              + ["", "void f() x", "int m()[]"]),
              st.sampled_from(["", " throws A, b.C", " /* a */",
                               " // c\n"] * 3
                              + [" throws @T X", " /* a */ x /* b */"]),
              _BODIES).map(lambda t: f"{t[0]}{t[1]} {{ {t[2]} }}"),
    _BODIES.map("Object o = new Object() {{ int f() {{ {} }} }};".format),
    _BODIES.map("int v = switch (k) {{ case 1 -> {{ {} }} default -> 0; }};"
                .format),
    _BODIES.map("enum N {{ X(new Y() {{ void f() {{ {} }} }}), Z; }}"
                .format),
    st.sampled_from(["int x;", 'static final String P = "/a";'] * 3
                    + [";", "}", "{", '@A(x = {"/a"})']))
_SOURCES = st.tuples(
    st.sampled_from(["class A {", "record R(int x) {", "record P<T>(T t) {",
                     "enum E { X(1) { void f() { g(; } }, Y;",
                     "interface I {"] * 3 + ["class A extends B() {"]),
    st.lists(_MEMBERS, max_size=5),
    st.sampled_from(["}"] * 6 + ["", "}}"]),
).map(lambda t: "\n".join([t[0], *t[1], t[2]]))


@settings(max_examples=300)
@given(_SOURCES)
@example("class A {\n void f() /* a */ x /* b */ { } }")
@example('class A {\n void f() { @A(x = {"/a"}) // {\n// }\n } }')
@example('class A {\n void f() { s = """x"""; } }')
@example('class A {\n void f() { """\n" """#" } }')
@example('class A {\n void f() { """\n" """ } }')
@example("class A {\n void f() { # } }")
@example("class A {\n void f() { { } }")
@example("class A {\n void f() } }")
@example("class A {\n void f() " + "{" * 8 + "}" * 8 + " }")
@example("class A {\n void f() " + "{" * 9 + "}" * 9 + " }")
@example("record R(int x) { int y() { return x; } }")
@example("record P<T>(T t) { T t() { throw new E(); } }")
@example("class A {\n void f() throws @T X { throw new E(); } }")
@example("enum E { X(1) { void f() { g(; } }, Y; }")
@example("enum E { X(new Y() { void f() { g()); } }), Z; }")
@example("class A {\n Object o = new Object() { int f() { return (1; } };"
         " int b; }")
@example("class A {\n int v = switch (k) { case 1 -> { yield 2; } "
         "default -> 0; }; int b; }")
@example("class A {\n void f() { if (a) {{{{{{{{ }}}}}}}} "
         "if (b) { throw new E(); } } }")
@example("class A {\n <T> void f() { } A() { ( } }")
def test_parse_source_reads_what_the_tokens_read(source):
    same_as_token_path(source)


@pytest.mark.parametrize("source", [
    "class A {\n  void f(int a)" + " " * 64 + "int x; }",
    "class A {\n  void f() throws" + " " * 64 + "@T X { } }",
    "class A {\n  void f() " + "{ if (a) " * 30_000 + "{ throw new E(); }"
    + " }" * 30_000 + " }",
    "class A {\n  void f() " + "{ if (a) " * 30_000,
    "class A {\n  void f() { " + "/* c */ " * 20_000 + "# } }",
    "class A {\n  void f() " + "/* c */ " * 20_000 + "# }",
], ids=["spaces-after-paren", "spaces-after-throws", "deep-chain",
        "deep-chain-unclosed", "comments-before-stray-in-body",
        "comments-before-stray-after-paren"])
def test_inputs_a_backtracking_pattern_would_not_finish(source):
    same_as_token_path(source)
