"""Parse Java source trees into an immutable, queryable source model.

The parser is a hand-rolled tokenizer plus a recursive-descent pass over
declarations only. Method bodies are kept as token streams and reduced to
BodyFacts (thrown exceptions, response-entity status literals, null-only
returns); no expression-level AST is built. This covers everything the
downstream Spring analysis needs without a full Java grammar.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from .diagnostics import Diagnostic, PARSE_ERROR


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<str>"(?:\\.|[^"\\])*")
    | (?P<char>'(?:\\.|[^'\\])+')
    | (?P<num>0[xX][0-9a-fA-F_]+[lL]?
        |\d[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d+)?[fFdDlL]?
        |\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?)
    | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<op>\.\.\.|->|::|>>>=|<<=|>>=|>>>|<<|\+\+|--|&&|\|\||[+\-*/%=<>!&|^~?:;,.(){}\[\]@])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # str | char | num | ident | op
    text: str
    line: int


class JavaSyntaxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class InvalidEscapeError(JavaSyntaxError):
    """A malformed unicode escape in a string literal. javac rejects the
    whole file, so unlike other syntax errors in a field initializer it is
    not skipped."""


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise JavaSyntaxError(f"unexpected character {source[pos]!r}", line)
        kind = m.lastgroup or ""
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line))
        line += text.count("\n")
        pos = m.end()
    return tokens


def unescape_string(literal: str, line: int) -> str:
    # literal includes the surrounding double quotes
    body = literal[1:-1]
    out: list[str] = []
    i = 0
    simple = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
              "'": "'", '"': '"', "\\": "\\", "0": "\0"}
    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            if nxt == "u" and i + 5 < len(body):
                digits = body[i + 2:i + 6]
                try:
                    out.append(chr(int(digits, 16)))
                except ValueError:
                    raise InvalidEscapeError(
                        f"invalid unicode escape \\u{digits}", line) from None
                i += 6
                continue
            out.append(simple.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Annotation attribute values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class NameRef:
    """A dotted name used as a value: constant reference or enum reference."""
    parts: tuple[str, ...]


@dataclass(frozen=True)
class ClassRef:
    name: str  # dotted, without the trailing .class


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class ArrayVal:
    items: tuple["AttributeValue", ...]


@dataclass(frozen=True)
class Concat:
    parts: tuple["AttributeValue", ...]


@dataclass(frozen=True)
class AnnotationUse:
    simple_name: str
    attributes: dict[str, "AttributeValue"] = field(default_factory=dict)

    def __hash__(self):  # attributes dict excluded; identity by rendering
        return hash((self.simple_name, tuple(sorted(self.attributes))))


AttributeValue = Union[StrLit, NameRef, ClassRef, BoolLit, IntLit, ArrayVal,
                       Concat, AnnotationUse]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

PRIMITIVES = {"int", "long", "short", "byte", "float", "double", "boolean",
              "char", "void"}

MODIFIERS = {"public", "protected", "private", "static", "final", "abstract",
             "synchronized", "native", "transient", "volatile", "strictfp",
             "default", "sealed", "non-sealed"}


@dataclass(frozen=True)
class TypeRef:
    raw_name: str
    type_arguments: tuple["TypeRef", ...] = ()
    array_depth: int = 0

    @property
    def simple_name(self) -> str:
        return self.raw_name.rsplit(".", 1)[-1]


UNSPECIFIED_TYPE = TypeRef("UNSPECIFIED_TYPE")


@dataclass(frozen=True)
class BodyFacts:
    thrown_exception_types: frozenset[str] = frozenset()
    returned_status_literals: frozenset[str] = frozenset()
    returns_null_only: bool = False
    has_plain_return: bool = False


EMPTY_BODY = BodyFacts()


@dataclass(frozen=True)
class ParamDecl:
    name: str
    type: TypeRef
    annotations: tuple[AnnotationUse, ...] = ()


@dataclass(frozen=True)
class MethodDecl:
    name: str
    annotations: tuple[AnnotationUse, ...]
    parameters: tuple[ParamDecl, ...]
    return_type: TypeRef
    declared_throws: tuple[str, ...]
    body_facts: BodyFacts
    line: int = 0


@dataclass(frozen=True)
class FieldDecl:
    name: str
    type: TypeRef
    annotations: tuple[AnnotationUse, ...] = ()
    is_static: bool = False
    is_final: bool = False
    initializer: Optional[AttributeValue] = None
    line: int = 0


@dataclass
class ClassDecl:
    qualified_name: str
    kind: str  # class | interface | enum | record
    annotations: tuple[AnnotationUse, ...] = ()
    superclass: Optional[str] = None
    interfaces: tuple[str, ...] = ()
    fields: tuple[FieldDecl, ...] = ()
    methods: tuple[MethodDecl, ...] = ()
    enum_constants: tuple[str, ...] = ()
    type_params: tuple[str, ...] = ()
    package: str = ""
    imports: dict[str, str] = field(default_factory=dict)
    wildcard_imports: tuple[str, ...] = ()
    source_file: str = ""

    @property
    def simple_name(self) -> str:
        return self.qualified_name.rsplit(".", 1)[-1]

    @property
    def string_constants(self) -> dict[str, AttributeValue]:
        return {
            f.name: f.initializer
            for f in self.fields
            if f.is_static and f.is_final and f.initializer is not None
        }


@dataclass
class SourceModel:
    classes: dict[str, ClassDecl]
    parse_diagnostics: list[Diagnostic] = field(default_factory=list)

    def by_simple_name(self, simple: str) -> list[ClassDecl]:
        return [c for c in self.classes.values() if c.simple_name == simple]

    def resolve_type_name(self, name: str, ctx: ClassDecl) -> Optional[str]:
        """Resolve a (possibly simple) type name to a model class FQN."""
        if name in self.classes:
            return name
        simple = name.rsplit(".", 1)[-1] if "." in name else name
        if "." not in name:
            imported = ctx.imports.get(name)
            if imported and imported in self.classes:
                return imported
            same_pkg = f"{ctx.package}.{name}" if ctx.package else name
            if same_pkg in self.classes:
                return same_pkg
            for pkg in ctx.wildcard_imports:
                cand = f"{pkg}.{name}"
                if cand in self.classes:
                    return cand
        matches = self.by_simple_name(simple)
        if len(matches) == 1:
            return matches[0].qualified_name
        return None

    def find_class(self, name: str, ctx: ClassDecl) -> Optional[ClassDecl]:
        fq = self.resolve_type_name(name, ctx)
        return self.classes.get(fq) if fq else None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.toks = tokens
        self.pos = 0
        self.file = file

    # -- primitives --------------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[Token]:
        i = self.pos + offset
        return self.toks[i] if i < len(self.toks) else None

    def at(self, text: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.text == text

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1].line if self.toks else 0
            raise JavaSyntaxError("unexpected end of file", last)
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise JavaSyntaxError(f"expected {text!r}, found {t.text!r}", t.line)
        return t

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def skip_balanced(self, open_: str, close: str) -> list[Token]:
        """Consume from the current open_ token to its matching close."""
        start = self.expect(open_)
        depth = 1
        out: list[Token] = [start]
        while depth > 0:
            t = self.next()
            out.append(t)
            if t.text == open_:
                depth += 1
            elif t.text == close:
                depth -= 1
        return out

    def skip_generics(self):
        """Consume a balanced <...> section, counting > >> >>> closers."""
        self.expect("<")
        depth = 1
        while depth > 0:
            t = self.next()
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == ">>>":
                depth -= 3

    # -- compilation unit ---------------------------------------------------

    def parse_unit(self) -> list[ClassDecl]:
        package = ""
        imports: dict[str, str] = {}
        wildcards: list[str] = []
        classes: list[ClassDecl] = []

        while self.peek() is not None:
            if self.at(";"):
                self.next()
                continue
            if self.at("package"):
                self.next()
                package = self.parse_dotted_name()
                self.expect(";")
                continue
            if self.at("import"):
                self.next()
                static = self.accept("static")
                name = self.parse_dotted_name()
                if self.accept("."):
                    self.expect("*")
                    wildcards.append(name)
                elif not static:
                    imports[name.rsplit(".", 1)[-1]] = name
                self.expect(";")
                continue
            decl = self.parse_type_decl(package, imports, dict.fromkeys(wildcards))
            classes.extend(decl)
        for cls in classes:
            cls.package = package
            cls.imports = imports
            cls.wildcard_imports = tuple(wildcards)
            cls.source_file = self.file
        return classes

    def parse_dotted_name(self) -> str:
        parts = [self.expect_ident()]
        while (self.at(".") and self.peek(1) is not None
               and self.peek(1).kind == "ident"
               and self.peek(1).text != "class"):
            self.next()
            parts.append(self.expect_ident())
        return ".".join(parts)

    def expect_ident(self) -> str:
        t = self.next()
        if t.kind != "ident":
            raise JavaSyntaxError(f"expected identifier, found {t.text!r}", t.line)
        return t.text

    # -- annotations and modifiers -----------------------------------------

    def parse_annotations_and_modifiers(self) -> tuple[list[AnnotationUse], set[str]]:
        annos: list[AnnotationUse] = []
        mods: set[str] = set()
        while True:
            t = self.peek()
            if t is None:
                break
            if t.text == "@" and not self.at("interface", 1):
                self.next()
                annos.append(self.parse_annotation_use())
            elif t.kind == "ident" and t.text in MODIFIERS:
                self.next()
                mods.add(t.text)
            else:
                break
        return annos, mods

    def parse_annotation_use(self) -> AnnotationUse:
        name = self.parse_dotted_name()
        simple = name.rsplit(".", 1)[-1]
        attributes: dict[str, AttributeValue] = {}
        if self.accept("("):
            if not self.at(")"):
                # named attributes or a single implicit "value"
                if (self.peek() is not None and self.peek().kind == "ident"
                        and self.at("=", 1)):
                    while True:
                        attr = self.expect_ident()
                        self.expect("=")
                        attributes[attr] = self.parse_attr_expr()
                        if not self.accept(","):
                            break
                else:
                    attributes["value"] = self.parse_attr_expr()
            self.expect(")")
        return AnnotationUse(simple, attributes)

    def parse_attr_expr(self) -> AttributeValue:
        parts = [self.parse_attr_term()]
        while self.accept("+"):
            parts.append(self.parse_attr_term())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def parse_attr_term(self) -> AttributeValue:
        t = self.peek()
        if t is None:
            raise JavaSyntaxError("unexpected end in annotation value", 0)
        if t.text == "{":
            self.next()
            items: list[AttributeValue] = []
            while not self.at("}"):
                items.append(self.parse_attr_expr())
                if not self.accept(","):
                    break
            self.expect("}")
            return ArrayVal(tuple(items))
        if t.text == "@":
            self.next()
            return self.parse_annotation_use()
        if t.kind == "str":
            self.next()
            return StrLit(unescape_string(t.text, t.line))
        if t.kind == "char":
            self.next()
            return StrLit(t.text[1:-1])
        if t.kind == "num":
            self.next()
            return IntLit(_int_value(t.text))
        if t.text == "-" :
            self.next()
            inner = self.next()
            if inner.kind != "num":
                raise JavaSyntaxError("expected number after '-'", inner.line)
            return IntLit(-_int_value(inner.text))
        if t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true")
        if t.kind == "ident":
            name = self.parse_dotted_name()
            if self.at(".") and self.at("class", 1):
                self.next()
                self.next()
                return ClassRef(name)
            return NameRef(tuple(name.split(".")))
        raise JavaSyntaxError(f"unsupported annotation value {t.text!r}", t.line)

    # -- type declarations ---------------------------------------------------

    def parse_type_decl(self, package: str, imports, wildcards,
                        outer: Optional[str] = None) -> list[ClassDecl]:
        annos, mods = self.parse_annotations_and_modifiers()
        t = self.peek()
        if t is None:
            return []
        if t.text == "@" and self.at("interface", 1):
            # annotation type declaration: skip entirely
            self.next()
            self.next()
            name = self.expect_ident()
            while not self.at("{"):
                self.next()
            self.skip_balanced("{", "}")
            return []
        if t.text not in ("class", "interface", "enum", "record"):
            raise JavaSyntaxError(f"expected type declaration, found {t.text!r}",
                                  t.line)
        kind = self.next().text
        name = self.expect_ident()
        simple = f"{outer}.{name}" if outer else name
        qualified = f"{package}.{simple}" if package else simple

        type_params: tuple[str, ...] = ()
        if self.at("<"):
            type_params = self.parse_type_param_names()

        superclass: Optional[str] = None
        interfaces: list[str] = []
        if self.accept("extends"):
            first = self.parse_type_ref()
            if kind == "interface":
                interfaces.append(first.raw_name)
                while self.accept(","):
                    interfaces.append(self.parse_type_ref().raw_name)
            else:
                superclass = first.raw_name
        if self.accept("implements"):
            interfaces.append(self.parse_type_ref().raw_name)
            while self.accept(","):
                interfaces.append(self.parse_type_ref().raw_name)
        if self.accept("permits"):
            self.parse_type_ref()
            while self.accept(","):
                self.parse_type_ref()

        record_fields: list[FieldDecl] = []
        if kind == "record" and self.at("("):
            self.expect("(")
            while not self.at(")"):
                f_annos, _ = self.parse_annotations_and_modifiers()
                f_type = self.parse_type_ref()
                f_name = self.expect_ident()
                record_fields.append(FieldDecl(f_name, f_type, tuple(f_annos)))
                if not self.accept(","):
                    break
            self.expect(")")
            if self.accept("implements"):
                self.parse_type_ref()
                while self.accept(","):
                    self.parse_type_ref()

        cls = ClassDecl(qualified, kind, tuple(annos), superclass,
                        tuple(interfaces), type_params=type_params)
        nested: list[ClassDecl] = []
        fields: list[FieldDecl] = list(record_fields)
        methods: list[MethodDecl] = []
        enum_constants: list[str] = []

        self.expect("{")
        if kind == "enum":
            enum_constants = self.parse_enum_constants()
        while not self.at("}"):
            member = self.parse_member(simple_class_name=name, package=package,
                                       imports=imports, wildcards=wildcards,
                                       outer=simple)
            if member is None:
                continue
            if isinstance(member, _MultiField):
                fields.extend(member)
            elif isinstance(member, list):
                nested.extend(member)
            elif isinstance(member, MethodDecl):
                methods.append(member)
            elif isinstance(member, FieldDecl):
                fields.append(member)
        self.expect("}")

        cls.fields = tuple(fields)
        cls.methods = tuple(methods)
        cls.enum_constants = tuple(enum_constants)
        return [cls] + nested

    def parse_type_param_names(self) -> tuple[str, ...]:
        self.expect("<")
        names = []
        while True:
            names.append(self.expect_ident())
            if self.accept("extends"):
                self.parse_type_ref()
                while self.accept("&"):
                    self.parse_type_ref()
            if self.accept(","):
                continue
            t = self.next()
            if t.text == ">":
                break
            if t.text in (">>", ">>>"):
                self.toks.insert(self.pos, Token("op", t.text[1:], t.line))
                break
            raise JavaSyntaxError(f"expected '>', found {t.text!r}", t.line)
        return tuple(names)

    def parse_enum_constants(self) -> list[str]:
        constants: list[str] = []
        while True:
            if self.at(";"):
                self.next()
                break
            if self.at("}"):
                break
            annos, _ = self.parse_annotations_and_modifiers()
            constants.append(self.expect_ident())
            if self.at("("):
                self.skip_balanced("(", ")")
            if self.at("{"):
                self.skip_balanced("{", "}")
            if not self.accept(","):
                if self.accept(";"):
                    break
        return constants

    def parse_member(self, simple_class_name: str, package, imports, wildcards,
                     outer: str):
        if self.accept(";"):
            return None
        if self.at("{"):  # instance initializer
            self.skip_balanced("{", "}")
            return None
        save = self.pos
        annos, mods = self.parse_annotations_and_modifiers()
        t = self.peek()
        if t is None:
            raise JavaSyntaxError("unexpected end of class body", 0)
        if t.text == "{":  # static or instance initializer block
            self.skip_balanced("{", "}")
            return None
        if t.text in ("class", "interface", "enum", "record") or (
                t.text == "@" and self.at("interface", 1)):
            self.pos = save
            return self.parse_type_decl(package, imports, wildcards, outer=outer)

        if self.at("<"):  # method type parameters
            self.skip_generics()

        # constructor: Name (
        if t.kind == "ident" and t.text == simple_class_name and self.at("(", 1):
            self.next()
            self.skip_balanced("(", ")")
            if self.accept("throws"):
                self.parse_type_ref()
                while self.accept(","):
                    self.parse_type_ref()
            if self.at("{"):
                self.skip_balanced("{", "}")
            else:
                self.expect(";")
            return None

        decl_type = self.parse_type_ref()
        name_tok = self.next()
        if name_tok.kind != "ident":
            raise JavaSyntaxError(
                f"expected member name, found {name_tok.text!r}", name_tok.line)

        if self.at("("):
            return self.parse_method_rest(name_tok, annos, decl_type)
        return self.parse_field_rest(name_tok, annos, mods, decl_type)

    def parse_method_rest(self, name_tok: Token, annos, return_type: TypeRef
                          ) -> MethodDecl:
        self.expect("(")
        params: list[ParamDecl] = []
        while not self.at(")"):
            p_annos, _ = self.parse_annotations_and_modifiers()
            p_type = self.parse_type_ref()
            if self.accept("..."):
                p_type = TypeRef(p_type.raw_name, p_type.type_arguments,
                                 p_type.array_depth + 1)
            if self.at("this"):  # receiver parameter
                self.next()
            else:
                p_name = self.expect_ident()
                extra = 0
                while self.at("[") :
                    self.next()
                    self.expect("]")
                    extra += 1
                if extra:
                    p_type = TypeRef(p_type.raw_name, p_type.type_arguments,
                                     p_type.array_depth + extra)
                params.append(ParamDecl(p_name, p_type, tuple(p_annos)))
            if not self.accept(","):
                break
        self.expect(")")
        throws: list[str] = []
        if self.accept("throws"):
            throws.append(self.parse_type_ref().raw_name)
            while self.accept(","):
                throws.append(self.parse_type_ref().raw_name)
        facts = EMPTY_BODY
        if self.at("{"):
            body = self.skip_balanced("{", "}")
            facts = extract_body_facts(body)
        else:
            if self.accept("default"):  # annotation member default
                self.parse_attr_expr()
            self.expect(";")
        return MethodDecl(name_tok.text, tuple(annos), tuple(params),
                          return_type, tuple(throws), facts, name_tok.line)

    def parse_field_rest(self, name_tok: Token, annos, mods, decl_type: TypeRef
                         ) -> FieldDecl:
        fields: list[FieldDecl] = []
        name = name_tok.text
        while True:
            ftype = decl_type
            extra = 0
            while self.at("["):
                self.next()
                self.expect("]")
                extra += 1
            if extra:
                ftype = TypeRef(ftype.raw_name, ftype.type_arguments,
                                ftype.array_depth + extra)
            initializer: Optional[AttributeValue] = None
            if self.accept("="):
                initializer = self.parse_initializer_expr()
            fields.append(FieldDecl(name, ftype, tuple(annos),
                                    "static" in mods, "final" in mods,
                                    initializer, name_tok.line))
            if self.accept(","):
                name = self.expect_ident()
                continue
            break
        self.expect(";")
        # Multi-declarator lines are rare in the analyzed corpus; keep the
        # first declarator's record carrying all, callers see each field.
        if len(fields) == 1:
            return fields[0]
        return _MultiField(fields)  # type: ignore[return-value]

    def parse_initializer_expr(self) -> Optional[AttributeValue]:
        """Parse a field initializer, returning an AttributeValue when it
        fits the constant-expression subset, else None (tokens skipped)."""
        save = self.pos
        try:
            value = self.parse_attr_expr()
            if self.at(";") or self.at(","):
                return value
        except InvalidEscapeError:
            raise
        except JavaSyntaxError:
            pass
        self.pos = save
        depth = 0
        while True:
            t = self.peek()
            if t is None:
                raise JavaSyntaxError("unterminated initializer", 0)
            if depth == 0 and t.text in (";", ","):
                return None
            if t.text in ("(", "{", "["):
                depth += 1
            elif t.text in (")", "}", "]"):
                depth -= 1
            self.next()

    # -- types ---------------------------------------------------------------

    def parse_type_ref(self) -> TypeRef:
        t = self.peek()
        if t is None:
            raise JavaSyntaxError("expected type", 0)
        if t.text == "?":
            self.next()
            if self.accept("extends") or self.accept("super"):
                return self.parse_type_ref()
            return TypeRef("java.lang.Object")
        if t.text in PRIMITIVES:
            self.next()
            name = t.text
            args: tuple[TypeRef, ...] = ()
        else:
            name = self.parse_dotted_name()
            args = ()
            if self.at("<"):
                args = self.parse_type_arguments()
            # nested generic member access like Map.Entry<K,V> handled by
            # parse_dotted_name already (no generics in the middle supported)
        depth = 0
        while self.at("[") and self.at("]", 1):
            self.next()
            self.next()
            depth += 1
        return TypeRef(name, args, depth)

    def parse_type_arguments(self) -> tuple[TypeRef, ...]:
        self.expect("<")
        if self.accept(">"):  # diamond
            return ()
        args = [self.parse_type_ref()]
        while self.accept(","):
            args.append(self.parse_type_ref())
        # closing may come as > or be fused into >> / >>> by the tokenizer
        t = self.next()
        if t.text == ">":
            pass
        elif t.text == ">>":
            self.toks.insert(self.pos, Token("op", ">", t.line))
        elif t.text == ">>>":
            self.toks.insert(self.pos, Token("op", ">>", t.line))
        else:
            raise JavaSyntaxError(f"expected '>', found {t.text!r}", t.line)
        return tuple(args)


class _MultiField(list):
    """Internal: several FieldDecls produced by one declaration line."""


def _int_value(text: str) -> int:
    cleaned = text.replace("_", "").rstrip("lLfFdD")
    try:
        return int(cleaned, 0)
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Body fact extraction
# ---------------------------------------------------------------------------

_BUILDER_STATUS = {
    "ok": "OK",
    "created": "CREATED",
    "accepted": "ACCEPTED",
    "noContent": "NO_CONTENT",
    "badRequest": "BAD_REQUEST",
    "notFound": "NOT_FOUND",
    "unprocessableEntity": "UNPROCESSABLE_ENTITY",
    "internalServerError": "INTERNAL_SERVER_ERROR",
}

_RESPONSE_WRAPPERS = {"ResponseEntity", "DeferredResult"}


def _split_statements(body: list[Token]) -> Iterable[list[Token]]:
    """Split a `{...}` token stream into ;-terminated statements.

    Semicolons inside parentheses (for-headers, lambdas in calls) do not
    terminate a statement. Block braces are passed through, so statements in
    nested blocks appear as ordinary statements.
    """
    current: list[Token] = []
    paren = 0
    for tok in body[1:-1]:
        if tok.text == "(":
            paren += 1
        elif tok.text == ")":
            paren = max(0, paren - 1)
        if tok.text == ";" and paren == 0:
            if current:
                yield current
            current = []
        elif tok.text in ("{", "}") and paren == 0:
            if current:
                yield current
            current = []
        else:
            current.append(tok)
    if current:
        yield current


def _statement_statuses(stmt: list[Token]) -> set[str]:
    statuses: set[str] = set()
    for i, tok in enumerate(stmt):
        if tok.text == "HttpStatus" and i + 2 < len(stmt) \
                and stmt[i + 1].text == "." and stmt[i + 2].kind == "ident":
            statuses.add(stmt[i + 2].text)
        if tok.text in _RESPONSE_WRAPPERS and i + 2 < len(stmt) \
                and stmt[i + 1].text == ".":
            member = stmt[i + 2].text
            if member == "status" and i + 4 < len(stmt) \
                    and stmt[i + 3].text == "(" and stmt[i + 4].kind == "num":
                statuses.add(str(_int_value(stmt[i + 4].text)))
            elif member in _BUILDER_STATUS and i + 3 < len(stmt) \
                    and stmt[i + 3].text == "(":
                statuses.add(_BUILDER_STATUS[member])
    return statuses


def extract_body_facts(body: list[Token]) -> BodyFacts:
    thrown: set[str] = set()
    statuses: set[str] = set()
    returns = 0
    null_returns = 0
    plain_return = False
    for stmt in _split_statements(body):
        stmt_statuses = _statement_statuses(stmt)
        statuses |= stmt_statuses
        head = stmt[0].text if stmt else ""
        if head == "throw":
            if len(stmt) >= 3 and stmt[1].text == "new":
                name_parts = []
                j = 2
                while j < len(stmt) and (stmt[j].kind == "ident"
                                         or stmt[j].text == "."):
                    if stmt[j].kind == "ident":
                        name_parts.append(stmt[j].text)
                    j += 1
                if name_parts:
                    thrown.add(".".join(name_parts))
            continue
        ret_idx = next((i for i, t in enumerate(stmt) if t.text == "return"), None)
        if ret_idx is not None:
            returns += 1
            rest = stmt[ret_idx + 1:]
            if len(rest) == 1 and rest[0].text == "null":
                null_returns += 1
            elif not stmt_statuses:
                plain_return = True
    return BodyFacts(
        thrown_exception_types=frozenset(thrown),
        returned_status_literals=frozenset(statuses),
        returns_null_only=returns > 0 and null_returns == returns,
        has_plain_return=plain_return,
    )


# ---------------------------------------------------------------------------
# Project parsing and model-level operations
# ---------------------------------------------------------------------------

class ProjectParseError(Exception):
    pass


class SupertypeCycleError(ProjectParseError):
    """Classes that extend each other: no analysis of the tree is sound."""


def parse_source(source: str, file: str = "<memory>") -> list[ClassDecl]:
    return _Parser(tokenize(source), file).parse_unit()


def parse_project(root_dir: os.PathLike | str) -> SourceModel:
    root = Path(root_dir)
    if not root.is_dir():
        raise ProjectParseError(f"project root does not exist: {root}")
    files = sorted(root.rglob("*.java"))
    if not files:
        raise ProjectParseError(f"no .java files under {root}")
    classes: dict[str, ClassDecl] = {}
    diagnostics: list[Diagnostic] = []
    parsed_any = False
    for path in files:
        rel = str(path.relative_to(root))
        try:
            text = path.read_text(encoding="utf-8")
            for cls in parse_source(text, rel):
                classes[cls.qualified_name] = cls
            parsed_any = True
        except (JavaSyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "line", 0)
            diagnostics.append(Diagnostic(PARSE_ERROR, str(exc), rel, line))
    if not parsed_any:
        details = "; ".join(d.render() for d in diagnostics)
        raise ProjectParseError(f"no parsable .java files under {root}: {details}")
    model = SourceModel(classes, diagnostics)
    _resolve_supertypes(model)
    return model


def _resolve_supertypes(model: SourceModel):
    for cls in model.classes.values():
        if cls.superclass:
            fq = model.resolve_type_name(cls.superclass, cls)
            if fq and fq != cls.qualified_name:
                cls.superclass = fq


def supertype_chain(cls: ClassDecl, model: SourceModel) -> list[ClassDecl]:
    chain = [cls]
    seen = {cls.qualified_name}
    cur = cls
    while cur.superclass:
        nxt = model.classes.get(cur.superclass)
        if nxt is None:
            nxt_fq = model.resolve_type_name(cur.superclass, cur)
            nxt = model.classes.get(nxt_fq) if nxt_fq else None
        if nxt is None:
            break
        if nxt.qualified_name in seen:
            cycle = " -> ".join(c.qualified_name for c in chain)
            raise SupertypeCycleError(
                f"inheritance cycle: {cycle} -> {nxt.qualified_name}")
        chain.append(nxt)
        seen.add(nxt.qualified_name)
        cur = nxt
    return chain


def resolve_string_constant(value: Optional[AttributeValue], ctx: ClassDecl,
                            model: SourceModel,
                            _active: Optional[set] = None) -> Optional[str]:
    """Resolve a string-valued annotation attribute to its literal value.

    Returns None when the value cannot be resolved statically.
    """
    if value is None:
        return None
    if _active is None:
        _active = set()
    if isinstance(value, StrLit):
        return value.value
    if isinstance(value, Concat):
        parts = [resolve_string_constant(p, ctx, model, _active)
                 for p in value.parts]
        if any(p is None for p in parts):
            return None
        return "".join(parts)  # type: ignore[arg-type]
    if isinstance(value, NameRef):
        return _resolve_name_ref(value, ctx, model, _active)
    return None


def _resolve_name_ref(ref: NameRef, ctx: ClassDecl, model: SourceModel,
                      active: set) -> Optional[str]:
    if len(ref.parts) == 1:
        const = ref.parts[0]
        candidates = supertype_chain(ctx, model)
    else:
        owner_name = ".".join(ref.parts[:-1])
        const = ref.parts[-1]
        owner = model.find_class(owner_name, ctx)
        if owner is None:
            return None
        candidates = supertype_chain(owner, model)
    for cls in candidates:
        init = cls.string_constants.get(const)
        if init is not None:
            key = (cls.qualified_name, const)
            if key in active:
                return None
            active.add(key)
            try:
                return resolve_string_constant(init, cls, model, active)
            finally:
                active.discard(key)
    # last resort: unique constant with this name anywhere in the model
    if len(ref.parts) == 1:
        hits = [
            (cls, cls.string_constants[const])
            for cls in model.classes.values()
            if const in cls.string_constants
        ]
        if len(hits) == 1:
            cls, init = hits[0]
            key = (cls.qualified_name, const)
            if key in active:
                return None
            active.add(key)
            try:
                return resolve_string_constant(init, cls, model, active)
            finally:
                active.discard(key)
    return None
