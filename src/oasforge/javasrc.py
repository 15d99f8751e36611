"""Parse Java source trees into an immutable, queryable source model.

The tokenizer is one `findall` of one regular expression over the whole
file: each match is a run of whitespace and comments and then one token, so
the regex engine does the scanning. Python only fills two columns, each
token's text and the line it starts on, with no object per token; a token's
kind is computed from its text when a rule asks for it. Identifiers may
hold any Unicode letter or digit (JLS 3.8). The parser is a
recursive-descent pass over the texts, for declarations only; it reads the
lines only for the line of a declaration or of an error. Each method body
is a slice of the texts, read once, statement by statement, into BodyFacts
(thrown exceptions, response-entity status literals, plain returns); no
expression-level AST is built. This covers everything the downstream
Spring analysis needs without a full Java grammar.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .diagnostics import DUPLICATE_CLASS, PARSE_ERROR, Diagnostic, FatalError


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One match per token: a run of whitespace and comments, then a token, or
# else the end of the file or the one character no token starts with. That
# last alternative matches wherever a token does not, so `findall` skips no
# character, and the engine never backtracks into the run: a comment cannot
# stretch over the character that stopped the token after it. Every `>` is
# a token of its own, so nested type arguments close one level per token;
# a shift operator, which only bodies hold, is read as several tokens. An
# identifier may hold any Unicode letter or digit (JLS 3.8); one that starts
# with a letter outside ASCII is the last alternative, so every token of
# ASCII source matches before it is tried.
_TOKEN_RE = re.compile(
    r"""
    ((?:\s+|//[^\n]*|/\*.*?\*/)*)
    (?:
      ( "(?:\\.|[^"\\])*"
      | '(?:\\.|[^'\\])+'
      | 0[xX][0-9a-fA-F_]+[lL]?
      | 0[bB][01_]+[lL]?
      | \d[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d+)?[fFdDlL]?
      | \.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
      | [A-Za-z_$][\w$]*
      | \.\.\.|->|::|<<=|<<|\+\+|--|&&|\|\||[+\-*/%=<>!&|^~?:;,.(){}\[\]@]
      | [^\W\d][\w$]*
      )
    | (\Z|.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# A token's kind by its first character. The letters are spelled out:
# importing `string` for them takes about 1 ms of each run's start-up.
_KIND_BY_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$",
                    "ident"),
    '"': "str", "'": "char"}


def token_kind(text: str) -> str:
    """The kind of a token, `str`, `char`, `num`, `ident` or `op`, by its
    first character: a token that `_KIND_BY_FIRST` does not name is a
    number when it starts with a decimal digit (re's `\\d`) or with `.` and
    a digit, else an operator when it starts with an ASCII character, else
    an identifier."""
    first = text[0]
    kind = _KIND_BY_FIRST.get(first)
    if kind:
        return kind
    if first.isdecimal() or first == "." and text[1:2].isdecimal():
        return "num"
    return "op" if first.isascii() else "ident"


class Tokens:
    """A file's tokens as two columns, with no object per token: `texts[i]`
    is the text of token i and `lines[i]` the line it starts on. `len()` is
    the number of tokens."""
    __slots__ = ("texts", "lines")

    def __init__(self, texts: list[str], lines: list[int]):
        self.texts = texts
        self.lines = lines

    def __len__(self) -> int:
        return len(self.texts)


class JavaSyntaxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class InvalidEscapeError(JavaSyntaxError):
    """A malformed escape sequence in a string literal. javac rejects the
    whole file, so unlike other syntax errors in a field initializer it is
    not skipped."""


def tokenize(source: str) -> Tokens:
    texts: list[str] = []
    lines: list[int] = []
    add_text, add_line = texts.append, lines.append
    line = 1
    for space, text, stray in _TOKEN_RE.findall(source):
        if "\n" in space:
            line += space.count("\n")
        if text:
            add_text(text)
            add_line(line)
            if text[0] in "\"'":  # a literal may hold a raw newline
                line += text.count("\n")
        elif stray:
            raise JavaSyntaxError(f"unexpected character {stray!r}", line)
        else:  # the end of the file
            break
    return Tokens(texts, lines)


# An escape sequence of a string literal (JLS 3.10.7): a unicode escape
# (JLS 3.3), which may repeat its `u`, an octal escape of up to \377, or
# one character, which must be one that `_SIMPLE_ESCAPES` names.
_ESCAPE_RE = re.compile(r"\\(?:u+(.{0,4})|([0-3][0-7]{0,2}|[4-7][0-7]?)|(.))",
                        re.DOTALL)
_HEX4_RE = re.compile(r"[0-9a-fA-F]{4}")
_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   "s": " ", '"': '"', "'": "'", "\\": "\\"}


def unescape_string(literal: str, line: int) -> str:
    """The value of a string literal token, quotes included, as javac reads
    it."""
    def unescape(m: re.Match) -> str:
        digits, octal, char = m.groups()
        if digits is not None:
            if not _HEX4_RE.fullmatch(digits):
                raise InvalidEscapeError(
                    f"invalid unicode escape \\u{digits}", line)
            return chr(int(digits, 16))
        if octal is not None:
            return chr(int(octal, 8))
        if char not in _SIMPLE_ESCAPES:
            raise InvalidEscapeError(f"illegal escape character {char!r}",
                                     line)
        return _SIMPLE_ESCAPES[char]

    text = _ESCAPE_RE.sub(unescape, literal[1:-1])
    try:
        # joins each \uD83D\uDE00-style pair into one code point
        return text.encode("utf-16", "surrogatepass").decode("utf-16")
    except UnicodeDecodeError:
        raise InvalidEscapeError("unpaired surrogate escape", line) from None


# ---------------------------------------------------------------------------
# Annotation attribute values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NameRef:
    """A dotted name used as a value: constant reference or enum reference."""
    parts: tuple[str, ...]


@dataclass(frozen=True)
class ClassRef:
    name: str  # dotted, without the trailing .class


@dataclass(frozen=True)
class Concat:
    parts: tuple["AttributeValue", ...]


@dataclass(frozen=True)
class AnnotationUse:
    simple_name: str
    attributes: dict[str, "AttributeValue"] = field(default_factory=dict)
    # the name as written when it is qualified, else the single-type import
    # of the simple name in the annotation's file, else None
    qualified_name: Optional[str] = None

    def items(self, attr: str) -> tuple["AttributeValue", ...]:
        """The elements of attribute `attr`: an array's items, its one
        value, or none when it is not set."""
        value = self.attributes.get(attr)
        if value is None:
            return ()
        return value if isinstance(value, tuple) else (value,)


# A string or char literal is a `str`, `true` or `false` a `bool`, a number
# an `int`, and `{…}` a `tuple` of values.
AttributeValue = Union[str, bool, int, tuple, NameRef, ClassRef, Concat,
                       AnnotationUse]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

PRIMITIVES = {"int", "long", "short", "byte", "float", "double", "boolean",
              "char", "void"}

MODIFIERS = {"public", "protected", "private", "static", "final", "abstract",
             "synchronized", "native", "transient", "volatile", "strictfp",
             "default", "sealed"}


@dataclass(frozen=True)
class TypeRef:
    raw_name: str
    type_arguments: tuple["TypeRef", ...] = ()
    array_depth: int = 0

    @property
    def simple_name(self) -> str:
        return self.raw_name.rsplit(".", 1)[-1]


UNSPECIFIED_TYPE = TypeRef("UNSPECIFIED_TYPE")
OBJECT_TYPE = TypeRef("java.lang.Object")


@dataclass(frozen=True)
class BodyFacts:
    thrown_exception_types: frozenset[str] = frozenset()
    returned_status_literals: frozenset[str] = frozenset()
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
    superclass: Optional[TypeRef] = None
    fields: tuple[FieldDecl, ...] = ()
    methods: tuple[MethodDecl, ...] = ()
    enum_constants: tuple[str, ...] = ()
    type_params: tuple[str, ...] = ()
    package: str = ""
    imports: dict[str, str] = field(default_factory=dict)
    wildcard_imports: tuple[str, ...] = ()
    # member name -> the type a single-static import takes it from
    static_imports: dict[str, str] = field(default_factory=dict)
    # the types whose static members a static import on demand takes
    static_wildcard_imports: tuple[str, ...] = ()
    source_file: str = ""

    @property
    def simple_name(self) -> str:
        return self.qualified_name.rsplit(".", 1)[-1]

    @cached_property
    def lexical_scopes(self) -> list[str]:
        """The qualified names of this class and of each class that
        lexically encloses it, innermost first."""
        prefix = f"{self.package}." if self.package else ""
        nested = self.qualified_name[len(prefix):].split(".")
        return [prefix + ".".join(nested[:depth])
                for depth in range(len(nested), 0, -1)]

    @cached_property
    def string_constants(self) -> dict[str, AttributeValue]:
        """Static final fields with a constant initializer, by name. Built
        on first use, after parsing has set `fields`."""
        return {
            f.name: f.initializer
            for f in self.fields
            if f.is_static and f.is_final and f.initializer is not None
        }


@dataclass
class SourceModel:
    """The parsed classes of a tree, by fully qualified name.

    This is the only code that decides which class a name means.
    `resolve_type_name` tries, in order: the name as a fully qualified
    name, a member type of the naming class or of a class that lexically
    encloses it, innermost first (JLS 6.4.1; inherited member types are
    not searched), the single-type import of the naming class, the naming
    class's own package, its wildcard imports, the member types of the
    types its static imports on demand name, and last a class anywhere in
    the model whose simple name is unique. In that last step a qualified name
    only matches a class whose fully qualified name ends with "." plus the
    name, so `Outer.Inner` finds `app.Outer.Inner` but `java.util.Date`
    does not find `app.Date`. A single-type import decides alone, as it
    shadows every other class of its simple name: a name imported from
    outside the model resolves to nothing. The raw name of each
    `superclass` is resolved once, here at construction, so
    `superclass_of` only looks up fully qualified names; a superclass that
    does not resolve keeps its source spelling and ends the chain. Its type
    arguments are qualified there too, by `qualify_arguments`.
    Construction then raises SupertypeCycleError if a chain of superclasses
    comes back to one of its classes, so every later walk up a chain ends.

    Construction builds a simple name → classes index, in `classes` order,
    so `by_simple_name` does not walk `classes`. The index is valid
    because `classes` is not changed after construction.
    """
    classes: dict[str, ClassDecl]
    parse_diagnostics: list[Diagnostic] = field(default_factory=list)

    def __post_init__(self):
        index: dict[str, list[ClassDecl]] = {}
        for cls in self.classes.values():
            index.setdefault(cls.simple_name, []).append(cls)
        self._by_simple_name = {k: tuple(v) for k, v in index.items()}
        for cls in self.classes.values():
            parent = cls.superclass
            if parent:
                resolved = self.resolve_type_name(parent.raw_name, cls)
                if resolved:
                    parent = replace(parent, raw_name=resolved)
                cls.superclass = self.qualify_arguments(parent, cls)
        checked: set[str] = set()
        for cls in self.classes.values():
            chain: dict[str, None] = {}  # ordered, with constant-time `in`
            cur: Optional[ClassDecl] = cls
            while cur is not None and cur.qualified_name not in checked:
                if cur.qualified_name in chain:
                    cycle = " -> ".join([*chain, cur.qualified_name])
                    raise SupertypeCycleError(f"inheritance cycle: {cycle}")
                chain[cur.qualified_name] = None
                cur = self.superclass_of(cur)
            checked.update(chain)

    def superclass_of(self, cls: ClassDecl) -> Optional[ClassDecl]:
        """The model class `cls` extends; None at the top of the chain or
        where the superclass is outside the model."""
        return cls.superclass and self.classes.get(cls.superclass.raw_name)

    def by_simple_name(self, simple: str) -> tuple[ClassDecl, ...]:
        return self._by_simple_name.get(simple, ())

    def resolve_type_name(self, name: str, ctx: ClassDecl) -> Optional[str]:
        """Resolve a (possibly simple) type name to a model class FQN."""
        if name in self.classes:
            return name
        if "." in name:
            matches = [c for c in self.by_simple_name(name.rsplit(".", 1)[1])
                       if c.qualified_name.endswith("." + name)]
        else:
            for owner in ctx.lexical_scopes:  # member types shadow imports
                if f"{owner}.{name}" in self.classes:
                    return f"{owner}.{name}"
            imported = ctx.imports.get(name)
            if imported:  # shadows every class of the same simple name
                return imported if imported in self.classes else None
            same_pkg = f"{ctx.package}.{name}" if ctx.package else name
            if same_pkg in self.classes:
                return same_pkg
            for owner in ctx.wildcard_imports + ctx.static_wildcard_imports:
                cand = f"{owner}.{name}"
                if cand in self.classes:
                    return cand
            matches = self.by_simple_name(name)
        if len(matches) == 1:
            return matches[0].qualified_name
        return None

    def qualify_arguments(self, t: TypeRef, ctx: ClassDecl) -> TypeRef:
        """`t` with each type argument, at any depth, that names a model
        class in `ctx`, or another class by a single-type import of `ctx`,
        spelled by its fully qualified name, so it keeps its meaning where
        a generic class binds it. Type variables of `ctx`, and names that
        only a wildcard import can give, stay as written."""
        if not t.type_arguments:
            return t
        args = []
        for arg in t.type_arguments:
            arg = self.qualify_arguments(arg, ctx)
            resolved = arg.raw_name not in ctx.type_params and (
                self.resolve_type_name(arg.raw_name, ctx)
                or ctx.imports.get(arg.raw_name))
            args.append(replace(arg, raw_name=resolved) if resolved else arg)
        return replace(t, type_arguments=tuple(args))

    def find_class(self, name: str, ctx: ClassDecl) -> Optional[ClassDecl]:
        fq = self.resolve_type_name(name, ctx)
        return self.classes.get(fq) if fq else None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Reads the declarations of one file from its token columns. Every
    rule reads `texts`; `lines` is read only for the line of a declaration
    or of an error."""

    def __init__(self, tokens: Tokens, file: str):
        self.texts = tokens.texts
        self.lines = tokens.lines
        self.n = len(self.texts)
        self.pos = 0
        self.file = file
        # simple name -> qualified name, by the single-type imports read so
        # far; they precede every annotation of the file
        self.imports: dict[str, str] = {}

    # -- primitives --------------------------------------------------------

    def peek(self) -> Optional[str]:
        return self.texts[self.pos] if self.pos < self.n else None

    def at(self, text: str, offset: int = 0) -> bool:
        i = self.pos + offset
        return i < self.n and self.texts[i] == text

    def next(self) -> str:
        if self.pos >= self.n:
            raise JavaSyntaxError("unexpected end of file", self.last_line())
        self.pos += 1
        return self.texts[self.pos - 1]

    def line(self, offset: int = 0) -> int:
        """The line of the token at `offset` from the current one: -1 is
        the token just read."""
        return self.lines[self.pos + offset]

    def last_line(self) -> int:
        """The line of the last token, where a cut-off file ends."""
        return self.lines[-1] if self.lines else 0

    def expect(self, text: str) -> None:
        found = self.next()
        if found != text:
            raise JavaSyntaxError(f"expected {text!r}, found {found!r}",
                                  self.line(-1))

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def skip_balanced(self, open_: str, close: str) -> list[str]:
        """Consume from the current open_ token to its matching close, and
        return those tokens' texts. It jumps from one `close` to the next
        and counts the `open_` between them, so the scan runs in C."""
        start = self.pos
        self.expect(open_)
        texts = self.texts
        depth, i = 1, self.pos
        while True:
            try:
                end = texts.index(close, i)
            except ValueError:
                raise JavaSyntaxError("unexpected end of file",
                                      self.last_line()) from None
            depth += texts[i:end].count(open_) - 1
            if not depth:
                self.pos = end + 1
                return texts[start:self.pos]
            i = end + 1

    # -- compilation unit ---------------------------------------------------

    def parse_unit(self) -> list[ClassDecl]:
        package = ""
        imports = self.imports
        static_imports: dict[str, str] = {}
        wildcards: list[str] = []
        static_wildcards: list[str] = []
        classes: list[ClassDecl] = []

        while self.pos < self.n:
            text = self.texts[self.pos]
            if text == ";":
                self.pos += 1
                continue
            if text == "package":
                self.pos += 1
                package = self.parse_dotted_name()
                self.expect(";")
                continue
            if text == "import":
                self.pos += 1
                static = self.accept("static")
                name = self.parse_dotted_name()
                if self.accept("."):
                    self.expect("*")
                    (static_wildcards if static else wildcards).append(name)
                elif static:
                    owner, _, member = name.rpartition(".")
                    static_imports[member] = owner
                else:
                    imports[name.rsplit(".", 1)[-1]] = name
                self.expect(";")
                continue
            classes.extend(self.parse_type_decl(package))
        for cls in classes:
            cls.package = package
            cls.imports = imports
            cls.wildcard_imports = tuple(wildcards)
            cls.static_imports = static_imports
            cls.static_wildcard_imports = tuple(static_wildcards)
            cls.source_file = self.file
        return classes

    def parse_dotted_name(self) -> str:
        parts = [self.expect_ident()]
        texts, pos = self.texts, self.pos
        while pos + 1 < self.n and texts[pos] == ".":
            text = texts[pos + 1]
            if text == "class" or token_kind(text) != "ident":
                break
            pos += 2
            parts.append(text)
        self.pos = pos
        return ".".join(parts)

    def expect_ident(self) -> str:
        text = self.next()
        if token_kind(text) != "ident":
            raise JavaSyntaxError(f"expected identifier, found {text!r}",
                                  self.line(-1))
        return text

    # -- annotations and modifiers -----------------------------------------

    def parse_annotations_and_modifiers(self) -> tuple[list[AnnotationUse], set[str]]:
        annos: list[AnnotationUse] = []
        mods: set[str] = set()
        while self.pos < self.n:
            text = self.texts[self.pos]
            if text == "@" and not self.at("interface", 1):
                self.pos += 1
                annos.append(self.parse_annotation_use())
            elif text in MODIFIERS:
                self.pos += 1
                mods.add(text)
            elif text == "non" and self.at("-", 1) and self.at("sealed", 2):
                # `non-sealed` is three tokens (JLS 3.9)
                self.pos += 3
                mods.add("non-sealed")
            else:
                break
        return annos, mods

    def parse_annotation_use(self) -> AnnotationUse:
        name = self.parse_dotted_name()
        simple = name.rsplit(".", 1)[-1]
        qualified = name if "." in name else self.imports.get(name)
        attributes: dict[str, AttributeValue] = {}
        if self.accept("("):
            if not self.at(")"):
                # named attributes or a single implicit "value"
                if self.at("=", 1) and \
                        token_kind(self.texts[self.pos]) == "ident":
                    while True:
                        attr = self.expect_ident()
                        self.expect("=")
                        attributes[attr] = self.parse_attr_expr()
                        if not self.accept(","):
                            break
                else:
                    attributes["value"] = self.parse_attr_expr()
            self.expect(")")
        return AnnotationUse(simple, attributes, qualified)

    def parse_attr_expr(self) -> AttributeValue:
        parts = [self.parse_attr_term()]
        while self.accept("+"):
            parts.append(self.parse_attr_term())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def parse_attr_term(self) -> AttributeValue:
        text = self.peek()
        if text is None:
            raise JavaSyntaxError("unexpected end in annotation value",
                                  self.last_line())
        if text == "{":
            self.next()
            items: list[AttributeValue] = []
            while not self.at("}"):
                items.append(self.parse_attr_expr())
                if not self.accept(","):
                    break
            self.expect("}")
            return tuple(items)
        if text == "(":  # a parenthesized expression (JLS 15.8.5)
            self.next()
            value = self.parse_attr_expr()
            self.expect(")")
            return value
        if text == "@":
            self.next()
            return self.parse_annotation_use()
        kind = token_kind(text)
        if kind == "str":
            self.next()
            return unescape_string(text, self.line(-1))
        if kind == "char":
            self.next()
            return text[1:-1]
        if kind == "num":
            self.next()
            return _int_value(text)
        if text == "-":
            self.next()
            inner = self.next()
            if token_kind(inner) != "num":
                raise JavaSyntaxError("expected number after '-'",
                                      self.line(-1))
            return -_int_value(inner)
        if text in ("true", "false"):
            self.next()
            return text == "true"
        if kind == "ident":
            name = self.parse_dotted_name()
            if self.at(".") and self.at("class", 1):
                self.pos += 2
                return ClassRef(name)
            return NameRef(tuple(name.split(".")))
        raise JavaSyntaxError(f"unsupported annotation value {text!r}",
                              self.line())

    # -- type declarations ---------------------------------------------------

    def parse_type_decl(self, package: str,
                        outer: Optional[str] = None) -> list[ClassDecl]:
        annos, _ = self.parse_annotations_and_modifiers()
        text = self.peek()
        if text is None:
            return []
        if text == "@" and self.at("interface", 1):
            # annotation type declaration: skip entirely
            while not self.at("{"):
                self.next()
            self.skip_balanced("{", "}")
            return []
        if text not in ("class", "interface", "enum", "record"):
            raise JavaSyntaxError(
                f"expected type declaration, found {text!r}", self.line())
        kind = self.next()
        name = self.expect_ident()
        simple = f"{outer}.{name}" if outer else name
        qualified = f"{package}.{simple}" if package else simple

        type_params: tuple[str, ...] = ()
        if self.at("<"):
            type_params = self.parse_type_param_names()
        fields: list[FieldDecl] = []
        if kind == "record":
            fields = [FieldDecl(p.name, p.type, p.annotations)
                      for p in self.parse_formal_params()]
        superclass: Optional[TypeRef] = None
        if self.accept("extends"):
            extended = self.parse_type_list(",")
            if kind != "interface":
                superclass = extended[0]
        if self.accept("implements"):
            self.parse_type_list(",")
        if self.accept("permits"):
            self.parse_type_list(",")

        nested: list[ClassDecl] = []
        methods: list[MethodDecl] = []
        enum_constants: list[str] = []
        self.expect("{")
        if kind == "enum":
            enum_constants = self.parse_enum_constants()
        while not self.at("}"):
            for member in self.parse_member(name, package, outer=simple):
                if isinstance(member, ClassDecl):
                    nested.append(member)
                elif isinstance(member, MethodDecl):
                    methods.append(member)
                else:
                    fields.append(member)
        self.expect("}")
        if kind == "interface":  # its fields are static and final (JLS 9.3)
            fields = [replace(f, is_static=True, is_final=True)
                      for f in fields]
        cls = ClassDecl(qualified, kind, tuple(annos), superclass,
                        tuple(fields), tuple(methods), tuple(enum_constants),
                        type_params)
        return [cls] + nested

    def parse_type_param_names(self) -> tuple[str, ...]:
        self.expect("<")
        names = []
        while True:
            names.append(self.expect_ident())
            if self.accept("extends"):
                self.parse_type_list("&")
            if not self.accept(","):
                break
        self.expect(">")
        return tuple(names)

    def parse_enum_constants(self) -> list[str]:
        constants: list[str] = []
        while not self.accept(";") and not self.at("}"):
            self.parse_annotations_and_modifiers()
            constants.append(self.expect_ident())
            if self.at("("):
                self.skip_balanced("(", ")")
            if self.at("{"):
                self.skip_balanced("{", "}")
            self.accept(",")
        return constants

    def parse_member(self, simple_class_name: str, package: str, outer: str
                     ) -> list[Union[ClassDecl, MethodDecl, FieldDecl]]:
        """The declarations of one class member: nested classes, one method
        or the fields of one declaration; none for an initializer or a
        constructor."""
        if self.accept(";"):
            return []
        save = self.pos
        annos, mods = self.parse_annotations_and_modifiers()
        text = self.peek()
        if text is None:
            raise JavaSyntaxError("unexpected end of class body",
                                  self.last_line())
        if text == "{":  # static or instance initializer block
            self.skip_balanced("{", "}")
            return []
        if text in ("class", "interface", "enum", "record") or (
                text == "@" and self.at("interface", 1)):
            self.pos = save
            return self.parse_type_decl(package, outer=outer)

        if text == "<":  # method or constructor type parameters
            self.skip_balanced("<", ">")
        if self.at(simple_class_name) and self.at("(", 1):  # constructor
            # skipped unread: nothing is taken from a constructor
            self.next()
            self.skip_balanced("(", ")")
            if self.accept("throws"):
                self.parse_type_list(",")
            if self.at("{"):
                self.skip_balanced("{", "}")
            else:
                self.expect(";")
            return []

        decl_type = self.parse_type_ref()
        name = self.next()
        line = self.line(-1)
        if token_kind(name) != "ident":
            raise JavaSyntaxError(f"expected member name, found {name!r}",
                                  line)

        if self.at("("):
            return [self.parse_method_rest(name, line, annos, decl_type)]
        return self.parse_field_rest(name, line, annos, mods, decl_type)

    def parse_method_rest(self, name: str, line: int, annos,
                          return_type: TypeRef) -> MethodDecl:
        params = self.parse_formal_params()
        throws: list[str] = []
        if self.accept("throws"):
            throws = [t.raw_name for t in self.parse_type_list(",")]
        facts = EMPTY_BODY
        if self.at("{"):
            facts = extract_body_facts(self.skip_balanced("{", "}"))
        else:
            self.expect(";")
        return MethodDecl(name, tuple(annos), tuple(params), return_type,
                          tuple(throws), facts, line)

    def parse_formal_params(self) -> list[ParamDecl]:
        """A parenthesized parameter list: of a method or a record header.
        A receiver parameter (`Api this`) is not listed."""
        self.expect("(")
        params: list[ParamDecl] = []
        while not self.at(")"):
            annos, _ = self.parse_annotations_and_modifiers()
            ptype = self.parse_type_ref()
            if self.accept("..."):
                ptype = replace(ptype, array_depth=ptype.array_depth + 1)
            if not self.accept("this"):
                name = self.expect_ident()
                params.append(ParamDecl(name, self.parse_dims(ptype),
                                        tuple(annos)))
            if not self.accept(","):
                break
        self.expect(")")
        return params

    def parse_field_rest(self, name: str, line: int, annos, mods,
                         decl_type: TypeRef) -> list[FieldDecl]:
        """The fields of one declaration; each has the line of the first
        name."""
        fields: list[FieldDecl] = []
        while True:
            ftype = self.parse_dims(decl_type)
            initializer: Optional[AttributeValue] = None
            if self.accept("="):
                initializer = self.parse_initializer_expr()
            fields.append(FieldDecl(name, ftype, tuple(annos),
                                    "static" in mods, "final" in mods,
                                    initializer, line))
            if self.accept(","):
                name = self.expect_ident()
                continue
            break
        self.expect(";")
        return fields

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
            text = self.peek()
            if text is None:
                raise JavaSyntaxError("unterminated initializer",
                                      self.last_line())
            if depth == 0 and text in (";", ","):
                return None
            if text in ("(", "{", "["):
                depth += 1
            elif text in (")", "}", "]"):
                depth -= 1
            self.pos += 1

    # -- types ---------------------------------------------------------------

    def parse_type_ref(self) -> TypeRef:
        text = self.peek()
        if text is None:
            raise JavaSyntaxError("expected type", self.last_line())
        if text == "?":
            self.next()
            if self.accept("extends") or self.accept("super"):
                return self.parse_type_ref()
            return OBJECT_TYPE
        if text in PRIMITIVES:
            self.next()
            return self.parse_dims(TypeRef(text))
        # a nested type like Map.Entry<K,V> is one dotted name; type
        # arguments in the middle of the name are not supported
        name = self.parse_dotted_name()
        args: tuple[TypeRef, ...] = ()
        if self.at("<"):
            args = self.parse_type_arguments()
        return self.parse_dims(TypeRef(name, args))

    def parse_type_arguments(self) -> tuple[TypeRef, ...]:
        self.expect("<")
        args = self.parse_type_list(",")
        self.expect(">")
        return tuple(args)

    def parse_type_list(self, separator: str) -> list[TypeRef]:
        """Types separated by `separator`: `,` in type arguments and in
        extends, implements, permits and throws clauses, `&` in bounds."""
        types = [self.parse_type_ref()]
        while self.accept(separator):
            types.append(self.parse_type_ref())
        return types

    def parse_dims(self, type_: TypeRef) -> TypeRef:
        """`type_` with one more array dimension for each `[]` that
        follows."""
        depth = type_.array_depth
        while self.at("[") and self.at("]", 1):
            self.pos += 2
            depth += 1
        if depth == type_.array_depth:
            return type_
        return replace(type_, array_depth=depth)


def _int_value(text: str) -> int:
    """The value of an integer literal (JLS 3.10.1): decimal, hex `0x…`,
    binary `0b…` or octal `0…`, with underscores and an `l` or `L` suffix;
    0 for any other number."""
    digits = text.replace("_", "").rstrip("lL")
    octal = digits[:1] == "0" and digits[1:].isdigit()
    try:
        return int(digits, 8 if octal else 0)
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

# Return types whose first type argument is the response body.
RESPONSE_WRAPPERS = frozenset({"ResponseEntity", "DeferredResult"})


def _statement_statuses(stmt: list[str]) -> set[str]:
    statuses: set[str] = set()
    n = len(stmt)
    for i, text in enumerate(stmt):
        if text == "HttpStatus" and i + 2 < n and stmt[i + 1] == "." \
                and token_kind(stmt[i + 2]) == "ident" \
                and (i + 3 == n or stmt[i + 3] != "("):
            statuses.add(stmt[i + 2])
        if text in RESPONSE_WRAPPERS and i + 2 < n and stmt[i + 1] == ".":
            member = stmt[i + 2]
            if member == "status" and i + 4 < n and stmt[i + 3] == "(" \
                    and token_kind(stmt[i + 4]) == "num":
                statuses.add(str(_int_value(stmt[i + 4])))
            elif member in _BUILDER_STATUS and i + 3 < n \
                    and stmt[i + 3] == "(":
                statuses.add(_BUILDER_STATUS[member])
    return statuses


def extract_body_facts(body: list[str]) -> BodyFacts:
    """Read the token texts of a `{...}` body in one pass. A statement is
    the slice between two `;`, `{` or `}` outside parentheses, so the `;` of
    a for-header or of a lambda block in a call ends none; text after a `(`
    that never closes is not read."""
    thrown: set[str] = set()
    statuses: set[str] = set()
    plain_return = False
    paren = start = 0  # `start`: the token before the current statement
    first: dict[str, int] = {}  # the statement's first `throw` and `return`
    for end, text in enumerate(body):
        if text == "(":
            paren += 1
        elif text == ")":
            paren = max(0, paren - 1)
        elif text == "throw" or text == "return":
            first.setdefault(text, end)
        elif text in (";", "{", "}") and not paren:
            stmt_statuses = _statement_statuses(body[start + 1:end])
            statuses |= stmt_statuses
            at = first.get("throw")  # also `if (c) throw`, `case A -> throw`
            if at is not None and body[at + 1] == "new":
                name = ".".join(t for t in takewhile(
                    lambda t: t == "." or token_kind(t) == "ident",
                    body[at + 2:end]) if t != ".")
                if name:
                    thrown.add(name)
            elif at is None and "return" in first and not stmt_statuses \
                    and body[first["return"] + 1:end] != ["null"]:
                plain_return = True
            start = end
            first = {}
    return BodyFacts(
        thrown_exception_types=frozenset(thrown),
        returned_status_literals=frozenset(statuses),
        has_plain_return=plain_return,
    )


# ---------------------------------------------------------------------------
# Project parsing and model-level operations
# ---------------------------------------------------------------------------

class ProjectParseError(FatalError):
    pass


class SupertypeCycleError(ProjectParseError):
    """Classes that extend each other: no analysis of the tree is sound."""


def parse_source(source: str, file: str = "<memory>") -> list[ClassDecl]:
    parser = _Parser(tokenize(source), file)
    try:
        return parser.parse_unit()
    except RecursionError:  # the parser recurses once per level of nesting
        line = parser.lines[min(parser.pos, parser.n - 1)]
        raise JavaSyntaxError("nested too deeply to parse", line) from None


def parse_project(root_dir: os.PathLike | str) -> SourceModel:
    root = Path(root_dir)
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
                earlier = classes.get(cls.qualified_name)
                if earlier is not None:
                    diagnostics.append(Diagnostic(
                        DUPLICATE_CLASS,
                        f"{cls.qualified_name} is declared in "
                        f"{earlier.source_file} and {rel}; using {rel}", rel))
                classes[cls.qualified_name] = cls
            parsed_any = True
        except (JavaSyntaxError, UnicodeDecodeError, OSError) as exc:
            # an OSError's text would repeat the path as the OS was given it
            message = getattr(exc, "strerror", None) or str(exc)
            line = getattr(exc, "line", 0)
            diagnostics.append(Diagnostic(PARSE_ERROR, message, rel, line))
    if not parsed_any:
        details = "; ".join(d.render() for d in diagnostics)
        raise ProjectParseError(f"no parsable .java files under {root}: {details}")
    return SourceModel(classes, diagnostics)


def supertype_chain(cls: ClassDecl, model: SourceModel) -> list[ClassDecl]:
    """`cls` and its superclasses in the model, nearest first."""
    chain = [cls]
    while (parent := model.superclass_of(chain[-1])) is not None:
        chain.append(parent)
    return chain


def resolve_string_constant(value: Optional[AttributeValue], ctx: ClassDecl,
                            model: SourceModel,
                            _active: Optional[set] = None) -> Optional[str]:
    """Resolve a string-valued annotation attribute to its literal value.

    Returns None when the value cannot be resolved statically.
    """
    if _active is None:
        _active = set()
    if isinstance(value, str):
        return value
    if isinstance(value, Concat):
        parts = [resolve_string_constant(p, ctx, model, _active)
                 for p in value.parts]
        if any(p is None for p in parts):
            return None
        return "".join(parts)  # type: ignore[arg-type]
    if isinstance(value, NameRef):
        return _resolve_name_ref(value, ctx, model, _active)
    return None


def spelling(value: AttributeValue) -> str:
    """How an attribute value is written in the source, for messages:
    `Missing.BASE + "/x"`, `5`, `Api.class`, `{a, b}`."""
    if isinstance(value, NameRef):
        return ".".join(value.parts)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, Concat):
        return " + ".join(spelling(p) for p in value.parts)
    if isinstance(value, bool):  # before `int`, since a bool is an int
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, ClassRef):
        return value.name + ".class"
    if isinstance(value, tuple):
        return "{" + ", ".join(map(spelling, value)) + "}"
    return "@" + value.simple_name


def _simple_name_scopes(name: str, ctx: ClassDecl, model: SourceModel
                        ) -> Iterator[Optional[ClassDecl]]:
    """The classes in which a simple name used in `ctx` is looked up, in
    the order in which they shadow each other (JLS 6.4.1, 8.1.3): `ctx`,
    each class that lexically encloses it, innermost first, the class a
    single-static import names, and each class a static import on demand
    names. None stands for a class outside the model. Each is looked up
    only when the ones before it do not declare the name."""
    yield ctx
    for owner in ctx.lexical_scopes[1:]:
        yield model.classes.get(owner)
    imported = ctx.static_imports.get(name)
    if imported:
        yield model.find_class(imported, ctx)
    for owner in ctx.static_wildcard_imports:
        yield model.find_class(owner, ctx)


def _resolve_name_ref(ref: NameRef, ctx: ClassDecl, model: SourceModel,
                      active: set) -> Optional[str]:
    """A qualified name is searched in the class it names and its
    superclasses. A simple name is searched in each class of
    `_simple_name_scopes` and its superclasses, and last in the one class
    of the model that declares it."""
    const = ref.parts[-1]
    scopes: Iterable[Optional[ClassDecl]]
    if len(ref.parts) > 1:
        scopes = [model.find_class(".".join(ref.parts[:-1]), ctx)]
    else:
        scopes = _simple_name_scopes(const, ctx, model)
    owner = next((cls for scope in scopes if scope
                  for cls in supertype_chain(scope, model)
                  if const in cls.string_constants), None)
    if owner is None and len(ref.parts) == 1:
        # last resort: unique constant with this name anywhere in the model
        hits = [cls for cls in model.classes.values()
                if const in cls.string_constants]
        owner = hits[0] if len(hits) == 1 else None
    if owner is None:
        return None
    key = (owner.qualified_name, const)
    if key in active:
        return None
    active.add(key)
    try:
        return resolve_string_constant(owner.string_constants[const], owner,
                                       model, active)
    finally:
        active.discard(key)
