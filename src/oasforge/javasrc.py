"""Parse Java source trees into an immutable, queryable source model.

A file's leading `package` and `import` statements are read by one regex, a
match each, up to the first with a keyword or a literal in its name (JLS
3.8), which the parser of the tokens rejects. The tokenizer is one
`findall` of another regex over the rest of the file: each match is a run
of whitespace and comments and then one token, or a whole method or
constructor body, so the regex engine does the scanning. Python only fills
two columns, each token's text and the line it starts on, with no object
per token; a token's kind is computed from its text when a rule asks for
it. A body read in one match is the token pair `{` `}`, whose `{` holds the
body's source text. Identifiers may hold any Unicode letter or digit (JLS
3.8). The parser is a recursive-descent pass over the texts, for
declarations only; it reads the lines only for the line of a declaration or
of an error. It keeps each method body as text, and reads none: its source
text when it was read in one match, else its token texts joined by single
spaces. A body is read, statement by statement, into BodyFacts (thrown
exceptions, response-entity status literals, plain returns) the first time
an analysis asks for its facts, and only the analysis of handlers and of
exception handlers does. Other bodies (of constructors, initializers, enum
constants and annotation types) are skipped and not kept. No
expression-level AST is built. This covers everything the downstream Spring
analysis needs without a full Java grammar.
"""

from __future__ import annotations

import json
import os
import re
from functools import cached_property
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .diagnostics import DUPLICATE_CLASS, PARSE_ERROR, Diagnostic, FatalError
from .values import Record, Value, replace, set_field


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# The pieces the regexes below are built from, each read one way only, so a
# regex that fails after one backtracks into no other reading of it: a line
# comment ends only at the end of its line, a block comment at its first
# `*/`, a string or char literal at its first quote that no backslash
# escapes, and a text block (JLS 3.10.6) at the first such `"""`.
_COMMENT = r"//[^\n]*(?![^\n])|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
_GAP = rf"\s*(?:(?:{_COMMENT})\s*)*"
_NAME = r"[A-Za-z_$][\w$]*"  # an ASCII identifier
_DOTTED_NAME = rf"{_NAME}(?:\.{_NAME})*"
_TEXT_BLOCK_TAIL = r'""[ \t\f]*(?:\r\n|\r|\n)(?:\\.|[^"\\]|"(?!""))*"""'
_STRING_TAIL = r'(?:\\.|[^"\\])*"'
_CHAR = r"'(?:\\.|[^'\\])+'"

# One match per token: a run of whitespace and comments, then a token, or
# else the end of the file or the one character no token starts with. That
# last alternative matches wherever a token does not, so `findall` skips no
# character. Every `>` is a token of its own, so nested type arguments
# close one level per token; a shift operator, which only bodies hold, is
# read as several tokens. A text block is tried ahead of a string, which
# would read its `"""` as an empty string and the start of another. An
# identifier may hold any Unicode letter or digit (JLS 3.8); one that starts
# with a letter outside ASCII is the last alternative, so every token of
# ASCII source matches before it is tried.
_TOKEN = rf"""
      "{_TEXT_BLOCK_TAIL}
    | "{_STRING_TAIL}
    | {_CHAR}
    | 0[xX][0-9a-fA-F_]+[lL]?
    | 0[bB][01_]+[lL]?
    | \d[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d+)?[fFdDlL]?
    | \.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
    | {_NAME}
    | \.\.\.|->|::|<<=|<<|\+\+|--|&&|\|\||[+\-*/%=<>!&|^~?:;,.(){{}}\[\]@]
    | [^\W\d][\w$]*
"""
_TOKEN_RE = re.compile(rf"({_GAP})(?:({_TOKEN})|(\Z|.))",
                       re.VERBOSE | re.DOTALL)

# A method or constructor body in one match: the `)` that ends a parameter
# list, a `throws` clause of plain dotted names if any, and a `{…}` whose
# braces nest at most `_BODY_DEPTH` deep and that holds only whitespace,
# comments and tokens. Between two items that start with a quote, `/` or a
# brace, a body holds characters that tokens of other kinds start with, and
# each item starts with a character or pair that no other item starts with,
# so the body is read as the tokenizer reads it, and a failed match
# backtracks into no other reading. A body with a character no token starts
# with, an unclosed literal or comment, `"""` (which starts a text block or
# an empty string, as what follows decides) or deeper nesting is declined,
# and its tokens are read one match each.
_BODY_DEPTH = 8
_BODY_HEAD = (rf"\){_GAP}(?:throws(?![\w$]){_GAP}{_DOTTED_NAME}"
              rf"(?:{_GAP},{_GAP}{_DOTTED_NAME})*{_GAP})?")
_BODY_PLAIN = r"[\s\w$+\-*%=<>!&|^~?:;,.()\[\]@]*"
_BODY_ITEM = rf'"(?!""){_STRING_TAIL}|{_CHAR}|{_COMMENT}|/(?![/*])'
_BODY = f"{_BODY_PLAIN}(?:(?:{_BODY_ITEM}){_BODY_PLAIN})*"
for _ in range(_BODY_DEPTH - 1):
    _BODY = f"{_BODY_PLAIN}(?:(?:{_BODY_ITEM}|\\{{{_BODY}\\}}){_BODY_PLAIN})*"
# `_TOKEN_RE` with a first alternative that reads a whole body: a match
# that starts with `)` and is longer than it is one
_DECL_TOKEN_RE = re.compile(
    rf"({_GAP})(?:({_BODY_HEAD}\{{{_BODY}\}}|{_TOKEN})|(\Z|.))",
    re.VERBOSE | re.DOTALL)

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


class _Body(str):
    """The `{` of a body read in one match, with the body's source text, `{`
    up to its `}`, as `text`; it has no `__new__`, which costs a call."""
    text: str


def tokenize(source: str, start: int = 0, line: int = 1,
             bodies: bool = False) -> Tokens:
    """The tokens of `source` from index `start`, which is on line `line`.
    With `bodies`, each body that `_DECL_TOKEN_RE` reads in one match is
    the two tokens `{` and `}`, and that `{` is a `_Body`."""
    return _tokenize(source, start, line, bodies)


def _tokenize(source: str, start: int, line: int, bodies: bool) -> Tokens:
    """What `tokenize` does, for a text that is no file of its own: a body
    that `_Parser.open_body` or `MethodDecl.body_facts` reads."""
    texts: list[str] = []
    lines: list[int] = []
    add_text, add_line = texts.append, lines.append
    regex = _DECL_TOKEN_RE if bodies else _TOKEN_RE
    for space, text, stray in regex.findall(source, start):
        if "\n" in space:
            line += space.count("\n")
        if text:
            if text[0] not in "\"')" or text == ")":
                add_text(text)
                add_line(line)
            elif text[0] != ")":  # a literal may hold a raw newline
                add_text(text)
                add_line(line)
                line += text.count("\n")
            else:  # `)`, a throws clause if any, and a body
                if text.startswith(") {"):
                    brace = 2
                    add_text(")")
                    add_line(line)
                else:
                    for match in _TOKEN_RE.finditer(text):
                        gap, head, _ = match.groups()
                        line += gap.count("\n")
                        if head == "{":
                            break
                        add_text(head)
                        add_line(line)
                    brace = match.start(2)
                body = _Body("{")
                body.text = text[brace:-1]
                add_text(body)
                add_line(line)
                line += text.count("\n", brace)
                add_text("}")
                add_line(line)
        elif stray:
            raise JavaSyntaxError(f"unexpected character {stray!r}", line)
        else:  # the end of the file
            break
    return Tokens(texts, lines)


# The keywords (JLS 3.9) and the literals `true`, `false` and `null`, none
# of which may be a part of a `package` or `import` name (JLS 3.8)
RESERVED_WORDS = frozenset(
    "abstract assert boolean break byte case catch char class const continue "
    "default do double else enum extends final finally float for goto if "
    "implements import instanceof int interface long native new package "
    "private protected public return short static strictfp super switch "
    "synchronized this throw throws transient try void volatile while _ "
    "true false null".split())

# A `package` or `import` statement of a file's header, after whitespace and
# comments, with an ASCII name and only spaces and tabs inside. A statement
# this declines (with a comment or a line break inside, a name outside
# ASCII, an annotated `package`, a syntax error such as `import a.;`), one
# with a reserved word in its name, which `parse_source` declines, and all
# after either are left to the tokens.
_HEADER_RE = re.compile(
    rf"""
    {_GAP}
    (?: (package) | import (?:[ \t]+ (static))? ) [ \t]+
    ({_DOTTED_NAME}) (?(1)|(\.\*)?) [ \t]*;
    """,
    re.VERBOSE | re.ASCII)


# An escape sequence of a string literal (JLS 3.10.7): a unicode escape
# (JLS 3.3), which may repeat its `u`, an octal escape of up to \377, or
# one character, which must be one that `_SIMPLE_ESCAPES` names (or, in a
# text block, `_TEXT_BLOCK_ESCAPES`).
_ESCAPE_RE = re.compile(r"\\(?:u+(.{0,4})|([0-3][0-7]{0,2}|[4-7][0-7]?)|(.))",
                        re.DOTALL)
_HEX4_RE = re.compile(r"[0-9a-fA-F]{4}")
_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   "s": " ", '"': '"', "'": "'", "\\": "\\"}
_TEXT_BLOCK_ESCAPES = {**_SIMPLE_ESCAPES, "\n": ""}
_SPACE = " \t\f"  # white space (JLS 3.6) other than line terminators


def _strip_incidental_space(body: str) -> str:
    """The content of a text block whose delimiters are cut off, with its
    line terminators made `\\n` and its incidental white space stripped as
    `String.stripIndent` does (JLS 3.10.6): the opening line is dropped,
    every line loses the indentation that the non-blank lines and the
    closing delimiter's line share, and its trailing white space; a blank
    line becomes empty."""
    lines = body.replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:]
    indent = min([len(text) - len(text.lstrip(_SPACE))
                  for text in lines if text.strip(_SPACE)]
                 + [len(lines[-1]) - len(lines[-1].lstrip(_SPACE))])
    return "\n".join(text[indent:].rstrip(_SPACE) for text in lines)


def unescape_string(literal: str, line: int) -> str:
    """The value of a string literal or text block token, quotes included,
    as javac reads it. A text block's line terminators are normalized and
    its incidental white space is stripped before its escapes are read,
    among them `\\` at the end of a line, which joins it to the next
    (JLS 3.10.6)."""
    escapes = _SIMPLE_ESCAPES
    if literal.startswith('"""'):
        body = _strip_incidental_space(literal[3:-3])
        escapes = _TEXT_BLOCK_ESCAPES
    else:
        body = literal[1:-1]

    def unescape(m: re.Match) -> str:
        digits, octal, char = m.groups()
        if digits is not None:
            if not _HEX4_RE.fullmatch(digits):
                raise InvalidEscapeError(
                    f"invalid unicode escape \\u{digits}", line)
            return chr(int(digits, 16))
        if octal is not None:
            return chr(int(octal, 8))
        if char not in escapes:
            raise InvalidEscapeError(f"illegal escape character {char!r}",
                                     line)
        return escapes[char]

    text = _ESCAPE_RE.sub(unescape, body)
    try:
        # joins each \uD83D\uDE00-style pair into one code point
        return text.encode("utf-16", "surrogatepass").decode("utf-16")
    except UnicodeDecodeError:
        raise InvalidEscapeError("unpaired surrogate escape", line) from None


# ---------------------------------------------------------------------------
# Annotation attribute values
# ---------------------------------------------------------------------------

class NameRef(Value):
    """A dotted name used as a value: constant reference or enum reference."""
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[str, ...]):
        set_field(self, "parts", parts)


class ClassRef(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)  # dotted, without the trailing .class


class Concat(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[AttributeValue, ...]):
        set_field(self, "parts", parts)


class AnnotationUse(Value):
    __slots__ = ("simple_name", "attributes", "qualified_name")

    def __init__(self, simple_name: str,
                 attributes: Optional[dict[str, AttributeValue]] = None,
                 qualified_name: Optional[str] = None):
        set_field(self, "simple_name", simple_name)
        set_field(self, "attributes", {} if attributes is None else attributes)
        # the name as written when it is qualified, else the single-type
        # import of the simple name in the annotation's file, else None
        set_field(self, "qualified_name", qualified_name)

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


class TypeRef(Value):
    __slots__ = ("raw_name", "type_arguments", "array_depth")

    def __init__(self, raw_name: str, type_arguments: tuple[TypeRef, ...] = (),
                 array_depth: int = 0):
        set_field(self, "raw_name", raw_name)
        set_field(self, "type_arguments", type_arguments)
        set_field(self, "array_depth", array_depth)

    @property
    def simple_name(self) -> str:
        return self.raw_name.rsplit(".", 1)[-1]


UNSPECIFIED_TYPE = TypeRef("UNSPECIFIED_TYPE")
OBJECT_TYPE = TypeRef("java.lang.Object")


class BodyFacts(Value):
    __slots__ = ("thrown_exception_types", "returned_status_literals",
                 "has_plain_return")

    def __init__(self, thrown_exception_types: frozenset[str] = frozenset(),
                 returned_status_literals: frozenset[str] = frozenset(),
                 has_plain_return: bool = False):
        set_field(self, "thrown_exception_types", thrown_exception_types)
        set_field(self, "returned_status_literals", returned_status_literals)
        set_field(self, "has_plain_return", has_plain_return)


EMPTY_BODY = BodyFacts()


class ParamDecl(Value):
    __slots__ = ("name", "type", "annotations")

    def __init__(self, name: str, type: TypeRef,
                 annotations: tuple[AnnotationUse, ...] = ()):
        set_field(self, "name", name)
        set_field(self, "type", type)
        set_field(self, "annotations", annotations)


class MethodDecl(Value):
    """A method. `body` is the text of its body, `{` to `}`: its source
    text when the tokenizer read it in one match, else its tokens joined by
    single spaces, each block inside that was read in one match as its
    source text; either tokenizes to the body's token texts. It is "" for a
    method without a body. `body_facts` is read from it on the first use,
    unless it is given: most methods are never asked for it."""
    __slots__ = ("name", "annotations", "parameters", "return_type",
                 "declared_throws", "line", "_body", "_body_facts")
    _fields = ("name", "annotations", "parameters", "return_type",
               "declared_throws", "body_facts", "line")

    def __init__(self, name: str, annotations: tuple[AnnotationUse, ...],
                 parameters: tuple[ParamDecl, ...], return_type: TypeRef,
                 declared_throws: tuple[str, ...],
                 body_facts: Optional[BodyFacts] = None, line: int = 0,
                 body: str = ""):
        set_field(self, "name", name)
        set_field(self, "annotations", annotations)
        set_field(self, "parameters", parameters)
        set_field(self, "return_type", return_type)
        set_field(self, "declared_throws", declared_throws)
        set_field(self, "line", line)
        set_field(self, "_body", body)
        set_field(self, "_body_facts",
                  EMPTY_BODY if body_facts is None and not body
                  else body_facts)

    @property
    def body_facts(self) -> BodyFacts:
        facts = self._body_facts
        if facts is None:
            facts = extract_body_facts(
                _tokenize(self._body, 0, 1, False).texts)
            set_field(self, "_body_facts", facts)
        return facts


class FieldDecl(Value):
    __slots__ = ("name", "type", "annotations", "is_static", "is_final",
                 "initializer", "line")

    def __init__(self, name: str, type: TypeRef,
                 annotations: tuple[AnnotationUse, ...] = (),
                 is_static: bool = False, is_final: bool = False,
                 initializer: Optional[AttributeValue] = None, line: int = 0):
        set_field(self, "name", name)
        set_field(self, "type", type)
        set_field(self, "annotations", annotations)
        set_field(self, "is_static", is_static)
        set_field(self, "is_final", is_final)
        set_field(self, "initializer", initializer)
        set_field(self, "line", line)


class ClassDecl(Record):
    """A class, interface, enum or record. Parsing sets the fields its
    file's header gives, and `SourceModel` qualifies `superclass` and
    `interfaces`."""
    __slots__ = ("qualified_name", "kind", "annotations", "superclass",
                 "interfaces", "fields", "methods", "enum_constants",
                 "type_params", "package", "imports", "wildcard_imports",
                 "static_imports", "static_wildcard_imports", "source_file",
                 "access", "is_abstract",
                 "__dict__")  # for the cached properties

    def __init__(self, qualified_name: str, kind: str,
                 annotations: tuple[AnnotationUse, ...] = (),
                 superclass: Optional[TypeRef] = None,
                 fields: tuple[FieldDecl, ...] = (),
                 methods: tuple[MethodDecl, ...] = (),
                 enum_constants: tuple[str, ...] = (),
                 type_params: tuple[str, ...] = (), package: str = "",
                 imports: Optional[dict[str, str]] = None,
                 wildcard_imports: tuple[str, ...] = (),
                 static_imports: Optional[dict[str, str]] = None,
                 static_wildcard_imports: tuple[str, ...] = (),
                 source_file: str = "", access: str = "",
                 interfaces: tuple[TypeRef, ...] = (),
                 is_abstract: bool = False):
        self.qualified_name = qualified_name
        self.kind = kind  # class | interface | enum | record
        self.annotations = annotations
        self.superclass = superclass
        # the `implements` list of a class, enum or record; the `extends`
        # list of an interface
        self.interfaces = interfaces
        self.fields = fields
        self.methods = methods
        self.enum_constants = enum_constants
        self.type_params = type_params
        self.package = package
        self.imports = {} if imports is None else imports
        self.wildcard_imports = wildcard_imports
        # member name -> the type a single-static import takes it from
        self.static_imports = {} if static_imports is None else static_imports
        # the types whose static members a static import on demand takes
        self.static_wildcard_imports = static_wildcard_imports
        self.source_file = source_file
        # "public", "protected", "private", or "" for package access
        self.access = access
        self.is_abstract = is_abstract  # declared `abstract`

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


class SourceModel(Record):
    """The parsed classes of a tree, by fully qualified name.

    This is the only code that decides which class a name means.
    `resolve_type_name` tries, in order: the name as a fully qualified
    name, a member type of the naming class or of a class that lexically
    encloses it, innermost first (JLS 6.4.1), each class's declared member
    types before those it inherits from its supertypes (JLS 8.5), the
    single-type import of the naming class, the naming
    class's own package, its wildcard imports, the member types of the
    types its static imports on demand name, and last a class anywhere in
    the model whose simple name is unique. In that last step a qualified name
    only matches a class whose fully qualified name ends with "." plus the
    name, so `Outer.Inner` finds `app.Outer.Inner` but `java.util.Date`
    does not find `app.Date`; where no class does, its qualifier is
    resolved as a type and its last name is a member type that type
    declares or inherits, so `Sub.Part` finds `app.Base.Part` when `Sub`
    extends `Base`. A single-type import decides alone, as it
    shadows every other class of its simple name: a name imported from
    outside the model resolves to nothing. The raw names of each class's
    `superclass` and `interfaces` are resolved once, here at construction,
    so a walk up the hierarchy only looks up fully qualified names; a
    supertype that does not resolve keeps its source spelling and ends its
    branch of the walk. Their type arguments are qualified there too, by
    `qualify_arguments`. Construction then raises SupertypeCycleError if a
    path of superclass or interface links comes back to one of its
    classes, so every later walk ends. Supertype names are resolved before
    inherited member types are known, so an `extends` or `implements`
    clause does not see them.

    Construction builds a simple name → classes index, in `classes` order,
    so `by_simple_name` does not walk `classes`, and the set of the simple
    names of member types, so the search of inherited member types runs
    only for a name that some member type has. Both are valid because
    `classes` is not changed after construction.
    """
    __slots__ = ("classes", "parse_diagnostics", "_by_simple_name",
                 "_member_names")

    def __init__(self, classes: dict[str, ClassDecl],
                 parse_diagnostics: Optional[list[Diagnostic]] = None):
        self.classes = classes
        self.parse_diagnostics = [] if parse_diagnostics is None \
            else parse_diagnostics
        index: dict[str, list[ClassDecl]] = {}
        for cls in self.classes.values():
            index.setdefault(cls.simple_name, []).append(cls)
        self._by_simple_name = {k: tuple(v) for k, v in index.items()}
        # the simple names of member types; empty until the cycle check
        # below has passed, so every walk up a hierarchy ends
        self._member_names: set[str] = set()
        for cls in self.classes.values():
            if cls.superclass:
                cls.superclass = self._qualify_supertype(cls.superclass, cls)
            if cls.interfaces:
                cls.interfaces = tuple(self._qualify_supertype(t, cls)
                                       for t in cls.interfaces)
        self._check_cycles()
        self._member_names = {
            cls.simple_name for cls in self.classes.values()
            if cls.qualified_name.find(".", len(cls.package) + 1) != -1}

    def _qualify_supertype(self, t: TypeRef, cls: ClassDecl) -> TypeRef:
        """`t`, named in the header of `cls`, by its fully qualified name
        when it names a model class, with its arguments qualified."""
        resolved = self.resolve_type_name(t.raw_name, cls)
        if resolved:
            t = replace(t, raw_name=resolved)
        return self.qualify_arguments(t, cls)

    def _check_cycles(self) -> None:
        """Raise SupertypeCycleError if a path of superclass or interface
        links leads from a class back to itself. A depth-first search from
        each class in model order, which visits each class once: the
        message names the path from the class it started at, so a diamond
        (two supertypes that share one) is no cycle."""
        checked: set[str] = set()
        for cls in self.classes.values():
            if cls.qualified_name in checked:
                continue
            path = {cls.qualified_name: None}  # ordered; popitem is LIFO
            pending = [iter(self._direct_supertypes(cls))]
            while pending:
                cur = next(pending[-1], None)
                if cur is None:
                    pending.pop()
                    checked.add(path.popitem()[0])
                elif cur.qualified_name in path:
                    cycle = " -> ".join([*path, cur.qualified_name])
                    raise SupertypeCycleError(f"inheritance cycle: {cycle}")
                elif cur.qualified_name not in checked:
                    path[cur.qualified_name] = None
                    pending.append(iter(self._direct_supertypes(cur)))

    def _direct_supertypes(self, cls: ClassDecl) -> list[ClassDecl]:
        """The model classes `cls` names as its interfaces, in order, and
        then its superclass."""
        return [c for c in (*self._interfaces_of(cls), self.superclass_of(cls))
                if c]

    def _interfaces_of(self, cls: ClassDecl) -> list[ClassDecl]:
        return [iface for t in cls.interfaces
                if (iface := self.classes.get(t.raw_name))]

    def type_hierarchy(self, cls: ClassDecl) -> Iterator[ClassDecl]:
        """`cls` and its supertypes in the model, each once: `cls`, then
        the hierarchy of each of its interfaces in declaration order,
        depth-first, then the same for its superclass. This is the order
        in which Spring's `TYPE_HIERARCHY` annotation search visits them;
        each level of `supertype_chain` is followed by its interfaces."""
        seen: set[str] = set()
        for level in supertype_chain(cls, self):
            pending = [level]
            while pending:
                cur = pending.pop()
                if cur.qualified_name not in seen:
                    seen.add(cur.qualified_name)
                    yield cur
                    if cur.interfaces:
                        pending += reversed(self._interfaces_of(cur))

    def _inherited_member_type(self, owner: str, name: str) -> Optional[str]:
        """The member type `name` that the class `owner` inherits from its
        supertypes (JLS 8.5). The first class after `owner` in
        `type_hierarchy` that declares a type of that name hides the
        others, and its type is inherited unless it is private, or
        package-private while `owner` or a class between them lies in
        another package. Only a superclass can declare such a type, as an
        interface's member types are public, so the classes between are
        the superclasses walked so far."""
        cls = self.classes.get(owner)
        if cls is None:
            return None
        packages: set[str] = set()
        for cur in self.type_hierarchy(cls):
            member = cur is not cls and self.classes.get(
                f"{cur.qualified_name}.{name}")
            if member:
                if member.access == "private" or (
                        not member.access and packages != {cur.package}):
                    return None
                return member.qualified_name
            if cur.kind != "interface":
                packages.add(cur.package)
        return None

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
            qualifier, _, last = name.rpartition(".")
            matches = [c for c in self.by_simple_name(last)
                       if c.qualified_name.endswith("." + name)]
            if not matches and last in self._member_names:
                # a member type that the qualifier declares or inherits
                # (JLS 6.5.5.2), as `Sub.Part` names `Base.Part`
                owner = self.resolve_type_name(qualifier, ctx)
                if owner is None:
                    return None
                declared = f"{owner}.{last}"
                if declared in self.classes:
                    return declared
                return self._inherited_member_type(owner, last)
        else:
            for owner in ctx.lexical_scopes:  # member types shadow imports
                if f"{owner}.{name}" in self.classes:
                    return f"{owner}.{name}"
                if name in self._member_names:
                    inherited = self._inherited_member_type(owner, name)
                    if inherited:
                        return inherited
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
    or of an error. A body read in one match is a `_Body` and a `}`, which
    a rule that reads tokens one by one replaces with the body's tokens
    (`open_body`) before it steps in, so every rule reads what it would
    read from the full token stream."""

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

    def open_body(self, i: int) -> None:
        """Put the tokens of the body whose `_Body` is token `i` in place
        of it."""
        tokens = _tokenize(self.texts[i].text, 0, self.lines[i], False)
        self.texts[i:i + 1] = tokens.texts
        self.lines[i:i + 1] = tokens.lines
        self.n += len(tokens) - 1

    def open_bodies(self, start: int, end: int) -> bool:
        """Open each body read in one match whose `_Body` lies in
        `start..end`; whether there was one."""
        found = [k for k, text in enumerate(self.texts[start:end], start)
                 if isinstance(text, _Body)]
        for k in reversed(found):
            self.open_body(k)
        return bool(found)

    def skip_balanced(self, open_: str, close: str) -> None:
        """Consume from the current open_ token to its matching close. It
        jumps from one `close` to the next and counts the `open_` between
        them, so the scan runs in C. A body read in one match is a balanced
        `{` `}` pair, so only a pair other than braces opens the bodies it
        passes, whose parentheses, brackets and angle brackets count."""
        self.expect(open_)
        texts = self.texts
        depth, i = 1, self.pos
        while True:
            try:
                end = texts.index(close, i)
            except ValueError:
                if open_ != "{" and self.open_bodies(i, self.n):
                    continue
                raise JavaSyntaxError("unexpected end of file",
                                      self.last_line()) from None
            if open_ != "{" and self.open_bodies(i, end):
                continue
            depth += texts[i:end].count(open_) - 1
            if not depth:
                self.pos = end + 1
                return
            i = end + 1

    # -- compilation unit ---------------------------------------------------

    def parse_unit(self, header: Sequence[tuple[Optional[str], ...]] = ()
                   ) -> list[ClassDecl]:
        """The declarations of the file, whose `header` `_HEADER_RE` read:
        each statement's groups, `package`, `static`, name, `.*`."""
        package = ""
        imports = self.imports
        static_imports: dict[str, str] = {}
        wildcards: list[str] = []
        static_wildcards: list[str] = []
        classes: list[ClassDecl] = []

        def declare(static, name: str, on_demand) -> None:
            if on_demand:
                (static_wildcards if static else wildcards).append(name)
            elif static:
                owner, _, member = name.rpartition(".")
                static_imports[member] = owner
            else:
                imports[name.rsplit(".", 1)[-1]] = name

        for is_package, static, name, on_demand in header:
            if is_package:
                package = name
            else:
                declare(static, name, on_demand)
        if not header:
            # a package declaration may be annotated (JLS 7.4.1), as in
            # `@NonNullApi package app;`; its annotations are read and dropped
            start = self.pos
            self.parse_annotations_and_modifiers()
            if not self.at("package"):
                self.pos = start  # they belong to the first type declaration
        while self.pos < self.n:
            text = self.texts[self.pos]
            if text == ";":
                self.pos += 1
                continue
            if text == "package":
                self.pos += 1
                package = self.parse_declared_name()
                self.expect(";")
                continue
            if text == "import":
                self.pos += 1
                static = self.accept("static")
                name = self.parse_declared_name()
                on_demand = self.accept(".")
                if on_demand:
                    self.expect("*")
                declare(static, name, on_demand)
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

    def parse_declared_name(self) -> str:
        """The name of a `package` or `import` statement, none of whose
        parts may be a keyword or a literal (JLS 3.8)."""
        start = self.pos
        name = self.parse_dotted_name()
        for i in range(start, self.pos, 2):
            if self.texts[i] in RESERVED_WORDS:
                raise JavaSyntaxError(
                    f"expected identifier, found {self.texts[i]!r}",
                    self.lines[i])
        return name

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
        annos, mods = self.parse_annotations_and_modifiers()
        text = self.peek()
        if text is None:  # annotations or modifiers end the file
            raise JavaSyntaxError("unexpected end of file", self.last_line())
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
        interfaces: list[TypeRef] = []
        if self.accept("extends"):
            extended = self.parse_type_list(",")
            if kind == "interface":
                interfaces = extended
            else:
                superclass = extended[0]
        if self.accept("implements"):
            interfaces = self.parse_type_list(",")
        if self.accept("permits"):
            self.parse_type_list(",")

        nested: list[ClassDecl] = []
        methods: list[MethodDecl] = []
        enum_constants: list[str] = []
        if isinstance(self.peek(), _Body):  # a record's, after its `)`
            self.open_body(self.pos)
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
        if kind == "interface":
            # its fields are static and final (JLS 9.3), its member types
            # public (JLS 9.5)
            fields = [replace(f, is_static=True, is_final=True)
                      for f in fields]
            for member in nested:
                if member.qualified_name.rpartition(".")[0] == qualified:
                    member.access = "public"
        access = next((m for m in ("public", "protected", "private")
                       if m in mods), "")
        cls = ClassDecl(qualified, kind, tuple(annos), superclass,
                        tuple(fields), tuple(methods), tuple(enum_constants),
                        type_params, access=access,
                        interfaces=tuple(interfaces),
                        is_abstract="abstract" in mods)
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
        constructor, a record's compact one included."""
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
        if self.at(simple_class_name) and (self.at("(", 1) or self.at("{", 1)):
            # a constructor, or a record's compact one (`R { … }`, JLS
            # 8.10.4), skipped unread: nothing is taken from a constructor
            self.next()
            if self.at("("):
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
        return_type = self.parse_dims(return_type)  # as in `int m()[]`
        throws: list[str] = []
        if self.accept("throws"):
            throws = [t.raw_name for t in self.parse_type_list(",")]
        body = ""
        brace = self.peek()
        if isinstance(brace, _Body):
            body = brace.text + "}"
            self.pos += 2
        elif brace == "{":
            start = self.pos
            self.skip_balanced("{", "}")
            body = " ".join([getattr(text, "text", text)
                             for text in self.texts[start:self.pos]])
        else:
            self.expect(";")
        return MethodDecl(name, tuple(annos), tuple(params), return_type,
                          tuple(throws), line=line, body=body)

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
        fits the constant-expression subset, else None (tokens skipped to
        its `;`, or to a `,` that is not one of type arguments)."""
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
            if depth == 0 and (text == ";" or text == ","
                               and self.comma_ends_declarator()):
                return None
            if text in ("(", "{", "["):
                if isinstance(text, _Body):
                    self.open_body(self.pos)
                depth += 1
            elif text in (")", "}", "]"):
                depth -= 1
            self.pos += 1

    def comma_ends_declarator(self) -> bool:
        """Whether the `,` here ends a declarator: it does unless the names
        and type punctuation after it reach the `>` that closes type
        arguments, as in `new HashMap<String, Integer>()`."""
        i = self.pos + 1
        while i < self.n and (token_kind(self.texts[i]) == "ident"
                              or self.texts[i] in (".", ",", "[", "]", "?",
                                                   "<")):
            i += 1
        return not self.at(">", i - self.pos)

    # -- types ---------------------------------------------------------------

    def parse_type_ref(self) -> TypeRef:
        text = self.peek()
        if text == "@":  # as in `List<@NotNull String>`
            self.drop_type_annotations()
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
        while self.at(".") and self.at("@", 1):
            # a type-use annotation inside the name, as in
            # `java.util.@NotNull List` (JLS 9.7.4), is dropped
            self.pos += 1
            self.drop_type_annotations()
            name += "." + self.parse_dotted_name()
        args: tuple[TypeRef, ...] = ()
        if self.at("<"):
            args = self.parse_type_arguments()
        return self.parse_dims(TypeRef(name, args))

    def drop_type_annotations(self) -> None:
        """Read the type-use annotations (JLS 9.7.4) that start here, and
        drop them: no rule reads them yet."""
        while self.accept("@"):
            self.parse_annotation_use()

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
        follows, each possibly annotated, as in `String @NotNull []`."""
        depth = type_.array_depth
        while True:
            text = self.peek()
            if text == "@":
                self.drop_type_annotations()
            elif text == "[" and self.at("]", 1):
                self.pos += 2
                depth += 1
            else:
                break
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


# The keywords that head a block of the method itself, right before its
# `{` or before the `(…)` that precedes it. After any other name or a `>`,
# a `{` opens a body declared in the method: an anonymous class's, as in
# `new T(…) {`, a local class's or record's, or one of their methods'.
_BLOCK_KEYWORDS = frozenset({"if", "else", "for", "while", "do", "switch",
                             "try", "catch", "finally", "synchronized"})


def extract_body_facts(body: list[str]) -> BodyFacts:
    """Read the token texts of a `{...}` body in one pass. A statement is
    the slice between two `;`, `{` or `}` outside parentheses, so the `;` of
    a for-header or of a lambda block in a call ends none; text after a `(`
    that never closes is not read. A `return` in a lambda block, or in a
    body declared in the method (see `_BLOCK_KEYWORDS`), is not the
    method's; a `throw` there still counts."""
    thrown: set[str] = set()
    statuses: set[str] = set()
    plain_return = False
    start = 0  # the token before the current statement
    opened: list[int] = []  # the index of each `(` not yet closed
    closed = 0  # the index of the `(` of the last `)`
    foreign = [False]  # per open `{`: in a lambda block or a declared body
    first: dict[str, int] = {}  # the statement's first `throw` and `return`
    for end, text in enumerate(body):
        if text == "(":
            opened.append(end)
        elif text == ")":
            closed = opened.pop() if opened else 0
        elif text == "throw" or (text == "return" and not foreign[-1]):
            first.setdefault(text, end)
        elif text == "{":
            head = body[end - 1] if end else "{"
            if head == ")":
                head = body[closed - 1]
            # a switch statement, whose `case A -> {` opens no lambda, is
            # never in parentheses
            rule = not opened and start + 1 < end \
                and body[start + 1] in ("case", "default")
            foreign.append(foreign[-1] or head == "->" and not rule or (
                head == ">" or token_kind(head) == "ident")
                and head not in _BLOCK_KEYWORDS)
        elif text == "}" and len(foreign) > 1:
            foreign.pop()
        if text in (";", "{", "}") and not opened:
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
    """The declarations of `source`: its header by `_HEADER_RE`, the rest
    from its tokens."""
    header, end = [], 0
    while (match := _HEADER_RE.match(source, end)) \
            and RESERVED_WORDS.isdisjoint(match[3].split(".")):
        header.append(match.groups())
        end = match.end()
    parser = _Parser(tokenize(source, end, source.count("\n", 0, end) + 1,
                              True), file)
    try:
        return parser.parse_unit(header)
    except RecursionError:  # the parser recurses once per level of nesting
        line = parser.lines[min(parser.pos, parser.n - 1)]
        raise JavaSyntaxError("nested too deeply to parse", line) from None


def parse_project(root_dir: os.PathLike | str) -> SourceModel:
    root = Path(root_dir)
    # a modular compilation unit declares no type (JLS 7.7)
    files = sorted(path for path in root.rglob("*.java")
                   if path.name != "module-info.java")
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
    """A qualified name is searched in the class it names, a simple name in
    each class of `_simple_name_scopes`; each class with the fields it
    inherits from its superclasses and interfaces (JLS 8.3, 9.3), in the
    order of `SourceModel.type_hierarchy`."""
    const = ref.parts[-1]
    scopes: Iterable[Optional[ClassDecl]]
    if len(ref.parts) > 1:
        scopes = [model.find_class(".".join(ref.parts[:-1]), ctx)]
    else:
        scopes = _simple_name_scopes(const, ctx, model)
    owner = next((cls for scope in scopes if scope
                  for cls in model.type_hierarchy(scope)
                  if const in cls.string_constants), None)
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
