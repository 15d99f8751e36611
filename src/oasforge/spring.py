"""Spring framework vocabulary: annotation names, HTTP status table,
servlet-parameter types, and the reader of string attribute elements."""

from __future__ import annotations

from http import HTTPStatus
from typing import AbstractSet, Iterator, Optional

from .diagnostics import UNRESOLVED_CONSTANT, Diagnostic
from .javasrc import (AnnotationUse, AttributeValue, ClassDecl, SourceModel,
                      resolve_string_constant, spelling)

# The verbs of a mapping without a `method`; a `method` may also name TRACE.
HTTP_VERBS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS")
REQUEST_METHODS = HTTP_VERBS + ("TRACE",)

# Sets of annotation names: `find_annotation` would read a string as a set
# of substrings.
CONTROLLER_MARKERS = frozenset({"RestController", "Controller"})
ADVICE_MARKERS = frozenset({"ControllerAdvice", "RestControllerAdvice"})
PROFILE_MARKER = frozenset({"Profile"})
RESPONSE_STATUS = frozenset({"ResponseStatus"})
EXCEPTION_HANDLER = frozenset({"ExceptionHandler"})

VERB_MAPPINGS = {
    "GetMapping": "GET",
    "PostMapping": "POST",
    "PutMapping": "PUT",
    "DeleteMapping": "DELETE",
    "PatchMapping": "PATCH",
}
REQUEST_MAPPING = frozenset({"RequestMapping"})
MAPPING_ANNOTATIONS = frozenset(VERB_MAPPINGS) | REQUEST_MAPPING

# The location of a parameter that one of these annotations binds; its
# `required` is true unless `required = false` or a `defaultValue` says
# otherwise.
PARAM_LOCATIONS = {"RequestParam": "query", "RequestHeader": "header",
                   "CookieValue": "cookie"}
PARAM_ANNOTATIONS = frozenset({"PathVariable", "RequestBody",
                               "ModelAttribute", *PARAM_LOCATIONS})

# Bean Validation constraints that reject null.
REQUIRED_MARKERS = frozenset({"NotNull", "NotEmpty", "NotBlank"})

SERVLET_TYPES = {
    "HttpServletRequest", "HttpServletResponse", "ServletRequest",
    "ServletResponse", "WebRequest", "NativeWebRequest", "HttpSession",
}

# Packages whose annotations we treat as framework annotations when the
# qualified name is known; an annotation with no known qualified name
# passes, one whose qualified name lies elsewhere does not.
FRAMEWORK_PACKAGE_PREFIXES = (
    "org.springframework",
    "javax.validation",
    "jakarta.validation",
    "javax.annotation",
    "jakarta.annotation",
    "java.lang",
)

# The superclass of common java.lang and java.io exceptions, by simple
# name, so that a handler for a superclass catches an exception whose chain
# leaves the source tree. Library exceptions (Spring's among them) are left
# out until an input shows which ones are needed; so is any name that means
# different classes in different libraries.
EXCEPTION_SUPERCLASSES = {
    "Exception": "Throwable",
    "RuntimeException": "Exception",
    "IOException": "Exception",
    "UncheckedIOException": "RuntimeException",
    "IllegalArgumentException": "RuntimeException",
    "NumberFormatException": "IllegalArgumentException",
    "IllegalStateException": "RuntimeException",
    "UnsupportedOperationException": "RuntimeException",
}

# Spring HttpStatus constant names that differ from http.HTTPStatus, plus
# names absent from the stdlib table.
_EXTRA_STATUS = {
    "I_AM_A_TEAPOT": 418,
    "MOVED_TEMPORARILY": 302,
    "REQUEST_ENTITY_TOO_LARGE": 413,
    "REQUEST_URI_TOO_LONG": 414,
    "CHECKPOINT": 103,
    "PAYLOAD_TOO_LARGE": 413,
    "URI_TOO_LONG": 414,
    "DESTINATION_LOCKED": 421,
}

_STATUS_BY_NAME: dict[str, int] = {s.name: s.value for s in HTTPStatus}
_STATUS_BY_NAME.update(_EXTRA_STATUS)

_PHRASE_BY_CODE: dict[int, str] = {s.value: s.phrase for s in HTTPStatus}
_PHRASE_BY_CODE.setdefault(103, "Checkpoint")


def status_code_for(identifier: str) -> Optional[str]:
    """Map an HttpStatus constant name or numeric literal to a code in
    100-599; None when it names no such code."""
    code = int(identifier) if identifier.isdecimal() \
        else _STATUS_BY_NAME.get(identifier)
    return str(code) if code is not None and 100 <= code <= 599 else None


def reason_phrase(code: str) -> str:
    """The reason phrase of a code from `status_code_for`."""
    return _PHRASE_BY_CODE.get(int(code), f"Status {code}")


def is_framework_annotation(anno: AnnotationUse) -> bool:
    """Simple-name matching, gated by the qualified name when its file
    gives one."""
    name = anno.qualified_name
    return name is None or name.startswith(FRAMEWORK_PACKAGE_PREFIXES)


def find_annotation(annotations, names: AbstractSet[str]
                    ) -> Optional[AnnotationUse]:
    """The first of `annotations`, in declaration order, that is a
    framework annotation named in `names`."""
    return next((anno for anno in annotations if anno.simple_name in names
                 and is_framework_annotation(anno)), None)


def attr_strings(anno: AnnotationUse, names: tuple[str, ...], what: str,
                 ctx: ClassDecl, model: SourceModel, file: str, line: int,
                 diagnostics: list[Diagnostic]
                 ) -> Iterator[tuple[AttributeValue, Optional[str]]]:
    """Each element of the first attribute in `names` that `anno` sets,
    with its string as named in `ctx`, or None when it does not resolve:
    such an element is reported as UNRESOLVED_CONSTANT at `file`:`line`
    when it is reached."""
    for item in next(filter(None, map(anno.items, names)), ()):
        text = resolve_string_constant(item, ctx, model)
        if text is None:
            diagnostics.append(Diagnostic(
                UNRESOLVED_CONSTANT,
                f"cannot resolve {what} {spelling(item)!r} in "
                f"{ctx.qualified_name}", file, line))
        yield item, text
