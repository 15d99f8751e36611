"""Diagnostics shared across the pipeline stages.

Every non-fatal oddity (unparsable file, skipped parameter, unresolved
constant, ...) becomes a Diagnostic instead of an exception, so analysis
always runs to completion. What ends a run is a FatalError.
"""

from __future__ import annotations

from .values import Value, set_field


class FatalError(Exception):
    """An error that ends a run: the CLI prints `error: ` and its text."""


class Diagnostic(Value):
    __slots__ = ("code", "message", "file", "line")

    def __init__(self, code: str, message: str, file: str = "",
                 line: int = 0):
        set_field(self, "code", code)
        set_field(self, "message", message)
        set_field(self, "file", file)
        set_field(self, "line", line)

    def render(self) -> str:
        loc = f" ({self.file}:{self.line})" if self.file else ""
        return f"{self.code}: {self.message}{loc}"


# Diagnostic codes, stable for CI grepping.
PARSE_ERROR = "PARSE_ERROR"
DUPLICATE_CLASS = "DUPLICATE_CLASS"
UNRESOLVED_CONSTANT = "UNRESOLVED_CONSTANT"
UNRESOLVED_TYPE = "UNRESOLVED_TYPE"
SKIPPED_PARAMETER = "SKIPPED_PARAMETER"
SERVLET_PARAMETER = "SERVLET_PARAMETER"
DUPLICATE_METHOD = "DUPLICATE_METHOD"
PROFILE_NEGATION = "PROFILE_NEGATION"
UNRESOLVED_STATUS = "UNRESOLVED_STATUS"
BAD_PATH_SEGMENT = "BAD_PATH_SEGMENT"
UNBOUND_PATH_VARIABLE = "UNBOUND_PATH_VARIABLE"
