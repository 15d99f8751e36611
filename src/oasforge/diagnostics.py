"""Diagnostics shared across the pipeline stages.

Every non-fatal oddity (unparsable file, skipped parameter, unresolved
constant, ...) becomes a Diagnostic instead of an exception, so analysis
always runs to completion.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    file: str = ""
    line: int = 0

    def render(self) -> str:
        loc = f" ({self.file}:{self.line})" if self.file else ""
        return f"{self.code}: {self.message}{loc}"


# Diagnostic codes, stable for CI grepping.
PARSE_ERROR = "PARSE_ERROR"
UNRESOLVED_CONSTANT = "UNRESOLVED_CONSTANT"
UNRESOLVED_TYPE = "UNRESOLVED_TYPE"
SKIPPED_PARAMETER = "SKIPPED_PARAMETER"
SERVLET_PARAMETER = "SERVLET_PARAMETER"
DUPLICATE_METHOD = "DUPLICATE_METHOD"
PROFILE_NEGATION = "PROFILE_NEGATION"
UNRESOLVED_STATUS = "UNRESOLVED_STATUS"
BAD_PATH_SEGMENT = "BAD_PATH_SEGMENT"
