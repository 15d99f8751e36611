import contextlib
import io
import sys
from pathlib import Path

import pytest

from oasforge.cli import main
from oasforge.javasrc import SourceModel, parse_source

TESTS_DIR = Path(__file__).parent
FIXTURES_DIR = TESTS_DIR / "fixtures"
GOLDEN_DIR = TESTS_DIR / "golden"
GT_DIR = TESTS_DIR / "gt"

# fixture projects that have a golden description per profile
GOLDEN_FIXTURES = [
    "profile_split", "constant_paths", "path_regex", "all_verbs",
    "model_attribute", "request_body", "void_default",
    "exception_precedence", "unresolved_exception", "allof_inheritance",
    "required_fields", "map_schema", "raw_wrapper", "interface_inheritance",
    "java17",
]


def model_from(*sources: str) -> SourceModel:
    classes = {}
    for i, src in enumerate(sources):
        for cls in parse_source(src, f"<test-{i}>"):
            classes[cls.qualified_name] = cls
    return SourceModel(classes)


class CliResult:
    """What one in-process `oasforge` run gave: its `exit_code`, its
    `stdout` and `stderr`, `output` with both streams in the order they were
    written, and `exception` with its `exc_info`, the exception that ended
    the run unless it ended with exit code 0."""

    def __init__(self, exit_code: int, stdout: str, stderr: str, output: str,
                 exc_info):
        self.exit_code = exit_code
        self.stdout, self.stderr, self.output = stdout, stderr, output
        self.exc_info = exc_info
        self.exception = exc_info[1] if exc_info else None


class _Tee(io.StringIO):
    """A captured stream that also writes what it is given to `both`."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self._both = both

    def write(self, text: str) -> int:
        self._both.write(text)
        return super().write(text)


def run_cli(*args: str) -> CliResult:
    """Run `oasforge ARGS` in this process, as a shell would run it, with
    stdout and stderr captured. Any exception ends the run with exit code 1,
    as it ends the interpreter."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    exit_code, exc_info = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
            if exit_code != 0:
                exc_info = sys.exc_info()
        except Exception:
            exit_code, exc_info = 1, sys.exc_info()
    return CliResult(exit_code, out.getvalue(), err.getvalue(),
                     both.getvalue(), exc_info)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR
