"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import Optional


class SkologError(Exception):
    """Base class for everything this package raises on purpose."""


class ParseError(SkologError):
    """Syntax error with a 1-based position inside (or one past) the input,
    and the name of the input when it is a file."""

    def __init__(
        self, message: str, line: int, col: int, expected: Optional[str] = None,
        source: Optional[str] = None,
    ):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        where = f"{source}:" if source else ""
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{where}{line}:{col}: {message}{suffix}")


class EngineError(SkologError):
    """Aborts the current query; the session survives."""


class InstantiationError(EngineError):
    """A builtin needed arguments more instantiated than it got."""


class NotAFactError(SkologError):
    """negate_fact was handed a clause with a non-empty body."""


class NotDefiniteError(SkologError):
    """The declarative checker got a program with cut, negation or builtins."""


class UnansweredQuestionError(EngineError):
    """A scripted oracle had no entry left matching the question."""


class OracleScriptError(SkologError):
    """An oracle script line did not match the expected shape."""
