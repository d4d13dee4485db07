"""Error types shared across the engine.

Every error raised while executing a transaction aborts that transaction
atomically; the harness catches ``SolsemError`` at the transaction boundary.
"""

from __future__ import annotations


class Span:
    """Source position (1-based line/column) attached to tokens and AST nodes."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.line}:{self.col}"

    def __eq__(self, other):
        return isinstance(other, Span) and (self.line, self.col) == (other.line, other.col)


class SolsemError(Exception):
    """Base class; carries an optional source span for diagnostics."""

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def diagnostic(self, filename: str = "<input>") -> str:
        where = f"{filename}:{self.span}" if self.span else filename
        return f"{where}: {self.message}"


class SolSyntaxError(SolsemError):
    """Malformed input."""


class UnsupportedFeature(SolsemError):
    """A recognized Solidity construct that is outside the covered subset."""

    def __init__(self, feature: str, span: Span | None = None):
        super().__init__(f"unsupported feature: {feature}", span)
        self.feature = feature


class SolTypeError(SolsemError):
    pass


class UnsizedType(SolTypeError):
    pass


class RangeError(SolsemError):
    pass


class DuplicateDeclaration(SolsemError):
    pass


class UnknownIdentifier(SolsemError):
    pass


class IndexOutOfBounds(SolsemError):
    pass


class DivisionByZero(SolsemError):
    pass


class UnknownAddress(SolsemError):
    pass


class InsufficientBalance(SolsemError):
    pass


class TxAborted(SolsemError):
    """Raised by the transaction harness after rolling back; wraps the cause."""

    def __init__(self, reason: str, cause: SolsemError | None = None):
        super().__init__(f"transaction aborted: {reason}")
        self.reason = reason
        self.cause = cause
