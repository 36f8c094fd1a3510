"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LadError(Exception):
    """Base class for all errors raised by this package.

    `stage` names the cascade stage whose training raised the error, as in
    "stage 1 (AAA)", and is None elsewhere; the message leaves it out.
    """

    stage: str | None = None


class DataFormatError(LadError):
    """Malformed or inconsistent input data (CSV, value strings, labels)."""


class ContradictionError(LadError):
    """Two records are indistinguishable yet carry opposite binary labels."""

    def __init__(self, message: str, pairs: list[tuple[str, str]] | None = None):
        super().__init__(message)
        self.pairs = pairs or []


class CoverageError(LadError):
    """A DNF could not reach its positive-coverage target."""


class DecisionTreeParseError(LadError):
    """Syntax error in the decision-tree text format."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col
