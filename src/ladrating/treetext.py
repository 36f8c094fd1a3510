"""Text grammar for decision trees: one class per line, `No case` for empty
stages, patterns as `(CODE op VALUE, ...)` joined by `OR`.

Example::

    AAA     (U >= 73.715, G >= 52456.1), OR (U <= 90.02, C >= -9.54)
    AAP     No case

Parsing is whitespace- and parenthesis-insensitive. Strict mode rejects any
malformed number or unknown indicator code with its line and column. A
column is 1-based, in the line as written, and points at what failed: the
literal, the label, or the start of a stage body with no patterns.
Lenient mode applies three documented repairs, each logged: a number with two
dots drops the second dot (`26.17.5` -> `26.175`), a `/` inside a number is
read as a decimal point (`0/685` -> `0.685`), and an unknown code whose
alphabetic prefix is a registered code sheds its trailing digits (`PPP6` ->
`PPP`). These are print artifacts in the published tables. Both modes reject
a threshold that overflows a float (`1e999`) and a text with no stage line.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Optional

from .binarize import Literal
from .data import DEFAULT_REGISTRY, RatingScale
from .errors import DecisionTreeParseError
from .patterns import Pattern

NO_CASE = "No case"

_LITERAL_RE = re.compile(r"\s*([A-Za-z]+\d*)\s*(>=|<=)\s*([^,()\s][^,()]*?)\s*$")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?([eE][+-]?\d+)?$")
_OR_RE = re.compile(r"\bOR\b")
_PART_RE = re.compile(r"[^,\s][^,]*")  # one literal, from its first non-blank


def _repair_number(raw: str, repairs: Optional[list[str]], line: int, col: int) -> float:
    """`raw` as a float. With a `repairs` log (lenient mode) a print
    artifact is repaired and logged; without one it is an error."""
    if _NUMBER_RE.match(raw):
        return float(raw)
    if repairs is not None:
        fixed = raw.replace("/", ".", 1)
        if fixed.count(".") > 1:
            first = fixed.index(".")
            fixed = fixed[: first + 1] + fixed[first + 1 :].replace(".", "")
        if _NUMBER_RE.match(fixed):
            repairs.append(f"line {line}: repaired number {raw!r} -> {fixed!r}")
            return float(fixed)
    raise DecisionTreeParseError(f"malformed number {raw!r}", line, col)


def _repair_code(raw: str, repairs: Optional[list[str]], line: int, col: int) -> str:
    """`raw` as an indicator code of `DEFAULT_REGISTRY`. With a `repairs`
    log (lenient mode) trailing digits are shed and logged; without one an
    unknown code is an error."""
    if raw in DEFAULT_REGISTRY:
        return raw
    prefix = raw.rstrip("0123456789")
    if repairs is not None and prefix != raw and prefix in DEFAULT_REGISTRY:
        repairs.append(f"line {line}: repaired indicator code {raw!r} -> {prefix!r}")
        return prefix
    raise DecisionTreeParseError(f"unknown indicator code {raw!r}", line, col)


def parse_literal(
    text: str, *, repairs: Optional[list[str]] = None, line: int = 0, col: int = 0
) -> Literal:
    """One `CODE op VALUE` literal; strict when `repairs` is None, lenient
    (repairs appended to the list) otherwise."""
    m = _LITERAL_RE.match(text)
    if not m:
        raise DecisionTreeParseError(f"malformed literal {text.strip()!r}", line, col)
    raw_code, op, raw_value = m.groups()
    code = _repair_code(raw_code, repairs, line, col)
    value = _repair_number(raw_value, repairs, line, col)
    if not math.isfinite(value):
        # `1e999` matches the number grammar but overflows to inf.
        raise DecisionTreeParseError(f"non-finite threshold {raw_value!r}", line, col)
    return Literal(code, op, value)


def _parse_stage_body(
    body: str, *, repairs: Optional[list[str]], line: int, col: int
) -> tuple[Pattern, ...]:
    """The patterns of one stage's `body`, which starts at 1-based column
    `col` of its line. Parentheses read as blanks, which keeps every
    literal at its column; the `OR`s split the patterns and the commas the
    literals."""
    if body.strip().lower() == NO_CASE.lower():
        return ()
    plain = body.replace("(", " ").replace(")", " ")
    # Pattern i runs from bounds[2i] to bounds[2i + 1], between two `OR`s.
    bounds = [0] + [i for m in _OR_RE.finditer(plain) for i in m.span()] + [len(plain)]
    patterns = []
    for start, end in zip(bounds[::2], bounds[1::2]):
        literals = tuple(
            parse_literal(part.group(), repairs=repairs, line=line, col=col + part.start())
            for part in _PART_RE.finditer(plain, start, end)
        )
        if literals:
            patterns.append(Pattern(literals=literals))
    if not patterns:
        raise DecisionTreeParseError("stage body contains no patterns", line, col)
    return tuple(patterns)


def parse_tree_text(
    text: str, scale: RatingScale, *, repairs: Optional[list[str]] = None
) -> dict[str, tuple[Pattern, ...]]:
    """Parse the full tree text into label -> patterns (possibly empty).

    Labels not listed in the text are absent from the result; a text with
    no stage line at all is an error. Parsing is strict when `repairs` is
    None and lenient otherwise, with the repair log appended to `repairs`.
    """
    stages: dict[str, tuple[Pattern, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        label = parts[0]
        label_col = len(raw) - len(raw.lstrip()) + 1
        if label not in scale:
            raise DecisionTreeParseError(f"unknown rating label {label!r}", lineno, label_col)
        if label in stages:
            raise DecisionTreeParseError(f"duplicate stage for {label!r}", lineno, label_col)
        body = parts[1] if len(parts) > 1 else NO_CASE
        col = label_col + len(stripped) - len(body)  # `body` ends `stripped`
        stages[label] = _parse_stage_body(body, repairs=repairs, line=lineno, col=col)
    if not stages:
        raise DecisionTreeParseError("tree text holds no stage line")
    return stages


def render_tree_text(stages: Mapping[str, tuple[Pattern, ...]]) -> str:
    lines = [
        f"{label}\t{', OR '.join(str(p) for p in patterns) or NO_CASE}"
        for label, patterns in stages.items()
    ]
    return "\n".join(lines) + "\n"
