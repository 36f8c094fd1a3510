"""Text grammar for decision trees: one class per line, `No case` for empty
stages, patterns as `(CODE op VALUE, ...)` joined by `OR`.

Example::

    AAA     (U >= 73.715, G >= 52456.1), OR (U <= 90.02, C >= -9.54)
    AAP     No case

Parsing is whitespace- and parenthesis-insensitive. Strict mode rejects any
malformed number or unknown indicator code with line/column positions.
Lenient mode applies three documented repairs, each logged: a number with two
dots drops the second dot (`26.17.5` -> `26.175`), a `/` inside a number is
read as a decimal point (`0/685` -> `0.685`), and an unknown code whose
alphabetic prefix is a registered code sheds its trailing digits (`PPP6` ->
`PPP`). These are print artifacts in the published tables.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

from .binarize import Literal
from .data import DEFAULT_REGISTRY, Indicator, RatingScale
from .errors import DecisionTreeParseError
from .patterns import Pattern

NO_CASE = "No case"

_LITERAL_RE = re.compile(r"\s*([A-Za-z]+\d*)\s*(>=|<=)\s*([^,()]+?)\s*$")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?([eE][+-]?\d+)?$")


def _repair_number(raw: str, repairs: list[str], line: int, col: int) -> float:
    text = raw.strip()
    if _NUMBER_RE.match(text):
        return float(text)
    fixed = text
    if "/" in fixed:
        fixed = fixed.replace("/", ".", 1)
    if fixed.count(".") > 1:
        first = fixed.index(".")
        fixed = fixed[: first + 1] + fixed[first + 1 :].replace(".", "")
    if _NUMBER_RE.match(fixed):
        repairs.append(f"line {line}: repaired number {raw!r} -> {fixed!r}")
        return float(fixed)
    raise DecisionTreeParseError(f"malformed number {raw!r}", line, col)


def _repair_code(
    raw: str,
    registry: Mapping[str, Indicator],
    repairs: list[str],
    line: int,
    col: int,
) -> str:
    if raw in registry:
        return raw
    prefix = raw.rstrip("0123456789")
    if prefix != raw and prefix in registry:
        repairs.append(f"line {line}: repaired indicator code {raw!r} -> {prefix!r}")
        return prefix
    raise DecisionTreeParseError(f"unknown indicator code {raw!r}", line, col)


def parse_literal(
    text: str,
    *,
    registry: Mapping[str, Indicator] = DEFAULT_REGISTRY,
    strict: bool = True,
    repairs: Optional[list[str]] = None,
    line: int = 0,
    col: int = 0,
) -> Literal:
    m = _LITERAL_RE.match(text)
    if not m:
        raise DecisionTreeParseError(f"malformed literal {text.strip()!r}", line, col)
    raw_code, op, raw_value = m.groups()
    if strict:
        if raw_code not in registry:
            raise DecisionTreeParseError(
                f"unknown indicator code {raw_code!r}", line, col
            )
        if not _NUMBER_RE.match(raw_value.strip()):
            raise DecisionTreeParseError(
                f"malformed number {raw_value.strip()!r}", line, col
            )
        code, value = raw_code, float(raw_value)
    else:
        log = repairs if repairs is not None else []
        code = _repair_code(raw_code, registry, log, line, col)
        value = _repair_number(raw_value, log, line, col)
    return Literal(code, op, value)


def _parse_stage_body(
    body: str,
    *,
    registry: Mapping[str, Indicator],
    strict: bool,
    repairs: list[str],
    line: int,
) -> tuple[Pattern, ...]:
    if body.strip().lower() == NO_CASE.lower():
        return ()
    groups = re.split(r",?\s*\bOR\b", body)
    patterns = []
    for group in groups:
        col = body.find(group) + 1
        plain = group.replace("(", " ").replace(")", " ").strip()
        if not plain:
            continue
        literals = tuple(
            parse_literal(
                part,
                registry=registry,
                strict=strict,
                repairs=repairs,
                line=line,
                col=col,
            )
            for part in plain.split(",")
            if part.strip()
        )
        if literals:
            patterns.append(Pattern(literals=literals))
    if not patterns:
        raise DecisionTreeParseError("stage body contains no patterns", line, 1)
    return tuple(patterns)


def parse_tree_text(
    text: str,
    scale: RatingScale,
    *,
    registry: Mapping[str, Indicator] = DEFAULT_REGISTRY,
    strict: bool = True,
    repairs: Optional[list[str]] = None,
) -> dict[str, tuple[Pattern, ...]]:
    """Parse the full tree text into label -> patterns (possibly empty).

    Labels not listed in the text are absent from the result. `repairs`
    collects the lenient-mode fix log.
    """
    log = repairs if repairs is not None else []
    stages: dict[str, tuple[Pattern, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        label = parts[0]
        if label not in scale:
            raise DecisionTreeParseError(f"unknown rating label {label!r}", lineno, 1)
        if label in stages:
            raise DecisionTreeParseError(f"duplicate stage for {label!r}", lineno, 1)
        body = parts[1] if len(parts) > 1 else NO_CASE
        stages[label] = _parse_stage_body(
            body, registry=registry, strict=strict, repairs=log, line=lineno
        )
    return stages


def render_tree_text(stages: Mapping[str, tuple[Pattern, ...]]) -> str:
    lines = [
        f"{label}\t{', OR '.join(str(p) for p in patterns) or NO_CASE}"
        for label, patterns in stages.items()
    ]
    return "\n".join(lines) + "\n"
