"""CPLEX LP text format export/import for integer programs.

The writer emits the subset of the LP format every MILP solver accepts
(Minimize/Subject To/Bounds/Generals); the parser reads that same subset
back, which lets tests round-trip models and lets external solvers
cross-check ours.  Every objective here is minimized, so the writer's
section is always ``Minimize`` and the parser rejects a ``Maximize``
one rather than read a maximization as a minimization.  Solution files
are plain ``name = value`` lines.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Tuple

from .core import TbnError
from .ipmodel import (
    EQ,
    GE,
    LE,
    Constraint,
    IntegerProgram,
    Objective,
    Variable,
)


class LpFormatError(TbnError):
    """Unparseable LP or solution text."""


# how far a solution value may lie from the integer it is read as
INTEGRALITY_TOLERANCE = Fraction(1, 10**6)


def _format_terms(coeffs) -> str:
    parts: List[str] = []
    for var, coeff in coeffs:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        term = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(term if coeff > 0 else f"- {term}")
        else:
            parts.append(f"{sign} {term}")
    if not parts:
        raise LpFormatError("cannot serialize an empty linear expression")
    return " ".join(parts)


def write_lp(program: IntegerProgram) -> str:
    """Serialize the program in CPLEX LP format."""
    lines = ["Minimize"]
    if program.objective is not None:
        lines.append(" obj: " + _format_terms(program.objective.coeffs))
    else:
        # LP format requires an objective section; use a constant one
        lines.append(" obj: 0 " + program.variables[0].name)
    lines.append("Subject To")
    op = {LE: "<=", GE: ">=", EQ: "="}
    for k, con in enumerate(program.constraints):
        name = con.name or f"c{k}"
        lines.append(
            f" {name}: {_format_terms(con.coeffs)} {op[con.sense]} {con.rhs}"
        )
    lines.append("Bounds")
    for v in program.variables:
        lines.append(f" {v.lower} <= {v.name} <= {v.upper}")
    lines.append("Generals")
    for v in program.variables:
        lines.append(f" {v.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"([+-]?)\s*(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(text: str) -> Tuple[Tuple[str, int], ...]:
    coeffs: Dict[str, int] = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None:
            raise LpFormatError(f"cannot parse linear expression at {text[pos:]!r}")
        sign, mag, var = match.groups()
        coeff = int(mag) if mag else 1
        if sign == "-":
            coeff = -coeff
        coeffs[var] = coeffs.get(var, 0) + coeff
        pos = match.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return tuple((v, c) for v, c in coeffs.items() if c != 0)


def parse_lp(text: str) -> IntegerProgram:
    """Parse LP text produced by :func:`write_lp` (or equivalent).  A
    ``Binaries`` name lies in [0, 1] unless bounded; a ``Generals`` name
    needs a bounds line, since LP semantics give it [0, inf).  A
    ``Maximize`` section is an ``LpFormatError``."""
    section = None
    objective_text: List[str] = []
    constraint_rows: List[Tuple[str, str]] = []
    bounds: Dict[str, Tuple[int, int]] = {}
    generals: List[str] = []

    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("maximize", "max"):
            raise LpFormatError("only a Minimize objective is supported")
        if lowered in ("minimize", "min"):
            section = "objective"
            continue
        if lowered in ("subject to", "st", "s.t.", "such that"):
            section = "constraints"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered in ("generals", "general", "integers", "binaries", "binary"):
            section = "generals"
            binary = lowered.startswith("bin")
            continue
        if lowered == "end":
            break

        if section == "objective":
            if ":" in line:
                _, _, line = line.partition(":")
            objective_text.append(line.strip())
        elif section == "constraints":
            if ":" in line:
                label, _, line = line.partition(":")
                constraint_rows.append((label.strip(), line.strip()))
            elif constraint_rows and not re.search(r"[<>=]", constraint_rows[-1][1]):
                label, body = constraint_rows.pop()
                constraint_rows.append((label, body + " " + line))
            else:
                constraint_rows.append((f"c{len(constraint_rows)}", line))
        elif section == "bounds":
            match = re.match(
                r"(-?\d+)\s*<=\s*([A-Za-z_][A-Za-z0-9_]*)\s*<=\s*(-?\d+)", line
            )
            if match is None:
                raise LpFormatError(f"unsupported bounds line {line!r}")
            lo, name, hi = match.groups()
            bounds[name] = (int(lo), int(hi))
        elif section == "generals":
            generals.extend(line.split())
            if binary:
                for name in line.split():
                    bounds.setdefault(name, (0, 1))
        else:
            raise LpFormatError(f"text outside any section: {line!r}")

    constraints: List[Constraint] = []
    for label, body in constraint_rows:
        match = re.search(r"(<=|>=|=)", body)
        if match is None:
            raise LpFormatError(f"constraint {label!r} has no comparison")
        lhs = body[: match.start()]
        rhs_text = body[match.end():].strip()
        try:
            rhs = int(rhs_text)
        except ValueError as exc:
            raise LpFormatError(
                f"constraint {label!r} has non-integer rhs {rhs_text!r}"
            ) from exc
        constraints.append(
            Constraint(_parse_terms(lhs), match.group(1), rhs, label)
        )

    for name in generals:
        if name not in bounds:
            raise LpFormatError(
                f"general variable {name!r} needs finite bounds, not [0, inf)"
            )
    variables = tuple(
        Variable(name, *bounds[name])
        for name in dict.fromkeys(generals + list(bounds))
    )
    objective = None
    if objective_text:
        terms = _parse_terms(" ".join(objective_text))
        # drop constant-zero placeholder objectives
        if terms:
            objective = Objective(terms)
    return IntegerProgram(variables, tuple(constraints), objective)


def write_solution(assignment: Dict[str, int]) -> str:
    """One ``name = value`` line per variable."""
    return "".join(f"{k} = {v}\n" for k, v in sorted(assignment.items()))


def parse_solution(text: str) -> Dict[str, int]:
    """Read a solution file: ``name = value`` or ``name value`` per line.

    Each value is read exactly and must lie within
    ``INTEGRALITY_TOLERANCE`` of an integer, which it is rounded to:
    solvers print integral values such as ``0.9999999999``.  A name set
    on two lines is an error.
    """
    assignment: Dict[str, int] = {}
    # the line that set each name
    set_on: Dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("=", " ").split()
        if len(parts) != 2:
            raise LpFormatError(
                f"line {line_no}: expected 'name = value', got {raw!r}"
            )
        name, value = parts
        if name in set_on:
            raise LpFormatError(
                f"line {line_no}: {name} already set on line {set_on[name]}"
            )
        set_on[name] = line_no
        try:
            # float() first: it reads a value such as 1e999999999 as inf,
            # which Fraction would expand into a billion-digit integer
            if not math.isfinite(float(value)):
                raise ValueError(value)
            exact = Fraction(value)
        except ValueError as exc:
            raise LpFormatError(
                f"line {line_no}: value {value!r} is not a finite number"
            ) from exc
        nearest = round(exact)
        if abs(exact - nearest) > INTEGRALITY_TOLERANCE:
            raise LpFormatError(
                f"line {line_no}: value {value!r} of {name} is not an integer"
            )
        assignment[name] = nearest
    return assignment
