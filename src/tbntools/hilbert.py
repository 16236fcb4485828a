"""Polymer basis computation via Hilbert bases of rational cones.

The self-saturated polymers of a TBN are exactly the integer points of
the cone ``{p >= 0 : A p >= 0}``, where row ``s`` of ``A`` holds each
monomer type's net count of site name ``s`` (unstarred minus starred).
The polymer basis is the Hilbert basis of that cone: the finitely many
polymers that cannot be split into two smaller self-saturated ones.
Every saturated configuration is a multiset of basis polymers.

The basis is computed with the Contejean-Devie completion procedure on
the slack-extended equality system ``A x - s = 0``; minimal solutions of
that system project one-to-one onto the cone's Hilbert basis.  A
configuration uses at most ``t.counts[i]`` copies of monomer ``i``, so the
basis route of ``stable_via_basis`` computes only the elements within the
finite counts, by a completion truncated there.  Its cover IP has a
variable per element holding a limiting monomer and minimizes the merge
count, so TBNs with infinite counts take the same route.

``brute_force_hilbert`` is an independent oracle that enumerates cone
points up to a norm cap and keeps the indecomposable ones.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from . import solver
from .core import (
    INF,
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    canonical_unique,
    is_self_saturated,
)
from .ipmodel import EQ, LE, Constraint, IntegerProgram, Objective, Variable


class BasisError(TbnError):
    """Hilbert basis computation failed or was asked for the impossible."""


@solver._drained
def hilbert_basis(
    rows: Sequence[Sequence[int]],
    n: Optional[int] = None,
    budget: solver.Budget | solver.Clock | None = None,
    upper: Optional[Sequence[Optional[int]]] = None,
) -> solver.Steps[List[Tuple[int, ...]]]:
    """Hilbert basis of ``{x in N^n : rows . x >= 0}``, or with ``upper``
    its elements with ``x_k <= upper[k]`` for every capped ``k``.

    Completion procedure on the slack-extended system: lifted vectors are
    ``(x, s)`` with value ``A x - s``; unit vectors seed the frontier and
    a vector grows along directions that reduce the value's norm.  Each
    exact solution found is minimal; grown vectors dominating a known
    solution are pruned.

    ``upper`` caps the ``n`` cone coordinates; a ``None`` entry, and
    every slack coordinate, stays uncapped.  A child whose coordinate
    passes its cap is dropped.  The completion reaches every minimal
    solution ``s`` through vectors ``<= s`` (Contejean & Devie, Inf.
    Comput. 113, 1994), so every basis element within the caps is still
    found, and every solution below one of them is too, so the ones
    found are still minimal: the result is the full basis filtered to
    the caps.

    The domination test is the hot loop, so each lifted vector is held as
    one Python int: coordinate ``k`` sits in bits ``[w*k, w*k + w)``, and
    the top bit of every field is a guard that the coordinates never
    reach.  With ``G`` the guard bits of all fields, ``y >= b``
    componentwise iff ``((y | G) - b) & G == G``: each field computes
    ``2**(w-1) + y_k - b_k``, which stays in ``[1, 2**w)``, so no field
    borrows from the next and its guard survives iff ``y_k >= b_k``.
    Growing along direction ``k`` adds ``1 << (w*k)``.

    Each frontier vector is one node: it spends one node of the clock
    before it is expanded, and ``BudgetExhausted`` is raised once the clock
    passes ``Budget.max_nodes`` or ``Budget.max_time``.

    Width invariant: the unit vectors are level 0, and a child made at
    level ``L`` has 1-norm ``L + 2``.  A level-``L`` vector is expanded
    only when the clock's node count, at least ``L + 1`` by then, is
    within ``Budget.max_nodes``, so no coordinate exceeds
    ``max_nodes + 1``, and ``w`` is one guard bit wider than that value
    needs.  Mind ``max_nodes = 2**b - 1``: its largest coordinate
    ``2**b`` needs ``b + 1`` bits, one more than ``max_nodes`` itself,
    so ``w = b + 2``.

    Each child is checked against every solution known when it is made,
    and that check reads an index, not the whole basis.  A frontier
    vector ``y`` of level ``L`` is dominated by no known solution: those
    known when it was made were checked, and one found since has a
    1-norm at least ``y``'s, while a solution of the same 1-norm cannot
    be ``<=`` a vector whose value is nonzero.  So a known solution
    ``b <= y + e_k`` has ``b_k == y_k + 1``.  The solutions are therefore
    indexed by coordinate and value, and the child ``y + e_k`` is tested
    only against those whose coordinate ``k`` is ``y_k + 1``: the same
    prunes as a scan of the whole basis.  The cap test reads the same
    coordinate.

    The descent directions of a vector, those with ``value . column_k <
    0``, depend only on its value ``A x - s``, so they are found once per
    value and reused by every vector that has it.
    """
    clock = solver.Clock.of(budget)
    if n is None:
        if not rows:
            raise BasisError("need explicit dimension for an empty system")
        n = len(rows[0])
    m = len(rows)
    dims = n + m

    # column k of [A | -I], and its nonzeros
    columns: List[Tuple[int, ...]] = []
    nonzeros: List[Tuple[Tuple[int, int], ...]] = []
    for k in range(n):
        col = tuple(row[k] for row in rows)
        columns.append(col)
        nonzeros.append(tuple((i, c) for i, c in enumerate(col) if c))
    for r in range(m):
        columns.append((0,) * r + (-1,) + (0,) * (m - r - 1))
        nonzeros.append(((r, -1),))

    # every coordinate is at most max_nodes + 1 (the width invariant
    # above); one more bit per field is its guard
    width = (max(clock.budget.max_nodes, 0) + 1).bit_length() + 1
    units = [1 << (width * k) for k in range(dims)]
    guard = sum(u << (width - 1) for u in units)

    mask = (1 << width) - 1
    # no coordinate reaches the guard bit, so a cap of mask never binds
    caps = [mask] * dims
    for k, cap in enumerate(upper or ()):
        if cap is not None:
            caps[k] = cap
    zero_value = (0,) * m
    basis: List[int] = []
    # by_coord[k][v]: the known solutions whose coordinate k is v > 0
    by_coord: List[Dict[int, List[int]]] = [{} for _ in range(dims)]
    # direction k: its column's nonzeros, then its step: the shift, unit
    # and cap of coordinate k, the index by_coord[k] and the column
    directions = [
        (nonzeros[k], (width * k, units[k], caps[k], by_coord[k], col))
        for k, col in enumerate(columns)
    ]
    # per value: the steps of its descent directions
    descents: Dict[Tuple[int, ...], Tuple[Tuple, ...]] = {}

    def record(b: int) -> None:
        basis.append(b)
        for k in range(dims):
            v = (b >> (width * k)) & mask
            if v:
                by_coord[k].setdefault(v, []).append(b)

    frontier: List[Tuple[int, Tuple[int, ...]]] = []
    for k in range(dims):
        if caps[k] < 1:
            continue
        if columns[k] == zero_value:
            record(units[k])
        else:
            frontier.append((units[k], columns[k]))

    while frontier:
        next_level: Dict[int, Tuple[int, ...]] = {}
        for y, value in frontier:
            yield
            clock.spend("polymer basis completion")
            moves = descents.get(value)
            if moves is None:
                moves = descents[value] = tuple(
                    step for nonzeros, step in directions
                    if sum(value[i] * c for i, c in nonzeros) < 0)
            for shift, unit, cap, index, col in moves:
                child = y + unit
                if child in next_level:
                    continue
                v = (child >> shift) & mask
                if v > cap:
                    continue
                # a known solution <= child has the child's coordinate k
                cg = child | guard
                for b in index.get(v, ()):
                    if (cg - b) & guard == guard:
                        break
                else:
                    child_value = tuple(map(add, value, col))
                    if child_value == zero_value:
                        record(child)
                    else:
                        next_level[child] = child_value
        frontier = list(next_level.items())

    projected = sorted(
        tuple((y >> (width * k)) & mask for k in range(n)) for y in basis
    )
    return [x for x in projected if any(x)]


def polymer_basis(
    t: Tbn, budget: solver.Budget | solver.Clock | None = None
) -> List[Polymer]:
    """All self-saturated polymers that cannot split into smaller ones."""
    if t.n_types == 0:
        return []
    vectors = hilbert_basis(t.site_matrix, t.n_types, budget)
    return [Polymer(v) for v in sorted(vectors, reverse=True)]


def _in_cone(rows: Sequence[Sequence[int]], x: Sequence[int]) -> bool:
    return all(
        sum(c * v for c, v in zip(row, x)) >= 0 for row in rows
    )


def brute_force_hilbert(
    rows: Sequence[Sequence[int]], n: int, cap: int
) -> List[Tuple[int, ...]]:
    """Oracle: indecomposable cone points with 1-norm up to ``cap``."""
    points: List[Tuple[int, ...]] = []

    def extend(prefix: List[int], remaining: int, k: int) -> None:
        if k == n:
            if any(prefix) and _in_cone(rows, prefix):
                points.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            prefix.append(v)
            extend(prefix, remaining - v, k + 1)
            prefix.pop()

    extend([], cap, 0)
    point_set = set(points)

    def decomposable(x: Tuple[int, ...]) -> bool:
        for u in points:
            if u == x or not all(a <= b for a, b in zip(u, x)):
                continue
            rest = tuple(b - a for a, b in zip(u, x))
            if rest in point_set:
                return True
        return False

    return sorted(x for x in points if not decomposable(x))


def decompose(
    p: Polymer, basis: Sequence[Polymer], t: Tbn
) -> List[Polymer]:
    """Write a self-saturated polymer as a sum of basis polymers.

    Depth-first with backtracking, trying basis elements in order, so the
    result is deterministic.  Raises if no decomposition exists (the
    polymer is not self-saturated or the basis is not one).
    """
    zero = (0,) * t.n_types

    def search(remaining: Tuple[int, ...], start: int):
        if remaining == zero:
            return []
        for idx in range(start, len(basis)):
            b = basis[idx].counts
            if not all(a <= r for a, r in zip(b, remaining)):
                continue
            rest = tuple(r - a for r, a in zip(remaining, b))
            if not is_self_saturated(Polymer(rest), t):
                continue
            tail = search(rest, idx)
            if tail is not None:
                return [basis[idx]] + tail
        return None

    result = search(tuple(p.counts), 0)
    if result is None:
        raise BasisError(
            f"polymer {p.counts} has no decomposition over the given basis"
        )
    return result


def _basis_cover_program(
    t: Tbn, basis: Sequence[Polymer]
) -> IntegerProgram:
    """Cover IP: basis multiplicities ``n_b`` of least merge count.

    A variable stands for each basis element that holds a limiting
    monomer; every other one is a singleton of a non-limiting type, which
    a partial configuration leaves implied.  Each limiting type is used
    exactly (``EQ``), each finite non-limiting type at most its count
    (``LE``), and an infinite type is free.  A variable's upper bound
    comes from its finite coordinates, which include a limiting one.  The
    objective ``min sum n_b (|b| - 1)`` is the merge count.
    """
    limiting = t.limiting_indices
    variables, objective = [], []
    terms: List[List[Tuple[str, int]]] = [[] for _ in range(t.n_types)]
    for idx, b in enumerate(basis):
        if not any(b.counts[i] for i in limiting):
            continue
        name = f"n_{idx}"
        upper = min(
            t.counts[i] // c for i, c in enumerate(b.counts)
            if c > 0 and t.counts[i] is not INF
        )
        variables.append(Variable(name, 0, upper))
        objective.append((name, b.size - 1))
        for i, c in enumerate(b.counts):
            if c > 0:
                terms[i].append((name, c))
    constraints = []
    for i, (mon, count) in enumerate(zip(t.monomer_types, t.counts)):
        if mon.is_limiting and not terms[i]:
            raise BasisError(f"monomer {mon} appears in no basis polymer")
        if mon.is_limiting or count is not INF:
            sense = EQ if mon.is_limiting else LE
            constraints.append(
                Constraint(tuple(terms[i]), sense, count, f"cover_m{i}")
            )
    return IntegerProgram(
        tuple(variables), tuple(constraints),
        Objective("min", tuple(objective)),
    )


def stable_via_basis(
    t: Tbn,
    basis: Optional[Sequence[Polymer]] = None,
    budget: solver.Budget | solver.Clock | None = None,
) -> solver.EnumerationResult:
    """Stable configurations of a TBN from its polymer basis.

    A saturated configuration is a multiset of basis polymers that uses
    every limiting monomer and at most the supply of every other one;
    the monomers left over are implied singletons.  A configuration
    holds at most ``t.counts[i]`` copies of monomer ``i``, so only the
    basis elements within the counts matter: without ``basis``,
    ``hilbert_basis`` is truncated at the finite counts, and a given
    basis is filtered to them.  The level scan of ``solver`` finds every
    minimizer of the cover IP (``_basis_cover_program``), whose
    objective is the merge count, so infinite counts need no special
    case.  Returns the same EnumerationResult as the direct solver, with
    ``stats.route == "basis"``.  One budget covers the whole call, the
    basis included when it is not given; when it runs out the result has
    ``complete=False``, no solutions and ``optimum=None``.
    """
    clock = solver.Clock.of(budget)
    try:
        return _basis_route(t, basis, clock, True)
    except solver.BudgetExhausted:
        return solver.EnumerationResult(None, [], False, clock.stats("basis"))


@solver._drained
def _basis_route(
    t: Tbn,
    basis: Optional[Sequence[Polymer]],
    clock: solver.Clock,
    want_all: bool,
) -> solver.Steps[solver.EnumerationResult]:
    """``stable_via_basis`` on a running clock: a witness, or with
    ``want_all`` every stable configuration.  ``BudgetExhausted`` ends
    it once the clock runs out."""
    if basis is None:
        caps = [None if c is INF else c for c in t.counts]
        vectors = yield from hilbert_basis.steps(
            t.site_matrix, t.n_types, clock, caps
        )
        basis = [Polymer(v) for v in sorted(vectors, reverse=True)]
    # an element holding more copies of a monomer than t has fits in no
    # configuration; in the IP it would be a variable fixed at 0
    basis = [
        b for b in basis
        if all(c <= limit for c, limit in zip(b.counts, t.counts))
    ]
    program = _basis_cover_program(t, basis)
    status, best, assignments = yield from solver.scan_levels.steps(
        program, clock, want_all
    )
    if status != solver.OPTIMAL:
        raise BasisError(f"basis counting IP ended {status}")
    configs = []
    for assignment in assignments:
        polymers = []
        for idx, b in enumerate(basis):
            if b.size >= 2:
                polymers.extend([b] * assignment[f"n_{idx}"])
        configs.append(PartialConfiguration.from_polymers(polymers, t))
    return solver.EnumerationResult(
        best, canonical_unique(configs), True, clock.stats("basis")
    )


def render_basis_table(basis: Sequence[Polymer], t: Tbn) -> str:
    """Human-readable table: one basis polymer per line."""
    lines = []
    width = len(str(len(basis)))
    for k, p in enumerate(basis, start=1):
        lines.append(f"{k:>{width}}. {p.describe(t)}")
    return "\n".join(lines) + ("\n" if lines else "")
