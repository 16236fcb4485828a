"""Polymer basis computation via Hilbert bases of rational cones.

The self-saturated polymers of a TBN are exactly the integer points of
the cone ``{p >= 0 : A p >= 0}``, where row ``s`` of ``A`` holds each
monomer type's net count of site name ``s`` (unstarred minus starred).
The polymer basis is the Hilbert basis of that cone: the finitely many
polymers that cannot be split into two smaller self-saturated ones.
Every saturated configuration is a multiset of basis polymers.

The basis is computed in monomer space, one site name's inequality at a
time: each step completes the Hilbert basis of the cone so far into the
basis of its intersection with the next half-space (``hilbert_basis``).
A configuration uses at most ``t.counts[i]`` copies of monomer ``i``, so the
basis route of ``stable_via_basis`` computes only the elements within the
finite counts, by a completion truncated there.  Its cover IP has a
variable per element holding a limiting monomer and minimizes the merge
count, so TBNs with infinite counts take the same route.
``stable_via_basis`` is the one basis route: ``solver.stable_configs``
calls it on its own running clock when its slot probe does not answer.

``brute_force_hilbert`` is an independent oracle that enumerates cone
points up to a norm cap and keeps the indecomposable ones.
"""

from __future__ import annotations

from collections import deque
from operator import add, le, sub
from typing import List, Optional, Sequence, Tuple

from . import solver
from .core import (
    INF,
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    canonical_unique,
    is_self_saturated,
    split_search,
)
from .ipmodel import EQ, LE, Constraint, IntegerProgram, Objective, Variable


class BasisError(TbnError):
    """Hilbert basis computation failed or was asked for the impossible."""


def hilbert_basis(
    rows: Sequence[Sequence[int]],
    n: Optional[int] = None,
    budget: solver.Budget | solver.Clock | None = None,
    upper: Optional[Sequence[Optional[int]]] = None,
) -> List[Tuple[int, ...]]:
    """Hilbert basis of ``{x in N^n : rows . x >= 0}``, or with ``upper``
    its elements with ``x_k <= upper[k]`` for every capped ``k``.

    The rows are added one at a time (Pottier, RTA 1991; Hemmecke, ICMS
    2002).  An element is a tuple: its ``x``, then its values of the rows
    already added, all ``>= 0``; componentwise ``<=`` on these tuples is
    "the difference lies in the cone so far", so the Hilbert basis is
    the ``<=``-minimal nonzero tuples.  It starts as the unit vectors.

    Adding row ``a`` gives each element its value ``λ = a . x``; the
    elements generate the points of the previous cone, each with its
    ``λ``.  The completion makes them a generating set in which every
    point is a sum of elements whose ``λ`` never has the opposite sign
    of its own.  A pair sum ``p + q`` of a positive and a negative
    element is reduced: while some element ``g <= s`` has a ``λ`` between
    0 and ``λ_s``, ``s -= g``.  A nonzero remainder joins the elements
    and pairs with those of the opposite sign.  Once no pair is left,
    the elements with ``λ >= 0`` and no smaller one among them, each
    with ``λ`` appended, are the Hilbert basis of the cone with row
    ``a``.  The result projects the last basis onto ``x``.  The
    reduction is one pass over the elements in the order they were
    made, and a support bit mask rejects most of them before the
    componentwise test.  Each element carries its mask across rows, and
    after ``s -= g`` only the bits of ``g``'s mask are tested again.

    ``upper`` caps the ``x`` coordinates; a ``None`` entry stays
    uncapped, and a cap of 0 leaves its unit vector out.  A pair sum
    whose coordinate passes its cap is dropped.  That is exact: a point
    ``v`` of the cone is reached through pairs of the elements in a sum
    for ``v``, and through reductions by elements ``<= v``, all with
    ``x <= x(v)``; so every basis element within the caps is still
    found, and so is every element below one, and the result is the
    full basis filtered to the caps.

    Each pair sum examined is one node: it spends one node of the clock
    first, and ``BudgetExhausted`` is raised once the clock passes
    ``Budget.max_nodes`` or ``Budget.max_time``.  A row or ``upper``
    whose length is not ``n``, or a negative cap, which no point of
    ``N^n`` meets, is a ``BasisError``.
    """
    clock = solver.Clock.of(budget)
    if n is None:
        if not rows:
            raise BasisError("need explicit dimension for an empty system")
        n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise BasisError(f"every row needs {n} entries, one per coordinate")
    if upper is not None and len(upper) != n:
        raise BasisError(f"upper has {len(upper)} entries, not {n}")
    capped = [(k, c) for k, c in enumerate(upper or ()) if c is not None]
    if any(c < 0 for _, c in capped):
        raise BasisError(f"upper has a negative cap: {list(upper or ())}")
    # each basis element with its support as a bit mask
    basis = [
        (tuple(int(j == k) for j in range(n)), 1 << k)
        for k in range(n) if not upper or upper[k] != 0
    ]
    for row in rows:
        terms = [(j, c) for j, c in enumerate(row) if c]
        # each element with its value and its support
        elements = [
            (v, sum(c * v[j] for j, c in terms), m) for v, m in basis
        ]
        old = len(elements)
        positive = [e for e in elements if e[1] > 0]
        negative = [e for e in elements if e[1] < 0]
        pairs = deque((p, q) for p in positive for q in negative)
        while pairs:
            (p, lp, pm), (q, lq, qm) = pairs.popleft()
            clock.spend("polymer basis completion")
            s, ls = tuple(map(add, p, q)), lp + lq
            if any(s[k] > c for k, c in capped):
                continue
            # s only shrinks, so an element that cannot reduce it now
            # never can: one pass finds every reduction
            outside = ~(pm | qm)
            for g, lg, gm in elements:
                while (not gm & outside and (0 <= lg <= ls or ls <= lg <= 0)
                       and all(map(le, g, s))):
                    s, ls = tuple(map(sub, s, g)), ls - lg
                    outside |= _zeros(s, gm)
            if not any(s):
                continue
            e = (s, ls, ~outside)
            if ls > 0:
                pairs.extend((e, q) for q in negative)
                positive.append(e)
            elif ls < 0:
                pairs.extend((p, e) for p in positive)
                negative.append(e)
            elements.append(e)
        # an old element is irreducible in the cone so far, and a new one
        # was reduced by every element made before it, so only a later
        # new element can lie below a kept one; a kept element's value
        # becomes a coordinate, in its support when nonzero
        basis, new = (
            [(v + (lv,), m | (1 << len(v) if lv else 0))
             for v, lv, m in part if lv >= 0]
            for part in (elements[:old], elements[old:])
        )
        basis += [
            (v, m) for i, (v, m) in enumerate(new)
            if not any(all(map(le, u, v)) for u, _ in new[i + 1:])
        ]
    return sorted(v[:n] for v, _ in basis)


def _zeros(s: Sequence[int], mask: int) -> int:
    """The bits of ``mask`` at which ``s`` is zero: after ``s -= g`` only
    a coordinate in ``g``'s support can have cleared."""
    zeros = 0
    while mask:
        bit = mask & -mask
        if not s[bit.bit_length() - 1]:
            zeros |= bit
        mask ^= bit
    return zeros


def polymer_basis(
    t: Tbn, budget: solver.Budget | solver.Clock | None = None
) -> List[Polymer]:
    """All self-saturated polymers that cannot split into smaller ones."""
    vectors = hilbert_basis(t.site_matrix, t.n_types, budget)
    return [Polymer(v) for v in sorted(vectors, reverse=True)]


def _in_cone(rows: Sequence[Sequence[int]], x: Sequence[int]) -> bool:
    return all(
        sum(c * v for c, v in zip(row, x)) >= 0 for row in rows
    )


def _cone_points(
    rows: Sequence[Sequence[int]],
    n: int,
    prefix: List[int],
    remaining: int,
    points: List[Tuple[int, ...]],
) -> None:
    """Append to ``points`` each nonzero cone point of length ``n`` that
    extends ``prefix`` by at most ``remaining`` in 1-norm, in
    lexicographic order.  Module-level, so the recursion leaves no
    reference cycle."""
    if len(prefix) == n:
        if any(prefix) and _in_cone(rows, prefix):
            points.append(tuple(prefix))
        return
    for v in range(remaining + 1):
        prefix.append(v)
        _cone_points(rows, n, prefix, remaining - v, points)
        prefix.pop()


def brute_force_hilbert(
    rows: Sequence[Sequence[int]], n: int, cap: int
) -> List[Tuple[int, ...]]:
    """Oracle: indecomposable cone points with 1-norm up to ``cap``."""
    points: List[Tuple[int, ...]] = []
    _cone_points(rows, n, [], cap, points)
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
    """Write a self-saturated polymer as a sum of basis polymers, in
    non-increasing order: split it by ``core.split_search``, then each
    part, until no part splits.  Raises ``BasisError`` if ``p`` is not
    self-saturated or a part that does not split is not in ``basis``."""
    if not is_self_saturated(p, t):
        raise BasisError(f"polymer {p.counts} is not self-saturated")
    parts, unsplit = [], [p] if p.size else []
    while unsplit:
        q = unsplit.pop()
        split = next(split_search(q, t), None)
        if split is not None:
            unsplit.extend(split)
        elif q in basis:
            parts.append(q)
        else:
            raise BasisError(
                f"part {q.counts} of {p.counts} neither splits nor is in basis"
            )
    return sorted(parts, key=lambda q: q.counts, reverse=True)


def _basis_cover_program(
    t: Tbn, basis: Sequence[Polymer]
) -> Tuple[IntegerProgram, List[Polymer]]:
    """Cover IP: basis multiplicities ``n_b`` of least merge count, and
    the basis element behind each of its variables, in order.

    A variable stands for each basis element that holds a limiting
    monomer and fits in ``t``.  Every other one is a singleton of a
    non-limiting type, which a partial configuration leaves implied, or
    has an upper bound of 0, more copies of a type than its finite count.
    Each limiting type is used exactly (``EQ``), each finite non-limiting
    type at most its count (``LE``), and an infinite type is free.  A
    variable's upper bound comes from its finite coordinates, which
    include a limiting one.  The objective ``min sum n_b (|b| - 1)`` is
    the merge count.
    """
    limiting = t.limiting_indices
    variables, objective, used = [], [], []
    terms: List[List[Tuple[str, int]]] = [[] for _ in range(t.n_types)]
    for idx, b in enumerate(basis):
        if not any(b.counts[i] for i in limiting):
            continue
        upper = min(
            t.counts[i] // c for i, c in enumerate(b.counts)
            if c > 0 and t.counts[i] is not INF
        )
        if upper == 0:
            continue
        name = f"n_{idx}"
        used.append(b)
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
    program = IntegerProgram(
        tuple(variables), tuple(constraints), Objective(tuple(objective))
    )
    return program, used


def stable_via_basis(
    t: Tbn,
    basis: Optional[Sequence[Polymer]] = None,
    budget: solver.Budget | solver.Clock | None = None,
    want_all: bool = True,
) -> solver.EnumerationResult:
    """Stable configurations of a TBN from its polymer basis: every one,
    or without ``want_all`` a witness.

    A saturated configuration is a multiset of basis polymers that uses
    every limiting monomer and at most the supply of every other one;
    the monomers left over are implied singletons.  A configuration
    holds at most ``t.counts[i]`` copies of monomer ``i``, so only the
    basis elements within the counts matter: without ``basis``,
    ``hilbert_basis`` is truncated at the finite counts, and an element
    of a given basis past them gets no variable in the cover IP.  The
    level scan of ``solver`` finds the minimizers of the cover IP
    (``_basis_cover_program``), whose objective is the merge count, so
    infinite counts need no special case.  Returns the same
    EnumerationResult as the direct solver, with
    ``stats.route == "basis"``.  One budget covers the whole call, the
    basis included when it is not given; a running clock goes on with
    the nodes and time already spent on it, as ``stable_configs``' is.
    When it runs out the result has no solutions and ``optimum=None``,
    so ``complete`` is False.
    """
    clock = solver.Clock.of(budget)
    try:
        if basis is None:
            caps = [None if c is INF else c for c in t.counts]
            vectors = hilbert_basis(t.site_matrix, t.n_types, clock, caps)
            basis = [Polymer(v) for v in sorted(vectors, reverse=True)]
        program, used = _basis_cover_program(t, basis)
        best, assignments = solver.scan_levels(program, clock, want_all)
    except solver.BudgetExhausted:
        return solver.EnumerationResult(None, [], clock.stats("basis"))
    if best is None:
        raise BasisError("basis counting IP is infeasible")
    configs = []
    for assignment in assignments:
        # an assignment lists its values in variable order
        polymers = []
        for b, n in zip(used, assignment.values()):
            polymers += [b] * n
        configs.append(PartialConfiguration.from_polymers(polymers, t))
    return solver.EnumerationResult(
        best, canonical_unique(configs), clock.stats("basis")
    )


def render_basis_table(basis: Sequence[Polymer], t: Tbn) -> str:
    """Human-readable table: one basis polymer per line."""
    lines = []
    width = len(str(len(basis)))
    for k, p in enumerate(basis, start=1):
        lines.append(f"{k:>{width}}. {p.describe(t)}")
    return "\n".join(lines) + ("\n" if lines else "")
