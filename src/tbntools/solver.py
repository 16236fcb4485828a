"""Exact solving of the stable-configurations integer program.

One scan finds the optimum of every integer program here.  It solves the
LP relaxation once, at the root, in exact rational arithmetic; the
ceiling of its optimum is a lower bound L on the objective (in
minimization sense).  When only a witness is asked for and the root LP
is integral, that solution is optimal and returned.  Otherwise the
objective is frozen into an equality at L, L+1, ... up to its maximum
over the propagated root box, and each level is searched exhaustively by
``enumerate_assignments``, the package's one search loop: depth-first
search driven by interval propagation, with no LP below the root.  The
first level with a solution is the optimum.  ``stats.nodes`` counts the
root plus every node of every level searched.

Each level's search starts from the root LP's reduced-cost box
(reduced-cost fixing; Achterberg, *Constraint Integer Programming*,
2007).  Let ``z*`` be the LP optimum and ``gap = v - z*`` for level
``v``.  A variable at its lower bound with reduced cost ``r > 0`` rises
at most ``⌊gap / r⌋``, and one at its upper bound with ``r < 0`` falls
at most ``⌊gap / -r⌋``, in integer arithmetic.  This is exact: at the
optimum, any point that meets the rows within the propagated root box
has objective ``z*`` plus a sum of terms ``>= 0``, one ``|r|`` times a
variable's distance from its bound and one per row slack, so no term
exceeds ``gap``.  The box removes no solution of a level, so the answers
and their order do not change.

``stable_configs`` first probes the slot model: its root LP on the plain
model, then the levels of the model with lexicographic symmetry-breaking
rows, which leave one representative per polymer ordering, so the
optimal level's solutions are every stable configuration;
canonicalization plus deduplication acts as a safety net.  The probe
stops after ``PROBE_NODES`` level-search nodes, and the basis route of
``hilbert`` answers on the same clock.  ``solve_min`` freezes a general
bounded program's objective with ``IntegerProgram.fixed``, and the basis
route of ``hilbert.stable_via_basis`` calls the scan itself.  The search
propagates a child node from the rows of the variable it branched on,
since its parent is already at a fixpoint.  Each node carries every
row's least and greatest activity over its bounds, computed once per
search and moved by ``c·Δ`` with every bound that moves, so a row visit
reads its slack without walking its terms (Achterberg, *Constraint
Integer Programming*, 2007).

``Budget`` limits every search of the package: each spends one node of
a ``Clock`` per node it expands, and the clock raises
``BudgetExhausted`` once the budget is spent.  The root LP checks the
clock's time limit once per pivot without spending a node.  The
exception ends every search it passes through; only the entry points
that return results, ``stable_configs``, ``stable_via_basis`` and
``solve_min``, turn it into a result with no value, never a partial
answer.

``brute_force_stable`` is the independent oracle: exhaustive enumeration
of partitions into self-saturated polymers, for desk-scale instances only.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from .core import (
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    TbnValidationError,
    canonical_unique,
    is_self_saturated,
)
from .ipmodel import (
    GE,
    LE,
    IntegerProgram,
    build,
    default_bound,
)
from .simplex import frac_ceil, is_integral, solve_lp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
# the status of a ``solve_min`` whose budget ran out
BUDGET_EXCEEDED = "budget_exceeded"

_BRUTE_FORCE_MAX_INSTANCES = 16

# level-search nodes the slot-model probe of ``stable_configs`` expands
# after its root LP: enough for grid-gate, whose witness is the root LP's
# solution (plain) or lies at its first level's second node (caption)
PROBE_NODES = 2


class BruteForceError(TbnError):
    """Instance too large for the exhaustive oracle."""


class BudgetExhausted(TbnError):
    """A search spent its budget before it could answer."""


class _ProbeCapped(Exception):
    """The slot-model probe reached its node cap before it could answer."""


@dataclass(frozen=True)
class Budget:
    """Limits on a search: nodes expanded and wall-clock seconds;
    defaults follow the 100 s benchmark timeout.  A nan time limit, which
    no elapsed time reaches, is a ``TbnValidationError``."""

    max_nodes: int = 10_000_000
    max_time: float = 100.0

    def __post_init__(self) -> None:
        if self.max_time != self.max_time:
            raise TbnValidationError("max_time must be a number, not nan")


@dataclass(slots=True)
class SolveStats:
    nodes: int = 0
    # which route answered a stable-configurations question: "direct"
    # (the slot IP) or "basis" (the cover IP over the polymer basis)
    route: str = "direct"


@dataclass(slots=True)
class SolveResult:
    status: str
    objective: Optional[int] = None
    assignment: Optional[Dict[str, int]] = None
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass(slots=True)
class EnumerationResult:
    optimum: Optional[int]
    solutions: List[PartialConfiguration]
    complete: bool
    stats: SolveStats = field(default_factory=SolveStats)


class _Compiled:
    """Array form of an IntegerProgram for propagation and LP calls.

    A variable repeated in a row, or in the objective, has its
    coefficients summed into one; a row whose sums are all zero is
    empty.
    """

    def __init__(self, program: IntegerProgram):
        self.program = program
        self.names = [v.name for v in program.variables]
        self.index = {name: k for k, name in enumerate(self.names)}
        self.lo = [v.lower for v in program.variables]
        self.hi = [v.upper for v in program.variables]
        self.rows: List[Tuple[Tuple[Tuple[int, int], ...], str, int]] = []
        for con in program.constraints:
            coeffs = tuple(
                (i, c) for i, c in self._summed(con.coeffs).items() if c != 0
            )
            # a row without coefficients matters only when 0 violates it
            if coeffs or not con.satisfied_by({}):
                self.rows.append((coeffs, con.sense, con.rhs))
        # Row k's least activity is act[2k] and its greatest act[2k + 1].
        # A term c·x of row k reaches act[2k] through x's lower bound when
        # c > 0 and through its upper bound when c < 0, and act[2k + 1]
        # through the other.  Per variable: the (slot, c) pairs its lower
        # and its upper bound reach, and the rows to requeue when its lower
        # bound rises or its upper bound falls, those whose slack shrinks.
        self.var_rows: List[List[int]] = [[] for _ in self.names]
        self.lo_terms: List[List[Tuple[int, int]]] = [[] for _ in self.names]
        self.hi_terms: List[List[Tuple[int, int]]] = [[] for _ in self.names]
        self.lo_wakes: List[List[int]] = [[] for _ in self.names]
        self.hi_wakes: List[List[int]] = [[] for _ in self.names]
        for k, (coeffs, sense, _) in enumerate(self.rows):
            for i, c in coeffs:
                self.var_rows[i].append(k)
                lo_slot, hi_slot = 2 * k, 2 * k + 1
                if c < 0:
                    lo_slot, hi_slot = hi_slot, lo_slot
                self.lo_terms[i].append((lo_slot, c))
                self.hi_terms[i].append((hi_slot, c))
                # a rising least shrinks a <= slack, a falling most a >= one
                if sense != (GE if c > 0 else LE):
                    self.lo_wakes[i].append(k)
                if sense != (LE if c > 0 else GE):
                    self.hi_wakes[i].append(k)
        self.objective: List[Tuple[int, int]] = []
        if program.objective is not None:
            self.objective = sorted(
                self._summed(program.objective.coeffs).items()
            )
            self.obj_sign = 1 if program.objective.sense == "min" else -1
            self.obj_const = program.objective.constant
        else:
            self.obj_sign = 1
            self.obj_const = 0

    def _summed(self, coeffs: Sequence[Tuple[str, int]]) -> Dict[int, int]:
        acc: Dict[int, int] = {}
        for v, c in coeffs:
            acc[self.index[v]] = acc.get(self.index[v], 0) + c
        return acc

    def assignment_from(self, lo: Sequence[int]) -> Dict[str, int]:
        return {name: lo[i] for i, name in enumerate(self.names)}

    def min_objective(self) -> List[Tuple[int, int]]:
        """Objective coefficient list in minimization sense."""
        return [(i, self.obj_sign * c) for i, c in self.objective]

    def activities(self, lo: Sequence[int], hi: Sequence[int]) -> List[int]:
        """Each row's least and greatest activity over the box lo..hi,
        interleaved: row k's are at 2k and 2k + 1."""
        act = []
        for coeffs, _, _ in self.rows:
            least = most = 0
            for i, c in coeffs:
                if c > 0:
                    least += c * lo[i]
                    most += c * hi[i]
                else:
                    least += c * hi[i]
                    most += c * lo[i]
            act += (least, most)
        return act

    def shift(self, act: List[int], i: int, dlo: int, dhi: int) -> None:
        """Move the activities ``act`` by variable ``i``'s lower bound
        moving ``dlo`` and its upper bound ``dhi``."""
        if dlo:
            for j, c in self.lo_terms[i]:
                act[j] += c * dlo
        if dhi:
            for j, c in self.hi_terms[i]:
                act[j] += c * dhi


def propagate(
    comp: _Compiled, lo: List[int], hi: List[int],
    changed: Optional[int] = None,
    activity: Optional[List[int]] = None,
) -> bool:
    """Tighten bounds to a fixpoint; False when a domain empties.

    ``changed`` is the one variable whose bounds moved since ``lo``/``hi``
    were last at a fixpoint: only its rows are queued at first.  Without
    it every row is.  The fixpoint is unique, so both reach the same
    bounds.

    ``activity`` holds each row's least and greatest activity over
    ``lo``/``hi`` (``_Compiled.activities``); it is kept in step with
    every bound moved, also when the result is False.  Without it, it
    is computed from the bounds.  A row's slack is ``rhs - least`` on
    its ``<=`` side and ``most - rhs`` on its ``>=`` side; a negative
    slack fails.  A variable with coefficient ``c`` narrows only when
    ``|c|·(hi - lo)`` exceeds the slack, to ``slack // |c|`` past its
    other bound, so a row's terms are walked only when ``most - least``
    does.  A moved bound requeues only the rows whose slack it shrinks.
    """
    rows = comp.rows
    act = comp.activities(lo, hi) if activity is None else activity

    def move(i: int, dlo: int, dhi: int) -> None:
        lo[i] += dlo
        hi[i] += dhi
        comp.shift(act, i, dlo, dhi)
        pending.update(comp.lo_wakes[i] if dlo else comp.hi_wakes[i])

    if changed is None:
        pending = set(range(len(rows)))
    else:
        pending = set(comp.var_rows[changed])
    while pending:
        k = pending.pop()
        coeffs, sense, rhs = rows[k]
        if sense != GE:
            slack = rhs - act[2 * k]
            if slack < 0:
                return False
            # these narrowings move only ``most``: the slack holds
            if act[2 * k + 1] - act[2 * k] > slack:
                for i, c in coeffs:
                    if c > 0:
                        if c * (hi[i] - lo[i]) > slack:
                            move(i, 0, lo[i] + slack // c - hi[i])
                    elif c * (lo[i] - hi[i]) > slack:
                        move(i, hi[i] - slack // -c - lo[i], 0)
        if sense != LE:
            slack = act[2 * k + 1] - rhs
            if slack < 0:
                return False
            # these narrowings move only ``least``: the slack holds
            if act[2 * k + 1] - act[2 * k] > slack:
                for i, c in coeffs:
                    if c > 0:
                        if c * (hi[i] - lo[i]) > slack:
                            move(i, hi[i] - slack // c - lo[i], 0)
                    elif c * (lo[i] - hi[i]) > slack:
                        move(i, 0, lo[i] + slack // -c - hi[i])
    return True


class Clock:
    """Nodes spent and time elapsed against one budget; searches given
    the same running clock share it."""

    def __init__(self, budget: Optional[Budget] = None):
        self.budget = budget or Budget()
        self.start = time.monotonic()
        self.nodes = 0
        # a node past this count is not expanded and not counted
        self.cap = float("inf")

    @staticmethod
    def of(budget: Budget | Clock | None) -> Clock:
        """``budget`` itself when it is a running clock, else a new one."""
        return budget if isinstance(budget, Clock) else Clock(budget)

    def spend(self, search: str) -> None:
        """Count one node of ``search``; raise ``BudgetExhausted``, the
        node unexpanded, once either limit is reached, and
        ``_ProbeCapped``, the node uncounted, past ``cap``."""
        self.nodes += 1
        if (self.nodes > self.budget.max_nodes
                or self.elapsed() >= self.budget.max_time):
            self._exhausted(search, self.nodes - 1)
        if self.nodes > self.cap:
            self.nodes -= 1
            raise _ProbeCapped

    def check(self, search: str) -> None:
        """Raise ``BudgetExhausted`` once the time limit is reached;
        counts no node."""
        if self.elapsed() >= self.budget.max_time:
            self._exhausted(search, self.nodes)

    def _exhausted(self, search: str, expanded: int) -> NoReturn:
        raise BudgetExhausted(
            f"{search} ran out of budget after {expanded} nodes "
            f"and {self.elapsed():.2f} s"
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def stats(self, route: str = "direct") -> SolveStats:
        return SolveStats(self.nodes, route)


# a search node: bounds, their row activities, and the variable branched
# on to reach it (None at the root, whose bounds have not been propagated
# yet)
_Node = Tuple[List[int], List[int], List[int], Optional[int]]


def solve_min(
    program: IntegerProgram, budget: Budget | Clock | None = None
) -> SolveResult:
    """Exact optimum of a bounded integer program, by the level scan.

    When the budget runs out the status is ``BUDGET_EXCEEDED`` and the
    result carries no objective and no assignment: an unproven value is
    never reported.
    """
    if program.objective is None:
        raise TbnError("solve_min needs a program with an objective")
    clock = Clock.of(budget)
    try:
        status, value, found = scan_levels(program, clock)
    except BudgetExhausted:
        return SolveResult(BUDGET_EXCEEDED, stats=clock.stats())
    return SolveResult(
        status, value, found[0] if found else None, clock.stats()
    )


def enumerate_assignments(
    program: IntegerProgram,
    budget: Budget | Clock | None = None,
    max_solutions: Optional[int] = None,
    bounds: Optional[Dict[str, Tuple[int, int]]] = None,
) -> List[Dict[str, int]]:
    """All integer solutions of a (typically objective-free) program.

    Depth-first search with interval propagation; variables are fixed in
    declaration order, values tried in ascending order, so the output
    order is deterministic.  ``bounds`` maps some of the program's
    variable names to inclusive (lower, upper) pairs that the search
    starts from, intersected with the declared bounds; the caller
    vouches that no wanted solution lies outside them.  The search
    stops early once it holds ``max_solutions`` solutions.  Each node
    spends one node of the clock, and ``BudgetExhausted`` ends the
    search once the budget is spent.
    """
    comp = _Compiled(program)
    clock = Clock.of(budget)
    solutions: List[Dict[str, int]] = []

    lo, hi = list(comp.lo), list(comp.hi)
    for name, (lower, upper) in (bounds or {}).items():
        i = comp.index[name]
        lo[i], hi[i] = max(lo[i], lower), min(hi[i], upper)
        if lo[i] > hi[i]:
            return solutions
    stack: List[_Node] = [(lo, hi, comp.activities(lo, hi), None)]
    while stack:
        lo, hi, act, changed = stack.pop()
        clock.spend("enumeration")
        if not propagate(comp, lo, hi, changed, act):
            continue
        # the variables before the one branched on are fixed already
        start = 0 if changed is None else changed
        branch_i = next(
            (i for i in range(start, len(lo)) if lo[i] < hi[i]), None
        )
        if branch_i is None:
            solutions.append(comp.assignment_from(lo))
            if max_solutions is not None and len(solutions) >= max_solutions:
                break
            continue
        for value in range(hi[branch_i], lo[branch_i] - 1, -1):
            child_lo = list(lo)
            child_hi = list(hi)
            child_lo[branch_i] = child_hi[branch_i] = value
            child_act = list(act)
            comp.shift(
                child_act, branch_i, value - lo[branch_i], value - hi[branch_i]
            )
            stack.append((child_lo, child_hi, child_act, branch_i))
    return solutions


@dataclass(frozen=True)
class StableOptions:
    all: bool = False
    budget: Budget | Clock = Budget()


def stable_configs(
    t: Tbn, options: Optional[StableOptions] = None
) -> EnumerationResult:
    """Minimum merge count of ``t`` and a witness, or with ``all`` every
    stable configuration, in canonical order.

    The slot bound is ``default_bound(t)``, the total count of limiting
    monomers, which holds every stable configuration.  The root LP runs
    on the plain slot model; the levels past it freeze the objective of
    the symmetry-broken model, built once, on first use.

    Route rule: a probe, then the basis route.  The probe is
    ``scan_levels`` on the slot model, capped at its root node and
    ``PROBE_NODES`` level-search nodes.  When it answers within the cap,
    its answer stands; otherwise ``hilbert.stable_via_basis``, over the
    basis truncated at the finite counts, answers on the same clock.
    Node counts, not time, decide, so the route is always the same;
    ``stats.route`` says which answered: "direct" or "basis".

    One budget covers the whole call.  When it runs out the result has
    ``complete=False``, no solutions and ``optimum=None``: an unproven
    value is never reported, and ``stats.route`` names the phase that
    found it spent.  ``stats.nodes`` counts every node expanded, and
    the node that found the budget spent: the probe's root and
    level-search nodes, and the basis route's completion and cover-IP
    nodes.  The node the probe's cap stops is not counted.
    """
    opts = options or StableOptions()
    bound = default_bound(t)
    if bound == 0:
        # no limiting monomers: the all-singletons configuration is stable
        empty = PartialConfiguration.from_polymers([], t)
        return EnumerationResult(0, [empty], True)
    clock = Clock.of(opts.budget)
    model = build(t, bound)

    @functools.cache
    def symmetric() -> IntegerProgram:
        return build(t, bound, symmetry_breaking=True).program

    def level(value: int) -> IntegerProgram:
        return symmetric().fixed(value)

    # imported here because hilbert imports this module
    from .hilbert import _basis_route

    route = "direct"
    try:
        answer = _probe(model.program, clock, opts.all, level)
        if answer is None:
            route = "basis"
            return _basis_route(t, None, clock, opts.all)
    except BudgetExhausted:
        return EnumerationResult(None, [], False, clock.stats(route))
    status, optimum, found = answer
    if status == INFEASIBLE:
        raise TbnError(
            f"no saturated configuration within polymer bound {bound}"
        )
    return EnumerationResult(
        optimum, canonical_unique(map(model.decode, found)), True,
        clock.stats(),
    )


def _probe(
    program: IntegerProgram,
    clock: Clock,
    want_all: bool,
    level: Callable[[int], IntegerProgram],
) -> Optional[Tuple[str, Optional[int], List[Dict[str, int]]]]:
    """``scan_levels`` on ``clock``, stopped before the node past its root
    and ``PROBE_NODES`` more; None when stopped there."""
    cap, clock.cap = clock.cap, clock.nodes + 1 + PROBE_NODES
    try:
        return scan_levels(program, clock, want_all, level)
    except _ProbeCapped:
        return None
    finally:
        clock.cap = cap


# the level scan calls the search by this name, not through the module
# attribute, which perfbench's hook wraps expecting an older result shape
_enumerate = enumerate_assignments


def scan_levels(
    program: IntegerProgram,
    budget: Budget | Clock | None = None,
    want_all: bool = False,
    level: Optional[Callable[[int], IntegerProgram]] = None,
) -> Tuple[str, Optional[int], List[Dict[str, int]]]:
    """Status, optimum and optimal assignments of ``program``: a witness,
    or with ``want_all`` all that ``level(optimum)`` admits.

    ``level(value)``, by default ``program.fixed(value)``, is a program
    whose solutions satisfy ``program``'s rows with the objective at
    ``value``, in the objective's own sense.  The ceiling of the root LP
    bounds the objective, in minimization sense, from below.  From it
    upwards, each value's level is searched exhaustively, so the first
    level with a solution is the optimum; when every level up to the
    largest value the propagated root bounds allow is empty, the status
    is ``INFEASIBLE``.  Each level's search starts from the propagated
    root bounds, narrowed by the root LP's reduced costs
    (``_reduced_cost_box``, exact by the module docstring's argument) and
    matched to ``level(value)``'s variables by name: a symmetry-broken
    level adds variables and rows to ``program``, so its solutions are
    solutions of ``program`` and lie in the box too.  One clock covers
    the root, its LP and every level, and ``BudgetExhausted`` ends the
    scan once it runs out.
    """
    clock = Clock.of(budget)
    level = level or program.fixed
    clock.spend("level scan")
    comp = _Compiled(program)
    lo, hi = list(comp.lo), list(comp.hi)
    if not propagate(comp, lo, hi):
        return INFEASIBLE, None, []
    objective = comp.min_objective()
    relax = solve_lp(
        objective, comp.rows, list(zip(lo, hi)),
        lambda: clock.check("root LP"),
    )
    if relax.status != "optimal":
        return INFEASIBLE, None, []
    first = frac_ceil(relax.objective)
    assert relax.x is not None
    if not want_all and all(is_integral(v) for v in relax.x):
        root = comp.assignment_from([int(v) for v in relax.x])
        return OPTIMAL, comp.obj_sign * first + comp.obj_const, [root]

    assert relax.reduced is not None
    reduced = [(i, r) for i, r in enumerate(relax.reduced) if r]
    last = sum(c * (hi[i] if c > 0 else lo[i]) for i, c in objective)
    for v in range(first, last + 1):
        value = comp.obj_sign * v + comp.obj_const
        box = _reduced_cost_box(comp, lo, hi, reduced, v - relax.objective)
        assignments = _enumerate(
            level(value), clock, None if want_all else 1, box
        )
        if assignments:
            return OPTIMAL, value, assignments
    return INFEASIBLE, None, []


def _reduced_cost_box(
    comp: _Compiled,
    lo: Sequence[int],
    hi: Sequence[int],
    reduced: Sequence[Tuple[int, Fraction]],
    gap: Fraction,
) -> Dict[str, Tuple[int, int]]:
    """The bounds, by name, of each variable that the propagated root
    bounds ``lo..hi`` tighten or its nonzero root reduced cost ``r``
    narrows: within ``⌊gap / |r|⌋`` of the bound it sat at, ``lo`` when
    ``r > 0`` and ``hi`` when ``r < 0``.  ``gap`` is a level's distance
    above the root LP optimum, in minimization sense; the floor divides
    the two rationals' integer parts.
    """
    names = comp.names
    box = {
        name: (lo[i], hi[i]) for i, name in enumerate(names)
        if lo[i] > comp.lo[i] or hi[i] < comp.hi[i]
    }
    for i, r in reduced:
        steps = (gap.numerator * r.denominator
                 // (gap.denominator * abs(r.numerator)))
        if steps < hi[i] - lo[i]:
            box[names[i]] = (
                (lo[i], lo[i] + steps) if r > 0 else (hi[i] - steps, hi[i])
            )
    return box


def brute_force_stable(t: Tbn, cap: int = 3) -> EnumerationResult:
    """Exhaustive oracle: all merge-minimal saturated configurations.

    Infinite counts are replaced by ``cap`` copies.  Enumerates every
    partition of the monomer instances into self-saturated polymers.
    """
    finite = t.with_counts_capped(cap)
    total = finite.total_monomers()
    if total > _BRUTE_FORCE_MAX_INSTANCES:
        raise BruteForceError(
            f"{total} monomer instances exceed the oracle limit "
            f"{_BRUTE_FORCE_MAX_INSTANCES}"
        )
    n = finite.n_types

    saturated_cache: Dict[Tuple[int, ...], bool] = {}

    def saturated(block: Tuple[int, ...]) -> bool:
        cached = saturated_cache.get(block)
        if cached is None:
            cached = is_self_saturated(Polymer(block), finite)
            saturated_cache[block] = cached
        return cached

    best_cost = None
    best_partitions: List[Tuple[Tuple[int, ...], ...]] = []

    def submultisets_with_anchor(remaining: Tuple[int, ...], anchor: int):
        ranges = []
        for i in range(n):
            if i < anchor:
                ranges.append((0,))
            elif i == anchor:
                ranges.append(tuple(range(1, remaining[i] + 1)))
            else:
                ranges.append(tuple(range(remaining[i] + 1)))
        return itertools.product(*ranges)

    def recurse(remaining: Tuple[int, ...], cost: int, blocks):
        nonlocal best_cost, best_partitions
        if best_cost is not None and cost > best_cost:
            return
        anchor = next((i for i in range(n) if remaining[i] > 0), None)
        if anchor is None:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_partitions = [tuple(blocks)]
            elif cost == best_cost:
                best_partitions.append(tuple(blocks))
            return
        for block in submultisets_with_anchor(remaining, anchor):
            size = sum(block)
            extra = size - 1
            if best_cost is not None and cost + extra > best_cost:
                continue
            if not saturated(block):
                continue
            rest = tuple(r - b for r, b in zip(remaining, block))
            blocks.append(block)
            recurse(rest, cost + extra, blocks)
            blocks.pop()

    recurse(tuple(finite.counts), 0, [])

    if best_cost is None:
        raise TbnError("no saturated partition exists (broken invariant)")

    solutions = canonical_unique(
        PartialConfiguration.from_polymers(map(Polymer, partition), finite)
        for partition in best_partitions
    )
    return EnumerationResult(best_cost, solutions, True)
