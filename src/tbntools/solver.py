"""Exact solving of the stable-configurations integer program.

One scan finds the optimum of every integer program here.  Every
objective is minimized, and a missing optimum means the program is
infeasible.  The scan solves the LP relaxation once, at the root, in
exact rational arithmetic; the ceiling of its optimum is a lower bound L
on the objective.  When only a witness is asked for and the root LP
is integral, that solution is optimal and returned.  Otherwise the
objective is frozen into an equality at L, L+1, ... up to its maximum
over the propagated root box.  A scan compiles each program once: the
objective joins the root's compiled program as its last row, and each
level sets that row's right-hand side; only the probe's symmetry-broken
level program is compiled apart.  Each level is searched exhaustively
by ``_search``, the package's one search loop: depth-first search
driven by interval propagation, with no LP below the root.  The first level with a
solution is the optimum.  ``stats.nodes`` counts the root plus every
node of every level searched.

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
and their order do not change.  It is a list of bounds by variable
index, and a level program's variables start with the root program's.

``stable_configs`` first probes the slot model: its root LP on the plain
model, then the levels of the model with lexicographic symmetry-breaking
rows, which leave one representative per polymer ordering, so the
optimal level's solutions are every stable configuration;
canonicalization plus deduplication acts as a safety net.  The probe
stops after ``PROBE_NODES`` level-search nodes, and the basis route,
``hilbert.stable_via_basis``, answers on the same clock, as it does
when ``build`` refuses a slot model as too large.  ``solve_min`` and
the basis route scan their own programs' levels.  The search
propagates a child node from the rows of the variable it branched on,
since its parent is already at a fixpoint.  Each node carries every
row's least and greatest activity over its bounds, computed once per
search and moved by ``c·Δ`` with every bound that moves, so a row visit
reads its slack without walking its terms (Achterberg, *Constraint
Integer Programming*, 2007).

``Budget`` limits every search of the package: each spends one node of
a ``Clock`` per node it expands, and the clock raises
``BudgetExhausted`` once the budget is spent.  The root LP checks the
clock's time limit once per row of its set-up and once per pivot
without spending a node.  The exception ends every search it passes
through; only the entry points that return results, ``stable_configs``,
``stable_via_basis`` and ``solve_min``, turn it into a result with no
value, never a partial answer.

``brute_force_stable`` is the independent oracle: exhaustive enumeration
of partitions into self-saturated polymers, for desk-scale instances only.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
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
    EQ,
    GE,
    LE,
    IntegerProgram,
    ModelError,
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


@dataclass(frozen=True)
class Budget:
    """Limits on a search: nodes expanded and wall-clock seconds;
    defaults follow the 100 s benchmark timeout.  A nan time limit, which
    no elapsed time reaches, or a negative limit of either kind is a
    ``TbnValidationError``; a limit of 0 is valid and spent at once."""

    max_nodes: int = 10_000_000
    max_time: float = 100.0

    def __post_init__(self) -> None:
        if self.max_time != self.max_time:
            raise TbnValidationError("max_time must be a number, not nan")
        for name, limit in (("max_nodes", self.max_nodes),
                            ("max_time", self.max_time)):
            if limit < 0:
                raise TbnValidationError(
                    f"{name} must not be negative, got {limit}"
                )


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
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def complete(self) -> bool:
        """Whether the search answered: only a proven optimum is kept."""
        return self.optimum is not None


class _Compiled:
    """Array form of an IntegerProgram for propagation and LP calls.

    A variable repeated in a row, or in the objective, has its
    coefficients summed into one; a row whose sums are all zero is
    empty.  ``objective`` is the (index, coefficient) list to minimize,
    empty without an objective.  ``add_row`` registers every row.
    """

    def __init__(self, program: IntegerProgram):
        self.names = [v.name for v in program.variables]
        self.index = {name: k for k, name in enumerate(self.names)}
        self.lo = [v.lower for v in program.variables]
        self.hi = [v.upper for v in program.variables]
        self.rows: List[Tuple[Tuple[Tuple[int, int], ...], str, int]] = []
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
        for con in program.constraints:
            coeffs = tuple(
                (i, c) for i, c in self._summed(con.coeffs).items() if c != 0
            )
            # a row without coefficients matters only when 0 violates it
            if coeffs or not con.satisfied_by({}):
                self.add_row(coeffs, con.sense, con.rhs)
        objective = program.objective.coeffs if program.objective else ()
        self.objective = sorted(self._summed(objective).items())

    def add_row(self, coeffs: Tuple, sense: str, rhs: int) -> None:
        """Append a row of (index, nonzero coefficient) terms, with its
        activity slots and wake lists."""
        k = len(self.rows)
        self.rows.append((coeffs, sense, rhs))
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

    def _summed(self, coeffs: Sequence[Tuple[str, int]]) -> Dict[int, int]:
        acc: Dict[int, int] = {}
        for v, c in coeffs:
            acc[self.index[v]] = acc.get(self.index[v], 0) + c
        return acc

    def assignment_from(self, lo: Sequence[int]) -> Dict[str, int]:
        return {name: lo[i] for i, name in enumerate(self.names)}

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

    @staticmethod
    def of(budget: Budget | Clock | None) -> Clock:
        """``budget`` itself when it is a running clock, else a new one."""
        return budget if isinstance(budget, Clock) else Clock(budget)

    def spend(self, search: str) -> None:
        """Count one node of ``search``; raise ``BudgetExhausted``, the
        node unexpanded, once either limit is reached."""
        self.nodes += 1
        if (self.nodes > self.budget.max_nodes
                or self.elapsed() >= self.budget.max_time):
            self._exhausted(search, self.nodes - 1)

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
        value, found = scan_levels(program, clock)
    except BudgetExhausted:
        return SolveResult(BUDGET_EXCEEDED, stats=clock.stats())
    if value is None:
        return SolveResult(INFEASIBLE, stats=clock.stats())
    return SolveResult(OPTIMAL, value, found[0], clock.stats())


def enumerate_assignments(
    program: IntegerProgram, budget: Budget | Clock | None = None
) -> List[Dict[str, int]]:
    """All integer solutions of a (typically objective-free) program, by
    ``_search`` from its declared bounds."""
    return _search(_Compiled(program), [], [], Clock.of(budget), None)


def _search(
    comp: _Compiled,
    lo: List[int],
    hi: List[int],
    clock: Clock,
    max_solutions: Optional[int],
) -> List[Dict[str, int]]:
    """Every solution of ``comp`` whose first ``len(lo)`` variables lie
    in the box ``lo..hi``; the others start from their declared bounds.

    Depth-first search with interval propagation; variables are fixed in
    index order, values tried in ascending order, so the output order is
    deterministic.  The search stops early once it holds
    ``max_solutions`` solutions.  Each node spends one node of the
    clock, and ``BudgetExhausted`` ends the search once the budget is
    spent.
    """
    solutions: List[Dict[str, int]] = []
    lo, hi = lo + comp.lo[len(lo):], hi + comp.hi[len(hi):]
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
    on the plain slot model; the levels past it are those of the
    symmetry-broken model, built when the first level is reached.

    Route rule: a probe, then the basis route.  The probe is
    ``scan_levels`` on the slot model, capped at its root node and
    ``PROBE_NODES`` level-search nodes.  When it answers within the cap,
    its answer stands; otherwise, or when ``build`` refuses a slot model
    as too large, ``hilbert.stable_via_basis``, over the basis truncated
    at the finite counts, answers on the same clock and turns a spent
    budget into its own no-answer result.  Node counts, not time,
    decide, so the route is always the same; ``stats.route`` says which
    answered: "direct" or "basis".

    One budget covers the whole call.  When it runs out the result has
    no solutions and ``optimum=None``, so ``complete`` is False: an
    unproven value is never reported, and ``stats.route`` names the phase that
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
        return EnumerationResult(0, [empty])
    clock = Clock.of(opts.budget)
    try:
        model = build(t, bound)
        answer = _probe(
            model.program, clock, opts.all,
            lambda: build(t, bound, symmetry_breaking=True).program,
        )
    except ModelError:
        # a slot model that ``build`` refuses as too large cannot answer
        answer = None
    except BudgetExhausted:
        return EnumerationResult(None, [], clock.stats())
    if answer is None:
        # imported here because hilbert imports this module
        from . import hilbert

        return hilbert.stable_via_basis(t, None, clock, opts.all)
    optimum, found = answer
    if optimum is None:
        raise TbnError(
            f"no saturated configuration within polymer bound {bound}"
        )
    return EnumerationResult(
        optimum, canonical_unique(map(model.decode, found)), clock.stats()
    )


def _probe(
    program: IntegerProgram,
    clock: Clock,
    want_all: bool,
    levels: Callable[[], IntegerProgram],
) -> Optional[Tuple[Optional[int], List[Dict[str, int]]]]:
    """``scan_levels`` on ``clock``, stopped before the node past its root
    and ``PROBE_NODES`` more; None when stopped there.  The cap lowers
    ``clock``'s node limit until it returns; its node is uncounted."""
    budget = clock.budget
    cap = clock.nodes + 1 + PROBE_NODES
    clock.budget = replace(budget, max_nodes=min(cap, budget.max_nodes))
    try:
        return scan_levels(program, clock, want_all, levels)
    except BudgetExhausted:
        if (clock.nodes > budget.max_nodes
                or clock.elapsed() >= budget.max_time):
            raise
        clock.nodes -= 1
        return None
    finally:
        clock.budget = budget


def scan_levels(
    program: IntegerProgram,
    budget: Budget | Clock | None = None,
    want_all: bool = False,
    levels: Optional[Callable[[], IntegerProgram]] = None,
) -> Tuple[Optional[int], List[Dict[str, int]]]:
    """Minimum of ``program``'s objective and its optimal assignments: a
    witness, or with ``want_all`` all that the level program admits at
    the optimum.  The minimum is None, with no assignments, when
    ``program`` is infeasible.

    The ceiling of the root LP bounds the objective from below.  From it
    upwards, each value's level is searched exhaustively, so the first
    level with a solution is the optimum; when every level up to the
    largest value the propagated root bounds allow is empty, the program
    is infeasible.  The level program is ``levels()``, called once at
    the first level, or ``program``: its variables start with
    ``program``'s own, bounds included, in the same order, and its
    solutions satisfy ``program``'s rows, as the symmetry-broken slot
    model's do.  It is the root's compiled ``program`` itself, or
    ``levels()`` compiled once; either way the objective joins it as one
    last row, and each level sets that row's right-hand side.  A level's
    search starts from the propagated root bounds narrowed by the root
    LP's reduced costs (``_reduced_cost_box``, exact by the module
    docstring's argument), which bound its first variables.  One clock
    covers the root, its LP and every level, and ``BudgetExhausted``
    ends the scan once it runs out.
    """
    clock = Clock.of(budget)
    clock.spend("level scan")
    comp = _Compiled(program)
    lo, hi = list(comp.lo), list(comp.hi)
    if not propagate(comp, lo, hi):
        return None, []
    # a copy: the level row joins ``comp.rows`` later
    relax = solve_lp(
        comp.objective, list(comp.rows), list(zip(lo, hi)),
        lambda: clock.check("root LP"),
    )
    if relax.status != "optimal":
        return None, []
    first = frac_ceil(relax.objective)
    assert relax.x is not None
    if not want_all and all(is_integral(v) for v in relax.x):
        return first, [comp.assignment_from([int(v) for v in relax.x])]

    assert relax.reduced is not None
    reduced = [(i, r) for i, r in enumerate(relax.reduced) if r]
    last = sum(c * (hi[i] if c > 0 else lo[i]) for i, c in comp.objective)
    level: Optional[_Compiled] = None
    for value in range(first, last + 1):
        if level is None:
            level = _Compiled(levels()) if levels else comp
            # kept even when its terms cancel, so it moves no real row
            level.add_row(tuple(t for t in level.objective if t[1]), EQ, 0)
        level.rows[-1] = (level.rows[-1][0], EQ, value)
        box = _reduced_cost_box(lo, hi, reduced, value - relax.objective)
        assignments = _search(level, *box, clock, None if want_all else 1)
        if assignments:
            return value, assignments
    return None, []


def _reduced_cost_box(
    lo: Sequence[int],
    hi: Sequence[int],
    reduced: Sequence[Tuple[int, Fraction]],
    gap: Fraction,
) -> Tuple[List[int], List[int]]:
    """The propagated root bounds ``lo..hi``, each variable with a
    nonzero root reduced cost ``r`` narrowed to within ``⌊gap / |r|⌋`` of
    the bound it sat at, ``lo`` when ``r > 0`` and ``hi`` when ``r < 0``.
    ``gap`` is a level's distance above the root LP optimum; the floor
    divides the two rationals' integer parts.
    """
    box_lo, box_hi = list(lo), list(hi)
    for i, r in reduced:
        steps = (gap.numerator * r.denominator
                 // (gap.denominator * abs(r.numerator)))
        if r > 0:
            box_hi[i] = min(hi[i], lo[i] + steps)
        else:
            box_lo[i] = max(lo[i], hi[i] - steps)
    return box_lo, box_hi


def _partitions(
    remaining: Tuple[int, ...],
    cost: int,
    blocks: List[Tuple[int, ...]],
    best: list,
    saturated: Callable[[Tuple[int, ...]], bool],
) -> None:
    """Complete ``blocks``, a partial partition of merge cost ``cost``,
    with blocks of ``remaining`` that ``saturated`` accepts, each block
    holding the first monomer type left; ``best`` is ``[cost,
    partitions]`` of the cheapest found so far.  Module-level, so the
    recursion leaves no reference cycle."""
    if best[0] is not None and cost > best[0]:
        return
    anchor = next((i for i, r in enumerate(remaining) if r > 0), None)
    if anchor is None:
        if best[0] is None or cost < best[0]:
            best[:] = [cost, [tuple(blocks)]]
        elif cost == best[0]:
            best[1].append(tuple(blocks))
        return
    ranges = [(0,)] * anchor + [range(1, remaining[anchor] + 1)]
    ranges += [range(r + 1) for r in remaining[anchor + 1:]]
    for block in itertools.product(*ranges):
        extra = sum(block) - 1
        if best[0] is not None and cost + extra > best[0]:
            continue
        if not saturated(block):
            continue
        blocks.append(block)
        _partitions(tuple(r - b for r, b in zip(remaining, block)),
                    cost + extra, blocks, best, saturated)
        blocks.pop()


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
    saturated_cache: Dict[Tuple[int, ...], bool] = {}

    def saturated(block: Tuple[int, ...]) -> bool:
        cached = saturated_cache.get(block)
        if cached is None:
            cached = is_self_saturated(Polymer(block), finite)
            saturated_cache[block] = cached
        return cached

    best: list = [None, []]
    _partitions(tuple(finite.counts), 0, [], best, saturated)
    best_cost, best_partitions = best

    if best_cost is None:
        raise TbnError("no saturated partition exists (broken invariant)")

    solutions = canonical_unique(
        PartialConfiguration.from_polymers(map(Polymer, partition), finite)
        for partition in best_partitions
    )
    return EnumerationResult(best_cost, solutions)
