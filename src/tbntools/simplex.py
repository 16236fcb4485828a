"""Exact simplex for LP relaxations of bounded integer programs.

Two-phase primal simplex in exact arithmetic; no floating point touches
any feasibility or optimality decision.  Variables carry finite bounds and
may sit nonbasic at either bound, so bound rows never enter the tableau.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): each row is a
list of integer numerators over one positive integer denominator, and the
reduced costs are one more such row.  A pivot divides the pivot row
through by its pivot entry and divides out the gcd, leaving the pivot
row over denominator ``pden``; then it eliminates the pivot column from
each other row that has a nonzero ``f`` there.  When ``pden`` divides
``f`` (always when ``pden == 1``) the row subtracts ``(f // pden)`` times
the pivot row over the pivot row's nonzeros only and keeps its
denominator; otherwise it is cross-multiplied over the product of the
two denominators and the gcd is divided out.

Each row's last entry is the numerator of its basic value, so a pivot
updates the values with the rest of the row.  Moving a nonbasic variable
between its bounds (a bound flip, or a variable entering from or leaving
to its upper bound) is the integer shift ``row[-1] -= amount * row[j]``.
The ratio test compares integer pairs (distance, rate) by cross
multiplication, the row's denominator cancelled.  ``fractions.Fraction``
appears only in the returned ``LpSolution``, once per non-integral value.

The start is a corner of the box: every structural at its lower bound,
or every one at its upper bound when that corner leaves strictly fewer
rows violated (an EQ row with ``b != 0``, a GE row with ``b > 0``, an LE
row with ``b < 0``, ``b`` being the row's right-hand side less its left
side at the corner), so that fewer rows need a nonzero artificial and
phase 1 has less to do (Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 4(3), 1992).  A tie keeps the lower
corner.  Both counts come from the one pass over each row's sparse
coefficients that shifts it by its lower bounds.  This is exact: either
corner is a valid nonbasic position of the bounded simplex, the value
column counts a column at its upper bound, and phase 1 minimizes the
artificials from there.  The optimum's reduced costs keep their meaning
(``LpSolution``).  A grid-gate slot LP meets every row at its upper
corner, so its phase 1 makes no pivot.  A cover LP keeps the lower
start: each of its EQ rows fails at both corners.

Phase 1 minimizes the total of the artificial columns and ends as soon
as every basic artificial is 0, rather than when no column prices in
(Chvátal, *Linear Programming*, 1983).  This is exact: every artificial
is nonnegative, so a total of 0 is phase 1's optimum, and any further
phase-1 pivot would be degenerate.  An artificial still basic then sits
at 0; phase 2 pins every artificial to [0, 0] and never prices one in,
so the ratio test keeps it at 0.  Phase 2's reduced costs stay valid
bounds (``LpSolution``), since every point that meets the rows has
every artificial at 0.  The total moves only on a step of nonzero
length, so the test runs before the first pricing and after each such
step.

Pivot selection is Dantzig's rule (the first column of largest score),
switching to Bland's rule (the first column that improves) permanently
after a long degenerate streak to guarantee termination.  Each phase
prices a fixed list of its allowed columns (phase 2 leaves out the
artificials) and scores only nonzero reduced costs: a basic column's
reduced cost is exactly 0 after every pricing and every pivot, so basic
columns need no test of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Callable, List, Optional, Sequence, Tuple

# senses for linear constraints (ipmodel re-exports them)
LE, GE, EQ = "<=", ">=", "="

_DEGENERATE_STREAK_LIMIT = 200


class SimplexError(Exception):
    """Internal simplex failure (iteration cap, unexpected unboundedness)."""


def frac_ceil(q) -> int:
    n, d = q.numerator, q.denominator
    return -((-n) // d)


def is_integral(q) -> bool:
    return q.denominator == 1


@dataclass
class LpSolution:
    """An LP's status and, when optimal, its exact optimum.

    ``objective`` and every entry of ``x`` and ``reduced`` is an exact
    rational: an ``int`` when integral, else a ``fractions.Fraction``.
    ``reduced`` holds each variable's optimal reduced cost: 0 for a
    basic or fixed variable, ``>= 0`` for one at its lower bound and
    ``<= 0`` for one at its upper bound.  The objective of any point
    that meets the rows and bounds is then ``objective`` plus each
    variable's reduced cost times its distance from its bound at the
    optimum, plus a term of each row's slack; every term is ``>= 0``.
    """

    status: str  # "optimal" | "infeasible"
    objective: Optional[object] = None  # int or Fraction
    x: Optional[List[object]] = None  # int or Fraction, one per variable
    reduced: Optional[List[object]] = None  # likewise


def solve_lp(
    objective: Sequence[Tuple[int, int]],
    rows: Sequence[Tuple[Sequence[Tuple[int, int]], str, int]],
    bounds: Sequence[Tuple[int, int]],
    check: Optional[Callable[[], None]] = None,
) -> LpSolution:
    """Minimize ``sum(c_i x_i)`` subject to linear rows and finite bounds.

    ``objective``: (variable index, coefficient) pairs.
    ``rows``: (coeff pairs, sense, rhs) triples.
    ``bounds``: inclusive (lower, upper) per variable, all finite.
    Every coefficient, right-hand side and bound is an integer.
    ``check`` is called before each pricing pass of the pivot loop: once
    per pivot, per bound flip and per last pass of a phase that finds no
    entering column (phase 1 makes none when it ends at feasibility).
    Whatever it raises ends the solve.
    """
    n = len(bounds)
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    if any(l > h for l, h in bounds):
        return LpSolution("infeasible")

    # shift x = lo + z with z in [0, u]; drop fixed (u == 0) variables
    active = [i for i in range(n) if hi[i] > lo[i]]
    col_of = {i: k for k, i in enumerate(active)}
    u = [hi[i] - lo[i] for i in active]

    obj_const = 0
    c = [0] * len(active)
    for i, coeff in objective:
        obj_const += coeff * lo[i]
        if i in col_of:
            c[col_of[i]] += coeff

    # each row's right-hand side with every active column at 0 (``b``)
    # and at its upper bound (``b - span``), and how many rows each of
    # the two corners violates: the start is the one that violates fewer
    shifted = []
    lower_bad = upper_bad = 0
    for coeffs, sense, rhs in rows:
        row = [0] * len(active)
        shift = span = 0
        for i, coeff in coeffs:
            shift += coeff * lo[i]
            if i in col_of:
                k = col_of[i]
                row[k] += coeff
                span += coeff * u[k]
        b = rhs - shift
        if not any(row):
            if _violated(sense, b):
                return LpSolution("infeasible")
            continue
        shifted.append((row, sense, b, b - span))
        lower_bad += _violated(sense, b)
        upper_bad += _violated(sense, b - span)

    if not active or not shifted:
        # box problem: each variable sits at the bound its cost favours,
        # and its reduced cost is its cost
        z = [(u[k] if c[k] < 0 else 0, 1) for k in range(len(active))]
        return _finish(z, c, 1, active, lo, n, c, obj_const)

    return _Simplex(shifted, c, u, check, upper_bad < lower_bad).run(
        active, lo, n, obj_const
    )


def _violated(sense, b) -> bool:
    """Whether ``0 sense b`` is false: whether a row whose right-hand
    side less its left side at a corner is ``b`` fails there, and
    whether a row with no free column fails everywhere."""
    return b < 0 if sense == LE else b > 0 if sense == GE else b != 0


def _finish(z, rc, rc_den, active, lo, n, c, obj_const) -> LpSolution:
    """The solution whose active column k sits at ``z[k]``, a pair
    (numerator, positive denominator) above its lower bound, and has
    reduced cost ``rc[k] / rc_den``.  The objective is summed as one
    numerator over the least common denominator."""
    x = list(lo)
    reduced = [0] * n
    num, den = obj_const, 1
    for k, i in enumerate(active):
        zn, zd = z[k]
        if zn:
            x[i] = _rational(lo[i] * zd + zn, zd)
            if c[k]:
                common = lcm(den, zd)
                num = num * (common // den) + c[k] * zn * (common // zd)
                den = common
        if rc[k]:
            reduced[i] = _rational(rc[k], rc_den)
    return LpSolution("optimal", _rational(num, den), x, reduced)


def _rational(num, den):
    """``num / den`` as an ``int`` when integral, else a ``Fraction``."""
    q, rem = divmod(num, den)
    return Q(num, den) if rem else q


def _support(row):
    return [(k, v) for k, v in enumerate(row) if v]


def _eliminate(row, den, f, prow, pden, support):
    """``row/den - (f/den) * (prow/pden)`` as (numerators, denominator).

    ``f`` is ``row``'s numerator in the pivot column.  When ``pden``
    divides ``f``, ``row`` subtracts ``(f // pden) * prow`` in place over
    ``support``, ``prow``'s nonzeros, and ``den`` stays.  Otherwise the
    row is cross-multiplied over ``den * pden`` and the gcd divided out.
    """
    q, rem = divmod(f, pden)
    if not rem:
        for k, v in support:
            row[k] -= q * v
        return row, den
    row = [v * pden - f * p for v, p in zip(row, prow)]
    den *= pden
    g = gcd(den, *row)
    if g > 1:
        row = [v // g for v in row]
        den //= g
    return row, den


class _Simplex:
    """Bounded-variable two-phase tableau simplex in z-space (lowers at 0).

    Tableau row ``r`` is ``rows[r] / dens[r]``; its last entry is the
    basic value's numerator.  The reduced costs are ``rc / rc_den``, with
    a last entry that pricing never reads.  Every denominator is positive,
    so comparing numerators within one row compares the values.  The value
    column counts each nonbasic column at its upper bound, so moving one
    to its other bound is an integer shift of that column (``_shift``).
    """

    def __init__(self, shifted_rows, c, u, check, upper):
        self.n_struct = len(u)
        self.c = c
        self.check = check
        # each row ``(row, sense, b_lower, b_upper)`` takes the right-hand
        # side of the start: every structural at 0, or with ``upper`` at
        # its upper bound.  Each is negated at most once, to ``b >= 0`` (a
        # GE row with ``b == 0`` too, so that it takes a slack); then an
        # LE row takes a slack column, a GE row a surplus and an
        # artificial, and an EQ row an artificial
        rows = []
        for row, sense, b_lower, b_upper in shifted_rows:
            b = b_upper if upper else b_lower
            if b < 0 or (b == 0 and sense == GE):
                row, b = [-v for v in row], -b
                sense = {LE: GE, GE: LE, EQ: EQ}[sense]
            rows.append((row, sense, b))
        self.m = len(rows)

        ncols = self.n_struct
        for _, sense, _ in rows:
            ncols += 2 if sense == GE else 1
        self.ncols = ncols

        self.ub: List[Optional[int]] = list(u) + [None] * (
            ncols - self.n_struct
        )
        self.is_art = [False] * ncols
        self.rows: List[List[int]] = []
        self.dens: List[int] = [1] * self.m
        self.basis: List[int] = []
        col = self.n_struct
        for row, sense, b in rows:
            aug = row + [0] * (ncols - self.n_struct) + [b]
            if sense == LE:
                aug[col] = 1
                self.basis.append(col)
                col += 1
            elif sense == GE:
                aug[col] = -1
                aug[col + 1] = 1
                self.is_art[col + 1] = True
                self.basis.append(col + 1)
                col += 2
            else:
                aug[col] = 1
                self.is_art[col] = True
                self.basis.append(col)
                col += 1
            self.rows.append(aug)
        self.at_upper = [upper] * self.n_struct + [False] * (
            ncols - self.n_struct
        )
        self.rc: List[int] = []
        self.rc_den = 1

    def run(self, active, lo, n, obj_const) -> LpSolution:
        # phase 1: minimize the artificial total until it is 0, which is
        # its optimum since every artificial is >= 0; pricing on would
        # only pivot degenerately among feasible bases
        self._price([1 if a else 0 for a in self.is_art])
        self._pivot_loop(range(self.ncols), self._artificial_total_zero)
        if not self._artificial_total_zero():
            return LpSolution("infeasible")

        # pin artificials at zero: the ratio test holds one left basic
        # at 0, and phase 2 never lets one re-enter
        for j in range(self.ncols):
            if self.is_art[j]:
                self.ub[j] = 0

        # phase 2
        self._price(self.c + [0] * (self.ncols - self.n_struct))
        self._pivot_loop(
            [j for j in range(self.ncols) if not self.is_art[j]]
        )

        z = [(self.ub[j] if self.at_upper[j] else 0, 1)
             for j in range(self.n_struct)]
        for r, j in enumerate(self.basis):
            if j < self.n_struct:
                z[j] = (self.rows[r][-1], self.dens[r])
        return _finish(
            z, self.rc, self.rc_den, active, lo, n, self.c, obj_const
        )

    def _artificial_total_zero(self):
        """Whether every basic artificial has value 0.  Nonbasic ones sit
        at 0, so this is the artificial total reaching 0."""
        rows, is_art = self.rows, self.is_art
        return not any(
            is_art[j] and rows[r][-1] for r, j in enumerate(self.basis)
        )

    def _price(self, cost):
        """Set the reduced costs of the integer ``cost`` row."""
        rc, den = list(cost) + [0], 1
        for r, bj in enumerate(self.basis):
            cb = cost[bj]
            if cb != 0:
                prow = self.rows[r]
                rc, den = _eliminate(
                    rc, den, cb * den, prow, self.dens[r], _support(prow)
                )
        self.rc, self.rc_den = rc, den

    def _shift(self, j, amount):
        """Move nonbasic column j by ``amount`` in every basic value."""
        for row in self.rows:
            if row[j]:
                row[-1] -= amount * row[j]

    def _pivot(self, r, j, out_to_upper=False):
        """Row-reduce so column j, moved to 0 if it sat at its upper bound,
        becomes basic in row r; the leaving column goes to its upper bound
        with ``out_to_upper``, else to 0."""
        if self.at_upper[j]:
            self.at_upper[j] = False
            self._shift(j, -self.ub[j])
        rows, dens = self.rows, self.dens
        prow = rows[r]
        a = prow[j]
        if a < 0:
            prow = [-v for v in prow]
            a = -a
        if a != 1:
            g = gcd(*prow)
            if g > 1:
                prow = [v // g for v in prow]
                a //= g
        rows[r], dens[r] = prow, a
        support = _support(prow)
        # ``_eliminate``, with its divisible case inline: no call per row
        for rr, row in enumerate(rows):
            f = row[j]
            if f and rr != r:
                q, rem = divmod(f, a)
                if rem:
                    rows[rr], dens[rr] = _eliminate(
                        row, dens[rr], f, prow, a, support
                    )
                else:
                    for k, v in support:
                        row[k] -= q * v
        if self.rc[j] != 0:
            self.rc, self.rc_den = _eliminate(
                self.rc, self.rc_den, self.rc[j], prow, a, support
            )
        out, self.basis[r] = self.basis[r], j
        self.at_upper[out] = out_to_upper
        if out_to_upper:
            self._shift(out, self.ub[out])

    def _pivot_loop(self, columns, done=None):
        """Pivot until no column of ``columns`` prices in, or until
        ``done()`` holds.  ``done`` is asked before the first pricing and
        after each step that moves the basic values: it must be a test
        that a degenerate step cannot change."""
        rows, dens, basis = self.rows, self.dens, self.basis
        ub, at_upper = self.ub, self.at_upper
        use_bland = False
        degenerate_streak = 0
        iteration = 0
        max_iterations = 2000 + 200 * (self.m + self.ncols)
        moved = True

        while True:
            if moved and done is not None and done():
                return
            iteration += 1
            if iteration > max_iterations:
                raise SimplexError("iteration cap exceeded")
            if self.check is not None:
                self.check()

            rc = self.rc
            entering = None
            best = 0
            for j in columns:
                v = rc[j]
                if v:
                    score = v if at_upper[j] else -v
                    if score > best:
                        best = score
                        entering = j
                        if use_bland:
                            break
            if entering is None:
                return

            # the step t = tn / td is capped by a bound flip (None: no cap)
            # and by each basic value reaching a bound, as the integer
            # pair (distance, rate) with the row's denominator cancelled
            sign = -1 if at_upper[entering] else 1
            tn, td = ub[entering], 1
            leaving_row = None
            leaving_to_upper = False
            for r in range(self.m):
                row = rows[r]
                d = sign * row[entering]
                if d > 0:
                    cn, cd, to_upper = row[-1], d, False
                elif d < 0 and ub[basis[r]] is not None:
                    cn = ub[basis[r]] * dens[r] - row[-1]
                    cd, to_upper = -d, True
                else:
                    continue
                if (
                    tn is None
                    or cn * td < tn * cd
                    or (
                        cn * td == tn * cd
                        and leaving_row is not None
                        and basis[r] < basis[leaving_row]
                    )
                ):
                    tn, td = cn, cd
                    leaving_row = r
                    leaving_to_upper = to_upper
            if tn is None:
                raise SimplexError("unbounded direction in a bounded problem")

            moved = tn != 0
            if moved:
                degenerate_streak = 0
            else:
                degenerate_streak += 1
                if degenerate_streak > _DEGENERATE_STREAK_LIMIT:
                    use_bland = True

            if leaving_row is None:
                # the entering variable reached its other bound: no pivot
                self._shift(entering, sign * ub[entering])
                at_upper[entering] = not at_upper[entering]
                continue
            self._pivot(leaving_row, entering, leaving_to_upper)
