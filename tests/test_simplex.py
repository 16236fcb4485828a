import itertools
import random
from math import gcd

import pytest

from tbntools import simplex, solver
from tbntools.cli import gen_gridgate
from tbntools.core import parse_tbn
from tbntools.hilbert import polymer_basis, stable_via_basis
from tbntools.simplex import (
    EQ,
    GE,
    LE,
    Q,
    frac_ceil,
    is_integral,
    solve_lp,
)

from conftest import translator_text


def feasible(x, rows, bounds):
    for (lo, hi), v in zip(bounds, x):
        assert lo <= v <= hi
    for coeffs, sense, rhs in rows:
        lhs = sum(c * x[i] for i, c in coeffs)
        if sense == LE:
            assert lhs <= rhs
        elif sense == GE:
            assert lhs >= rhs
        else:
            assert lhs == rhs


def phase_pivots(monkeypatch):
    """``[phase-1 pivots, phase-2 pivots]`` of every later solve.  A
    kernel prices once at the start of each phase."""
    counts = [0, 0]
    price, pivot = simplex._Simplex._price, simplex._Simplex._pivot

    def counting_price(self, cost):
        self.phase = getattr(self, "phase", 0) + 1
        return price(self, cost)

    def counting_pivot(self, *args):
        counts[self.phase - 1] += 1
        return pivot(self, *args)

    monkeypatch.setattr(simplex._Simplex, "_price", counting_price)
    monkeypatch.setattr(simplex._Simplex, "_pivot", counting_pivot)
    return counts


class TestHandCases:
    def test_unconstrained_box(self):
        sol = solve_lp([(0, 1), (1, -2)], [], [(0, 4), (0, 3)])
        assert sol.status == "optimal"
        assert sol.objective == -6
        assert sol.x == [0, 3]

    def test_simple_le(self):
        # min -x - y st x + y <= 3
        sol = solve_lp(
            [(0, -1), (1, -1)], [([(0, 1), (1, 1)], LE, 3)], [(0, 5), (0, 5)]
        )
        assert sol.status == "optimal"
        assert sol.objective == -3

    def test_equality(self):
        sol = solve_lp(
            [(0, 1), (1, 1)], [([(0, 2), (1, 1)], EQ, 4)], [(0, 5), (0, 5)]
        )
        assert sol.status == "optimal"
        assert sol.objective == 2  # x = 2, y = 0

    def test_fractional_optimum(self):
        # min -x st 2x <= 3
        sol = solve_lp([(0, -1)], [([(0, 2)], LE, 3)], [(0, 5)])
        assert sol.objective == Q(-3, 2)
        assert sol.x[0] == Q(3, 2)

    def test_infeasible(self):
        sol = solve_lp(
            [(0, 1)],
            [([(0, 1)], GE, 3), ([(0, 1)], LE, 1)],
            [(0, 10)],
        )
        assert sol.status == "infeasible"

    def test_infeasible_by_bounds(self):
        assert solve_lp([], [], [(3, 2)]).status == "infeasible"

    def test_nonzero_lower_bounds(self):
        # min x + y st x + y >= 5, x in [1,3], y in [2,6]
        sol = solve_lp(
            [(0, 1), (1, 1)],
            [([(0, 1), (1, 1)], GE, 5)],
            [(1, 3), (2, 6)],
        )
        assert sol.status == "optimal"
        assert sol.objective == 5

    def test_constant_row_infeasibility(self):
        sol = solve_lp([(0, 1)], [([(1, 1)], GE, 1)], [(0, 5), (0, 0)])
        assert sol.status == "infeasible"

    def test_all_variables_fixed(self):
        sol = solve_lp([(0, 3)], [([(0, 1)], EQ, 2)], [(2, 2)])
        assert sol.status == "optimal"
        assert sol.objective == 6

    def test_upper_bounded_optimum(self):
        # min -x - y st x + 2y <= 6; push x to its bound
        sol = solve_lp(
            [(0, -1), (1, -1)],
            [([(0, 1), (1, 2)], LE, 6)],
            [(0, 2), (0, 10)],
        )
        assert sol.status == "optimal"
        assert sol.objective == -4  # x=2, y=2
        # y is basic; x at its upper bound gains 1/2 per unit it falls
        assert sol.reduced == [Q(-1, 2), 0]

    def test_feasible_start_makes_no_phase_one_pivot(self, monkeypatch):
        # min -x - y st x - y = 0: the row's artificial starts basic at
        # 0, so the starting basis is feasible and phase 1 ends at once
        pivots = phase_pivots(monkeypatch)
        sol = solve_lp(
            [(0, -1), (1, -1)],
            [([(0, 1), (1, -1)], EQ, 0)],
            [(0, 3), (0, 3)],
        )
        assert sol.status == "optimal"
        assert sol.objective == -6
        assert sol.x == [3, 3]
        assert pivots == [0, 1]

    def test_upper_corner_start_makes_no_phase_one_pivot(self, monkeypatch):
        # min x + y st x + y >= 5: the row fails with both variables at
        # 0 and holds with both at 3, so the kernel starts there
        pivots = phase_pivots(monkeypatch)
        sol = solve_lp(
            [(0, 1), (1, 1)], [([(0, 1), (1, 1)], GE, 5)], [(0, 3), (0, 3)]
        )
        assert sol.status == "optimal"
        assert sol.objective == 5
        assert pivots == [0, 1]

    def test_box_reduced_costs_are_the_costs(self):
        sol = solve_lp([(0, 1), (1, -2), (2, 5)], [], [(0, 4), (0, 3), (1, 1)])
        # the fixed variable has none
        assert sol.reduced == [1, -2, 0]


class TestTimeLimit:
    OBJECTIVE = [(0, -1), (1, -1)]
    ROWS = [([(0, 1), (1, 2)], LE, 4), ([(0, 3), (1, 1)], LE, 6)]
    BOUNDS = [(0, 5), (0, 5)]

    def test_asked_once_per_pivot_until_it_fires(self, monkeypatch):
        # the set-up's calls, made before the kernel runs, pass; from
        # then on the second call fires, one pivot after the first
        running, calls = [], []
        run = simplex._Simplex.run

        def started(kernel, *args):
            running.append(True)
            return run(kernel, *args)

        class Expired(Exception):
            pass

        def check():
            if running:
                calls.append(True)
                if len(calls) > 1:
                    raise Expired

        monkeypatch.setattr(simplex._Simplex, "run", started)
        pivots = phase_pivots(monkeypatch)
        with pytest.raises(Expired):
            solve_lp(self.OBJECTIVE, self.ROWS, self.BOUNDS, check)
        assert len(calls) == 2
        assert sum(pivots) == 1

    def test_asked_during_set_up_before_the_kernel_is_built(
        self, monkeypatch
    ):
        # 1,000 rows over 1,000 variables: the shift loop's first row
        # asks, so a spent limit never reaches the kernel's set-up
        calls = []

        class Expired(Exception):
            pass

        def check():
            calls.append(True)
            raise Expired

        def no_kernel(*args):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr(simplex, "_Simplex", no_kernel)
        n = 1000
        rows = [([(i, 1), ((i + 1) % n, 1)], GE, 1) for i in range(n)]
        with pytest.raises(Expired):
            solve_lp([(i, 1) for i in range(n)], rows, [(0, 1)] * n, check)
        assert len(calls) == 1

    def test_unexpired_check_changes_nothing(self):
        plain = solve_lp(self.OBJECTIVE, self.ROWS, self.BOUNDS)
        checked = solve_lp(
            self.OBJECTIVE, self.ROWS, self.BOUNDS, lambda: None
        )
        assert checked == plain
        assert plain.objective == Q(-14, 5)


class TestRandomizedAgainstScipy:
    def gen_problem(self, rng):
        n = rng.randint(1, 5)
        bounds = []
        for _ in range(n):
            lo = rng.randint(0, 2)
            bounds.append((lo, lo + rng.randint(0, 4)))
        rows = []
        for _ in range(rng.randint(0, 4)):
            coeffs = [
                (i, rng.randint(-3, 3))
                for i in range(n)
                if rng.random() < 0.8
            ]
            coeffs = [(i, c) for i, c in coeffs if c != 0]
            if not coeffs:
                continue
            sense = rng.choice([LE, GE, EQ])
            rhs = rng.randint(-6, 10)
            rows.append((coeffs, sense, rhs))
        objective = [(i, rng.randint(-4, 4)) for i in range(n)]
        return objective, rows, bounds

    def test_matches_scipy_highs(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(20240817)
        for _ in range(300):
            objective, rows, bounds = self.gen_problem(rng)
            got = solve_lp(objective, rows, bounds)

            n = len(bounds)
            c = [0.0] * n
            for i, coeff in objective:
                c[i] += coeff
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for coeffs, sense, rhs in rows:
                dense = [0.0] * n
                for i, coeff in coeffs:
                    dense[i] += coeff
                if sense == LE:
                    a_ub.append(dense)
                    b_ub.append(rhs)
                elif sense == GE:
                    a_ub.append([-v for v in dense])
                    b_ub.append(-rhs)
                else:
                    a_eq.append(dense)
                    b_eq.append(rhs)
            ref = scipy_opt.linprog(
                c,
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                A_eq=a_eq or None,
                b_eq=b_eq or None,
                bounds=bounds,
                method="highs",
            )
            if ref.status == 2:
                assert got.status == "infeasible", (objective, rows, bounds)
            else:
                assert ref.status == 0
                assert got.status == "optimal", (objective, rows, bounds)
                feasible(got.x, rows, bounds)
                assert got.objective == sum(
                    c * got.x[i] for i, c in objective
                )
                # optimal reduced costs: none leaves its bound for less
                for (lo, hi), v, r in zip(bounds, got.x, got.reduced):
                    assert r == 0 or v == (lo if r > 0 else hi)
                assert abs(float(got.objective) - ref.fun) < 1e-7, (
                    objective, rows, bounds,
                )


class TestFractionFreeAgainstScipy(TestRandomizedAgainstScipy):
    """Larger LPs, a third of whose right-hand sides are 0 so that pivots
    degenerate; their tableau rows reach denominators above 1."""

    def gen_problem(self, rng):
        n = rng.randint(3, 12)
        bounds = []
        for _ in range(n):
            lo = rng.randint(0, 2)
            bounds.append((lo, lo + rng.randint(0, 5)))
        x0 = [rng.randint(lo, hi) for lo, hi in bounds]
        rows = []
        for _ in range(rng.randint(2, 15)):
            coeffs = []
            for i in range(n):
                c = rng.randint(-7, 7)
                if c != 0 and rng.random() < 0.6:
                    coeffs.append((i, c))
            if not coeffs:
                continue
            at = sum(c * x0[i] for i, c in coeffs)
            if rng.random() < 1 / 3:
                # a zero right-hand side, on the side of it x0 lies
                sense = EQ if at == 0 else (LE if at < 0 else GE)
                rhs = 0
            else:
                sense = rng.choice([LE, GE, EQ])
                rhs = at + rng.randint(-6, 6)
            rows.append((coeffs, sense, rhs))
        objective = [(i, rng.randint(-7, 7)) for i in range(n)]
        return objective, rows, bounds

    @pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
    def test_matches_scipy_highs(self, monkeypatch, bland):
        if bland:
            # Bland's rule from the first degenerate step on
            monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", 0)
        super().test_matches_scipy_highs()

    def test_rows_reach_denominators_above_one(self, monkeypatch):
        pivot_dens = []
        eliminate = simplex._eliminate

        def recording(row, den, f, prow, pden, support):
            pivot_dens.append(pden)
            return eliminate(row, den, f, prow, pden, support)

        monkeypatch.setattr(simplex, "_eliminate", recording)
        rng = random.Random(20240817)
        for _ in range(300):
            solve_lp(*self.gen_problem(rng))
        assert max(pivot_dens) > 1

    def test_reach_every_bound_move(self, monkeypatch):
        """The value column's integer shifts all run: a bound flip, and a
        variable entering from and leaving to its upper bound."""
        kernel = simplex._Simplex
        pivot, shift = kernel._pivot, kernel._shift
        inside = set()
        seen = set()

        def within(name, fn, *args):
            inside.add(name)
            try:
                return fn(*args)
            finally:
                inside.discard(name)

        def recording_pivot(self, r, j, out_to_upper=False):
            if self.at_upper[j]:
                seen.add("enter from upper")
            if out_to_upper:
                seen.add("leave to upper")
            return within("pivot", pivot, self, r, j, out_to_upper)

        def recording_shift(self, j, amount):
            if "pivot" not in inside:
                seen.add("bound flip")
            return shift(self, j, amount)

        monkeypatch.setattr(kernel, "_pivot", recording_pivot)
        monkeypatch.setattr(kernel, "_shift", recording_shift)
        rng = random.Random(20240817)
        for _ in range(300):
            solve_lp(*self.gen_problem(rng))
        assert seen == {"bound flip", "enter from upper", "leave to upper"}

    def test_reach_every_elimination_branch(self, monkeypatch):
        """Each other row a pivot eliminates from takes one of three
        branches: the normalised pivot row's denominator is 1, or it
        divides the row's factor, or neither (the dense update)."""
        kernel = simplex._Simplex
        pivot = kernel._pivot
        seen = set()

        def classifying(self, r, j, out_to_upper=False):
            a = abs(self.rows[r][j])
            pden = a // gcd(a, *self.rows[r])
            for rr, row in enumerate(self.rows):
                f = row[j]
                if f and rr != r:
                    seen.add("unit" if pden == 1
                             else "divisible" if f % pden == 0
                             else "dense")
            return pivot(self, r, j, out_to_upper)

        monkeypatch.setattr(kernel, "_pivot", classifying)
        for gen in (TestRandomizedAgainstScipy().gen_problem,
                    self.gen_problem):
            rng = random.Random(20240817)
            for _ in range(300):
                solve_lp(*gen(rng))
        assert seen == {"unit", "divisible", "dense"}


def violated_rows(rows, point):
    """How many rows ``point`` fails."""
    bad = 0
    for coeffs, sense, rhs in rows:
        lhs = sum(c * point[i] for i, c in coeffs)
        bad += not (lhs <= rhs if sense == LE
                    else lhs >= rhs if sense == GE else lhs == rhs)
    return bad


class TestUpperCornerStartAgainstScipy(TestRandomizedAgainstScipy):
    """LPs whose rows all hold with every variable at its upper bound, so
    that the kernel starts there whenever a row fails at the lower one;
    and, one in five, LPs whose two corners fail equally many rows, which
    keep the lower start.  The inherited test checks the 300 LPs of
    ``problems`` against scipy HiGHS."""

    def gen_problem(self, rng):
        n = rng.randint(1, 6)
        bounds = []
        for _ in range(n):
            lo = rng.randint(-2, 2)
            bounds.append((lo, lo + rng.randint(1, 4)))
        lower = [lo for lo, _ in bounds]
        upper = [hi for _, hi in bounds]
        tie = rng.random() < 0.2
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [(i, rng.randint(-4, 4)) for i in range(n)
                      if rng.random() < 0.8]
            coeffs = [(i, c) for i, c in coeffs if c != 0]
            if not coeffs:
                continue
            at_lower = sum(c * lower[i] for i, c in coeffs)
            at_upper = sum(c * upper[i] for i, c in coeffs)
            slack = rng.randint(0, 3)
            if tie:
                # held at both corners
                sense = rng.choice([LE, GE])
                rhs = (max(at_lower, at_upper) + slack if sense == LE
                       else min(at_lower, at_upper) - slack)
            else:
                sense = rng.choice([LE, GE, EQ])
                rhs = at_upper + {LE: slack, GE: -slack, EQ: 0}[sense]
            rows.append((coeffs, sense, rhs))
        if tie and n >= 2 and rng.random() < 0.5:
            # one row fails at each corner only
            rows.append(([(0, 1)], GE, upper[0]))
            rows.append(([(1, 1)], LE, lower[1]))
        objective = [(i, rng.randint(-4, 4)) for i in range(n)]
        return objective, rows, bounds

    def problems(self):
        rng = random.Random(20240817)
        return [self.gen_problem(rng) for _ in range(300)]

    def test_starts_at_the_corner_that_fails_fewer_rows(self, monkeypatch):
        starts = []
        run = simplex._Simplex.run

        def recording(self, *args):
            starts.append(self.at_upper[:1] == [True])
            return run(self, *args)

        monkeypatch.setattr(simplex._Simplex, "run", recording)
        fired = ties = with_rows = 0
        for objective, rows, bounds in self.problems():
            del starts[:]
            solve_lp(objective, rows, bounds)
            lower_bad = violated_rows(rows, [lo for lo, _ in bounds])
            upper_bad = violated_rows(rows, [hi for _, hi in bounds])
            # every problem reaches the kernel; one without rows fails
            # none at either corner, so it starts at the lower one
            assert starts == [upper_bad < lower_bad]
            with_rows += bool(rows)
            fired += upper_bad < lower_bad
            ties += bool(rows) and upper_bad == lower_bad > 0
        # the upper start on most with rows, and some ties at a failing
        # row each
        assert 2 * fired > with_rows and ties > 10

    def test_reduced_costs_bound_every_integer_point(self):
        """``obj(y) >= objective + sum(r_i (y_i - x_i))`` at every
        feasible integer point ``y`` of the LPs with at most 4
        variables, found by enumeration."""
        checked = 0
        for objective, rows, bounds in self.problems():
            if len(bounds) > 4:
                continue
            sol = solve_lp(objective, rows, bounds)
            for y in itertools.product(*(range(lo, hi + 1)
                                         for lo, hi in bounds)):
                if violated_rows(rows, y):
                    continue
                assert sol.status == "optimal"
                value = sum(c * y[i] for i, c in objective)
                bound = sol.objective + sum(
                    r * (v - x) for r, v, x in zip(sol.reduced, y, sol.x))
                assert value >= bound, (objective, rows, bounds, y)
                checked += 1
        assert checked > 1000


class TestWorkloadRootLps:
    """The root LP of one instance per workload family keeps the exact
    solution it had under the ``Fraction`` tableau."""

    def root_lp(self, monkeypatch, run):
        solved = []

        def recording(*args):
            solved.append(solve_lp(*args))
            return solved[-1]

        monkeypatch.setattr(solver, "solve_lp", recording)
        run()
        [root] = solved
        assert root.status == "optimal"
        return root

    def test_gridgate_caption_slot_model(self, monkeypatch):
        t = gen_gridgate(4, 2, caption_literal=True)
        root = self.root_lp(monkeypatch, lambda: solver.stable_configs(t))
        assert root.objective == Q(7, 2)
        half = Q(1, 2)
        assert root.x == [1, half, half, half, 1, 1, 0, 0, 0, 1]

    def test_translator_cover_ip(self, monkeypatch):
        t = parse_tbn(
            "T_abc: a b c\nT_bcd: b c d\nT_cde: c d e\nT_dea: d e a\n"
            "T_eab: e a b\nG_ab: a* b*\nG_bc: b* c*\nG_cd: c* d*\n"
            "G_de: d* e*\nG_ea: e* a*\n"
        )
        basis = polymer_basis(t)
        root = self.root_lp(monkeypatch, lambda: stable_via_basis(t, basis))
        assert root.objective == 5
        # one variable per basis element within the counts (40 of 45),
        # less the five T singletons, which hold no limiting G monomer,
        # in basis order; five G + T pairs are at 1
        within = [b.counts for b in basis if max(b.counts) <= 1]
        assert len(basis) == 45 and len(within) == 40
        within = [b for b in within if any(b[i] for i in t.limiting_indices)]
        assert len(within) == 35
        ones = {
            (1, 0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 1, 0, 0),
            (0, 0, 1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
        }
        assert root.x == [Q(int(b in ones)) for b in within]


def root_lp_args(monkeypatch, run):
    """The (objective, rows, bounds) of the first LP ``run`` solves,
    which ends the run."""

    class Captured(Exception):
        pass

    def capturing(objective, rows, bounds, check=None):
        raise Captured(objective, rows, bounds)

    monkeypatch.setattr(solver, "solve_lp", capturing)
    with pytest.raises(Captured) as caught:
        run()
    return caught.value.args


def nonzeros(values):
    return {i: v for i, v in enumerate(values) if v}


class TestPivotPathPins:
    """Five workload-family root LPs: this kernel's number of ``check``
    calls (one per row of each set-up loop, and one per pivot, bound
    flip and pricing pass that finds no entering column), its pivots per
    phase and its exact solution.  A change to the pivot rule moves
    these pins; re-pin them with it."""

    def solve(self, monkeypatch, run):
        args = root_lp_args(monkeypatch, run)
        pivots = phase_pivots(monkeypatch)
        checks = []
        sol = solve_lp(*args, lambda: checks.append(1))
        assert sol.status == "optimal"
        # integral entries are plain ints, the rest exact fractions
        for v in [sol.objective] + sol.x + sol.reduced:
            assert type(v) is (int if v.denominator == 1 else Q)
        return sol, len(checks), pivots

    def test_gridgate_n7_caption(self, monkeypatch):
        t = gen_gridgate(7, 2, caption_literal=True)
        sol, checks, pivots = self.solve(
            monkeypatch, lambda: solver.stable_configs(t))
        assert (checks, pivots) == (253, [0, 55])
        assert sol.objective == Q(13, 2)
        half = Q(1, 2)
        assert sol.x == [1] + [half] * 5 + [1] * 3 + [half] * 2 + [0] * 4 + [1]
        assert sol.reduced == [0] * 14 + [half, 0]

    def test_translator_k6_cover_ip(self, monkeypatch):
        t = parse_tbn(translator_text(6))
        basis = polymer_basis(t)
        sol, checks, pivots = self.solve(
            monkeypatch, lambda: stable_via_basis(t, basis))
        assert (checks, pivots) == (69, [6, 23])
        assert sol.objective == 6
        ones = {11, 24, 32, 38, 41, 43}
        assert sol.x == [int(i in ones) for i in range(45)]
        zero = ones | {12, 25, 30, 37, 40, 44}
        assert sol.reduced == [int(i not in zero) for i in range(45)]

    def test_gridgate_n14_caption(self, monkeypatch):
        t = gen_gridgate(14, 2, caption_literal=True)
        sol, checks, pivots = self.solve(
            monkeypatch, lambda: solver.stable_configs(t))
        assert (checks, pivots) == (807, [0, 119])
        assert sol.objective == Q(27, 2)
        half = Q(1, 2)
        assert len(sol.x) == 30
        assert nonzeros(sol.x) == {
            **{i: 1 for i in (0, 3, 4, 5, 6, 7, 29)},
            **{i: half for i in (1, *range(8, 16), *range(20, 28))},
        }
        assert nonzeros(sol.reduced) == {19: half}

    def test_gridgate_n20_plain(self, monkeypatch):
        t = gen_gridgate(20, 2)
        assert solver.stable_configs(t).optimum == 20
        sol, checks, pivots = self.solve(
            monkeypatch, lambda: solver.stable_configs(t))
        assert (checks, pivots) == (1554, [0, 211])
        assert sol.objective == 20

    def test_gridgate_n20_caption(self, monkeypatch):
        t = gen_gridgate(20, 2, caption_literal=True)
        assert solver.stable_configs(t).optimum == 20
        sol, checks, pivots = self.solve(
            monkeypatch, lambda: solver.stable_configs(t))
        assert (checks, pivots) == (1656, [0, 314])
        assert sol.objective == Q(39, 2)


class TestNoFractionPerPivot:
    def test_gridgate_root_lp_builds_fractions_for_its_answer_only(
        self, monkeypatch
    ):
        lps = []

        def recording(*args):
            lps.append(args[:3])
            return solve_lp(*args)

        monkeypatch.setattr(solver, "solve_lp", recording)
        solver.stable_configs(gen_gridgate(7, 2, caption_literal=True))
        [(objective, rows, bounds)] = lps

        built = []

        def counting(*args):
            built.append(args)
            return Q(*args)

        monkeypatch.setattr(simplex, "Q", counting)
        pivots = []
        sol = solve_lp(objective, rows, bounds, lambda: pivots.append(1))
        assert sol.status == "optimal"
        # the answer takes at most two per variable (its lower bound and
        # its offset from it) and one for the objective
        limit = 2 * len(bounds) + 2
        assert len(built) <= limit < len(pivots)


class TestFractionHelpers:
    def test_ceil_floor(self):
        assert frac_ceil(Q(7, 2)) == 4
        assert frac_ceil(Q(-7, 2)) == -3
        assert frac_ceil(Q(4)) == 4

    def test_is_integral(self):
        assert is_integral(Q(4))
        assert not is_integral(Q(1, 2))
