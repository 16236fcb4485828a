import itertools
import random
from collections import Counter
from typing import Tuple

import pytest

from tbntools import solver
from tbntools.cli import gen_gridgate
from tbntools.core import (
    INF,
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    TbnValidationError,
    is_self_saturated,
    leftover,
    merge_count,
    parse_tbn,
)
from tbntools.ipmodel import (
    EQ,
    GE,
    LE,
    Constraint,
    IntegerProgram,
    ModelError,
    Objective,
    Variable,
    build,
    default_bound,
    exists_var,
)
from tbntools.hilbert import (
    _basis_cover_program,
    polymer_basis,
    stable_via_basis,
)
from tbntools.simplex import frac_ceil, solve_lp

from conftest import LateClock, translator_text
from tbntools.solver import (
    BUDGET_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    PROBE_NODES,
    Budget,
    BruteForceError,
    BudgetExhausted,
    Clock,
    EnumerationResult,
    SolveResult,
    SolveStats,
    StableOptions,
    _Compiled,
    _probe,
    _reduced_cost_box,
    _search,
    brute_force_stable,
    enumerate_assignments,
    propagate,
    scan_levels,
    solve_min,
    stable_configs,
)


def polymer_sets(result):
    return {tuple(p.counts for p in pc.polymers) for pc in result.solutions}


class TestWorkedExamples:
    def test_intro_network_unique_stable_config(self, intro_tbn):
        result = stable_configs(intro_tbn, StableOptions(all=True))
        assert result.optimum == 1
        assert result.complete
        assert len(result.solutions) == 1
        pc = result.solutions[0]
        # the one polymer pairs {a* b*} with {a b}
        assert [p.counts for p in pc.polymers] == [(1, 0, 1, 0)]
        assert merge_count(pc) == 1

    def test_excess_network_optimum_two(self, excess_tbn):
        result = stable_configs(excess_tbn, StableOptions(all=True))
        assert result.optimum == 2
        assert polymer_sets(result) == {((1, 1), (1, 1))}

    def test_three_copy_network_optimum_three(self):
        t = parse_tbn("x: a* b*, 3\ny: a b, inf\nz: a, inf\nw: b, inf")
        result = stable_configs(t)
        assert result.optimum == 3
        assert merge_count(result.solutions[0]) == 3

    def test_grid_two_stable_configs(self, grid_tbn):
        result = stable_configs(grid_tbn, StableOptions(all=True))
        assert result.optimum == 2
        assert len(result.solutions) == 2

    def test_no_limiting_monomers(self):
        t = parse_tbn("p: a b\nq: c")
        result = stable_configs(t, StableOptions(all=True))
        assert result.optimum == 0
        assert result.solutions == [
            PartialConfiguration.from_polymers([], t)
        ]


class TestBudget:
    def test_nan_time_limit_rejected(self):
        # no elapsed time is >= nan, so the limit would never fire
        with pytest.raises(TbnValidationError, match="nan"):
            Budget(max_time=float("nan"))

    def test_infinite_time_limit_accepted(self):
        assert Budget(max_time=float("inf")).max_time == float("inf")

    @pytest.mark.parametrize("limit", ["max_nodes", "max_time"])
    def test_negative_limit_rejected(self, limit):
        with pytest.raises(TbnValidationError, match="negative"):
            Budget(**{limit: -1})
        # a limit of 0 is valid: the first node or check runs it out
        assert getattr(Budget(**{limit: 0}), limit) == 0


class TestSlottedRecords:
    def test_no_instance_dict(self, intro_tbn):
        result = stable_configs(intro_tbn, StableOptions(all=True))
        pc = result.solutions[0]
        for record in (result, result.stats, pc, pc.polymers[0],
                       SolveResult(OPTIMAL)):
            assert not hasattr(record, "__dict__")

    def test_equality_hashing_and_order(self, intro_tbn, grid_tbn):
        p, q = Polymer((1, 0, 1, 0)), Polymer((1, 1, 1, 0))
        assert p == Polymer((1, 0, 1, 0))
        assert hash(p) == hash(Polymer((1, 0, 1, 0)))
        assert p <= q and not q <= p
        # the TBN is not part of a configuration's identity
        pc = PartialConfiguration((p,), intro_tbn)
        assert pc == PartialConfiguration((p,), grid_tbn)
        assert hash(pc) == hash(PartialConfiguration((p,), grid_tbn))
        stats = SolveStats(3, "basis")
        assert stats == SolveStats(3, "basis") != SolveStats(4, "basis")
        assert stats != SolveStats(3)
        assert EnumerationResult(1, [pc]) == EnumerationResult(1, [pc])
        assert EnumerationResult(1, [pc]).complete
        assert not EnumerationResult(None, []).complete


class TestTranslatorCascade:
    @pytest.mark.slow
    def test_two_stable_configurations_of_six_polymers(self, translator_tbn):
        result = stable_configs(
            translator_tbn, StableOptions(all=True, budget=Budget(max_time=60))
        )
        assert result.optimum == 6
        assert result.complete
        assert len(result.solutions) == 2
        for pc in result.solutions:
            assert pc.n_polymers == 6
            assert all(p.size == 2 for p in pc.polymers)
        # the first level, the ceiling of the root LP, is empty
        assert result.stats.route == "basis"

    def test_zero_time_budget_reports_no_value(self, translator_tbn):
        result = stable_configs(
            translator_tbn,
            StableOptions(all=True, budget=Budget(max_time=0)),
        )
        assert not result.complete
        assert result.optimum is None
        assert result.solutions == []

    def test_budget_exhaustion_reports_no_value(self, translator_tbn):
        result = stable_configs(
            translator_tbn,
            StableOptions(all=True, budget=Budget(max_nodes=50)),
        )
        assert not result.complete
        assert result.optimum is None
        assert result.solutions == []
        # the root node, the 49 nodes left to the level searches, and
        # the one that found the budget spent
        assert result.stats.nodes == 51


class TestRoutes:
    @pytest.mark.parametrize("want_all", [False, True])
    def test_gridgate_caption_route(self, want_all):
        # its root LP is (2n - 1)/2, and the first level, n, holds every
        # stable configuration; the probe finds a witness there, but not
        # every configuration
        t = gen_gridgate(3, 2, caption_literal=True)
        result = stable_configs(t, StableOptions(all=want_all))
        assert result.optimum == 3
        assert len(result.solutions) == (2 if want_all else 1)
        if want_all:
            assert result.stats.route == "basis"
        else:
            # the root and the level's first two nodes: the basis route
            # never starts
            assert result.stats.route == "direct"
            assert result.stats.nodes == 3

    def test_infinite_count_takes_the_basis_route(self):
        t = parse_tbn("b* b*, 1\nb, inf\na*, 1\na b, 2")
        bound = default_bound(t)
        model = build(t, bound)
        symmetric = build(t, bound, symmetry_breaking=True).program
        assert _probe(model.program, Clock(), True, lambda: symmetric) is None
        result = stable_configs(t, StableOptions(all=True))
        assert result.stats.route == "basis"
        want = brute_force_stable(t)
        assert result.optimum == want.optimum == 3
        assert len(result.solutions) == 4
        assert polymer_sets(result) == polymer_sets(want)

    @pytest.mark.parametrize("want_all", [False, True])
    def test_slot_model_past_the_variable_budget_takes_the_basis_route(
        self, want_all
    ):
        # 210,000 slot-model variables: ``build`` refuses the model before
        # it allocates any, so the probe cannot answer
        t = parse_tbn("a*, 70000\na, 70000")
        with pytest.raises(ModelError):
            build(t, default_bound(t))
        result = stable_configs(t, StableOptions(all=want_all))
        assert result.optimum == 70_000
        assert result.stats.route == "basis"
        [pc] = result.solutions
        assert [p.counts for p in pc.polymers] == [(1, 1)] * 70_000

    def test_plain_gridgate_answers_at_the_root(self):
        # an integral root LP answers a witness before the basis route starts
        result = stable_configs(gen_gridgate(7, 2))
        assert result.optimum == 7
        assert result.stats.nodes == 1
        assert result.stats.route == "direct"

    @pytest.mark.parametrize("want_all", [False, True])
    def test_basis_side_answers_past_a_long_first_level(self, want_all):
        # the first slot level takes over 29,000 nodes to come back empty
        t = parse_tbn(
            "a a* a, 1\nb b*, 3\na* b b, 1\na*, 1\na* b*, 3\na b, inf"
        )
        via = stable_via_basis(t)
        result = stable_configs(t, StableOptions(all=want_all))
        assert result.stats.route == "basis"
        # the probe's nodes, then at most the basis route's nodes for --all
        assert result.stats.nodes <= 1 + PROBE_NODES + via.stats.nodes
        assert result.optimum == via.optimum == 5
        if want_all:
            assert polymer_sets(result) == polymer_sets(via)
        else:
            assert polymer_sets(result) <= polymer_sets(via)

    @pytest.mark.parametrize("want_all", [False, True])
    def test_mid_size_network_answers_under_a_node_budget(self, want_all):
        # 27 monomers: the first slot level alone outlasts this budget
        budget = Budget(max_nodes=2_000, max_time=float("inf"))
        result = stable_configs(
            mid_size_tbn(2), StableOptions(all=want_all, budget=budget)
        )
        assert result.complete
        assert result.optimum == 8
        assert result.stats.route == "basis"
        assert len(result.solutions) == (22 if want_all else 1)

    def test_mid_size_all_fits_the_basis_route_budget(self):
        # 22 monomers: after the probe's three nodes the basis route
        # answers in 5,164 more; the slot scan's first level is empty
        # after 98 nodes, but its second, the optimum, needs more than
        # the rest of this budget
        budget = Budget(max_nodes=15_000, max_time=float("inf"))
        result = stable_configs(
            mid_size_tbn(8), StableOptions(all=True, budget=budget)
        )
        assert result.complete
        assert result.optimum == 10
        assert len(result.solutions) == 1_812
        assert result.stats.route == "basis"

    def test_probe_restores_the_callers_budget(self):
        # the cap lowers the clock's own node limit only for the probe
        budget = Budget(max_nodes=1_000)
        t = parse_tbn(translator_text(5))
        bound = default_bound(t)
        clock = Clock(budget)
        symmetric = build(t, bound, symmetry_breaking=True).program
        # capped: the root and two level nodes; the third is uncounted
        assert _probe(
            build(t, bound).program, clock, True, lambda: symmetric
        ) is None
        assert clock.budget is budget and clock.nodes == 1 + PROBE_NODES
        # answered at the root
        grid = gen_gridgate(7, 2)
        clock = Clock(budget)
        program = build(grid, default_bound(grid)).program
        optimum, _ = _probe(program, clock, False, lambda: program)
        assert optimum == 7
        assert clock.budget is budget and clock.nodes == 1
        # out of time in the root LP
        clock = LateClock()
        late = clock.budget
        with pytest.raises(BudgetExhausted):
            _probe(program, clock, False, lambda: program)
        assert clock.budget is late and clock.nodes == 1
        # out of nodes below the cap: the caller's own limit
        clock = Clock(Budget(max_nodes=2))
        with pytest.raises(BudgetExhausted):
            _probe(build(t, bound).program, clock, True, lambda: symmetric)
        assert clock.budget == Budget(max_nodes=2) and clock.nodes == 3

    def test_budgets_short_of_the_answer_report_no_value(self):
        t = parse_tbn(translator_text(5))
        count = stable_configs(t, StableOptions(all=True)).stats.nodes
        assert count == 141
        # the probe expands its root and two level nodes, then the basis
        # route answers alone
        assert count == 1 + PROBE_NODES + stable_via_basis(t).stats.nodes
        # a budget of at most three nodes runs out in the probe, when it
        # asks for its next node; a larger one in the basis route
        routes = {1: "direct", 2: "direct", 3: "direct", 4: "basis",
                  5: "basis", 50: "basis", count - 1: "basis"}
        for max_nodes, route in routes.items():
            result = stable_configs(
                t, StableOptions(all=True, budget=Budget(max_nodes=max_nodes))
            )
            assert not result.complete
            assert result.optimum is None
            assert result.solutions == []
            # the node that found the budget spent counts too
            assert result.stats.nodes == max_nodes + 1
            assert result.stats.route == route
        result = stable_configs(
            t, StableOptions(all=True, budget=Budget(max_nodes=count))
        )
        assert result.complete
        assert result.optimum == 5
        assert len(result.solutions) == 2
        assert result.stats.nodes == count


def mid_size_tbn(seed: int) -> Tbn:
    """A mid-size random network: 4-6 site names, 8-12 monomer types of
    1-4 sites, 1-4 copies each."""
    rng = random.Random(seed)
    names = "abcdef"[: rng.randint(4, 6)]
    lines = []
    for _ in range(rng.randint(8, 12)):
        sites = [
            rng.choice(names) + rng.choice(["", "*"])
            for _ in range(rng.randint(1, 4))
        ]
        lines.append(" ".join(sites) + f", {rng.randint(1, 4)}")
    return parse_tbn("\n".join(lines))


class TestMidSizeSeedOne:
    """35 monomers: within reach because the root LP's reduced costs
    narrow each level's search; the unnarrowed search runs out of a 10 s
    budget in both modes."""

    @pytest.mark.parametrize("want_all", [False, True])
    def test_every_stable_configuration(self, want_all):
        t = mid_size_tbn(1)
        result = stable_configs(
            t, StableOptions(all=want_all, budget=Budget(max_time=60))
        )
        assert result.complete
        assert result.optimum == 20
        assert len(result.solutions) == (430 if want_all else 1)
        for pc in result.solutions:
            assert merge_count(pc) == 20
            assert all(is_self_saturated(p, t) for p in pc.polymers)
            left = leftover(pc.polymers, t)
            assert all(left[i] == 0 for i in t.limiting_indices)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_translator_cover_scan_nodes(self, k):
        # the scan's root and three level-search nodes; 64, 152, 258 and
        # 588 nodes from k = 5 to 8 without the reduced-cost box
        t = parse_tbn(translator_text(k))
        result = stable_via_basis(t, polymer_basis(t))
        assert (result.optimum, len(result.solutions)) == (k, 2)
        assert result.stats.nodes == 4


class TestRootLpTimeLimit:
    def test_scan_stops_inside_the_root_lp(self, grid_tbn):
        # the root LP is integral, so a witness needs no level search:
        # only the simplex's own time check can end this scan early
        program = build(grid_tbn, default_bound(grid_tbn)).program
        assert scan_levels(program, Clock())[0] == 2
        clock = LateClock()
        with pytest.raises(BudgetExhausted):
            scan_levels(program, clock)
        # the time check spends no node: the root is the only one
        assert clock.nodes == 1

    def test_stable_configs_reports_no_value(self, translator_tbn):
        clock = LateClock()
        result = stable_configs(
            translator_tbn, StableOptions(all=True, budget=clock)
        )
        assert not result.complete
        assert result.optimum is None
        assert result.solutions == []
        # the probe's root LP ends the call before the basis route starts
        assert result.stats.route == "direct"
        assert clock.nodes == 1

    def test_stable_via_basis_reports_no_value(self, translator_tbn):
        # with the basis given, the cover IP's root LP is the first
        # place the clock is read after its root node
        basis = polymer_basis(translator_tbn)
        result = stable_via_basis(translator_tbn, basis, LateClock())
        assert not result.complete
        assert result.optimum is None
        assert result.solutions == []
        assert result.stats.route == "basis"
        assert result.stats.nodes == 1

    def test_solve_min_reports_no_value(self, intro_tbn):
        program = build(intro_tbn, 1).program
        result = solve_min(program, LateClock())
        assert result.status == BUDGET_EXCEEDED
        assert result.objective is None and result.assignment is None


def with_min_polymers(model, count: int) -> IntegerProgram:
    """The model's program plus a row asking for at least ``count``
    nonempty slots."""
    slots = range(1, model.bound + 1)
    row = Constraint(
        tuple((exists_var(j), 1) for j in slots), GE, count, "min_polymers"
    )
    program = model.program
    return IntegerProgram(
        program.variables, program.constraints + (row,), program.objective
    )


class TestSolveMin:
    def test_infeasible_program(self, intro_tbn):
        # more nonempty slots demanded than limiting monomers exist
        program = with_min_polymers(build(intro_tbn, 2), 2)
        assert solve_min(program).status == INFEASIBLE

    def test_budget_exceeded_reported(self, translator_tbn):
        model = build(translator_tbn, default_bound(translator_tbn))
        result = solve_min(model.program, Budget(max_nodes=5))
        assert result.status == BUDGET_EXCEEDED
        assert result.stats.nodes <= 6

    def test_assignment_satisfies_program(self, intro_tbn):
        model = build(intro_tbn, 1)
        result = solve_min(model.program)
        assert result.status == OPTIMAL
        model.program.check(result.assignment)
        assert model.program.objective.evaluate(result.assignment) == 1

    def test_exhausted_budget_reports_no_incumbent(self, translator_tbn):
        model = build(translator_tbn, default_bound(translator_tbn))
        result = solve_min(model.program, Budget(max_nodes=50))
        assert result.status == BUDGET_EXCEEDED
        assert result.objective is None
        assert result.assignment is None

    def test_optimum_at_the_top_of_the_objective_range(self):
        # root LP x = y = 1/4: the scan tries x + y = 1, then finds the
        # optimum at 2, the largest value the box allows
        program = IntegerProgram(
            (Variable("x", 0, 1), Variable("y", 0, 1)),
            (
                Constraint((("x", 1), ("y", -1)), EQ, 0, "same"),
                Constraint((("x", 2), ("y", 2)), GE, 1, "half"),
            ),
            Objective((("x", 1), ("y", 1))),
        )
        result = solve_min(program)
        assert (result.status, result.objective) == (OPTIMAL, 2)
        assert result.assignment == {"x": 1, "y": 1}
        assert result.stats.nodes > 1

    def test_violated_row_without_coefficients_is_infeasible(self):
        program = IntegerProgram(
            (Variable("x", 0, 2),),
            (Constraint((("x", 0),), GE, 1, "never"),),
            Objective((("x", -1),)),
        )
        assert solve_min(program).status == INFEASIBLE


def random_program(rng: random.Random) -> IntegerProgram:
    """A small bounded IP over every variable in every row; coefficients
    above 1 give fractional root LP optima."""
    variables = []
    for k in range(rng.randint(2, 4)):
        lower = rng.randint(-2, 1)
        variables.append(Variable(f"x{k}", lower, lower + rng.randint(1, 4)))
    names = [v.name for v in variables]
    constraints = []
    for r in range(rng.randint(1, 3)):
        coeffs = tuple((name, rng.randint(-3, 3)) for name in names)
        sense = rng.choice([LE, LE, GE, GE, EQ])
        constraints.append(
            Constraint(coeffs, sense, rng.randint(-4, 6), f"r{r}")
        )
    # a drawn "max" objective is minimized as its negation; the constant
    # drawn last shifts no optimum and is dropped, but still drawn so
    # that the seed's programs stay the same
    sign = rng.choice([1, -1])
    coeffs = tuple((name, sign * rng.randint(-3, 3)) for name in names)
    rng.randint(-5, 5)
    return IntegerProgram(
        tuple(variables), tuple(constraints), Objective(coeffs)
    )


def exhaustive_optimum(program: IntegerProgram):
    """Least objective value over the whole variable box, or None."""
    names = [v.name for v in program.variables]
    boxes = [range(v.lower, v.upper + 1) for v in program.variables]
    values = []
    for point in itertools.product(*boxes):
        assignment = dict(zip(names, point))
        try:
            program.check(assignment)
        except TbnValidationError:
            continue
        values.append(program.objective.evaluate(assignment))
    return min(values, default=None)


class TestSolveMinAgainstExhaustiveSearch:
    def test_random_programs(self):
        rng = random.Random(20261018)
        past_root = infeasible = 0
        for _ in range(300):
            program = random_program(rng)
            want = exhaustive_optimum(program)
            got = solve_min(program)
            if want is None:
                assert got.status == INFEASIBLE, program
                infeasible += 1
                continue
            assert got.status == OPTIMAL, program
            assert got.objective == want, program
            program.check(got.assignment)
            assert program.objective.evaluate(got.assignment) == want
            past_root += got.stats.nodes > 1
        # the seed reaches both the level scan and infeasible programs
        assert past_root >= 10
        assert infeasible >= 10


class TestPropagation:
    def test_equality_fixes_variable(self, intro_tbn):
        model = build(intro_tbn, 1)
        comp = _Compiled(model.program)
        lo, hi = list(comp.lo), list(comp.hi)
        assert propagate(comp, lo, hi)
        # conservation forces the single limiting monomer into slot 1
        i = comp.index["C_m0_p1"]
        assert (lo[i], hi[i]) == (1, 1)

    # (symmetry_breaking, frozen merge count): the root and a level model
    @pytest.mark.parametrize("options", [(False, None), (True, 6)])
    def test_from_changed_rows_reaches_full_fixpoint(
        self, translator_tbn, options
    ):
        symmetry_breaking, value = options
        program = build(translator_tbn, 6, symmetry_breaking).program
        if value is not None:
            program = program.fixed(value)
        comp = _Compiled(program)
        lo, hi = list(comp.lo), list(comp.hi)
        assert propagate(comp, lo, hi)
        fixes = 0
        for i in range(len(lo)):
            for value in range(lo[i], hi[i] + 1):
                part_lo, part_hi = list(lo), list(hi)
                part_lo[i] = part_hi[i] = value
                full_lo, full_hi = list(part_lo), list(part_hi)
                part_ok = propagate(comp, part_lo, part_hi, changed=i)
                assert part_ok == propagate(comp, full_lo, full_hi)
                if part_ok:
                    assert (part_lo, part_hi) == (full_lo, full_hi)
                fixes += 1
        assert fixes > len(lo)

    def test_detects_empty_domain(self, intro_tbn):
        comp = _Compiled(with_min_polymers(build(intro_tbn, 2), 2))
        assert not propagate(comp, list(comp.lo), list(comp.hi))

    def test_repeated_variable_terms_are_summed(self):
        program = IntegerProgram(
            (Variable("x", 0, 1),),
            (Constraint((("x", 1), ("x", 1)), LE, 1, "twice"),),
        )
        comp = _Compiled(program)
        lo, hi = list(comp.lo), list(comp.hi)
        assert propagate(comp, lo, hi)
        assert (lo, hi) == ([0], [0])

    @pytest.mark.parametrize("sense, feasible", [(LE, True), (GE, False)])
    def test_terms_summing_to_zero_leave_an_empty_row(self, sense, feasible):
        program = IntegerProgram(
            (Variable("x", 0, 1),),
            (Constraint((("x", 2), ("x", -2)), sense, 1, "cancels"),),
        )
        comp = _Compiled(program)
        # 0 <= 1 holds and the row is dropped; 0 >= 1 never holds
        assert comp.rows == ([] if feasible else [((), GE, 1)])
        assert propagate(comp, list(comp.lo), list(comp.hi)) == feasible


def random_propagation_program(rng: random.Random) -> IntegerProgram:
    """A small bounded program whose rows may repeat a variable or cancel
    it.  Each right-hand side is a row's value at a random point of the
    box, or one more, so some boxes hold no solution."""
    variables = []
    for k in range(rng.randint(3, 6)):
        lower = rng.randint(-3, 2)
        variables.append(Variable(f"x{k}", lower, lower + rng.randint(0, 4)))
    point = {v.name: rng.randint(v.lower, v.upper) for v in variables}
    constraints = []
    for r in range(rng.randint(2, 4)):
        coeffs = tuple(
            (rng.choice(list(point)), rng.randint(-3, 3))
            for _ in range(rng.randint(2, 4))
        )
        rhs = sum(c * point[v] for v, c in coeffs) + rng.randint(0, 1)
        constraints.append(
            Constraint(coeffs, rng.choice([LE, GE, EQ]), rhs, f"r{r}")
        )
    return IntegerProgram(tuple(variables), tuple(constraints))


def plain_fixpoint(program: IntegerProgram, lo, hi):
    """The propagation fixpoint of ``program`` from the box lo..hi, or None
    once a domain empties: every variable of every row is bounded by the
    least activity of the rest of the row, recomputed from scratch, until
    no bound moves."""
    index = {v.name: k for k, v in enumerate(program.variables)}
    rows = []  # each side of each row as sum(a[j] * x[j]) <= b
    for con in program.constraints:
        a = {}
        for name, c in con.coeffs:
            a[index[name]] = a.get(index[name], 0) + c
        if con.sense in (LE, EQ):
            rows.append((a, con.rhs))
        if con.sense in (GE, EQ):
            rows.append(({j: -c for j, c in a.items()}, -con.rhs))
    lo, hi = list(lo), list(hi)
    moved = True
    while moved:
        moved = False
        for a, b in rows:
            if all(c == 0 for c in a.values()) and b < 0:
                return None
            for j, c in a.items():
                if c == 0:
                    continue
                rest = sum(
                    min(d * lo[l], d * hi[l]) for l, d in a.items() if l != j
                )
                if c > 0:
                    bound = (b - rest) // c
                    if bound < hi[j]:
                        hi[j], moved = bound, True
                else:
                    bound = -((b - rest) // -c)  # ceil((b - rest) / c)
                    if bound > lo[j]:
                        lo[j], moved = bound, True
                if lo[j] > hi[j]:
                    return None
    return lo, hi


class TestPropagationAgainstPlainFixpoint:
    """``propagate`` from the root box, and from one variable fixed at a
    fixpoint with and without carried activities, against
    ``plain_fixpoint``."""

    def check(self, comp, program, lo, hi, changed=None, act=None):
        want = plain_fixpoint(program, lo, hi)
        ok = propagate(comp, lo, hi, changed, act)
        assert ok == (want is not None), program
        if ok:
            assert (lo, hi) == want, program
        if act is not None:
            assert act == comp.activities(lo, hi), program
        return ok

    def fix(self, comp, program, node, i, value):
        """The child of the fixpoint ``node`` with variable ``i`` fixed to
        ``value``, propagated both ways; None when it is infeasible."""
        lo, hi, act = (list(x) for x in node)
        comp.shift(act, i, value - lo[i], value - hi[i])
        lo[i] = hi[i] = value
        bare_lo, bare_hi = list(lo), list(hi)
        bare_ok = self.check(comp, program, bare_lo, bare_hi, i)
        ok = self.check(comp, program, lo, hi, i, act)
        assert ok == bare_ok
        return (lo, hi, act) if ok else None

    def test_random_programs(self):
        rng = random.Random(1018)
        seen = {"root": [0, 0], "fixed": [0, 0]}  # [feasible, infeasible]
        for _ in range(400):
            program = random_propagation_program(rng)
            comp = _Compiled(program)
            lo, hi = list(comp.lo), list(comp.hi)
            act = comp.activities(lo, hi)
            ok = self.check(comp, program, lo, hi, None, act)
            seen["root"][not ok] += 1
            node = (lo, hi, act) if ok else None
            # every single fix of a free variable, then down one feasible
            # child, as the search goes
            while node is not None:
                children = [
                    self.fix(comp, program, node, i, value)
                    for i in range(len(node[0]))
                    if node[0][i] < node[1][i]
                    for value in range(node[0][i], node[1][i] + 1)
                ]
                for child in children:
                    seen["fixed"][child is None] += 1
                feasible = [child for child in children if child is not None]
                node = rng.choice(feasible) if feasible else None
        assert min(seen["root"] + seen["fixed"]) >= 30, seen


class TestEnumeration:
    def test_deterministic_order(self, intro_tbn):
        program = build(intro_tbn, 1, symmetry_breaking=True).program.fixed(1)
        first = enumerate_assignments(program)
        second = enumerate_assignments(program)
        assert first == second

    def test_budget_raises(self, translator_tbn):
        program = build(translator_tbn, 6, symmetry_breaking=True).program
        clock = Clock(Budget(max_nodes=10))
        with pytest.raises(BudgetExhausted):
            enumerate_assignments(program.fixed(6), clock)
        assert clock.nodes == 11


class TestDefaultBound:
    def test_more_slots_same_optimum(self, intro_tbn, excess_tbn, grid_tbn):
        # every stable configuration fits in the limiting-monomer count
        # of slots, so extra slots cannot lower the merge count
        for t in (intro_tbn, excess_tbn, grid_tbn):
            wide = build(t, default_bound(t) + 2).program
            assert solve_min(wide).objective == stable_configs(t).optimum


class TestExternalSolutionImport:
    def test_valid_assignment_roundtrip(self, intro_tbn):
        model = build(intro_tbn, 1)
        assignment = solve_min(model.program).assignment
        assert model.program.objective.evaluate(assignment) == 1
        assert merge_count(model.decode(assignment)) == 1

    def test_invalid_assignment_rejected(self, intro_tbn):
        model = build(intro_tbn, 1)
        bogus = {v.name: 0 for v in model.program.variables}
        with pytest.raises(TbnError):
            model.decode(bogus)


class TestBruteForceOracle:
    def test_intro(self, intro_tbn):
        result = brute_force_stable(intro_tbn)
        assert result.optimum == 1
        assert polymer_sets(result) == {((1, 0, 1, 0),)}

    def test_excess_with_cap(self, excess_tbn):
        result = brute_force_stable(excess_tbn, cap=3)
        assert result.optimum == 2
        assert polymer_sets(result) == {((1, 1), (1, 1))}

    def test_grid(self, grid_tbn):
        result = brute_force_stable(grid_tbn)
        assert result.optimum == 2
        assert len(result.solutions) == 2

    def test_size_guard(self):
        t = parse_tbn("p: a\nq: a*, 1")
        big = Tbn(t.monomer_types, (20, 1))
        with pytest.raises(BruteForceError):
            brute_force_stable(big)


def random_tbn(rng: random.Random, excess: bool = False) -> Tbn:
    """A small random network; with ``excess``, each line without a star
    gets an infinite count with probability 1/2."""
    names = ["a", "b", "c"][: rng.randint(2, 3)]
    lines = []
    budget = rng.randint(3, 8)  # total monomer instances
    while budget > 0:
        k = rng.randint(1, 3)
        sites = [
            rng.choice(names) + rng.choice(["", "*"]) for _ in range(k)
        ]
        count = rng.randint(1, min(2, budget))
        budget -= count
        if excess and not any("*" in s for s in sites) and rng.random() < 0.5:
            count = "inf"
        lines.append(" ".join(sites) + f", {count}")
    return parse_tbn("\n".join(lines))


class TestOracleEquivalence:
    # of the 60 networks, 39 take the basis route in --all mode and 27 in
    # witness mode, so the oracle checks both routes
    def test_random_networks_match_oracle(self):
        rng = random.Random(20240902)
        routes = Counter()
        for _ in range(60):
            t = random_tbn(rng)
            got = stable_configs(t, StableOptions(all=True))
            want = brute_force_stable(t)
            assert got.complete
            assert got.optimum == want.optimum, t
            assert polymer_sets(got) == polymer_sets(want), t
            routes[got.stats.route] += 1
        assert routes["direct"] >= 15 and routes["basis"] >= 35

    def test_witness_is_an_oracle_configuration(self):
        rng = random.Random(20240902)
        routes = Counter()
        for _ in range(60):
            t = random_tbn(rng)
            got = stable_configs(t)
            want = brute_force_stable(t)
            assert got.complete
            assert got.optimum == want.optimum, t
            assert len(got.solutions) == 1
            assert polymer_sets(got) <= polymer_sets(want), t
            routes[got.stats.route] += 1
        assert routes["direct"] >= 30 and routes["basis"] >= 20

    def test_full_slot_scan_matches_oracle(self):
        # the slot model's every level, whichever route answers above
        rng = random.Random(20240902)
        for _ in range(60):
            t = random_tbn(rng)
            want = brute_force_stable(t)
            assert full_scan(t) == (want.optimum, polymer_sets(want)), t


def full_scan(t: Tbn) -> Tuple:
    """Optimum and polymer sets of the slot model's scan of every level,
    which needs neither the probe's cap nor the basis route."""
    bound = default_bound(t)
    if bound == 0:
        return 0, {()}
    model = build(t, bound)
    optimum, found = scan_levels(
        model.program, Clock(), True,
        lambda: build(t, bound, symmetry_breaking=True).program,
    )
    assert optimum is not None
    return optimum, {
        tuple(p.counts for p in model.decode(a).polymers) for a in found
    }


class TestInfiniteCounts:
    # of the 40 networks, 21 have an infinite count, and 17 of those
    # take the basis route
    def test_random_networks_match_the_full_scan(self):
        rng = random.Random(20261018)
        routes = Counter()
        for _ in range(40):
            t = random_tbn(rng, excess=True)
            optimum, want = full_scan(t)
            got = stable_configs(t, StableOptions(all=True))
            witness = stable_configs(t)
            via = stable_via_basis(t)
            for result in (got, witness, via):
                assert result.complete
                assert result.optimum == optimum, t
            assert polymer_sets(got) == polymer_sets(via) == want, t
            assert len(witness.solutions) == 1
            assert polymer_sets(witness) <= want, t
            if not t.is_finite:
                routes[got.stats.route] += 1
        assert routes["direct"] >= 3 and routes["basis"] >= 15


def cover_program(t: Tbn) -> IntegerProgram:
    """The basis route's cover IP of ``t``, over its full basis: the
    elements past the counts get no variable."""
    program, used = _basis_cover_program(t, polymer_basis(t))
    assert [v.upper for v in program.variables] == [
        min(c // n for c, n in zip(t.counts, b.counts) if n and c is not INF)
        for b in used
    ]
    assert all(v.upper >= 1 for v in program.variables)
    return program


class TestReducedCostBox:
    """Every solution of a level lies in the box that the root LP's
    reduced costs give that level, so the scan's search from the box
    finds the same solutions, in the same order."""

    def check(
        self, program: IntegerProgram, levels: IntegerProgram
    ) -> Tuple[int, int]:
        """Solutions checked on the levels of ``levels``, whose variables
        start with ``program``'s, from the root LP's ceiling and two
        above it, and the levels with a solution whose box narrows some
        variable."""
        comp = _Compiled(program)
        # as in the scan: the root's own program, or ``levels`` apart
        level = comp if levels is program else _Compiled(levels)
        n = len(comp.names)
        assert level.names[:n] == comp.names
        lo, hi = list(comp.lo), list(comp.hi)
        if not propagate(comp, lo, hi):
            return 0, 0
        relax = solve_lp(comp.objective, list(comp.rows), list(zip(lo, hi)))
        if relax.status != "optimal":
            return 0, 0
        rows = len(level.rows)
        level.add_row(tuple((i, c) for i, c in level.objective if c), EQ, 0)
        assert len(level.rows) == rows + 1
        # at the optimum, a positive reduced cost sits at its lower
        # bound and a negative one at its upper bound
        for i, r in enumerate(relax.reduced):
            if r > 0:
                assert relax.x[i] == lo[i], program
            elif r < 0:
                assert relax.x[i] == hi[i], program
        reduced = [(i, r) for i, r in enumerate(relax.reduced) if r]
        checked = narrowed = 0
        first = frac_ceil(relax.objective)
        for value in range(first, first + 3):
            gap = value - relax.objective
            box_lo, box_hi = _reduced_cost_box(lo, hi, reduced, gap)
            found = enumerate_assignments(levels.fixed(value))
            for assignment in found:
                for i, name in enumerate(comp.names):
                    assert box_lo[i] <= assignment[name] <= box_hi[i], program
            level.rows[-1] = (level.rows[-1][0], EQ, value)
            assert _search(level, box_lo, box_hi, Clock(), None) == found
            checked += len(found)
            narrowed += bool(found) and (
                box_lo != comp.lo or box_hi != comp.hi
            )
        return checked, narrowed

    def test_cover_programs(self):
        rng = random.Random(20261019)
        checked = narrowed = infinite = 0
        for _ in range(250):
            t = random_tbn(rng, excess=True)
            if not t.limiting_indices:
                continue
            program = cover_program(t)
            found, cut = self.check(program, program)
            checked += found
            narrowed += cut
            infinite += not t.is_finite
        # 224 programs, 100 with an infinite count: 617 solutions, and 19
        # levels with a solution where the box cuts
        assert infinite >= 90
        assert checked >= 550 and narrowed >= 15

    def test_symmetry_broken_slot_levels(self):
        rng = random.Random(20261019)
        checked = narrowed = 0
        for _ in range(100):
            t = random_tbn(rng)
            bound = default_bound(t)
            if bound == 0:
                continue
            symmetric = build(t, bound, symmetry_breaking=True).program
            found, cut = self.check(build(t, bound).program, symmetric)
            checked += found
            narrowed += cut
        # 87 programs: 897 solutions, and 65 levels with a solution where
        # the box cuts
        assert checked >= 800 and narrowed >= 55

    def test_general_programs(self):
        # objectives drawn in both senses, negative bounds, variables at
        # either bound
        rng = random.Random(20261019)
        checked = narrowed = 0
        for _ in range(300):
            program = random_program(rng)
            found, cut = self.check(program, program)
            checked += found
            narrowed += cut
        # 629 solutions, and 308 levels with a solution where the box cuts
        assert checked >= 550 and narrowed >= 250


class TestLevelProgram:
    """The scan compiles its level program once, with the objective as
    the last row, and each level only sets that row's right-hand side."""

    def test_each_level_is_the_fixed_program(self, monkeypatch):
        rng = random.Random(20261021)
        search = solver._search
        long_scans = 0
        for _ in range(300):
            program = random_program(rng)
            levels = {}

            def recording(comp, lo, hi, clock, max_solutions):
                found = search(comp, lo, hi, clock, max_solutions)
                levels[comp.rows[-1][2]] = found
                return found

            with monkeypatch.context() as patch:
                patch.setattr(solver, "_search", recording)
                optimum, found = scan_levels(program, Clock(), True)
            # consecutive levels, upwards
            values = list(levels)
            assert all(b == a + 1 for a, b in zip(values, values[1:]))
            for value, level_found in levels.items():
                assert level_found == enumerate_assignments(
                    program.fixed(value)
                )
            if optimum is not None:
                assert found == levels[optimum] != []
                long_scans += len(levels) >= 3
        # 8 scans over 3 to 8 levels end at an optimum
        assert long_scans >= 6

    def test_an_objective_that_cancels_keeps_its_level_row(
        self, monkeypatch
    ):
        # x - x compiles to no terms; the level row is appended all the
        # same, so setting its right-hand side moves no real row
        program = IntegerProgram(
            (Variable("x", 0, 2), Variable("y", 0, 2)),
            (Constraint((("x", 1), ("y", 1)), GE, 3, "r"),),
            Objective((("x", 1), ("x", -1))),
        )
        rows = _Compiled(program).rows
        searched = []
        search = solver._search

        def recording(comp, lo, hi, clock, max_solutions):
            searched.append(list(comp.rows))
            return search(comp, lo, hi, clock, max_solutions)

        found = enumerate_assignments(program.fixed(0))
        assert len(found) == 3
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_search", recording)
            assert scan_levels(program, Clock(), True) == (0, found)
        assert searched == [rows + [((), EQ, 0)]]
        level = _Compiled(program)
        level.add_row((), EQ, 1)
        assert level.rows == rows + [((), EQ, 1)]
        # no point reaches a level other than 0
        assert not propagate(level, list(level.lo), list(level.hi))

    def test_a_cover_scan_compiles_its_program_once(self, monkeypatch):
        # the level row joins the root's compiled program
        compiled = []

        class Counting(_Compiled):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                compiled.append(self)

        monkeypatch.setattr(solver, "_Compiled", Counting)
        t = parse_tbn(translator_text(5))
        result = stable_via_basis(t, polymer_basis(t))
        assert (result.optimum, len(result.solutions)) == (5, 2)
        # the root and three level-search nodes
        assert result.stats.nodes == 4
        assert len(compiled) == 1
