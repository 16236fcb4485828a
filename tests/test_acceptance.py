"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS line when it holds; any assertion failure marks the criterion FAIL
through the usual pytest report.  Run with ``pytest -v`` to see one line
per criterion.
"""

import random
import time
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from conftest import (
    EXCESS_TBN_TEXT,
    GRID_TBN_TEXT,
    INTRO_TBN_TEXT,
    TRANSLATOR_TBN_TEXT,
)
from tbntools.cli import gen_gridgate
from tbntools.core import parse_tbn
from tbntools.hilbert import (
    brute_force_hilbert,
    hilbert_basis,
    polymer_basis,
)
from tbntools.ipmodel import build, count_var, exists_var
from tbntools.lpformat import parse_lp, parse_solution, write_lp, write_solution
from tbntools.pathways import find_pathway, full_configuration
from tbntools.solver import (
    Budget,
    StableOptions,
    brute_force_stable,
    stable_configs,
)


def ok(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def solution_keys(result):
    return {tuple(p.counts for p in pc.polymers) for pc in result.solutions}


def test_criterion_01_intro_network_single_stable_config():
    t = parse_tbn(INTRO_TBN_TEXT)
    started = time.monotonic()
    result = stable_configs(t, StableOptions(all=True))
    elapsed = time.monotonic() - started
    assert result.optimum == 1
    assert len(result.solutions) == 1
    pc = result.solutions[0]
    assert [p.counts for p in pc.polymers] == [(1, 0, 1, 0)]
    assert elapsed < 1.0
    ok(1, "one stable configuration, merge count 1")


def test_criterion_02_infinite_excess_optimum_two():
    t = parse_tbn(EXCESS_TBN_TEXT)
    started = time.monotonic()
    result = stable_configs(t, StableOptions(all=True))
    elapsed = time.monotonic() - started
    assert result.optimum == 2
    assert solution_keys(result) == {((1, 1), (1, 1))}
    assert elapsed < 1.0
    ok(2, "optimum 2, unique solution 2x{a*,a}")


def test_criterion_03_three_copy_network():
    t = parse_tbn("x: a* b*, 3\ny: a b, inf\nz: a, inf\nw: b, inf")
    started = time.monotonic()
    result = stable_configs(t)
    assert result.optimum == 3

    # the printed textbook assignment is feasible but suboptimal (4 merges)
    model = build(t, 3)
    # order: x={a* b*}, z={a}, y={a b}, w={b}
    assignment = {v.name: 0 for v in model.program.variables}
    assignment[count_var(0, 1)] = 1
    assignment[count_var(2, 1)] = 1
    assignment[exists_var(1)] = 1
    assignment[count_var(0, 2)] = 1
    assignment[count_var(2, 2)] = 1
    assignment[exists_var(2)] = 1
    assignment[count_var(0, 3)] = 1
    assignment[count_var(1, 3)] = 1
    assignment[count_var(3, 3)] = 1
    assignment[exists_var(3)] = 1
    model.decode(assignment)  # validates the assignment
    value = model.program.objective.evaluate(assignment)
    assert value == 4
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok(3, "optimum 3; textbook assignment feasible at objective 4")


def test_criterion_04_grid_polymer_basis():
    t = parse_tbn(GRID_TBN_TEXT)
    started = time.monotonic()
    basis = polymer_basis(t)
    elapsed = time.monotonic() - started
    assert {p.counts for p in basis} == {
        (1, 1, 0, 0, 1),  # G + H1 + H2
        (1, 0, 1, 1, 0),  # G + V1 + V2
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    }
    assert elapsed < 1.0
    ok(4, "grid basis is exactly the 6 printed polymers")


def test_criterion_05_cone_hilbert_basis():
    started = time.monotonic()
    basis = hilbert_basis([[3, -1], [-1, 2]], 2)
    elapsed = time.monotonic() - started
    assert basis == [(1, 1), (1, 2), (1, 3), (2, 1)]
    assert elapsed < 1.0
    ok(5, "Hilbert basis of [[3,-1],[-1,2]] matches")


def test_criterion_06_translator_configs_and_basis():
    t = parse_tbn(TRANSLATOR_TBN_TEXT)
    started = time.monotonic()
    result = stable_configs(
        t, StableOptions(all=True, budget=Budget(max_time=60))
    )
    assert result.complete
    assert result.optimum == 6
    assert len(result.solutions) == 2
    assert all(pc.n_polymers == 6 for pc in result.solutions)
    basis = polymer_basis(t)
    assert len(basis) == 57
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    ok(6, "2 stable configurations of 6 polymers; 57 basis elements")


def test_criterion_07_translator_pathway():
    t = parse_tbn(TRANSLATOR_TBN_TEXT)
    started = time.monotonic()
    result = stable_configs(
        t, StableOptions(all=True, budget=Budget(max_time=60))
    )
    start, goal = [full_configuration(pc) for pc in result.solutions]
    pathway = find_pathway(start, goal, max_barrier=3)
    elapsed = time.monotonic() - started
    assert pathway is not None
    assert pathway.barrier() <= 3
    pathway.validate()
    assert pathway.configurations[0].key() == start.key()
    assert pathway.configurations[-1].key() == goal.key()
    assert elapsed < 60.0
    ok(7, f"replayable pathway with barrier {pathway.barrier()} <= 3")


def _random_tbn(rng: random.Random):
    names = "abcde"[: rng.randint(2, 5)]
    lines = []
    budget = rng.randint(2, 10)  # monomer instances
    while budget > 0:
        k = rng.randint(1, 3)
        sites = [
            rng.choice(names) + rng.choice(["", "*"]) for _ in range(k)
        ]
        count = rng.randint(1, min(3, budget))
        lines.append(" ".join(sites) + f", {count}")
        budget -= count
    return parse_tbn("\n".join(lines))


@pytest.fixture(scope="module")
def random_solution_sets():
    rng = random.Random(20240815)
    sets = []
    for _ in range(200):
        t = _random_tbn(rng)
        got = stable_configs(t, StableOptions(all=True))
        want = brute_force_stable(t)
        assert got.complete, t
        assert got.optimum == want.optimum, t
        assert solution_keys(got) == solution_keys(want), t
        sets.append(got)
    return sets


def test_criterion_08_oracle_equivalence(random_solution_sets):
    assert len(random_solution_sets) == 200
    # 127 of the 200 take the basis route: both routes are checked
    routes = Counter(result.stats.route for result in random_solution_sets)
    assert routes["direct"] >= 70 and routes["basis"] >= 120
    rng = random.Random(20240816)
    cap = 8
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(m)
        ]
        basis = hilbert_basis(rows, n)
        small = sorted(x for x in basis if sum(x) <= cap)
        assert small == brute_force_hilbert(rows, n, cap), rows
    ok(8, "200 TBN + 100 Hilbert oracle comparisons, zero mismatches")


def test_criterion_09_symmetry_and_canonical_order(random_solution_sets):
    for result in random_solution_sets:
        keys = [
            tuple(p.counts for p in pc.polymers)
            for pc in result.solutions
        ]
        # canonical order within each solution
        for key in keys:
            assert list(key) == sorted(key, reverse=True)
        # no two solutions are permutations of one another
        normalized = [tuple(sorted(key)) for key in keys]
        assert len(set(normalized)) == len(keys)
    ok(9, "no permutation duplicates; polymer lists canonically ordered")


def test_criterion_10_gridgate_benchmarks():
    budget = Budget(max_time=100)
    from tbntools.core import INF

    for n in (1, 2, 3):
        for fuel in (2, INF):
            t = gen_gridgate(n, fuel)
            started = time.monotonic()
            result = stable_configs(t, StableOptions(budget=budget))
            elapsed = time.monotonic() - started
            assert result.complete, (n, fuel)
            assert elapsed < 100.0, (n, fuel)
    n2 = gen_gridgate(2, 2)
    direct = stable_configs(n2, StableOptions(all=True))
    oracle = brute_force_stable(n2, cap=2)
    assert direct.optimum == oracle.optimum
    assert solution_keys(direct) == solution_keys(oracle)
    ok(10, "gridgate n in {1,2,3}, fuel 2 and inf, all optimal in time")


def test_criterion_11_lp_export_external_roundtrip(tmp_path):
    t = parse_tbn(INTRO_TBN_TEXT)
    model = build(t, 1)
    lp_file = tmp_path / "intro.lp"
    lp_file.write_text(write_lp(model.program))

    prog = parse_lp(lp_file.read_text())
    names = [v.name for v in prog.variables]
    index = {name: i for i, name in enumerate(names)}
    c = np.zeros(len(names))
    for var, coeff in prog.objective.coeffs:
        c[index[var]] += coeff
    rows, lb, ub = [], [], []
    for con in prog.constraints:
        dense = np.zeros(len(names))
        for var, coeff in con.coeffs:
            dense[index[var]] += coeff
        rows.append(dense)
        if con.sense == "<=":
            lb.append(-np.inf)
            ub.append(con.rhs)
        elif con.sense == ">=":
            lb.append(con.rhs)
            ub.append(np.inf)
        else:
            lb.append(con.rhs)
            ub.append(con.rhs)
    solved = milp(
        c,
        constraints=LinearConstraint(np.array(rows), lb, ub),
        bounds=Bounds(
            [v.lower for v in prog.variables],
            [v.upper for v in prog.variables],
        ),
        integrality=np.ones(len(names)),
    )
    assert solved.success

    sol_file = tmp_path / "intro.sol"
    sol_file.write_text(
        write_solution(
            {n: int(round(x)) for n, x in zip(names, solved.x)}
        )
    )
    assignment = parse_solution(sol_file.read_text())
    pc = model.decode(assignment)
    value = model.program.objective.evaluate(assignment)
    assert value == 1
    assert [p.counts for p in pc.polymers] == [(1, 0, 1, 0)]
    ok(11, "external MILP solution re-imported, objective 1")
