import gc
import random
from collections import Counter

import pytest

from tbntools.cli import gen_gridgate
from tbntools.core import (
    Polymer,
    TbnValidationError,
    is_self_saturated,
    parse_tbn,
)
from tbntools.hilbert import (
    BasisError,
    brute_force_hilbert,
    decompose,
    hilbert_basis,
    polymer_basis,
    render_basis_table,
    stable_via_basis,
)
from tbntools.pathways import splits
from tbntools.solver import (
    Budget,
    BudgetExhausted,
    Clock,
    StableOptions,
    brute_force_stable,
    stable_configs,
)

from conftest import TRANSLATOR_TBN_TEXT, translator_text


class TestMatrixRepresentation:
    def test_intro(self, intro_tbn):
        assert intro_tbn.site_names() == ["a", "b"]
        # columns follow the canonical monomer order: a*b*, a, ab, b
        assert intro_tbn.site_matrix == ((-1, 1, 1, 0), (-1, 0, 1, 1))


class TestHilbertBasis:
    def test_two_dimensional_cone(self):
        assert hilbert_basis([[3, -1], [-1, 2]], 2) == [
            (1, 1), (1, 2), (1, 3), (2, 1),
        ]

    def test_trivial_cone_is_unit_vectors(self):
        assert hilbert_basis([[1, 0], [0, 1]], 2) == [(0, 1), (1, 0)]

    def test_empty_system_needs_dimension(self):
        with pytest.raises(BasisError):
            hilbert_basis([])
        assert hilbert_basis([], 2) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("rows, n, upper", [
        ([[1, -1, 2]], 2, None),
        ([[1, -1]], 2, [1]),
        ([[1, -1]], 2, [1, None, 2]),
        ([[1, -1], [1, -1, 0]], None, None),
    ])
    def test_lengths_must_match_the_dimension(self, rows, n, upper):
        with pytest.raises(BasisError):
            hilbert_basis(rows, n, None, upper)

    @pytest.mark.parametrize("rows, upper", [
        ([[1, -1]], [-1, None]),
        ([], [-2, 1]),
    ])
    def test_negative_cap_is_an_error(self, rows, upper):
        # no point of N^n lies below a negative cap, so no answer is right
        with pytest.raises(BasisError, match="negative cap"):
            hilbert_basis(rows, 2, None, upper)

    def test_zero_cap_leaves_the_coordinate_out(self):
        assert hilbert_basis([[1, 0], [0, 1]], 2, None, [0, None]) == [
            (0, 1),
        ]
        # every element of this cone has a first coordinate
        assert hilbert_basis([[3, -1], [-1, 2]], 2, None, [0, None]) == []

    def test_budget_guard(self):
        with pytest.raises(BudgetExhausted):
            hilbert_basis(
                [[3, -1], [-1, 2]], 2, Budget(max_nodes=1)
            )

    @pytest.mark.parametrize(
        "rows, cap",
        [
            ([[1, -7]], 9),
            ([[2, -3], [-1, 2]], 8),
            ([[5, -2, -3]], 8),
            ([[7, -5], [-2, 3]], 12),
        ],
    )
    def test_large_coordinates_match_oracle(self, rows, cap):
        # coordinates well above 1 come from chains of pair sums, each
        # adding one more element to the last sum
        n = len(rows[0])
        basis = hilbert_basis(rows, n)
        assert max(max(x) for x in basis) >= 3
        assert basis == brute_force_hilbert(rows, n, cap)

    @pytest.mark.parametrize("bits", range(1, 6))
    @pytest.mark.parametrize("rows", [[[1, -7]], [[2, -3], [-1, 2]]])
    def test_tiny_budget_exact_or_raises(self, rows, bits):
        # a budget that runs out mid-completion raises; one that does
        # not gives the exact basis
        n = len(rows[0])
        exact = hilbert_basis(rows, n)
        try:
            basis = hilbert_basis(
                rows, n, Budget(max_nodes=2**bits - 1)
            )
        except BudgetExhausted:
            return
        assert basis == exact

    @pytest.mark.parametrize("e", range(2, 7))
    def test_budget_at_its_limit_reaches_large_coordinates(self, e):
        # the cone of [[1, -k]] takes exactly k nodes, the pair sums
        # (j, 1) for j = 1..k, and its basis reaches coordinate k
        k = 2**e - 3
        budget = Budget(max_nodes=k)
        assert hilbert_basis([[1, -k]], 2, budget) == [(1, 0), (k, 1)]
        with pytest.raises(BudgetExhausted):
            hilbert_basis([[1, -k]], 2, Budget(max_nodes=k - 1))


class TestPolymerBasis:
    def test_grid_has_six_elements(self, grid_tbn):
        basis = polymer_basis(grid_tbn)
        assert len(basis) == 6
        sets = {p.counts for p in basis}
        # the two saturated 3-polymers plus the four unstarred singletons
        assert (1, 1, 0, 0, 1) in sets
        assert (1, 0, 1, 1, 0) in sets
        assert all(is_self_saturated(p, grid_tbn) for p in basis)

    @pytest.mark.slow
    def test_translator_has_57_elements(self, translator_tbn):
        basis = polymer_basis(translator_tbn)
        assert len(basis) == 57
        assert all(is_self_saturated(p, translator_tbn) for p in basis)

    def test_translator_k8_full_basis(self):
        # 530 pair sums
        t = parse_tbn(translator_text(8))
        basis = polymer_basis(t)
        assert len(basis) == 104
        assert all(is_self_saturated(p, t) for p in basis)

    def test_gridgate_caption_n5_truncated_at_its_counts(self):
        # 25 site names against 11 types; 78 pair sums
        t = gen_gridgate(5, 2, caption_literal=True)
        basis = hilbert_basis(t.site_matrix, t.n_types, None, t.counts)
        assert len(basis) == 12
        assert all(is_self_saturated(Polymer(x), t) for x in basis)
        assert all(max(x) <= 2 for x in basis)

    @pytest.mark.slow
    @pytest.mark.parametrize("k, size, nodes", [(5, 45, 165), (6, 57, 203)])
    def test_translator_completion_nodes(self, k, size, nodes):
        # the pair sums examined follow from the queue order and from which
        # sums reduce to 0, so the node count pins the completion, not
        # just the answer
        assert translator_text(6) == TRANSLATOR_TBN_TEXT
        clock = Clock()
        basis = polymer_basis(parse_tbn(translator_text(k)), clock)
        assert len(basis) == size
        assert clock.nodes == nodes

    def test_empty_tbn(self):
        assert polymer_basis(parse_tbn("")) == []

    def test_zero_time_budget_raises(self, translator_tbn):
        with pytest.raises(BudgetExhausted):
            polymer_basis(translator_tbn, Budget(max_time=0))


class TestDecompose:
    def test_grid_configuration(self, grid_tbn):
        basis = polymer_basis(grid_tbn)
        target = Polymer((1, 1, 1, 1, 1))  # one of everything
        parts = decompose(target, basis, grid_tbn)
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total.counts == target.counts

    def test_unsaturated_polymer_rejected(self, grid_tbn):
        basis = polymer_basis(grid_tbn)
        with pytest.raises(BasisError):
            decompose(Polymer((1, 0, 0, 0, 0)), basis, grid_tbn)

    @pytest.mark.parametrize("network", ["seeded", "k5", "k6"])
    def test_parts_are_basis_elements_summing_to_the_polymer(self, network):
        tbns = small_finite_tbns(20261020, 15) if network == "seeded" else [
            parse_tbn(translator_text(int(network[1])))
        ]
        for t in tbns:
            basis = polymer_basis(t)
            result = stable_configs(t, StableOptions(all=True))
            polymers = {p for pc in result.solutions for p in pc.polymers}
            polymers.add(Polymer(t.counts))
            for p in polymers:
                parts = decompose(p, basis, t)
                assert parts == sorted(
                    parts, key=lambda q: q.counts, reverse=True
                )
                total = tuple(map(sum, zip(*(q.counts for q in parts))))
                assert total == p.counts
                assert all(q in basis and splits(q, t) == [] for q in parts)
                # the basis without the first part no longer decomposes p
                short = [b for b in basis if b != parts[0]]
                with pytest.raises(BasisError):
                    decompose(p, short, t)

    def test_wrong_dimension_rejected(self):
        # the search this replaced read the extra coordinate as absent
        # and returned [(1, 0, 1, 0)], which does not sum to the input
        t = parse_tbn("x: a* b*\ny: a\nz: b\nw: a b")
        basis = polymer_basis(t)
        for counts in [(1, 0, 1, 0, 2), (1, 0, 1)]:
            with pytest.raises(TbnValidationError, match="wrong dimension"):
                decompose(Polymer(counts), basis, t)

    def test_empty_polymer_is_the_empty_sum(self, grid_tbn):
        basis = polymer_basis(grid_tbn)
        assert decompose(Polymer((0,) * 5), basis, grid_tbn) == []


def small_finite_tbns(seed, count):
    """Seeded networks of two to four types over site names a, b, c,
    each with count 1 or 2."""
    rng = random.Random(seed)
    tbns = []
    while len(tbns) < count:
        lines = []
        for _ in range(rng.randint(2, 4)):
            sites = [rng.choice("abc") + rng.choice(["", "*"])
                     for _ in range(rng.randint(1, 3))]
            lines.append(" ".join(sites) + f", {rng.randint(1, 2)}")
        t = parse_tbn("\n".join(lines))
        if t.n_types >= 2:
            tbns.append(t)
    return tbns


class TestStableViaBasis:
    def test_grid_matches_direct_solve(self, grid_tbn):
        via_basis = stable_via_basis(grid_tbn)
        direct = stable_configs(grid_tbn, StableOptions(all=True))
        assert via_basis.optimum == direct.optimum == 2
        assert {
            tuple(p.counts for p in pc.polymers)
            for pc in via_basis.solutions
        } == {
            tuple(p.counts for p in pc.polymers)
            for pc in direct.solutions
        }

    def test_intro(self, intro_tbn):
        result = stable_via_basis(intro_tbn)
        assert result.optimum == 1
        assert len(result.solutions) == 1

    def test_infinite_tbn(self, excess_tbn):
        result = stable_via_basis(excess_tbn)
        assert result.optimum == 2
        assert [
            [p.counts for p in pc.polymers] for pc in result.solutions
        ] == [[(1, 1), (1, 1)]]

    def test_basis_beyond_the_counts_is_dropped(self, translator_tbn):
        basis = polymer_basis(translator_tbn)
        within = [
            b for b in basis
            if all(c <= n for c, n in zip(b.counts, translator_tbn.counts))
        ]
        assert len(within) < len(basis)
        full = stable_via_basis(translator_tbn, basis)
        filtered = stable_via_basis(translator_tbn, within)
        assert full.optimum == filtered.optimum == 6
        assert full.solutions == filtered.solutions
        assert full.stats.nodes == filtered.stats.nodes
        # the basis truncated at the counts is the filtered one
        t = translator_tbn
        truncated = hilbert_basis(t.site_matrix, t.n_types, None, t.counts)
        assert len(truncated) == len(within) == 51
        assert sorted(truncated, reverse=True) == [b.counts for b in within]
        computed = stable_via_basis(t)
        assert computed.solutions == full.solutions
        assert computed.stats.route == "basis"

    def test_monomer_only_beyond_its_count_rejected(self, intro_tbn):
        # a*b* sits only in an element that needs two copies of it
        basis = [Polymer((2, 2, 0, 2)), Polymer((0, 1, 0, 0)),
                 Polymer((0, 0, 1, 0)), Polymer((0, 0, 0, 1))]
        with pytest.raises(BasisError, match="appears in no basis polymer"):
            stable_via_basis(intro_tbn, basis)


def assert_exhausted(result):
    assert not result.complete
    assert result.optimum is None
    assert result.solutions == []


class TestStableViaBasisBudget:
    @pytest.fixture(scope="class")
    def translator_basis(self):
        return polymer_basis(parse_tbn(TRANSLATOR_TBN_TEXT))

    def test_completes_within_default_budget(
        self, translator_tbn, translator_basis
    ):
        basis = translator_basis
        result = stable_via_basis(translator_tbn, basis)
        assert result.complete
        assert result.optimum == 6
        assert len(result.solutions) == 2

    def test_zero_time_budget(self, translator_tbn, translator_basis):
        basis = translator_basis
        assert_exhausted(
            stable_via_basis(translator_tbn, basis, Budget(max_time=0))
        )
        assert_exhausted(
            stable_via_basis(translator_tbn, budget=Budget(max_time=0))
        )

    def test_tiny_node_budget_in_the_level_scan(
        self, translator_tbn, translator_basis
    ):
        basis = translator_basis
        # the scan answers in 4 nodes: its root and three level nodes
        result = stable_via_basis(translator_tbn, basis, Budget(max_nodes=3))
        assert_exhausted(result)
        # the root, the two level-search nodes left, and the one that
        # found the budget spent
        assert result.stats.nodes == 4

    def test_one_budget_covers_basis_and_scan(self, translator_tbn):
        # enough nodes for the basis and the root, none for a level; the
        # basis computed here is truncated at the counts
        t = translator_tbn
        clock = Clock()
        hilbert_basis(t.site_matrix, t.n_types, clock, t.counts)
        basis_nodes = clock.nodes
        result = stable_via_basis(
            translator_tbn, budget=Budget(max_nodes=basis_nodes + 1)
        )
        assert_exhausted(result)
        assert result.stats.nodes == basis_nodes + 2
        # a basis-sized budget runs out in the basis itself
        result = stable_via_basis(
            translator_tbn, budget=Budget(max_nodes=basis_nodes - 1)
        )
        assert_exhausted(result)
        assert result.stats.nodes == basis_nodes


class TestSerialization:
    def test_table_lists_every_polymer(self, grid_tbn):
        basis = polymer_basis(grid_tbn)
        table = render_basis_table(basis, grid_tbn)
        assert len(table.splitlines()) == len(basis)
        assert "G + H1 + H2" in table


def random_matrix(rng: random.Random, max_rows=4, cols=(1, 4)):
    m = rng.randint(1, max_rows)
    n = rng.randint(*cols)
    return [
        [rng.randint(-3, 3) for _ in range(n)] for _ in range(m)
    ], n


def check_random_cones(seed, cap, **shape):
    """Bases of 40 seeded random cones, checked up to 1-norm ``cap``."""
    rng = random.Random(seed)
    bases = []
    for _ in range(40):
        rows, n = random_matrix(rng, **shape)
        basis = hilbert_basis(rows, n)
        small = sorted(x for x in basis if sum(x) <= cap)
        assert small == brute_force_hilbert(rows, n, cap), rows
        bases.append(basis)
    return bases


class TestOracleEquivalence:
    def test_random_cones_match_oracle(self):
        check_random_cones(20240910, cap=8)

    def test_random_cones_with_shared_coordinate_values(self):
        # the reduction and the final <= filter compare elements that tie
        # on a coordinate; in 8 of these cones (2 of the cones above) a
        # value of 2 or more is shared by several basis elements
        bases = check_random_cones(20261018, cap=6, max_rows=3, cols=(2, 5))
        crowded = 0
        for basis in bases:
            values = Counter(
                (k, v) for x in basis for k, v in enumerate(x) if v >= 2
            )
            crowded += max(values.values(), default=0) > 1
        assert crowded >= 8

    @staticmethod
    def truncated_cones():
        """60 cones with caps 1, 2 and None mixed per coordinate, then 60
        with up to 5 rows and caps 1-4 and None."""
        for seed, max_rows, choices in [
            (20261019, 3, [1, 2, None]),
            (20261020, 5, [1, 2, 3, 4, None]),
        ]:
            rng = random.Random(seed)
            for _ in range(60):
                rows, n = random_matrix(rng, max_rows=max_rows, cols=(2, 5))
                yield rows, n, [rng.choice(choices) for _ in range(n)]

    def test_truncated_bases_of_random_cones(self):
        # a pair sum past a cap is dropped, and an element at its cap is
        # kept
        shrunk = 0
        for rows, n, upper in self.truncated_cones():

            def within(x):
                return all(c is None or v <= c for v, c in zip(x, upper))

            full = hilbert_basis(rows, n)
            truncated = hilbert_basis(rows, n, None, upper)
            assert truncated == [x for x in full if within(x)], (rows, upper)
            oracle = brute_force_hilbert(rows, n, 6)
            assert [x for x in truncated if sum(x) <= 6] == [
                x for x in oracle if within(x)
            ], (rows, upper)
            shrunk += len(truncated) < len(full)
        assert shrunk >= 50  # 52 of the 120

    def test_random_tbn_bases_are_minimal_cone_points(self):
        rng = random.Random(20240911)
        for _ in range(20):
            lines = []
            for _ in range(rng.randint(2, 4)):
                k = rng.randint(1, 3)
                sites = [
                    rng.choice("ab") + rng.choice(["", "*"])
                    for _ in range(k)
                ]
                lines.append(" ".join(sites))
            t = parse_tbn("\n".join(lines))
            basis = polymer_basis(t)
            small = sorted(
                p.counts for p in basis if sum(p.counts) <= 6
            )
            assert small == brute_force_hilbert(t.site_matrix, t.n_types, 6)

    def test_oracles_leave_no_reference_cycle(self, intro_tbn):
        t = intro_tbn
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                assert brute_force_stable(t).optimum == 1
                assert brute_force_hilbert(t.site_matrix, t.n_types, 4) == [
                    (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 1, 0),
                    (1, 1, 0, 1),
                ]
            assert gc.collect() == 0
        finally:
            gc.enable()
