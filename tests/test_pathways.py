import itertools
import random

import pytest

from tbntools.core import (
    PartialConfiguration,
    Polymer,
    is_self_saturated,
    parse_tbn,
    polymer_from_monomers,
)
from tbntools.hilbert import polymer_basis
from tbntools.pathways import (
    FullConfiguration,
    Pathway,
    PathwayError,
    all_singletons,
    find_pathway,
    full_configuration,
    is_locally_stable,
    merge_moves,
    split_moves,
    splits,
)
from tbntools.solver import (
    Budget,
    BudgetExhausted,
    StableOptions,
    stable_configs,
)


@pytest.fixture
def swap_tbn():
    # x binds either partner; two stable configurations, one merge each
    return parse_tbn("x: a*\ny: a\nz: a b")


def config(t, *polymer_counts):
    return FullConfiguration.from_polymers(
        [Polymer(c) for c in polymer_counts], t
    )


class TestFullConfiguration:
    def test_all_singletons(self, intro_tbn):
        c = all_singletons(intro_tbn)
        assert c.n_polymers == 4
        assert c.merge_count() == 0
        assert not c.is_saturated()  # a*b* singleton is exposed

    def test_from_partial(self, intro_tbn):
        pc = stable_configs(intro_tbn).solutions[0]
        c = full_configuration(pc)
        assert c.merge_count() == 1
        assert c.is_saturated()
        assert c.n_polymers == 3

    def test_rejects_wrong_totals(self, intro_tbn):
        with pytest.raises(PathwayError):
            config(intro_tbn, (1, 0, 0, 0))

    def test_rejects_infinite_tbn(self, excess_tbn):
        with pytest.raises(PathwayError):
            all_singletons(excess_tbn)


class TestPolymerSplits:
    def test_four_monomer_polymer_one_split(self):
        t = parse_tbn("p: a b\nq: a* b*\nr: a\ns: a*")
        mon = {m.label: m for m in t.monomer_types}
        whole = polymer_from_monomers(
            [mon["p"], mon["q"], mon["r"], mon["s"]], t
        )
        result = splits(whole, t)
        # the only bond-free cut pairs {a b}+{a* b*} against {a}+{a*}
        assert len(result) == 1
        parts = {result[0][0].counts, result[0][1].counts}
        assert parts == {
            polymer_from_monomers([mon["p"], mon["q"]], t).counts,
            polymer_from_monomers([mon["r"], mon["s"]], t).counts,
        }

    def test_bound_pair_cannot_split(self):
        t = parse_tbn("r: a\ns: a*")
        pair = Polymer((1, 1))
        assert splits(pair, t) == []

    def test_unbonded_pair_splits(self):
        t = parse_tbn("r: a\ns: b")
        pair = Polymer((1, 1))
        assert len(splits(pair, t)) == 1

    def test_split_nonempty_iff_not_basis_element(self, grid_tbn):
        basis = {b.counts for b in polymer_basis(grid_tbn)}
        whole = Polymer((1, 1, 1, 1, 1))
        for p in [whole, Polymer((1, 1, 0, 0, 1)), Polymer((0, 1, 0, 0, 1))]:
            splittable = bool(splits(p, grid_tbn))
            assert splittable == (p.counts not in basis)


class TestLocalStability:
    def test_stable_config_is_locally_stable(self, intro_tbn):
        c = full_configuration(stable_configs(intro_tbn).solutions[0])
        assert is_locally_stable(c)

    def test_oversized_polymer_is_not(self, intro_tbn):
        # {m1, m2, m3} splits into {m1, m2} and {m3}
        c = config(
            intro_tbn, (1, 1, 1, 0), (0, 0, 0, 1)
        )
        assert not is_locally_stable(c)

    def test_requires_saturation(self, intro_tbn):
        with pytest.raises(PathwayError):
            is_locally_stable(all_singletons(intro_tbn))

    def test_matches_basis_membership(self):
        rng = random.Random(20261018)
        for _ in range(30):
            lines = []
            for _ in range(rng.randint(2, 4)):
                sites = [
                    rng.choice("ab") + rng.choice(["", "*"])
                    for _ in range(rng.randint(1, 3))
                ]
                lines.append(" ".join(sites))
            t = parse_tbn("\n".join(lines))
            basis = {b.counts for b in polymer_basis(t)}
            for counts in itertools.product(range(4), repeat=t.n_types):
                p = Polymer(counts)
                if not any(counts) or not is_self_saturated(p, t):
                    continue
                pc = PartialConfiguration.from_polymers(
                    [p], t, validate=False
                )
                assert is_locally_stable(pc) == (counts in basis), (
                    lines, counts
                )

    def test_each_half_tried_is_a_node(self):
        # the whole polymer is a basis element, so all ten halves are
        # tried before the answer
        t = parse_tbn("g: " + " ".join(["a*"] * 10) + "\ns: a, 10")
        c = config(t, (1, 10))
        assert is_locally_stable(c, Budget(max_nodes=10))
        with pytest.raises(BudgetExhausted):
            is_locally_stable(c, Budget(max_nodes=5))

    def test_copies_of_a_polymer_are_tested_once(self):
        t = parse_tbn("g: " + " ".join(["a*"] * 10) + ", 3\ns: a, 30")
        c = config(t, (1, 10), (1, 10), (1, 10))
        assert is_locally_stable(c, Budget(max_nodes=10))


class TestMoves:
    def test_merges_of_singletons(self, swap_tbn):
        c = all_singletons(swap_tbn)
        neighbors = list(merge_moves(c))
        assert len(neighbors) == 3  # three distinct pairs of the 3 types
        assert all(n.merge_count() == 1 for n in neighbors)

    def test_splits_respect_saturation(self, swap_tbn):
        # polymer x+y+z can drop y or z but never bare x
        c = config(swap_tbn, (1, 1, 1))
        keys = {n.key() for n in split_moves(c)}
        assert keys == {
            ((1, 0, 1), (0, 1, 0)),
            ((1, 1, 0), (0, 0, 1)),
        }

    def test_saturated_pair_has_no_splits(self, intro_tbn):
        pc = stable_configs(intro_tbn).solutions[0]
        c = full_configuration(pc)
        pair_splits = [
            n for n in split_moves(c) if n.n_polymers == c.n_polymers + 1
        ]
        assert pair_splits == []


class TestPathway:
    def test_swap_pathway(self, swap_tbn):
        start = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        goal = config(swap_tbn, (1, 0, 1), (0, 1, 0))
        p = find_pathway(start, goal)
        assert p is not None
        assert p.barrier() == 1
        assert p.merge_counts() == [1, 2, 1]
        p.validate()

    def test_trivial_pathway(self, swap_tbn):
        start = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        p = find_pathway(start, start)
        assert p is not None and p.length == 0

    def test_barrier_cap_can_forbid(self, swap_tbn):
        start = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        goal = config(swap_tbn, (1, 0, 1), (0, 1, 0))
        assert find_pathway(start, goal, max_barrier=0) is None

    def test_budget_distinct_from_proven_absence(self, swap_tbn):
        start = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        goal = config(swap_tbn, (1, 0, 1), (0, 1, 0))
        with pytest.raises(BudgetExhausted):
            find_pathway(start, goal, budget=Budget(max_nodes=1))

    def test_unsaturated_endpoint_rejected(self, swap_tbn):
        bad = all_singletons(swap_tbn)
        with pytest.raises(PathwayError):
            find_pathway(bad, bad)

    def test_validate_catches_broken_sequence(self, swap_tbn):
        a = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        b = config(swap_tbn, (1, 0, 1), (0, 1, 0))
        with pytest.raises(PathwayError):
            Pathway((a, b)).validate()  # two moves apart, not one

    def test_reversed_pathway_replays(self, swap_tbn):
        start = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        goal = config(swap_tbn, (1, 0, 1), (0, 1, 0))
        p = find_pathway(start, goal)
        back = p.reversed()
        back.validate()
        assert back.barrier() == p.barrier()


def translator_pairs(t, shift):
    """Full configuration pairing each T_xyz with G_xy (shift 0) or with
    G_yz (shift 1)."""
    polymers = []
    for sites in ("abc", "bcd", "cde", "def", "efa", "fab"):
        counts = [0] * t.n_types
        counts[t.monomer_by_label("T_" + sites)] += 1
        counts[t.monomer_by_label("G_" + sites[shift:shift + 2])] += 1
        polymers.append(Polymer(tuple(counts)))
    return FullConfiguration.from_polymers(polymers, t)


class TestTranslatorPathway:
    def test_zero_time_budget_raises(self, translator_tbn):
        start = translator_pairs(translator_tbn, 0)
        goal = translator_pairs(translator_tbn, 1)
        assert start.is_saturated() and goal.is_saturated()
        with pytest.raises(BudgetExhausted):
            find_pathway(start, goal, budget=Budget(max_time=0))

    @pytest.mark.slow
    def test_barrier_at_most_three(self, translator_tbn):
        result = stable_configs(translator_tbn, StableOptions(all=True))
        start, goal = [
            full_configuration(pc) for pc in result.solutions
        ]
        p = find_pathway(start, goal, max_barrier=3)
        assert p is not None
        assert p.barrier() <= 3
        p.validate()
        assert p.configurations[-1].key() == goal.key()
