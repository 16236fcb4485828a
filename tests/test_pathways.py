import functools
import gc
import hashlib
import itertools
import random
from collections import Counter, deque

import pytest

from tbntools.core import (
    PartialConfiguration,
    Polymer,
    TbnValidationError,
    is_self_saturated,
    parse_tbn,
    polymer_from_monomers,
    split_search,
)
from conftest import (
    GRID_TBN_TEXT,
    INTRO_TBN_TEXT,
    LateClock,
    translator_text,
)
from tbntools import pathways
from tbntools.cli import gen_gridgate
from tbntools.hilbert import decompose, polymer_basis, stable_via_basis
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
    Clock,
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

    @pytest.mark.parametrize("counts", [(1, 1, 1, 0), (1, 1)])
    def test_rejects_wrong_dimension(self, swap_tbn, counts):
        # one coordinate too many would index past the TBN's counts, one
        # too few would read as a supply mismatch
        with pytest.raises(PathwayError, match="wrong dimension"):
            config(swap_tbn, counts)

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


def saturated(counts, t) -> bool:
    """Whether a polymer exposes no starred site, tallied from its
    monomers' sites."""
    net = Counter()
    for c, mon in zip(counts, t.monomer_types):
        for site in mon.sites:
            net[site.name] += -c if site.starred else c
    return all(v >= 0 for v in net.values())


def brute_splits(counts, t):
    """Every part x of the polymer, in product order, with x no larger
    than ``counts - x``, neither empty and both saturated."""
    found = []
    for part in itertools.product(*(range(c + 1) for c in counts)):
        other = tuple(c - v for c, v in zip(counts, part))
        if (part <= other and any(part) and any(other)
                and saturated(part, t) and saturated(other, t)):
            found.append((part, other))
    return found


def random_small_tbn(rng, max_monomers):
    """A random network of up to four types, counts up to three, whose
    first line has only starred sites (the parser may flip them)."""
    while True:
        lines = [" ".join(
            rng.choice("abc") + "*" for _ in range(rng.randint(1, 3))
        ) + f", {rng.randint(1, 2)}"]
        for _ in range(rng.randint(1, 3)):
            sites = [rng.choice("abc") + rng.choice(["", "*"])
                     for _ in range(rng.randint(1, 3))]
            lines.append(" ".join(sites) + f", {rng.randint(1, 3)}")
        t = parse_tbn("\n".join(lines))
        if sum(t.counts) <= max_monomers:
            return t


class TestSplitSearch:
    def test_matches_the_brute_force_filter(self):
        rng = random.Random(20261019)
        covered = Counter()
        for _ in range(25):
            t = random_small_tbn(rng, 10)
            covered["repeated type"] += max(t.counts) > 1
            covered["all-starred type"] += any(
                all(s.starred for s in m.sites) for m in t.monomer_types
            )
            for counts in itertools.product(*(range(c + 1) for c in t.counts)):
                got = [(a.counts, b.counts)
                       for a, b in splits(Polymer(counts), t)]
                assert got == brute_splits(counts, t), (t, counts)
        assert min(covered.values()) >= 5, covered

    @pytest.mark.parametrize("k, count", [(6, 230), (7, 616), (8, 1730)])
    def test_translator_whole_polymer(self, k, count):
        t = parse_tbn(translator_text(k))
        assert len(splits(Polymer(t.counts), t)) == count

    @pytest.mark.parametrize("counts", [(1, 0, 1), (1, 0, 1, 0, 5)])
    def test_wrong_dimension_rejected(self, intro_tbn, counts):
        with pytest.raises(TbnValidationError, match="wrong dimension"):
            splits(Polymer(counts), intro_tbn)

    def test_searches_leave_no_reference_cycle(self, translator_tbn):
        t = translator_tbn
        start = translator_pairs(t, 0)
        goal = translator_pairs(t, 1)
        basis = polymer_basis(t)
        gc.collect()
        gc.disable()
        try:
            assert find_pathway(start, goal).barrier() == 2
            assert is_locally_stable(start) and is_locally_stable(goal)
            assert not is_locally_stable(fully_merged(t))
            parts = decompose(Polymer(t.counts), basis, t)
            assert sum(map(sum, (q.counts for q in parts))) == sum(t.counts)
            assert gc.collect() == 0
        finally:
            gc.enable()


def pinned_splits(p, t):
    """``split_search``'s splits of ``p`` as count-vector pairs, in the
    order it yields them, and the number of times it ticks."""
    ticks = []
    found = [(a.counts, b.counts)
             for a, b in split_search(p, t, lambda: ticks.append(1))]
    return found, len(ticks)


def short_digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestSplitSearchPins:
    """``split_search`` node for node: the splits, their order and the
    ticks, one per value tried.  A change to how the search walks its
    values that alters what it finds or visits moves one of these."""

    def test_translator_fully_merged(self):
        t = parse_tbn(translator_text(6))
        found, ticks = pinned_splits(Polymer(t.counts), t)
        assert (len(found), ticks) == (230, 1054)
        assert short_digest(found) == "2f68d7184d953c39"

    def test_random_small_networks(self):
        # every polymer of each network
        rng = random.Random(20261020)
        record = []
        for _ in range(30):
            t = random_small_tbn(rng, 10)
            for counts in itertools.product(*(range(c + 1)
                                              for c in t.counts)):
                record.append((counts, *pinned_splits(Polymer(counts), t)))
        assert len(record) == 663
        assert sum(len(found) for _, found, _ in record) == 1680
        assert sum(ticks for _, _, ticks in record) == 3492
        assert short_digest(record) == "c05612e0e9ab699d"

    def test_random_subpolymers(self):
        # random sub-polymers of translator k=6 and grid-gate n=3, fuel 2
        rng = random.Random(33)
        record = []
        for t in (parse_tbn(translator_text(6)), gen_gridgate(3, 2)):
            for _ in range(60):
                counts = tuple(rng.randint(0, c) for c in t.counts)
                record.append((counts, *pinned_splits(Polymer(counts), t)))
        assert sum(len(found) for _, found, _ in record) == 2281
        assert sum(ticks for _, _, ticks in record) == 5503
        assert short_digest(record) == "ca9972483b64551e"


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

    def test_each_split_search_node_is_a_node(self):
        # the whole polymer is a basis element; its split search fixes
        # g = 0, then s = 0, the only value that keeps {a*} x 10 covered
        t = parse_tbn("g: " + " ".join(["a*"] * 10) + "\ns: a, 10")
        c = config(t, (1, 10))
        clock = Clock()
        assert is_locally_stable(c, clock)
        assert clock.nodes == 2
        assert is_locally_stable(c, Budget(max_nodes=2))
        with pytest.raises(BudgetExhausted):
            is_locally_stable(c, Budget(max_nodes=1))

    def test_copies_of_a_polymer_are_tested_once(self):
        t = parse_tbn("g: " + " ".join(["a*"] * 10) + ", 3\ns: a, 30")
        c = config(t, (1, 10), (1, 10), (1, 10))
        assert is_locally_stable(c, Budget(max_nodes=2))


class TestMoves:
    def test_merges_of_singletons(self, swap_tbn):
        c = all_singletons(swap_tbn)
        neighbors = list(merge_moves(c))
        assert len(neighbors) == 3  # three distinct pairs of the 3 types
        assert all(n.merge_count() == 1 for n in neighbors)

    def test_splits_respect_saturation(self, swap_tbn):
        # polymer x+y+z can drop y or z but never bare x
        c = config(swap_tbn, (1, 1, 1))
        keys = {n.key() for n in split_moves(c, clock=Clock(), memo={})}
        assert keys == {
            ((1, 0, 1), (0, 1, 0)),
            ((1, 1, 0), (0, 0, 1)),
        }

    def test_saturated_pair_has_no_splits(self, intro_tbn):
        pc = stable_configs(intro_tbn).solutions[0]
        c = full_configuration(pc)
        pair_splits = [
            n for n in split_moves(c, clock=Clock(), memo={})
            if n.n_polymers == c.n_polymers + 1
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

    def test_negative_barrier_cap_is_an_error(self, swap_tbn):
        # no barrier is negative: an input error, not a proven absence
        start = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        with pytest.raises(PathwayError, match="must not be negative"):
            find_pathway(start, start, max_barrier=-1)

    def test_budget_distinct_from_proven_absence(self, swap_tbn):
        start = config(swap_tbn, (1, 1, 0), (0, 0, 1))
        goal = config(swap_tbn, (1, 0, 1), (0, 1, 0))
        with pytest.raises(BudgetExhausted):
            find_pathway(start, goal, budget=Budget(max_nodes=1))

    def test_unsaturated_endpoint_rejected(self, swap_tbn):
        bad = all_singletons(swap_tbn)
        with pytest.raises(PathwayError):
            find_pathway(bad, bad)

    def test_start_and_goal_of_different_tbns(self):
        # equal counts, different monomer types
        ends = [parse_tbn(text) for text in ("a*\na", "b*\nb")]
        with pytest.raises(PathwayError, match="different TBNs"):
            find_pathway(*[config(t, (1, 1)) for t in ends])

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


def fully_merged(t):
    return FullConfiguration.from_polymers([Polymer(t.counts)], t)


def stable_full_configurations(t):
    return [full_configuration(pc)
            for pc in stable_via_basis(t, polymer_basis(t)).solutions]


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

    def test_split_search_checks_the_time_limit(self, translator_tbn):
        # the first state is the fully merged polymer; its split search
        # reads the clock before the first expansion ends
        goal = stable_full_configurations(translator_tbn)[0]
        clock = LateClock()
        with pytest.raises(BudgetExhausted):
            find_pathway(fully_merged(translator_tbn), goal, budget=clock)
        assert clock.nodes == 1

    def test_max_barrier_below_the_floor(self):
        t = parse_tbn(translator_text(5))
        start, goal = stable_full_configurations(t)[0], fully_merged(t)
        floor = goal.merge_count() - start.merge_count()
        clock = Clock()
        # proven absent before the search starts
        assert find_pathway(start, goal, floor - 1, clock) is None
        assert clock.nodes == 0
        p = find_pathway(start, goal, floor)
        assert p is not None and p.barrier() == floor
        p.validate()

    def test_each_polymer_is_split_once(self, translator_tbn, monkeypatch):
        split_calls = []

        def counted(p, t, **kwargs):
            split_calls.append(p.counts)
            return splits(p, t, **kwargs)

        monkeypatch.setattr(pathways, "splits", counted)
        start = translator_pairs(translator_tbn, 0)
        goal = translator_pairs(translator_tbn, 1)
        assert find_pathway(start, goal).barrier() == 2
        assert split_calls
        assert len(split_calls) == len(set(split_calls))


def pathway_ends(family, n, start, goal):
    """A search's endpoints on translator k=n or grid-gate n (fuel 2),
    each a stable configuration by its index or "merged"."""
    if family == "translator":
        t = parse_tbn(translator_text(n))
    else:
        t = gen_gridgate(n, 2)
    stable = stable_full_configurations(t)
    return tuple(fully_merged(t) if end == "merged" else stable[end]
                 for end in (start, goal))


class TestSearchPins:
    """The best-first search, node for node: the states it pops, the
    barrier, the length and the path itself.  A change to how states are
    built or ordered that alters the search moves one of these."""

    @pytest.mark.parametrize("ends, nodes, barrier, merge_counts, digest", [
        (("translator", 6, 0, 1), 28, 2, [6, 7, 8, 7, 8, 7, 8, 7, 8, 7, 6],
         "535d8278eb4770ed"),
        (("translator", 6, "merged", 0), 6, 0, [11, 10, 9, 8, 7, 6],
         "5423b6e4962459ad"),
        (("translator", 5, 0, "merged"), 5, 4, [5, 6, 7, 8, 9],
         "3297174ae23df508"),
        (("gridgate", 2, 0, -1), 16, 2, [2, 3, 4, 3, 2], "cb3462f6346d6187"),
        (("gridgate", 3, 0, -1), 283, 3, [3, 4, 5, 6, 5, 4, 3],
         "ae55afb8c1192056"),
        # the instance ROADMAP item 6 times
        pytest.param(("gridgate", 4, 0, -1), 8614, 4,
                     [4, 5, 6, 7, 8, 7, 6, 5, 4], "5ebb45f1a3012d40",
                     marks=pytest.mark.slow),
    ], ids=["k6 A->B", "k6 merged->A", "k5 A->merged", "gridgate n2",
            "gridgate n3", "gridgate n4"])
    def test_search_is_pinned(self, ends, nodes, barrier, merge_counts,
                              digest):
        start, goal = pathway_ends(*ends)
        clock = Clock()
        p = find_pathway(start, goal, budget=clock)
        assert clock.nodes == nodes
        assert p.barrier() == barrier
        assert p.length == len(merge_counts) - 1
        assert p.merge_counts() == merge_counts
        # the path's keys, every count vector of every step, by digest
        keys = repr([c.key() for c in p.configurations])
        assert hashlib.sha256(keys.encode()).hexdigest()[:16] == digest
        p.validate()


def full_configurations(t, keep=saturated):
    """Every full configuration of ``t`` whose polymers all pass ``keep``,
    by default the saturated ones, as a non-increasing tuple of count
    vectors."""

    def partitions(remaining, largest):
        if not any(remaining):
            yield ()
            return
        for part in itertools.product(*(range(r + 1) for r in remaining)):
            if any(part) and part <= largest and keep(part, t):
                rest = tuple(r - v for r, v in zip(remaining, part))
                for tail in partitions(rest, part):
                    yield (part,) + tail

    return list(partitions(t.counts, t.counts))


def barrier_oracle(t):
    """The minimum barrier between two saturated configurations of
    ``t``, given as tuples of count vectors: a breadth-first search that
    admits only states of at most ``b`` merges above the start, for
    b = 0, 1, ...  Moves are found by brute force: merge any two
    polymers, or split one into two saturated parts."""

    def merges(key):
        return sum(map(sum, key)) - len(key)

    @functools.cache
    def neighbors(key):
        found = set()
        for i, j in itertools.combinations(range(len(key)), 2):
            merged = tuple(a + b for a, b in zip(key[i], key[j]))
            rest = [q for k, q in enumerate(key) if k not in (i, j)]
            found.add(tuple(sorted(rest + [merged], reverse=True)))
        for i, q in enumerate(key):
            rest = [r for k, r in enumerate(key) if k != i]
            for part in itertools.product(*(range(c + 1) for c in q)):
                other = tuple(c - v for c, v in zip(q, part))
                if (any(part) and any(other) and saturated(part, t)
                        and saturated(other, t)):
                    found.add(tuple(sorted(rest + [part, other],
                                           reverse=True)))
        return found

    def barrier(start, goal):
        base = merges(start)
        for b in range(sum(t.counts)):
            seen = {start}
            queue = deque([start])
            while queue:
                for nxt in neighbors(queue.popleft()):
                    if nxt not in seen and merges(nxt) - base <= b:
                        seen.add(nxt)
                        queue.append(nxt)
            if goal in seen:
                return b
        return None

    return barrier


class TestBarrierOracle:
    def cases(self):
        """Each network with its pairs of saturated configurations, by
        kind: ascents to the fully merged polymer, descents and pairs of
        equal merge counts.  Every pair of three small fixed networks,
        then up to three pairs of each kind on seeded random networks."""
        rng = random.Random(20261019)
        fixed = [INTRO_TBN_TEXT, GRID_TBN_TEXT, "x: a*\ny: a\nz: a b"]
        for n in range(len(fixed) + 12):
            t = (parse_tbn(fixed[n]) if n < len(fixed)
                 else random_small_tbn(rng, 7))
            configs = full_configurations(t)
            merges = {c: sum(map(sum, c)) - len(c) for c in configs}
            whole = (t.counts,)
            kinds = {
                "up": [(c, whole) for c in configs if c != whole],
                "down": [], "level": [],
            }
            for a, b in itertools.permutations(configs, 2):
                if merges[a] > merges[b]:
                    kinds["down"].append((a, b))
                elif merges[a] == merges[b]:
                    kinds["level"].append((a, b))
            if n >= len(fixed):
                kinds = {kind: rng.sample(pairs, min(3, len(pairs)))
                         for kind, pairs in kinds.items()}
            yield t, kinds

    def test_barriers_match(self):
        seen = Counter()
        for t, kinds in self.cases():
            oracle = barrier_oracle(t)
            for kind, a, b in ((k, a, b) for k, pairs in kinds.items()
                               for a, b in pairs):
                p = find_pathway(config(t, *a), config(t, *b))
                assert p is not None
                p.validate()
                assert p.configurations[0].key() == a
                assert p.configurations[-1].key() == b
                want = oracle(a, b)
                assert p.barrier() == want, (t, a, b)
                seen[kind, want > 0] += 1
        # every kind is met with a barrier above zero, descents included
        for kind in ("up", "down", "level"):
            assert seen[kind, True] >= 1, seen


def step_kind(a, b):
    """How many polymers the step from ``a`` to ``b`` removes and adds."""
    before, after = Counter(a.key()), Counter(b.key())
    return (before - after).total(), (after - before).total()


class TestValidate:
    def test_uses_no_move_generator(
        self, swap_tbn, translator_tbn, monkeypatch
    ):
        k5 = parse_tbn(translator_text(5))
        found = [
            find_pathway(config(swap_tbn, (1, 1, 0), (0, 0, 1)),
                         config(swap_tbn, (1, 0, 1), (0, 1, 0))),
            find_pathway(*stable_full_configurations(translator_tbn)),
            find_pathway(stable_full_configurations(k5)[0], fully_merged(k5)),
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("validate called a move generator")

        for name in ("merge_moves", "split_moves", "splits", "split_search"):
            monkeypatch.setattr(pathways, name, forbidden)
        for p in found:
            assert p.length > 1
            p.validate()
            p.reversed().validate()

    def test_new_polymers_must_sum_to_the_gone_ones(self, swap_tbn):
        # unvalidated configurations whose totals differ: a merge that
        # makes more than its two parts, and two saturated parts that sum
        # to more than the polymer split
        def loose(*counts):
            return FullConfiguration.from_polymers(
                [Polymer(c) for c in counts], swap_tbn, validate=False
            )

        for a, b in [
            (loose((1, 1, 0), (0, 0, 1)), loose((1, 2, 1))),
            (loose((1, 1, 1)), loose((1, 0, 1), (0, 1, 1))),
        ]:
            assert b.key() not in {n.key() for n in itertools.chain(
                merge_moves(a), split_moves(a, clock=Clock(), memo={})
            )}
            with pytest.raises(PathwayError, match="not one move"):
                Pathway((a, b)).validate()

    def test_matches_move_membership(self):
        # every ordered pair of full configurations of seeded small
        # networks, saturated or not; the oracle is membership among the
        # first configuration's merge and split moves
        rng = random.Random(20261021)
        seen = Counter()
        for _ in range(12):
            t = random_small_tbn(rng, 6)
            configs = [config(t, *key) for key in
                       full_configurations(t, keep=lambda part, t: True)]
            for a in configs:
                moves = {n.key() for n in itertools.chain(
                    merge_moves(a), split_moves(a, clock=Clock(), memo={})
                )}
                for b in configs:
                    try:
                        Pathway((a, b)).validate()
                        legal = True
                    except PathwayError:
                        legal = False
                    assert legal == (b.key() in moves), (t, a.key(), b.key())
                    seen[step_kind(a, b), legal, a.is_saturated()] += 1
        for kind in (
            ((2, 1), True),  # a merge
            ((1, 2), True),  # a split
            ((1, 2), False),  # a split with an unsaturated part
            ((3, 2), False),  # two new polymers, neither a sum of two gone
            ((2, 2), False),  # two polymers swapped for two others
            ((0, 0), False),  # no step at all
        ):
            assert seen[kind + (True,)] >= 1, (kind, seen)
