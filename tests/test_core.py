import pytest
from hypothesis import example, given, strategies as st

from tbntools.core import (
    INF,
    Monomer,
    PartialConfiguration,
    Polymer,
    SiteType,
    Tbn,
    TbnError,
    TbnSyntaxError,
    TbnValidationError,
    exposed_sites,
    is_self_saturated,
    merge_count,
    parse_tbn,
    parse_tbn_with_report,
    polymer_from_monomers,
    render_tbn,
)


def mono(*tokens, label=None):
    return Monomer(tuple(SiteType.parse(t) for t in tokens), label=label)


site_names = st.text(alphabet="abcde", min_size=1, max_size=2)
sites = st.builds(SiteType, site_names, st.booleans())


class TestSiteType:
    @given(sites)
    def test_complement_is_involution(self, s):
        assert s.complement().complement() == s

    def test_parse_and_str(self):
        assert str(SiteType.parse("a*")) == "a*"
        assert SiteType.parse("a*").starred
        assert not SiteType.parse("a").starred

    @pytest.mark.parametrize("bad", ["", "a b", "a*", "a,b", "x:y"])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(TbnError):
            SiteType(bad, False)


class TestMonomer:
    def test_net_count_worked_example(self):
        # {a*, b, a, a, a, c, c*, c*}: net 2 of a, 1 of b, -1 of c
        m = mono("a*", "b", "a", "a", "a", "c", "c*", "c*")
        assert m.net_count(SiteType("a")) == 2
        assert m.net_count(SiteType("b")) == 1
        assert m.net_count(SiteType("c")) == -1

    def test_net_count_absent_site(self):
        assert mono("a").net_count(SiteType("b")) == 0

    def test_net_count_self_cancelling(self):
        assert mono("a", "a*").net_count(SiteType("a")) == 0

    @given(sites, st.lists(sites, min_size=1, max_size=6))
    def test_net_count_antisymmetric_under_starring(self, s, others):
        m = Monomer(tuple(others))
        assert m.net_count(s) == -m.net_count(s.complement())

    def test_empty_monomer_rejected(self):
        with pytest.raises(TbnValidationError):
            Monomer(())

    def test_label_not_part_of_identity(self):
        assert mono("a", label="x") == mono("a", label="y")


class TestParse:
    def test_intro_network(self):
        t = parse_tbn("a* b*\na b\na\nb")
        assert t.n_types == 4
        assert t.counts == (1, 1, 1, 1)
        # canonical order: limiting monomer first
        assert t.monomer_types[0] == mono("a*", "b*")

    def test_counts_and_inf(self):
        t = parse_tbn("a, inf\na*, 2")
        by_mon = dict(zip(t.monomer_types, t.counts))
        assert by_mon[mono("a")] is INF
        assert by_mon[mono("a*")] == 2

    def test_zero_count_rejected(self):
        with pytest.raises(TbnSyntaxError):
            parse_tbn("a b, 0")

    def test_bad_count_rejected(self):
        with pytest.raises(TbnSyntaxError):
            parse_tbn("a b, seven")

    def test_comments_blank_lines_labels(self):
        t = parse_tbn("# header\n\ngate: a* b*, 3\nfuel: a b, inf\n")
        assert t.n_types == 2
        assert t.monomer_types[0].label == "gate"

    def test_duplicate_lines_merge_counts(self):
        t = parse_tbn("a b, 2\na b, 3\na*")
        by_mon = dict(zip(t.monomer_types, t.counts))
        assert by_mon[mono("a", "b")] == 5

    def test_duplicate_lines_keep_every_label(self):
        t = parse_tbn("x: a b\ny: b a, 2\nz: a* b*\nx2: a b")
        i = t.index_of(mono("a", "b"))
        assert t.monomer_types[i].label == "x"
        assert [t.monomer_by_label(s) for s in ("x", "y", "x2")] == [i] * 3
        assert t.with_counts_capped(1).monomer_by_label("x") == i

    def test_label_naming_two_types_rejected(self):
        with pytest.raises(TbnValidationError, match="'x'"):
            parse_tbn("x: a\nx: b\nq: a* b*")
        # the same label on duplicates of one type stays legal
        t = parse_tbn("x: a b\nx: b a\nq: a* b*")
        assert t.monomer_by_label("x") == t.index_of(mono("a", "b"))

    def test_star_convention_flip(self):
        # a* outnumbers a: the star must flip to keep starred sites limiting
        t, report = parse_tbn_with_report("a*, 3\na, 1")
        assert report.flipped_names == ("a",)
        by_mon = dict(zip(t.monomer_types, t.counts))
        assert by_mon[mono("a")] == 3
        assert by_mon[mono("a*")] == 1

    def test_both_sides_infinite_rejected(self):
        with pytest.raises(TbnValidationError):
            parse_tbn("a, inf\na* b, inf")

    def test_limiting_monomer_with_infinite_count_rejected(self):
        with pytest.raises(TbnValidationError):
            Tbn.from_monomers([(mono("a*", "b"), INF), (mono("a"), 5)])

    def test_roundtrip_canonical(self, translator_tbn):
        assert parse_tbn(render_tbn(translator_tbn)) == translator_tbn

    def test_roundtrip_intro(self, intro_tbn):
        assert parse_tbn(render_tbn(intro_tbn)) == intro_tbn

    @pytest.mark.parametrize("text", [
        "r: b\nr2: b\nq: b*",
        "r: b, 2\nr2: b, 3\nr3: b\nr2: b\nq: b*, 2\nc",
        "r: b, inf\nr2: b\nq: b*\nq2: b*, 4",
    ])
    def test_roundtrip_keeps_every_label(self, text):
        t = parse_tbn(text)
        again = parse_tbn(render_tbn(t))
        assert again == t
        labels = [m.label for m in t.monomer_types] + [a for a, _ in t.aliases]
        for label in labels:
            assert again.monomer_by_label(label) == t.monomer_by_label(label)

    def test_empty_input(self):
        t = parse_tbn("# nothing\n")
        assert t.n_types == 0


class TestExposedSites:
    def tbn_for(self, *monomers):
        # raw constructor: these ad-hoc polymers need not obey the
        # starred-limiting convention at TBN level
        return Tbn(tuple(monomers), (1,) * len(monomers))

    def test_worked_example(self):
        ms = [mono("a*", "b*", "c*"), mono("a", "c"), mono("a", "b", "c"),
              mono("c", "d*")]
        t = self.tbn_for(*ms)
        p = polymer_from_monomers(ms, t)
        assert exposed_sites(p, t) == {
            SiteType("a"): 1, SiteType("c"): 2, SiteType("d", True): 1,
        }

    def test_single_monomer(self):
        t = self.tbn_for(mono("a", "b"))
        p = Polymer((1,))
        assert exposed_sites(p, t) == {SiteType("a"): 1, SiteType("b"): 1}

    def test_fully_bound_pair(self):
        t = self.tbn_for(mono("a*", "b*"), mono("a", "b"))
        p = Polymer((1, 1))
        assert exposed_sites(p, t) == {}
        assert is_self_saturated(p, t)

    def test_all_starred_not_saturated(self):
        t = self.tbn_for(mono("a*", "b*"), mono("a", "b"))
        p = polymer_from_monomers([mono("a*", "b*")], t)
        assert not is_self_saturated(p, t)

    @pytest.mark.parametrize("counts", [(1, 0, 1), (1, 0, 1, 0, 5)])
    def test_wrong_dimension_rejected(self, intro_tbn, counts):
        # a long polymer's extra coordinate was read as absent
        with pytest.raises(TbnValidationError, match="wrong dimension"):
            is_self_saturated(Polymer(counts), intro_tbn)

    def test_three_monomer_saturation(self, intro_tbn):
        p = polymer_from_monomers(
            [mono("a*", "b*"), mono("a"), mono("b")], intro_tbn
        )
        assert is_self_saturated(p, intro_tbn)

    def test_exposed_net_additive_over_union(self, intro_tbn):
        p1 = polymer_from_monomers([mono("a*", "b*"), mono("a")], intro_tbn)
        p2 = polymer_from_monomers([mono("b")], intro_tbn)
        combined = exposed_sites(p1 + p2, intro_tbn)
        for name in intro_tbn.site_names():
            s = SiteType(name)

            def net(counter):
                return counter.get(s, 0) - counter.get(s.complement(), 0)

            assert net(combined) == net(exposed_sites(p1, intro_tbn)) + net(
                exposed_sites(p2, intro_tbn)
            )


monomer_lines = st.lists(
    st.tuples(st.lists(sites, min_size=1, max_size=4), st.integers(1, 3)),
    min_size=1,
    max_size=5,
)


def tbn_of(lines):
    return parse_tbn("\n".join(
        " ".join(str(s) for s in ss) + f", {count}" for ss, count in lines
    ))


class TestSiteMatrix:
    def test_computed_once(self, intro_tbn):
        assert intro_tbn.site_matrix is intro_tbn.site_matrix

    def test_not_part_of_identity(self, intro_tbn):
        fresh = parse_tbn(render_tbn(intro_tbn))
        intro_tbn.site_matrix
        assert fresh == intro_tbn and hash(fresh) == hash(intro_tbn)

    @given(monomer_lines)
    def test_matches_net_counts(self, lines):
        t = tbn_of(lines)
        assert t.site_matrix == tuple(
            tuple(mon.net_count(SiteType(name)) for mon in t.monomer_types)
            for name in t.site_names()
        )

    @given(monomer_lines, st.data())
    def test_saturation_matches_exposed_sites(self, lines, data):
        t = tbn_of(lines)
        counts = data.draw(
            st.lists(st.integers(0, 3), min_size=t.n_types,
                     max_size=t.n_types)
        )
        p = Polymer(tuple(counts))
        definitional = not any(s.starred for s in exposed_sites(p, t))
        assert is_self_saturated(p, t) == definitional


def validation_error(t):
    """The verdict of ``Tbn._validate`` derived from ``total_site_count``:
    the error text, or None for a valid TBN."""
    for mon, count in zip(t.monomer_types, t.counts):
        if mon.is_limiting and count is INF:
            return f"limiting monomer {mon} must have finite count"
    for name in t.site_names():
        starred = t.total_site_count(SiteType(name, True))
        unstarred = t.total_site_count(SiteType(name, False))
        if starred > unstarred:
            return (
                f"starred sites of {name!r} exceed unstarred "
                f"({starred!r} > {unstarred!r}); "
                "starred sites must be limiting"
            )
    return None


class TestValidate:
    # few names, so that monomers share them
    @given(st.lists(
        st.tuples(
            st.lists(st.builds(SiteType, st.sampled_from("ab"),
                               st.booleans()),
                     min_size=1, max_size=3),
            st.one_of(st.integers(1, 3), st.just(INF)),
        ),
        min_size=1,
        max_size=5,
    ))
    # infinitely many {a} cover two {a*}
    @example([([SiteType("a")], INF), ([SiteType("a", True)], 2)])
    def test_matches_total_site_counts(self, lines):
        t = Tbn(tuple(Monomer(tuple(ss)) for ss, _ in lines),
                tuple(count for _, count in lines))
        try:
            t._validate()
            got = None
        except TbnValidationError as exc:
            got = str(exc)
        assert got == validation_error(t)


class TestPartialConfiguration:
    def test_merge_count_single_pair(self, intro_tbn):
        p = polymer_from_monomers([mono("a*", "b*"), mono("a", "b")], intro_tbn)
        pc = PartialConfiguration.from_polymers([p], intro_tbn)
        assert merge_count(pc) == 1

    def test_merge_count_empty(self):
        starless = parse_tbn("a\nb")
        pc = PartialConfiguration.from_polymers([], starless)
        assert merge_count(pc) == 0

    def test_merge_count_two_pairs(self, excess_tbn):
        pair = polymer_from_monomers([mono("a"), mono("a*")], excess_tbn)
        pc = PartialConfiguration.from_polymers([pair, pair], excess_tbn)
        assert merge_count(pc) == 2

    def test_merge_count_additive_over_disjoint_union(self, excess_tbn):
        pair = polymer_from_monomers([mono("a"), mono("a*")], excess_tbn)
        one = PartialConfiguration.from_polymers([pair], excess_tbn,
                                                 validate=False)
        two = PartialConfiguration.from_polymers([pair, pair], excess_tbn,
                                                 validate=False)
        assert merge_count(two) == 2 * merge_count(one)

    def test_limiting_usage_must_match(self, intro_tbn):
        with pytest.raises(TbnValidationError):
            PartialConfiguration.from_polymers(
                [polymer_from_monomers([mono("a"), mono("b")], intro_tbn)],
                intro_tbn,
            )

    def test_listed_singleton_is_left_implied(self, intro_tbn):
        pair = polymer_from_monomers([mono("a*", "b*"), mono("a", "b")],
                                     intro_tbn)
        single_a = polymer_from_monomers([mono("a")], intro_tbn)
        implied = PartialConfiguration.from_polymers([pair], intro_tbn)
        listed = PartialConfiguration.from_polymers([single_a, pair],
                                                    intro_tbn)
        assert listed == implied
        assert listed.polymers == (pair,)
        assert listed.key() == implied.key()

    def test_singletons_rejected(self, intro_tbn):
        # a limiting singleton left over, listed or implied, exposes both
        # starred sites
        alone = polymer_from_monomers([mono("a*", "b*")], intro_tbn)
        for polymers in ([alone], []):
            with pytest.raises(TbnValidationError):
                PartialConfiguration.from_polymers(polymers, intro_tbn)

    def test_from_polymers_sorts_and_is_idempotent(self, intro_tbn):
        a = Polymer((0, 1, 1, 0))
        b = Polymer((1, 1, 0, 0))
        pc = PartialConfiguration.from_polymers((a, b), intro_tbn,
                                                validate=False)
        assert pc.polymers == (b, a)
        again = PartialConfiguration.from_polymers(pc.polymers, intro_tbn,
                                                   validate=False)
        assert again == pc

    def test_from_polymers_preserves_duplicates(self, excess_tbn):
        pair = polymer_from_monomers([mono("a"), mono("a*")], excess_tbn)
        pc = PartialConfiguration.from_polymers([pair, pair], excess_tbn)
        assert pc.polymers == (pair, pair)
        assert pc.n_polymers == 2


class TestInfinity:
    def test_comparisons(self):
        assert INF > 10**9
        assert not (INF < 5)
        assert INF >= INF
        assert INF == INF
        assert INF != 3

    def test_capping(self, excess_tbn):
        capped = excess_tbn.with_counts_capped(4)
        assert capped.is_finite
        assert sorted(capped.counts) == [2, 4]
