import pytest

from tbntools.core import (
    Monomer,
    PartialConfiguration,
    SiteType,
    TbnValidationError,
    parse_tbn,
    polymer_from_monomers,
)
from tbntools.ipmodel import (
    EQ,
    GE,
    LE,
    VARIABLE_BUDGET,
    Constraint,
    IntegerProgram,
    ModelError,
    Objective,
    Variable,
    big_constant,
    build,
    count_var,
    default_bound,
    exists_var,
    merge_count_coeffs,
)


def mono(*tokens, label=None):
    return Monomer(tuple(SiteType.parse(t) for t in tokens), label=label)


@pytest.fixture
def excess_intro_tbn():
    # 3 copies of {a*,b*}, unbounded supply of the unstarred monomers
    return parse_tbn("a* b*, 3\na b, inf\na, inf\nb, inf")


class TestBounds:
    def test_default_bound_intro(self, intro_tbn):
        assert default_bound(intro_tbn) == 1

    def test_default_bound_with_multiplicity(self):
        t = parse_tbn("a* b*, 3\na b, 3")
        assert default_bound(t) == 3

    def test_default_bound_starless(self):
        assert default_bound(parse_tbn("a\nb")) == 0

    def test_big_constant_intro(self, intro_tbn):
        assert big_constant(intro_tbn) == 3

    def test_big_constant_with_multiplicity(self, excess_intro_tbn):
        assert big_constant(excess_intro_tbn) == 7

    def test_big_constant_starless(self):
        assert big_constant(parse_tbn("a")) == 1


class TestBuild:
    def test_primary_variable_count(self, intro_tbn):
        model = build(intro_tbn, 2)
        assert len(model.program.variables) == 2 * 4 + 2

    def test_tied_variable_count(self, intro_tbn):
        # one Tied per type and slot after the first
        model = build(intro_tbn, 2, symmetry_breaking=True)
        assert len(model.program.variables) == (2 * 4 + 2) + 1 * 4

    def test_encoding_sets_exactly_the_model_variables(self, intro_tbn):
        model = build(intro_tbn, 3, symmetry_breaking=True)
        pair = polymer_from_monomers(
            [mono("a*", "b*"), mono("a", "b")], intro_tbn
        )
        pc = PartialConfiguration.from_polymers([pair], intro_tbn)
        names = {v.name for v in model.program.variables}
        assert set(model.encode(pc)) == names
        assert model.decode(model.encode(pc)) == pc
        assert not any(name.endswith("_p1") and name.startswith("T_")
                       for name in names)

    def test_bound_must_be_positive(self, intro_tbn):
        with pytest.raises(ModelError):
            build(intro_tbn, 0)

    def test_variable_budget_guard(self, intro_tbn):
        # one Count per type and one Exists per slot
        bound = VARIABLE_BUDGET // (intro_tbn.n_types + 1) + 1
        with pytest.raises(ModelError):
            build(intro_tbn, bound)

    def test_saturation_rows_are_net_site_counts(self, translator_tbn):
        model = build(translator_tbn, 2)
        rows = {c.name: c for c in model.program.constraints}
        for j in (1, 2):
            for name in translator_tbn.site_names():
                s = SiteType(name, False)
                want = tuple(
                    (count_var(i, j), mon.net_count(s))
                    for i, mon in enumerate(translator_tbn.monomer_types)
                    if mon.net_count(s) != 0
                )
                row = rows[f"saturate_{name}_p{j}"]
                assert (row.coeffs, row.sense, row.rhs) == (want, GE, 0)

    def test_count_upper_bounds(self, excess_intro_tbn):
        model = build(excess_intro_tbn, 3)
        by_name = {v.name: v for v in model.program.variables}
        i_lim = excess_intro_tbn.index_of(mono("a*", "b*"))
        i_inf = excess_intro_tbn.index_of(mono("a", "b"))
        assert by_name[count_var(i_lim, 1)].upper == 3  # min(T(m), C-1)
        assert by_name[count_var(i_inf, 1)].upper == 6  # C-1


class TestEncodeDecode:
    def intro_stable_pc(self, intro_tbn):
        p = polymer_from_monomers([mono("a*", "b*"), mono("a", "b")], intro_tbn)
        return PartialConfiguration.from_polymers([p], intro_tbn)

    def test_encode_intro_stable(self, intro_tbn):
        model = build(intro_tbn, 2)
        pc = self.intro_stable_pc(intro_tbn)
        a = model.encode(pc)
        i1 = intro_tbn.index_of(mono("a*", "b*"))
        i2 = intro_tbn.index_of(mono("a", "b"))
        assert a[count_var(i1, 1)] == 1
        assert a[count_var(i2, 1)] == 1
        assert a[exists_var(1)] == 1
        assert a[exists_var(2)] == 0
        others = [
            v for k, v in a.items()
            if k not in {count_var(i1, 1), count_var(i2, 1),
                         exists_var(1), exists_var(2)}
        ]
        assert all(v == 0 for v in others)

    def test_encode_satisfies_program(self, intro_tbn):
        model = build(intro_tbn, 2)
        model.program.check(model.encode(self.intro_stable_pc(intro_tbn)))

    def test_roundtrip(self, intro_tbn):
        model = build(intro_tbn, 2)
        pc = self.intro_stable_pc(intro_tbn)
        assert model.decode(model.encode(pc)) == pc

    def test_decode_all_zero_starless(self):
        t = parse_tbn("a\nb")
        # starless network still admits a (degenerate) one-slot model
        model = build(t, 1)
        pc = model.decode({})
        assert pc.polymers == ()

    def test_example_two_assignment(self, excess_intro_tbn):
        # 3 copies of the limiting monomer: two pair polymers and one triple
        t = excess_intro_tbn
        model = build(t, 4)
        i1 = t.index_of(mono("a*", "b*"))
        i2 = t.index_of(mono("a", "b"))
        i3 = t.index_of(mono("a"))
        i4 = t.index_of(mono("b"))
        assignment = {v.name: 0 for v in model.program.variables}
        for j, filled in ((1, {i1: 1, i2: 1}), (2, {i1: 1, i2: 1}),
                          (3, {i1: 1, i3: 1, i4: 1})):
            assignment[exists_var(j)] = 1
            for i, c in filled.items():
                assignment[count_var(i, j)] = c
        pc = model.decode(assignment)
        assert pc.n_polymers == 3
        sizes = sorted(p.size for p in pc.polymers)
        assert sizes == [2, 2, 3]
        assert model.program.objective.evaluate(assignment) == 4

    def test_decode_rejects_violation(self, intro_tbn):
        model = build(intro_tbn, 1)
        bad = {v.name: 0 for v in model.program.variables}
        # limiting monomer unplaced: violates conservation
        with pytest.raises(TbnValidationError) as exc:
            model.decode(bad)
        assert "conserve" in str(exc.value)


class TestSymmetryBreaking:
    def test_sorted_duplicate_slots_feasible(self):
        t = parse_tbn("a* b*, 2\na b, 2")
        model = build(t, 2, symmetry_breaking=True)
        pair = polymer_from_monomers([mono("a*", "b*"), mono("a", "b")], t)
        pc = PartialConfiguration.from_polymers([pair, pair], t)
        model.program.fixed(2).check(model.encode(pc))

    def test_unsorted_assignment_rejected(self, intro_tbn):
        t = parse_tbn("a* b*, 2\na b\na\nb")
        model = build(t, 2, symmetry_breaking=True)
        program = model.program.fixed(3)
        pair = polymer_from_monomers([mono("a*", "b*"), mono("a", "b")], t)
        triple = polymer_from_monomers(
            [mono("a*", "b*"), mono("a"), mono("b")], t
        )
        pc = PartialConfiguration.from_polymers([pair, triple], t)
        good = model.encode(pc)
        program.check(good)

        # swap the two slots: must violate a tie-breaking row
        swapped = dict(good)
        for i in range(t.n_types):
            swapped[count_var(i, 1)], swapped[count_var(i, 2)] = (
                good[count_var(i, 2)], good[count_var(i, 1)],
            )
        violated = False
        for tied_fix in _all_tied_fillings(model, swapped):
            try:
                program.check(tied_fix)
            except TbnValidationError:
                continue
            break
        else:
            violated = True
        assert violated

    def test_converse_forces_exists(self, excess_intro_tbn):
        # the plain model holds the converse rows too
        t = parse_tbn("a* b*, 2\na b, 2")
        model = build(t, 2)
        pair_i = t.index_of(mono("a*", "b*"))
        other_i = t.index_of(mono("a", "b"))
        a = {v.name: 0 for v in model.program.variables}
        for j in (1, 2):
            a[count_var(pair_i, j)] = 1
            a[count_var(other_i, j)] = 1
            a[exists_var(j)] = 1
        model.program.check(a)
        a[exists_var(2)] = 0  # nonempty slot flagged empty
        with pytest.raises(TbnValidationError):
            model.program.check(a)


class TestFixedObjective:
    @pytest.fixture
    def program(self):
        return IntegerProgram(
            (Variable("x", 0, 3), Variable("y", -2, 2)),
            (Constraint((("x", 1), ("y", 1)), LE, 4, "cap"),),
        )

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_objective_becomes_an_equality(self, program, sense):
        objective = Objective(sense, (("x", 2), ("y", -1)), 5)
        fixed = IntegerProgram(
            program.variables, program.constraints, objective
        ).fixed(8)
        assert fixed.objective is None
        assert fixed.variables == program.variables
        assert fixed.constraints[:-1] == program.constraints
        row = fixed.constraints[-1]
        # 2x - y + 5 == 8, in the objective's own sense whatever it is
        assert (row.coeffs, row.sense, row.rhs) == (
            (("x", 2), ("y", -1)), EQ, 3
        )
        fixed.check({"x": 2, "y": 1})
        with pytest.raises(TbnValidationError):
            fixed.check({"x": 2, "y": 0})

    def test_needs_an_objective(self, program):
        with pytest.raises(ModelError):
            program.fixed(0)

    def test_merge_count_row_matches_the_frozen_model(self, intro_tbn):
        model = build(intro_tbn, 2)
        coeffs = merge_count_coeffs(intro_tbn.n_types, 2)
        assert model.program.objective == Objective("min", coeffs)
        row = model.program.fixed(1).constraints[-1]
        assert row == Constraint(coeffs, EQ, 1, "fixed_objective")


def _all_tied_fillings(model, assignment):
    """Yield the assignment with every 0/1 choice of the Tied variables."""
    tied_names = [
        v.name for v in model.program.variables
        if v.name.startswith("T_") and v.lower != v.upper
    ]
    for mask in range(2 ** len(tied_names)):
        filled = dict(assignment)
        for k, name in enumerate(tied_names):
            filled[name] = (mask >> k) & 1
        yield filled
