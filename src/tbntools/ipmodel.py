"""Integer-program formulation of the stable-configurations problem.

The model describes a partial configuration through ``B`` polymer slots:
``Count(m, j)`` counts monomer type ``m`` in slot ``j``, and boolean
``Exists(j)`` flags a nonempty slot.  Constraints enforce monomer
conservation, self-saturation of every slot, and that nonempty slots
contain a limiting monomer; a big-M converse row ties ``Exists`` exactly
to nonemptiness.  The objective minimizes total merges.

With ``symmetry_breaking``, lexicographic rows over auxiliary ``Tied``
booleans force the slots into non-increasing order, so each
configuration appears exactly once; ``IntegerProgram.fixed`` freezes the
objective into an equality, as ``export-lp --fixed-objective`` writes it.

The ``IntegerProgram`` carrier is generic (bounded integer variables,
linear rows, a linear objective) and decoupled from any solver.  Every
objective is minimized and has no constant term: the merge count here,
and the cover program's in ``hilbert``, are both of that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .core import (
    INF,
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    TbnValidationError,
)
from .simplex import EQ, GE, LE

VARIABLE_BUDGET = 200_000


class ModelError(TbnError):
    """Ill-formed integer program or model request."""


@dataclass(frozen=True)
class Variable:
    name: str
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ModelError(
                f"variable {self.name} has empty domain "
                f"[{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class Constraint:
    """Linear row: sum(coeffs[v] * v) <sense> rhs."""

    coeffs: Tuple[Tuple[str, int], ...]
    sense: str
    rhs: int
    name: str = ""

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return sum(c * assignment.get(v, 0) for v, c in self.coeffs)

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        lhs = self.evaluate(assignment)
        if self.sense == LE:
            return lhs <= self.rhs
        if self.sense == GE:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class Objective:
    """Linear objective sum(coeffs[v] * v), always minimized."""

    coeffs: Tuple[Tuple[str, int], ...]

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return sum(c * assignment.get(v, 0) for v, c in self.coeffs)


@dataclass(frozen=True)
class IntegerProgram:
    """A bounded integer linear program, independent of any solver."""

    variables: Tuple[Variable, ...]
    constraints: Tuple[Constraint, ...]
    objective: Optional[Objective] = None

    def __post_init__(self) -> None:
        names = {v.name for v in self.variables}
        if len(names) != len(self.variables):
            raise ModelError("duplicate variable names")
        for con in self.constraints:
            for var, _ in con.coeffs:
                if var not in names:
                    raise ModelError(
                        f"constraint {con.name!r} references "
                        f"undeclared variable {var!r}"
                    )
        if self.objective is not None:
            for var, _ in self.objective.coeffs:
                if var not in names:
                    raise ModelError(
                        f"objective references undeclared variable {var!r}"
                    )

    def check(self, assignment: Mapping[str, int]) -> None:
        """Raise if the assignment violates bounds or a constraint."""
        for v in self.variables:
            val = assignment.get(v.name, 0)
            if not v.lower <= val <= v.upper:
                raise TbnValidationError(
                    f"variable {v.name} = {val} outside [{v.lower}, {v.upper}]"
                )
        for con in self.constraints:
            if not con.satisfied_by(assignment):
                raise TbnValidationError(
                    f"assignment violates constraint {con.name!r}"
                )

    def fixed(self, value: int) -> "IntegerProgram":
        """The program without its objective, plus the row
        ``coeffs = value`` that holds the objective at ``value``."""
        if self.objective is None:
            raise ModelError("only a program with an objective can be fixed")
        row = Constraint(self.objective.coeffs, EQ, value, "fixed_objective")
        return IntegerProgram(self.variables, self.constraints + (row,))


def count_var(i: int, j: int) -> str:
    return f"C_m{i}_p{j}"


def exists_var(j: int) -> str:
    return f"E_p{j}"


def tied_var(i: int, j: int) -> str:
    return f"T_m{i}_p{j}"


def merge_count_coeffs(
    n_types: int, bound: int
) -> Tuple[Tuple[str, int], ...]:
    """The merge count over ``bound`` slots: every placed monomer counts
    one, and every nonempty slot takes one back."""
    coeffs: List[Tuple[str, int]] = []
    for j in range(1, bound + 1):
        for i in range(n_types):
            coeffs.append((count_var(i, j), 1))
        coeffs.append((exists_var(j), -1))
    return tuple(coeffs)


def default_bound(t: Tbn) -> int:
    """The slot bound: the total count of limiting monomers.  Every
    polymer of a stable configuration holds one, so this many slots hold
    every stable configuration."""
    total = 0
    for mon, count in zip(t.monomer_types, t.counts):
        if mon.is_limiting:
            total += count  # limiting counts are finite by invariant
    return total


def big_constant(t: Tbn) -> int:
    """Upper bound on polymer size in any merge-minimal partial configuration.

    Worst case: one polymer holds every limiting monomer and each starred
    site recruits its own unique partner monomer.
    """
    total = 0
    for mon, count in zip(t.monomer_types, t.counts):
        if mon.is_limiting:
            total += count * mon.starred_site_count
    return 1 + total


@dataclass(frozen=True)
class StableConfigsModel:
    """The IP for a specific TBN and slot bound, plus the variable mapping."""

    program: IntegerProgram
    tbn: Tbn
    bound: int
    symmetry_breaking: bool

    def encode(self, pc: PartialConfiguration) -> Dict[str, int]:
        """Assignment representing a partial configuration (slots in order)."""
        if pc.n_polymers > self.bound:
            raise ModelError(
                f"{pc.n_polymers} polymers exceed slot bound {self.bound}"
            )
        assignment: Dict[str, int] = {}
        for j in range(1, self.bound + 1):
            poly = pc.polymers[j - 1] if j <= pc.n_polymers else None
            assignment[exists_var(j)] = int(poly is not None)
            for i in range(self.tbn.n_types):
                assignment[count_var(i, j)] = (
                    poly.counts[i] if poly is not None else 0
                )
        if self.symmetry_breaking:
            assignment.update(self._tied_values(assignment))
        return assignment

    def _tied_values(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        values: Dict[str, int] = {}
        m = self.tbn.n_types
        for j in range(2, self.bound + 1):
            still_tied = True
            for i in range(1, m + 1):
                if still_tied:
                    prev = assignment[count_var(i - 1, j - 1)]
                    cur = assignment[count_var(i - 1, j)]
                    still_tied = prev == cur
                values[tied_var(i, j)] = int(still_tied)
        return values

    def decode(self, assignment: Mapping[str, int]) -> PartialConfiguration:
        """Inverse of encode; validates against the program first.

        Slots holding a single monomer are folded back into implied
        singletons by ``PartialConfiguration.from_polymers``.
        """
        self.program.check(assignment)
        m = self.tbn.n_types
        slots = (
            tuple(assignment.get(count_var(i, j), 0) for i in range(m))
            for j in range(1, self.bound + 1)
        )
        return PartialConfiguration.from_polymers(map(Polymer, slots), self.tbn)


def build(
    t: Tbn, bound: int, symmetry_breaking: bool = False
) -> StableConfigsModel:
    """Build the stable-configurations IP over ``bound`` polymer slots."""
    if bound < 1:
        raise ModelError(f"slot bound must be >= 1, got {bound}")
    m = t.n_types
    n_vars = bound * (m + 1) + ((bound - 1) * m if symmetry_breaking else 0)
    if n_vars > VARIABLE_BUDGET:
        raise ModelError(
            f"model would need {n_vars} variables, "
            f"budget is {VARIABLE_BUDGET}"
        )

    C = big_constant(t)
    limiting = set(t.limiting_indices)
    slots = range(1, bound + 1)

    variables: List[Variable] = []
    for j in slots:
        for i in range(m):
            if t.counts[i] is INF:
                upper = max(C - 1, 0)
            else:
                upper = min(t.counts[i], max(C - 1, 0))
            variables.append(Variable(count_var(i, j), 0, upper))
        variables.append(Variable(exists_var(j), 0, 1))

    constraints: List[Constraint] = []

    # monomer conservation: limiting types fully placed, others supply-capped
    for i in range(m):
        coeffs = tuple((count_var(i, j), 1) for j in slots)
        if i in limiting:
            constraints.append(
                Constraint(coeffs, EQ, t.counts[i], f"conserve_m{i}")
            )
        elif t.counts[i] is not INF:
            constraints.append(
                Constraint(coeffs, LE, t.counts[i], f"supply_m{i}")
            )
        # infinite supply: no row needed

    # self-saturation: per slot and site name, net count must be nonnegative
    saturation = list(zip(t.site_names(), t.site_matrix_nonzeros))
    for j in slots:
        for name, nonzeros in saturation:
            coeffs = tuple((count_var(i, j), a) for i, a in nonzeros)
            if coeffs:
                constraints.append(
                    Constraint(coeffs, GE, 0, f"saturate_{name}_p{j}")
                )

    # nonempty slots contain at least one limiting monomer
    for j in slots:
        coeffs = tuple((count_var(i, j), 1) for i in sorted(limiting))
        coeffs += ((exists_var(j), -1),)
        constraints.append(Constraint(coeffs, GE, 0, f"nonempty_p{j}"))

    # converse of the nonempty rule: empty Exists forces an empty slot
    for j in slots:
        coeffs = tuple((count_var(i, j), 1) for i in sorted(limiting))
        coeffs += ((exists_var(j), -C),)
        constraints.append(Constraint(coeffs, LE, 0, f"converse_p{j}"))

    if symmetry_breaking:
        # slot 1 has no predecessor, so its Tied columns start at slot 2
        for j in range(2, bound + 1):
            for i in range(1, m + 1):
                variables.append(Variable(tied_var(i, j), 0, 1))
        for j in range(2, bound + 1):
            for i in range(1, m + 1):
                cv_prev = count_var(i - 1, j - 1)
                cv_cur = count_var(i - 1, j)
                if i > 1:
                    constraints.append(
                        Constraint(
                            ((tied_var(i, j), 1), (tied_var(i - 1, j), -1)),
                            LE,
                            0,
                            f"tie_chain_m{i}_p{j}",
                        )
                    )
                # Tied => equal counts in slots j-1, j
                constraints.append(
                    Constraint(
                        ((cv_prev, 1), (cv_cur, -1), (tied_var(i, j), C)),
                        LE,
                        C,
                        f"tie_eq_hi_m{i}_p{j}",
                    )
                )
                constraints.append(
                    Constraint(
                        ((cv_prev, 1), (cv_cur, -1), (tied_var(i, j), -C)),
                        GE,
                        -C,
                        f"tie_eq_lo_m{i}_p{j}",
                    )
                )
                # tie broken exactly here => strict decrease
                if i == 1:
                    # Tied(m_0, j) == 1 by convention
                    constraints.append(
                        Constraint(
                            ((cv_prev, 1), (cv_cur, -1), (tied_var(i, j), C)),
                            GE,
                            1,
                            f"tie_break_m{i}_p{j}",
                        )
                    )
                else:
                    constraints.append(
                        Constraint(
                            (
                                (cv_prev, 1),
                                (cv_cur, -1),
                                (tied_var(i, j), C),
                                (tied_var(i - 1, j), -C),
                            ),
                            GE,
                            1 - C,
                            f"tie_break_m{i}_p{j}",
                        )
                    )

    objective = Objective(merge_count_coeffs(m, bound))
    program = IntegerProgram(tuple(variables), tuple(constraints), objective)
    return StableConfigsModel(program, t, bound, symmetry_breaking)
