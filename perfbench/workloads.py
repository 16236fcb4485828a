"""The benchmark workloads: their inputs, timed calls and correctness gates.

A workload generates ``.tbn`` text from the seed, parses it, and then runs
one *pass*: a fixed list of calls into the public API, each timed on its
own.  Gates check every call's answer after the timed section; a gate
that fails makes the run exit non-zero, and is never counted as a
failure or folded into a time.

Workloads (why each was chosen is in README.md):

* ``gridgate``: ``stable_configs`` (witness only) on grid-gate n = 1..7,
  fuel 2 and inf, plain and caption-literal: 28 instances.
* ``random-oracle``: ``stable_configs(all=True)`` on 100 networks of the
  oracle-equivalence distribution, each under one fixed time budget.
* ``translator``: polymer basis, ``stable_via_basis`` and three
  ``find_pathway`` queries on the translator cascades of length 5 and 6,
  with ``stable_via_basis`` repeated between the queries.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from tbntools import core, hilbert, pathways, solver

import instances

# Per-instance time budget of random-oracle, in seconds.  Fixed once from
# the pool's per-instance times on the reference machine (README.md): the
# slowest instance that finishes took at most 5.4 s, and the two that do
# not finish run past 40 s, so even with the run-to-run noise of up to
# 1.4x measured there no instance comes near 0.9 of the budget.  It is
# never changed to improve a number; the instances that exhaust it stay
# in the set and count as failed.
ORACLE_BUDGET_S = 10.0
# The pool is drawn once from this generator seed.  ``--seed`` only sets
# the order in which it is solved: fresh networks per seed would make the
# heavy-tailed times spread more between seeds than any bound allows.
ORACLE_POOL_SEED = 1
ORACLE_POOL_SIZE = 100

GRID_SIZES = tuple(range(1, 8))
GRID_FUELS = (2, "inf")
TRANSLATOR_SIZES = (5, 6)
TRANSLATOR_BASIS_SIZES = {5: 45, 6: 57}
# stable_via_basis takes 0.1-0.2 s, so the pass's one call per cascade
# would make translator's stable_p90_ms rest on two samples taken at one
# moment of a machine whose speed drifts by up to 1.4x from second to
# second.  After every pathway query the calls of both cascades are
# repeated, in turn, this many times: 50 samples over about a third of
# the pass, enough for the 90th percentile to see the machine's slow
# spells as well as its fast ones.  The repeats count in stable_p90_ms
# only, and a traced pass makes none.
VIA_REPEATS = 8


@dataclass
class Call:
    """One timed call into the package and what it returned."""

    question: str  # "stable", "basis" or "pathway"
    label: str
    fn: str  # name of the package function called
    seconds: float
    args: tuple = ()
    result: object = None
    failed: bool = False
    repeat: bool = False  # a latency sample outside the pass's own calls


@dataclass
class Timer:
    """Times each call; with a tracer, also opens a span ``op.<name>``."""

    tracer: Optional[object] = None
    calls: List[Call] = field(default_factory=list)

    def __call__(
        self,
        question: str,
        label: str,
        fn: Callable,
        *args,
        exhausted: Callable[[object], bool] = lambda result: False,
        repeat: bool = False,
    ) -> Call:
        span = (
            self.tracer.span("op." + fn.__name__)
            if self.tracer is not None
            else nullcontext()
        )
        result: object = None
        failed = False
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args)
        except Exception:  # an operation that raised counts as failed
            failed = True
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        call = Call(question, label, fn.__name__, seconds, args, result,
                    failed or exhausted(result), repeat)
        self.calls.append(call)
        return call


def solution_keys(result) -> List[Tuple[Tuple[int, ...], ...]]:
    return sorted(tuple(p.counts for p in pc.polymers)
                  for pc in result.solutions)


def _limiting_covered(pc, t) -> bool:
    """Every monomer whose singleton exposes a starred site is used up by
    the listed polymers, so no unsaturated singleton is left over."""
    usage = [sum(p.counts[i] for p in pc.polymers) for i in range(t.n_types)]
    for i, count in enumerate(t.counts):
        unit = core.Polymer(tuple(int(j == i) for j in range(t.n_types)))
        if not core.is_self_saturated(unit, t) and usage[i] != count:
            return False
    return True


class Workload:
    name = ""
    min_passes = 1

    def generate(self, seed: int) -> List[Tuple[str, str]]:
        """(label, .tbn text) pairs; the same seed gives the same list."""
        raise NotImplementedError

    def run_pass(self, tbns: Dict[str, core.Tbn], timer: Timer) -> None:
        raise NotImplementedError

    def check(self, tbns: Dict[str, core.Tbn], calls: List[Call]) -> List[str]:
        """Descriptions of every wrong answer among ``calls``."""
        raise NotImplementedError


class Gridgate(Workload):
    name = "gridgate"
    # One pass takes 11-17 s, about as long as the machine's speed holds
    # still, so a run of one pass reads whichever spell it fell in; two
    # passes average over more spells.  The other workloads' passes take
    # 20-45 s.
    min_passes = 2

    def generate(self, seed):
        items = [
            (f"n{n}-fuel{fuel}-{'caption' if caption else 'plain'}",
             instances.gridgate(n, fuel, caption))
            for n in GRID_SIZES
            for fuel in GRID_FUELS
            for caption in (False, True)
        ]
        random.Random(seed).shuffle(items)
        return items

    def run_pass(self, tbns, timer):
        for label, t in tbns.items():
            timer("stable", label, solver.stable_configs, t,
                  exhausted=lambda r: not r.complete)

    def check(self, tbns, calls):
        errors = []
        for call in calls:
            if call.failed:
                continue
            t = tbns[call.label]
            n = int(call.label.split("-")[0][1:])
            r = call.result
            if r.optimum != n or len(r.solutions) != 1:
                errors.append(f"{call.label}: optimum {r.optimum}, want {n}")
                continue
            witness = r.solutions[0]
            if core.merge_count(witness) != n:
                errors.append(f"{call.label}: witness has "
                              f"{core.merge_count(witness)} merges")
            if not all(core.is_self_saturated(p, t)
                       for p in witness.polymers):
                errors.append(f"{call.label}: witness polymer unsaturated")
            if not _limiting_covered(witness, t):
                errors.append(f"{call.label}: limiting monomer left over")
        return errors


class RandomOracle(Workload):
    name = "random-oracle"

    def __init__(self) -> None:
        self._oracle: Dict[str, object] = {}

    def generate(self, seed):
        rng = random.Random(ORACLE_POOL_SEED)
        items = [(f"net{i:03d}", instances.random_network(rng))
                 for i in range(ORACLE_POOL_SIZE)]
        random.Random(seed).shuffle(items)
        return items

    def run_pass(self, tbns, timer):
        options = solver.StableOptions(
            all=True, budget=solver.Budget(max_time=ORACLE_BUDGET_S)
        )
        for label, t in tbns.items():
            timer("stable", label, solver.stable_configs, t, options,
                  exhausted=lambda r: not r.complete)

    def check(self, tbns, calls):
        errors = []
        for call in calls:
            if call.failed:
                continue
            want = self._oracle.get(call.label)
            if want is None:
                want = self._oracle[call.label] = solver.brute_force_stable(
                    tbns[call.label])
            got = call.result
            if got.optimum != want.optimum:
                errors.append(f"{call.label}: optimum {got.optimum}, "
                              f"oracle {want.optimum}")
            elif solution_keys(got) != solution_keys(want):
                errors.append(f"{call.label}: solution set differs from "
                              f"the oracle's")
        return errors


def _fully_merged(t: core.Tbn) -> pathways.FullConfiguration:
    whole = core.Polymer(t.counts)
    return pathways.FullConfiguration.from_polymers([whole], t)


class Translator(Workload):
    name = "translator"

    def generate(self, seed):
        # the cascades are fixed; the seed does not change them
        return [(f"k{k}", instances.translator(k)) for k in TRANSLATOR_SIZES]

    def run_pass(self, tbns, timer):
        bases, stable = {}, {}
        for k in TRANSLATOR_SIZES:
            t = tbns[f"k{k}"]
            basis = timer("basis", f"k{k}", hilbert.polymer_basis, t)
            if basis.failed:
                return
            bases[k] = basis.result
            via = timer("stable", f"k{k}", hilbert.stable_via_basis, t,
                        basis.result)
            if via.failed:
                return
            stable[k] = [pathways.full_configuration(pc)
                         for pc in via.result.solutions]
        if len(stable[6]) != 2 or not stable[5]:
            return  # a wrong answer, which the gates report
        queries = [
            ("k6 A->B", stable[6][0], stable[6][1]),
            ("k6 merged->A", _fully_merged(tbns["k6"]), stable[6][0]),
            ("k5 A->merged", stable[5][0], _fully_merged(tbns["k5"])),
        ]
        # a traced pass measures layers, so it makes the pass's calls only
        repeats = VIA_REPEATS if timer.tracer is None else 0
        for label, start, goal in queries:
            timer("pathway", label, pathways.find_pathway, start, goal)
            for _ in range(repeats):
                for k in TRANSLATOR_SIZES:
                    timer("stable", f"k{k}", hilbert.stable_via_basis,
                          tbns[f"k{k}"], bases[k], repeat=True)

    def check(self, tbns, calls):
        errors = [f"{c.question} {c.label}: raised"
                  for c in calls if c.failed]
        done = {(c.question, c.label): c for c in calls if not c.failed}
        for k in TRANSLATOR_SIZES:
            t = tbns[f"k{k}"]
            basis = done.get(("basis", f"k{k}"))
            if basis is None:
                errors.append(f"k{k}: no polymer basis")
                continue
            if len(basis.result) != TRANSLATOR_BASIS_SIZES[k]:
                errors.append(f"k{k}: basis has {len(basis.result)} "
                              f"elements, want {TRANSLATOR_BASIS_SIZES[k]}")
            if not all(core.is_self_saturated(p, t) for p in basis.result):
                errors.append(f"k{k}: unsaturated basis element")
            vias = [c for c in calls if not c.failed
                    and (c.question, c.label) == ("stable", f"k{k}")]
            if not vias:
                errors.append(f"k{k}: no stable_via_basis answer")
                continue
            want = solver.brute_force_stable(t)
            if any(via.result.optimum != want.optimum
                   or solution_keys(via.result) != solution_keys(want)
                   for via in vias):
                errors.append(f"k{k}: stable_via_basis differs from "
                              f"brute_force_stable")
        for label, barrier in PATHWAY_BARRIERS.items():
            call = done.get(("pathway", label))
            if call is None:
                errors.append(f"{label}: no pathway query")
            else:
                errors += _check_pathway(label, call, barrier)
        return errors


# Known barriers.  k6 A->B: 2, the minimum the exact search finds.  A
# descent from the fully merged polymer to a saturated configuration can
# split along it all the way (0).  An ascent to the fully merged polymer
# needs exactly its merge-count rise (None).
PATHWAY_BARRIERS = {"k6 A->B": 2, "k6 merged->A": 0, "k5 A->merged": None}


def _check_pathway(label: str, call: Call, barrier: Optional[int]):
    path = call.result
    start, goal = call.args
    if path is None:
        return [f"{label}: no pathway found"]
    errors = []
    try:
        path.validate()
    except core.TbnError as exc:
        errors.append(f"{label}: invalid pathway: {exc}")
    ends = (path.configurations[0].key(), path.configurations[-1].key())
    if ends != (start.key(), goal.key()):
        errors.append(f"{label}: wrong endpoints")
    if barrier is None:
        barrier = goal.merge_count() - start.merge_count()
    if path.barrier() != barrier:
        errors.append(f"{label}: barrier {path.barrier()}, want {barrier}")
    return errors


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Gridgate(), RandomOracle(), Translator())
}
