#!/usr/bin/env python3
"""Replay every exact LP of one benchmark pass and digest the answers.

Run from anywhere:

  python3 tools/lp_replay.py --workloads gridgate,random-oracle,translator \\
      --seed 1 --repeat 7

For each workload it makes perfbench's inputs from ``--seed`` and runs
one untraced pass of perfbench's ``workloads`` module (used read-only,
latency repeats included), with ``solver.solve_lp`` wrapped to record the
objective, rows and bounds of every call.  Then it solves each recorded
LP again, counting the kernel's pivots and its ``check`` calls, and
prints one line per workload: the LP count and how many of those LPs
the kernel started from the upper corner (every structural at its upper
bound), the pivot total and how many of those pivots phase 1 made, the
check total, a digest of the answers and the replay time.  The digest
covers each answer's status, objective, ``x`` and ``reduced``, every
value as its exact numerator and denominator, so an ``int`` and an equal
``Fraction`` digest alike.
The line also gives the pass's call count, the search nodes its calls
report, and a search digest over every call: its question, label and
function, and what it returned: an optimum with its ``stats.route``,
``stats.nodes`` and each answer's key; a pathway's barrier and each of
its configurations' keys; a basis's count vectors.  The time is the
least over ``--repeat`` uncounted replays of the whole list, in ms.

Two checkouts whose lines agree on all but the time take the same number
of pivots to the same answers, and search the same nodes to the same
answers.  Uses only the standard library and the checkout's own
sources.  Exit codes: 0 done, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from tbntools import core, pathways, simplex, solver  # noqa: E402

import workloads  # noqa: E402

Lp = Tuple[object, object, object]  # objective, rows, bounds


def capture(
    workload: str, seed: int
) -> Tuple[List[Lp], List[workloads.Call]]:
    """The (objective, rows, bounds) of every ``solve_lp`` call that one
    untraced pass of ``workload`` makes, in call order, and the pass's
    calls."""
    w = workloads.WORKLOADS[workload]
    tbns = {label: core.parse_tbn(text) for label, text in w.generate(seed)}
    lps: List[Lp] = []
    solve_lp = solver.solve_lp

    def recording(objective, rows, bounds, check=None):
        lps.append((objective, rows, bounds))
        return solve_lp(objective, rows, bounds, check)

    solver.solve_lp = recording
    timer = workloads.Timer()
    try:
        w.run_pass(tbns, timer)
    finally:
        solver.solve_lp = solve_lp
    return lps, timer.calls


def replay(
    lps: List[Lp],
) -> Tuple[List[simplex.LpSolution], int, int, int, int]:
    """Every LP solved again: the answers, the number of LPs started at
    the upper corner, the pivot total, the pivots made in phase 1 and the
    number of ``check`` calls (one per pivot, bound flip and pricing pass
    that finds no entering column).  A kernel prices once per phase, so
    its phase-1 pivots are those made before its second ``_price`` call;
    it started from the upper corner when its first structural is at its
    upper bound at its first."""
    upper = pivots = phase_one = checks = pricings = 0
    kernel_pivot = simplex._Simplex._pivot
    kernel_price = simplex._Simplex._price

    def counting_pivot(*args):
        nonlocal pivots, phase_one
        pivots += 1
        phase_one += pricings == 1
        return kernel_pivot(*args)

    def counting_price(kernel, *args):
        nonlocal upper, pricings
        pricings += 1
        upper += pricings == 1 and kernel.at_upper[0]
        return kernel_price(kernel, *args)

    def check():
        nonlocal checks
        checks += 1

    simplex._Simplex._pivot = counting_pivot
    simplex._Simplex._price = counting_price
    answers = []
    try:
        for lp in lps:
            pricings = 0
            answers.append(simplex.solve_lp(*lp, check))
    finally:
        simplex._Simplex._pivot = kernel_pivot
        simplex._Simplex._price = kernel_price
    return answers, upper, pivots, phase_one, checks


def seconds(lps: List[Lp]) -> float:
    """The time every LP takes to solve again, uncounted."""
    start = time.perf_counter()
    for lp in lps:
        simplex.solve_lp(*lp)
    return time.perf_counter() - start


def _exact(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def digest(answers: List[simplex.LpSolution]) -> str:
    """A hash of every answer's status and exact values."""
    h = hashlib.sha256()
    for a in answers:
        fields = [a.status]
        if a.objective is not None:
            fields.append(_exact(a.objective))
        for values in (a.x, a.reduced):
            fields.append(",".join(map(_exact, values or ())))
        h.update(("|".join(fields) + "\n").encode())
    return h.hexdigest()[:16]


def search_fields(result) -> List[object]:
    """What a call returned, as the search digest reads it."""
    if isinstance(result, pathways.Pathway):
        return [result.barrier()] + [c.key() for c in result.configurations]
    if isinstance(result, list):  # a polymer basis
        return [p.counts for p in result]
    if result is None:
        return []
    return [result.optimum, result.stats.route, result.stats.nodes] + [
        pc.key() for pc in result.solutions
    ]


def search_digest(calls: List[workloads.Call]) -> str:
    """A hash of every call's question, label, function and answer."""
    h = hashlib.sha256()
    for call in calls:
        fields = [call.question, call.label, call.fn, call.failed]
        h.update((repr(fields + search_fields(call.result)) + "\n").encode())
    return h.hexdigest()[:16]


def report(workload: str, seed: int, repeat: int) -> str:
    lps, calls = capture(workload, seed)
    answers, upper, pivots, phase_one, checks = replay(lps)
    best = min(seconds(lps) for _ in range(repeat))
    nodes = sum(c.result.stats.nodes for c in calls
                if hasattr(c.result, "stats"))
    return (f"{workload}: {len(lps)} LPs ({upper} from the upper corner), "
            f"{pivots} pivots ({phase_one} in phase 1), {checks} checks, "
            f"digest {digest(answers)}, {len(calls)} calls, {nodes} nodes, "
            f"search digest {search_digest(calls)}, "
            f"replay {best * 1e3:.1f} ms (best of {repeat})")


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS),
                   help="comma-separated perfbench workload names")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=1,
                   help="replays of each workload's LPs; the least time "
                        "is printed")
    args = p.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.repeat < 1:
        p.error(f"unknown workload {unknown}" if unknown
                else "--repeat must be at least 1")
    for name in names:
        print(report(name, args.seed, args.repeat), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
