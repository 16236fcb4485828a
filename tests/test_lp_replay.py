"""``tools/lp_replay.py``: its digest, and its line for one workload."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import lp_replay  # noqa: E402
import workloads  # noqa: E402
from tbntools import pathways  # noqa: E402
from tbntools.core import (  # noqa: E402
    PartialConfiguration,
    Polymer,
    parse_tbn,
)
from tbntools.simplex import LpSolution  # noqa: E402
from tbntools.solver import EnumerationResult, SolveStats  # noqa: E402


def test_digest_reads_exact_values_not_their_types():
    half = Fraction(1, 2)
    as_ints = LpSolution("optimal", 1, [0, half], [half, 0])
    as_fractions = LpSolution(
        "optimal", Fraction(1), [Fraction(0), half], [half, Fraction(0)])
    assert lp_replay.digest([as_ints]) == lp_replay.digest([as_fractions])
    moved = LpSolution("optimal", 1, [half, 0], [half, 0])
    assert lp_replay.digest([moved]) != lp_replay.digest([as_ints])
    assert lp_replay.digest([LpSolution("infeasible")]) != lp_replay.digest(
        [])


def test_search_digest_reads_route_nodes_and_answers():
    t = parse_tbn("a*, 1\na, 1")
    pc = PartialConfiguration.from_polymers([Polymer((1, 1))], t)

    def call(result):
        return workloads.Call("stable", "x", "stable_configs", 0.1,
                              result=result)

    base = lp_replay.search_digest(
        [call(EnumerationResult(1, [pc], SolveStats(3, "direct")))])
    for changed in (EnumerationResult(1, [pc], SolveStats(4, "direct")),
                    EnumerationResult(1, [pc], SolveStats(3, "basis")),
                    EnumerationResult(1, [], SolveStats(3, "direct"))):
        assert lp_replay.search_digest([call(changed)]) != base
    full = pathways.full_configuration(pc)
    path = pathways.Pathway((full,))
    assert lp_replay.search_fields(path) == [0, full.key()]
    assert lp_replay.search_fields([Polymer((1, 1))]) == [(1, 1)]


def test_gridgate_pass_keeps_its_pivots_and_answers(capsys):
    assert lp_replay.main(["--workloads", "gridgate", "--seed", "1"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    # one root LP per instance; the counts and the digest pin the
    # kernel's pivot path and its exact answers, and the search digest
    # each call's route, node count and answers; every LP with rows
    # starts from the upper corner, which its rows all meet
    assert line.startswith("gridgate: 28 LPs (26 from the upper corner), "
                           "488 pivots (0 in phase 1), 592 checks, "
                           "digest 82a27664ac51ecbe, 28 calls, 56 nodes, "
                           "search digest 4b67587a5631ecc3, replay ")


def test_unknown_workload_is_an_argument_error():
    with pytest.raises(SystemExit) as exit_:
        lp_replay.main(["--workloads", "nosuch"])
    assert exit_.value.code == 2
