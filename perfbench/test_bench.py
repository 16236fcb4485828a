"""Tests of the benchmark itself: tracer robustness and correctness gates.

Run from the repository root:  python3 -m pytest perfbench
"""

import functools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

assert run.package_on_path()

import layers  # noqa: E402
import workloads  # noqa: E402
from tbntools import core, pathways, solver  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent


def intro_tbn():
    return core.parse_tbn("m1: a* b*\nm2: a b\nm3: a\nm4: b\n")


def traced_solve(hooks):
    tracer = Tracer()
    tracer.install(hooks)
    try:
        solver.stable_configs(intro_tbn(), solver.StableOptions(all=True))
    finally:
        tracer.uninstall()
    return tracer


def totals(tracer):
    incl, own = tracer.times_ms()
    return layers.Totals(dict(tracer.counts), incl, own, 0, 1.0, 1.0)


# -- tracer ------------------------------------------------------------------

def test_all_hooks_present_and_restored():
    original = solver.solve_min
    tracer = traced_solve(layers.HOOKS)
    assert solver.solve_min is original
    assert tracer.missing == [] and tracer.broken == []
    metrics, notes = layers.report(tracer, totals(tracer))
    assert notes == []
    assert set(metrics) == {m.name for m in layers.METRICS}
    assert metrics["solver.bb_nodes"]["value"] >= 1
    assert metrics["simplex.lp_calls"]["value"] >= 1


def test_missing_hook_makes_its_metrics_absent_not_zero():
    renamed = [
        replace(h, attr="solve_min_renamed") if h.span == layers.BB else h
        for h in layers.HOOKS
    ]
    tracer = traced_solve(renamed)
    assert [h.path for h in tracer.missing] == [
        "tbntools.solver.solve_min_renamed"]
    metrics, notes = layers.report(tracer, totals(tracer))
    for name in ("solver.bb_nodes", "solver.bb_self_ms",
                 "solver.budget_exhausted", "hilbert.via_basis_self_ms"):
        assert name not in metrics
        assert any(note.startswith(name + " absent") for note in notes)
    assert any("solve_min_renamed missing" in note for note in notes)
    # the other layers are still measured
    assert metrics["simplex.lp_calls"]["value"] >= 1
    assert metrics["solver.enum_nodes"]["value"] >= 1


def test_result_of_unknown_shape_marks_hook_broken():
    def expects_old_shape(counts, args, result):
        counts["x"] += result.no_such_field

    hooks = [
        Hook(h.module, h.attr, h.span, expects_old_shape)
        if h.span == layers.ENUM else h
        for h in layers.HOOKS
    ]
    tracer = traced_solve(hooks)
    assert [h.path for h in tracer.broken] == [
        "tbntools.solver.enumerate_assignments"]
    metrics, notes = layers.report(tracer, totals(tracer))
    assert "solver.enum_nodes" not in metrics
    assert "solver.enum_self_ms" not in metrics
    assert "solver.bb_nodes" in metrics


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    incl, own = tracer.times_ms()
    assert own["outer"] == pytest.approx(incl["outer"] - incl["inner"])
    assert own["inner"] == incl["inner"]


def test_generator_hook_times_each_resumption():
    t = intro_tbn()
    config = pathways.all_singletons(t)
    tracer = Tracer()
    tracer.install([Hook("tbntools.pathways", "merge_moves",
                         layers.MERGE, generator=True)])
    try:
        moves = list(pathways.merge_moves(config))
    finally:
        tracer.uninstall()
    assert tracer.counts[layers.MERGE + ".calls"] == 1
    assert tracer.counts[layers.MERGE + ".yields"] == len(moves) > 0
    assert len(tracer._name) == len(moves) + 1


# -- gates -------------------------------------------------------------------

def call(question, label, fn, result, args=()):
    return workloads.Call(question, label, fn, 0.0, args, result)


def test_gridgate_gate():
    w = workloads.Gridgate()
    label = "n2-fuel2-plain"
    t = core.parse_tbn(dict(w.generate(0))[label])
    good = solver.stable_configs(t)
    assert w.check({label: t}, [call("stable", label, "stable_configs",
                                     good)]) == []
    wrong = replace(good, optimum=3)
    assert w.check({label: t}, [call("stable", label, "stable_configs",
                                     wrong)])
    # no polymer at all: the gate monomer is left over as a singleton
    empty = core.PartialConfiguration.from_polymers([], t, validate=False)
    assert w.check({label: t}, [call("stable", label, "stable_configs",
                                     replace(good, solutions=[empty]))])
    # G + H1 + V1 has n = 2 merges but leaves x2_2* exposed
    unit = [core.Polymer(tuple(int(j == t.monomer_by_label(m))
                               for j in range(t.n_types)))
            for m in ("G", "H1", "V1")]
    open_polymer = core.PartialConfiguration.from_polymers(
        [unit[0] + unit[1] + unit[2]], t, validate=False)
    errors = w.check({label: t}, [call("stable", label, "stable_configs",
                                       replace(good,
                                               solutions=[open_polymer]))])
    assert errors == [f"{label}: witness polymer unsaturated"]


def test_random_oracle_gate():
    w = workloads.RandomOracle()
    label, text = w.generate(0)[0]
    t = core.parse_tbn(text)
    good = solver.stable_configs(t, solver.StableOptions(all=True))
    ok = call("stable", label, "stable_configs", good)
    assert w.check({label: t}, [ok]) == []
    assert w.check({label: t}, [replace(ok, result=replace(
        good, optimum=good.optimum + 1))])
    assert w.check({label: t}, [replace(ok, result=replace(
        good, solutions=good.solutions + good.solutions))])


def test_translator_gates():
    w = workloads.Translator()
    tbns = {label: core.parse_tbn(text) for label, text in w.generate(0)}
    t5 = tbns["k5"]
    short = [core.Polymer(t5.counts)] * 44
    errors = w.check(tbns, [call("basis", "k5", "polymer_basis", short)])
    assert any("basis has 44 elements, want 45" in e for e in errors)
    # a basis of the right size, then a right stable answer and a repeat
    # of it that is one merge off
    basis = [core.Polymer(t5.counts)] * 45
    right = solver.brute_force_stable(t5)
    for optimum, wrong in ((right.optimum, False),
                           (right.optimum + 1, True)):
        errors = w.check(tbns, [
            call("basis", "k5", "polymer_basis", basis),
            call("stable", "k5", "stable_via_basis", right),
            call("stable", "k5", "stable_via_basis",
                 replace(right, optimum=optimum)),
        ])
        assert any(e.startswith("k5: stable_via_basis differs")
                   for e in errors) is wrong



def test_latency_repeats_stay_out_of_wall_time():
    timer = workloads.Timer()
    timer("stable", "k5", max, 1, 2)
    timer("stable", "k5", max, 1, 2, repeat=True)
    first, second = timer.calls
    assert second.repeat and not first.repeat
    assert run.pass_seconds(timer) == first.seconds
    assert len(run.stable_ms(timer.calls)) == 2


def test_pathway_gate():
    t = intro_tbn()
    stable = pathways.full_configuration(
        solver.stable_configs(t, solver.StableOptions(all=True))
        .solutions[0])
    merged = workloads._fully_merged(t)
    path = pathways.find_pathway(stable, merged)
    c = call("pathway", "up", "find_pathway", path, (stable, merged))
    assert workloads._check_pathway("up", c, None) == []
    assert workloads._check_pathway("up", c, path.barrier() + 1)
    assert workloads._check_pathway("up", replace(c, args=(merged, stable)),
                                    None)
    jump = pathways.Pathway((stable, merged))  # two merges in one step
    errors = workloads._check_pathway("up", replace(c, result=jump), None)
    assert len(errors) == 1 and "invalid pathway" in errors[0]


# -- whole runs ------------------------------------------------------------

def last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def small_gridgate(monkeypatch):
    monkeypatch.setattr(workloads, "GRID_SIZES", (1, 2))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_run_prints_every_end_to_end_metric(small_gridgate, capsys):
    code = run.main(["--workload", "gridgate", "--seed", "3",
                     "--seconds", "0", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # gridgate makes two passes even with --seconds 0
    assert result["attempted"] == 2 * 8 and result["failed"] == 0


def test_traced_run_prints_every_per_layer_metric(small_gridgate, capsys):
    code = run.main(["--workload", "gridgate", "--seed", "3",
                     "--seconds", "0", "--trace", "1"])
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_wrong_answer_exits_nonzero(small_gridgate, monkeypatch, capsys):
    real = solver.stable_configs

    @functools.wraps(real)
    def off_by_one(t, options=None):
        result = real(t, options)
        return replace(result, optimum=result.optimum + 1)

    monkeypatch.setattr(solver, "stable_configs", off_by_one)
    code = run.main(["--workload", "gridgate", "--seed", "3",
                     "--seconds", "0", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 1
    result = last_json(captured.out)
    assert result["correct"] is False and result["metrics"] == {}
    assert "wrong answer" in captured.err


def test_call_that_raises_is_counted_and_gated(monkeypatch, capsys):
    from tbntools import hilbert

    def broken(t, budget=None):
        raise RuntimeError("basis failed")

    monkeypatch.setattr(hilbert, "polymer_basis", broken)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "translator", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    captured = capsys.readouterr()
    result = last_json(captured.out)
    assert code == 1 and result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert "k5: no polymer basis" in captured.err


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gridgate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
