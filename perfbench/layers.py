"""Hook points of the tbntools layers and the per-layer metrics of the
traced run.

Layers are the package's modules: ``core`` (parse, saturation),
``ipmodel`` (IP build), ``simplex`` (exact LP), ``solver`` (branch and
bound, propagation, enumeration), ``hilbert`` (polymer basis, basis
route) and ``pathways`` (merge/split search).  ``lpformat`` and ``cli``
are off every hot path and stay unmeasured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from tracer import Hook, Tracer

LP = "simplex.solve_lp"
BUILD = "ipmodel.build"
BB = "solver.solve_min"
ENUM = "solver.enumerate_assignments"
PROP = "solver.propagate"
HB = "hilbert.hilbert_basis"
VIA = "hilbert.stable_via_basis"
MERGE = "pathways.merge_moves"
SPLIT = "pathways.split_moves"
SPLITS = "pathways.splits"
SAT = "core.is_self_saturated"
# spans the benchmark opens itself
PARSE = "core.parse"
FIND = "op.find_pathway"


def _lp(counts, args, result):
    counts["lp.rows"] += len(args[1])
    counts["lp.vars"] += len(args[2])
    counts["lp.infeasible"] += result.status != "optimal"


def _build(counts, args, model):
    counts["build.vars"] += len(model.program.variables)
    counts["build.rows"] += len(model.program.constraints)


def _bb(counts, args, result):
    counts["bb.nodes"] += result.stats.nodes
    counts["bb.max_nodes"] = max(counts["bb.max_nodes"], result.stats.nodes)
    counts["budget_exhausted"] += result.status == "budget_exceeded"


def _enum(counts, args, result):
    _, complete, stats = result
    counts["enum.nodes"] += stats.nodes
    counts["budget_exhausted"] += not complete


def _prop(counts, args, feasible):
    counts["prop.pruned"] += not feasible


def _basis(counts, args, result):
    counts["hilbert.size"] += len(result)


# ``hilbert`` imports solve_min and enumerate_assignments from ``solver``
# when stable_via_basis runs, so the solver hooks see those calls too.
HOOKS: List[Hook] = [
    Hook("tbntools.solver", "build", BUILD, _build),
    Hook("tbntools.solver", "solve_min", BB, _bb),
    Hook("tbntools.solver", "enumerate_assignments", ENUM, _enum),
    Hook("tbntools.solver", "propagate", PROP, _prop),
    Hook("tbntools.solver", "solve_lp", LP, _lp),
    Hook("tbntools.hilbert", "hilbert_basis", HB, _basis),
    Hook("tbntools.hilbert", "stable_via_basis", VIA),
    Hook("tbntools.pathways", "merge_moves", MERGE, generator=True),
    Hook("tbntools.pathways", "split_moves", SPLIT, generator=True),
    Hook("tbntools.pathways", "splits", SPLITS),
    Hook("tbntools.pathways", "is_self_saturated", SAT),
]


@dataclass
class Totals:
    """What the traced pass recorded, in the shape the metrics read."""

    counts: Dict[str, float]
    incl_ms: Dict[str, float]
    self_ms: Dict[str, float]
    path_steps: int
    wall_ms: float
    untraced_wall_ms: float

    def calls(self, span: str) -> float:
        return self.counts.get(span + ".calls", 0)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)

    def incl(self, span: str) -> float:
        return self.incl_ms.get(span, 0.0)

    def own(self, span: str) -> float:
        return self.self_ms.get(span, 0.0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    needs: Tuple[str, ...]  # hook spans whose absence makes it absent
    value: Callable[[Totals], float]


_SELF_BB = (BB, PROP, LP)
METRICS: Sequence[Metric] = (
    Metric("simplex.lp_calls", "count", "lower", (LP,),
           lambda t: t.calls(LP)),
    Metric("simplex.lp_ms", "ms", "lower", (LP,), lambda t: t.incl(LP)),
    Metric("simplex.ms_per_lp", "ms", "lower", (LP,),
           lambda t: _ratio(t.incl(LP), t.calls(LP))),
    Metric("simplex.lp_infeasible_frac", "fraction", "lower", (LP,),
           lambda t: _ratio(t.count("lp.infeasible"), t.calls(LP))),
    Metric("simplex.lp_rows_mean", "count", "lower", (LP,),
           lambda t: _ratio(t.count("lp.rows"), t.calls(LP))),
    Metric("simplex.lp_vars_mean", "count", "lower", (LP,),
           lambda t: _ratio(t.count("lp.vars"), t.calls(LP))),
    Metric("solver.bb_nodes", "count", "lower", (BB,),
           lambda t: t.count("bb.nodes")),
    Metric("solver.bb_self_ms", "ms", "lower", _SELF_BB,
           lambda t: t.own(BB)),
    Metric("solver.prop_calls", "count", "lower", (PROP,),
           lambda t: t.calls(PROP)),
    Metric("solver.prop_ms", "ms", "lower", (PROP,), lambda t: t.incl(PROP)),
    Metric("solver.prop_prune_frac", "fraction", "higher", (PROP,),
           lambda t: _ratio(t.count("prop.pruned"), t.calls(PROP))),
    Metric("solver.enum_nodes", "count", "lower", (ENUM,),
           lambda t: t.count("enum.nodes")),
    Metric("solver.enum_self_ms", "ms", "lower", (ENUM, PROP),
           lambda t: t.own(ENUM)),
    Metric("solver.budget_exhausted", "count", "lower", (BB, ENUM),
           lambda t: t.count("budget_exhausted")),
    Metric("ipmodel.build_calls", "count", "lower", (BUILD,),
           lambda t: t.calls(BUILD)),
    Metric("ipmodel.build_ms", "ms", "lower", (BUILD,),
           lambda t: t.incl(BUILD)),
    Metric("ipmodel.vars_mean", "count", "lower", (BUILD,),
           lambda t: _ratio(t.count("build.vars"), t.calls(BUILD))),
    Metric("ipmodel.rows_mean", "count", "lower", (BUILD,),
           lambda t: _ratio(t.count("build.rows"), t.calls(BUILD))),
    Metric("hilbert.basis_ms", "ms", "lower", (HB,), lambda t: t.incl(HB)),
    Metric("hilbert.basis_size", "count", "lower", (HB,),
           lambda t: t.count("hilbert.size")),
    Metric("hilbert.via_basis_self_ms", "ms", "lower", (VIA,) + _SELF_BB
           + (ENUM,), lambda t: t.own(VIA)),
    Metric("pathways.find_self_ms", "ms", "lower", (MERGE, SPLIT, SAT),
           lambda t: t.own(FIND)),
    Metric("pathways.states_expanded", "count", "lower", (MERGE,),
           lambda t: t.calls(MERGE)),
    Metric("pathways.moves_generated", "count", "lower", (MERGE, SPLIT),
           lambda t: t.count(MERGE + ".yields") + t.count(SPLIT + ".yields")),
    Metric("pathways.splits_calls", "count", "lower", (SPLITS,),
           lambda t: t.calls(SPLITS)),
    Metric("pathways.splits_ms", "ms", "lower", (SPLITS,),
           lambda t: t.incl(SPLITS)),
    Metric("pathways.useful_frac", "fraction", "higher", (MERGE,),
           lambda t: _ratio(t.path_steps, t.calls(MERGE))),
    Metric("core.saturation_checks", "count", "lower", (SAT,),
           lambda t: t.calls(SAT)),
    Metric("core.saturation_ms", "ms", "lower", (SAT,),
           lambda t: t.incl(SAT)),
    Metric("core.parse_ms", "ms", "lower", (), lambda t: t.incl(PARSE)),
    Metric("trace.overhead_frac", "fraction", "lower", (),
           lambda t: _ratio(t.wall_ms, t.untraced_wall_ms) - 1),
)


def report(tracer: Tracer, totals: Totals) -> Tuple[Dict, List[str]]:
    """Per-layer metrics, and a note for each metric left out because a
    hook it needs is missing or returned a result of unknown shape."""
    absent = {h.span for h in tracer.missing + tracer.broken}
    notes = [f"hook {h.path} missing" for h in tracer.missing]
    notes += [f"hook {h.path} returned a result of unknown shape"
              for h in tracer.broken]
    metrics: Dict[str, Dict] = {}
    for m in METRICS:
        lost = [s for s in m.needs if s in absent]
        if lost:
            notes.append(f"{m.name} absent: needs {', '.join(lost)}")
            continue
        metrics[m.name] = {"value": m.value(totals), "unit": m.unit}
    return metrics, notes
