#!/usr/bin/env python3
"""tbntools benchmark: one workload, measured in this process.

Run from the repository root:

  python3 perfbench/run.py --workload gridgate --seed 1 --seconds 10 --trace 0

Workloads: gridgate, random-oracle, translator (see README.md).  The
inputs are made from ``--seed``.  Whole passes over the workload's calls
repeat until ``--seconds`` of measuring have passed (at least one pass;
two on gridgate).
Every answer is checked after the timed section; a wrong answer prints
``"correct": false`` and exits 1.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics.  With ``--trace 1`` an untraced pass (two
on gridgate) and then a traced pass run, and the JSON holds the
per-layer metrics of the traced pass and the tracing overhead; the spans
are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl.gz``.  The
lines before the JSON give details (failed calls, times per kind of call,
machine facts) and notes.

Exit codes: 0 measured and correct, 1 a wrong answer, 2 bad arguments or
no tbntools sources under ``src/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Fresh processes whose set-up time is measured, half of them before the
# timed section and half after it, so that the median does not rest on
# one moment of the machine; the median is reported.
SETUP_PROBES = 8
SECONDS_KEYS = {
    "stable_configs": "stable_s",
    "polymer_basis": "basis_s",
    "stable_via_basis": "via_basis_s",
    "find_pathway": "pathway_s",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a run would, print "ready" and exit
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def package_on_path() -> bool:
    src = ROOT / "src"
    if not (src / "tbntools" / "__init__.py").is_file():
        print(f"perfbench: no tbntools sources in {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def measure_setup(args: argparse.Namespace, probes: int) -> List[float]:
    """Times from process start to ready-to-call, in fresh processes that
    import the package, generate and parse the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return times


def run_passes(workload, tbns, seconds: float) -> List:
    """Untraced whole passes until ``seconds`` have passed; at least the
    workload's ``min_passes``."""
    import workloads

    passes = []
    start = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - start < seconds):
        timer = workloads.Timer()
        workload.run_pass(tbns, timer)
        passes.append(timer)
    return passes


def git_commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> Dict:
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def pass_seconds(timer) -> float:
    """Time of the pass's own calls, without the latency repeats."""
    return sum(c.seconds for c in timer.calls if not c.repeat)


def details(args, passes, calls) -> Dict:
    """Counts over every call; times are medians over ``passes``."""
    import workloads

    by_kind: Dict[str, List[float]] = {}
    for timer in passes:
        sums: Dict[str, float] = {}
        for c in timer.calls:
            if c.repeat:
                continue
            key = SECONDS_KEYS.get(c.fn, c.fn + "_s")
            sums[key] = sums.get(key, 0.0) + c.seconds
        for key, value in sums.items():
            by_kind.setdefault(key, []).append(value)
    latencies = stable_ms(calls)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "attempted": len(calls),
        "failed": sum(c.failed for c in calls),
        "fail_frac": sum(c.failed for c in calls) / len(calls),
        "stable_samples": len(latencies),
        "stable_p50_ms": statistics.median(latencies) if latencies else None,
        **{k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    if args.workload == "random-oracle":
        budget = workloads.ORACLE_BUDGET_S
        out["budget_s"] = budget
        out["near_budget"] = sum(
            0.9 * budget <= c.seconds and not c.failed for c in calls)
    out["machine"] = machine_facts()
    return out


def stable_ms(calls) -> List[float]:
    return [c.seconds * 1e3 for c in calls if c.question == "stable"]


def end_to_end(setup_s: float, passes, calls, peak_rss_mb: float) -> Dict:
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_seconds(t) for t in passes), "s"),
        "stable_p90_ms": (
            statistics.quantiles(stable_ms(calls), n=10,
                                 method="inclusive")[-1],
            "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(args, tracer, untraced: List, traced) -> Dict:
    import layers

    incl, own = tracer.times_ms()
    steps = sum(c.result.length for c in traced.calls
                if c.fn == "find_pathway" and c.result is not None)
    wall_ms = pass_seconds(traced) * 1e3
    base_ms = statistics.median(pass_seconds(t) for t in untraced) * 1e3
    totals = layers.Totals(dict(tracer.counts), incl, own, steps, wall_ms,
                           base_ms)
    metrics, notes = layers.report(tracer, totals)
    for note in notes:
        print(f"note: {note}")
    # what each workload was chosen to isolate
    n = sum(c.fn == "stable_configs" for c in traced.calls)
    lp_share = incl.get(layers.LP, 0) / wall_ms
    search_share = (incl.get(layers.HB, 0)
                    + incl.get(layers.FIND, 0)) / wall_ms
    print(f"split: simplex.lp_ms / wall = {lp_share:.3f}")
    print(f"split: (hilbert.basis_ms + find_pathway) / wall = "
          f"{search_share:.3f}")
    if n:
        print(f"split: solver.bb_nodes per stable_configs call = "
              f"{tracer.counts.get('bb.nodes', 0) / n:.2f} "
              f"(max {tracer.counts.get('bb.max_nodes', 0)} in one solve)")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    print(f"spans: {tracer.write(path)} written to {path.relative_to(ROOT)}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not package_on_path():
        return 2
    from tbntools import core

    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        for _, text in workload.generate(args.seed):
            core.parse_tbn(text)
        print("ready", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    with tracer.span(layers.PARSE) if tracer else nullcontext():
        tbns = {label: core.parse_tbn(text)
                for label, text in workload.generate(args.seed)}

    if tracer is None:
        setup_times = measure_setup(args, SETUP_PROBES // 2)
        passes = timed = run_passes(workload, tbns, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += measure_setup(args, SETUP_PROBES - len(setup_times))
    else:
        timed = run_passes(workload, tbns, 0)
        tracer.install(layers.HOOKS)
        traced = workloads.Timer(tracer)
        try:
            workload.run_pass(tbns, traced)
        finally:
            tracer.uninstall()
        passes = timed + [traced]
    calls = [c for timer in passes for c in timer.calls]

    errors = [e for timer in passes for e in workload.check(tbns, timer.calls)]
    for error in errors:
        print(f"perfbench: wrong answer: {error}", file=sys.stderr)
    print("detail: " + json.dumps(details(args, timed, calls)))
    if errors:
        metrics: Dict = {}
    elif tracer is None:
        metrics = end_to_end(statistics.median(setup_times), passes, calls,
                             peak_rss_mb)
    else:
        metrics = per_layer(args, tracer, timed, traced)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(calls),
        "failed": sum(c.failed for c in calls),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
