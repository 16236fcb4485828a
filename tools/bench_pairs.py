#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs.

Run from anywhere, with two checkouts of the repository side by side:

  python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \\
      --workloads gridgate,random-oracle,translator --seeds 601-610 \\
      --out BENCH_prN.json

For each workload and seed it runs ``perfbench/run.py --trace 0`` once in
each checkout, one after the other, for perfbench's own run length; the
side that runs first alternates from seed to seed.  Runs are sequential,
one process at a time.  The output file is rewritten after every run, so
an interrupted series keeps the pairs it finished.  Its schema:
``command``, ``parent``, ``notes`` and ``runs``, one entry per run with
``side``, ``workload``, ``seed``, ``passes``, ``machine`` and
``seconds`` (from perfbench's ``detail:`` line: its ``*_s`` entries,
the seconds per kind of call such as ``pathway_s``, and random-oracle's
per-call ``budget_s``) and ``final`` (perfbench's last output line).  ``parent`` is the commit perfbench reads in the parent checkout.
Both checkouts must be git checkouts at different commits, each staying
at its commit for the whole series; the series stops at the first run
that shows otherwise.  A summary of the end-to-end metrics is printed at
the end: each side's median and quartiles, how many pairs the change
won, and a verdict against the metric's ``bound`` in the change
checkout's ``BENCHMARK.json`` (see ``verdict``); then each side's
median of every ``seconds`` entry, which gets no verdict.

Uses only the standard library.  Exit codes: 0 every run measured and
correct, 1 some run printed no result or a wrong answer, 2 bad arguments
or a checkout whose commit is unreadable, moves, or equals the other's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SIDES = ("parent", "change")


def parse_seeds(text: str) -> List[int]:
    """``601-610`` or ``601,605,609``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir", type=Path)
    p.add_argument("change_dir", type=Path)
    p.add_argument("--workloads", required=True,
                   help="comma-separated perfbench workload names")
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="a range such as 601-610, or a comma list")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    for d in (args.parent_dir, args.change_dir):
        if not (d / "perfbench" / "run.py").is_file():
            p.error(f"no perfbench/run.py under {d}")
    return args


def run_once(checkout: Path, workload: str,
             seed: int) -> Tuple[Optional[Dict], Optional[Dict]]:
    """perfbench's detail line and last line, or None where missing."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    detail = final = None
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    if lines and lines[-1].startswith("{"):
        final = json.loads(lines[-1])
    if final is None:
        sys.stderr.write(proc.stderr)
    return detail, final


def commit_error(commits: Dict[str, str], side: str, checkout: Path,
                 detail: Dict) -> Optional[str]:
    """Record the commit a run reports; say what is wrong with it."""
    commit = detail["machine"]["commit"]
    if commit is None:
        return f"perfbench read no commit in {checkout}: not a git checkout"
    if commits.setdefault(side, commit) != commit:
        return f"{checkout} moved from {commits[side]} to {commit}"
    if commits.get("parent") == commits.get("change"):
        return f"both checkouts are at {commit}"
    return None


def quartiles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def load_bounds(path: Path) -> Dict[str, Dict]:
    """Each end-to-end metric of a ``BENCHMARK.json``, by name."""
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(parent: List[float], change: List[float], bound: float,
            better: str) -> str:
    """``worse than bound`` when the change's median is worse than the
    parent's by more than ``bound``, a fraction of the parent's median.
    Else ``unresolved`` when the parent's quartile spread is wider than
    ``bound`` and not every change run beats every parent run, since
    such a spread hides a move of the bound's size.  Else ``within
    bound``."""
    sign = 1 if better == "lower" else -1
    parent_q = quartiles(parent)
    if sign * (statistics.median(change) / parent_q[1] - 1) > bound:
        return "worse than bound"
    spread = (parent_q[2] - parent_q[0]) / parent_q[1]
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(runs: List[Dict], bounds: Dict[str, Dict]) -> List[str]:
    """Per workload and end-to-end metric: medians, quartiles, wins, and
    the ``verdict`` against the metric's entry in ``bounds``."""
    out = []
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    for workload in workloads:
        by_side: Dict[str, Dict[int, Dict]] = {side: {} for side in SIDES}
        for r in runs:
            if r["workload"] == workload and r["final"]:
                by_side[r["side"]][r["seed"]] = r
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        if len(seeds) < 2:
            continue
        picked = {side: [by_side[side][s] for s in seeds] for side in SIDES}
        finals = {side: [r["final"] for r in picked[side]] for side in SIDES}
        correct = all(f["correct"] for side in SIDES for f in finals[side])
        failed = {side: sum(f["failed"] for f in finals[side])
                  for side in SIDES}
        out.append(f"{workload}: {len(seeds)} pairs, all correct: {correct}, "
                   f"failed parent/change: {failed['parent']}/"
                   f"{failed['change']}")
        names = finals["parent"][0]["metrics"]
        for name in names:
            values = {side: [f["metrics"][name]["value"]
                             for f in finals[side]] for side in SIDES}
            parent_q = quartiles(values["parent"])
            change_q = quartiles(values["change"])
            wins = sum(c < p for p, c in zip(values["parent"],
                                             values["change"]))
            ratio = change_q[1] / parent_q[1] - 1
            bound = bounds[name]["bound"]
            ruling = verdict(values["parent"], values["change"], bound,
                             bounds[name]["better"])
            out.append(
                f"  {name}: parent {parent_q[1]:.4g} "
                f"[{parent_q[0]:.4g}-{parent_q[2]:.4g}] -> change "
                f"{change_q[1]:.4g} [{change_q[0]:.4g}-{change_q[2]:.4g}] "
                f"({ratio:+.1%}), change lower in {wins}/{len(seeds)}, "
                f"{ruling} ({bound:.0%})")
        for key in picked["parent"][0].get("seconds") or {}:
            median = {side: statistics.median(r["seconds"][key]
                                              for r in picked[side])
                      for side in SIDES}
            out.append(f"  detail.{key}: parent {median['parent']:.4g} -> "
                       f"change {median['change']:.4g}")
    return out


def write(path: Path, report: Dict) -> None:
    """One run per line, as the committed BENCH files are laid out."""
    runs = ",\n".join("  " + json.dumps(r, separators=(",", ":"))
                      for r in report["runs"])
    head = ",\n".join(f" {json.dumps(k)}: {json.dumps(report[k])}"
                      for k in ("command", "parent", "notes"))
    path.write_text("{\n" + head + ',\n "runs": [\n' + runs + "\n ]\n}\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    bounds = load_bounds(args.change_dir / "BENCHMARK.json")
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    seeds = args.seeds
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "parent": None,
        "notes": (
            f"Alternating parent/change pairs on one machine, seeds "
            f"{seeds[0]}-{seeds[-1]} per workload; the first side of each "
            f"pair alternates. 'final' is perfbench's last output line, "
            f"'machine' and 'passes' come from its detail line."),
        "runs": [],
    }
    commits: Dict[str, str] = {}
    ok = True
    for workload in args.workloads.split(","):
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                detail, final = run_once(dirs[side], workload, seed)
                if detail is not None:
                    error = commit_error(commits, side, dirs[side], detail)
                    if error:
                        sys.stderr.write(f"bench_pairs: {error}\n")
                        return 2
                    report["parent"] = commits.get("parent")
                ok = ok and final is not None and final["correct"]
                report["runs"].append({
                    "side": side,
                    "workload": workload,
                    "seed": seed,
                    "passes": detail["passes"] if detail else None,
                    "seconds": ({k: v for k, v in detail.items()
                                 if k.endswith("_s")} if detail else None),
                    "final": final,
                    "machine": detail["machine"] if detail else None,
                })
                write(args.out, report)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(final)}", flush=True)
    for line in summarize(report["runs"], bounds):
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
