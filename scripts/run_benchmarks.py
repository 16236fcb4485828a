#!/usr/bin/env python3
"""Grid-gate scaling experiment, or with --translator the basis route.

Solves the gridgate family over a range of sizes and fuel counts, for
both column-fuel interpretations, and writes one CSV per interpretation.
Columns: family,n,fuel,status,optimum,nodes,millis.

With --translator it instead times the basis route on the circular
translator cascades of length 5 and 6 and writes translator.csv, one row
per length.  Columns: family,k,basis_size,basis_ms,via_basis_ms,
pathway_ms, where pathway_ms is a minimum-barrier pathway search between
the first two stable configurations (empty when there is only one).

Usage:
  python3 scripts/run_benchmarks.py [--n-max 3] [--timeout 100] [--out-dir .]
  python3 scripts/run_benchmarks.py --translator [--out-dir .]
"""

import argparse
import csv
import string
import time
from pathlib import Path

from tbntools.cli import gen_gridgate
from tbntools.core import INF, Tbn, parse_tbn
from tbntools.hilbert import polymer_basis, stable_via_basis
from tbntools.pathways import find_pathway, full_configuration
from tbntools.solver import Budget, StableOptions, stable_configs

TRANSLATOR_SIZES = (5, 6)


def run(n_max: int, timeout: float, out_dir: Path) -> None:
    for literal in (False, True):
        tag = "caption" if literal else "plain"
        path = out_dir / f"gridgate_{tag}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["family", "n", "fuel", "status", "optimum",
                 "nodes", "millis"]
            )
            for n in range(1, n_max + 1):
                for fuel in (2, INF):
                    t = gen_gridgate(n, fuel, caption_literal=literal)
                    started = time.monotonic()
                    result = stable_configs(
                        t, StableOptions(budget=Budget(max_time=timeout))
                    )
                    millis = round((time.monotonic() - started) * 1000, 3)
                    status = "ok" if result.complete else "timeout"
                    writer.writerow(
                        [
                            "gridgate",
                            n,
                            "inf" if fuel is INF else fuel,
                            status,
                            "" if result.optimum is None
                            else result.optimum,
                            result.stats.nodes,
                            millis,
                        ]
                    )
                    print(
                        f"{tag} n={n} fuel="
                        f"{'inf' if fuel is INF else fuel}: "
                        f"{status} optimum={result.optimum} "
                        f"({millis} ms)"
                    )
        print(f"wrote {path}")


def translator_cascade(k: int) -> Tbn:
    """k three-site unstarred monomers and k two-site starred monomers on
    a k-cycle of site names."""
    names = string.ascii_lowercase[:k]
    lines = []
    for i in range(k):
        a, b, c = names[i], names[(i + 1) % k], names[(i + 2) % k]
        lines.append(f"T_{a}{b}{c}: {a} {b} {c}")
    for i in range(k):
        a, b = names[i], names[(i + 1) % k]
        lines.append(f"G_{a}{b}: {a}* {b}*")
    return parse_tbn("\n".join(lines))


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, round((time.perf_counter() - started) * 1000, 3)


def run_translator(out_dir: Path) -> None:
    path = out_dir / "translator.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "k", "basis_size", "basis_ms",
                         "via_basis_ms", "pathway_ms"])
        for k in TRANSLATOR_SIZES:
            t = translator_cascade(k)
            basis, basis_ms = _timed(polymer_basis, t)
            stable, via_ms = _timed(stable_via_basis, t, basis)
            pathway_ms = ""
            if len(stable.solutions) >= 2:
                a, b = (full_configuration(pc) for pc in stable.solutions[:2])
                _, pathway_ms = _timed(find_pathway, a, b)
            writer.writerow(["translator", k, len(basis), basis_ms, via_ms,
                             pathway_ms])
            print(f"translator k={k}: basis {len(basis)} ({basis_ms} ms), "
                  f"via basis {via_ms} ms, pathway {pathway_ms or '-'} ms")
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=100.0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--translator", action="store_true",
                        help="time the translator basis route instead")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.translator:
        run_translator(args.out_dir)
    else:
        run(args.n_max, args.timeout, args.out_dir)


if __name__ == "__main__":
    main()
