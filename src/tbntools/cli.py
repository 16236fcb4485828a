"""Command-line front end: analyze .tbn files, generate benchmarks.

Subcommands:
  stable     optimum merge count and (optionally all) stable configurations
  basis      polymer basis of the network's monomer set
  verify     check a configuration file for validity/saturation/stability
  pathway    minimum-barrier merge/split pathway between two configurations
  bench      timing table over generated benchmark instances (CSV)
  export-lp  write the integer program in CPLEX LP text format

``stable`` and ``export-lp`` use one slot model: B polymer slots, B the
limiting-monomer count, which holds every stable configuration.
``stable --solution`` checks an external solver's answer to the model
``export-lp`` writes.

A configuration file (``verify``, ``pathway``) lists one polymer per
line, monomer labels or 1-based indices joined by ``+``.  Every monomer
it does not list is an implied singleton; a ``...`` line, which may be
left out, says so.

Exit codes: 0 success, 2 input error, 3 budget or timeout exhausted,
4 internal-consistency failure.  ``verify`` leaves a verdict its budget
could not decide as ``-`` and exits 0.

Environment: TBN_MAX_NODES and TBN_MAX_SECONDS override the default
search budget (``solver.Budget``) of every command that searches;
``--timeout`` sets its seconds and ``basis --cap`` its nodes.  A
variable's or ``--timeout``'s value that is not a number, or is nan, is
an input error, and so is a negative value of any of them or of
``--cap``; 0 is valid and runs out at once.  A negative ``pathway
--max-barrier`` is an input error too: no barrier is negative.
``verify`` runs one clock: the local-stability test (one node per node
of a polymer's split search, ``pathways.is_locally_stable``) spends it
first, then the stable search.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from . import __version__
from .core import (
    INF,
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    is_self_saturated,
    leftover,
    merge_count,
    parse_tbn_with_report,
)
from .hilbert import polymer_basis, render_basis_table
from .ipmodel import build, default_bound
from .lpformat import parse_solution, write_lp
from .pathways import find_pathway, full_configuration, is_locally_stable
from .simplex import SimplexError
from .solver import (
    Budget,
    BudgetExhausted,
    Clock,
    StableOptions,
    stable_configs,
)

REPORT_SCHEMA = "tbn-report/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class CliError(TbnError):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _number(text: str, parse, what: str):
    """``parse(text)``; a malformed value or nan is an input error."""
    try:
        value = parse(text)
        if value == value:
            return value
    except ValueError:
        pass
    raise CliError(f"{what} must be a number, got {text!r}")


def _seconds(text: str) -> float:
    """Argparse type of ``--timeout``, by ``_number``'s rule.  Argparse
    reports its error as a usage error (exit 2); a ``CliError`` raised
    inside argparse would escape ``main``."""
    try:
        return _number(text, float, "value")
    except CliError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def env_budget(timeout: Optional[float] = None) -> Budget:
    """Default search budget, overridable via environment variables."""
    nodes = Budget.max_nodes
    seconds = Budget.max_time
    env = os.environ
    if env.get("TBN_MAX_NODES"):
        nodes = _number(env["TBN_MAX_NODES"], int, "TBN_MAX_NODES")
    if env.get("TBN_MAX_SECONDS"):
        seconds = _number(env["TBN_MAX_SECONDS"], float, "TBN_MAX_SECONDS")
    if timeout is not None:
        seconds = timeout
    return Budget(max_nodes=nodes, max_time=seconds)


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def load_tbn(path: str) -> Tuple[Tbn, Dict]:
    tbn, report = parse_tbn_with_report(_read_text(path))
    notes = {}
    if report.flipped_names:
        notes["star_flipped_sites"] = list(report.flipped_names)
    if report.merged_duplicate_lines:
        notes["merged_duplicate_lines"] = report.merged_duplicate_lines
    return tbn, notes


def parse_configuration(text: str, t: Tbn) -> List[Polymer]:
    """Read a configuration file: one polymer per line.

    Monomer labels or 1-based indices joined by ``+``.  Every monomer
    the file does not list is an implied singleton; a line holding
    ``...`` says so and is otherwise ignored.
    """
    polymers: List[Polymer] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == "...":
            continue
        counts = [0] * t.n_types
        for token in line.split("+"):
            token = token.strip()
            if not token:
                raise CliError(
                    f"configuration line {line_no}: empty polymer member"
                )
            counts[t.monomer_by_label(token)] += 1
        polymers.append(Polymer(tuple(counts)))
    return polymers


def make_report(command: str, results: Dict, timings: Dict) -> Dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "version": __version__,
        "results": results,
        "timings": timings,
    }


def emit(report: Dict, fmt: str, text: str, out=None) -> None:
    stream = out or sys.stdout
    if fmt == "json":
        json.dump(report, stream, indent=2)
        stream.write("\n")
    else:
        stream.write(text)


def describe_pc(pc: PartialConfiguration, t: Tbn) -> List[str]:
    return [p.describe(t) for p in pc.polymers]


def _counted(n, noun: str) -> str:
    """``n`` and ``noun``, the noun plural unless ``n`` reads 1 (``n``
    may be text such as ``"3 + inf"``)."""
    return f"{n} {noun}" if str(n) == "1" else f"{n} {noun}s"


def _full_polymer_count(pc: PartialConfiguration, t: Tbn) -> str:
    """Polymer count including implied singletons; infinities symbolic."""
    left = leftover(pc.polymers, t)
    total = pc.n_polymers + sum(n for n in left if n is not INF)
    return f"{total} + inf" if INF in left else str(total)


def _singleton_summary(pc: PartialConfiguration, t: Tbn) -> List[str]:
    """Implied singleton remainders, infinite ones reported symbolically."""
    left = leftover(pc.polymers, t)
    return [f"{n} x {mon.name}" for mon, n in zip(t.monomer_types, left) if n]


def _slot_model(t: Tbn, symmetry: bool = False):
    """The slot model ``stable`` and ``export-lp`` share."""
    return build(t, max(default_bound(t), 1), symmetry)


def cmd_stable(args) -> int:
    t, notes = load_tbn(args.file)
    budget = env_budget(args.timeout)

    if args.solution:
        return _stable_from_solution(args, t, notes)

    started = time.monotonic()
    result = stable_configs(
        t, StableOptions(all=args.all, budget=budget)
    )
    elapsed = time.monotonic() - started

    configs = []
    for pc in result.solutions:
        configs.append(
            {
                "polymers": [list(p.counts) for p in pc.polymers],
                "polymer_names": describe_pc(pc, t),
                "singletons": _singleton_summary(pc, t),
                "full_polymer_count": _full_polymer_count(pc, t),
                "merge_count": result.optimum,
            }
        )
    results = {
        "optimum": result.optimum,
        "complete": result.complete,
        "configurations": configs,
        "notes": notes,
    }
    report = make_report(
        "stable", results, {"millis": round(elapsed * 1000, 3),
                            "nodes": result.stats.nodes,
                            "route": result.stats.route}
    )

    lines = []
    if result.optimum is not None:
        lines.append(f"optimum merge count: {result.optimum}")
    for k, cfg in enumerate(configs, start=1):
        lines.append(
            f"configuration {k} "
            f"({_counted(cfg['full_polymer_count'], 'polymer')}):"
        )
        for name in cfg["polymer_names"]:
            lines.append(f"  {{{name}}}")
        for extra in cfg["singletons"]:
            lines.append(f"  {extra} (singletons)")
    if not result.complete:
        lines.append(
            "warning: search budget exhausted before an optimum was "
            "proven; no answer"
        )
    emit(report, args.format, "\n".join(lines) + "\n")
    return EXIT_OK if result.complete else EXIT_BUDGET


def _stable_from_solution(args, t: Tbn, notes: Dict) -> int:
    model = _slot_model(t)
    assignment = parse_solution(_read_text(args.solution))
    pc = model.decode(assignment)
    value = model.program.objective.evaluate(assignment)
    results = {
        "objective": value,
        "configuration": {
            "polymers": [list(p.counts) for p in pc.polymers],
            "polymer_names": describe_pc(pc, t),
        },
        "notes": notes,
    }
    report = make_report("stable", results, {})
    lines = [f"imported solution is feasible, objective {value}"]
    for name in results["configuration"]["polymer_names"]:
        lines.append(f"  {{{name}}}")
    emit(report, args.format, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_basis(args) -> int:
    t, notes = load_tbn(args.file)
    budget = env_budget()
    if args.cap is not None:
        budget = replace(budget, max_nodes=args.cap)
    started = time.monotonic()
    basis = polymer_basis(t, budget)
    elapsed = time.monotonic() - started
    results = {
        "size": len(basis),
        "polymers": [list(p.counts) for p in basis],
        "polymer_names": [p.describe(t) for p in basis],
        "notes": notes,
    }
    report = make_report(
        "basis", results, {"millis": round(elapsed * 1000, 3)}
    )
    text = (f"{_counted(len(basis), 'basis element')}\n"
            + render_basis_table(basis, t))
    emit(report, args.format, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    t, notes = load_tbn(args.file)
    polymers = parse_configuration(_read_text(args.config), t)
    verdicts: Dict[str, Optional[bool]] = {
        "valid": None,
        "saturated": None,
        "locally_stable": None,
        "stable": None,
    }
    detail = ""

    # validity: the listed polymers fit within the monomer supply
    left = leftover(polymers, t)
    over = [i for i, n in enumerate(left) if n < 0]
    verdicts["valid"] = not over
    if over:
        i = over[0]
        detail = (
            f"monomer {t.monomer_types[i]} used {t.counts[i] - left[i]} "
            f"times, supply is {t.counts[i]}"
        )
    else:
        # unlisted monomers sit as implied singletons
        singletons = [t.unit(i) for i, n in enumerate(left) if n]
        verdicts["saturated"] = all(
            is_self_saturated(p, t) for p in polymers + singletons
        )
        if verdicts["saturated"]:
            # one clock decides both verdicts; once it runs out, a
            # verdict it could not decide stays undecided
            clock = Clock.of(env_budget())
            listed = PartialConfiguration.from_polymers(polymers, t)
            try:
                verdicts["locally_stable"] = is_locally_stable(listed, clock)
            except BudgetExhausted:
                pass
            optimum = stable_configs(
                t, StableOptions(budget=clock)
            ).optimum
            if optimum is not None:
                verdicts["stable"] = merge_count(listed) == optimum
        else:
            verdicts["locally_stable"] = False
            verdicts["stable"] = False

    results = {"verdicts": verdicts, "detail": detail, "notes": notes}
    report = make_report("verify", results, {})
    lines = [
        f"{name}: {'-' if value is None else str(value).lower()}"
        for name, value in verdicts.items()
    ]
    if detail:
        lines.append(f"detail: {detail}")
    emit(report, args.format, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_pathway(args) -> int:
    t, notes = load_tbn(args.file)
    configs = []
    for path in (getattr(args, "from"), args.to):
        polymers = parse_configuration(_read_text(path), t)
        configs.append(
            full_configuration(PartialConfiguration.from_polymers(polymers, t))
        )
    start, goal = configs

    started = time.monotonic()
    pathway = find_pathway(
        start, goal, max_barrier=args.max_barrier, budget=env_budget()
    )
    elapsed = time.monotonic() - started

    if pathway is None:
        results = {"found": False, "notes": notes}
        report = make_report(
            "pathway", results, {"millis": round(elapsed * 1000, 3)}
        )
        emit(report, args.format, "no pathway found\n")
        return EXIT_OK

    pathway.validate()
    results = {
        "found": True,
        "barrier": pathway.barrier(),
        "length": pathway.length,
        "merge_counts": pathway.merge_counts(),
        "configurations": [
            [list(p.counts) for p in c.polymers]
            for c in pathway.configurations
        ],
        "notes": notes,
    }
    report = make_report(
        "pathway", results, {"millis": round(elapsed * 1000, 3)}
    )
    lines = [
        f"pathway found: barrier {pathway.barrier()}, "
        f"{_counted(pathway.length, 'step')}",
        "merge counts: " + " -> ".join(
            str(v) for v in pathway.merge_counts()
        ),
    ]
    for c in pathway.configurations:
        lines.append("  " + c.describe())
    emit(report, args.format, "\n".join(lines) + "\n")
    return EXIT_OK


def gen_gridgate(
    n: int, fuel, caption_literal: bool = False
) -> Tbn:
    """Grid-gate benchmark family: one gate monomer with n^2 starred
    sites plus n row fuels and n column fuels.

    ``caption_literal`` adds a second copy of the column sites at or
    below the diagonal of each column fuel.
    """
    if n < 1:
        raise CliError(f"gridgate needs n >= 1, got {n}")
    text_lines = []
    gate = " ".join(
        f"x{i}_{j}*" for i in range(1, n + 1) for j in range(1, n + 1)
    )
    text_lines.append(f"G: {gate}, 1")
    fuel_part = "inf" if fuel is INF else str(fuel)
    for i in range(1, n + 1):
        row = " ".join(f"x{i}_{j}" for j in range(1, n + 1))
        text_lines.append(f"H{i}: {row}, {fuel_part}")
    for j in range(1, n + 1):
        sites = [f"x{i}_{j}" for i in range(1, n + 1)]
        if caption_literal:
            sites += [f"x{i}_{j}" for i in range(j, n + 1)]
        text_lines.append(f"V{j}: {' '.join(sites)}, {fuel_part}")
    tbn, _ = parse_tbn_with_report("\n".join(text_lines))
    return tbn


def _parse_range(spec: str) -> List[int]:
    lo, colon, hi = spec.partition(":")
    lo = _number(lo, int, "--n-range")
    hi = _number(hi, int, "--n-range") if colon else lo
    if hi < lo:
        raise CliError(f"--n-range must not run downward, got {spec!r}")
    return list(range(lo, hi + 1))


def _parse_fuels(spec: str) -> List:
    fuels = []
    for token in spec.split(","):
        token = token.strip()
        if token == "inf":
            fuels.append(INF)
            continue
        fuel = _number(token, int, "--fuel-range")
        if fuel < 1:
            raise CliError(f"--fuel-range counts must be >= 1, got {token!r}")
        fuels.append(fuel)
    return fuels


def cmd_bench(args) -> int:
    if args.family != "gridgate":
        raise CliError(f"unknown benchmark family {args.family!r}")
    rows = []
    for n in _parse_range(args.n_range):
        for fuel in _parse_fuels(args.fuel_range):
            t = gen_gridgate(n, fuel, caption_literal=args.caption_v)
            budget = env_budget(args.timeout)
            started = time.monotonic()
            result = stable_configs(t, StableOptions(budget=budget))
            elapsed = time.monotonic() - started
            status = "ok" if result.complete else "timeout"
            rows.append(
                {
                    "family": args.family,
                    "n": n,
                    "fuel": "inf" if fuel is INF else fuel,
                    "status": status,
                    "optimum": (
                        "" if result.optimum is None else result.optimum
                    ),
                    "nodes": result.stats.nodes,
                    "millis": round(elapsed * 1000, 3),
                }
            )

    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=[
            "family", "n", "fuel", "status", "optimum", "nodes", "millis",
        ],
    )
    writer.writeheader()
    writer.writerows(rows)
    csv_text = buffer.getvalue()

    report = make_report("bench", {"rows": rows}, {})
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        emit(report, args.format,
             f"wrote {_counted(len(rows), 'row')} to {args.out}\n")
    else:
        emit(report, args.format, csv_text)
    if any(r["status"] == "timeout" for r in rows):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_export_lp(args) -> int:
    t, _ = load_tbn(args.file)
    program = _slot_model(t, args.symmetry).program
    if args.fixed_objective is not None:
        program = program.fixed(args.fixed_objective)
    text = write_lp(program)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbn",
        description="Stable configurations, polymer bases and pathways "
        "of thermodynamic binding networks",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text"
        )

    p = sub.add_parser("stable", help="solve for stable configurations")
    p.add_argument("file")
    p.add_argument("--all", action="store_true",
                   help="enumerate every stable configuration")
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--solution", default=None,
                   help="validate an external solver's solution file, "
                   "for the model export-lp writes, instead of solving")
    add_format(p)
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("basis", help="compute the polymer basis")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=None,
                   help="node budget of the completion procedure, one "
                   "node per pair sum examined (default: TBN_MAX_NODES)")
    add_format(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="check a configuration file")
    p.add_argument("file")
    p.add_argument("config")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pathway", help="search a merge/split pathway")
    p.add_argument("file")
    p.add_argument("--from", required=True, dest="from")
    p.add_argument("--to", required=True)
    p.add_argument("--max-barrier", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_pathway)

    p = sub.add_parser("bench", help="run benchmark instances, emit CSV")
    p.add_argument("--family", default="gridgate")
    p.add_argument("--n-range", default="1:3")
    p.add_argument("--fuel-range", default="2",
                   help="comma-separated fuel counts; 'inf' allowed")
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="wall-clock budget in seconds per instance")
    p.add_argument("--caption-v", action="store_true",
                   help="column fuels with duplicated diagonal sites")
    p.add_argument("--out", default=None, help="CSV output path")
    add_format(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-lp", help="write the model in LP format")
    p.add_argument("file")
    p.add_argument("--fixed-objective", type=int, default=None,
                   help="replace the objective by an equality row that "
                   "holds the merge count at this value")
    p.add_argument("--symmetry", action="store_true",
                   help="add the lexicographic symmetry-breaking rows")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_export_lp)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SimplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
