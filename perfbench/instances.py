"""Seeded instance generators for the benchmark workloads.

Each generator returns ``.tbn`` text, which only ``tbntools.parse_tbn``
consumes.  They are kept here rather than imported from the package or
its tests, so that moving or changing those cannot silently change what
the benchmark measures.
"""

from __future__ import annotations

import random
import string
from typing import Union

Fuel = Union[int, str]  # a positive count or "inf"


def gridgate(n: int, fuel: Fuel, caption: bool) -> str:
    """One gate monomer with an n x n grid of starred sites, plus n row
    fuels and n column fuels, ``fuel`` copies of each.

    With ``caption`` each column fuel carries a second copy of the column
    sites at or below the diagonal (the literal reading of the figure
    caption in the grid-gate family's description).
    """
    lines = [
        "G: "
        + " ".join(
            f"x{i}_{j}*" for i in range(1, n + 1) for j in range(1, n + 1)
        )
        + ", 1"
    ]
    for i in range(1, n + 1):
        row = " ".join(f"x{i}_{j}" for j in range(1, n + 1))
        lines.append(f"H{i}: {row}, {fuel}")
    for j in range(1, n + 1):
        sites = [f"x{i}_{j}" for i in range(1, n + 1)]
        if caption:
            sites += [f"x{i}_{j}" for i in range(j, n + 1)]
        lines.append(f"V{j}: {' '.join(sites)}, {fuel}")
    return "\n".join(lines) + "\n"


def translator(k: int) -> str:
    """Circular translator cascade of length k: k three-site unstarred
    monomers and k two-site starred monomers on a k-cycle of site names.
    """
    names = string.ascii_lowercase[:k]
    lines = []
    for i in range(k):
        a, b, c = names[i], names[(i + 1) % k], names[(i + 2) % k]
        lines.append(f"T_{a}{b}{c}: {a} {b} {c}")
    for i in range(k):
        a, b = names[i], names[(i + 1) % k]
        lines.append(f"G_{a}{b}: {a}* {b}*")
    return "\n".join(lines) + "\n"


def random_network(rng: random.Random) -> str:
    """One network of the oracle-equivalence distribution: 2-5 site
    names, monomers of 1-3 sites, 2-10 monomer instances in all, each
    type with 1-3 copies.  Small enough for ``brute_force_stable``.
    """
    names = "abcde"[: rng.randint(2, 5)]
    lines = []
    remaining = rng.randint(2, 10)
    while remaining > 0:
        k = rng.randint(1, 3)
        sites = [
            rng.choice(names) + rng.choice(["", "*"]) for _ in range(k)
        ]
        count = rng.randint(1, min(3, remaining))
        lines.append(" ".join(sites) + f", {count}")
        remaining -= count
    return "\n".join(lines) + "\n"
