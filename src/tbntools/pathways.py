"""Merge/split pathways between saturated configurations.

A full configuration of a finite TBN partitions every monomer instance
into polymers (singletons included).  Kinetics are modeled as a walk on
saturated full configurations: one step either merges two polymers or
splits a polymer into two self-saturated parts.  The cost of interest is
the barrier: the largest excess merge count over the starting
configuration seen anywhere along the walk.

``find_pathway`` searches for a minimum-barrier pathway with a best-first
strategy: states are ordered by the bottleneck barrier reached so far,
then by multiset distance to the goal.  Each popped state is one node of
its budget.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .core import (
    Configuration,
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    is_self_saturated,
    leftover,
    monomer_usage,
)
from .solver import Budget, Clock


class PathwayError(TbnError):
    """Ill-formed pathway request or broken step sequence."""


@dataclass(frozen=True, slots=True)
class FullConfiguration(Configuration):
    """Every monomer instance assigned to a polymer, singletons included;
    finite TBNs only."""

    def _validate(self) -> None:
        if not self.tbn.is_finite:
            raise PathwayError("full configurations require a fully finite TBN")
        if any(p.size == 0 for p in self.polymers):
            raise PathwayError("empty polymer in a configuration")
        usage = monomer_usage(self.polymers, self.tbn)
        if tuple(usage) != self.tbn.counts:
            raise PathwayError(
                f"configuration uses monomers {tuple(usage)}, "
                f"TBN supplies {self.tbn.counts}"
            )

    def is_saturated(self) -> bool:
        return all(is_self_saturated(p, self.tbn) for p in self.polymers)


def all_singletons(t: Tbn) -> FullConfiguration:
    return full_configuration(PartialConfiguration((), t))


def full_configuration(pc: PartialConfiguration) -> FullConfiguration:
    """Extend a partial configuration with its implied singletons."""
    t = pc.tbn
    if not t.is_finite:
        raise PathwayError("full configurations require a fully finite TBN")
    polymers = list(pc.polymers)
    for i, n in enumerate(leftover(pc.polymers, t)):
        polymers.extend([t.unit(i)] * n)
    return FullConfiguration.from_polymers(polymers, t)


def _halves(p: Polymer) -> Iterator[Tuple[Polymer, Polymer]]:
    """Unordered pairs of nonzero count vectors that sum to ``p``, each
    once, with the lexicographically smaller part first."""
    for part in itertools.product(*(range(c + 1) for c in p.counts)):
        other = tuple(c - v for c, v in zip(p.counts, part))
        if part > other or not any(part) or not any(other):
            continue
        yield Polymer(part), Polymer(other)


def splits(p: Polymer, t: Tbn) -> List[Tuple[Polymer, Polymer]]:
    """All unordered bipartitions of a polymer into self-saturated parts.

    Empty exactly when a self-saturated polymer is an element of the
    polymer basis.  Tries every half of ``p``, about ``prod(c_i + 1) / 2``.
    """
    return [
        (p1, p2) for p1, p2 in _halves(p)
        if is_self_saturated(p1, t) and is_self_saturated(p2, t)
    ]


def _splittable(p: Polymer, t: Tbn, clock: Clock) -> bool:
    """Whether ``splits(p, t)`` is nonempty, stopping at the first split;
    each half tried is one node of ``clock``."""
    for p1, p2 in _halves(p):
        clock.spend("local stability test")
        if is_self_saturated(p1, t) and is_self_saturated(p2, t):
            return True
    return False


def is_locally_stable(
    config: Configuration,
    budget: Budget | Clock | None = None,
) -> bool:
    """No polymer of a saturated configuration can split without
    breaking a bond; equivalently, every polymer is a basis element.

    ``config`` is full or partial: the implied singletons of a validated
    partial configuration are self-saturated, and a singleton never
    splits.  Each distinct polymer is tested once.  Each half of a polymer
    tried is one node of the budget, and ``BudgetExhausted`` is raised
    once it runs out.
    """
    t = config.tbn
    if not all(is_self_saturated(p, t) for p in config.polymers):
        raise PathwayError(
            "local stability is defined for saturated configurations only"
        )
    clock = Clock.of(budget)
    return not any(
        _splittable(p, t, clock) for p in dict.fromkeys(config.polymers)
    )


def merge_moves(config: FullConfiguration) -> Iterator[FullConfiguration]:
    """All configurations one pairwise merge away."""
    polys = config.polymers
    seen = set()
    for a, b in itertools.combinations(range(len(polys)), 2):
        merged = polys[a] + polys[b]
        rest = [p for k, p in enumerate(polys) if k not in (a, b)]
        nxt = FullConfiguration.from_polymers(
            rest + [merged], config.tbn, validate=False
        )
        if nxt.key() not in seen:
            seen.add(nxt.key())
            yield nxt


def split_moves(config: FullConfiguration) -> Iterator[FullConfiguration]:
    """All configurations one saturation-preserving binary split away."""
    seen_polymers = set()
    seen = set()
    for k, poly in enumerate(config.polymers):
        if poly.size < 2 or poly.counts in seen_polymers:
            continue
        seen_polymers.add(poly.counts)
        rest = [p for j, p in enumerate(config.polymers) if j != k]
        for p1, p2 in splits(poly, config.tbn):
            nxt = FullConfiguration.from_polymers(
                rest + [p1, p2], config.tbn, validate=False
            )
            if nxt.key() not in seen:
                seen.add(nxt.key())
                yield nxt


@dataclass(frozen=True)
class Pathway:
    """A sequence of configurations, adjacent under merge/split moves."""

    configurations: Tuple[FullConfiguration, ...]

    def __post_init__(self) -> None:
        if not self.configurations:
            raise PathwayError("a pathway needs at least one configuration")

    @property
    def length(self) -> int:
        return len(self.configurations) - 1

    def merge_counts(self) -> List[int]:
        return [c.merge_count() for c in self.configurations]

    def barrier(self) -> int:
        start = self.configurations[0].merge_count()
        return max(c.merge_count() - start for c in self.configurations)

    def validate(self) -> None:
        """Replay the pathway, checking every step is a legal move."""
        for prev, cur in zip(self.configurations, self.configurations[1:]):
            delta = cur.merge_count() - prev.merge_count()
            if delta == 1:
                neighbors = merge_moves(prev)
            elif delta == -1:
                neighbors = split_moves(prev)
            else:
                raise PathwayError(
                    f"merge count jumps by {delta} between steps"
                )
            if cur.key() not in {n.key() for n in neighbors}:
                raise PathwayError(
                    f"{cur.describe()} is not one move from "
                    f"{prev.describe()}"
                )

    def reversed(self) -> "Pathway":
        return Pathway(tuple(reversed(self.configurations)))


def _distance(a: FullConfiguration, b: FullConfiguration) -> int:
    """Polymer multiset symmetric difference; 0 iff equal."""
    from collections import Counter

    ca = Counter(p.counts for p in a.polymers)
    cb = Counter(p.counts for p in b.polymers)
    return sum(((ca - cb) + (cb - ca)).values())


def find_pathway(
    start: FullConfiguration,
    goal: FullConfiguration,
    max_barrier: Optional[int] = None,
    budget: Budget | Clock | None = None,
) -> Optional[Pathway]:
    """Minimum-barrier pathway between two saturated configurations.

    Best-first search ordered by (barrier reached, distance to goal);
    the barrier of a path is the bottleneck, so the first time the goal
    is popped the barrier is optimal.  Returns None when no pathway
    exists within ``max_barrier``, and raises ``BudgetExhausted`` when
    the budget runs out first.
    """
    if start.tbn.counts != goal.tbn.counts:
        raise PathwayError("start and goal belong to different TBNs")
    for config in (start, goal):
        if not config.is_saturated():
            raise PathwayError(
                f"configuration {config.describe()} is not saturated"
            )
    clock = Clock.of(budget)
    base = start.merge_count()

    # a heap entry's last field links its configuration to its
    # predecessor's link, so the path is rebuilt only when the goal pops
    counter = itertools.count()
    heap = [(0, _distance(start, goal), next(counter), (start, None))]
    best_barrier = {start.key(): 0}

    while heap:
        reached, _, _, link = heapq.heappop(heap)
        config = link[0]
        clock.spend("pathway search")
        if config.key() == goal.key():
            return Pathway(_unwind(link))
        if reached > best_barrier.get(config.key(), reached):
            continue
        for nxt in itertools.chain(merge_moves(config), split_moves(config)):
            nxt_barrier = max(reached, nxt.merge_count() - base)
            if max_barrier is not None and nxt_barrier > max_barrier:
                continue
            known = best_barrier.get(nxt.key())
            if known is not None and known <= nxt_barrier:
                continue
            best_barrier[nxt.key()] = nxt_barrier
            heapq.heappush(
                heap,
                (
                    nxt_barrier,
                    _distance(nxt, goal),
                    next(counter),
                    (nxt, link),
                ),
            )
    return None


def _unwind(link) -> Tuple[FullConfiguration, ...]:
    """Configurations from the start to ``link``'s, following the links."""
    configs = []
    while link is not None:
        config, link = link
        configs.append(config)
    return tuple(reversed(configs))
