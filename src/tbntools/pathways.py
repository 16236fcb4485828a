"""Merge/split pathways between saturated configurations.

A full configuration of a finite TBN partitions every monomer instance
into polymers (singletons included).  Kinetics are modeled as a walk on
saturated full configurations: one step either merges two polymers or
splits a polymer into two self-saturated parts, which ``Pathway.validate``
checks from the polymers the step removes and adds, generating no move.
The cost of interest is the barrier: the largest excess merge count over
the starting configuration seen anywhere along the walk.

``find_pathway`` searches for a minimum-barrier pathway with a best-first
strategy.  The goal's merge count less the start's is a floor under
every barrier, so states are ordered by the larger of that floor and the
bottleneck barrier reached so far, then by multiset distance to the
goal.  Each popped state is one node of its budget.  A state's key is
computed once and travels in its heap entry with its merge count, which
each move changes by one.  Moves build their successors by splicing:
the polymers a move removes come out of the canonical polymer tuple and
the ones it makes go in at their places, with no sort and no validation.
Merges are deduped by their pair of count vectors before anything is
built, and the distance to the goal is one pass over a state's key:
both rely on copies of a count vector being adjacent in canonical order.

``splits`` lists a polymer's splits and ``is_locally_stable`` stops at
the first, both through ``core.split_search``, the one search that
splits a polymer.  A pathway search splits each distinct polymer once
and checks the time limit at every node of its split searches; each
node of ``is_locally_stable``'s is one node of its budget.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .core import (
    Configuration,
    PartialConfiguration,
    Polymer,
    Tbn,
    TbnError,
    is_self_saturated,
    leftover,
    split_search,
)
from .solver import Budget, Clock


# a polymer's splits, each as its two parts
_Splits = List[Tuple[Polymer, Polymer]]


class PathwayError(TbnError):
    """Ill-formed pathway request or broken step sequence."""


@dataclass(frozen=True, slots=True)
class FullConfiguration(Configuration):
    """Every monomer instance assigned to a polymer, singletons included;
    finite TBNs only."""

    def _validate(self) -> None:
        if any(len(p.counts) != self.tbn.n_types for p in self.polymers):
            raise PathwayError("polymer has wrong dimension")
        if not self.tbn.is_finite:
            raise PathwayError("full configurations require a fully finite TBN")
        if any(p.size == 0 for p in self.polymers):
            raise PathwayError("empty polymer in a configuration")
        left = leftover(self.polymers, self.tbn)
        if any(left):
            usage = tuple(c - n for c, n in zip(self.tbn.counts, left))
            raise PathwayError(
                f"configuration uses monomers {usage}, "
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


def splits(p: Polymer, t: Tbn, *, clock: Optional[Clock] = None) -> _Splits:
    """Every split of ``p`` into two self-saturated parts, in the order
    of ``core.split_search``; empty exactly when a self-saturated polymer
    is a basis element.  With a pathway search's ``clock``, every node
    of the search checks the time limit and counts no node.
    """
    tick = None if clock is None else functools.partial(
        clock.check, "pathway search"
    )
    return list(split_search(p, t, tick))


def is_locally_stable(
    config: Configuration,
    budget: Budget | Clock | None = None,
) -> bool:
    """No polymer of a saturated configuration can split without
    breaking a bond; equivalently, every polymer is a basis element.

    ``config`` is full or partial: the implied singletons of a validated
    partial configuration are self-saturated, and a singleton never
    splits.  Each distinct polymer is tested once, its split search
    stopping at the first split.  Each node of that search is one node of
    the budget, and ``BudgetExhausted`` is raised once it runs out.
    """
    t = config.tbn
    if not all(is_self_saturated(p, t) for p in config.polymers):
        raise PathwayError(
            "local stability is defined for saturated configurations only"
        )
    tick = functools.partial(Clock.of(budget).spend, "local stability test")
    return not any(
        next(split_search(p, t, tick), None)
        for p in dict.fromkeys(config.polymers)
    )


def _insert(polys: tuple, p: Polymer) -> tuple:
    """``polys``, in canonical order, with ``p`` spliced in at its place
    in that order, found by bisection."""
    counts, lo, hi = p.counts, 0, len(polys)
    while lo < hi:
        mid = (lo + hi) // 2
        if polys[mid].counts < counts:
            hi = mid
        else:
            lo = mid + 1
    return polys[:lo] + (p,) + polys[lo:]


def merge_moves(config: FullConfiguration) -> Iterator[FullConfiguration]:
    """All configurations one pairwise merge away.

    Each distinct pair of count vectors is merged once: two merges give
    the same configuration exactly when they merge the same pair, since
    the sum outsizes both its parts.  Copies of a count vector are
    adjacent in canonical order, so a pair ``a < b`` repeats an earlier
    one exactly when ``a`` copies the polymer before it, or ``b`` copies
    the polymer before it and that one is not ``a``.  The sum goes
    before both parts in canonical order, so it is spliced into what
    precedes the first.
    """
    polys, t = config.polymers, config.tbn
    key = config.key()
    for a in range(len(polys)):
        if a and key[a - 1] == key[a]:
            continue
        for b in range(a + 1, len(polys)):
            if b - 1 > a and key[b - 1] == key[b]:
                continue
            head = _insert(polys[:a], polys[a] + polys[b])
            yield FullConfiguration(head + polys[a + 1:b] + polys[b + 1:], t)


def split_moves(
    config: FullConfiguration,
    *,
    clock: Clock,
    memo: Dict[tuple, _Splits],
) -> Iterator[FullConfiguration]:
    """All configurations one saturation-preserving binary split away.

    ``clock`` goes to ``splits``.  ``memo`` maps polymer counts to their
    splits; a search that passes the same dict to every call splits each
    polymer once.  Both parts come after the split polymer in canonical
    order, so they are spliced into what follows it.  No two moves give
    the same configuration, so none is filtered: ``split_search`` lists
    each split of a polymer once, and splits of polymers p != q would
    need p to be a part of q and q a part of p.
    """
    polys, t = config.polymers, config.tbn
    for k, poly in enumerate(polys):
        # copies of a polymer are adjacent; the first stands for them all
        if poly.size < 2 or (k and polys[k - 1].counts == poly.counts):
            continue
        parts = memo.get(poly.counts)
        if parts is None:
            parts = memo[poly.counts] = splits(poly, t, clock=clock)
        head, tail = polys[:k], polys[k + 1:]
        for p1, p2 in parts:
            yield FullConfiguration(head + _insert(_insert(tail, p1), p2), t)


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
        """Check that each step is one move, from the polymers it removes
        (``gone``) and adds (``made``) alone: a merge makes the sum of two
        gone polymers, and a split is a merge read backwards whose two
        parts are self-saturated."""
        for prev, cur in zip(self.configurations, self.configurations[1:]):
            before, after = Counter(prev.key()), Counter(cur.key())
            gone = list((before - after).elements())
            made = list((after - before).elements())
            if len(made) == 2 and all(
                is_self_saturated(Polymer(p), cur.tbn) for p in made
            ):
                gone, made = made, gone
            if len(gone) != 2 or [tuple(map(sum, zip(*gone)))] != made:
                raise PathwayError(
                    f"{cur.describe()} is not one move from "
                    f"{prev.describe()}"
                )

    def reversed(self) -> "Pathway":
        return Pathway(tuple(reversed(self.configurations)))


def _distance(key: tuple, goal: Dict[tuple, int], goal_size: int) -> int:
    """Size of the polymer multiset symmetric difference between the
    state of ``key`` and the goal, given as its count vectors'
    multiplicities and their total; 0 iff equal.  One pass over the
    key: its copies of a count vector are adjacent in canonical order,
    so each distinct one is looked up in ``goal`` once."""
    shared, prev, left = 0, None, 0
    for counts in key:
        if counts != prev:
            prev, left = counts, goal.get(counts, 0)
        if left:
            shared += 1
            left -= 1
    return len(key) + goal_size - 2 * shared


def find_pathway(
    start: FullConfiguration,
    goal: FullConfiguration,
    max_barrier: Optional[int] = None,
    budget: Budget | Clock | None = None,
) -> Optional[Pathway]:
    """Minimum-barrier pathway between two saturated configurations.

    Every pathway ends at the goal, so its barrier is at least the
    floor, the goal's merge count less the start's (or 0).  Best-first
    search ordered by (rank, distance to goal), where a path's rank is
    the larger of the floor and the bottleneck barrier reached so far.
    Ranks never fall along a path and equal the barrier once the goal is
    reached, so the first time the goal is popped the barrier is optimal.
    Returns None when no pathway exists within ``max_barrier`` (at once
    when ``max_barrier`` is below the floor), and raises
    ``BudgetExhausted`` when the budget runs out first.  A negative
    ``max_barrier`` asks for what no barrier can be, and is a
    ``PathwayError``.  Each popped
    state is one node; the time limit is also checked at each move and
    at each node of a split search, counting no node.  Each distinct
    polymer is split once per search.
    """
    if max_barrier is not None and max_barrier < 0:
        raise PathwayError(
            f"max_barrier must not be negative, got {max_barrier}"
        )
    if start.tbn != goal.tbn:
        raise PathwayError("start and goal belong to different TBNs")
    for config in (start, goal):
        if not config.is_saturated():
            raise PathwayError(
                f"configuration {config.describe()} is not saturated"
            )
    base = start.merge_count()
    floor = max(0, goal.merge_count() - base)
    if max_barrier is not None and max_barrier < floor:
        return None
    clock = Clock.of(budget)
    memo: Dict[tuple, _Splits] = {}
    goal_key = goal.key()
    target = dict(Counter(goal_key))

    # a heap entry's last field links its state, (configuration, key,
    # merge count above the start's), to its predecessor's link, so the
    # path is rebuilt only when the goal pops
    counter = itertools.count()
    start_key = start.key()
    heap = [(
        floor,
        _distance(start_key, target, len(goal_key)),
        next(counter),
        (start, start_key, 0, None),
    )]
    best_barrier = {start_key: floor}

    while heap:
        reached, _, _, link = heapq.heappop(heap)
        config, key, merges, _ = link
        clock.spend("pathway search")
        if key == goal_key:
            return Pathway(_unwind(link))
        if reached > best_barrier.get(key, reached):
            continue
        # a merge adds one to the merge count, a split takes one away
        for nxt_merges, moves in (
            (merges + 1, merge_moves(config)),
            (merges - 1, split_moves(config, clock=clock, memo=memo)),
        ):
            nxt_barrier = max(reached, nxt_merges)
            for nxt in moves:
                clock.check("pathway search")
                if max_barrier is not None and nxt_barrier > max_barrier:
                    continue
                nxt_key = nxt.key()
                known = best_barrier.get(nxt_key)
                if known is not None and known <= nxt_barrier:
                    continue
                best_barrier[nxt_key] = nxt_barrier
                heapq.heappush(
                    heap,
                    (
                        nxt_barrier,
                        _distance(nxt_key, target, len(goal_key)),
                        next(counter),
                        (nxt, nxt_key, nxt_merges, link),
                    ),
                )
    return None


def _unwind(link) -> Tuple[FullConfiguration, ...]:
    """Configurations from the start to ``link``'s, following the links."""
    configs = []
    while link is not None:
        config, _, _, link = link
        configs.append(config)
    return tuple(reversed(configs))
