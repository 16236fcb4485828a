"""Domain model for thermodynamic binding networks (TBNs).

A TBN is a multiset of monomer types; a monomer is a finite multiset of
binding sites.  Site ``a`` binds only its complement ``a*``.  We follow the
convention that starred sites are limiting: across the whole network the
total count of ``a*`` never exceeds that of ``a``.  Inputs violating the
convention are repaired at parse time by flipping which literal of a name
carries the star (recorded in the parse report).

Counts may be infinite (monomers supplied "in large excess").  Infinite
counts are represented by the ``INF`` sentinel; code only ever compares
against it, never does arithmetic with it.

Conventions used throughout the package:
  - monomer types are kept in a canonical order: descending number of
    starred sites, then lexicographic on the sorted site list.  This puts
    limiting monomers first, which is what the symmetry-breaking
    constraints of the IP model want.
  - a polymer is a count vector over the TBN's monomer-type ordering.
  - a ``Configuration`` is a multiset of polymers in non-increasing
    lexicographic order of their count vectors.  A partial one lists the
    polymers of two or more monomers, and every monomer they do not hold
    is an implied singleton; a full one (``pathways.FullConfiguration``)
    lists the singletons too.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)


class TbnError(Exception):
    """Base class for all errors raised by this package."""


class TbnSyntaxError(TbnError):
    """Malformed .tbn input text."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TbnValidationError(TbnError):
    """Structurally well-formed input that violates a model invariant."""


class _Infinity:
    """Sentinel for an infinite monomer count.  Compares above every int."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("tbn-infinity")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True


INF = _Infinity()

Count = Union[int, _Infinity]

_FORBIDDEN_NAME_CHARS = set("*,:#")


def _add(a: Count, b: Count) -> Count:
    return INF if (a is INF or b is INF) else a + b


@dataclass(frozen=True, order=True)
class SiteType:
    """A named binding site, optionally starred.  ``a*`` complements ``a``."""

    name: str
    starred: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise TbnValidationError("site name must be nonempty")
        if any(c.isspace() or c in _FORBIDDEN_NAME_CHARS for c in self.name):
            raise TbnValidationError(
                f"site name {self.name!r} contains whitespace or one of ',:*#'"
            )

    def complement(self) -> "SiteType":
        return SiteType(self.name, not self.starred)

    def __str__(self) -> str:
        return self.name + ("*" if self.starred else "")

    @classmethod
    def parse(cls, token: str) -> "SiteType":
        if token.endswith("*"):
            return cls(token[:-1], True)
        return cls(token, False)


@dataclass(frozen=True)
class Monomer:
    """A finite multiset of site types.  The label is decoration only."""

    sites: tuple
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.sites:
            raise TbnValidationError("a monomer must contain at least one site")
        object.__setattr__(self, "sites", tuple(sorted(self.sites)))

    def net_count(self, s: SiteType) -> int:
        """Count of ``s`` minus count of its complement in this monomer."""
        plus = sum(1 for x in self.sites if x == s)
        minus = sum(1 for x in self.sites if x == s.complement())
        return plus - minus

    @property
    def starred_site_count(self) -> int:
        return sum(1 for s in self.sites if s.starred)

    @property
    def is_limiting(self) -> bool:
        return self.starred_site_count > 0

    def site_names(self) -> set:
        return {s.name for s in self.sites}

    def canonical_key(self) -> tuple:
        return (-self.starred_site_count, tuple(str(s) for s in self.sites))

    @property
    def name(self) -> str:
        """The label, or the sites in braces."""
        return self.label or "{" + " ".join(str(s) for s in self.sites) + "}"

    def __str__(self) -> str:
        body = " ".join(str(s) for s in self.sites)
        return f"{self.label}: {body}" if self.label else body


@dataclass(frozen=True)
class Tbn:
    """A multiset of monomer types with counts in N or infinity.

    ``monomer_types`` is the canonical ordering; ``counts`` is parallel.
    Construct through :meth:`from_monomers`, which sorts, merges duplicate
    types and validates the model invariants.  It also sets ``aliases``:
    a ``(label, index)`` pair for each label of a merged duplicate that
    its type's monomer does not carry, so :meth:`monomer_by_label`
    resolves every label of the input.
    """

    monomer_types: tuple
    counts: tuple
    aliases: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def from_monomers(cls, pairs: Iterable) -> "Tbn":
        """Build a TBN from (monomer, count) pairs.

        Duplicate monomer types (equal as multisets) are merged; a duplicate
        with infinite count makes the merged count infinite.  The merged
        type keeps its first label; later ones become aliases.  A label
        that names two different types is a ``TbnValidationError``.
        """
        merged: dict = {}
        order: dict = {}
        named: dict = {}
        for mon, count in pairs:
            if count is not INF and (not isinstance(count, int) or count < 1):
                raise TbnValidationError(
                    f"monomer count must be >= 1 or inf, got {count!r}"
                )
            if mon in merged:
                merged[mon] = _add(merged[mon], count)
                if order[mon].label is None and mon.label is not None:
                    order[mon] = mon
            else:
                merged[mon] = count
                order[mon] = mon
            label = mon.label
            if label is not None and named.setdefault(label, mon) != mon:
                raise TbnValidationError(
                    f"label {label!r} names two different monomer "
                    f"types: {named[label]} and {mon}"
                )
        monomers = sorted(order.values(), key=Monomer.canonical_key)
        index = {m: i for i, m in enumerate(monomers)}
        aliases = tuple(
            (label, index[mon]) for label, mon in named.items()
            if label != order[mon].label
        )
        tbn = cls(tuple(monomers), tuple(merged[m] for m in monomers))
        object.__setattr__(tbn, "aliases", aliases)
        tbn._validate()
        return tbn

    def _validate(self) -> None:
        for mon, count in zip(self.monomer_types, self.counts):
            if mon.is_limiting and count is INF:
                raise TbnValidationError(
                    f"limiting monomer {mon} must have finite count"
                )
        totals = _site_totals(
            (mon.sites, count)
            for mon, count in zip(self.monomer_types, self.counts)
        )
        for name, (unstarred, starred) in totals:
            if starred > unstarred:
                raise TbnValidationError(
                    f"starred sites of {name!r} exceed unstarred "
                    f"({starred!r} > {unstarred!r}); starred sites must be limiting"
                )

    @property
    def n_types(self) -> int:
        return len(self.monomer_types)

    def site_names(self) -> list:
        names = set()
        for mon in self.monomer_types:
            names |= mon.site_names()
        return sorted(names)

    @cached_property
    def site_matrix(self) -> tuple:
        """Net site counts: one row per name of :meth:`site_names`, one
        column per monomer type (unstarred minus starred occurrences).

        Computed on first use and kept with the TBN, so parsing does not
        pay for it.  A polymer is self-saturated iff every row's dot
        product with its count vector is nonnegative.
        """
        names = self.site_names()
        row_of = {name: r for r, name in enumerate(names)}
        rows = [[0] * self.n_types for _ in names]
        for i, mon in enumerate(self.monomer_types):
            for s in mon.sites:
                rows[row_of[s.name]][i] += -1 if s.starred else 1
        return tuple(tuple(row) for row in rows)

    @cached_property
    def site_matrix_nonzeros(self) -> tuple:
        """Each row of :attr:`site_matrix` as its ``(column, entry)``
        pairs with a nonzero entry."""
        return tuple(
            tuple((i, a) for i, a in enumerate(row) if a)
            for row in self.site_matrix
        )

    def total_site_count(self, s: SiteType) -> Count:
        """Total occurrences of the literal ``s`` across the TBN (with counts)."""
        total = 0
        for mon, count in zip(self.monomer_types, self.counts):
            occ = sum(1 for x in mon.sites if x == s)
            if occ == 0:
                continue
            if count is INF:
                return INF
            total += occ * count
        return total

    @property
    def limiting_indices(self) -> tuple:
        return tuple(
            i for i, m in enumerate(self.monomer_types) if m.is_limiting
        )

    @property
    def is_finite(self) -> bool:
        return all(c is not INF for c in self.counts)

    def total_monomers(self) -> Count:
        if not self.is_finite:
            return INF
        return sum(self.counts)  # type: ignore[arg-type]

    def index_of(self, mon: Monomer) -> int:
        return self.monomer_types.index(mon)

    def unit(self, i: int) -> "Polymer":
        """The one-monomer polymer of type ``i``."""
        counts = [0] * self.n_types
        counts[i] = 1
        return Polymer(tuple(counts))

    def with_counts_capped(self, cap: int) -> "Tbn":
        """Replace infinite counts by ``cap`` copies (for brute-force oracles)."""
        counts = tuple(cap if c is INF else c for c in self.counts)
        return Tbn(self.monomer_types, counts)

    def monomer_by_label(self, token: str) -> int:
        """Resolve a label or 1-based index to a monomer-type index."""
        for i, mon in enumerate(self.monomer_types):
            if mon.label == token:
                return i
        for label, i in self.aliases:
            if label == token:
                return i
        if token.isdigit():
            idx = int(token) - 1
            if 0 <= idx < self.n_types:
                return idx
        raise TbnValidationError(f"unknown monomer label or index {token!r}")


@dataclass(frozen=True, slots=True)
class Polymer:
    """A finite multiset of monomers as a count vector over the TBN ordering."""

    counts: tuple

    def __post_init__(self) -> None:
        if min(self.counts, default=0) < 0:
            raise TbnValidationError("polymer counts must be nonnegative")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def __add__(self, other: "Polymer") -> "Polymer":
        return Polymer(tuple(map(operator.add, self.counts, other.counts)))

    def __le__(self, other: "Polymer") -> bool:
        return all(a <= b for a, b in zip(self.counts, other.counts))

    def __sub__(self, other: "Polymer") -> "Polymer":
        return Polymer(tuple(map(operator.sub, self.counts, other.counts)))

    def describe(self, tbn: Tbn) -> str:
        parts = []
        for count, mon in zip(self.counts, tbn.monomer_types):
            parts.extend([mon.name] * count)
        return " + ".join(parts)


def leftover(polymers: Iterable[Polymer], t: Tbn) -> List[Count]:
    """Per monomer type, the copies of ``t`` that ``polymers`` do not
    hold: the implied singletons of a configuration.  ``INF`` stays
    ``INF``; a negative entry means the polymers overuse that type."""
    usage = [0] * t.n_types
    for p in polymers:
        for i, c in enumerate(p.counts):
            usage[i] += c
    return [c if c is INF else c - u for c, u in zip(t.counts, usage)]


def polymer_from_monomers(monomers: Sequence[Monomer], tbn: Tbn) -> Polymer:
    counts = [0] * tbn.n_types
    for mon in monomers:
        counts[tbn.index_of(mon)] += 1
    return Polymer(tuple(counts))


@dataclass(frozen=True, slots=True)
class Configuration:
    """Polymers of one TBN in non-increasing lexicographic order of their
    count vectors, the one canonical order: equal multisets make equal
    configurations with equal :meth:`key`."""

    polymers: tuple
    tbn: Tbn = field(compare=False)

    @classmethod
    def from_polymers(
        cls, polymers: Iterable[Polymer], tbn: Tbn, validate: bool = True
    ):
        config = cls(tuple(sorted(
            cls._listed(polymers), key=lambda p: p.counts, reverse=True
        )), tbn)
        if validate:
            config._validate()
        return config

    @staticmethod
    def _listed(polymers: Iterable[Polymer]) -> Iterable[Polymer]:
        """The polymers this kind of configuration lists."""
        return polymers

    @property
    def n_polymers(self) -> int:
        return len(self.polymers)

    def key(self) -> tuple:
        """The polymers' count vectors, in the canonical order."""
        return tuple([p.counts for p in self.polymers])

    def merge_count(self) -> int:
        """Pairwise merges that build the polymers from singletons."""
        return sum(p.size for p in self.polymers) - self.n_polymers

    def describe(self) -> str:
        return " | ".join(p.describe(self.tbn) for p in self.polymers)


@dataclass(frozen=True, slots=True)
class PartialConfiguration(Configuration):
    """The polymers of two or more monomers of a configuration; every
    monomer they do not hold is an implied singleton, listed or not."""

    @staticmethod
    def _listed(polymers: Iterable[Polymer]) -> Iterable[Polymer]:
        return (p for p in polymers if p.size >= 2)

    def _validate(self) -> None:
        t = self.tbn
        if any(len(p.counts) != t.n_types for p in self.polymers):
            raise TbnValidationError("polymer has wrong dimension")
        left = leftover(self.polymers, t)
        for i, (mon, count, n) in enumerate(
            zip(t.monomer_types, t.counts, left)
        ):
            if n < 0:
                raise TbnValidationError(
                    f"monomer {mon} used {count - n} times, "
                    f"TBN supplies only {count!r}"
                )
            # leftovers of a limiting type become implied singletons,
            # which is only coherent if that singleton is self-saturated
            if mon.is_limiting and n and not is_self_saturated(t.unit(i), t):
                raise TbnValidationError(
                    f"limiting monomer {mon} is left over as an implied "
                    f"singleton that exposes a starred site"
                )


def _net_sites(p: Polymer, t: Tbn) -> List[int]:
    """``t.site_matrix . p.counts``, one entry per site name; a polymer
    of the wrong dimension is an error."""
    counts = p.counts
    if len(counts) != t.n_types:
        raise TbnValidationError("polymer has wrong dimension")
    rows = t.site_matrix_nonzeros
    return [sum(a * counts[i] for i, a in row) for row in rows]


def exposed_sites(p: Polymer, t: Tbn) -> Counter:
    """Leftover sites of a polymer after cancelling complementary pairs.

    Emits ``|net|`` copies of ``s`` (net > 0) or of ``s*`` (net < 0) per name.
    A polymer of the wrong dimension is an error.
    """
    result: Counter = Counter()
    for name, net in zip(t.site_names(), _net_sites(p, t)):
        if net:
            result[SiteType(name, net < 0)] = abs(net)
    return result


def is_self_saturated(p: Polymer, t: Tbn) -> bool:
    """True iff the polymer exposes no starred site, as
    ``t.site_matrix . p.counts >= 0`` (``_net_sites``)."""
    return min(_net_sites(p, t), default=0) >= 0


def split_search(
    p: Polymer, t: Tbn, tick: Optional[Callable[[], None]] = None
) -> Iterator[Tuple[Polymer, Polymer]]:
    """The splits of ``p`` into two nonempty self-saturated parts, the
    lexicographically smaller part first, in ascending order of it; none
    when ``p`` is a polymer basis element or is not self-saturated.

    A depth-first search fixes the part's coordinates in index order,
    each value ascending, calling ``tick`` once per value, its node.  A
    value is given only if every site-matrix row ``A_r`` through its
    column can still end within ``0 <= A_r x <= A_r p``; while the part
    equals its complement, it is at most half its coordinate.  The
    search is one loop over per-depth lists, so a split is yielded from
    a single frame and a search leaves no reference cycle behind.
    """
    counts = p.counts
    caps = _net_sites(p, t)
    if sum(counts) < 2 or min(caps, default=0) < 0:
        return iter(())
    # checks[i]: each row through column i, its entry there, and the
    # range its fixed activity must lie in once column i is fixed (rows
    # list their columns in index order, the order they are fixed in)
    checks: List[List[Tuple[int, int, int, int]]] = [[] for _ in counts]
    for r, row in enumerate(t.site_matrix_nonzeros):
        low, high = 0, caps[r]
        for i, a in reversed(row):
            checks[i].append((r, a, low, high))
            if a > 0:
                low -= a * counts[i]
            else:
                high -= a * counts[i]
    cols = [i for i, c in enumerate(counts) if c]
    return _split_loop(counts, cols, checks, len(caps), tick)


def _split_loop(
    counts: tuple,
    cols: List[int],
    checks: List[List[Tuple[int, int, int, int]]],
    n_rows: int,
    tick: Optional[Callable[[], None]],
) -> Iterator[Tuple[Polymer, Polymer]]:
    """``split_search``'s depth-first loop.  Depth ``d`` fixes column
    ``i = cols[d]``: ``part[i]`` is the value it holds, ``last[d]`` the
    last one allowed, and ``tie[d]`` whether the part still equals its
    complement on the columns before it.  ``activity`` holds each row's
    dot product with the fixed values; the last depth changes no row."""
    depth = len(cols) - 1
    activity = [0] * n_rows
    part = [0] * len(counts)
    last = [0] * depth
    tie = [True] * (depth + 1)
    d = 0
    while True:
        i = cols[d]
        c = counts[i]
        first, end = 0, c // 2 if tie[d] else c
        for r, a, low, high in checks[i]:
            f = activity[r]
            if a > 0:
                lo, hi = -((f - low) // a), (high - f) // a
            else:
                lo, hi = -((high - f) // -a), (f - low) // -a
            if lo > first:
                first = lo
            if hi < end:
                end = hi
        if d < depth:
            # one before the first value, which the step below takes
            part[i], last[d] = first - 1, end
            for r, a, _, _ in checks[i]:
                activity[r] += a * (first - 1)
        else:
            for v in range(first, end + 1):
                if tick is not None:
                    tick()
                part[i] = v
                if v or any(part):
                    yield (Polymer(tuple(part)),
                           Polymer(tuple(map(operator.sub, counts, part))))
            part[i] = 0
            d -= 1
        # step to the next value of depth d, backing out of every depth
        # whose values are spent
        while d >= 0:
            i = cols[d]
            v = part[i] + 1
            if v <= last[d]:
                if tick is not None:
                    tick()
                part[i] = v
                for r, a, _, _ in checks[i]:
                    activity[r] += a
                tie[d + 1] = tie[d] and 2 * v == counts[i]
                break
            for r, a, _, _ in checks[i]:
                activity[r] -= a * (v - 1)
            part[i] = 0
            d -= 1
        else:
            return
        d += 1


def merge_count(pc: Configuration) -> int:
    """Pairwise merges needed to build the configuration from singletons."""
    return pc.merge_count()


def canonical_unique(
    configs: Iterable[Configuration],
) -> List[Configuration]:
    """One configuration per distinct polymer multiset (the first seen),
    in non-increasing order of their keys."""
    unique = {}
    for pc in configs:
        unique.setdefault(pc.key(), pc)
    return [unique[key] for key in sorted(unique, reverse=True)]


@dataclass(frozen=True)
class ParseReport:
    """What normalization did to the input during parsing."""

    flipped_names: tuple = ()
    merged_duplicate_lines: int = 0


def _site_totals(pairs: Iterable) -> list:
    """``(name, (unstarred, starred))`` per site name, in name order: the
    copies of each literal over ``(sites, count)`` pairs, ``INF`` where an
    infinite count holds it."""
    totals: dict = {}
    for sites, count in pairs:
        for s in sites:
            pair = totals.setdefault(s.name, [0, 0])
            pair[s.starred] = _add(pair[s.starred], count)
    return sorted(totals.items())


def _tokenize_tbn(text: str):
    """Yield (label, sites, count, line_no) per monomer line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label = None
        if ":" in line:
            label_part, _, line = line.partition(":")
            label = label_part.strip()
            if not label:
                raise TbnSyntaxError("empty label before ':'", line_no)
            if any(c.isspace() or c in _FORBIDDEN_NAME_CHARS for c in label):
                raise TbnSyntaxError(f"invalid label {label!r}", line_no)
            line = line.strip()
        count: Count = 1
        if "," in line:
            line, _, count_part = line.rpartition(",")
            count_part = count_part.strip()
            line = line.strip()
            if count_part == "inf":
                count = INF
            elif count_part.isdigit():
                count = int(count_part)
                if count < 1:
                    raise TbnSyntaxError(
                        "count must be >= 1 or 'inf'", line_no
                    )
            else:
                raise TbnSyntaxError(
                    f"count must be a positive integer or 'inf', "
                    f"got {count_part!r}",
                    line_no,
                )
        tokens = line.split()
        if not tokens:
            raise TbnSyntaxError("monomer has no sites", line_no)
        try:
            sites = [SiteType.parse(tok) for tok in tokens]
        except TbnValidationError as exc:
            raise TbnSyntaxError(str(exc), line_no) from exc
        yield label, sites, count, line_no


def parse_tbn_with_report(text: str):
    """Parse .tbn text, returning the TBN and a report of normalizations.

    Grammar, one monomer per line::

        [label :] site [site ...] [, count]

    where a site is a name with optional trailing ``*``, count is a positive
    integer or ``inf``; ``#`` starts a comment, blank lines are ignored.
    """
    entries = list(_tokenize_tbn(text))
    if not entries:
        return Tbn((), ()), ParseReport()

    flipped = []
    for name, (un, st) in _site_totals(
        (sites, count) for _, sites, count, _ in entries
    ):
        if st is INF and un is INF:
            raise TbnValidationError(
                f"site {name!r} has infinite count on both starred and "
                f"unstarred sides"
            )
        if st > un:
            flipped.append(name)
    flip_set = set(flipped)

    pairs = []
    for label, sites, count, _ in entries:
        if flip_set:
            sites = [
                s.complement() if s.name in flip_set else s for s in sites
            ]
        pairs.append((Monomer(tuple(sites), label=label), count))

    tbn = Tbn.from_monomers(pairs)
    # ``from_monomers`` merges the lines whose monomers are equal, labels
    # aside, into one type each
    return tbn, ParseReport(tuple(flipped), len(pairs) - tbn.n_types)


def parse_tbn(text: str) -> Tbn:
    tbn, _ = parse_tbn_with_report(text)
    return tbn


def render_tbn(t: Tbn) -> str:
    """Canonical .tbn text; ``parse_tbn(render_tbn(t)) == t``.

    Each alias of a type gets a line of its own with count 1 (``inf``
    for an infinite count) after the type's line, which keeps the rest,
    so every label still resolves after parsing.  A merged line held at
    least one copy, so every finite count stays at least 1.
    """
    lines = []
    for i, (mon, count) in enumerate(zip(t.monomer_types, t.counts)):
        aliases = [Monomer(mon.sites, a) for a, j in t.aliases if j == i]
        each = INF if count is INF else 1
        rest = INF if count is INF else count - len(aliases)
        for m, n in [(mon, rest)] + [(alias, each) for alias in aliases]:
            lines.append(str(m) if n == 1 else f"{m}, {n}")
    return "\n".join(lines) + ("\n" if lines else "")
