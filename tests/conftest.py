import string

import pytest

from tbntools.core import parse_tbn
from tbntools.solver import Budget, Clock

# Four-monomer introductory network: {a*,b*}, {a,b}, {a}, {b}, one of each.
INTRO_TBN_TEXT = """\
m1: a* b*
m2: a b
m3: a
m4: b
"""

# Infinite-excess example: infinitely many {a}, two {a*}.
EXCESS_TBN_TEXT = """\
t: a, inf
b: a*, 2
"""

# Grid example: one big starred monomer, two "row" and two "column" covers.
GRID_TBN_TEXT = """\
G: a* b* c* d*
H1: a b
H2: c d
V1: a c
V2: b d
"""

# Circular translator cascade: six 3-site unstarred monomers and six
# 2-site starred monomers arranged on a 6-cycle of site names a..f.
TRANSLATOR_TBN_TEXT = """\
T_abc: a b c
T_bcd: b c d
T_cde: c d e
T_def: d e f
T_efa: e f a
T_fab: f a b
G_ab: a* b*
G_bc: b* c*
G_cd: c* d*
G_de: d* e*
G_ef: e* f*
G_fa: f* a*
"""


def translator_text(k):
    """Circular translator cascade of length k (k = 6 is the fixture's)."""
    names = string.ascii_lowercase[:k]
    trios = [names[i] + names[(i + 1) % k] + names[(i + 2) % k]
             for i in range(k)]
    lines = [f"T_{s}: {' '.join(s)}" for s in trios]
    lines += [f"G_{s[:2]}: {s[0]}* {s[1]}*" for s in trios]
    return "\n".join(lines) + "\n"


class LateClock(Clock):
    """A clock whose time limit has passed from its second reading on,
    so the root tick succeeds and every later time check fails."""

    def __init__(self):
        super().__init__(Budget(max_time=1.0))
        self.readings = 0

    def elapsed(self) -> float:
        self.readings += 1
        return 0.0 if self.readings == 1 else 2.0


@pytest.fixture
def intro_tbn():
    return parse_tbn(INTRO_TBN_TEXT)


@pytest.fixture
def excess_tbn():
    return parse_tbn(EXCESS_TBN_TEXT)


@pytest.fixture
def grid_tbn():
    return parse_tbn(GRID_TBN_TEXT)


@pytest.fixture
def translator_tbn():
    return parse_tbn(TRANSLATOR_TBN_TEXT)
