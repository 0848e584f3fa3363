"""Maximum homogeneous member search with the value-based size guarantee.

Every member lies inside a maximal set and every maximal set is a member, so
a member of maximum cardinality is a longest maximal set.  The antichain is
sorted lexicographically, so the first longest set in it is also the
lexicographically smallest maximum member: one scan finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .families import HereditaryFamily
from .game import delta_exact
from .rationals import format_rational


@dataclass(frozen=True)
class SearchResult:
    """``nodes_explored`` counts the maximal sets examined, which is all of
    them, so ``optimal`` is always True.  Both stay because the benchmark's
    ``wide`` workload checks ``optimal`` and digests ``nodes_explored``."""

    best: tuple[int, ...]
    size: int
    nodes_explored: int
    optimal: bool


def max_member(fam: HereditaryFamily) -> SearchResult:
    """Maximum-cardinality member; ties resolve to the lexicographically
    smallest set.

    A maximum member is a longest maximal set, since each member lies inside
    a maximal set, and ``max`` returns the first longest one, which is the
    lexicographically smallest because the antichain is sorted.
    """
    best = max(fam.maximal, key=len, default=())
    return SearchResult(best=best, size=len(best), nodes_explored=len(fam.maximal),
                        optimal=True)


@dataclass(frozen=True)
class BoundReport:
    delta: Fraction
    n: int
    achieved: int

    @property
    def bound(self) -> int:
        return math.ceil(self.delta * self.n)

    @property
    def ok(self) -> bool:
        return self.achieved >= self.bound

    def to_json_dict(self) -> dict:
        return {
            "delta": format_rational(self.delta),
            "n": self.n,
            "bound": self.bound,
            "achieved": self.achieved,
            "ok": self.ok,
        }


def ptak_bound_check(fam: HereditaryFamily) -> BoundReport:
    """Size guarantee from the game value: the uniform mean forces a member
    of weight at least delta, hence of cardinality at least ceil(delta * n).
    A failure would indicate an implementation bug, never valid data.
    """
    return BoundReport(delta_exact(fam).delta, fam.n, max_member(fam).size)
