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
from typing import Optional, Sequence

from .families import HereditaryFamily, mask_to_tuple
from .game import delta_exact
from .rationals import format_rational


@dataclass(frozen=True)
class SearchResult:
    best: tuple[int, ...]
    size: int
    nodes_explored: int  # maximal sets examined
    optimal: bool


def max_member(fam: HereditaryFamily, budget: Optional[int] = None) -> SearchResult:
    """Maximum-cardinality member; ties resolve to the lexicographically
    smallest set.  ``budget`` caps the maximal sets examined, in antichain
    order; a capped scan returns the longest set it examined, with
    ``optimal=False`` unless it examined them all; a negative budget raises
    ValueError.

    A maximum member is a longest maximal set, since each member lies inside
    a maximal set, and ``max`` returns the first longest one, which is the
    lexicographically smallest because the antichain is sorted.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    sets = fam.maximal if budget is None else fam.maximal[:budget]
    best = max(sets, key=len, default=())
    return SearchResult(best=best, size=len(best), nodes_explored=len(sets),
                        optimal=len(sets) == len(fam.maximal))


def greedy_member(fam: HereditaryFamily, order: Sequence[int]) -> tuple[int, ...]:
    """Scan labels in the given order, keeping each one that preserves
    membership of the accumulated set."""
    if sorted(order) != list(range(fam.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    acc = 0
    for e in order:
        cand = acc | (1 << e)
        if any(cand & ~m == 0 for m in fam.masks):
            acc = cand
    return mask_to_tuple(acc)


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
