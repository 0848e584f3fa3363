"""Maximum homogeneous member search with the value-based size guarantee.

A member of maximum cardinality is found by branch-and-bound over the
maximal antichain: the search state is a member, candidates are the maximal
sets containing it, and the bound is the size of the largest candidate.
Exploration is lexicographic and deterministic, with an explicit node budget
and a best-effort flag when the budget runs out.
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
    nodes_explored: int
    optimal: bool


def max_member(fam: HereditaryFamily, budget: Optional[int] = None) -> SearchResult:
    """Maximum-cardinality member; ties resolve to the lexicographically
    smallest set.  ``budget`` caps explored nodes; when it is hit the best
    member found so far is returned with ``optimal=False``; a negative one
    raises ValueError.

    The maximal sets are ordered by size, largest first, and each label
    keeps the bitset of the sets holding it.  A node's candidates are then
    one int, ANDed with a label's bitset to extend the member, and the bound
    is the size of the lowest candidate.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    n = fam.n
    order = sorted(range(len(fam.maximal)), key=lambda r: -len(fam.maximal[r]))
    sizes = [len(fam.maximal[r]) for r in order]
    holding = [0] * n
    for position, r in enumerate(order):
        for e in fam.maximal[r]:
            holding[e] |= 1 << position
    best_mask = best_size = 0
    nodes = 0
    # stack of (member mask, member size, candidate bitset, next label)
    stack = [(0, 0, (1 << len(order)) - 1, 0)]
    truncated = False
    while stack:
        if budget is not None and nodes >= budget:
            truncated = True
            break
        cur_mask, cur_size, cand, start = stack.pop()
        nodes += 1
        if cur_size > best_size:
            best_mask, best_size = cur_mask, cur_size
        children = []
        for e in range(start, n):
            sub = cand & holding[e]
            if sub and sizes[(sub & -sub).bit_length() - 1] > best_size:
                children.append((cur_mask | (1 << e), cur_size + 1, sub, e + 1))
        stack.extend(reversed(children))  # visit smallest label first
    return SearchResult(best=mask_to_tuple(best_mask), size=best_size,
                        nodes_explored=nodes, optimal=not truncated)


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
