"""Adequate families as intersection traces of interval systems in [0,1].

Each ground-set label carries a finite union of closed rational
subintervals, an :class:`IntervalSet`, which takes its pieces in any order
and stores them sorted and merged.  A set of labels is a member exactly when
the corresponding interval sets share a common point.  The family is
computed by a sweep over piece starts: labels whose interval sets share a
point x also share the largest start of their pieces through x, so the
stabilizer sets read off at the piece starts hold every member.

The minimum Lebesgue measure of the interval sets lower-bounds the game
value of the traced family: any mean gives the indicator average
sum_s lambda(s) * |C_s| >= min measure, so some stabilizer carries at least
that much mass.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .families import HereditaryFamily, _json_int, hereditary_closure, maximal_cliques
from .rationals import ONE, ZERO, as_fraction, format_rational


class NotApplicableError(ValueError):
    """Raised when a check's precondition excludes the given input."""


Piece = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of closed rational intervals within [0,1], held canonically.

    ``pieces`` may list closed pieces ``(a, b)`` in any order, overlapping or
    touching; they are stored sorted and merged, so the stored pieces are
    pairwise disjoint and non-touching.  Degenerate points [a,a] are kept.  A
    piece that is inverted or leaves [0,1] raises ValueError.
    """

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        merged: list[list[Fraction]] = []
        for a, b in sorted((as_fraction(a), as_fraction(b)) for a, b in self.pieces):
            if not (0 <= a <= b <= 1):
                raise ValueError(f"piece [{a}, {b}] not within [0,1] or inverted")
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        object.__setattr__(self, "pieces", tuple((a, b) for a, b in merged))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.pieces), ZERO)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        p, q = self.pieces, other.pieces
        while i < len(p) and j < len(q):
            lo = max(p[i][0], q[j][0])
            hi = min(p[i][1], q[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if p[i][1] < q[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def to_json_list(self) -> list:
        return [[format_rational(a), format_rational(b)] for a, b in self.pieces]

    @classmethod
    def from_json_list(cls, data: Sequence) -> "IntervalSet":
        for p in data:
            if not isinstance(p, list) or len(p) != 2:
                raise ValueError(f"piece {p!r} must be a list of two endpoints")
        return cls(data)


@dataclass(frozen=True)
class IntervalSystem:
    """One interval set per ground-set label."""

    sets: tuple[IntervalSet, ...]

    def __post_init__(self):
        if len(self.sets) < 1:
            raise ValueError("system needs at least one interval set")

    @property
    def n(self) -> int:
        return len(self.sets)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sets": [s.to_json_list() for s in self.sets]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntervalSystem":
        if not isinstance(d, dict):
            raise ValueError("interval system file must contain a JSON object")
        if "sets" not in d:
            raise ValueError("system field 'sets' missing")
        if not isinstance(d["sets"], list) or not all(isinstance(s, list) for s in d["sets"]):
            raise ValueError("system field 'sets' must be a list of piece lists")
        sets = tuple(IntervalSet.from_json_list(s) for s in d["sets"])
        if "n" in d and _json_int(d["n"], "system field 'n'") != len(sets):
            raise ValueError("system field 'n' disagrees with number of sets")
        return cls(sets)


def direct_intersection(sys: IntervalSystem, labels: Iterable[int]) -> IntervalSet:
    """Intersection of the chosen labels' interval sets ([0,1] for none)."""
    acc = IntervalSet(((ZERO, ONE),))
    for s in labels:
        acc = acc.intersect(sys.sets[s])
        if acc.is_empty:
            break
    return acc


def trace_family(sys: IntervalSystem) -> HereditaryFamily:
    """Family of label sets whose interval sets share a point.

    If some labels' interval sets share a point x, the largest start a of
    their pieces through x has a <= x <= every end of those pieces, so all
    of them contain a.  The family is therefore the downward closure of the
    stabilizers {s : a in C_s} at the piece starts a: hereditary by
    construction, and adequate in the finite sense (a set belongs iff all
    its subsets do).  A piece ``[a, b]`` holds the run of sorted starts from
    ``a`` to ``b``, found by bisection.
    """
    starts = sorted({a for iset in sys.sets for a, _ in iset.pieces})
    stabilizers: list[list[int]] = [[] for _ in starts]
    for s, iset in enumerate(sys.sets):
        for a, b in iset.pieces:
            for point in range(bisect_left(starts, a), bisect_right(starts, b)):
                stabilizers[point].append(s)
    return hereditary_closure(stabilizers, sys.n)


@dataclass(frozen=True)
class MeasureBoundReport:
    bound: Fraction
    delta: Fraction
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "bound": format_rational(self.bound),
            "delta": format_rational(self.delta),
            "ok": self.ok,
        }


def measure_lower_bound(sys: IntervalSystem) -> MeasureBoundReport:
    """Averaging bound: the traced family's game value is at least the
    minimum measure among the interval sets."""
    from .game import delta_exact

    bound = min(s.measure() for s in sys.sets)
    delta = delta_exact(trace_family(sys)).delta
    return MeasureBoundReport(bound=bound, delta=delta, ok=delta >= bound)


def helly_check(sys: IntervalSystem) -> bool:
    """One-dimensional Helly check for single-interval systems: a label set
    is a member iff its intervals meet pairwise, so the traced family is the
    family of cliques of the intersection graph, and the check compares the
    sweep's family with the graph's maximal cliques.  Must hold for every
    single-interval system; multi-piece (or empty) sets are rejected as not
    applicable."""
    for iset in sys.sets:
        if len(iset.pieces) != 1:
            raise NotApplicableError(
                "helly check applies only to systems of single closed intervals"
            )
    pieces = [iset.pieces[0] for iset in sys.sets]
    meets = [(i, j) for j in range(sys.n) for i in range(j)
             if max(pieces[i][0], pieces[j][0]) <= min(pieces[i][1], pieces[j][1])]
    return trace_family(sys) == maximal_cliques(sys.n, meets)


def random_system(seed: int, n: int, pieces_per_set: int,
                  min_measure) -> IntervalSystem:
    """Seed-deterministic interval system; every set has measure at least
    ``min_measure``.

    Endpoints live on the grid k/D with D = lcm(64, denominator), so
    denominators stay bounded.  Pieces are laid out left to right from random
    integer length and gap compositions; touching pieces merge without losing
    measure.
    """
    min_measure = as_fraction(min_measure)
    if n < 1:
        raise ValueError("infeasible parameters: n must be >= 1")
    if pieces_per_set < 1:
        raise ValueError("infeasible parameters: pieces_per_set must be >= 1")
    if not (0 <= min_measure <= 1):
        raise ValueError("infeasible parameters: min_measure must lie in [0,1]")
    rng = random.Random(seed)
    D = lcm(64, min_measure.denominator)
    L = int(min_measure * D)  # exact: denominator divides D
    sets = []
    for _ in range(n):
        total = L + rng.randint(0, D - L)
        len_cuts = sorted(rng.randint(0, total) for _ in range(pieces_per_set - 1))
        lengths = [b - a for a, b in zip([0] + len_cuts, len_cuts + [total])]
        slack = D - total
        gap_cuts = sorted(rng.randint(0, slack) for _ in range(pieces_per_set))
        gaps = [b - a for a, b in zip([0] + gap_cuts, gap_cuts + [slack])]
        pos = gaps[0]
        pieces = []
        for length, gap in zip(lengths, gaps[1:]):
            pieces.append((Fraction(pos, D), Fraction(pos + length, D)))
            pos += length + gap
        sets.append(IntervalSet(pieces))
    return IntervalSystem(tuple(sets))
