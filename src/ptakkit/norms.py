"""The family norm and its equivalence with the l1 norm.

``f_norm`` is the supremum of absolute member sums.  Hereditarity makes the
supremum computable from the maximal sets alone: inside a maximal set the
best member is the positive part or the negative part, whichever is heavier,
and both parts are members.  The value-based lower bounds sandwich it
between ``delta/2``-scaled and plain l1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import or_
from typing import Optional

from .families import HereditaryFamily
from .game import delta_exact
from .lp import solve_min_general
from .rationals import ZERO, as_fraction, format_rational, scaled_ints


@dataclass(frozen=True)
class FamilyVector:
    """Dense exact-rational vector indexed by ground-set labels."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(as_fraction(c) for c in self.coords))

    def to_json_dict(self) -> dict:
        return {"coords": [format_rational(c) for c in self.coords]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FamilyVector":
        if not isinstance(d, dict):
            raise ValueError("vector file must contain a JSON object")
        if "coords" not in d:
            raise ValueError("vector field 'coords' missing")
        if not isinstance(d["coords"], list):
            raise ValueError("vector field 'coords' must be a list")
        return cls(tuple(d["coords"]))


def _as_coords(fam: HereditaryFamily, x) -> tuple[Fraction, ...]:
    coords = x.coords if isinstance(x, FamilyVector) else tuple(as_fraction(c) for c in x)
    if len(coords) != fam.n:
        raise ValueError(f"vector length {len(coords)} != ground size {fam.n}")
    return coords


def _fnorm_scaled(sets, nums) -> int:
    best = 0
    for fset in sets:
        pos = 0
        neg = 0
        for s in fset:
            v = nums[s]
            if v > 0:
                pos += v
            else:
                neg += v
        best = max(best, pos, -neg)
    return best


def f_norm(fam: HereditaryFamily, x) -> Fraction:
    """Max absolute member sum (sign-split over maximal sets, exact)."""
    coords = _as_coords(fam, x)
    nums, den = scaled_ints(coords)
    return Fraction(_fnorm_scaled(fam.maximal, nums), den)


def l1_norm(x) -> Fraction:
    coords = x.coords if isinstance(x, FamilyVector) else tuple(as_fraction(c) for c in x)
    nums, den = scaled_ints(coords)
    return Fraction(sum(map(abs, nums)), den)


@dataclass(frozen=True)
class EquivalenceReport:
    l1: Fraction
    fnorm: Fraction
    delta: Fraction
    lower_ok: bool
    upper_ok: bool
    nonneg_ok: Optional[bool]  # None when the vector has a negative entry

    def to_json_dict(self) -> dict:
        return {
            "l1": format_rational(self.l1),
            "fnorm": format_rational(self.fnorm),
            "delta": format_rational(self.delta),
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "nonneg_ok": self.nonneg_ok,
        }


def check_equivalence(fam: HereditaryFamily, x) -> EquivalenceReport:
    """Exact sandwich check: (delta/2) l1 <= fnorm <= l1, and delta-scaled
    lower bound for nonnegative vectors."""
    coords = _as_coords(fam, x)
    if all(c == 0 for c in coords):
        raise ValueError("zero vector")
    l1 = l1_norm(coords)
    fn = f_norm(fam, coords)
    delta = delta_exact(fam).delta
    lower_ok = 2 * fn >= delta * l1
    upper_ok = fn <= l1
    nonneg_ok = (fn >= delta * l1) if all(c >= 0 for c in coords) else None
    return EquivalenceReport(l1=l1, fnorm=fn, delta=delta,
                             lower_ok=lower_ok, upper_ok=upper_ok, nonneg_ok=nonneg_ok)


def min_ratio_nonneg(fam: HereditaryFamily) -> Fraction:
    """Minimum of fnorm(x)/l1(x) over nonzero x >= 0.

    For x >= 0 the family norm is the heaviest maximal set, ``max (Mx)_F``
    over the incidence rows M.  Scaling x so that this is 1 turns the
    minimum, by homogeneity, into ``1 / max{1.y : My <= 1, y >= 0}``, one
    all-slack LP.  A label in no maximal set makes that LP unbounded and the
    ratio 0, so it is answered without one.  This LP is not the game that
    :func:`delta_exact` solves; the callers that rely on the two being equal
    check it themselves.
    """
    n = fam.n
    if reduce(or_, fam.masks, 0) != (1 << n) - 1:
        return ZERO
    A = []
    for fset in fam.maximal:
        row = [0] * n
        for s in fset:
            row[s] = 1
        A.append(row)
    return -1 / solve_min_general([-1] * n, A, [1] * len(A)).objective


@dataclass(frozen=True)
class MinRatioProbe:
    ratio: Fraction
    witness: tuple[Fraction, ...]


def min_ratio_signed_bruteforce(fam: HereditaryFamily, grid: int) -> MinRatioProbe:
    """Grid probe of min fnorm(x)/l1(x) over all sign patterns.

    Enumerates every vector with coordinates in {-1, ..., -1/g, 0, 1/g, ..., 1}
    exhaustively (integer arithmetic; the ratio is scale-free).  This is a
    certified-at-grid estimate only, never claimed as the true signed
    equivalence constant.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if fam.n > 12:
        raise ValueError("scale exceeded: brute force limited to n <= 12")
    total = (2 * grid + 1) ** fam.n
    if total > 4_000_000:
        raise ValueError(f"scale exceeded: {total} grid points")
    best: Optional[Fraction] = None
    best_vec: tuple[int, ...] = ()
    for vec in product(range(-grid, grid + 1), repeat=fam.n):
        l1 = sum(abs(v) for v in vec)
        if l1 == 0:
            continue
        ratio = Fraction(_fnorm_scaled(fam.maximal, vec), l1)
        if best is None or ratio < best:
            best = ratio
            best_vec = vec
    if best is None:
        raise ValueError("grid produced no nonzero vector")
    witness = tuple(Fraction(v, grid) for v in best_vec)
    return MinRatioProbe(ratio=best, witness=witness)
