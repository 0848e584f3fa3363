"""Exact value of the zero-sum covering game over a hereditary family.

The value is the minimum, over probability weightings of the ground set, of
the largest total weight carried by a single family member; equivalently (LP
duality) the best guaranteed coverage of a probability weighting of the
maximal sets.  Everything here is exact rational or integer, the
independent fictitious-play oracle included.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd
from operator import add, index
from typing import Mapping, Optional

from . import accel
from .families import _BIG_ENDIAN, HereditaryFamily, _packed_rows, mask_orbit
from .lp import solve_max_slack
from .rationals import ONE, ZERO, as_fraction, format_rational, scaled_ints


@dataclass(frozen=True)
class _Weighting:
    """Finitely supported weighting of integer keys, held without judging it.

    Keys are read with ``operator.index``, so a float or ``str`` key raises
    TypeError rather than being truncated; weights become exact rationals
    (``as_fraction`` refuses floats and bools), and zero weights are dropped.
    Whether the weights make a mean or a cover for a family is for
    :func:`verify_certificate` to decide.
    """

    weights: Mapping[int, Fraction]

    def __post_init__(self):
        cleaned = {index(k): as_fraction(w) for k, w in self.weights.items()}
        object.__setattr__(self, "weights", {k: w for k, w in cleaned.items() if w != 0})

    def to_json_dict(self) -> dict:
        return {str(k): format_rational(w) for k, w in sorted(self.weights.items())}

    @classmethod
    def from_json_dict(cls, d: Mapping[str, str]):
        """Read a JSON object whose keys are integers as ``str`` writes them,
        so that no two keys (``"1"``, ``"01"``, ``"+1"``) name one label."""
        for key in d:
            if not re.fullmatch("0|-?[1-9][0-9]*", key):
                raise ValueError(f"weight key {key!r} is not an integer in canonical form")
        return cls({int(k): w for k, w in d.items()})


class ConvexMean(_Weighting):
    """Weighting of ground-set labels; a probability weighting in a valid
    certificate."""


class FractionalCover(_Weighting):
    """Weighting of the maximal sets, keyed by antichain index; a probability
    weighting in a valid certificate, or empty when the family's sole member
    is the empty set (there is nothing to weight)."""


@dataclass(frozen=True)
class GameValueResult:
    delta: Fraction
    primal: ConvexMean
    dual: FractionalCover
    pivots: int = 0

    def to_json_dict(self) -> dict:
        return {
            "delta": format_rational(self.delta),
            "primal": self.primal.to_json_dict(),
            "dual": self.dual.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "GameValueResult":
        if not isinstance(d, dict):
            raise ValueError("certificate file must contain a JSON object")
        for key in ("delta", "primal", "dual"):
            if key not in d:
                raise ValueError(f"certificate field {key!r} missing")
            if key != "delta" and not isinstance(d[key], dict):
                raise ValueError(f"certificate field {key!r} must be an object")
        return cls(
            delta=as_fraction(d["delta"]),
            primal=ConvexMean.from_json_dict(d["primal"]),
            dual=FractionalCover.from_json_dict(d["dual"]),
        )


def evaluate_mean(fam: HereditaryFamily, mean: ConvexMean) -> Fraction:
    """Largest member weight: max over maximal sets F of the mass inside F.

    The weights are put over their least common denominator and the labels
    grouped by their integer weight, one mask per weight class, so a set's
    weight is the sum over the classes of the class weight times the number
    of its labels in the class: one C-speed pass of ``int.bit_count`` over
    the sets' masks per class, with no per-set loop.  This is the certificate
    check's own sum and shares nothing with the solver's pricing
    (:class:`_PackedWeights`).  A label outside the ground set raises
    ValueError.
    """
    weights = mean.weights
    nums, den = scaled_ints(list(weights.values()))
    classes: dict[int, int] = {}
    for s, v in zip(weights, nums):
        if not 0 <= s < fam.n:
            raise ValueError(f"weight on label {s} outside ground set")
        classes[v] = classes.get(v, 0) | 1 << s
    masks = fam.masks
    totals = [0] * len(masks)
    for v, labels in classes.items():
        counts = map(int.bit_count, map(labels.__and__, masks))
        totals = list(map(add, totals, map(v.__mul__, counts)))
    return Fraction(max(0, max(totals, default=0)), den)


def _min_coverage(fam: HereditaryFamily, cover: FractionalCover) -> Fraction:
    nums, den = scaled_ints(list(cover.weights.values()))
    coverage = [0] * fam.n
    for idx, v in zip(cover.weights, nums):
        for s in fam.maximal[idx]:
            coverage[s] += v
    return Fraction(min(coverage), den)


class _PackedWeights:
    """Every maximal set's weight under a nonnegative integer vector at once.

    Each label has one Python int, its column, with one ``W``-bit field per
    maximal set (set ``k`` at bits ``k*W`` up) holding 1 where the set has
    the label, so ``sum(x[l] * column[l])`` holds each set's weight in its
    field.  ``W`` is a multiple of 64, so that the fields are whole words of
    an ``array``, and at least ``n``, so that label ``l``'s column is the
    packed masks ``sum(mask[k] << k*W)`` shifted right by ``l`` and masked
    to bit 0 of each field.  The packed masks are filled a word at a time,
    word ``j`` of every field in one slice (:func:`_packed_rows`).  A column
    is made when its label first weighs something: a round often weighs few
    labels, and a column takes ``m*W`` bits.
    """

    def __init__(self, fam: HereditaryFamily):
        self.masks, self.n = fam.masks, fam.n
        self._build(fam.n)

    def _build(self, bits: int) -> None:
        self.width = -(-bits // 64) * 64
        k = self.width // 64  # words per field
        self.packed = int.from_bytes(_packed_rows(self.masks, k), "little")
        self.ones = int.from_bytes((b"\1" + bytes(8 * k - 1)) * len(self.masks), "little")
        self.columns = [None] * self.n

    def heaviest(self, x: list[int]) -> tuple[int, int]:
        """The largest weight of a set and the lowest index holding it; the
        weights ``x`` must be nonnegative."""
        bits = sum(x).bit_length()
        if bits > self.width:  # a field would carry into the next: widen
            self._build(bits)
        columns, packed = self.columns, 0
        for label in compress(count(), x):
            column = columns[label]
            if column is None:
                column = columns[label] = (self.packed >> label) & self.ones
            packed += x[label] * column
        k = self.width // 64  # words per field
        words = array("Q", packed.to_bytes(k * 8 * len(self.masks), "little"))
        if _BIG_ENDIAN:
            words.byteswap()
        # no weight exceeds the total, so below 2**64 every field's weight is
        # its lowest word, compared at C speed
        top = max(bits - 1, 0) // 64
        if not top:
            column = words[::k] if k > 1 else words
            best = max(column)
            return best, column.index(best)

        def weight(i):
            return sum(words[i * k + j] << (64 * j) for j in range(top + 1))

        i = max(range(len(self.masks)), key=weight)
        return weight(i), i


def delta_exact(fam: HereditaryFamily) -> GameValueResult:
    """Exact minimax constant with optimal primal mean and dual cover.

    Solved as a matrix game by exact simplex (Bland's rule) on the shifted
    all-positive payoff, with delayed row generation: only maximal sets ever
    enter (smaller members are dominated), and rows are pulled in against the
    current optimal mean until none is violated.  The dual weights are scaled
    to sum to 1, so min-coverage equals the value exactly.

    Each round solves the LP of the last round plus its new row, resuming
    from the last round's result (``solve_max_slack(..., after=res)``), so
    the pivots the two Bland paths share are not made again; ``pivots``
    counts each round's whole path, as a solve from the slack basis would.

    Each round reads the mean straight off the LP's integers, ``x_num`` over
    the basis determinant, and prices every maximal set at once
    (:class:`_PackedWeights`): the mean, as nonnegative integers ``nums``, is
    summed into one ``W``-bit field per set of a single packed integer.  The
    fields are exact, not rounded: a set's weight is at most ``sum(nums)``,
    and ``W`` widens until that total is below ``2**W``, so no field ever
    carries into the next.  Fractions are made once, for the certificate of
    the last round.

    The LP has one column per label orbit of ``fam.orbits``, one per label
    when the family declares no automorphisms.  Averaging an optimal mean
    over the group keeps it optimal, so some optimal mean is constant on
    each orbit ``O``, with weight ``x_O`` on each of its labels.  Then set
    F's row is ``|O| + |F & O|`` over the orbits and the cost row is
    ``|O|``; with singleton orbits these are the rows ``1 + [l in F]`` and
    the costs 1 of the LP on labels, entry for entry.  Pricing gets the
    orbit-constant mean, expanded to labels.  The LP's dual weighs the sets
    of its rows; each weight is spread evenly over its set's orbit under the
    group (:func:`mask_orbit`), which averages the dual over the group and
    keeps its value.  :func:`verify_certificate` checks the result on the
    whole family, so the declared symmetry only proposes.
    """
    n = fam.n
    m = len(fam.maximal)
    if m == 0:
        return GameValueResult(
            delta=ZERO,
            primal=ConvexMean({0: ONE}),
            dual=FractionalCover({}),
            pivots=0,
        )

    sets = fam.maximal
    # start from the row the uniform mean loses most to: largest, ties lex
    # (the sets are stored in lexicographic order, so the first longest)
    sizes = list(map(len, sets))
    idx = sizes.index(max(sizes))
    active, A = [], []
    # the LP's cost row and each label's column, a column per label when the
    # family declares no automorphisms: made before the pricing fields, which
    # are filled a word of labels at a time, so a ground set too large for
    # memory fails at once
    orbits = fam.orbits
    if orbits is None:
        cost, column = [1] * n, range(n)
    else:
        cost, column = list(map(len, orbits)), [0] * n
        for j, orbit in enumerate(orbits):
            for label in orbit:
                column[label] = j
    pricing = _PackedWeights(fam)
    pivots, res = 0, None

    while True:
        active.append(idx)
        row = cost.copy()
        for s in sets[idx]:
            row[column[s]] += 1
        A.append(row)
        res = solve_max_slack(cost, A, [1] * len(active), after=res)
        pivots += res.pivots
        # the mean x / sum(x) is nums / total; delta = 1/sum(x) - 1.  Taking
        # x = x_num / den to lowest common terms keeps the pricing fields narrow
        g = gcd(res.den, *res.x_num)
        nums, den = [v // g for v in res.x_num], res.den // g
        if orbits is not None:  # each label carries its orbit's weight
            nums = [nums[j] for j in column]
        total = sum(nums)

        # the heaviest set, lowest index on ties, is violated when it weighs
        # more than delta * total.  Every LP row holds at the optimum, so its
        # set weighs at most den - total: pricing needs no mask of the rows
        worst, idx = pricing.heaviest(nums)
        if worst <= den - total:
            # mu = duals / objective, where objective = 1/(delta+1) > 0; the
            # duals and the objective share the denominator den
            mu = {i: Fraction(y, res.obj_num) for i, y in zip(active, res.dual_num) if y}
            if orbits is not None:
                mu = _spread(fam, mu)
            primal = ConvexMean({s: Fraction(v, total) for s, v in enumerate(nums) if v})
            dual = FractionalCover(mu)
            return GameValueResult(delta=Fraction(den - total, total), primal=primal,
                                   dual=dual, pivots=pivots)


def _spread(fam: HereditaryFamily, mu: dict[int, Fraction]) -> dict[int, Fraction]:
    """Each set's weight shared evenly among the sets of its orbit under the
    family's automorphisms."""
    index_of = dict(zip(fam.masks, range(len(fam.masks))))
    out: dict[int, Fraction] = {}
    for i, w in mu.items():
        orbit = mask_orbit(fam, fam.masks[i])
        share = w / len(orbit)
        for mask in orbit:
            j = index_of[mask]
            out[j] = out.get(j, ZERO) + share
    return out


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(fam: HereditaryFamily, res: GameValueResult) -> VerificationResult:
    """Exact check of a value certificate; never raises on bad certificates.

    The primal must be a genuine mean achieving the claimed value, the dual a
    genuine cover whose minimum coverage equals it.  Reason codes name the
    first failed check.
    """
    delta = res.delta
    pw = res.primal.weights
    if any(not (0 <= s < fam.n) for s in pw):
        return VerificationResult(False, "primal-support")
    if any(w < 0 for w in pw.values()):
        return VerificationResult(False, "primal-negative")
    if sum(pw.values(), ZERO) != 1:
        return VerificationResult(False, "primal-sum")
    if evaluate_mean(fam, res.primal) != delta:
        return VerificationResult(False, "primal-value")

    dw = res.dual.weights
    if any(not (0 <= i < len(fam.maximal)) for i in dw):
        return VerificationResult(False, "dual-index")
    if any(w < 0 for w in dw.values()):
        return VerificationResult(False, "dual-negative")
    if sum(dw.values(), ZERO) != (1 if fam.maximal else 0):
        return VerificationResult(False, "dual-sum")
    if _min_coverage(fam, res.dual) != delta:
        return VerificationResult(False, "dual-coverage")
    return VerificationResult(True, None)


MAX_PLAY_ITERS = 10**9  # keeps the play kernel's int64 tie keys from overflowing


@dataclass(frozen=True)
class FictitiousPlayResult:
    """Bracketing interval for the game value from best-response averaging."""

    lower: Fraction
    upper: Fraction
    iterations: int
    converged: bool

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper


def incidence_matrix(fam: HereditaryFamily) -> "np.ndarray":
    """0/1 matrix, one row per maximal set, one column per label."""
    import numpy as np

    M = np.zeros((len(fam.maximal), fam.n), dtype=np.int64)
    rows = np.repeat(np.arange(len(fam.maximal)), [len(s) for s in fam.maximal])
    M[rows, np.fromiter(chain.from_iterable(fam.maximal), np.intp, len(rows))] = 1
    return M


def fictitious_play(fam: HereditaryFamily, max_iters: int,
                    epsilon: Fraction) -> FictitiousPlayResult:
    """Independent approximation oracle for the exact value.

    Both players repeatedly best-respond to the opponent's empirical average
    (alternating updates, first-index tie-breaking); the tightest certified
    bounds seen are kept.  Besides the running averages, doubling
    checkpoints certify each player's uniform weighting of the strategies it
    has played and its averages rounded to denominators up to
    ``accel.SNAP_QMAX``.  Bounds are exact rationals, so the returned
    bracket genuinely contains the value; ``converged`` reports whether the
    width reached ``epsilon`` within ``max_iters`` iterations.
    """
    epsilon = as_fraction(epsilon)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if max_iters > MAX_PLAY_ITERS:
        raise ValueError("max_iters above 1e9 would overflow the int64 kernel")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not fam.maximal:
        return FictitiousPlayResult(lower=ZERO, upper=ZERO, iterations=0, converged=True)
    M = incidence_matrix(fam)
    lo_n, lo_d, up_n, up_d, iters = accel.fp_bracket(M, max_iters, epsilon)
    lower = Fraction(int(lo_n), int(lo_d))
    upper = Fraction(int(up_n), int(up_d))
    converged = (upper - lower) <= epsilon
    return FictitiousPlayResult(lower=lower, upper=upper, iterations=int(iters),
                                converged=converged)
