"""The four workloads: inputs made from the seed, the item each runs, its checks.

A workload's items are made once in set-up and form one pass.  ``run`` takes
one item through the public ptakkit API the way the CLI commands and
``run_suite`` do, checks every output exactly and returns the values that go
into the result digest.  A failed check raises :class:`CheckFailed`.
Why each workload exists is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import ptakkit as pk

# corpus: tier-1's corpus, random_family(s, n=None, max_sets=40) for s < 500,
# for every seed; the seed draws the norm vectors and the order.  Corpora
# drawn from the seed differed by 40% in median item time and 35% in total
# work, measured in one process, which no bound of 25% can hold.
CORPUS_SIZE = 500

# large_lp: the first LARGE_COUNT draws random_family(s, n=20, max_sets=200),
# s = 0, 1, ..., with at least 60 maximal sets, so that Fraction pivots rather
# than per-call overhead dominate.  These LPs are the same for every seed; the
# seed only orders them.  Under Bland's rule one LP's solve time moves by
# +-40% when its labels are permuted, and fresh draws spread 10x, so LPs
# drawn from the seed gave item_p50_ms spreads of 16-34% between seeds.
LARGE_N = 20
LARGE_MAX_SETS = 200
LARGE_MIN_ROWS = 60
LARGE_COUNT = 12

# oracle: cardinality families whose value is k/n; the C(11, k) converge at a
# snap checkpoint, C(12, 7) needs about 265k iterations of the play loop
ORACLE_GAMES = [(11, k) for k in range(3, 9)] + [(12, 7)]
ORACLE_ITERS = 10**6
ORACLE_EPS = Fraction(1, 10**6)


class CheckFailed(Exception):
    """An output of the library failed its exact check."""


def _check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, bool], list]  # (seed, smoke) -> [(item id, item)]
    run: Callable[[object], dict]


def corpus_inputs(seed: int, smoke: bool) -> list:
    rng = random.Random(f"corpus:{seed}")
    items = []
    for s in range(20 if smoke else CORPUS_SIZE):
        fam = pk.random_family(s, n=None, max_sets=40)
        vectors = []
        for lo in (-9, -9, 0, 0):  # two signed vectors, two nonnegative
            v = [Fraction(rng.randint(lo, 9), rng.randint(1, 7)) for _ in range(fam.n)]
            if not any(v):
                v[0] = Fraction(1)
            vectors.append(v)
        items.append((s, (fam, vectors)))
    rng.shuffle(items)
    return items


def run_corpus(item) -> dict:
    fam, vectors = item
    res = pk.delta_exact(fam)
    _check(pk.verify_certificate(fam, res), "certificate rejected")
    bound = pk.ptak_bound_check(fam)
    _check(bound.ok and bound.delta == res.delta, "size guarantee")
    _check(pk.min_ratio_nonneg(fam) == res.delta, "min ratio differs from delta")
    fnorms = []
    for v in vectors:
        fn = pk.f_norm(fam, v)
        l1 = pk.l1_norm(v)
        _check(fn <= l1 and 2 * fn >= res.delta * l1, "norm sandwich")
        if min(v) >= 0:
            _check(fn >= res.delta * l1, "nonnegative norm bound")
        fnorms.append(str(fn))
    return {"delta": str(res.delta), "pivots": res.pivots, "bound": bound.bound,
            "size": bound.achieved, "fnorms": fnorms}


def large_lp_inputs(seed: int, smoke: bool) -> list:
    n, count, min_rows = (10, 2, 12) if smoke else (LARGE_N, LARGE_COUNT, LARGE_MIN_ROWS)
    items = []
    s = 0
    while len(items) < count:
        fam = pk.random_family(s, n=n, max_sets=LARGE_MAX_SETS)
        if len(fam.maximal) >= min_rows:
            items.append((s, fam))
        s += 1
    random.Random(f"large_lp:{seed}").shuffle(items)
    return items


def run_large_lp(fam) -> dict:
    res = pk.delta_exact(fam)
    _check(pk.verify_certificate(fam, res), "certificate rejected")
    return {"delta": str(res.delta), "pivots": res.pivots, "sets": len(fam.maximal)}


def oracle_inputs(seed: int, smoke: bool) -> list:
    games = [(6, 2), (6, 3), (7, 3)] if smoke else list(ORACLE_GAMES)
    random.Random(f"oracle:{seed}").shuffle(games)
    return [(f"C({n},{k})", (n, k, pk.cardinality_bound_family(n, k))) for n, k in games]


def run_oracle(item) -> dict:
    n, k, fam = item
    fp = pk.fictitious_play(fam, ORACLE_ITERS, ORACLE_EPS)
    res = pk.delta_exact(fam)
    _check(pk.verify_certificate(fam, res), "certificate rejected")
    _check(res.delta == Fraction(k, n), "value is not k/n")
    _check(fp.contains(res.delta), "bracket misses the value")
    return {"delta": str(res.delta), "lower": str(fp.lower), "upper": str(fp.upper),
            "iterations": fp.iterations, "converged": fp.converged}


def wide_inputs(seed: int, smoke: bool) -> list:
    """Families with thousands of maximal sets, as specs built inside the item.

    The graph is the 30-cycle in its natural labelling: relabelling it or
    adding chords turns its 4-pivot solve into thousands of pivots (14-21 s),
    which would make this an LP workload.  The seed draws the interval system.
    """
    card, cycle, labels = ((10, 5), 12, 20) if smoke else ((14, 7), 30, 80)
    rng = random.Random(f"wide:{seed}")
    system = pk.random_system(rng.randrange(2**32), labels, 1, Fraction(1, 4))
    return [
        (f"C({card[0]},{card[1]})",
         (pk.FamilySpec("cardinality_bound", n=card[0], k=card[1]), Fraction(card[1], card[0]))),
        (f"MIS(C{cycle})",
         (pk.FamilySpec("graph_independent", n=cycle, edges=tuple(pk.cycle_edges(cycle))),
          Fraction(1, 2))),
        (f"trace(n={labels})", (pk.FamilySpec("interval_trace", system=system), None)),
    ]


def run_wide(item) -> dict:
    spec, expected = item
    fam = pk.realize(spec)
    res = pk.delta_exact(fam)
    _check(pk.verify_certificate(fam, res), "certificate rejected")
    _check(expected is None or res.delta == expected, "value differs from the known one")
    best = pk.max_member(fam)
    _check(best.optimal and pk.membership(fam, best.best)
           and best.size >= math.ceil(res.delta * fam.n), "size guarantee")
    return {"sets": len(fam.maximal), "delta": str(res.delta), "size": best.size,
            "nodes": best.nodes_explored}


WORKLOADS = {
    "corpus": Workload(corpus_inputs, run_corpus),
    "large_lp": Workload(large_lp_inputs, run_large_lp),
    "oracle": Workload(oracle_inputs, run_oracle),
    "wide": Workload(wide_inputs, run_wide),
}
