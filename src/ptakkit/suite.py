"""End-to-end invariant suite over seeded random instances.

Everything is derived deterministically from one seed, so two runs with the
same seed produce identical reports; the CLI wraps this in a JSON report
(timestamp excluded from any byte comparison).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import accel
from .families import (
    GENERATOR_ALGORITHM,
    HereditaryFamily,
    is_full_powerset,
    membership,
    maximal_up_set,
    random_family,
    trace,
)
from .game import GameValueResult, delta_exact, fictitious_play, verify_certificate
from .intervals import helly_check, measure_lower_bound, random_system, direct_intersection, trace_family
from .norms import f_norm, l1_norm, min_ratio_nonneg
from .rationals import format_rational
from .search import BoundReport, max_member


# The suite's instances: ground sets of up to N labels, FAMILIES random
# families, SYSTEMS interval systems, VECTORS norm vectors per family, and a
# play bracket of at most FP_ITERS iterations, stopped at width EPSILON.
N = 8
FAMILIES = 24
SYSTEMS = 8
VECTORS = 12
FP_ITERS = 200_000
EPSILON = Fraction(1, 10**6)


def _check(results: dict, name: str, cases: int, failures: list) -> None:
    results[name] = {
        "pass": not failures,
        "cases": cases,
        "failures": len(failures),
        "first_failures": [str(f) for f in failures[:3]],
    }


def run_suite(seed: int) -> dict:
    """Run every cross-module invariant on the instances ``seed`` draws, at
    the sizes of the module constants; returns the report dict, which records
    those sizes under ``parameters``, with an ``all_pass`` flag."""
    rng = random.Random(seed)
    fam_seeds = [rng.randrange(2**32) for _ in range(FAMILIES)]
    sys_seeds = [rng.randrange(2**32) for _ in range(SYSTEMS)]
    vec_rng = random.Random(rng.randrange(2**32))

    fams: list[HereditaryFamily] = []
    for s in fam_seeds:
        size = random.Random(s ^ 0xA5A5).randint(2, N)
        fams.append(random_family(s, n=size, max_sets=24))
    values = [delta_exact(f) for f in fams]

    checks: dict = {}

    failures = []
    for i, (f, r) in enumerate(zip(fams, values)):
        v = verify_certificate(f, r)
        if not v:
            failures.append((i, v.reason))
        if not (0 <= r.delta <= 1):
            failures.append((i, "delta-range"))
    _check(checks, "strong_duality", len(fams), failures)

    failures = []
    base = values[0]
    for shift in (Fraction(1, 10**6), Fraction(-1, 10**6)):
        tampered = GameValueResult(delta=base.delta + shift, primal=base.primal,
                                   dual=base.dual, pivots=base.pivots)
        if verify_certificate(fams[0], tampered):
            failures.append(("tamper", str(shift)))
    _check(checks, "tamper_rejection", 2, failures)

    failures = []
    for i, (f, r) in enumerate(zip(fams, values)):
        fp = fictitious_play(f, FP_ITERS, EPSILON)
        if not fp.contains(r.delta):
            failures.append((i, "containment"))
    _check(checks, "oracle_bracket", len(fams), failures)

    failures = []
    for i, (f, r) in enumerate(zip(fams, values)):
        rep = BoundReport(r.delta, f.n, max_member(f).size)
        if not rep.ok:
            failures.append((i, rep.bound, rep.achieved))
    _check(checks, "size_guarantee", len(fams), failures)

    failures = []
    cases = 0
    for i, (f, r) in enumerate(zip(fams, values)):
        for _ in range(VECTORS):
            coords = [Fraction(vec_rng.randint(-9, 9), vec_rng.randint(1, 7))
                      for _ in range(f.n)]
            if all(c == 0 for c in coords):
                coords[0] = Fraction(1)
            cases += 1
            fn = f_norm(f, coords)
            l1 = l1_norm(coords)
            if fn > l1:
                failures.append((i, "upper"))
            if 2 * fn < r.delta * l1:
                failures.append((i, "lower"))
            abs_coords = [abs(c) for c in coords]
            if f_norm(f, abs_coords) < r.delta * l1:
                failures.append((i, "nonneg-lower"))
    _check(checks, "norm_sandwich", cases, failures)

    failures = []
    for i, (f, r) in enumerate(zip(fams, values)):
        if min_ratio_nonneg(f) != r.delta:
            failures.append((i,))
        if is_full_powerset(f) != (r.delta == 1):
            failures.append((i, "powerset-iff-delta-1"))
    _check(checks, "value_identities", len(fams), failures)

    failures = []
    cases = 0
    for i, f in enumerate(fams):
        if f.n > 6:
            continue
        for hmask in range(1, 1 << f.n):
            h = [s for s in range(f.n) if (hmask >> s) & 1]
            tr = trace(f, h)
            pos = {orig: new for new, orig in enumerate(tr.labels)}
            for amask in range(1 << len(h)):
                a = [h[t] for t in range(len(h)) if (amask >> t) & 1]
                cases += 1
                if membership(f, a) != membership(tr.family, [pos[s] for s in a]):
                    failures.append((i, hmask, amask))
        for mset in f.maximal:
            cases += 1
            if maximal_up_set(f, mset) != [mset]:
                failures.append((i, "up-set", mset))
    _check(checks, "trace_and_up_set", cases, failures)

    failures = []
    cases = 0
    sys_list = []
    for s in sys_seeds:
        srng = random.Random(s)
        sys_list.append(random_system(s, srng.randint(1, N), srng.randint(1, 3),
                                      Fraction(srng.randint(0, 4), 20)))
    for i, sysm in enumerate(sys_list):
        rep = measure_lower_bound(sysm)
        cases += 1
        if not rep.ok:
            failures.append((i, "measure-bound"))
        fam = trace_family(sysm)
        for mask in range(1 << sysm.n):
            labels = [s for s in range(sysm.n) if (mask >> s) & 1]
            cases += 1
            if membership(fam, labels) != (not direct_intersection(sysm, labels).is_empty):
                failures.append((i, mask, "sweep-vs-direct"))
    _check(checks, "interval_trace", cases, failures)

    failures = []
    cases = 0
    for i, s in enumerate(sys_seeds):
        srng = random.Random(s ^ 0x5EED)
        single = random_system(s ^ 0x5EED, srng.randint(1, N), 1,
                               Fraction(srng.randint(0, 3), 12))
        cases += 1
        if not helly_check(single):
            failures.append((i,))
    _check(checks, "helly_single_interval", cases, failures)

    report = {
        "command": "suite",
        "seed": seed,
        "parameters": {
            "n": N,
            "families": FAMILIES,
            "systems": SYSTEMS,
            "vectors": VECTORS,
            "fp_iters": FP_ITERS,
            "epsilon": format_rational(EPSILON),
        },
        "algorithm": GENERATOR_ALGORITHM,
        "backend": accel.backend_name(),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
    return report
