"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
tolerances are pinned here and nowhere else.  The corpus is the seeded
500-family set from conftest; interval systems are seeded separately.
"""

import functools
import hashlib
import json
import random
from fractions import Fraction

import numpy as np

from ptakkit.cli import main as cli_main
from ptakkit.families import (
    cardinality_bound_family,
    is_full_powerset,
    mask_to_tuple,
    maximal_up_set,
    trace,
)
from ptakkit.game import (
    GameValueResult,
    delta_exact,
    evaluate_mean,
    fictitious_play,
    verify_certificate,
)
from ptakkit.intervals import (
    helly_check,
    measure_lower_bound,
    random_system,
    trace_family,
)
from ptakkit.norms import f_norm, l1_norm, min_ratio_nonneg
from ptakkit.search import max_member

F = Fraction
EPS = F(1, 10**6)
FP_ITERS = 10**6


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {description}")
                raise
            print(f"PASS criterion {num}: {description}")
        return wrapper
    return deco


@criterion(1, "exact k/n values for cardinality families, certified and closed by the oracle "
              "within 4,096 plays")
def test_criterion_1_exact_cardinality_values():
    for n in range(1, 14):
        for k in range(1, n + 1):
            fam = cardinality_bound_family(n, k)
            res = delta_exact(fam)
            assert res.delta == F(k, n), (n, k, res.delta)
            assert verify_certificate(fam, res), (n, k)
            fp = fictitious_play(fam, FP_ITERS, EPS)
            assert fp.converged and fp.lower == fp.upper == F(k, n), (n, k)
            assert fp.iterations <= 4096, (n, k, fp.iterations)


@criterion(2, "strong duality and tamper rejection on the 500-family corpus")
def test_criterion_2_strong_duality(corpus, corpus_values):
    shift = F(1, 10**6)
    for fam, res in zip(corpus, corpus_values):
        assert verify_certificate(fam, res)
        assert evaluate_mean(fam, res.primal) == res.delta
        coverage = [F(0)] * fam.n
        for i, w in res.dual.weights.items():
            for s in fam.maximal[i]:
                coverage[s] += w
        assert min(coverage) == res.delta
        for tampered in (res.delta + shift, res.delta - shift):
            bad = GameValueResult(delta=tampered, primal=res.primal, dual=res.dual)
            assert not verify_certificate(fam, bad)


@criterion(3, "max-member size >= ceil(delta*n) and equals the exhaustive maximum")
def test_criterion_3_ptak_bound(corpus, corpus_values):
    for fam, res in zip(corpus, corpus_values):
        found = max_member(fam)
        bound = -((-res.delta * fam.n).__floor__())  # ceil of a Fraction
        assert found.size >= bound
        assert found.optimal
        brute = 0
        for a in range(1 << fam.n):
            if any(a & ~m == 0 for m in fam.masks):
                brute = max(brute, bin(a).count("1"))
        assert found.size == brute


@criterion(4, "norm sandwich on 1000 rational vectors per family, min-ratio identity")
def test_criterion_4_norm_sandwich(corpus, corpus_values):
    rng = random.Random(20260808)
    # F(a, b) looked up, not built: the draws are the same randint calls in
    # the same order, so the vectors are too
    frac = {(a, b): F(a, b) for a in range(-9, 10) for b in range(1, 8)}
    for fam, res in zip(corpus, corpus_values):
        delta = res.delta
        for t in range(1000):
            if t % 2:
                coords = tuple(frac[rng.randint(0, 9), rng.randint(1, 7)]
                               for _ in range(fam.n))
                nonneg = True
            else:
                coords = tuple(frac[rng.randint(-9, 9), rng.randint(1, 7)]
                               for _ in range(fam.n))
                nonneg = all(c >= 0 for c in coords)
            fn = f_norm(fam, coords)
            l1 = l1_norm(coords)
            assert fn <= l1
            assert 2 * fn >= delta * l1
            if nonneg:
                assert fn >= delta * l1
    for fam, res in zip(corpus, corpus_values):
        assert min_ratio_nonneg(fam) == res.delta


@criterion(5, "maximal-set sign-splitting equals brute force over all members")
def test_criterion_5_lossless_restriction(corpus):
    rng = random.Random(551)
    small = [f for f in corpus if f.n <= 10]
    pairs = 0
    idx = 0
    while pairs < 200:
        fam = small[idx % len(small)]
        idx += 1
        coords = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(fam.n))
        best = F(0)
        for a in range(1 << fam.n):
            if a == 0 or any(a & ~m == 0 for m in fam.masks):
                total = sum((coords[s] for s in mask_to_tuple(a)), F(0))
                best = max(best, abs(total))
        assert f_norm(fam, coords) == best
        pairs += 1


@criterion(6, "interval measure bound, sweep-vs-direct membership, Helly")
def test_criterion_6_interval_systems():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        pieces = rng.randint(1, 3)
        min_measure = F(rng.randint(0, 10), 20)
        sysm = random_system(seed, n, pieces, min_measure)
        rep = measure_lower_bound(sysm)
        assert rep.bound == min(s.measure() for s in sysm.sets)
        assert rep.ok, (seed, rep)
        fam = trace_family(sysm)
        inter = {0: None}
        for mask in range(1, 1 << n):
            low = mask & -mask
            rest = mask & ~low
            label = low.bit_length() - 1
            if rest == 0:
                cur = sysm.sets[label]
            else:
                cur = inter[rest].intersect(sysm.sets[label])
            inter[mask] = cur
            member = any(mask & ~m == 0 for m in fam.masks)
            assert member == (not cur.is_empty), (seed, mask)
        if pieces == 1:
            assert helly_check(sysm), seed


@criterion(7, "trace identity, singleton up-sets, full powerset iff value 1")
def test_criterion_7_structural_identities(corpus, corpus_values):
    for fam in corpus:
        if fam.n > 10:
            continue
        masks = np.array(fam.masks, dtype=np.int64)
        neq = masks[:, None] != masks[None, :]
        for hmask in range(1, 1 << fam.n):
            h = [s for s in range(fam.n) if (hmask >> s) & 1]
            tr = trace(fam, h)
            got = sorted(
                sum(1 << tr.labels[i] for i in s) for s in tr.family.maximal
            )
            cut = np.unique(masks & hmask)
            cut = cut[cut != 0]
            if len(cut):
                strict_sub = ((cut[:, None] & ~cut[None, :]) == 0) & (
                    cut[:, None] != cut[None, :])
                expected = sorted(int(v) for v in cut[~strict_sub.any(axis=1)])
            else:
                expected = []
            assert got == expected, (fam.n, hmask)
            if fam.n <= 7:
                pos = {orig: new for new, orig in enumerate(tr.labels)}
                for amask in range(1 << len(h)):
                    a = [h[t] for t in range(len(h)) if (amask >> t) & 1]
                    in_fam = not a or any(
                        all(s in set(mx) for s in a) for mx in fam.maximal)
                    relabeled = [pos[s] for s in a]
                    in_trace = not a or any(
                        set(relabeled) <= set(mx) for mx in tr.family.maximal)
                    assert in_fam == in_trace
    for fam, res in zip(corpus, corpus_values):
        for mset in fam.maximal:
            assert maximal_up_set(fam, mset) == [mset]
        assert is_full_powerset(fam) == (res.delta == 1)


# sha256 of the corpus's "lower upper iterations" lines, one per family, as
# the play oracle returns them: a change to its rounding or its kernel that
# moves any corpus bracket changes it
ORACLE_CORPUS_DIGEST = "e010883547456812bf6c9b5febd8ba7668c2a50d7bfc1e838f0433f7233e95e2"


@criterion(8, "play oracle brackets the exact value; width <= 1e-6 within 1e6 iters")
def test_criterion_8_oracle_agreement(corpus, corpus_values):
    lines = []
    for fam, res in zip(corpus, corpus_values):
        fp = fictitious_play(fam, FP_ITERS, EPS)
        assert fp.contains(res.delta), fam
        if fam.n <= 10:
            assert fp.converged, fam
            assert fp.upper - fp.lower <= EPS
        lines.append(f"{fp.lower} {fp.upper} {fp.iterations}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == ORACLE_CORPUS_DIGEST


@criterion(9, "suite --seed 7 reports are byte-identical (timestamp excluded)")
def test_criterion_9_suite_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["suite", "--seed", "7", "--out", str(a)]) == 0
    assert cli_main(["suite", "--seed", "7", "--out", str(b)]) == 0
    capsys.readouterr()
    strip = lambda p: [ln for ln in p.read_text().splitlines()
                       if '"timestamp"' not in ln]
    assert strip(a) == strip(b)
    assert json.loads(a.read_text())["all_pass"] is True
