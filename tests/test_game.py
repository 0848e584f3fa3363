import json
import random
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import ptakkit.game
from ptakkit.families import (
    HereditaryFamily,
    cardinality_bound_family,
    cycle_edges,
    cycle_rotation,
    hereditary_closure,
    is_full_powerset,
    maximal_cliques,
    maximal_independent_sets,
    random_family,
    trace,
)
from ptakkit.game import (
    ConvexMean,
    FractionalCover,
    GameValueResult,
    _PackedWeights,
    delta_exact,
    evaluate_mean,
    fictitious_play,
    verify_certificate,
)
from ptakkit.norms import min_ratio_nonneg

F = Fraction
EPS = F(1, 10**6)


def c5():
    return maximal_cliques(5, cycle_edges(5))


# --- ConvexMean / FractionalCover construction -----------------------------------

@pytest.mark.parametrize("cls", [ConvexMean, FractionalCover])
def test_construction_coerces_keys_and_weights_and_drops_zeros(cls):
    w = cls({np.int64(0): "1/2", 1: 1, 2: F(0), 3: "0/7", -1: F(-1, 3)})
    assert w.weights == {0: F(1, 2), 1: F(1), -1: F(-1, 3)}
    assert all(type(k) is int and type(v) is F for k, v in w.weights.items())
    if cls is ConvexMean:
        assert frozenset(w.weights) == frozenset({0, 1, -1})
    assert cls({}).weights == {}
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            cls({0: bad})


@pytest.mark.parametrize("cls", [ConvexMean, FractionalCover])
def test_construction_refuses_keys_that_are_not_integers(cls):
    # int() would truncate float keys: {0.9, 1.2} would read as labels {0, 1}
    # and verify on C(2, 1), and {0.2, 0.7} would collapse to the label 0
    for keys in ((0.9, 1.2), (0.2, 0.7), ("0", "1"), (0, 1.0)):
        with pytest.raises(TypeError):
            cls({k: F(1, 2) for k in keys})
    w = cls({0: F(1, 2), 1: F(1, 2)})
    assert cls.from_json_dict(json.loads(json.dumps(w.to_json_dict()))) == w


# --- evaluate_mean ----------------------------------------------------------------

def test_evaluate_mean_uniform_pairs():
    fam = cardinality_bound_family(3, 2)
    assert evaluate_mean(fam, ConvexMean({s: F(1, 3) for s in range(3)})) == F(2, 3)


def test_evaluate_mean_support_misses_family():
    fam = hereditary_closure([{0}], 2)
    assert evaluate_mean(fam, ConvexMean({1: F(1)})) == 0


def test_evaluate_mean_c5_uniform():
    fam = c5()
    lam = ConvexMean({s: F(1, 5) for s in range(5)})
    # every edge weighs exactly 2/5; check by summing each maximal set directly
    edge_values = {sum(lam.weights[s] for s in e) for e in fam.maximal}
    assert edge_values == {F(2, 5)}
    assert evaluate_mean(fam, lam) == F(2, 5)


def test_evaluate_mean_empty_family_is_zero():
    assert evaluate_mean(hereditary_closure([], 3), ConvexMean({0: F(1)})) == 0


def test_evaluate_mean_outside_ground():
    with pytest.raises(ValueError):
        evaluate_mean(cardinality_bound_family(2, 1), ConvexMean({5: F(1)}))
    with pytest.raises(ValueError):
        evaluate_mean(cardinality_bound_family(2, 1), ConvexMean({-1: F(1)}))


def test_evaluate_mean_matches_fraction_sums_over_weight_classes():
    """From one weight class to one per label, with zero and negative weights
    among them, on ground sets of up to 200 labels: the class sums equal the
    Fraction sums.  A label outside the ground set is named."""
    rng = random.Random(71)
    classes = set()
    for seed in range(80):
        n = rng.choice((3, 12, 65, 130, 200))
        fam = random_family(seed, n=n, max_sets=rng.choice((1, 20, 80)))
        values = {F(rng.randint(-3, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, n))}
        values = sorted(values - {F(0)}) or [F(1)]
        weights = {s: rng.choice(values) for s in range(n)}
        weights.update({s: F(0) for s in rng.sample(range(n), rng.randint(0, n // 2))})
        mean = ConvexMean(weights)
        classes.add(min(len(set(mean.weights.values())), 3))
        classes.add("one per label" if len(set(mean.weights.values())) == n else "shared")
        assert evaluate_mean(fam, mean) == fraction_evaluate_mean(fam, mean.weights)
        assert evaluate_mean(hereditary_closure([], n), mean) == 0
        assert evaluate_mean(fam, ConvexMean({})) == 0
        outside = rng.choice((n, n + 7, -1))
        with pytest.raises(ValueError, match=f"^weight on label {outside} outside ground set$"):
            evaluate_mean(fam, ConvexMean({**weights, outside: F(1)}))
    assert classes == {1, 2, 3, "one per label", "shared"}


# --- delta_exact -------------------------------------------------------------------

def test_delta_cardinality_families_small():
    for n in range(1, 9):
        for k in range(0, n + 1):
            fam = cardinality_bound_family(n, k)
            res = delta_exact(fam)
            assert res.delta == F(k, n)
            assert verify_certificate(fam, res)
            # independent symmetric dual: uniform over all k-subsets covers
            # every label with weight exactly k/n
            if k >= 1:
                count = len(fam.maximal)
                mu = FractionalCover({i: F(1, count) for i in range(count)})
                coverage = [F(0)] * n
                for i, fs in enumerate(fam.maximal):
                    for s in fs:
                        coverage[s] += mu.weights[i]
                assert set(coverage) == {F(k, n)}
                sym = GameValueResult(delta=F(k, n), primal=res.primal, dual=mu)
                assert verify_certificate(fam, sym)


# Graph families with known values: the independent sets of a graph G have
# delta = 1/chi_f(G), and chi_f has a closed form on the graphs below
# (Scheinerman & Ullman, Fractional Graph Theory, 1997).

def kneser_graph(n, k):
    """K(n, k): the k-subsets of 0..n-1, adjacent when disjoint."""
    vertices = list(combinations(range(n), k))
    return len(vertices), [(i, j) for (i, a), (j, b) in combinations(enumerate(vertices), 2)
                           if not set(a) & set(b)]


def mycielskian(n, edges):
    """M(G) of a graph on 0..n-1: each vertex u gets a shadow n + u adjacent
    to u's neighbours, and a hub 2n is adjacent to every shadow."""
    shadows = [(n + u, v) for u, v in edges] + [(n + v, u) for u, v in edges]
    return 2 * n + 1, list(edges) + shadows + [(2 * n, n + u) for u in range(n)]


def mycielski_chain(steps):
    """The graphs M(C5), M(M(C5)), ... with chi_f(M(G)) = chi_f(G) + 1/chi_f(G)
    (Larsen, Propp & Ullman 1995), starting from chi_f(C5) = 5/2."""
    n, edges, chi = 5, cycle_edges(5), F(5, 2)
    for _ in range(steps):
        n, edges = mycielskian(n, edges)
        chi += 1 / chi
        yield n, edges, 1 / chi


def check_graph_value(n, edges, expected):
    fam = maximal_independent_sets(n, edges)
    res = delta_exact(fam)
    assert res.delta == expected
    assert verify_certificate(fam, res)
    return fam


@pytest.mark.parametrize("k", [2, 3, 4])
def test_odd_cycle_independent_sets_give_k_over_2k_plus_1(k):
    check_graph_value(2 * k + 1, cycle_edges(2 * k + 1), F(k, 2 * k + 1))


@pytest.mark.parametrize("n, k", [(5, 2), (6, 2)])
def test_kneser_independent_sets_give_k_over_n(n, k):
    vertices, edges = kneser_graph(n, k)
    check_graph_value(vertices, edges, F(k, n))


def test_mycielski_chain_from_c5():
    values = []
    for n, edges, expected in mycielski_chain(3):
        fam = check_graph_value(n, edges, expected)
        values.append((n, len(fam.maximal), expected))
    assert values == [(11, 16, F(10, 29)), (23, 79, F(290, 941)),
                      (47, 857, F(272890, 969581))]


# --- solving over label orbits ----------------------------------------------------

def check_orbit_solve(fam):
    """The solve over ``fam``'s label orbits gives the value of the solve
    without the group, in no more pivots, and both certificates verify on the
    whole family."""
    assert fam.orbits is not None
    plain = HereditaryFamily(fam.n, fam.maximal)
    res, ref = delta_exact(fam), delta_exact(plain)
    assert res.delta == ref.delta
    assert verify_certificate(fam, res) and verify_certificate(plain, ref)
    assert res.pivots <= ref.pivots
    return res


def test_orbit_solve_of_cardinality_families():
    """C(n, k) declares its rotation: one orbit, so one column and one pivot,
    and the one dual row spreads over at most n sets."""
    for n in range(1, 10):
        for k in range(n + 1):
            fam = cardinality_bound_family(n, k)
            assert fam.automorphisms == (cycle_rotation(n),)
            assert fam.orbits == (tuple(range(n)),)
            res = check_orbit_solve(fam)
            assert res.delta == F(k, n)
            assert res.pivots == (k > 0) and len(res.dual.weights) <= n


def test_orbit_solve_of_relabelled_cardinality_families():
    """A relabelling p maps C(n, k) onto itself, and the rotation conjugated by
    p, p(l) -> p(l + 1), is an n-cycle through the labels in p's order."""
    rng = random.Random(37)
    for n in range(2, 10):
        for k in range(1, n):
            for _ in range(3):
                p = rng.sample(range(n), n)
                g = [0] * n
                for label, image in enumerate(cycle_rotation(n)):
                    g[p[label]] = p[image]
                sets = [[p[label] for label in s] for s in combinations(range(n), k)]
                fam = HereditaryFamily(n, sets, automorphisms=[g])
                assert fam.orbits == (tuple(range(n)),)
                assert check_orbit_solve(fam).delta == F(k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_orbit_solve_of_odd_cycles(k):
    n = 2 * k + 1
    for build in (maximal_cliques, maximal_independent_sets):
        fam = HereditaryFamily(n, build(n, cycle_edges(n)).maximal,
                               automorphisms=[cycle_rotation(n)])
        res = check_orbit_solve(fam)
        if build is maximal_independent_sets:
            assert res.delta == F(k, n)


def lifted(g):
    """A permutation of G's vertices as one of M(G)'s: v -> g(v), its shadow
    n + v -> n + g(v), and the hub 2n fixed."""
    n = len(g)
    return (*g, *(n + v for v in g), 2 * n)


def test_orbit_solve_of_the_mycielski_chain():
    """The rotation of C5, lifted: orbits are the 5 vertices of C5, then each
    step's shadows, and each hub alone."""
    g, orbits = cycle_rotation(5), []
    for n, edges, expected in mycielski_chain(3):
        g = lifted(g)
        fam = HereditaryFamily(n, maximal_independent_sets(n, edges).maximal,
                               automorphisms=[g])
        assert check_orbit_solve(fam).delta == expected
        orbits.append(len(fam.orbits))
    assert orbits == [3, 7, 15]


def test_fourth_mycielski_graph_of_c5_over_its_orbits():
    """MIS of M(M(M(M(C5)))): 95 vertices, 49,049 maximal independent sets and
    31 orbits under the lifted rotation.  Over the orbits it solves in about a
    second; the solve without the group takes minutes, so it is not run."""
    g = cycle_rotation(5)
    for n, edges, expected in mycielski_chain(4):
        g = lifted(g)
    fam = HereditaryFamily(n, maximal_independent_sets(n, edges).maximal, automorphisms=[g])
    assert (n, len(fam.maximal), len(fam.orbits)) == (95, 49049, 31)
    res = delta_exact(fam)
    assert res.delta == expected == F(264588959090, 1014556267661)
    assert verify_certificate(fam, res)


def test_delta_full_powerset_is_one():
    res = delta_exact(cardinality_bound_family(4, 4))
    assert res.delta == 1


def test_delta_c5():
    fam = c5()
    res = delta_exact(fam)
    assert res.delta == F(2, 5)
    fp = fictitious_play(fam, 10**6, EPS)
    assert fp.converged and fp.contains(F(2, 5))


def test_delta_disjoint_singletons():
    fam = hereditary_closure([{0}, {1}, {2}], 3)
    res = delta_exact(fam)
    assert res.delta == F(1, 3)
    assert res.dual.weights == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}


def test_delta_zero_iff_uncovered_label():
    covered = hereditary_closure([{0, 1}, {2}], 3)
    assert delta_exact(covered).delta > 0
    uncovered = hereditary_closure([{0, 1}], 3)
    assert delta_exact(uncovered).delta == 0
    assert delta_exact(hereditary_closure([], 2)).delta == 0


def test_delta_bounds_and_extremes_on_seeded_families():
    for seed in range(40):
        fam = random_family(seed, n=None, max_sets=25)
        res = delta_exact(fam)
        assert 0 <= res.delta <= 1
        assert (res.delta == 1) == is_full_powerset(fam)
        covered = 0
        for m in fam.masks:
            covered |= m
        uncovered_exists = covered != (1 << fam.n) - 1
        assert (res.delta == 0) == uncovered_exists


def test_delta_monotone_under_family_growth():
    rng = random.Random(3)
    for seed in range(20):
        fam = random_family(seed, n=6, max_sets=8)
        d1 = delta_exact(fam).delta
        extra = {rng.randrange(6) for _ in range(rng.randint(1, 4))}
        bigger = hereditary_closure(list(fam.maximal) + [extra], 6)
        d2 = delta_exact(bigger).delta
        assert d2 >= d1


def test_delta_trace_consistency():
    # the value of the traced family is reproducible through the separate
    # LP code path and the play oracle
    rng = random.Random(5)
    for seed in range(10):
        fam = random_family(seed, n=7, max_sets=10)
        h = sorted(rng.sample(range(7), rng.randint(1, 6)))
        traced = trace(fam, h).family
        res = delta_exact(traced)
        assert min_ratio_nonneg(traced) == res.delta
        fp = fictitious_play(traced, 10**6, EPS)
        assert fp.contains(res.delta)


def test_delta_deterministic():
    fam = random_family(42, n=9, max_sets=20)
    a, b = delta_exact(fam), delta_exact(fam)
    assert a == b


def test_row_generation_adds_lowest_index_heaviest_row(corpus, monkeypatch):
    """delta_exact starts from the first longest maximal set, and each round
    adds the set of largest weight under the current mean, the lowest index
    among ties.  That set is never a row already: every row holds, so its set
    weighs at most the value, which the added set exceeds."""
    solves = []
    solve = ptakkit.game.solve_max_slack

    def recording(c, A, b, after=None):
        res = solve(c, A, b, after=after)
        solves.append(([tuple(s for s, v in enumerate(row) if v == 2) for row in A], res.x))
        return res

    monkeypatch.setattr(ptakkit.game, "solve_max_slack", recording)
    # the LP rows read here are per label, so the cardinality families are
    # built without the rotation they declare
    families = ([HereditaryFamily(n, cardinality_bound_family(n, k).maximal)
                 for n in range(2, 8) for k in range(1, n)]
                + [maximal_independent_sets(n, cycle_edges(n)) for n in range(4, 12)])
    ties = corpus_pivots = 0
    for i, fam in enumerate(families + corpus):
        solves.clear()
        res = delta_exact(fam)
        if i >= len(families):
            corpus_pivots += res.pivots
        if not fam.maximal:
            continue
        assert solves[0][0] == [max(fam.maximal, key=len)]
        for (rows, x), (next_rows, _) in zip(solves, solves[1:]):
            assert next_rows[:-1] == rows
            weights = [sum((x[s] for s in fset), F(0)) for fset in fam.maximal]
            assert all(weights[fam.maximal.index(r)] <= 1 - sum(x) for r in rows)
            heaviest = max(weights)
            tied = [j for j, w in enumerate(weights) if w == heaviest]
            assert fam.maximal.index(next_rows[-1]) == tied[0]
            assert next_rows[-1] not in rows
            ties += len(tied) > 1
        # no set outweighs the value under the final mean x / sum(x)
        x = solves[-1][1]
        assert all(sum((x[s] for s in fset), F(0)) <= 1 - sum(x) for fset in fam.maximal)
    assert ties > 0
    assert corpus_pivots == 8743


# --- packed pricing -------------------------------------------------------------

def fraction_heaviest(fam, x):
    """Reference: Fraction weights, the first of the largest."""
    weights = [sum((x[s] for s in fset), F(0)) for fset in fam.maximal]
    best = max(weights)
    return best, weights.index(best)


def check_pricing(fam, nums, pricing=None):
    pricing = pricing or _PackedWeights(fam)
    got = pricing.heaviest(nums)
    assert got == fraction_heaviest(fam, [F(v) for v in nums])
    assert pricing.width % 64 == 0 and pricing.width >= fam.n
    assert sum(nums) < 2 ** pricing.width
    return got


def random_nums(rng, n, bits):
    return [rng.randrange(2 ** bits) if rng.random() < 0.7 else 0 for _ in range(n)]


def test_packed_pricing_on_wide_ground_sets():
    """n > 64: every field spans two or more words from the start."""
    rng = random.Random(15)
    words = set()
    for s in range(30):
        fam = random_family(s, n=rng.randint(65, 200), max_sets=60)
        pricing = _PackedWeights(fam)
        words.add(pricing.width // 64)
        for bits in (3, 40, 70):
            check_pricing(fam, random_nums(rng, fam.n, bits), pricing)
    assert words >= {2, 3, 4}


@pytest.mark.parametrize("bits", [64, 65, 128, 129, 300])
def test_packed_pricing_widens_for_large_weights(bits):
    """Weights of 2**64 and more overflow a 64-bit field, and of 2**128 and
    more a 128-bit one: the fields must widen to keep every set's weight."""
    rng = random.Random(bits)
    widened = 0
    for fam in (random_family(3, n=20, max_sets=40), random_family(4, n=80, max_sets=40)):
        pricing = _PackedWeights(fam)
        before = pricing.width
        for _ in range(5):
            nums = [2 ** bits + rng.randrange(2 ** (bits - 2)) for _ in range(fam.n)]
            check_pricing(fam, nums, pricing)
        assert (pricing.width > before) == (bits >= before)
        widened += pricing.width > before
    assert widened


@pytest.mark.parametrize("n, k, scale", [(6, 3, 1), (14, 7, 1), (6, 3, 2 ** 70),
                                         (70, 1, 1), (70, 1, 2 ** 130)])
def test_packed_pricing_ties_go_to_the_lowest_index(n, k, scale):
    """Under the uniform mean, and under all-zero weights, every set of
    C(n, k) weighs the same: the first set wins, in one-word and in multiword
    fields."""
    fam = cardinality_bound_family(n, k)
    assert check_pricing(fam, [scale] * n) == (k * scale, 0)
    assert check_pricing(fam, [0] * n) == (0, 0)


# --- verify_certificate ---------------------------------------------------------

def test_verify_accepts_own_output(corpus, corpus_values):
    for fam, res in list(zip(corpus, corpus_values))[:50]:
        assert verify_certificate(fam, res)


def test_verify_rejects_tampered_delta():
    fam = cardinality_bound_family(4, 2)
    res = delta_exact(fam)
    bad = GameValueResult(delta=res.delta + F(1, 1000), primal=res.primal, dual=res.dual)
    check = verify_certificate(fam, bad)
    assert not check and check.reason == "primal-value"


def test_verify_uniform_primal_on_c5():
    fam = c5()
    res = delta_exact(fam)
    uniform = ConvexMean({s: F(1, 5) for s in range(5)})
    swapped = GameValueResult(delta=F(2, 5), primal=uniform, dual=res.dual)
    assert verify_certificate(fam, swapped)


def test_verify_reason_codes():
    fam = hereditary_closure([{0}, {1}], 2)
    res = delta_exact(fam)
    cases = [
        (ConvexMean({0: F(2), 1: F(-1)}), res.dual, "primal-negative"),
        (ConvexMean({0: F(1, 3)}), res.dual, "primal-sum"),
        (ConvexMean({}), res.dual, "primal-sum"),
        (ConvexMean({7: F(1)}), res.dual, "primal-support"),
        (ConvexMean({-1: F(1)}), res.dual, "primal-support"),
        (res.primal, FractionalCover({0: F(1, 3)}), "dual-sum"),
        (res.primal, FractionalCover({9: F(1)}), "dual-index"),
        (res.primal, FractionalCover({-1: F(1)}), "dual-index"),
        (res.primal, FractionalCover({0: F(2), 1: F(-1)}), "dual-negative"),
        (res.primal, FractionalCover({0: F(1)}), "dual-coverage"),
    ]
    for primal, dual, reason in cases:
        assert verify_certificate(fam, GameValueResult(res.delta, primal, dual)).reason == reason


# Fraction references for the integer kernels of evaluate_mean, _min_coverage
# and verify_certificate: the same checks in the same order, summed in Fractions.

def fraction_evaluate_mean(fam, weights):
    if any(not (0 <= s < fam.n) for s in weights):
        raise ValueError("outside ground set")
    return max([F(0)] + [sum((weights.get(s, F(0)) for s in fset), F(0))
                         for fset in fam.maximal])


def fraction_min_coverage(fam, weights):
    coverage = [F(0)] * fam.n
    for i, w in weights.items():
        for s in fam.maximal[i]:
            coverage[s] += w
    return min(coverage)


def fraction_verify_reason(fam, res):
    pw, dw = res.primal.weights, res.dual.weights
    if any(not (0 <= s < fam.n) for s in pw):
        return "primal-support"
    if any(w < 0 for w in pw.values()):
        return "primal-negative"
    if sum(pw.values(), F(0)) != 1:
        return "primal-sum"
    if fraction_evaluate_mean(fam, pw) != res.delta:
        return "primal-value"
    if any(not (0 <= i < len(fam.maximal)) for i in dw):
        return "dual-index"
    if any(w < 0 for w in dw.values()):
        return "dual-negative"
    if (sum(dw.values(), F(0)) != 1) if dw else bool(fam.maximal):
        return "dual-sum"
    if fraction_min_coverage(fam, dw) != res.delta:
        return "dual-coverage"
    return None


def tampered_certificates(fam, res, rng):
    """The certificate itself, then variants that break (or keep) each check."""
    pw, dw = dict(res.primal.weights), dict(res.dual.weights)
    n, m = fam.n, len(fam.maximal)
    a, b = rng.randrange(n), rng.randrange(n)
    shift = F(rng.randint(1, 5), rng.randint(2, 9))
    moved = dict(pw)
    moved[a] = moved.get(a, F(0)) + shift
    moved[b] = moved.get(b, F(0)) - shift
    raw = {s: F(rng.randint(-3, 9), rng.randint(1, 6)) for s in range(n)}
    total = sum(raw.values(), F(0)) or F(1)
    primals = [
        pw, moved, {**pw, n: F(1, 5)}, {**pw, -1: F(1, 5)}, {s: 2 * w for s, w in pw.items()},
        {s: w / total for s, w in raw.items()},
    ]
    duals = [dw, {}, {**dw, m: F(1, 2)}, {**dw, -1: F(1, 2)}, {i: w / 2 for i, w in dw.items()}]
    if m:
        i, j = rng.randrange(m), rng.randrange(m)
        skew = dict(dw)
        skew[i] = skew.get(i, F(0)) + shift
        skew[j] = skew.get(j, F(0)) - shift
        duals.append(skew)
        duals.append({i: F(1)})
    deltas = [res.delta, res.delta + F(1, 97)]
    for delta in deltas:
        for p in primals:
            yield GameValueResult(delta, ConvexMean(p), res.dual)
        for d in duals:
            yield GameValueResult(delta, res.primal, FractionalCover(d))


def test_weight_kernels_match_fraction_reference(corpus, corpus_values):
    rng = random.Random(17)
    families = list(zip(corpus, corpus_values))[:200]
    families += [(f, delta_exact(f)) for f in (
        c5(), cardinality_bound_family(9, 4), maximal_independent_sets(14, cycle_edges(14)),
        hereditary_closure([{0, 1}], 3), hereditary_closure([], 3))]
    reasons = set()
    for fam, res in families:
        for cert in tampered_certificates(fam, res, rng):
            expected = fraction_verify_reason(fam, cert)
            assert verify_certificate(fam, cert).reason == expected
            reasons.add(expected)
            pw, dw = cert.primal.weights, cert.dual.weights
            if all(0 <= s < fam.n for s in pw):
                value = evaluate_mean(fam, cert.primal)
                assert type(value) is F and value == fraction_evaluate_mean(fam, pw)
            else:
                with pytest.raises(ValueError):
                    evaluate_mean(fam, cert.primal)
            if all(0 <= i < len(fam.maximal) for i in dw):
                coverage = ptakkit.game._min_coverage(fam, cert.dual)
                assert type(coverage) is F and coverage == fraction_min_coverage(fam, dw)
    assert reasons == {None, "primal-support", "primal-negative", "primal-sum", "primal-value",
                       "dual-index", "dual-negative", "dual-sum", "dual-coverage"}


def test_verify_empty_family_certificate():
    fam = hereditary_closure([], 3)
    res = delta_exact(fam)
    assert res.delta == 0 and res.dual.weights == {}
    assert verify_certificate(fam, res)
    # an empty dual is rejected whenever maximal sets exist
    other = cardinality_bound_family(2, 1)
    rr = delta_exact(other)
    assert verify_certificate(
        other, GameValueResult(rr.delta, rr.primal, FractionalCover({}))).reason == "dual-sum"


# --- strong duality on the corpus ------------------------------------------------

def test_strong_duality_exact(corpus, corpus_values):
    for fam, res in zip(corpus, corpus_values):
        assert evaluate_mean(fam, res.primal) == res.delta
        coverage = [F(0)] * fam.n
        for i, w in res.dual.weights.items():
            for s in fam.maximal[i]:
                coverage[s] += w
        assert min(coverage) == res.delta


# --- fictitious_play --------------------------------------------------------------

def test_fp_cardinality_bracket():
    fam = cardinality_bound_family(5, 2)
    r = fictitious_play(fam, 10**6, EPS)
    assert r.converged and r.contains(F(2, 5))
    assert r.upper - r.lower <= EPS


def test_fp_full_powerset_single_iteration():
    r = fictitious_play(cardinality_bound_family(4, 4), 10**6, EPS)
    assert r.iterations == 1
    assert r.lower == r.upper == 1


def test_fp_disjoint_singletons():
    fam = hereditary_closure([{i} for i in range(4)], 4)
    r = fictitious_play(fam, 10**6, EPS)
    assert r.converged and r.contains(F(1, 4))


def test_fp_flags_non_convergence():
    r = fictitious_play(c5(), 3, EPS)
    assert not r.converged
    assert r.lower <= F(2, 5) <= r.upper  # bracket still valid


def test_fp_empty_family():
    r = fictitious_play(hereditary_closure([], 3), 10, EPS)
    assert r.converged and r.lower == r.upper == 0


def test_fp_midpoint_close_to_exact():
    fam = random_family(123, n=8, max_sets=15)
    d = delta_exact(fam).delta
    r = fictitious_play(fam, 10**6, EPS)
    assert r.converged
    assert abs(d - (r.lower + r.upper) / 2) <= EPS


def test_fp_argument_validation():
    fam = c5()
    with pytest.raises(ValueError):
        fictitious_play(fam, 0, EPS)
    with pytest.raises(ValueError):
        fictitious_play(fam, 10, F(0))
    with pytest.raises(ValueError):
        fictitious_play(fam, 10**10, EPS)


# --- serialization -----------------------------------------------------------------

def test_certificate_json_round_trip():
    fam = c5()
    res = delta_exact(fam)
    data = json.loads(json.dumps(res.to_json_dict()))
    back = GameValueResult.from_json_dict(data)
    assert back.delta == res.delta
    assert back.primal == res.primal
    assert back.dual == res.dual
    assert verify_certificate(fam, back)
    with pytest.raises(ValueError):
        GameValueResult.from_json_dict({"delta": "1/2"})


@pytest.mark.parametrize("key", ["00", " 1", "1 ", "+1", "1_0", "-0", "0x1", "", "a"])
def test_certificate_keys_must_be_canonical_integers(key):
    """int() reads each of these keys, or fails on it; a key that int() reads
    could name the same label as another, so every one is refused by name."""
    fam = hereditary_closure([{0}, {1}], 2)
    half = "1/2"
    data = {"delta": half, "primal": {"0": half, "1": half}, "dual": {"0": half, "1": half}}
    assert verify_certificate(fam, GameValueResult.from_json_dict(data))
    for field in ("primal", "dual"):
        bad = {**data, field: {**data[field], key: half}}
        with pytest.raises(ValueError, match=re.escape(f"weight key {key!r}")):
            GameValueResult.from_json_dict(bad)
    negative = {**data, "primal": {"-1": half, "0": half, "1": half}}
    assert GameValueResult.from_json_dict(negative).primal.weights[-1] == F(1, 2)
