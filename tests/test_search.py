import hashlib
import json
import math
import random
from fractions import Fraction

import ptakkit.game
import ptakkit.norms
import ptakkit.search
import ptakkit.suite
from ptakkit.families import (
    cardinality_bound_family,
    cycle_edges,
    hereditary_closure,
    mask_to_tuple,
    maximal_cliques,
    maximal_independent_sets,
    membership,
    trace,
)
from ptakkit.game import ConvexMean, evaluate_mean
from ptakkit.intervals import random_system, trace_family
from ptakkit.search import (
    BoundReport,
    max_member,
    ptak_bound_check,
)
from ptakkit.suite import run_suite

F = Fraction


def brute_max_member(fam):
    """Exhaustive oracle over all 2^n subsets of the ground set: the
    lexicographically smallest member of maximum size."""
    members = (mask_to_tuple(a) for a in range(1 << fam.n)
               if any(a & ~m == 0 for m in fam.masks))
    return min(members, key=lambda s: (-len(s), s))


def wide_families(seed):
    """The three families of the wide benchmark at ``seed``: C(14,7),
    MIS(C30) and the trace of an 80-label interval system."""
    rng = random.Random(f"wide:{seed}")
    system = random_system(rng.randrange(2**32), 80, 1, F(1, 4))
    return [cardinality_bound_family(14, 7),
            maximal_independent_sets(30, cycle_edges(30)), trace_family(system)]


# --- max_member ------------------------------------------------------------------

def test_max_member_cardinality():
    res = max_member(cardinality_bound_family(6, 3))
    assert res.size == 3 and res.optimal
    assert res.best == (0, 1, 2)  # lexicographically smallest maximum


def test_max_member_c5_triangle_free():
    fam = maximal_cliques(5, cycle_edges(5))
    assert brute_max_member(fam) == (0, 1)
    res = max_member(fam)
    assert res.size == 2 and res.optimal and res.best == (0, 1)


def test_max_member_c5_independent():
    fam = maximal_independent_sets(5, cycle_edges(5))
    assert brute_max_member(fam) == (0, 2)
    assert max_member(fam).best == (0, 2)


def test_max_member_empty_family():
    res = max_member(hereditary_closure([], 4))
    assert res.best == () and res.size == 0 and res.optimal


def test_max_member_soundness_and_exactness(corpus):
    for fam in corpus[:60]:
        res = max_member(fam)
        assert membership(fam, res.best)
        assert res.optimal
        assert res.best == brute_max_member(fam) and res.size == len(res.best)


def test_max_member_answers_pinned(corpus):
    # (best, size, optimal) of the full search: one sha256 over the corpus,
    # and the three wide families at seed 0
    rows = [[list(r.best), r.size, r.optimal] for r in map(max_member, corpus)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "cb690b8d8d92ef1ad72af2b8f01c44092167742d4f413c90d791dd0cbd378dc5")
    trace_best = tuple(sorted(set(range(80)) - {3, 4, 5, 10, 11, 17, 20, 32, 56, 70, 76}))
    assert [(r.best, r.size, r.optimal) for r in map(max_member, wide_families(0))] == [
        (tuple(range(7)), 7, True), (tuple(range(0, 30, 2)), 15, True),
        (trace_best, 69, True)]


def test_max_member_pinned_on_corpus(corpus):
    # sha256 of (seed, best, size, nodes_explored, optimal) for every family;
    # the scan examines every maximal set
    rows = []
    for seed, fam in enumerate(corpus):
        r = max_member(fam)
        assert r.nodes_explored == len(fam.maximal) and r.optimal is True
        rows.append([seed, list(r.best), r.size, r.nodes_explored, r.optimal])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "3ef8a2c1d0de3a8f18c090cab0a1b0072eb443ad426d9096d8ed8c132a2c97fd")


def test_max_member_pinned_on_wide_families():
    longest = tuple(sorted(set(range(80)) - {3, 4, 5, 10, 11, 17, 20, 32, 56, 70, 76}))
    pins = [(tuple(range(7)), 7, 3432, True), (tuple(range(0, 30, 2)), 15, 4610, True),
            (longest, 69, 8, True)]
    for fam, expected in zip(wide_families(0), pins):
        r = max_member(fam)
        assert r.nodes_explored == len(fam.maximal) and r.optimal is True
        assert (r.best, r.size, r.nodes_explored, r.optimal) == expected


# --- ptak_bound_check --------------------------------------------------------------

def test_bound_check_pairs():
    rep = ptak_bound_check(cardinality_bound_family(5, 2))
    assert rep.delta == F(2, 5) and rep.bound == 2 and rep.achieved == 2 and rep.ok


def test_bound_check_full_powerset():
    rep = ptak_bound_check(cardinality_bound_family(4, 4))
    assert rep.bound == 4 and rep.achieved == 4 and rep.ok


def test_bound_check_disjoint_singletons():
    rep = ptak_bound_check(hereditary_closure([{0}, {1}, {2}], 3))
    assert rep.delta == F(1, 3) and rep.bound == 1 and rep.achieved == 1 and rep.ok


def test_bound_report_derives_bound_and_ok():
    rep = BoundReport(F(2, 5), 7, 2)
    assert rep.bound == 3 and not rep.ok
    assert rep.to_json_dict() == {"delta": "2/5", "n": 7, "bound": 3, "achieved": 2,
                                  "ok": False}


def test_run_suite_solves_and_searches_each_family_once(count_calls):
    # intervals imports delta_exact from game when it is called
    solves = count_calls("delta_exact",
                         [ptakkit.game, ptakkit.suite, ptakkit.search, ptakkit.norms])
    searches = count_calls("max_member", [ptakkit.search, ptakkit.suite])
    rep = run_suite(3)
    assert rep["all_pass"]
    assert len(solves) == 24 + 8  # each family, then each interval system's trace
    assert len(searches) == 24


def test_bound_holds_on_corpus_sample(corpus):
    for fam in corpus[:60]:
        rep = ptak_bound_check(fam)
        assert rep.ok


def test_uniform_mean_witnesses_bound(corpus, corpus_values):
    # under the uniform mean a set weighs |F|/n, so the heaviest member is a
    # maximum member, and its weight is at least delta
    for fam, res in list(zip(corpus, corpus_values))[:40]:
        uniform = ConvexMean({s: F(1, fam.n) for s in range(fam.n)})
        heaviest = evaluate_mean(fam, uniform) * fam.n
        assert heaviest == max_member(fam).size >= math.ceil(res.delta * fam.n)


def test_max_member_monotone_under_trace(corpus):
    rng = random.Random(8)
    for fam in corpus[:30]:
        h = sorted(rng.sample(range(fam.n), rng.randint(1, fam.n)))
        traced = trace(fam, h).family
        assert max_member(traced).size <= max_member(fam).size
