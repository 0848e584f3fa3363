import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from ptakkit import intervals
from ptakkit.families import hereditary_closure, is_full_powerset, membership
from ptakkit.intervals import (
    IntervalSet,
    IntervalSystem,
    NotApplicableError,
    direct_intersection,
    helly_check,
    measure_lower_bound,
    random_system,
    trace_family,
)

F = Fraction


def system_of(*pieces_lists):
    return IntervalSystem(tuple(IntervalSet(p) for p in pieces_lists))


def brute_membership(sysm, labels):
    """Oracle: intersect the labels' interval sets directly."""
    return not direct_intersection(sysm, labels).is_empty


# --- IntervalSet -----------------------------------------------------------------

def test_measure_single_piece():
    assert IntervalSet(((F(0), F(1, 2)),)).measure() == F(1, 2)


def test_measure_additive():
    s = IntervalSet(((F(0), F(1, 4)), (F(1, 2), F(3, 4))))
    assert s.measure() == F(1, 2)


def test_measure_degenerate_point():
    assert IntervalSet(((F(1, 3), F(1, 3)),)).measure() == 0


def test_canonicalization_sorts_merges_touching():
    s = IntervalSet([(F(1, 2), F(1)), (F(0), F(1, 2))])
    assert s.pieces == ((F(0), F(1)),)
    s = IntervalSet([(F(0), F(1, 4)), (F(1, 8), F(1, 2))])
    assert s.pieces == ((F(0), F(1, 2)),)


def test_canonicalization_preserves_isolated_points():
    s = IntervalSet([(F(1, 3), F(1, 3)), (F(2, 3), F(1))])
    assert s.pieces == ((F(1, 3), F(1, 3)), (F(2, 3), F(1)))


def sort_and_merge(pieces):
    """Reference for construction: sort the pieces, then merge each into the
    last kept one when it starts at or before that one's end."""
    merged = []
    for a, b in sorted((F(a), F(b)) for a, b in pieces):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def test_construction_matches_sort_and_merge():
    rng = random.Random(61)
    checked = {"unsorted": 0, "touching": 0, "overlapping": 0}
    for _ in range(600):
        pieces = []
        for _ in range(rng.randint(0, 6)):
            a = rng.randint(0, 8)
            b = a if rng.random() < 0.2 else rng.randint(a, 8)
            pieces.append((F(a, 8), F(b, 8)))
        s = IntervalSet(rng.choice((list, tuple))(pieces))
        assert s.pieces == sort_and_merge(pieces)
        assert IntervalSet(s.pieces) == s
        assert all(type(x) is F for piece in s.pieces for x in piece)
        ordered = sorted(pieces)
        checked["unsorted"] += ordered != pieces
        checked["touching"] += any(p[1] == q[0] for p, q in zip(ordered, ordered[1:]))
        checked["overlapping"] += any(p[1] > q[0] for p, q in zip(ordered, ordered[1:]))
    assert min(checked.values()) >= 100, checked


def test_construction_rejects_inverted_or_outside_pieces():
    for pieces in ([(F(1, 2), F(1, 4))],  # inverted
                   [(F(0), F(1)), (F(1, 2), F(1, 4))],  # inverted inside a larger piece
                   [(F(-1, 4), F(1, 2))],  # outside [0,1]
                   [(F(1, 2), F(5, 4)), (F(0), F(1))]):
        with pytest.raises(ValueError, match="not within"):
            IntervalSet(pieces)


def test_intersect_two_pointer():
    a = IntervalSet([(0, F(1, 2)), (F(3, 4), 1)])
    b = IntervalSet([(F(1, 4), F(7, 8))])
    assert a.intersect(b).pieces == ((F(1, 4), F(1, 2)), (F(3, 4), F(7, 8)))
    # closed sets meeting in a single point keep the point
    c = IntervalSet([(0, F(1, 2))])
    d = IntervalSet([(F(1, 2), 1)])
    assert c.intersect(d).pieces == ((F(1, 2), F(1, 2)),)


# --- trace_family -------------------------------------------------------------------

def test_trace_disjoint_intervals_make_singletons():
    sysm = system_of([(0, F(1, 4))], [(F(3, 8), F(5, 8))], [(F(3, 4), 1)])
    assert trace_family(sysm).maximal == ((0,), (1,), (2,))


def test_trace_endpoint_sweep_example():
    sysm = system_of([(0, F(1, 2))], [(F(1, 4), F(3, 4))], [(F(3, 5), 1)])
    fam = trace_family(sysm)
    assert fam.maximal == ((0, 1), (1, 2))
    # derived by hand: C0 and C2 never meet
    assert direct_intersection(sysm, [0, 2]).is_empty


def test_trace_all_full_intervals_full_powerset():
    sysm = system_of([(0, 1)], [(0, 1)], [(0, 1)])
    assert is_full_powerset(trace_family(sysm))


def test_trace_detects_shared_endpoint():
    sysm = system_of([(0, F(1, 2))], [(F(1, 2), 1)])
    assert trace_family(sysm).maximal == ((0, 1),)


def test_trace_empty_interval_set_leaves_label_uncovered():
    sysm = IntervalSystem((IntervalSet([]), IntervalSet(((F(0), F(1)),))))
    fam = trace_family(sysm)
    assert fam.maximal == ((1,),)
    assert not membership(fam, [0])


def test_trace_membership_matches_direct_intersection_exhaustively():
    for seed in range(25):
        rng = random.Random(seed)
        sysm = random_system(seed, rng.randint(1, 8), rng.randint(1, 3),
                             F(rng.randint(0, 5), 20))
        fam = trace_family(sysm)
        for mask in range(1 << sysm.n):
            labels = [s for s in range(sysm.n) if (mask >> s) & 1]
            assert membership(fam, labels) == brute_membership(sysm, labels)


def per_point_sweep_family(sysm):
    """Reference for trace_family: every endpoint and gap midpoint, tested
    against every label's pieces with Fraction comparisons."""
    pts = sorted({x for iset in sysm.sets for piece in iset.pieces for x in piece})
    samples = pts + [(lo + hi) / 2 for lo, hi in zip(pts, pts[1:])]
    stabilizers = []
    for x in samples:
        stab = tuple(s for s in range(sysm.n)
                     if any(a <= x <= b for a, b in sysm.sets[s].pieces))
        if stab:
            stabilizers.append(stab)
    return hereditary_closure(stabilizers, sysm.n)


def grid_system(rng, n):
    """Up to four pieces per label on the grid k/8, so labels often share an
    endpoint; about a third of the pieces are points [a, a], and a label
    drawing no piece has the empty interval set."""
    sets = []
    for _ in range(n):
        pieces = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(0, 8)
            b = a if rng.random() < 0.3 else rng.randint(a, 8)
            pieces.append((F(a, 8), F(b, 8)))
        sets.append(IntervalSet(pieces))
    return IntervalSystem(tuple(sets))


def test_trace_family_matches_per_point_sweep():
    systems = [system_of([]), system_of([(0, 1)]), system_of([(F(1, 3), F(1, 3))]),
               system_of([], []), system_of([(0, F(1, 2))], [(F(1, 2), 1)])]
    for seed in range(150):
        rng = random.Random(seed)
        systems.append(grid_system(rng, rng.randint(1, 12)))
        systems.append(random_system(seed, rng.randint(1, 16), rng.randint(1, 4),
                                     F(rng.randint(0, 8), 16)))
    for sysm in systems:
        assert trace_family(sysm) == per_point_sweep_family(sysm), sysm
    isets = [iset for sysm in systems for iset in sysm.sets]
    assert any(len(iset.pieces) > 1 for iset in isets)
    assert any(a == b for iset in isets for a, b in iset.pieces)
    assert any(iset.is_empty for iset in isets)
    assert any(sysm.n == 1 for sysm in systems[5:])

    def endpoints(iset):
        return {x for piece in iset.pieces for x in piece}

    assert sum(any(endpoints(p) & endpoints(q) for p, q in combinations(sysm.sets, 2))
               for sysm in systems) > 100


def test_trace_family_reads_one_stabilizer_per_piece_start(monkeypatch):
    # points and shared endpoints: 6 distinct piece starts among 7 distinct
    # endpoints, where sampling every endpoint and gap midpoint reads 13
    sysm = system_of([(0, F(1, 4)), (F(5, 8), F(5, 8))],
                     [(F(1, 4), F(1, 2)), (F(3, 4), 1)],
                     [(F(1, 8), F(1, 8)), (F(1, 2), F(3, 4))])
    read = []

    def capture(sets, n):
        read.append([list(s) for s in sets])
        return hereditary_closure(read[-1], n)

    monkeypatch.setattr(intervals, "hereditary_closure", capture)
    fam = trace_family(sysm)
    assert read == [[[0], [0, 2], [0, 1], [1, 2], [0, 2], [1, 2]]]
    assert len(read[0]) == len({a for iset in sysm.sets for a, _ in iset.pieces})
    assert fam.maximal == ((0, 1), (0, 2), (1, 2)) and fam == per_point_sweep_family(sysm)


def test_trace_family_is_adequate_finite_form():
    # a set belongs iff all its subsets belong (exhaustive, small n)
    for seed in range(10):
        sysm = random_system(seed, 6, 2, F(1, 10))
        fam = trace_family(sysm)
        for mask in range(1 << 6):
            labels = [s for s in range(6) if (mask >> s) & 1]
            subsets_in = all(
                membership(fam, [s for s in labels if (sub >> s) & 1])
                for sub in range(1 << 6) if sub & mask == sub
            )
            assert membership(fam, labels) == subsets_in


# --- measure_lower_bound ---------------------------------------------------------------

def test_bound_three_disjoint():
    sysm = system_of([(0, F(3, 10))], [(F(1, 3), F(1, 3) + F(3, 10))],
                     [(F(7, 10), 1)])
    rep = measure_lower_bound(sysm)
    assert rep.bound == F(3, 10)
    assert rep.delta == F(1, 3)
    assert rep.ok


def test_bound_full_intervals_equality():
    rep = measure_lower_bound(system_of([(0, 1)], [(0, 1)]))
    assert rep.bound == 1 and rep.delta == 1 and rep.ok


def test_bound_sweep_example():
    sysm = system_of([(0, F(1, 2))], [(F(1, 4), F(3, 4))], [(F(3, 5), 1)])
    rep = measure_lower_bound(sysm)
    assert rep.bound == F(2, 5)
    assert rep.delta == F(1, 2)  # optimal mean splits between labels 0 and 2
    assert rep.ok


def test_bound_degenerate_point_piece():
    sysm = system_of([(F(1, 2), F(1, 2))], [(0, 1)])
    rep = measure_lower_bound(sysm)
    assert rep.bound == 0 and rep.ok


def test_bound_holds_on_seeded_systems():
    for seed in range(40):
        rng = random.Random(seed ^ 77)
        sysm = random_system(seed, rng.randint(1, 10), rng.randint(1, 3),
                             F(rng.randint(0, 6), 24))
        rep = measure_lower_bound(sysm)
        assert rep.ok, (seed, rep)


# --- helly_check --------------------------------------------------------------------------

def test_helly_single_interval_systems_always_pass():
    for seed in range(20):
        rng = random.Random(seed)
        sysm = random_system(seed, rng.randint(1, 6), 1, F(rng.randint(0, 4), 16))
        assert helly_check(sysm)


def test_helly_triple_pairwise_forces_global():
    sysm = system_of([(0, F(1, 2))], [(F(1, 3), 1)], [(F(5, 12), F(7, 12))])
    fam = trace_family(sysm)
    assert membership(fam, [0, 1]) and membership(fam, [1, 2]) and membership(fam, [0, 2])
    assert membership(fam, [0, 1, 2])
    assert helly_check(sysm)


def test_helly_single_label():
    assert helly_check(system_of([(F(1, 4), F(3, 4))]))


def test_helly_fails_when_the_sweep_misses_a_member(monkeypatch):
    # a sweep that samples only every third point loses the members that
    # meet elsewhere, and the check must then see the mismatch
    sysm = system_of([(0, F(1, 4))], [(F(1, 8), F(1, 2))], [(F(3, 8), F(3, 4))],
                     [(F(5, 8), 1)])
    assert helly_check(sysm)

    def sparse_sweep(sysm):
        points = sorted({x for iset in sysm.sets for x in iset.pieces[0]})[::3]
        return hereditary_closure([[s for s, iset in enumerate(sysm.sets)
                                    if iset.pieces[0][0] <= x <= iset.pieces[0][1]]
                                   for x in points], sysm.n)

    monkeypatch.setattr(intervals, "trace_family", sparse_sweep)
    assert not helly_check(sysm)


def test_helly_forty_single_intervals():
    # n = 40 lies far past any enumeration of subsets
    sysm = random_system(40, 40, 1, F(1, 16))
    assert sysm.n == 40 and len(trace_family(sysm).maximal) > 1
    assert helly_check(sysm)


def test_helly_not_applicable_multi_piece():
    sysm = system_of([(0, F(1, 4)), (F(1, 2), 1)], [(0, 1)])
    with pytest.raises(NotApplicableError):
        helly_check(sysm)
    with pytest.raises(NotApplicableError):
        helly_check(IntervalSystem((IntervalSet([]),)))


# --- random_system --------------------------------------------------------------------------

def test_random_system_deterministic_byte_exact():
    a = random_system(1, 3, 1, F(1, 4))
    b = random_system(1, 3, 1, F(1, 4))
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_random_system_measure_floor():
    for seed in range(20):
        sysm = random_system(seed, 4, 2, F(3, 10))
        for iset in sysm.sets:
            assert iset.measure() >= F(3, 10)


def test_random_system_full_measure_forces_unit_interval():
    sysm = random_system(5, 2, 3, 1)
    for iset in sysm.sets:
        assert iset.pieces == ((F(0), F(1)),)


def test_random_system_parameter_validation():
    with pytest.raises(ValueError):
        random_system(1, 3, 0, F(1, 4))
    with pytest.raises(ValueError):
        random_system(1, 0, 1, F(1, 4))
    with pytest.raises(ValueError):
        random_system(1, 3, 1, F(5, 4))
    with pytest.raises(ValueError):
        random_system(1, 3, 1, F(-1, 4))


# --- serialization ----------------------------------------------------------------------------

def test_system_json_round_trip():
    sysm = system_of([(0, F(1, 3)), (F(1, 2), F(2, 3))], [(F(1, 4), F(3, 4))])
    data = json.loads(json.dumps(sysm.to_json_dict()))
    assert IntervalSystem.from_json_dict(data) == sysm
    with pytest.raises(ValueError):
        IntervalSystem.from_json_dict({"n": 3, "sets": [[["0/1", "1/1"]]]})
    with pytest.raises(ValueError):
        IntervalSystem.from_json_dict({"n": 1})


def test_interval_trace_family_spec():
    from ptakkit.families import family_from_json_dict

    sysm = system_of([(0, F(1, 2))], [(F(1, 4), F(3, 4))], [(F(3, 5), 1)])
    data = {"spec": {"kind": "interval_trace", "system": sysm.to_json_dict()}}
    fam = family_from_json_dict(json.loads(json.dumps(data)))
    assert fam == trace_family(sysm)
    assert fam.maximal == ((0, 1), (1, 2))
