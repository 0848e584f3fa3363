import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import ptakkit.families
from ptakkit.families import (
    FamilySpec,
    HereditaryFamily,
    all_members,
    cardinality_bound_family,
    cycle_edges,
    family_from_json_dict,
    hereditary_closure,
    is_full_powerset,
    maximal_cliques,
    maximal_independent_sets,
    maximal_up_set,
    mask_to_tuple,
    membership,
    random_family,
    realize,
    set_mask,
    trace,
)


def brute_member_masks(fam):
    """Independent membership oracle: every subset of the ground set that is
    contained in some listed maximal set (plus the empty set)."""
    return [
        a for a in range(1 << fam.n)
        if a == 0 or any(a & ~m == 0 for m in fam.masks)
    ]


def brute_maximal_cliques(n, edges):
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
    cliques = []
    for mask in range(1, 1 << n):
        vs = [v for v in range(n) if (mask >> v) & 1]
        if all(adj[a][b] for a, b in combinations(vs, 2)):
            cliques.append(set(vs))
    return sorted(
        tuple(sorted(c)) for c in cliques
        if not any(c < d for d in cliques)
    )


# --- hereditary_closure -----------------------------------------------------

def test_closure_containment_elimination():
    fam = hereditary_closure([{0, 1}, {1}, {0, 1, 2}], 3)
    assert fam.maximal == ((0, 1, 2),)


def test_closure_empty_input_is_empty_set_family():
    fam = hereditary_closure([], 3)
    assert fam.maximal == ()
    assert membership(fam, [])
    assert not membership(fam, [0])


def test_closure_keeps_antichain():
    fam = hereditary_closure([{0}, {1}, {2}], 3)
    assert fam.maximal == ((0,), (1,), (2,))


def test_closure_idempotent_on_seeded_families():
    for seed in range(30):
        fam = random_family(seed, n=None, max_sets=20)
        again = hereditary_closure(fam.maximal, fam.n)
        assert again == fam


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6)), max_size=10), st.just(7))
def test_closure_represents_downward_closure(sets, n):
    fam = hereditary_closure(sets, n)
    # membership holds exactly for subsets of inputs
    for a in range(1 << n):
        labels = {s for s in range(n) if (a >> s) & 1}
        expected = not labels or any(labels <= set(x) for x in sets)
        assert membership(fam, labels) == expected


def test_closure_label_out_of_range():
    with pytest.raises(ValueError):
        hereditary_closure([{0, 3}], 3)
    with pytest.raises(ValueError):
        hereditary_closure([{-1}], 3)


def test_direct_construction_rejects_non_canonical():
    with pytest.raises(ValueError):
        HereditaryFamily(n=3, maximal=((0, 1), (1,)))  # not an antichain
    with pytest.raises(ValueError):
        HereditaryFamily(n=3, maximal=((1, 0),))  # not ascending
    with pytest.raises(ValueError):
        HereditaryFamily(n=0, maximal=())
    with pytest.raises(ValueError, match="order"):
        HereditaryFamily(n=3, maximal=((0, 2), (0, 2)))  # duplicated set
    with pytest.raises(ValueError, match="order"):
        HereditaryFamily(n=3, maximal=((1, 2), (0, 2)))  # not lexicographic
    with pytest.raises(ValueError, match=r"\(0, 1\) within \(0, 1, 2\)"):
        HereditaryFamily(n=3, maximal=((0, 1), (0, 1, 2)))  # container sorts after
    with pytest.raises(ValueError, match=r"\(64, 70\) within \(3, 64, 70\)"):
        HereditaryFamily(n=80, maximal=((3, 64, 70), (64, 70)))  # masks beyond 64 bits


@pytest.mark.parametrize("n, maximal, message", [
    (0, ((1, 0),), "ground set must have at least one element"),
    (3, ((),), "empty set is implicit, never listed as maximal"),
    (3, ((0,), ()), "empty set is implicit, never listed as maximal"),
    (3, ((1, 0),), "maximal set not in ascending form: (1, 0)"),
    (3, ((0, 0),), "maximal set not in ascending form: (0, 0)"),
    (3, ((2, 1, 5),), "maximal set not in ascending form: (2, 1, 5)"),
    (3, ((0, 3),), "label out of range: (0, 3)"),
    (3, ((-1, 0),), "label out of range: (-1, 0)"),
    (3, ((5,), (1, 0)), "label out of range: (5,)"),
    (3, ((1, 0), (5,)), "maximal set not in ascending form: (1, 0)"),
    (3, ((1, 2), (0, 5)), "label out of range: (0, 5)"),
    (3, ((1, 2), (0, 2)), "maximal sets not in strictly increasing lexicographic order"),
    (3, ((0, 1, 2), (0, 1)), "maximal sets not in strictly increasing lexicographic order"),
    (3, ((0, 1), (0, 1, 2)), "not an antichain: (0, 1) within (0, 1, 2)"),
    (3, ((0, 1), (0, 1, 2), (1,)), "not an antichain: (0, 1) within (0, 1, 2)"),
])
def test_direct_construction_messages_and_their_order(n, maximal, message):
    """Each check names what failed; per-set checks run set by set, then the
    order check, then the antichain check."""
    with pytest.raises(ValueError) as exc:
        HereditaryFamily(n=n, maximal=maximal)
    assert str(exc.value) == message


def test_direct_construction_masks():
    fam = HereditaryFamily(n=80, maximal=((0, 5, 79), (1, 64), (2,)))
    assert fam.masks == tuple(set_mask(s) for s in fam.maximal)


def pairwise_containers(masks):
    """Reference for ``_containers``: every mask lying inside another, mapped
    to the largest undominated mask containing it, the lowest index on ties."""
    dominated = {i for i, a in enumerate(masks)
                 if any(j != i and a & b == a for j, b in enumerate(masks))}
    return {i: min((j for j, b in enumerate(masks)
                    if j not in dominated and j != i and masks[i] & b == masks[i]),
                   key=lambda j: (-masks[j].bit_count(), j))
            for i in dominated}


def test_containers_match_pairwise_scan():
    rng = random.Random(31)
    checked = {"dominated": 0, "same size": 0, "beyond 64": 0}
    for _ in range(1200):
        labels = rng.choice((6, 12, 40, 70, 140))
        sets = set()
        for _ in range(rng.randint(1, 8)):
            base = rng.sample(range(labels), rng.randint(1, min(labels, 10)))
            sets.add(frozenset(base))
            for _ in range(rng.randint(0, 4)):  # subsets and same-size neighbours
                sub = rng.sample(base, rng.randint(1, len(base)))
                sets.add(frozenset(sub))
                sets.add(frozenset(sub[1:] + [rng.randrange(labels)]))
        masks = [set_mask(x) for x in sets]
        rng.shuffle(masks)
        expected = pairwise_containers(masks)
        assert ptakkit.families._containers(list(map(mask_to_tuple, masks)), labels) == expected
        sizes = [m.bit_count() for m in masks]
        checked["dominated"] += bool(expected)
        checked["same size"] += len(set(sizes)) < len(sizes)
        checked["beyond 64"] += max(masks) >= 1 << 64
    assert min(checked.values()) >= 200, checked



def test_containers_match_pairwise_scan_on_many_sets():
    # hundreds of sets: the kept-position bitsets pass 64 bits, and sizes
    # from 1 to 9 give several groups, each looked up in the larger ones
    rng = random.Random(47)
    checked = {"kept beyond 64": 0, "sizes >= 5": 0, "dominated": 0}
    for _ in range(24):
        n = rng.randint(6, 40)
        sets = {frozenset(rng.sample(range(n), rng.randint(1, min(n, 9))))
                for _ in range(rng.randint(80, 300))}
        masks = [set_mask(x) for x in sets]
        rng.shuffle(masks)
        expected = pairwise_containers(masks)
        assert ptakkit.families._containers(list(map(mask_to_tuple, masks)), n) == expected
        smallest = min(m.bit_count() for m in masks)  # never indexed
        undominated_larger = sum(1 for i, m in enumerate(masks)
                                 if i not in expected and m.bit_count() > smallest)
        checked["kept beyond 64"] += undominated_larger > 64
        checked["sizes >= 5"] += len({m.bit_count() for m in masks}) >= 5
        checked["dominated"] += bool(expected)
    assert min(checked.values()) >= 10, checked

# --- membership and hereditarity ---------------------------------------------

def test_membership_examples():
    fam = hereditary_closure([{0, 1}], 3)
    assert membership(fam, {1})
    assert not membership(fam, {1, 2})
    assert membership(fam, set())
    assert membership(hereditary_closure([], 5), set())


def test_membership_label_out_of_range():
    fam = hereditary_closure([{0, 1}], 3)
    with pytest.raises(ValueError):
        membership(fam, {0, 5})


def test_hereditarity_exhaustive():
    for seed in range(20):
        fam = random_family(seed, n=random.Random(seed).randint(2, 8), max_sets=12)
        masks = brute_member_masks(fam)
        member_set = set(masks)
        for a in masks:
            b = a
            while b:  # all strict submasks via standard descent
                b = (b - 1) & a
                assert b in member_set


# --- realize ------------------------------------------------------------------

def test_realize_cardinality_bound():
    fam = realize(FamilySpec(kind="cardinality_bound", n=3, k=2))
    assert fam.maximal == ((0, 1), (0, 2), (1, 2))


def test_realize_cycle_cliques_matches_bruteforce():
    edges = cycle_edges(5)
    fam = realize(FamilySpec(kind="graph_cliques", n=5, edges=tuple(edges)))
    assert list(fam.maximal) == brute_maximal_cliques(5, edges)
    assert len(fam.maximal) == 5


def test_realize_complete_graph_independent_sets():
    edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    fam = realize(FamilySpec(kind="graph_independent", n=4, edges=edges))
    assert fam.maximal == ((0,), (1,), (2,), (3,))


def test_realize_random_graphs_match_bruteforce():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 7)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        fam = maximal_cliques(n, edges)
        assert list(fam.maximal) == brute_maximal_cliques(n, edges)
        comp = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
        ind = maximal_independent_sets(n, edges)
        assert list(ind.maximal) == brute_maximal_cliques(n, comp)


def all_cliques(n, edges):
    """Every non-empty clique, found by testing each vertex subset."""
    joined = {frozenset(e) for e in edges}
    return [c for r in range(1, n + 1) for c in combinations(range(n), r)
            if all(frozenset(p) in joined for p in combinations(c, 2))]


def test_generators_equal_closure_of_their_sets():
    """The graph and cardinality generators build their families directly;
    hereditary_closure of the same sets, and of every clique or every set of
    at most k labels, must give the same family."""
    complete = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    graphs = [(1, []), (2, []), (6, []), (2, [(0, 1)]), (5, complete)]
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 9)
        p = rng.choice((0.2, 0.5, 0.8))
        graphs.append((n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p]))
    for n, edges in graphs:
        complement = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if (i, j) not in edges]
        for fam, joined in ((maximal_cliques(n, edges), edges),
                            (maximal_independent_sets(n, edges), complement)):
            assert fam == hereditary_closure(fam.maximal, n)
            assert fam == hereditary_closure(all_cliques(n, joined), n)
    for n in range(1, 9):
        for k in range(n + 1):
            fam = cardinality_bound_family(n, k)
            assert fam == hereditary_closure(combinations(range(n), k), n)
            assert fam == hereditary_closure(
                (c for r in range(k + 1) for c in combinations(range(n), r)), n)


def test_maximal_cliques_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    graphs = [(n, cycle_edges(n)) for n in range(3, 21)]
    for _ in range(40):
        n = rng.randint(1, 18)
        p = rng.choice((0.2, 0.5, 0.8))
        graphs.append((n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p]))
    for n, edges in graphs:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        expected = sorted(tuple(sorted(c)) for c in nx.find_cliques(g))
        assert list(maximal_cliques(n, edges).maximal) == expected, (n, edges)


def test_enumerators_refuse_oversized_inputs():
    with pytest.raises(ValueError, match="118264581564861424"):
        cardinality_bound_family(60, 30)  # C(60, 30) maximal sets
    big = HereditaryFamily(n=24, maximal=(tuple(range(24)),))
    with pytest.raises(ValueError, match=str(1 << 24)):
        all_members(big)
    with pytest.raises(ValueError, match=str(1 << 23)):
        maximal_up_set(big, {0})
    assert len(cardinality_bound_family(15, 7).maximal) == 6435


def test_bron_kerbosch_refuses_more_than_limit(monkeypatch):
    monkeypatch.setattr(ptakkit.families, "ENUMERATION_LIMIT", 100)
    with pytest.raises(ValueError, match="ENUMERATION_LIMIT = 100"):
        maximal_independent_sets(30, cycle_edges(30))  # 4,610 maximal sets
    complement = [(i, j) for i in range(30) for j in range(i + 1, 30) if j - i not in (1, 29)]
    with pytest.raises(ValueError, match="ENUMERATION_LIMIT = 100"):
        maximal_cliques(30, complement)
    assert len(maximal_independent_sets(12, cycle_edges(12)).maximal) == 29


def test_realize_errors():
    with pytest.raises(ValueError):
        realize(FamilySpec(kind="cardinality_bound", n=3, k=4))
    with pytest.raises(ValueError):
        realize(FamilySpec(kind="graph_cliques", n=3, edges=((0, 3),)))
    with pytest.raises(ValueError):
        realize(FamilySpec(kind="explicit", n=3))
    with pytest.raises(ValueError):
        FamilySpec.from_json_dict({"kind": "nope", "n": 3})


# --- trace ---------------------------------------------------------------------

def test_trace_subset_of_member_gives_full_powerset():
    fam = hereditary_closure([{0, 1, 2}], 3)
    tr = trace(fam, {0, 2})
    assert tr.family.maximal == ((0, 1),)
    assert tr.labels == (0, 2)
    assert is_full_powerset(tr.family)


def test_trace_singleton():
    fam = hereditary_closure([{0}, {1}], 2)
    tr = trace(fam, {0})
    assert tr.family.maximal == ((0,),)


def test_trace_intersections_bruteforce():
    fam = hereditary_closure([{0, 1}, {1, 2}], 3)
    tr = trace(fam, {0, 2})
    # brute force: intersections of every member with H
    members = [frozenset(s for s in range(3) if (a >> s) & 1)
               for a in brute_member_masks(fam)]
    inter = {m & {0, 2} for m in members}
    maximal = sorted(tuple(sorted(x)) for x in inter
                     if not any(x < y for y in inter))
    assert [tuple(tr.labels[i] for i in s) for s in tr.family.maximal] == maximal
    assert maximal == [(0,), (2,)]


def test_trace_membership_identity_exhaustive():
    for seed in range(20):
        fam = random_family(seed, n=random.Random(seed).randint(2, 7), max_sets=10)
        n = fam.n
        for hmask in range(1, 1 << n):
            h = [s for s in range(n) if (hmask >> s) & 1]
            tr = trace(fam, h)
            pos = {orig: new for new, orig in enumerate(tr.labels)}
            for amask in range(1 << len(h)):
                a = [h[t] for t in range(len(h)) if (amask >> t) & 1]
                assert membership(fam, a) == membership(tr.family, [pos[s] for s in a])


def test_trace_errors():
    fam = hereditary_closure([{0, 1}], 3)
    with pytest.raises(ValueError):
        trace(fam, {0, 7})
    with pytest.raises(ValueError):
        trace(fam, set())


# --- maximal_up_set --------------------------------------------------------------

def test_up_set_of_maximal_is_singleton():
    fam = hereditary_closure([{0, 1}], 2)
    assert maximal_up_set(fam, {0, 1}) == [(0, 1)]


def test_up_set_enumeration():
    fam = hereditary_closure([{0, 1}], 2)
    assert maximal_up_set(fam, {0}) == [(0,), (0, 1)]


def test_up_set_bruteforce():
    fam = hereditary_closure([{0, 1}, {0, 2}], 3)
    got = maximal_up_set(fam, {0})
    members = brute_member_masks(fam)
    expected = sorted(
        tuple(s for s in range(3) if (a >> s) & 1)
        for a in members if a & 1  # contains label 0
    )
    assert got == expected == [(0,), (0, 1), (0, 2)]


def test_up_set_singleton_property_for_every_maximal():
    for seed in range(25):
        fam = random_family(seed, n=None, max_sets=15)
        for mset in fam.maximal:
            assert maximal_up_set(fam, mset) == [mset]


def test_up_set_requires_member():
    fam = hereditary_closure([{0, 1}], 3)
    with pytest.raises(ValueError):
        maximal_up_set(fam, {2})


# --- is_full_powerset -------------------------------------------------------------

def test_full_powerset_examples():
    assert is_full_powerset(hereditary_closure([{0, 1, 2}], 3))
    assert not is_full_powerset(cardinality_bound_family(3, 2))
    assert not is_full_powerset(maximal_cliques(5, cycle_edges(5)))  # no 3-clique


def test_independence_criterion_bruteforce():
    for seed in range(20):
        fam = random_family(seed, n=random.Random(seed ^ 1).randint(2, 8), max_sets=10)
        covered_all = all(
            any(a & ~m == 0 for m in fam.masks)
            for a in range(1, 1 << fam.n)
        )
        assert is_full_powerset(fam) == covered_all


# --- chain length -----------------------------------------------------------------

def test_longest_chain_equals_max_member_size():
    for seed in range(15):
        fam = random_family(seed, n=random.Random(seed ^ 2).randint(2, 8), max_sets=8)
        members = sorted(brute_member_masks(fam), key=lambda a: bin(a).count("1"))
        longest = {}
        for a in members:
            best = 0
            for s in range(fam.n):
                if (a >> s) & 1 and (a & ~(1 << s)) in longest:
                    best = max(best, longest[a & ~(1 << s)])
            longest[a] = best + 1
        assert max(longest.values()) == fam.max_size + 1  # counts the empty set


# --- all_members / serialization ---------------------------------------------------

def test_all_members_matches_bruteforce():
    fam = hereditary_closure([{0, 1}, {2}], 3)
    expected = sorted(
        tuple(s for s in range(3) if (a >> s) & 1)
        for a in brute_member_masks(fam)
    )
    assert all_members(fam) == expected


def test_json_round_trip():
    fam = hereditary_closure([{2, 0}, {1}], 3)
    data = json.loads(json.dumps(fam.to_json_dict()))
    assert family_from_json_dict(data) == fam
    spec_data = {"spec": {"kind": "cardinality_bound", "n": 4, "k": 2}}
    assert family_from_json_dict(spec_data) == cardinality_bound_family(4, 2)
    with pytest.raises(ValueError):
        family_from_json_dict({"n": 3})
    with pytest.raises(ValueError):
        family_from_json_dict({"maximal": [[0]]})


def test_random_family_deterministic():
    assert random_family(7) == random_family(7)
    assert random_family(7, n=9, max_sets=10) == random_family(7, n=9, max_sets=10)
