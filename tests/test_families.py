import json
import random
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

import ptakkit.families
from ptakkit.families import (
    FamilySpec,
    HereditaryFamily,
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
from ptakkit.search import max_member


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


def pairwise_closure(sets, n):
    """Reference for construction: the distinct nonempty label sets that lie
    inside no other one, found by comparing every pair, in sorted order."""
    distinct = {frozenset(s) for s in sets} - {frozenset()}
    assert all(0 <= label < n for s in distinct for label in s)
    return tuple(sorted(tuple(sorted(a)) for a in distinct
                        if not any(a < b for b in distinct)))


def messy_inputs(rng, n):
    """Label lists with duplicated, empty and nested sets among them, and
    labels listed twice, in no order."""
    sets = []
    for _ in range(rng.randint(0, 12)):
        base = rng.sample(range(n), rng.randint(0, n))
        sets.append(base)
        for _ in range(rng.randint(0, 2)):
            sets.append(rng.sample(base, rng.randint(0, len(base))))
        if base and rng.random() < 0.3:
            sets.append(base + base[:1])
    rng.shuffle(sets)
    return sets


def test_construction_matches_pairwise_closure():
    rng = random.Random(53)
    kinds = (list, set, frozenset, tuple, lambda s: (x for x in s))
    containers = (list, tuple, set, iter)
    checked = {"nested": 0, "duplicated": 0, "empty": 0, "beyond 256 labels": 0}
    for _ in range(400):
        n = rng.choice((1, 3, 8, 70, 300))
        sets = messy_inputs(rng, n)
        expected = pairwise_closure(sets, n)
        dressed = [rng.choice(kinds)(s) for s in sets]
        if all(isinstance(s, (tuple, frozenset)) for s in dressed):
            dressed = rng.choice(containers)(dressed)
        fam = HereditaryFamily(n=n, maximal=dressed)
        assert fam.maximal == expected
        assert type(fam.maximal) is tuple and all(type(s) is tuple for s in fam.maximal)
        assert fam.masks == tuple(set_mask(s) for s in expected)
        assert hereditary_closure(sets, n) == fam
        distinct = {frozenset(s) for s in sets}
        checked["nested"] += len(expected) < len(distinct - {frozenset()})
        checked["duplicated"] += len(distinct) < len(sets)
        checked["empty"] += frozenset() in distinct
        checked["beyond 256 labels"] += n > 256 and bool(expected)
    assert min(checked.values()) >= 40, checked


def test_permuted_input_gives_equal_family_and_canonical_input_is_kept():
    rng = random.Random(59)
    for seed in range(40):
        fam = random_family(seed, n=None, max_sets=20)
        sets = [list(s) for s in fam.maximal] + [[]] + [list(s[:1]) for s in fam.maximal]
        for _ in range(3):
            rng.shuffle(sets)
            for s in sets:
                rng.shuffle(s)
            again = HereditaryFamily(n=fam.n, maximal=sets)
            assert again == fam and hash(again) == hash(fam)
            assert again.masks == fam.masks
        given = fam.maximal
        assert HereditaryFamily(n=fam.n, maximal=given).maximal is given


@pytest.mark.parametrize("n, maximal, expected", [
    (0, ((1, 0),), "ground set must have at least one element"),
    (3, ((),), ()),
    (3, ((0,), ()), ((0,),)),
    (3, ((1, 0),), ((0, 1),)),
    (3, ((0, 0),), ((0,),)),
    (3, ((2, 1, 5),), "label out of range: (1, 2, 5)"),
    (3, ((0, 3),), "label out of range: (0, 3)"),
    (3, ((-1, 0),), "label out of range: (-1, 0)"),
    (3, ((5,), (1, 0)), "label out of range: (5,)"),
    (3, ((1, 0), (5,)), "label out of range: (5,)"),
    (3, ((1, 2), (0, 5)), "label out of range: (0, 5)"),
    (3, ((1, 2), (0, 2)), ((0, 2), (1, 2))),
    (3, ((0, 1, 2), (0, 1)), ((0, 1, 2),)),
    (3, ((0, 1), (0, 1, 2)), ((0, 1, 2),)),
    (3, ((0, 1), (0, 1, 2), (1,)), ((0, 1, 2),)),
])
def test_direct_construction_messages_and_their_order(n, maximal, expected):
    """Inputs out of order, unsorted, nested or listing the empty set are
    canonicalized.  ``n < 1`` is refused first; then the first set in input
    order holding a label outside 0..n-1 is named, sorted."""
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            HereditaryFamily(n=n, maximal=maximal)
        assert str(exc.value) == expected
    else:
        assert HereditaryFamily(n=n, maximal=maximal).maximal == expected


@pytest.mark.parametrize("n", [3, 300])
@pytest.mark.parametrize("label", [1.0, Fraction(1), "a"])
def test_non_int_label_is_refused_like_list_input(n, label):
    """A label that is not an int is refused with normalize_set's message,
    also in input that otherwise looks canonical."""
    name = type(label).__name__
    for maximal in (((label, 2),), [[label, 2]]):
        with pytest.raises(TypeError) as exc:
            HereditaryFamily(n=n, maximal=maximal)
        assert str(exc.value) == f"'{name}' object cannot be interpreted as an integer"


def test_direct_construction_masks():
    fam = HereditaryFamily(n=80, maximal=((0, 5, 79), (1, 64), (2,)))
    assert fam.masks == tuple(set_mask(s) for s in fam.maximal)
    fam = HereditaryFamily(n=1000, maximal=((0, 255, 256, 999), (1, 64), (300,)))
    assert fam.masks == tuple(set_mask(s) for s in fam.maximal)


def test_construction_memory_does_not_grow_with_the_square_of_n():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = HereditaryFamily(n=50_000, maximal=((0,),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.masks == (1,)
    assert peak - before < 5 * 2**20


def pairwise_containers(masks):
    """Reference for ``_containers``: the indices of the masks lying inside
    another."""
    return {i for i, a in enumerate(masks)
            if any(j != i and a & b == a for j, b in enumerate(masks))}


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
        assert ptakkit.families._containers(list(map(mask_to_tuple, masks)), masks) == expected
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
        assert ptakkit.families._containers(list(map(mask_to_tuple, masks)), masks) == expected
        smallest = min(m.bit_count() for m in masks)  # never indexed
        undominated_larger = sum(1 for i, m in enumerate(masks)
                                 if i not in expected and m.bit_count() > smallest)
        checked["kept beyond 64"] += undominated_larger > 64
        checked["sizes >= 5"] += len({m.bit_count() for m in masks}) >= 5
        checked["dominated"] += bool(expected)
    assert min(checked.values()) >= 10, checked

def test_containers_match_pairwise_scan_on_a_size_class_of_thousands():
    """A size class of over 1,000 sets on more than 64 labels is added to the
    index in one packing, and over 30 sets lying inside several others are
    found."""
    rng = random.Random(61)
    n = 90
    big = {frozenset(rng.sample(range(n), 12)) for _ in range(6)}
    middle = {frozenset(rng.sample(sorted(b), 7)) for b in big for _ in range(30)}
    middle |= {frozenset(rng.sample(range(n), 7)) for _ in range(1100)}
    small = {frozenset(rng.sample(sorted(b), 4)) for b in sorted(map(sorted, middle))[:300]}
    small |= {frozenset(rng.sample(range(n), 4)) for _ in range(100)}
    masks = [set_mask(x) for x in big | middle | small]
    rng.shuffle(masks)
    kept_middle = {m for m in masks if m.bit_count() == 7
                   and not any(m & b == m for b in map(set_mask, big))}
    assert len(kept_middle) > 1000
    expected = pairwise_containers(masks)
    got = ptakkit.families._containers(list(map(mask_to_tuple, masks)), masks)
    assert got == expected
    several = [i for i in got if sum(masks[i] & b == masks[i] for b in masks) > 2]
    assert len(several) > 30


def test_containers_match_pairwise_scan_on_packed_size_classes():
    """Size classes of over 64 kept sets, indexed from one packing: on labels
    below 64 and below 128 (packed as they are), on few, high labels
    (renumbered onto one word) and on over 64 labels spread up to 600
    (renumbered onto two words)."""
    rng = random.Random(73)
    checked = {"one word": 0, "two words": 0, "few high labels": 0,
               "over 64 labels, above 128": 0}
    for pool in [range(40), range(120), range(300, 320), range(0, 600, 6)] * 4:
        pool = list(pool)
        big = [rng.sample(pool, 7) for _ in range(20)]
        sets = {frozenset(rng.sample(pool, size)) for size, count in ((5, 120), (3, 60))
                for _ in range(count)}
        sets |= {frozenset(b) for b in big} | {frozenset(rng.sample(b, 5)) for b in big}
        masks = [set_mask(x) for x in sets]
        rng.shuffle(masks)
        expected = pairwise_containers(masks)
        assert ptakkit.families._containers(list(map(mask_to_tuple, masks)), masks) == expected
        smallest = min(m.bit_count() for m in masks)
        for size in {m.bit_count() for m in masks} - {smallest}:
            added = [m for i, m in enumerate(masks) if m.bit_count() == size and i not in expected]
            if len(added) > 64:
                union = reduce(or_, added)
                few = union.bit_count() <= 64
                checked["one word"] += few and union < 1 << 64
                checked["two words"] += not few and union < 1 << 128
                checked["few high labels"] += few and union >= 1 << 64
                checked["over 64 labels, above 128"] += not few and union >= 1 << 128
    assert min(checked.values()) >= 4, checked


def test_mask_to_tuple_matches_the_bit_walk():
    def bit_walk(mask):
        return tuple(label for label in range(mask.bit_length()) if mask >> label & 1)

    rng = random.Random(67)
    masks = [0, 1, 255, 256, (1 << 256) - 1, 1 << 256, (1 << 300) - 1]
    masks += [rng.getrandbits(rng.randint(1, 300)) for _ in range(3000)]
    masks += [rng.getrandbits(300) & rng.getrandbits(300) & rng.getrandbits(300) for _ in range(300)]
    for mask in masks:
        assert mask_to_tuple(mask) == bit_walk(mask)
    assert mask_to_tuple(0) == ()
    assert mask_to_tuple((1 << 100_000) - 1) == tuple(range(100_000))
    dense = rng.getrandbits(100_000)
    assert mask_to_tuple(dense) == tuple(i for i, c in enumerate(reversed(bin(dense))) if c == "1")
    tables = len(ptakkit.families._BYTE_LABELS)
    assert mask_to_tuple(1 << 999_999) == (999_999,)
    assert mask_to_tuple(1 << 999_999 | 1 << 300 | 6) == (1, 2, 300, 999_999)
    assert len(ptakkit.families._BYTE_LABELS) == tables == len(ptakkit.families._BIT) // 8


def test_a_family_on_a_million_labels_builds_in_under_a_second():
    start = time.perf_counter()
    fam = family_from_json_dict({"n": 1_000_000, "maximal": [[0, 999_999], [5]]})
    assert time.perf_counter() - start < 1
    assert fam.maximal == ((0, 999_999), (5,))
    assert fam.masks == (1 | 1 << 999_999, 1 << 5)


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
    """Also the cliques and independent sets of dense and complete graphs,
    where the pivot scan stops at a vertex adjacent to every other candidate."""
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
    for _ in range(30):
        n = rng.randint(10, 32)
        p = rng.choice((0.85, 0.95, 1.0))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        for fam, graph in ((maximal_cliques(n, edges), g),
                           (maximal_independent_sets(n, edges), nx.complement(g))):
            expected = sorted(tuple(sorted(c)) for c in nx.find_cliques(graph))
            assert list(fam.maximal) == expected, (n, edges)


def test_enumerators_refuse_oversized_inputs():
    with pytest.raises(ValueError, match="118264581564861424"):
        cardinality_bound_family(60, 30)  # C(60, 30) maximal sets
    big = HereditaryFamily(n=24, maximal=(tuple(range(24)),))
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


def test_independent_sets_of_an_edgeless_graph_in_under_a_second():
    # one maximal set, found down a path of 5,000 nodes: unless each pivot
    # scan stops at its first vertex, the search is cubic in n
    start = time.perf_counter()
    fam = maximal_independent_sets(5000, [])
    assert time.perf_counter() - start < 1
    assert fam.maximal == (tuple(range(5000)),)


def test_realize_errors():
    with pytest.raises(ValueError):
        realize(FamilySpec(kind="cardinality_bound", n=3, k=4))
    with pytest.raises(ValueError):
        realize(FamilySpec(kind="graph_cliques", n=3, edges=((0, 3),)))
    with pytest.raises(ValueError):
        FamilySpec.from_json_dict({"kind": "nope", "n": 3})


@pytest.mark.parametrize("build", [maximal_cliques, maximal_independent_sets])
def test_graph_builders_read_edge_ends_as_integers(build):
    """Edge ends are read as integers, never truncated, and an edge has
    exactly two of them; the error names the edge."""
    for edges, error, message in [
        ([(0.9, 1.7)], TypeError, "edge (0.9, 1.7) has an end that is not an integer"),
        ([(0, 1), ("1", "2")], TypeError, "edge ('1', '2') has an end that is not an integer"),
        ([(0, 1), (2, 3, 1)], ValueError, "edge (2, 3, 1) needs exactly two ends"),
        ([(1,)], ValueError, "edge (1,) needs exactly two ends"),
        ([()], ValueError, "edge () needs exactly two ends"),
    ]:
        with pytest.raises(error) as exc:
            build(4, edges)
        assert str(exc.value) == message
    assert build(4, [[1, 2], (0, 3)]) == build(4, [(1, 2), (3, 0)])


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
    assert maximal_up_set(fam, []) == [(), (0,), (0, 1), (1,)]
    # () is a member of the family of the empty antichain too
    assert maximal_up_set(hereditary_closure([], 3), []) == [()]


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
    with pytest.raises(ValueError, match="not a member"):
        maximal_up_set(hereditary_closure([], 3), {0})


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
        assert max(longest.values()) == max_member(fam).size + 1  # counts the empty set


# --- serialization ---------------------------------------------------------------

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
