import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import ptakkit.norms
from ptakkit.families import (
    cardinality_bound_family,
    cycle_edges,
    hereditary_closure,
    maximal_cliques,
    random_family,
)
from ptakkit.game import delta_exact
from ptakkit.norms import (
    FamilyVector,
    check_equivalence,
    f_norm,
    l1_norm,
    min_ratio_nonneg,
)

F = Fraction


def brute_fnorm(fam, coords):
    """Independent oracle: max |sum over F| over every member, by walking all
    subsets of every maximal set."""
    best = F(0)
    seen = set()
    for fset in fam.maximal:
        for r in range(len(fset) + 1):
            from itertools import combinations
            for sub in combinations(fset, r):
                if sub in seen:
                    continue
                seen.add(sub)
                total = sum((coords[s] for s in sub), F(0))
                best = max(best, abs(total))
    return best


rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)


# --- f_norm --------------------------------------------------------------------

def test_fnorm_unit_vector_on_singleton_member():
    fam = hereditary_closure([{0}], 2)
    assert f_norm(fam, [1, 0]) == 1


def test_fnorm_pairs_all_ones():
    assert f_norm(cardinality_bound_family(3, 2), [1, 1, 1]) == 2


def test_fnorm_sign_split_matches_bruteforce_example():
    fam = hereditary_closure([{0, 1}], 2)
    coords = (F(1), F(-1))
    assert brute_fnorm(fam, coords) == 1  # members: {}, {0}, {1}, {0,1}
    assert f_norm(fam, coords) == 1


def test_fnorm_empty_family_is_zero():
    assert f_norm(hereditary_closure([], 3), [1, -2, 3]) == 0


def test_fnorm_length_mismatch():
    with pytest.raises(ValueError):
        f_norm(cardinality_bound_family(3, 2), [1, 2])


def test_fnorm_restriction_to_maximal_sets_is_lossless():
    rng = random.Random(9)
    for seed in range(40):
        fam = random_family(seed, n=rng.randint(2, 10), max_sets=12)
        coords = tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(fam.n))
        assert f_norm(fam, coords) == brute_fnorm(fam, coords)


@settings(max_examples=60, deadline=None)
@given(st.lists(rational, min_size=4, max_size=4), st.integers(0, 2**20))
def test_fnorm_axioms(coords, fam_seed):
    fam = random_family(fam_seed, n=4, max_sets=8)
    x = tuple(coords)
    # absolute homogeneity
    for c in (F(2), F(-3, 2), F(0)):
        assert f_norm(fam, [c * v for v in x]) == abs(c) * f_norm(fam, x)
    # triangle inequality against a shifted copy
    y = tuple(reversed(x))
    assert f_norm(fam, [a + b for a, b in zip(x, y)]) <= f_norm(fam, x) + f_norm(fam, y)


def test_fnorm_vanishes_exactly_on_uncovered_support():
    fam = hereditary_closure([{0, 1}], 3)  # label 2 uncovered
    assert f_norm(fam, [0, 0, 5]) == 0
    assert f_norm(fam, [1, 0, 5]) == 1


def test_fnorm_positive_definite_when_every_label_covered():
    rng = random.Random(31)
    for seed in range(20):
        fam = random_family(seed, n=5, max_sets=8)
        covered = 0
        for m in fam.masks:
            covered |= m
        if covered != (1 << fam.n) - 1:
            continue
        coords = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(fam.n)]
        if all(c == 0 for c in coords):
            coords[0] = F(1)
        assert f_norm(fam, coords) > 0


# --- check_equivalence ------------------------------------------------------------

def test_equivalence_full_powerset_nonneg():
    fam = cardinality_bound_family(3, 3)
    rep = check_equivalence(fam, [F(1, 2), F(2), F(1, 3)])
    assert rep.delta == 1
    assert rep.fnorm == rep.l1
    assert rep.lower_ok and rep.upper_ok and rep.nonneg_ok


def test_equivalence_c5_ones():
    fam = maximal_cliques(5, cycle_edges(5))
    rep = check_equivalence(fam, [1, 1, 1, 1, 1])
    assert rep.fnorm == 2 and rep.l1 == 5 and rep.delta == F(2, 5)
    # lower bound (2/5) * 5 / 2 = 1 <= 2
    assert rep.lower_ok and rep.upper_ok and rep.nonneg_ok


def test_equivalence_signed_disjoint_singletons():
    fam = hereditary_closure([{0}, {1}], 2)
    rep = check_equivalence(fam, [1, -1])
    assert rep.fnorm == 1 and rep.l1 == 2 and rep.delta == F(1, 2)
    assert rep.lower_ok  # 1 >= (1/2)(1/2)(2) = 1/2
    assert rep.nonneg_ok is None


def test_equivalence_zero_vector_rejected():
    with pytest.raises(ValueError):
        check_equivalence(cardinality_bound_family(2, 1), [0, 0])


def test_equivalence_coerces_and_scales_its_vector_once(count_calls):
    fam = maximal_cliques(5, cycle_edges(5))
    coerced = count_calls("as_fraction", [ptakkit.norms])
    scaled = count_calls("scaled_ints", [ptakkit.norms])
    rep = check_equivalence(fam, [F(1, 2), -1, "2/3", 0, F(-3, 4)])
    assert len(coerced) == 5 and len(scaled) == 1
    coords = [F(1, 2), F(-1), F(2, 3), F(0), F(-3, 4)]
    assert (rep.l1, rep.fnorm) == (l1_norm(coords), f_norm(fam, coords))
    assert rep.nonneg_ok is None


def test_equivalence_sandwich_on_seeded_vectors(corpus, corpus_values):
    rng = random.Random(4)
    for fam, res in list(zip(corpus, corpus_values))[:40]:
        for _ in range(10):
            coords = tuple(F(rng.randint(-9, 9), rng.randint(1, 7))
                           for _ in range(fam.n))
            fn = f_norm(fam, coords)
            l1 = l1_norm(coords)
            assert fn <= l1
            assert 2 * fn >= res.delta * l1
            nn = tuple(abs(c) for c in coords)
            assert f_norm(fam, nn) >= res.delta * l1


# --- min_ratio_nonneg ----------------------------------------------------------------

def test_min_ratio_examples():
    assert min_ratio_nonneg(cardinality_bound_family(3, 3)) == 1
    assert min_ratio_nonneg(cardinality_bound_family(5, 2)) == F(2, 5)
    assert min_ratio_nonneg(hereditary_closure([{0}, {1}, {2}], 3)) == F(1, 3)
    assert min_ratio_nonneg(hereditary_closure([], 2)) == 0


def test_min_ratio_does_not_call_the_game_solver(monkeypatch):
    def refuse(fam):
        raise AssertionError("min_ratio_nonneg must not solve the game")

    monkeypatch.setattr("ptakkit.norms.delta_exact", refuse)
    assert min_ratio_nonneg(cardinality_bound_family(5, 2)) == F(2, 5)
    assert min_ratio_nonneg(maximal_cliques(5, cycle_edges(5))) == F(2, 5)


def test_min_ratio_of_an_uncovered_label_is_zero_without_an_lp(monkeypatch):
    def refuse(*args):
        raise AssertionError("an uncovered label needs no LP")

    monkeypatch.setattr("ptakkit.norms.solve_min_general", refuse)
    # no maximal set at all, and label 2 in none of the maximal sets
    for fam in (hereditary_closure([], 2), hereditary_closure([{0, 1}, {1, 3}], 4)):
        assert min_ratio_nonneg(fam) == 0 == delta_exact(fam).delta


def test_min_ratio_equals_game_value_on_sample(corpus, corpus_values):
    for fam, res in list(zip(corpus, corpus_values))[:30]:
        assert min_ratio_nonneg(fam) == res.delta


# --- the signed ratio on a grid -----------------------------------------------------

def signed_probe(fam, grid):
    """Min fnorm(x)/l1(x) over every nonzero x with coordinates in
    {-1, ..., -1/grid, 0, 1/grid, ..., 1}, and the first x in product order
    that attains it: a probe of the sharp signed constant, not its value.
    The ratio is scale-free, so the grid is walked in integers."""
    best, witness = None, None
    for vec in product(range(-grid, grid + 1), repeat=fam.n):
        l1 = sum(map(abs, vec))
        if l1:
            ratio = f_norm(fam, vec) / l1
            if best is None or ratio < best:
                best, witness = ratio, tuple(F(v, grid) for v in vec)
    return best, witness


def test_signed_probe_full_powerset_two_labels():
    ratio, witness = signed_probe(cardinality_bound_family(2, 2), 4)
    assert ratio == F(1, 2)
    assert tuple(abs(w) for w in witness) == (1, 1)
    assert witness[0] * witness[1] < 0  # opposite signs


def test_signed_probe_singletons_respects_half_delta():
    fam = hereditary_closure([{0}, {1}], 2)
    ratio, _ = signed_probe(fam, 4)
    delta = delta_exact(fam).delta
    assert ratio == F(1, 2)
    assert ratio >= delta / 2  # 1/2 >= 1/4


def test_signed_probe_lies_in_the_sandwich_on_small_corpus_families(corpus, corpus_values):
    # (delta/2) l1 <= fnorm <= l1 at every point of the grid
    checked = 0
    for fam, res in zip(corpus, corpus_values):
        if fam.n <= 4:
            ratio, _ = signed_probe(fam, 2)
            assert res.delta / 2 <= ratio <= 1
            checked += 1
    assert checked == 138


# --- FamilyVector files -----------------------------------------------------------------

def test_vector_json_round_trip():
    data = {"coords": ["1/3", "-2/1", "0", 4]}
    assert FamilyVector.from_json_dict(data) == FamilyVector((F(1, 3), F(-2), F(0), F(4)))
    with pytest.raises(ValueError):
        FamilyVector.from_json_dict({})
