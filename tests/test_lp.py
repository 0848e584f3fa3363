import random
from fractions import Fraction

import pytest

import ptakkit.norms
from ptakkit.lp import InfeasibleError, UnboundedError, solve_max_slack, solve_min_general
from ptakkit.norms import min_ratio_nonneg

F = Fraction


# --- reference: the textbook rational tableau, Bland's rule -----------------

def ref_pivot(rows, z, basis, pr, pc):
    prow = [v / rows[pr][pc] for v in rows[pr]]
    rows[pr] = prow
    for i, row in enumerate(rows):
        if i != pr and row[pc] != 0:
            rows[i] = [a - row[pc] * b for a, b in zip(row, prow)]
    z[:] = [a - z[pc] * b for a, b in zip(z, prow)]
    basis[pr] = pc


def ref_bland(rows, z, basis, ncols, entered=None):
    """Bland's rule to optimality; appends each entering column to ``entered``."""
    pivots = 0
    while True:
        pc = next((j for j in range(ncols) if z[j] < 0), None)
        if pc is None:
            return pivots
        if entered is not None:
            entered.append(pc)
        ratios = [(row[-1] / row[pc], basis[i], i) for i, row in enumerate(rows) if row[pc] > 0]
        if not ratios:
            raise UnboundedError
        ref_pivot(rows, z, basis, min(ratios)[2], pc)
        pivots += 1


def ref_max_slack(c, A, b, entered=None):
    m, n = len(A), len(c)
    rows = [[F(v) for v in A[i]] + [F(int(k == i)) for k in range(m)] + [F(b[i])]
            for i in range(m)]
    basis = list(range(n, n + m))
    z = [-F(v) for v in c] + [F(0)] * (m + 1)
    pivots = ref_bland(rows, z, basis, n + m, entered)
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return sum(F(ci) * xi for ci, xi in zip(c, x)), x, z[n:n + m], pivots


def ref_min_general(c, constraints, branches):
    """Two-phase minimization; counts the phase-1 clean-up branches it takes."""
    n = len(c)
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    norm = [([-F(v) for v in a], flip[s], -F(r)) if r < 0 else ([F(v) for v in a], s, F(r))
            for a, s, r in constraints]
    slacks = [i for i, (_, s, _) in enumerate(norm) if s != "=="]
    arts = [i for i, (_, s, _) in enumerate(norm) if s != "<="]
    art_start = n + len(slacks)
    ncols = art_start + len(arts)
    rows, basis = [], []
    for i, (a, s, r) in enumerate(norm):
        row = a + [F(0)] * (ncols - n) + [r]
        if s != "==":
            row[n + slacks.index(i)] = F(1) if s == "<=" else F(-1)
        if s == "<=":
            basis.append(n + slacks.index(i))
        else:
            row[art_start + arts.index(i)] = F(1)
            basis.append(art_start + arts.index(i))
        rows.append(row)
    pivots = 0
    if arts:
        z1 = [F(int(j >= art_start)) for j in range(ncols)] + [F(0)]
        for i in arts:
            z1 = [a - b for a, b in zip(z1, rows[i])]
        pivots += ref_bland(rows, z1, basis, ncols)
        if z1[-1] != 0:
            raise InfeasibleError
        drop = []
        for i in range(len(rows)):
            if basis[i] >= art_start:
                pc = next((j for j in range(art_start) if rows[i][j] != 0), None)
                if pc is None:
                    drop.append(i)
                else:
                    branches["negative" if rows[i][pc] < 0 else "positive"] += 1
                    ref_pivot(rows, z1, basis, i, pc)
                    pivots += 1
        branches["dropped"] += len(drop)
        basis = [bi for i, bi in enumerate(basis) if i not in drop]
        rows = [row[:art_start] + row[-1:] for i, row in enumerate(rows) if i not in drop]
        ncols = art_start
    z = [F(v) for v in c] + [F(0)] * (ncols - n + 1)
    for i, bi in enumerate(basis):
        z = [a - z[bi] * b for a, b in zip(z, rows[i])]
    pivots += ref_bland(rows, z, basis, ncols)
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return sum(F(ci) * xi for ci, xi in zip(c, x)), x, pivots


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


# --- random programs ---------------------------------------------------------

def rand_frac(rng, lo, hi):
    return F(rng.randint(lo, hi), rng.randint(1, 6))


def random_general(rng):
    n = rng.randint(1, 6)
    c = [rand_frac(rng, -5, 5) for _ in range(n)]
    cons = []
    for _ in range(rng.randint(1, 6)):
        a = [rand_frac(rng, -4, 4) for _ in range(n)]
        sense = rng.choice(["<=", ">=", "=="])
        rhs = rand_frac(rng, -6, 6)
        cons.append((a, sense, rhs))
        if sense == "==" and rng.random() < 0.3:
            cons.append(([F(3, 2) * v for v in a], "==", F(3, 2) * rhs))  # redundant
    if rng.random() < 0.3:
        # rows that leave artificials basic at zero level after phase 1
        j = rng.randrange(n)
        a = [F(0)] * n
        a[j] = -rand_frac(rng, 1, 4)
        a[(j + 1) % n] += rand_frac(rng, 1, 4)
        cons += [(a, "==", F(0)), ([-v for v in a], "==", F(0))]
    if rng.random() < 0.8:
        cons.append(([F(1)] * n, "<=", rand_frac(rng, 1, 9)))
    return c, cons


def test_min_general_matches_rational_reference():
    rng = random.Random(20240518)
    branches = {"dropped": 0, "negative": 0, "positive": 0}
    kinds = set()
    for _ in range(400):
        c, cons = random_general(rng)
        want = outcome(ref_min_general, c, cons, branches)
        got = outcome(solve_min_general, c, cons)
        if isinstance(want, type):
            assert got is want
            kinds.add(want)
        else:
            assert (got.objective, got.x, got.pivots) == want
            kinds.add("optimal")
    # every phase-1 clean-up branch and every outcome was exercised
    assert min(branches.values()) > 0, branches
    assert kinds == {"optimal", InfeasibleError, UnboundedError}


def test_artificial_pivoted_out_on_negative_entry():
    # both artificials stay basic at zero; clearing the first pivots on -2
    c = [F(-1), F(0)]
    cons = [([F(-2), F(1)], "==", F(0)), ([F(2), F(-1)], "==", F(0)),
            ([F(1), F(1)], "<=", F(3))]
    branches = {"dropped": 0, "negative": 0, "positive": 0}
    want = ref_min_general(c, cons, branches)
    assert branches == {"dropped": 1, "negative": 1, "positive": 0}
    got = solve_min_general(c, cons)
    assert (got.objective, got.x, got.pivots) == want
    assert got.x == [F(1), F(2)]


def random_slack_lps(seed, count):
    """``count`` seeded programs ``(c, A, b)`` for ``solve_max_slack``."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        c = [rand_frac(rng, -3, 5) for _ in range(n)]
        A = [[rand_frac(rng, -4, 4) for _ in range(n)] for _ in range(m)]
        b = [rand_frac(rng, 0, 6) for _ in range(m)]
        yield c, A, b


def test_max_slack_matches_rational_reference_and_duality():
    optimal = 0
    for c, A, b in random_slack_lps(7, 400):
        want = outcome(ref_max_slack, c, A, b)
        got = outcome(solve_max_slack, c, A, b)
        if isinstance(want, type):
            assert got is want
            continue
        optimal += 1
        assert (got.objective, got.x, got.duals, got.pivots) == want
        assert all(y >= 0 for y in got.duals)
        assert sum(y * bi for y, bi in zip(got.duals, b)) == got.objective
    assert optimal > 100


def test_max_slack_is_min_general_on_negated_costs():
    # both entry points share one tableau: same pivots, same x, negated value
    optimal = 0
    for c, A, b in random_slack_lps(7, 400):
        want = outcome(solve_min_general, [-v for v in c], [(a, "<=", bi) for a, bi in zip(A, b)])
        got = outcome(solve_max_slack, c, A, b)
        if isinstance(want, type):
            assert got is want
            continue
        optimal += 1
        assert (got.objective, got.x, got.pivots) == (-want.objective, want.x, want.pivots)
    assert optimal > 100


def test_max_slack_duals_after_a_slack_reenters():
    """A slack that leaves the basis takes over a column of the condensed
    tableau; when it later re-enters, its row's dual must again read 0 and
    every other dual must still be its slack's reduced cost."""
    reentered = 0
    for seed in (7, 8):
        for c, A, b in random_slack_lps(seed, 400):
            entered = []
            want = outcome(ref_max_slack, c, A, b, entered)
            # every slack starts basic, so an entering slack had left before
            if isinstance(want, type) or all(j < len(c) for j in entered):
                continue
            reentered += 1
            got = solve_max_slack(c, A, b)
            assert (got.objective, got.x, got.duals, got.pivots) == want
            assert sum(y * bi for y, bi in zip(got.duals, b)) == got.objective
    assert reentered > 0


def test_unbounded_and_infeasible():
    with pytest.raises(UnboundedError):
        solve_max_slack([F(1)], [[F(-1)]], [F(1)])
    with pytest.raises(UnboundedError):
        solve_min_general([F(-1)], [([F(1)], ">=", F(1))])
    with pytest.raises(InfeasibleError):
        solve_min_general([F(1)], [([F(1)], ">=", F(2)), ([F(1)], "<=", F(1))])
    with pytest.raises(InfeasibleError):
        solve_min_general([F(0), F(0)], [([F(1), F(1)], "==", F(-1, 2))])
    with pytest.raises(ValueError):
        solve_max_slack([F(1)], [[F(1)]], [F(-1)])
    with pytest.raises(ValueError):
        solve_min_general([F(1)], [([F(1)], "<", F(1))])


# --- corpus pivot totals -----------------------------------------------------

def test_corpus_pivot_totals(corpus, corpus_values, monkeypatch):
    assert sum(r.pivots for r in corpus_values) == 8743
    pivots = []

    def counted(c, constraints):
        res = solve_min_general(c, constraints)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(ptakkit.norms, "solve_min_general", counted)
    for fam in corpus:
        min_ratio_nonneg(fam)
    assert len(pivots) == len(corpus) and sum(pivots) == 2975
