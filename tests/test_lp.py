import random
from fractions import Fraction

import pytest

import ptakkit.game
import ptakkit.lp
import ptakkit.norms
from ptakkit.families import random_family
from ptakkit.game import delta_exact, verify_certificate
from ptakkit.lp import UnboundedError, solve_max_slack, solve_min_general
from ptakkit.norms import min_ratio_nonneg
from ptakkit.rationals import scaled_ints

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


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnboundedError as exc:
        return type(exc)


# --- random programs ---------------------------------------------------------

def rand_frac(rng, lo, hi):
    return F(rng.randint(lo, hi), rng.randint(1, 6))


def random_slack_lps(seed, count):
    """``count`` seeded programs ``(c, A, b)`` for ``solve_max_slack``, drawn
    in Fractions and posed in integers: each row, with its entry of ``b``,
    and the costs are scaled by the lcm of their denominators.  A positive
    scale moves no Bland pivot."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        c = [rand_frac(rng, -3, 5) for _ in range(n)]
        A = [[rand_frac(rng, -4, 4) for _ in range(n)] for _ in range(m)]
        b = [rand_frac(rng, 0, 6) for _ in range(m)]
        rows = [scaled_ints([*row, bi])[0] for row, bi in zip(A, b)]
        yield scaled_ints(c)[0], [row[:-1] for row in rows], [row[-1] for row in rows]


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
        want = outcome(solve_min_general, [-v for v in c], A, b)
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


def test_integers_agree_with_the_fractions():
    """The result holds the tableau's integers: x, the objective and the
    duals over the one basis determinant.  Over the random programs, slack
    re-entries included, they give the reference's values, and the
    properties give them as Fractions."""
    reentered = 0
    for seed in (7, 8):
        for c, A, b in random_slack_lps(seed, 400):
            entered = []
            want = outcome(ref_max_slack, c, A, b, entered)
            if isinstance(want, type):
                continue
            reentered += any(j >= len(c) for j in entered)
            objective, x, duals, _ = want
            got = solve_max_slack(c, A, b)
            low = solve_min_general([-v for v in c], A, b)
            for res, sign in ((got, 1), (low, -1)):
                assert res.den > 0
                assert [F(v, res.den) for v in res.x_num] == res.x == x
                assert F(res.obj_num, res.den) == res.objective == sign * objective
                assert all(type(v) is int for v in [res.obj_num, *res.x_num, *res.dual_num])
                assert all(type(v) is F for v in [res.objective, *res.x, *res.duals])
            assert [F(v, got.den) for v in got.dual_num] == duals == got.duals
            assert low.dual_num == low.duals == []
    assert reentered > 0


def test_unbounded_and_infeasible():
    with pytest.raises(UnboundedError):
        solve_max_slack([1], [[-1]], [1])
    with pytest.raises(UnboundedError):
        solve_min_general([-1, 0], [[0, 1]], [1])
    # the all-slack start is infeasible for a negative right-hand side
    with pytest.raises(ValueError):
        solve_max_slack([1], [[1]], [-1])
    with pytest.raises(ValueError, match="row 1"):
        solve_min_general([1], [[2], [4]], [2, -1])


@pytest.mark.parametrize("solve", [solve_max_slack, solve_min_general])
def test_entries_must_be_ints(solve):
    """``//`` would floor a Fraction without a word, so a Fraction, float or
    bool entry raises, naming its row, or ``c``, wherever it sits."""
    for bad in (F(1, 2), F(3), 0.5, True):
        with pytest.raises(TypeError, match="row 1"):
            solve([1, 1], [[1, 0], [bad, 1]], [1, 1])
        with pytest.raises(TypeError, match="row 0"):
            solve([1, 1], [[1, 0], [0, 1]], [bad, 1])
        with pytest.raises(TypeError, match="^c: "):
            solve([1, bad], [[1, 0], [0, 1]], [1, 1])


@pytest.mark.parametrize("solve", [solve_max_slack, solve_min_general])
def test_rows_must_match_costs_and_right_hand_side(solve):
    with pytest.raises(ValueError, match="row 0 of A has 1 entries, expected 2"):
        solve([1, 1], [[1]], [1])
    with pytest.raises(ValueError, match="row 0 of A has 2 entries, expected 1"):
        solve([1], [[1, 5]], [1])
    with pytest.raises(ValueError, match="b has 1 entries for 2 rows"):
        solve([1], [[1], [1]], [1])
    with pytest.raises(ValueError, match="b has 2 entries for 1 rows"):
        solve([1], [[1]], [1, 1])


# --- resuming from the program without its last row --------------------------

def grown_programs(seed, count):
    """``count`` seeded integer programs ``(c, A, b)`` with up to 10 rows,
    zeros in ``b`` included, so that ratio ties and degenerate pivots occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(2, 10)
        c = [rng.randint(-2, 5) for _ in range(n)]
        A = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((0, rng.randint(1, 6))) for _ in range(m)]
        yield c, A, b


def fields(res):
    return res.x_num, res.den, res.obj_num, res.dual_num, res.pivots


def shared_steps(res, after):
    """How many pivots, from the slack basis on, the paths of ``res`` and
    ``after`` make at the same places."""
    pairs = zip(res._kept[6], after._kept[6])
    return next((i for i, (a, b) in enumerate(pairs) if a[:2] != b[:2]),
                min(res.pivots, after.pivots))


@pytest.fixture()
def resumes(monkeypatch):
    """``(k, K)`` for each solve resumed by undoing: its path leaves the
    kept path of ``K`` pivots at step ``k``; ``(None, K)`` for each solve
    that fell back to a cold one."""
    seen = []
    resume = ptakkit.lp._resume

    def recording(after, new, n):
        out = resume(after, new, n)
        seen.append((out and len(out[5]), after.pivots))
        return out

    monkeypatch.setattr(ptakkit.lp, "_resume", recording)
    return seen


def test_resumed_solve_is_the_cold_solve(resumes):
    """Programs grown one row at a time, each solve resumed from the last:
    every result is the cold solve's, pivot count included.  The step where
    the new row first wins is reached by undoing pivots when it lies in the
    path's second half, and by a cold solve otherwise."""
    steps = []
    for c, A, b in grown_programs(3, 300):
        res = None
        for j in range(1, len(A) + 1):
            cold = outcome(solve_max_slack, c, A[:j], b[:j])
            if isinstance(cold, type):
                # a row more keeps a bounded program bounded, so the rows
                # before this one left nothing to resume from
                assert res is None
                continue
            warm = solve_max_slack(c, A[:j], b[:j], after=res)
            assert fields(warm) == fields(cold)
            assert cold.pivots_made == cold.pivots
            if res is not None:
                # step k is reached from the nearer end of the kept path
                undone_to, K = resumes[-1]
                k = shared_steps(warm, res)
                assert K == res.pivots and undone_to in (None, k)
                assert (undone_to is None) == (2 * k < K)
                assert warm.pivots_made == min(k, K - k) + warm.pivots - k
                steps.append((k, K))
            res = warm
    assert len(steps) > 500
    # a cold solve that makes pivots of the kept path, pivots undone, and neither
    assert any(0 < 2 * k < K for k, K in steps)
    assert any(K / 2 <= k < K for k, K in steps)
    assert any(k == K for k, K in steps)


def test_pivoting_again_on_the_same_entry_undoes_a_pivot():
    """Bareiss pivots are invertible: pivoting on the entry a pivot left at
    its place, which holds the old determinant, restores every row, the
    cost row, the labels and the determinant exactly."""
    undone = 0
    for c, A, b in grown_programs(4, 100):
        res = outcome(solve_max_slack, c, A, b)
        if isinstance(res, type):
            continue
        _, _, rows, z, basis, nonbasic, _ = res._kept
        before = [row.copy() for row in rows], z.copy(), basis.copy(), nonbasic.copy()
        for pr, row in enumerate(rows):
            for pc, p in enumerate(row[:-1]):
                if p > 0:
                    state = [*rows], [*z], [*basis], [*nonbasic]
                    d = ptakkit.lp._pivot(*state, res.den, pr, pc)[pc]
                    assert d == p and state[0][pr][pc] == res.den
                    d = ptakkit.lp._pivot(*state, d, pr, pc)[pc]
                    assert d == res.den and state == before
                    undone += 1
        # the kept tableau is not changed in place
        assert (rows, z, basis, nonbasic) == before
    assert undone > 100


def test_after_must_be_the_program_without_its_last_row():
    c, A, b = [1, 1], [[1, 2], [2, 1], [1, 1]], [4, 4, 3]
    res = solve_max_slack(c, A[:2], b[:2])
    wrong = [
        ([1, 2], A, b),                        # other costs
        (c, [[1, 3], *A[1:]], b),              # another first row
        (c, A, [5, 4, 3]),                     # another right-hand side
        (c, A[:2], b[:2]),                     # the same program
        (c, [*A, [1, 0]], [*b, 1]),            # two rows more
        (c, A[:1], b[:1]),                     # a row fewer
    ]
    for args in wrong:
        with pytest.raises(ValueError, match="^after: "):
            solve_max_slack(*args, after=res)
    # minimizing c.x is another program; its tableau is no start for this one
    for other in (solve_min_general(c, A[:2], b[:2]), fields(res)):
        with pytest.raises(ValueError, match="^after: "):
            solve_max_slack(c, A, b, after=other)
    assert fields(solve_max_slack(c, A, b, after=res)) == fields(solve_max_slack(c, A, b))
    # a program with no rows has no last row to resume with
    empty = solve_max_slack([-1], [], [])
    with pytest.raises(ValueError, match="^after: "):
        solve_max_slack([-1], [], [], after=empty)


def test_one_after_extended_twice(resumes):
    """A result resumed from is left as it was, so two different extensions
    of one program, resumed from one result, both get the cold result,
    also when each undoes pivots of the kept tableau."""
    both_undone = 0
    for c, A, b in grown_programs(5, 1000):
        base = outcome(solve_max_slack, c, A[:-2], b[:-2])
        if isinstance(base, type) or not A[:-2]:
            continue
        kept = fields(base)
        resumes.clear()
        for j in (-2, -1, -2):
            program = c, [*A[:-2], A[j]], [*b[:-2], b[j]]
            assert fields(solve_max_slack(*program, after=base)) == \
                fields(solve_max_slack(*program))
        assert fields(base) == kept
        both_undone += all(k is not None and K / 2 <= k < K for k, K in resumes)
    assert both_undone > 10


# --- corpus pivot totals -----------------------------------------------------

def test_corpus_pivot_totals(corpus, corpus_values, monkeypatch):
    assert sum(r.pivots for r in corpus_values) == 8743
    pivots = []

    def counted(c, A, b):
        res = solve_min_general(c, A, b)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(ptakkit.norms, "solve_min_general", counted)
    for fam in corpus:
        min_ratio_nonneg(fam)
    # 53 families leave a label uncovered and need no LP
    assert len(pivots) == 447 and sum(pivots) == 2164


def test_corpus_pivots_made(corpus, monkeypatch):
    """Each round of row generation resumes from the last, so of the 8,743
    pivots on the corpus's Bland paths, 6,062 are made, undone ones
    included."""
    made = []
    solve = ptakkit.game.solve_max_slack

    def counted(c, A, b, *, after=None):
        res = solve(c, A, b, after=after)
        made.append(res.pivots_made)
        return res

    monkeypatch.setattr(ptakkit.game, "solve_max_slack", counted)
    assert sum(delta_exact(fam).pivots for fam in corpus) == 8743
    assert len(made) == 1864 and sum(made) == 6062


def test_large_lp_families():
    """The benchmark's large_lp families, the largest LPs of any routine run:
    the first 12 ``random_family(s, n=20, max_sets=200)`` with at least 60
    maximal sets."""
    fams = [fam for fam in (random_family(s, n=20, max_sets=200) for s in range(24))
            if len(fam.maximal) >= 60]
    results = [delta_exact(fam) for fam in fams]
    assert [res.delta for res in results] == [
        F(9, 17), F(328, 565), F(8716, 20709), F(117, 319), F(55, 73), F(773, 2117),
        F(232, 407), F(123, 238), F(901, 1574), F(73, 179), F(10, 13), F(60, 103)]
    assert sum(res.pivots for res in results) == 7663
    assert all(verify_certificate(fam, res) for fam, res in zip(fams, results))


def test_row_generation_takes_the_integers_from_the_simplex(corpus, monkeypatch):
    """delta_exact prices each round on the LP's integers and makes no
    round trip through Fractions with ``scaled_ints``."""
    def refuse(values):
        raise AssertionError("scaled_ints called in delta_exact")

    with monkeypatch.context() as patch:
        patch.setattr(ptakkit.game, "scaled_ints", refuse)
        results = [delta_exact(fam) for fam in corpus]
    # verify_certificate sums weights with scaled_ints, so it runs unpatched
    assert all(verify_certificate(fam, res) for fam, res in zip(corpus, results))
    assert sum(res.pivots for res in results) == 8743
