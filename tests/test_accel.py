import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ptakkit import accel
from ptakkit.families import cardinality_bound_family, random_family
from ptakkit.game import delta_exact, fictitious_play, incidence_matrix

def test_import_does_not_load_numpy():
    # numpy is loaded only when the play oracle first runs
    probe = ("import sys, ptakkit, ptakkit.cli; print('numpy' in sys.modules, "
             "callable(ptakkit.accel.fp_bracket))")
    res = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["False", "True"]


def games(M):
    """The two games a checkpoint raises a lower bound of, each with the
    lower bound it starts from and the opposite bound it always has: the row
    player's on ``M`` and the column player's on ``-M.T``, whose lower bound
    is minus the column player's upper bound on ``M``."""
    return [(M, (0, 1), (1, 1)), (-M.T, (-1, 1), (0, 1))]


def reference_snap(counts, k, q):
    """Largest-remainder rounding of counts/k to denominator q, in Fractions:
    floors, then one more for the largest remainders, ties going to the
    smaller count, then to the lower index."""
    exact = [Fraction(c * q, k) for c in counts]
    snapped = [math.floor(x) for x in exact]
    order = sorted(range(len(counts)), key=lambda i: (snapped[i] - exact[i], counts[i], i))
    for i in order[:q - sum(snapped)]:
        snapped[i] += 1
    return snapped


def snapped_counts(counts, k, qs):
    """The same rounding per strategy in int64, one row per q in ``qs``: the
    reference for the kernel's rounding by count class."""
    snapped, rem = np.divmod(counts[None, :] * qs[:, None], k)
    for row, r, q in zip(snapped, rem, qs.tolist()):
        row[np.lexsort((counts, -r))[:q - row.sum()]] += 1
    return snapped


@pytest.mark.parametrize("counts", [
    [1, 1, 1, 1, 1, 1, 1],             # all remainders tie
    [3, 3, 0, 5, 5, 1, 0, 3, 2],       # repeated counts, zeros
    [997, 1, 1, 2, 2, 2, 4096 - 1005],  # one dominant strategy
    [7] * 13 + [11] * 6,               # two tie classes
])
def test_batched_snaps_match_fraction_reference(counts):
    counts = np.array(counts, dtype=np.int64)
    k = int(counts.sum())
    qs = np.arange(1, accel.SNAP_QMAX + 1, dtype=np.int64)
    snapped = snapped_counts(counts, k, qs)
    deficits = 0
    for q, row in zip(qs.tolist(), snapped.tolist()):
        expected = reference_snap(counts.tolist(), k, q)
        assert row == expected, q
        deficits += sum(expected) != sum(c * q // k for c in counts.tolist())
    assert deficits > 0


def test_checkpoint_folds_the_best_snap():
    rng = np.random.default_rng(5)
    M = (rng.random((9, 6)) < 0.5).astype(np.int64)
    counts = rng.integers(0, 40, size=9).astype(np.int64)
    k = int(counts.sum())
    best = max(Fraction(int((np.array(reference_snap(counts.tolist(), k, q)) @ M).min()), q)
               for q in range(1, accel.SNAP_QMAX + 1))
    num, den = accel._snap_checkpoint(counts, k, M, 0, 1, 1, 1)
    assert Fraction(num, den) == best


@pytest.mark.parametrize("seed", range(4))
def test_column_checkpoint_matches_max_form_reference(seed):
    # the column player's upper bound on M, folded without negating: the
    # least over q of the heaviest set under the snapped weights, over q
    rng = np.random.default_rng(seed)
    M = (rng.random((9, 7)) < 0.5).astype(np.int64)
    counts = rng.integers(0, 40, size=7).astype(np.int64)
    counts[seed % 7] += 1
    k = int(counts.sum())
    upper = min(Fraction(int((M @ np.array(reference_snap(counts.tolist(), k, q))).max()), q)
                for q in range(1, accel.SNAP_QMAX + 1))
    num, den = accel._snap_checkpoint(counts, k, -M.T, -1, 1, 0, 1)
    assert Fraction(-num, den) == upper < 1


def test_snaps_match_fraction_reference_on_seeded_counts():
    rng = np.random.default_rng(11)
    seen = {"zero count": 0, "deficit 0": 0, "deficit > 0": 0}
    for t in range(200):
        m = int(rng.integers(1, 1001)) if t % 10 == 0 else int(rng.integers(1, 40))
        counts = rng.integers(0, 1 + int(rng.integers(1, 50)), size=m)
        counts[rng.random(m) < 0.3] = 0
        counts[int(rng.integers(m))] += 1  # k > 0
        k = int(counts.sum())
        qs = sorted({int(q) for q in rng.integers(1, accel.SNAP_QMAX + 1, size=4)}
                    | ({k} if k <= accel.SNAP_QMAX else set()))
        snapped = snapped_counts(counts, k, np.array(qs, dtype=np.int64))
        for q, row in zip(qs, snapped.tolist()):
            assert row == reference_snap(counts.tolist(), k, q), (t, q)
            exact = all(c * q % k == 0 for c in counts.tolist())
            seen["deficit 0" if exact else "deficit > 0"] += 1
        seen["zero count"] += bool((counts == 0).any())
    assert all(seen.values()), seen


def candidate_qs(counts):
    """The q a checkpoint scans: 1..SNAP_QMAX, then the played-support size
    when it is larger."""
    support = int(np.count_nonzero(counts))
    return list(range(1, accel.SNAP_QMAX + 1)) + [support] * (support > accel.SNAP_QMAX)


def full_fold(counts, k, pay, best_n, best_d):
    """The unpruned fold: every candidate q, in increasing order, each snap
    evaluated by an int64 matmul (the reference for the float64 one)."""
    qs = np.array(candidate_qs(counts), dtype=np.int64)
    out = snapped_counts(counts, k, qs) @ pay
    for q, num in zip(qs.tolist(), out.min(axis=1).tolist()):
        if num * best_d > best_n * q:
            best_n, best_d = num, q
    return best_n, best_d


@pytest.mark.parametrize("seed", range(12))
def test_pruned_checkpoint_matches_full_fold(seed, monkeypatch):
    fam = random_family(seed, n=None, max_sets=25)
    M = incidence_matrix(fam)
    delta = delta_exact(fam).delta
    rng = np.random.default_rng(seed)
    for _ in range(4):
        for (pay, start, trivial), value in zip(games(M), (delta, -delta)):
            counts = rng.integers(0, 30, size=pay.shape[0]).astype(np.int64)
            counts[0] += 1
            k = int(counts.sum())
            # opposite bounds: the value itself, and a looser valid one
            for other in (value, (value + Fraction(*trivial)) / 2):
                got = accel._snap_checkpoint(counts, k, pay, *start,
                                             other.numerator, other.denominator)
                assert got == full_fold(counts, k, pay, *start)
            # a closed bracket leaves no q to snap
            bound = value.numerator, value.denominator
            assert accel._snap_checkpoint(counts, k, pay, *bound, *bound) == bound
    # the states fp_bracket checkpoints, whose bounds let the opponent's
    # best reply discard q that the opposite bound keeps
    calls = []
    with monkeypatch.context() as patch:
        real = accel._snap_checkpoint
        patch.setattr(accel, "_snap_checkpoint", lambda *a: calls.append(a) or real(*a))
        accel.fp_bracket(M, 10**4, 1e-6)
    for counts, k, pay, best_n, best_d, other_n, other_d in calls:
        got = accel._snap_checkpoint(counts, k, pay, best_n, best_d, other_n, other_d)
        assert got == full_fold(counts, k, pay, best_n, best_d)
    assert not calls or max(reply_discards(*call) for call in calls) > 0


def reply_discards(counts, k, pay, best_n, best_d, other_n, other_d):
    """How many q the opposite bound keeps but the payoff against the
    opponent's best reply to the unsnapped counts rules out."""
    reply = (counts @ pay).argmin()
    best, other = Fraction(best_n, best_d), Fraction(other_n, other_d)
    discarded = 0
    for q in candidate_qs(counts):
        if Fraction(math.floor(other * q), q) > best:
            snap = snapped_counts(counts, k, np.array([q], dtype=np.int64))[0]
            discarded += Fraction(int(snap @ pay[:, reply]), q) <= best
    return discarded


def classes_tied_at_the_cut(counts, k, q):
    """How many count classes tie at the deficit-th largest remainder while
    +1s are left for them (0 if none are left): the rounding then depends on
    the tie rule across classes."""
    played = counts[counts > 0]
    rem = played * q % k
    deficit = q - int((played * q // k).sum())
    if not deficit:
        return 0
    cut = np.sort(rem)[len(played) - deficit]
    spare = deficit - int((rem > cut).sum())
    return len(np.unique(played[rem == cut])) if spare else 0


@pytest.mark.parametrize("seed", range(4))
def test_classes_tied_at_the_cut_snap_per_strategy(seed):
    # counts of 1 + 8x out of k = 4096 all leave the remainder 512 at q = 512,
    # so every class ties at the cut with a deficit of one per 8 strategies
    rng = np.random.default_rng(seed)
    M = (rng.random((24, 16)) < 0.5).astype(np.int64)
    k = 4096
    for pay, start, trivial in games(M):
        m = pay.shape[0]
        counts = 1 + 8 * rng.multinomial((k - m) // 8, [1 / m] * m)
        assert len(set(counts.tolist())) > 1 and counts.sum() == k
        assert classes_tied_at_the_cut(counts, k, accel.SNAP_QMAX) > 1
        got = accel._snap_checkpoint(counts, k, pay, *start, *trivial)
        assert got == full_fold(counts, k, pay, *start)


def check_support_snap_wins(counts, k, pay, start, trivial, value):
    support = int(np.count_nonzero(counts))
    assert support > accel.SNAP_QMAX
    want = full_fold(counts, k, pay, *start)
    # the support-size q wins with the exact value, and the float64 product,
    # pruned by the opposite bound (the value or a looser one) or not, agrees
    assert want[1] == support and Fraction(*want) == value
    assert accel._snap_checkpoint(counts, k, pay, *start, *trivial) == want
    for other in (value, (value + Fraction(*trivial)) / 2):
        got = accel._snap_checkpoint(counts, k, pay, *start,
                                     other.numerator, other.denominator)
        assert got == want


@pytest.mark.parametrize("n, k, row", [(12, 7, True), (12, 5, False)])
def test_near_uniform_counts_snap_to_their_support_size(n, k, row):
    # C(n,k)'s 792 sets as the row player of M, or as a synthetic column
    # player, of the game -M.T with M.T these sets: their uniform weighting
    # certifies k/n (or -k/n), which no q <= SNAP_QMAX reaches
    sets = incidence_matrix(cardinality_bound_family(n, k))
    pay, start, trivial = games(sets)[0] if row else games(sets.T)[1]
    rng = np.random.default_rng(n * 100 + k)
    counts = 10 + (rng.random(pay.shape[0]) < 0.5).astype(np.int64)
    value = Fraction(k if row else -k, n)
    check_support_snap_wins(counts, int(counts.sum()), pay, start, trivial, value)


def test_c12_7_row_player_snaps_to_its_support_size(monkeypatch):
    # the state fp_bracket checkpoints at k = 8,192, where C(12,7) closes
    M = incidence_matrix(cardinality_bound_family(12, 7))
    calls = []
    with monkeypatch.context() as patch:
        real = accel._snap_checkpoint
        patch.setattr(accel, "_snap_checkpoint", lambda *a: calls.append(a) or real(*a))
        accel.fp_bracket(M, 10**6, 1e-6)
    (state,) = [a[:5] for a in calls if a[1] == 8192 and a[2] is M]
    counts, k, pay, best_n, best_d = state
    check_support_snap_wins(counts, k, pay, (best_n, best_d), (1, 1), Fraction(7, 12))


# (sets, labels, blocks of q for the row player): every q in one block, two
# blocks of 303 and 209, and 37 blocks of 14 (the last holding 8) for more
# than _SNAP_ELEMS // 16 labels
SNAP_SHAPES = [(5, 3, 1), (7, accel._SNAP_ELEMS // 512, 1), (9, accel._SNAP_ELEMS // 300, 2),
               (6, accel._SNAP_ELEMS // 16 + 100, 37)]


@pytest.mark.parametrize("sets, labels, blocks", SNAP_SHAPES)
def test_float_checkpoint_matches_int64_full_fold(sets, labels, blocks):
    block = accel._SNAP_ELEMS // max(sets, labels)
    assert -(-accel.SNAP_QMAX // block) == blocks
    rng = np.random.default_rng(sets * 1000 + labels)
    M = (rng.random((sets, labels)) < 0.5).astype(np.int64)
    M[1] = 1 - M[0]  # set 1 holds exactly the labels set 0 lacks
    M[:, 0] = 1  # and label 0 is in every set
    last_q = 0
    for counts_of in (
        lambda m: rng.integers(0, 50, size=m),
        # one strategy holds nearly all counts: at q = 512 it snaps to 511 or 512
        lambda m: np.array([10**6 - m + 1] + [1] * (m - 1)),
        lambda m: np.array([3] + [0] * (m - 2) + [10**5]),
        # with the +1 below, one play of 1,009 on set 0: it snaps to 1 only from
        # q = 505 on, and as set 1 holds every other label, the lower bound
        # 1/505 lies in the last block
        lambda m: np.array([0, 1008] + [0] * (m - 2)),
    ):
        row_counts = counts_of(sets).astype(np.int64)
        col_counts = counts_of(labels).astype(np.int64)
        row_counts[0] += 1
        col_counts[0] += 1
        row_k, col_k = int(row_counts.sum()), int(col_counts.sum())
        (_, row_start, row_trivial), (neg_T, col_start, col_trivial) = games(M)
        low = full_fold(row_counts, row_k, M, *row_start)
        # minus the column player's upper bound
        up = full_fold(col_counts, col_k, neg_T, *col_start)
        assert Fraction(*low) <= -Fraction(*up)
        # trivial opposite bounds keep all 512 q; the other player's bound prunes
        assert accel._snap_checkpoint(row_counts, row_k, M, *row_start, *row_trivial) == low
        assert accel._snap_checkpoint(row_counts, row_k, M, *row_start, -up[0], up[1]) == low
        assert accel._snap_checkpoint(col_counts, col_k, neg_T, *col_start, *col_trivial) == up
        assert accel._snap_checkpoint(col_counts, col_k, neg_T, *col_start, -low[0], low[1]) == up
        # starting from a bound already reached folds nothing in
        assert accel._snap_checkpoint(row_counts, row_k, M, *low, *row_trivial) == low
        assert accel._snap_checkpoint(col_counts, col_k, neg_T, *up, *col_trivial) == up
        last_q = max(last_q, low[1])
    assert last_q > (accel.SNAP_QMAX - 1) // block * block  # a q of the last block won


# Values taken from the per-q snapping kernel this batched one replaced.
WORKER_GOLDEN = {
    1: [["0", "1", 1, False], ["0", "1", 1, False], ["0", "1", 1, False], ["1", "1", 1, True],
        ["0", "0", 1, True], ["0", "1", 1, False], ["0", "1", 1, False], ["0", "1", 1, False]],
    3: [["1/3", "1/2", 3, False], ["1/2", "2/3", 3, False], ["1/2", "1/2", 2, True],
        ["1", "1", 1, True], ["0", "0", 1, True], ["1/2", "1", 3, False],
        ["0", "1/3", 3, False], ["1/3", "1/2", 3, False]],
    130: [["1/2", "1/2", 128, True], ["1/2", "1/2", 128, True], ["1/2", "1/2", 2, True],
          ["1", "1", 1, True], ["0", "0", 1, True], ["3/5", "3/5", 128, True],
          ["0", "0", 128, True], ["1/2", "1/2", 128, True]],
}
CARDINALITY_GOLDEN = {
    (9, 4, 3): ["0", "1", 3, False],
    (9, 4, 130): ["49/111", "4/9", 130, False],
    (9, 4, 10**6): ["4/9", "4/9", 512, True],
    (11, 3, 10**6): ["3/11", "3/11", 1024, True],
    (11, 4, 10**6): ["4/11", "4/11", 4096, True],
    (11, 5, 3): ["0", "1", 3, False],
    (11, 5, 130): ["19/43", "5/11", 130, False],
    (11, 5, 10**6): ["5/11", "5/11", 4096, True],
    (11, 6, 10**6): ["6/11", "6/11", 4096, True],
    (11, 7, 10**6): ["7/11", "7/11", 2048, True],
    (11, 8, 10**6): ["8/11", "8/11", 1024, True],
    (12, 5, 10**6): ["5/12", "5/12", 8192, True],
    (12, 6, 10**6): ["1/2", "1/2", 4096, True],
    (12, 7, 10**6): ["7/12", "7/12", 8192, True],
    (13, 7, 10**6): ["7/13", "7/13", 16384, True],
}


def summary(fam, max_iters, epsilon=Fraction(1, 10**6)):
    r = fictitious_play(fam, max_iters, epsilon)
    return [str(r.lower), str(r.upper), r.iterations, r.converged]


@pytest.mark.parametrize("max_iters", sorted(WORKER_GOLDEN))
def test_worker_families_match_golden(max_iters):
    got = [summary(random_family(seed, n=None, max_sets=25), max_iters) for seed in range(8)]
    assert got == WORKER_GOLDEN[max_iters]


@pytest.mark.parametrize("n, k, max_iters", sorted(CARDINALITY_GOLDEN))
def test_cardinality_families_match_golden(n, k, max_iters):
    got = summary(cardinality_bound_family(n, k), max_iters)
    assert got == CARDINALITY_GOLDEN[n, k, max_iters]


def test_worker_families_stop_after_one_play_at_epsilon_2():
    # the bracket is at most 1 wide, so epsilon 2 stops at the first test;
    # 10**400, too large for a float, stops there too
    for epsilon in (Fraction(2), Fraction(10**400)):
        got = [summary(random_family(seed, n=None, max_sets=25), 10**6, epsilon)
               for seed in range(8)]
        assert got == [[lo, up, 1, True] for lo, up, _, _ in WORKER_GOLDEN[1]]
