import math
import subprocess
import sys
import tracemalloc
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
    best = max([Fraction(*uniform_candidate(counts, M))]
               + [Fraction(int((np.array(reference_snap(counts.tolist(), k, q)) @ M).min()), q)
                  for q in range(1, accel.SNAP_QMAX + 1)])
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
    played = counts > 0
    upper = min([Fraction(int(M[:, played].sum(axis=1).max()), int(played.sum()))]
                + [Fraction(int((M @ np.array(reference_snap(counts.tolist(), k, q))).max()), q)
                   for q in range(1, accel.SNAP_QMAX + 1)])
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


def uniform_candidate(counts, pay):
    """The uniform weighting of the played strategies, as (worst case, q)."""
    played = counts > 0
    return int(pay[played].sum(axis=0).min()), int(played.sum())


def full_fold(counts, k, pay, best_n, best_d):
    """The unpruned fold: the uniform candidate, then the snap to every q up
    to SNAP_QMAX in increasing order, each evaluated by one per-strategy
    int64 matmul (the reference for the kernel's class products); a
    candidate replaces the best only when it is strictly better."""
    qs = np.arange(1, accel.SNAP_QMAX + 1, dtype=np.int64)
    out = snapped_counts(counts, k, qs) @ pay
    for num, q in [uniform_candidate(counts, pay), *zip(out.min(axis=1).tolist(), qs.tolist())]:
        if num * best_d > best_n * q:
            best_n, best_d = num, q
    return best_n, best_d


def checkpoint_calls(M, max_iters, eps):
    """``fp_bracket(M, max_iters, eps)`` and the arguments of every
    checkpoint it made, in order."""
    calls = []
    real = accel._snap_checkpoint
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(accel, "_snap_checkpoint", lambda *a: calls.append(a) or real(*a))
        got = accel.fp_bracket(M, max_iters, eps)
    return got, calls


def drawn_calls(seed):
    """Checkpoint calls on ``random_family(seed, n=None, max_sets=25)``: four
    draws of counts per player, each with two opposite bounds (the value
    itself, and a looser valid one) and with the bracket closed at the
    value.  Returns the family's incidence matrix, the open calls and the
    closed ones."""
    fam = random_family(seed, n=None, max_sets=25)
    M = incidence_matrix(fam)
    delta = delta_exact(fam).delta
    rng = np.random.default_rng(seed)
    drawn, closed = [], []
    for _ in range(4):
        for (pay, start, trivial), value in zip(games(M), (delta, -delta)):
            counts = rng.integers(0, 30, size=pay.shape[0]).astype(np.int64)
            counts[0] += 1
            k = int(counts.sum())
            for other in (value, (value + Fraction(*trivial)) / 2):
                drawn.append((counts, k, pay, *start, other.numerator, other.denominator))
            bound = value.numerator, value.denominator
            closed.append((counts, k, pay, *bound, *bound))
    return M, drawn, closed


@pytest.mark.parametrize("seed", range(12))
def test_pruned_checkpoint_matches_full_fold(seed):
    M, drawn, closed = drawn_calls(seed)
    for call in drawn:
        assert accel._snap_checkpoint(*call) == full_fold(*call[:5])
    # a closed bracket leaves no q to snap
    for call in closed:
        assert accel._snap_checkpoint(*call) == call[3:5]
    # the states fp_bracket checkpoints, whose bounds let the opponent's
    # best reply discard q that the opposite bound keeps
    _, calls = checkpoint_calls(M, 10**4, 1e-6)
    for call in calls:
        assert accel._snap_checkpoint(*call) == full_fold(*call[:5])
    assert not calls or max(reply_discards(*call) for call in calls) > 0


def reply_discards(counts, k, pay, best_n, best_d, other_n, other_d):
    """How many q the opposite bound keeps but the payoff against the
    opponent's best reply to the unsnapped counts rules out, once the
    uniform candidate has raised the best."""
    reply = (counts @ pay).argmin()
    best = max(Fraction(best_n, best_d), Fraction(*uniform_candidate(counts, pay)))
    other = Fraction(other_n, other_d)
    discarded = 0
    for q in range(1, accel.SNAP_QMAX + 1):
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


def check_uniform_candidate_wins(counts, k, pay, start, trivial, value):
    support = int(np.count_nonzero(counts))
    assert support > accel.SNAP_QMAX
    want = full_fold(counts, k, pay, *start)
    # the uniform candidate wins with the exact value, and the kernel,
    # pruned by the opposite bound (the value or a looser one) or not,
    # agrees
    assert want == uniform_candidate(counts, pay) and Fraction(*want) == value
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
    check_uniform_candidate_wins(counts, int(counts.sum()), pay, start, trivial, value)


def test_c12_7_closes_on_the_uniform_candidate_at_1024():
    # fp_bracket closes C(12,7) at its k = 1,024 checkpoint, where the row
    # player has played all 792 sets, 1 to 7 times each
    M = incidence_matrix(cardinality_bound_family(12, 7))
    got, calls = checkpoint_calls(M, 10**6, 1e-6)
    assert got == (462, 792, 14, 24, 1024)
    assert max(a[1] for a in calls) == 1024
    (state,) = [a[:5] for a in calls if a[1] == 1024 and a[2] is M]
    counts, k, pay, best_n, best_d = state
    assert counts.min() == 1 and counts.max() - counts.min() > k / len(counts)
    check_uniform_candidate_wins(counts, k, pay, (best_n, best_d), (1, 1), Fraction(7, 12))


def test_uniform_candidate_wins_where_no_snap_can():
    # counts of 1-40 on C(11,4)'s 330 sets: the most and least played differ
    # by more than the average count, so no snap to q <= SNAP_QMAX reaches
    # 4/11, while the uniform weighting of the sets does (each label lies in
    # 120 of them)
    M = incidence_matrix(cardinality_bound_family(11, 4))
    rng = np.random.default_rng(114)
    counts = rng.integers(1, 41, size=len(M))
    k = int(counts.sum())
    assert counts.max() - counts.min() > k / len(M)
    qs = np.arange(1, accel.SNAP_QMAX + 1, dtype=np.int64)
    assert ((snapped_counts(counts, k, qs) @ M).min(axis=1) * 11 < 4 * qs).all()
    assert accel._snap_checkpoint(counts, k, M, 0, 1, 1, 1) == (120, 330)
    # a column player that has played 8 of the 11 labels is weighted 1/8 on
    # each of them, so the heaviest set weighs 4/8, where weighting all 11
    # labels would give 4/11
    col = rng.integers(1, 41, size=11)
    col[[2, 5, 9]] = 0
    got = accel._snap_checkpoint(col, int(col.sum()), -M.T, -1, 1, 0, 1)
    assert got == (-4, 8) == full_fold(col, int(col.sum()), -M.T, -1, 1)


# (sets, labels, blocks): the most rounding blocks of q that one checkpoint
# below forms from trivial opposite bounds, and the most product blocks.
# Every q in one block of each; two of each, for 54 labels (51 count
# classes round in blocks of 321, and 503 kept q multiply in blocks of 303);
# and 37 of each, for more than _SNAP_ELEMS // 16 labels (1,124 classes
# round in blocks of 14, and 510 kept q multiply in blocks of 14)
SNAP_SHAPES = [(5, 3, 1), (7, accel._SNAP_ELEMS // 512, 1), (9, accel._SNAP_ELEMS // 300, 2),
               (6, accel._SNAP_ELEMS // 16 + 100, 37)]

# Column counts of the two shapes with more than one rounding block whose
# best snap lies in the last block, once the test adds its +1 to the first:
# 51 count classes of 54 labels round in blocks of 321, and 1,124 classes in
# blocks of 14.  No search found such counts for the row players of at most
# 9 sets, whose uniform candidate certifies at least 1/9 whenever a snap
# certifies more than 0.
LAST_BLOCK_COLUMN_COUNTS = {
    54: np.array([118, 796, 21, 52, 430, 185, 71, 46, 289, 225, 159, 337, 327, 230, 36, 149,
                  122, 111, 116, 27, 76, 52, 387, 182, 603, 550, 151, 43, 82, 301, 249, 146,
                  234, 787, 551, 50, 77, 293, 193, 269, 85, 85, 162, 427, 229, 222, 141, 117,
                  132, 12, 234, 258, 115, 90]),
    1124: np.random.default_rng(63).permutation(1124) + 1,
}


def shape_counts(sets, labels):
    """The game of a SNAP_SHAPES shape and the (row, column) counts that its
    test checkpoints."""
    rng = np.random.default_rng(sets * 1000 + labels)
    M = (rng.random((sets, labels)) < 0.5).astype(np.int64)
    M[1] = 1 - M[0]  # set 1 holds exactly the labels set 0 lacks
    M[:, 0] = 1  # and label 0 is in every set
    pairs = []
    for counts_of in (
        lambda m: rng.integers(0, 50, size=m),
        # one strategy holds nearly all counts: at q = 512 it snaps to 511 or 512
        lambda m: np.array([10**6 - m + 1] + [1] * (m - 1)),
        lambda m: np.array([3] + [0] * (m - 2) + [10**5]),
        # with the +1 below, one play of 1,009 on set 0: it snaps to 1 only
        # from q = 505 on, though the uniform weighting of sets 0 and 1 wins;
        # the column players of the wider shapes win in their last block
        lambda m: LAST_BLOCK_COLUMN_COUNTS.get(m, np.array([0, 1008] + [0] * (m - 2))),
        # the row player of 1,124 labels keeps 510 of the 512 q
        lambda m: np.arange(m, 0, -1) * 7 % 50,
    ):
        row_counts = counts_of(sets).astype(np.int64)
        col_counts = counts_of(labels).astype(np.int64)
        row_counts[0] += 1
        col_counts[0] += 1
        pairs.append((row_counts, col_counts))
    return M, pairs


def snap_blocks(counts, k, pay, best_n, best_d, other_n, other_d):
    """The blocks of q a checkpoint forms, from the per-strategy reference:
    the live q in rounding blocks of ``_SNAP_ELEMS // classes``, and within
    each, the q whose payoff against the reply beats the best bound as it
    stood when the block began, in product blocks of
    ``_SNAP_ELEMS // max(classes, width)``.  One list of product blocks per
    rounding block."""
    classes = len(np.unique(counts[counts > 0]))
    block = max(1, accel._SNAP_ELEMS // classes)
    step = max(1, accel._SNAP_ELEMS // max(classes, pay.shape[1]))
    best = max(Fraction(best_n, best_d), Fraction(*uniform_candidate(counts, pay)))
    other = Fraction(other_n, other_d)
    live = [q for q in range(1, accel.SNAP_QMAX + 1) if Fraction(math.floor(other * q), q) > best]
    reply = (counts @ pay).argmin()
    blocks = []
    for b in range(0, len(live), block):
        qs = np.array(live[b:b + block], dtype=np.int64)
        snapped = snapped_counts(counts, k, qs)
        kept = qs[snapped @ pay[:, reply] * best.denominator > best.numerator * qs].tolist()
        blocks.append([kept[s:s + step] for s in range(0, len(kept), step)])
        best = max(best, *(Fraction(num, q) for num, q in
                           zip((snapped @ pay).min(axis=1).tolist(), qs.tolist())))
    return blocks


def won_in_last_block(blocks, counts, pay, start, got):
    """Whether ``got``, a checkpoint's fold from ``start``, is a snap from the
    last product block of the last rounding block in ``blocks``."""
    last = blocks[-1][-1] if blocks and blocks[-1] else []
    return got not in (start, uniform_candidate(counts, pay)) and got[1] in last


@pytest.mark.parametrize("sets, labels, blocks", SNAP_SHAPES)
def test_checkpoint_matches_full_fold(sets, labels, blocks):
    M, pairs = shape_counts(sets, labels)
    (_, row_start, row_trivial), (neg_T, col_start, col_trivial) = games(M)
    last_block_won = False
    most_rounds = most_products = 0
    for row_counts, col_counts in pairs:
        row_k, col_k = int(row_counts.sum()), int(col_counts.sum())
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
        for counts, k, pay, start, trivial, got in (
                (row_counts, row_k, M, row_start, row_trivial, low),
                (col_counts, col_k, neg_T, col_start, col_trivial, up)):
            formed = snap_blocks(counts, k, pay, *start, *trivial)
            most_rounds = max(most_rounds, len(formed))
            most_products = max(most_products, sum(map(len, formed)))
            last_block_won |= won_in_last_block(formed, counts, pay, start, got)
    assert (most_rounds, most_products) == (blocks, blocks)
    assert last_block_won  # a q of some player's last block won


# the benchmark's oracle games, whose pass makes 46 checkpoints
ORACLE_GAMES = [(11, k) for k in range(3, 9)] + [(12, 7)]


@pytest.fixture(scope="module")
def block_cases():
    """Checkpoint calls with their results at the default ``_SNAP_ELEMS``:
    the states of an oracle pass, the counts of every SNAP_SHAPES shape from
    trivial opposite bounds, and the 12 random families' states; and the
    brackets of C(11,5) and C(12,7)."""
    calls = []
    for n, k in ORACLE_GAMES:
        calls += checkpoint_calls(incidence_matrix(cardinality_bound_family(n, k)),
                                  10**6, Fraction(1, 10**6))[1]
    assert len(calls) == 46
    for sets, labels, _ in SNAP_SHAPES:
        M, pairs = shape_counts(sets, labels)
        for counts_pair in pairs:
            for counts, (pay, start, trivial) in zip(counts_pair, games(M)):
                calls.append((counts, int(counts.sum()), pay, *start, *trivial))
    for seed in range(12):
        M, drawn, closed = drawn_calls(seed)
        calls += drawn + closed + checkpoint_calls(M, 10**4, 1e-6)[1]
    matrices = [incidence_matrix(cardinality_bound_family(n, k)) for n, k in ((11, 5), (12, 7))]
    return ([(call, accel._snap_checkpoint(*call)) for call in calls],
            [(M, accel.fp_bracket(M, 10**6, 1e-6)) for M in matrices])


@pytest.mark.parametrize("elems", [1, 37, 1024])
def test_checkpoints_do_not_depend_on_the_block_size(elems, block_cases, monkeypatch):
    # one q per block, rounding and product blocks that do not divide 512,
    # and several product blocks within each rounding block
    calls, brackets = block_cases
    monkeypatch.setattr(accel, "_SNAP_ELEMS", elems)
    for call, want in calls:
        assert accel._snap_checkpoint(*call) == want
    for M, want in brackets:
        assert accel.fp_bracket(M, 10**6, 1e-6) == want


def test_checkpoint_memory_is_bounded_by_the_blocks():
    # 4,096 strategies with all-distinct counts round 4 q per block; the
    # rounding of all 512 q at once would take 16 MiB per array
    rng = np.random.default_rng(4096)
    pay = (rng.random((4096, 40)) < 0.5).astype(np.int64)
    counts = rng.permutation(4096).astype(np.int64) + 1
    tracemalloc.start()
    try:
        accel._snap_checkpoint(counts, int(counts.sum()), pay, 0, 1, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


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
    (9, 4, 10**6): ["4/9", "4/9", 256, True],
    (11, 3, 10**6): ["3/11", "3/11", 512, True],
    (11, 4, 10**6): ["4/11", "4/11", 512, True],
    (11, 5, 3): ["0", "1", 3, False],
    (11, 5, 130): ["19/43", "5/11", 130, False],
    (11, 5, 10**6): ["5/11", "5/11", 1024, True],
    (11, 6, 10**6): ["6/11", "6/11", 1024, True],
    (11, 7, 10**6): ["7/11", "7/11", 512, True],
    (11, 8, 10**6): ["8/11", "8/11", 256, True],
    (12, 5, 10**6): ["5/12", "5/12", 1024, True],
    (12, 6, 10**6): ["1/2", "1/2", 2048, True],
    (12, 7, 10**6): ["7/12", "7/12", 1024, True],
    (13, 7, 10**6): ["7/13", "7/13", 4096, True],
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
    # 10**400, compared exactly, stops there too
    for epsilon in (Fraction(2), Fraction(10**400)):
        got = [summary(random_family(seed, n=None, max_sets=25), 10**6, epsilon)
               for seed in range(8)]
        assert got == [[lo, up, 1, True] for lo, up, _, _ in WORKER_GOLDEN[1]]


@pytest.mark.parametrize("n, k, eps, want", [
    (3, 1, Fraction(1, 2), (0, 1, 1, 2, 2)),  # [0, 1/2] after two plays
    (4, 2, Fraction(1, 10), (3, 6, 3, 5, 6)),  # [1/2, 3/5] after six plays
])
def test_play_stops_where_the_width_first_equals_epsilon(n, k, eps, want):
    fam = cardinality_bound_family(n, k)
    M = incidence_matrix(fam)
    assert accel.fp_bracket(M, 10**6, eps) == accel.fp_bracket(M, 10**6, float(eps)) == want
    r = fictitious_play(fam, 10**6, eps)
    assert (r.lower, r.upper, r.iterations) == (Fraction(*want[:2]), Fraction(*want[2:4]), want[4])
    assert r.upper - r.lower == eps and r.converged
