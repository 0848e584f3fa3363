"""Hot numeric kernel for the iterative best-response oracle.

Algorithm: alternating fictitious play with least-played tie-breaking.  Any
probability weighting certifies a bound (its worst case is evaluated
exactly), so the kernel keeps the best bound seen from (a) the running
empirical averages at every iteration and (b) at doubling checkpoints, two
kinds of candidate per player: the uniform weighting of the strategies it
has played, and its averages snapped by largest-remainder rounding to
denominators up to ``SNAP_QMAX``.  Games on 0/1 matrices have simple
rational equilibria, so a snapped average typically hits one exactly and
the bracket collapses to zero width; a player that cycles through a wide
support plays its strategies about equally often, and the uniform candidate
certifies that weighting however far apart its counts still are.  All
arithmetic is in integers (int64 arrays and Python ints), the snap
products and the stopping test included; the returned bounds are exact
integer fractions.

The play loop keeps one tie key per strategy, ``pay * big - count`` for
rows and ``pay * big + count`` for columns, where ``big`` exceeds any play
count.  Picking the largest row key or the smallest column key (the first
one on ties) picks the best-paying, least-played, lowest-index strategy, and
the key's high digits are the payoff bound, so an iteration adds ``big`` to
the chosen set's labels and one precomputed ``big * M[:, j]`` column to the
row keys, and reads everything else off the keys.  The column keys are a
Python list (there is one per label, and few labels); the row keys, one per
maximal set, are an int64 array updated in place by ``np.add`` and read and
decremented one at a time through a ``memoryview``, which costs less than
indexing the array.  The counts are the keys' low digits and are recovered
only at checkpoints.  The width test runs only when a bound moved.

``fp_bracket`` alternates between two parts.  A play segment runs up to the
next checkpoint (or ``max_iters``).  A checkpoint raises a lower bound, on
``M`` for the row player and on ``-M.T`` for the column player, whose upper
bound on ``M`` is minus its lower bound on ``-M.T``.  It first folds in the
uniform candidate, whose worst case is one int64 column sum of the played
strategies' pay rows, and then snaps the counts only for the ``q`` that can
still move that bound: a snapped lower bound ``num/q`` cannot exceed the
opposite bound, so unless some ``num/q`` lies strictly above the lower bound
and at most the opposite bound, ``q`` is skipped.  Once the bracket closes,
no ``q`` survives and the checkpoint returns at once, without snapping.

Strategies played equally often snap alike, so the survivors are rounded by
count class, not by strategy: a cardinality game has 3-8 classes among
hundreds of sets.  Each class gets its floor and remainder by one
``divmod``.  The ``deficit`` +1s go to the largest remainders, ties going
to the smaller count, then to the lower index (the play loop's own rule:
least played, then lowest index), so they fill whole classes in that
order, and then a prefix of the next class; its members' pay rows are
prefix-summed, so that any leading run of them is one row difference.
Before the product, a ``q`` is dropped unless its payoff against the
opponent's best reply to the unsnapped counts is strictly above the best
bound: the worst case is at most that payoff.
The ``q`` go in blocks bounded by entries, not by ``q``, of two sizes.  The
live ``q`` are rounded and filtered in blocks of ``_SNAP_ELEMS // classes``,
which keeps each class array within ``_SNAP_ELEMS`` entries; on C(11, ·)
and C(12, 7) that is one block.  The filter keeps few of them, and only
those are multiplied, in blocks of ``_SNAP_ELEMS // max(classes, width)``
within each rounding block, so a product is within ``_SNAP_ELEMS`` entries
too; each is one int64 matmul of class weights by class pay sums (numpy's
integer matmul calls no BLAS).  The best ``q`` is then chosen in integers:
a product block keeps the ``q`` whose fraction beats the best bound so far,
and the few survivors are folded in increasing ``q`` by the cross-multiplied
test, so the first ``q`` with the strictly best fraction wins, as in a full
scan.
numpy is imported inside the functions that use it, so importing the package
does not load it.
"""

from __future__ import annotations

from itertools import compress

# Largest snap denominator tried for every player; its uniform weighting of
# the strategies it has played is tried too, whatever their number.  A row
# snapped to q has weights summing to q and every pay entry is 0 or +-1, so
# every product entry lies in [-q, q] and every prefix entry is at most the
# number of strategies in size: all far below 2**63.
SNAP_QMAX = 512
_CHECKPOINT_START = 128
_SNAP_ELEMS = 1 << 14  # entries per class array of a rounding block and per product


def _snap_checkpoint(counts, k, pay, best_n, best_d, other_n, other_d):
    """Fold the exact worst cases of the uniform and the snapped weightings
    into the lower bound.

    ``pay`` maps the player's weights to the opponent's payoffs (``M`` for
    the row player, ``-M.T`` for the column player, whose upper bound is
    minus this lower bound).  The uniform weighting of the played strategies
    certifies the ``min`` of their summed pay rows over their number, and is
    folded first; then each snap of the counts to ``q`` (largest remainders
    first, ties to the smaller count, then to the lower index) certifies the
    ``min`` of them over ``q``, replacing the best only when strictly
    better.  That fraction cannot exceed ``other_n/other_d``, the opposite
    bound, so a ``q`` is snapped only if some ``num/q`` lies strictly above
    the best and at most the opposite bound; no other ``q`` could replace
    the best.  Nor can a ``q`` whose payoff against the opponent's best
    reply to the unsnapped counts is not strictly above the best, as the
    worst case is at most that payoff.
    """
    import numpy as np

    played = np.flatnonzero(counts)  # unplayed strategies always snap to 0
    counts, pay = counts[played], pay[played]
    # the uniform weighting of the played strategies comes first
    num = int(pay.sum(axis=0).min())
    if num * best_d > best_n * len(played):
        best_n, best_d = num, len(played)
    # the bounds' terms are at most 10**9 (MAX_PLAY_ITERS) and the floor
    # division comes before the multiply, so int64 terms stay at most q * 10**9
    qs = np.arange(1, SNAP_QMAX + 1, dtype=np.int64)
    live = qs[other_n * qs // other_d * best_d > best_n * qs]  # floor(other * q) > best
    if not len(live):
        return best_n, best_d
    reply = (counts @ pay).argmin()
    # strategies with equal counts snap alike, so round each class once; its
    # members, in index order, have their pay rows prefix-summed, so the
    # first t members of the class starting at starts[c] pay
    # prefix[starts[c] + t] - prefix[starts[c]]
    values, cls, sizes = np.unique(counts, return_inverse=True, return_counts=True)
    prefix = np.zeros((len(counts) + 1, pay.shape[1]), np.int64)
    np.cumsum(pay[np.argsort(cls, kind="stable")], axis=0, out=prefix[1:])
    starts = np.cumsum(sizes) - sizes
    totals = prefix[starts + sizes] - prefix[starts]
    block = max(1, _SNAP_ELEMS // len(values))  # live q rounded at once
    step = max(1, _SNAP_ELEMS // max(len(values), pay.shape[1]))  # kept q multiplied at once
    for b in range(0, len(live), block):
        qs = live[b:b + block]
        snapped, rem = np.divmod(values[None, :] * qs[:, None], k)
        deficit = qs - snapped @ sizes
        # the deficit's +1s go to the largest remainders, ties to the smaller
        # count (np.unique sorted the classes by count), then to the lower
        # index: the first `part` classes in that order take +1 whole, and
        # the +1s still owed go to the first `extra` members of the next one,
        # from prefix row `first`.  A class is always left over: the
        # remainders sum to deficit * k and each is below k, so deficit is
        # less than len(counts)
        order = np.argsort(-rem, axis=1, kind="stable")
        part = (np.cumsum(sizes[order], axis=1) <= deficit[:, None]).sum(axis=1)
        snapped += np.argsort(order, axis=1) < part[:, None]  # class rank < part
        first = starts[order[np.arange(len(qs)), part]]
        extra = qs - snapped @ sizes
        # the payoff against the reply bounds the worst case
        est = snapped @ totals[:, reply] + prefix[first + extra, reply] - prefix[first, reply]
        keep = est * best_d > best_n * qs
        qs, snapped, first, extra = qs[keep], snapped[keep], first[keep], extra[keep]
        for s in range(0, len(qs), step):
            t = slice(s, s + step)
            out = snapped[t] @ totals + (prefix[first[t] + extra[t]] - prefix[first[t]])
            nums = out.min(axis=1)
            better = nums * best_d > best_n * qs[t]
            for q, num in zip(qs[t][better].tolist(), nums[better].tolist()):
                if num * best_d > best_n * q:
                    best_n, best_d = num, q
    return best_n, best_d


def fp_bracket(M, max_iters, eps):
    """Bracket the game value of the 0/1 incidence matrix ``M``.

    Row player (maximal sets) maximizes, column player (labels) minimizes.
    Returns ``(low_num, low_den, up_num, up_den, iterations)`` with the
    bounds as exact integer fractions; play stops once the width is at most
    ``eps`` (a float, int or Fraction, compared exactly).
    """
    import numpy as np

    big = int(max_iters) + 1  # dominates any play count in the tie keys
    labels = range(M.shape[1])
    set_labels = [list(compress(labels, row)) for row in M.tolist()]
    label_pay = list(np.ascontiguousarray(M.T * big))  # big * M[:, j] per label
    row_key = np.zeros(M.shape[0], np.int64)  # row_pay * big - row_cnt
    row_view, row_argmax, add = memoryview(row_key), row_key.argmax, np.add
    col_key = [0] * M.shape[1]  # col_pay * big + col_cnt
    neg_T = -M.T  # the column player's upper bound is minus its lower bound here
    low_n, low_d, up_n, up_d = 0, 1, 1, 1
    eps_n, eps_d = eps.as_integer_ratio()
    next_cp = _CHECKPOINT_START
    i, k = 0, 0
    while k < max_iters:
        stop = min(next_cp, max_iters)
        while k < stop:
            k += 1
            row_view[i] -= 1
            for c in set_labels[i]:
                col_key[c] += big
            key = min(col_key)
            j = col_key.index(key)  # least pay, least played, lowest index
            col_key[j] = key + 1
            add(row_key, label_pay[j], out=row_key)
            i = row_argmax()  # best pay, least played, lowest index
            lo = key // big
            up = -(-row_view[i] // big)
            # cross-multiplied comparisons keep the running bests exact; the
            # width changes only with a bound, and is first tested at k == 1
            moved = k == 1
            if up * up_d < up_n * k:
                up_n, up_d, moved = up, k, True
            if lo * low_d > low_n * k:
                low_n, low_d, moved = lo, k, True
            if moved and (up_n * low_d - low_n * up_d) * eps_d <= eps_n * up_d * low_d:
                return low_n, low_d, up_n, up_d, k
        next_cp *= 2
        low_n, low_d = _snap_checkpoint(-row_key % big, k, M, low_n, low_d, up_n, up_d)
        up_n, up_d = _snap_checkpoint(np.array(col_key, np.int64) % big, k, neg_T,
                                      -up_n, up_d, -low_n, low_d)
        up_n = -up_n
        if (up_n * low_d - low_n * up_d) * eps_d <= eps_n * up_d * low_d:
            break
    return low_n, low_d, up_n, up_d, k


def backend_name() -> str:
    """The oracle backend, as the ``backend`` key of reports records it."""
    return "numpy"
