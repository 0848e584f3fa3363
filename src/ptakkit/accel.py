"""Hot numeric kernel for the iterative best-response oracle.

Algorithm: alternating fictitious play with least-played tie-breaking.  Any
probability weighting certifies a bound (its worst case is evaluated
exactly), so the kernel keeps the best bound seen from (a) the running
empirical averages at every iteration and (b) at doubling checkpoints, the
averages snapped to every denominator up to ``SNAP_QMAX`` by largest-
remainder rounding.  Games on 0/1 matrices have simple rational equilibria,
so a snapped average typically hits one exactly and the bracket collapses
to zero width.  All bookkeeping is int64; the returned bounds are exact
integer fractions and only the stopping test uses floats (with a safety
margin; the caller re-checks exactly).

The play loop keeps one tie key per strategy, ``pay * big - count`` for
rows and ``pay * big + count`` for columns, where ``big`` exceeds any play
count.  A single ``argmax``/``argmin`` then picks the best-paying, least-
played, lowest-index strategy, and the key's high digits are the payoff
bound, so an iteration adds one precomputed ``big * M`` row to each key
vector and reads everything else off the keys.  The counts are the keys'
low digits and are recovered only at checkpoints.

``fp_bracket`` alternates between two parts.  A play segment runs up to the
next checkpoint (or ``max_iters``).  A checkpoint snaps each player's counts
for a block of ``q`` values at once (floor, stable argsort ranks for the
remainders, one int64 matmul).  numpy is imported inside the functions that
use it, so importing the package does not load it.
"""

from __future__ import annotations

SNAP_QMAX = 512
_CHECKPOINT_START = 128
_SNAP_BLOCK = 16  # q values per checkpoint matmul; larger blocks cost peak memory


def snapped_counts(counts, k, qs):
    """Round ``counts/k`` to denominator ``q`` for each ``q`` in ``qs``.

    Row ``t`` holds largest-remainder weights summing to exactly ``qs[t]``:
    floors first, then one more for the ``deficit`` largest remainders, ties
    going to the lower index.
    """
    import numpy as np

    scaled = counts[None, :] * qs[:, None]
    snapped = scaled // k
    deficit = qs - snapped.sum(axis=1)
    order = np.argsort(snapped * k - scaled, axis=1, kind="stable")
    rows = np.arange(len(qs))[:, None]
    snapped[rows, order] += np.arange(counts.shape[0]) < deficit[:, None]
    return snapped


def _snap_checkpoint(counts, k, pay, is_lower, best_n, best_d):
    """Fold the snapped strategies' exact worst cases into the best bound.

    ``pay`` maps the player's weights to the opponent's payoffs (``M`` for
    the row player, ``M.T`` for the column player); each snap to ``q``
    certifies ``min`` (lower) or ``max`` (upper) of them over ``q``.
    """
    import numpy as np

    sign = 1 if is_lower else -1  # a lower bound improves upwards
    for q0 in range(1, SNAP_QMAX + 1, _SNAP_BLOCK):
        qs = np.arange(q0, min(q0 + _SNAP_BLOCK, SNAP_QMAX + 1), dtype=np.int64)
        out = snapped_counts(counts, k, qs) @ pay
        nums = out.min(axis=1) if is_lower else out.max(axis=1)
        for q, num in zip(qs.tolist(), nums.tolist()):
            if sign * (num * best_d - best_n * q) > 0:
                best_n, best_d = num, q
    return best_n, best_d


def fp_bracket(M, max_iters, eps):
    """Bracket the game value of incidence matrix ``M``.

    Row player (maximal sets) maximizes, column player (labels) minimizes.
    Returns ``(low_num, low_den, up_num, up_den, iterations)`` with the
    bounds as exact integer fractions.
    """
    import numpy as np

    big = int(max_iters) + 1  # dominates any play count in the tie keys
    bigM = M * big
    bigMT = np.ascontiguousarray(bigM.T)
    row_key = np.zeros(M.shape[0], np.int64)  # row_pay * big - row_cnt
    col_key = np.zeros(M.shape[1], np.int64)  # col_pay * big + col_cnt
    low_n, low_d, up_n, up_d = 0, 1, 1, 1
    margin = eps * (1.0 - 1e-9)
    next_cp = _CHECKPOINT_START
    i, k = 0, 0
    while k < max_iters:
        stop = min(next_cp, max_iters)
        while k < stop:
            k += 1
            row_key[i] -= 1
            col_key += bigM[i]
            j = col_key.argmin()  # least pay, least played, lowest index
            col_key[j] += 1
            row_key += bigMT[j]
            i = row_key.argmax()  # best pay, least played, lowest index
            lo = col_key[j] // big
            up = -(-row_key[i] // big)
            # cross-multiplied comparisons keep the running bests exact
            if up * up_d < up_n * k:
                up_n, up_d = up, k
            if lo * low_d > low_n * k:
                low_n, low_d = lo, k
            if up_n / up_d - low_n / low_d <= margin:
                return low_n, low_d, up_n, up_d, k
        next_cp *= 2
        low_n, low_d = _snap_checkpoint(-row_key % big, k, M, True, low_n, low_d)
        up_n, up_d = _snap_checkpoint(col_key % big, k, M.T, False, up_n, up_d)
        if up_n / up_d - low_n / low_d <= margin:
            break
    return low_n, low_d, up_n, up_d, k


def backend_name() -> str:
    """The oracle backend, as the ``backend`` key of reports records it."""
    return "numpy"
