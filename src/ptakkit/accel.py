"""Hot numeric kernel for the iterative best-response oracle.

The inner loop runs up to millions of iterations over a small 0/1 incidence
matrix, so it is JIT-compiled with numba when available.  Set
``PTAKKIT_NUMBA=0`` to force the pure-numpy fallback (the same source
functions, interpreted; results are bit-identical), ``PTAKKIT_NUMBA=1`` to
make a missing numba an error.

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
"""

from __future__ import annotations

import os

import numpy as np

SNAP_QMAX = 512
_CHECKPOINT_START = 128

_env = os.environ.get("PTAKKIT_NUMBA", "auto").strip().lower()
_want_numba = _env not in ("0", "false", "no", "off")

HAS_NUMBA = False
if _want_numba:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        if _env in ("1", "true", "yes", "on"):
            raise
        HAS_NUMBA = False


def _snap_bound_impl(counts, k, q, cols, out, snapped, is_lower):
    """Exact bound certified by rounding ``counts/k`` to denominator ``q``.

    Largest-remainder apportionment (stable ties) keeps the weights summing
    to exactly q.  ``cols[:, i]`` holds player i's payoff column; the bound
    is the snapped strategy's exact worst case, as (numerator, q).
    """
    size = counts.shape[0]
    total = np.int64(0)
    for i in range(size):
        w = counts[i] * q // k
        snapped[i] = w
        total += w
    deficit = q - total
    if deficit > 0:
        rem = counts * q - snapped[:size] * k
        order = np.argsort(-rem, kind="mergesort")
        for t in range(deficit):
            snapped[order[t]] += 1
    out[:] = 0
    for i in range(size):
        w = snapped[i]
        if w > 0:
            out += w * cols[:, i]
    if is_lower:
        return np.min(out), np.int64(q)
    return np.max(out), np.int64(q)


if HAS_NUMBA:
    _snap_bound = njit(cache=True)(_snap_bound_impl)
else:
    _snap_bound = _snap_bound_impl


def _fp_bracket_impl(M, max_iters, eps):
    """Bracket the game value of incidence matrix ``M``.

    Row player (maximal sets) maximizes, column player (labels) minimizes.
    Returns ``(low_num, low_den, up_num, up_den, iterations)`` with the
    bounds as exact integer fractions.
    """
    m, n = M.shape
    MT = M.T.copy()
    row_pay = np.zeros(m, np.int64)  # M @ col_counts
    col_pay = np.zeros(n, np.int64)  # M.T @ row_counts
    row_cnt = np.zeros(m, np.int64)
    col_cnt = np.zeros(n, np.int64)
    snap_scratch = np.zeros(max(m, n), np.int64)
    cover = np.zeros(n, np.int64)
    member = np.zeros(m, np.int64)
    best_low_n = np.int64(0)
    best_low_d = np.int64(1)
    best_up_n = np.int64(1)
    best_up_d = np.int64(1)
    big = np.int64(max_iters) + 1  # dominates any play count in the tie key
    margin = eps * (1.0 - 1e-9)
    next_cp = np.int64(_CHECKPOINT_START)
    k = np.int64(0)
    while k < max_iters:
        k += 1
        i = np.argmax(row_pay * big - row_cnt)  # best pay, least played, lowest index
        row_cnt[i] += 1
        col_pay += MT[:, i]
        j = np.argmin(col_pay * big + col_cnt)
        col_cnt[j] += 1
        row_pay += M[:, j]
        low_n = col_pay[j]
        up_n = np.max(row_pay)
        # cross-multiplied comparisons keep the running bests exact
        if up_n * best_up_d < best_up_n * k:
            best_up_n, best_up_d = up_n, k
        if low_n * best_low_d > best_low_n * k:
            best_low_n, best_low_d = low_n, k
        if best_up_n / best_up_d - best_low_n / best_low_d <= margin:
            break
        if k == next_cp or k == max_iters:
            next_cp *= 2
            for q in range(1, SNAP_QMAX + 1):
                low_n, low_d = _snap_bound(row_cnt, k, q, MT, cover, snap_scratch, True)
                if low_n * best_low_d > best_low_n * low_d:
                    best_low_n, best_low_d = low_n, low_d
                up_n, up_d = _snap_bound(col_cnt, k, q, M, member, snap_scratch, False)
                if up_n * best_up_d < best_up_n * up_d:
                    best_up_n, best_up_d = up_n, up_d
            if best_up_n / best_up_d - best_low_n / best_low_d <= margin:
                break
    return best_low_n, best_low_d, best_up_n, best_up_d, k


if HAS_NUMBA:
    fp_bracket = njit(cache=True)(_fp_bracket_impl)
else:
    fp_bracket = _fp_bracket_impl


def backend_name() -> str:
    return "numba" if HAS_NUMBA else "numpy"
