"""Exact simplex on a condensed integer tableau, with Bland's pivot rule.

One method, :func:`_simplex`: minimize over ``Ax <= b, x >= 0`` with
``b >= 0``, starting from the all-slack basis, so there is no phase 1 and no
artificial column.  Two entry points:

* :func:`solve_max_slack` -- maximize, adding the dual multipliers read off
  the final reduced costs; it can resume from the result of the same
  program without its last row.
* :func:`solve_min_general` -- minimize; value and primal only.

Variables have labels: x is ``0..n-1``, then row i's slack is ``n + i``.
The tableau is condensed: it keeps one row per basic variable and one column
per nonbasic one, plus the right-hand side, since a basic variable's column
is a unit vector.  Its entries are integers ``T = D * (true tableau)``, where
``D > 0`` is the absolute determinant of the current basis and starts at 1.
A pivot on ``p = T[r][c]`` (Bareiss, *Math. Comp.* 1968; Edmonds) replaces
every other row, the cost row included, by ``(p * T[i] - T[i][c] * T[r]) //
D``, a division that is always exact, keeps the pivot row and sets ``D = p``.
The entering and leaving variables then swap labels, and column ``c``
becomes the leaving variable's: it holds ``-T[i][c]`` in the other rows and
the cost row and the old ``D`` in the pivot row, which is what the pivot
makes of its unit column.  So a pivot updates ``r * (n + 1)`` entries, where
the full tableau has ``r`` more columns.  No gcd is taken during a solve, and
entries stay minors of the input, so they grow only as far as those do.
Pivoting again on the same entry, which now holds the old ``D``, restores the
tableau before the pivot exactly, so a pivot can be undone.

The program must be given in Python ints: ``//`` would floor a Fraction
without a word, so any other entry raises TypeError.

Bland's rule (the smallest label among negative reduced costs enters, the
smallest basic label among ratio ties leaves) reads the signs of the cost
row and compares ratios by cross-multiplying, so it makes exactly the pivots
a rational tableau would and guarantees termination.  The result keeps
the final tableau's integers, x, the objective and the duals, all over
``D``.  It makes Fractions of them only when they are read.

The result also keeps its input rows, its final tableau and its Bland path:
for each pivot, the pivot row as it was, ``D`` before it and where it sat.
Bland's choices at a step read only the cost row and the rows' ratios, and
a row changes only by the pivot rows above it, so the program with one more
row follows the same path until the step where the new row first strictly
wins the ratio test (on a tie the older row wins, since the new slack has
the highest label).  ``solve_max_slack(..., after=result)`` eliminates only
the new row along the kept path to find that step.  If the step lies in
the path's second half, it undoes the pivots past it on a copy of the final
tableau and goes on by Bland's rule; otherwise it solves cold, which makes
fewer pivots to reach it.  Every pivot, x, dual and count is the cold
solve's.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Optional, Sequence


class UnboundedError(ArithmeticError):
    """The linear program has unbounded objective."""


class LPResult:
    """An optimal vertex, held as the final tableau's integers.

    ``x[j] = x_num[j] / den``, the objective is ``obj_num / den`` and row
    i's dual is ``dual_num[i] / den``, where ``den`` is the basis
    determinant (always > 0).  ``dual_num`` is empty for
    :func:`solve_min_general`.  ``objective``, ``x`` and ``duals`` are the
    same values as reduced Fractions.

    ``pivots`` is the length of Bland's path from the slack basis, the same
    for a resumed solve as for a cold one; ``pivots_made`` is the number of
    pivots the call performed, undone pivots included.
    """

    __slots__ = ("x_num", "den", "obj_num", "dual_num", "pivots", "pivots_made", "_kept")

    def __init__(self, x_num: list[int], den: int, obj_num: int, dual_num: list[int],
                 pivots: int, pivots_made: int, kept: tuple):
        self.x_num, self.den, self.obj_num = x_num, den, obj_num
        self.dual_num, self.pivots, self.pivots_made = dual_num, pivots, pivots_made
        # (input rows, initial cost row, rows, cost row, basis, nonbasic, path)
        self._kept = kept

    @property
    def objective(self) -> Fraction:
        return Fraction(self.obj_num, self.den)

    @property
    def x(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.x_num]

    @property
    def duals(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.dual_num]


def _eliminate(row, prow, p, d, pc):
    f = row[pc]
    if f:
        out = [(p * a - f * b) // d for a, b in zip(row, prow)]
        out[pc] = -f  # the leaving variable's column
        return out
    if p == d:
        return row
    return [p * a // d for a in row]


def _pivot(rows, z, basis, nonbasic, d, pr, pc):
    """Pivot on ``rows[pr][pc]`` over determinant ``d``; returns the pivot
    row as it was, whose entry ``pc`` is the new determinant.

    The entering variable of column ``pc`` and the leaving variable of row
    ``pr`` swap labels, and the column becomes the leaving variable's.  Rows
    are replaced, never changed in place, so a copy of the list of rows
    shares them safely.
    """
    prow = rows[pr]
    p = prow[pc]
    for i in range(len(rows)):
        if i != pr:
            rows[i] = _eliminate(rows[i], prow, p, d, pc)
    z[:] = _eliminate(z, prow, p, d, pc)
    rows[pr] = new = prow.copy()
    new[pc] = d
    basis[pr], nonbasic[pc] = nonbasic[pc], basis[pr]
    return prow


def _bland_min(rows, z, basis, nonbasic, d, path) -> int:
    """Run minimizing simplex to optimality from determinant ``d``, appending
    ``(pr, pc, d, pivot row)`` to ``path`` for each pivot; returns the final
    determinant."""
    label_of = nonbasic.__getitem__
    order = sorted(range(len(nonbasic)), key=label_of)  # columns by label
    while True:
        for pc in order:  # Bland: the negative reduced cost of least label enters
            if z[pc] < 0:
                break
        else:
            return d
        pr = -1
        for i, row in enumerate(rows):
            a = row[pc]
            if a > 0:
                if pr < 0:
                    pr, num, den = i, row[-1], a
                    continue
                # row[-1] / a against num / den, both denominators positive
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pr]):
                    pr, num, den = i, row[-1], a
        if pr < 0:
            raise UnboundedError("objective unbounded below")
        prow = _pivot(rows, z, basis, nonbasic, d, pr, pc)
        path.append((pr, pc, d, prow))
        d = prow[pc]
        order.remove(pc)  # column pc now holds the leaving label
        insort(order, pc, key=label_of)


def _resume(after, new, n):
    """The tableau of ``after``'s program plus the row ``new``, at the step
    where Bland's path first leaves ``after``'s, reached by undoing the
    pivots past that step; None if the step lies in the path's first half,
    as a cold solve then makes fewer pivots to reach it.

    Returns ``(rows, z, basis, nonbasic, d, path, made)``, with the path up
    to that step and the number of pivots undone to reach it.
    """
    _, _, rows, z, basis, nonbasic, path = after._kept
    k = len(path)
    for step, (pr, pc, d, prow) in enumerate(path):
        a, p = new[pc], prow[pc]
        if a > 0 and new[-1] * p < prow[-1] * a:  # the new row wins the ratio test
            k = step
            break
        new = _eliminate(new, prow, p, d, pc)
    if 2 * k < len(path):
        return None
    rows, z, basis, nonbasic, d = [*rows], [*z], [*basis], [*nonbasic], after.den
    for pr, pc, _, _ in reversed(path[k:]):
        d = _pivot(rows, z, basis, nonbasic, d, pr, pc)[pc]
    rows.append(new)
    basis.append(n + len(rows) - 1)
    return rows, z, basis, nonbasic, d, path[:k], len(path) - k


def _simplex(c, A, b, maximize, after=None):
    """The one simplex over ``Ax <= b, x >= 0``, ``b >= 0``: minimize ``c.x``,
    or, if ``maximize``, minimize ``-c.x`` and read off the duals.  ``after``
    is the result of the same program without its last row.
    """
    n = len(c)
    if len(b) != len(A):
        raise ValueError(f"b has {len(b)} entries for {len(A)} rows of A")
    inputs = []
    for i, (coeffs, rhs) in enumerate(zip(A, b)):
        if len(coeffs) != n:
            raise ValueError(f"row {i} of A has {len(coeffs)} entries, expected {n}")
        row = [*coeffs, rhs]
        if not {int}.issuperset(map(type, row)):
            raise TypeError(f"row {i} of A and b: entries must be ints")
        if rhs < 0:
            raise ValueError(f"row {i}: slack start needs b >= 0")
        inputs.append(row)
    # checked before negating, which would make a bool an int
    if not {int}.issuperset(map(type, c)):
        raise TypeError("c: entries must be ints")
    cost = [*(-v for v in c), 0] if maximize else [*c, 0]  # priced out over the slack basis
    if after is not None and not (isinstance(after, LPResult) and inputs and
                                  after._kept[1] == cost and after._kept[0] == inputs[:-1]):
        raise ValueError("after: not the result of this program without its last row")
    resumed = after is not None and _resume(after, inputs[-1], n)
    if resumed:
        rows, z, basis, nonbasic, d, path, made = resumed
    else:  # the all-slack basis
        rows, z, d, path, made = [*inputs], [*cost], 1, [], 0
        basis, nonbasic = list(range(n, n + len(inputs))), list(range(n))
    start = len(path)
    d = _bland_min(rows, z, basis, nonbasic, d, path)
    x_num = [0] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x_num[bi] = rows[i][-1]
    # the cost row's last entry is -D times the minimum
    obj_num = z[-1] if maximize else -z[-1]
    dual_num = []
    if maximize:
        # row i's slack has label n + i; its dual is its reduced cost while
        # nonbasic, and 0 while basic
        dual_num = [0] * len(rows)
        for label, reduced in zip(nonbasic, z):
            if label >= n:
                dual_num[label - n] = reduced
    return LPResult(x_num, d, obj_num, dual_num, len(path), made + len(path) - start,
                    (inputs, cost, rows, z, basis, nonbasic, path))


def solve_max_slack(c: Sequence[int], A: Sequence[Sequence[int]], b: Sequence[int], *,
                    after: Optional[LPResult] = None) -> LPResult:
    """Maximize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    ``duals[i]`` is the optimal multiplier of row i (``>= 0``, with
    ``duals . b == objective`` by strong duality).

    ``after``, if given, is the result of this call on the same ``c`` and
    the rows of ``A`` and ``b`` without the last; anything else raises
    ValueError.  The solve then resumes Bland's path by undoing the pivots
    past the step where the new row first wins the ratio test, or solves
    cold if that step lies in the path's first half.  Either way it returns
    the cold solve's result, ``pivots`` included, while ``pivots_made``
    counts only the pivots this call made.  ``after`` is left unchanged, so
    it can be extended more than once.
    """
    return _simplex(c, A, b, True, after)


def solve_min_general(c: Sequence[int], A: Sequence[Sequence[int]],
                      b: Sequence[int]) -> LPResult:
    """Minimize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    The same tableau as :func:`solve_max_slack` on the negated costs; the
    duals of the result are left empty.
    """
    return _simplex(c, A, b, False)
