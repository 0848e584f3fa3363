"""Exact simplex on a condensed integer tableau, with Bland's pivot rule.

One method, :func:`_simplex`: minimize over ``Ax <= b, x >= 0`` with
``b >= 0``, starting from the all-slack basis, so there is no phase 1 and no
artificial column.  Two entry points:

* :func:`solve_max_slack` -- maximize, adding the dual multipliers read off
  the final reduced costs.
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

The program must be given in Python ints: ``//`` would floor a Fraction
without a word, so any other entry raises TypeError.

Bland's rule (the smallest label among negative reduced costs enters, the
smallest basic label among ratio ties leaves) reads the signs of the cost
row and compares ratios by cross-multiplying, so it makes exactly the pivots
a rational tableau would and guarantees termination.  The result keeps
the final tableau's integers, x, the objective and the duals, all over
``D``.  It makes Fractions of them only when they are read.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Sequence


class UnboundedError(ArithmeticError):
    """The linear program has unbounded objective."""


class LPResult:
    """An optimal vertex, held as the final tableau's integers.

    ``x[j] = x_num[j] / den``, the objective is ``obj_num / den`` and row
    i's dual is ``dual_num[i] / den``, where ``den`` is the basis
    determinant (always > 0).  ``dual_num`` is empty for
    :func:`solve_min_general`.  ``objective``, ``x`` and ``duals`` are the
    same values as reduced Fractions.
    """

    __slots__ = ("x_num", "den", "obj_num", "dual_num", "pivots")

    def __init__(self, x_num: list[int], den: int, obj_num: int, dual_num: list[int],
                 pivots: int):
        self.x_num, self.den, self.obj_num = x_num, den, obj_num
        self.dual_num, self.pivots = dual_num, pivots

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


def _pivot(rows, z, basis, nonbasic, d, pr, pc) -> int:
    """Pivot on ``rows[pr][pc]`` over determinant ``d``; returns the new one.

    The entering variable of column ``pc`` and the leaving variable of row
    ``pr`` swap labels, and the column becomes the leaving variable's.
    """
    prow = rows[pr]
    p = prow[pc]
    for i in range(len(rows)):
        if i != pr:
            rows[i] = _eliminate(rows[i], prow, p, d, pc)
    z[:] = _eliminate(z, prow, p, d, pc)
    prow[pc] = d
    basis[pr], nonbasic[pc] = nonbasic[pc], basis[pr]
    return p


def _bland_min(rows, z, basis, nonbasic) -> tuple[int, int]:
    """Run minimizing simplex to optimality; returns pivot count and determinant."""
    pivots, d = 0, 1
    label_of = nonbasic.__getitem__
    order = sorted(range(len(nonbasic)), key=label_of)  # columns by label
    while True:
        for pc in order:  # Bland: the negative reduced cost of least label enters
            if z[pc] < 0:
                break
        else:
            return pivots, d
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
        d = _pivot(rows, z, basis, nonbasic, d, pr, pc)
        pivots += 1
        order.remove(pc)  # column pc now holds the leaving label
        insort(order, pc, key=label_of)


def _simplex(c, A, b, maximize):
    """The one simplex over ``Ax <= b, x >= 0``, ``b >= 0``: minimize ``c.x``,
    or, if ``maximize``, minimize ``-c.x`` and read off the duals.
    """
    n = len(c)
    if len(b) != len(A):
        raise ValueError(f"b has {len(b)} entries for {len(A)} rows of A")
    rows = []
    for i, (coeffs, rhs) in enumerate(zip(A, b)):
        if len(coeffs) != n:
            raise ValueError(f"row {i} of A has {len(coeffs)} entries, expected {n}")
        row = [*coeffs, rhs]
        if not {int}.issuperset(map(type, row)):
            raise TypeError(f"row {i} of A and b: entries must be ints")
        if rhs < 0:
            raise ValueError(f"row {i}: slack start needs b >= 0")
        rows.append(row)
    # checked before negating, which would make a bool an int
    if not {int}.issuperset(map(type, c)):
        raise TypeError("c: entries must be ints")
    z = [*(-v for v in c), 0] if maximize else [*c, 0]  # priced out over the slack basis
    basis = list(range(n, n + len(rows)))
    nonbasic = list(range(n))
    pivots, d = _bland_min(rows, z, basis, nonbasic)
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
        for label, cost in zip(nonbasic, z):
            if label >= n:
                dual_num[label - n] = cost
    return LPResult(x_num, d, obj_num, dual_num, pivots)


def solve_max_slack(c: Sequence[int], A: Sequence[Sequence[int]],
                    b: Sequence[int]) -> LPResult:
    """Maximize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    ``duals[i]`` is the optimal multiplier of row i (``>= 0``, with
    ``duals . b == objective`` by strong duality).
    """
    return _simplex(c, A, b, True)


def solve_min_general(c: Sequence[int], A: Sequence[Sequence[int]],
                      b: Sequence[int]) -> LPResult:
    """Minimize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    The same tableau as :func:`solve_max_slack` on the negated costs; the
    duals of the result are left empty.
    """
    return _simplex(c, A, b, False)
