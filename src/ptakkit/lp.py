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
entries stay minors of the input, so they grow only as far as those do.  The
cost row carries a further fixed positive factor that makes the costs
integers.

Inputs may be ints or Fractions: each row is multiplied by the lcm of its
denominators while its slack column stays unit.  That rescales the row's
slack, so a row's dual is its slack's reduced cost (0 while the slack is
basic) times the row's factor.

Bland's rule (the smallest label among negative reduced costs enters, the
smallest basic label among ratio ties leaves) reads the signs of the cost
row and compares ratios by cross-multiplying, so it makes exactly the pivots
a rational tableau would and guarantees termination.  Values become
Fractions once, at the end.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rationals import ZERO, as_fraction, scaled_ints


class UnboundedError(ArithmeticError):
    """The linear program has unbounded objective."""


@dataclass
class LPResult:
    objective: Fraction
    x: list[Fraction]
    duals: list[Fraction]
    pivots: int


def _integer_row(values) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, as ints, and that lcm."""
    if {int}.issuperset(map(type, values)):
        return list(values), 1
    return scaled_ints([as_fraction(v) for v in values])


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


def _simplex(c, A, b):
    """The one simplex: minimize ``c.x`` over ``Ax <= b, x >= 0``, ``b >= 0``.

    Returns the result (duals left empty), the final reduced costs keyed by
    nonbasic label (a basic variable's is 0), their scale (the reduced costs
    are these over it) and each row's scale.
    """
    n = len(c)
    if len(b) != len(A):
        raise ValueError(f"b has {len(b)} entries for {len(A)} rows of A")
    rows, scales = [], []
    for i, (coeffs, rhs) in enumerate(zip(A, b)):
        if len(coeffs) != n:
            raise ValueError(f"row {i} of A has {len(coeffs)} entries, expected {n}")
        row, scale = _integer_row([*coeffs, rhs])
        if row[-1] < 0:
            raise ValueError(f"row {i}: slack start needs b >= 0")
        rows.append(row)
        scales.append(scale)
    basis = list(range(n, n + len(rows)))
    nonbasic = list(range(n))
    cost, cscale = _integer_row(c)
    z = [*cost, 0]  # cscale * c, priced out over the all-slack basis
    pivots, d = _bland_min(rows, z, basis, nonbasic)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rows[i][-1], d)
    res = LPResult(objective=Fraction(-z[-1], d * cscale), x=x, duals=[], pivots=pivots)
    return res, dict(zip(nonbasic, z)), d * cscale, scales


def solve_max_slack(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                    b: Sequence[Fraction]) -> LPResult:
    """Maximize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    ``duals[i]`` is the optimal multiplier of row i (``>= 0``, with
    ``duals . b == objective`` by strong duality).
    """
    n = len(c)
    res, reduced, zscale, scales = _simplex([-v for v in c], A, b)
    res.objective = -res.objective
    # row i's slack has label n + i; its dual is its reduced cost while nonbasic
    res.duals = [Fraction(scale * reduced[n + i], zscale) if n + i in reduced else ZERO
                 for i, scale in enumerate(scales)]
    return res


def solve_min_general(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                      b: Sequence[Fraction]) -> LPResult:
    """Minimize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    The same tableau as :func:`solve_max_slack` on the negated costs; the
    duals slot of the result is left empty.
    """
    return _simplex(c, A, b)[0]
