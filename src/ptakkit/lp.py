"""Exact simplex on a condensed integer tableau, with Bland's pivot rule.

One two-phase method, :func:`_two_phase`, over mixed ``<= / == / >=`` rows,
with two entry points:

* :func:`solve_min_general` -- minimize; value and primal only.
* :func:`solve_max_slack` -- maximize over ``Ax <= b, x >= 0`` with ``b >= 0``
  (all-slack basis, so phase 1 is empty), adding the dual multipliers read
  off the final reduced costs.

Variables have labels: x is ``0..n-1``, then the slack and surplus columns,
then the artificials.  The tableau is condensed: it keeps one row per basic
variable and one column per nonbasic one, plus the right-hand side, since a
basic variable's column is a unit vector.  Its entries are integers
``T = D * (true tableau)``, where ``D > 0`` is the absolute determinant of
the current basis and starts at 1.  A pivot on ``p = T[r][c]`` (Bareiss,
*Math. Comp.* 1968; Edmonds) replaces every other row, cost rows included,
by ``(p * T[i] - T[i][c] * T[r]) // D``, a division that is always exact,
keeps the pivot row and sets ``D = p``.  The entering and leaving variables
then swap labels, and column ``c`` becomes the leaving variable's: it holds
``-T[i][c]`` in the other rows and cost rows and the old ``D`` in the pivot
row, which is what the pivot makes of its unit column.  So a pivot updates
``r * (n + 1)`` entries, where the full tableau has ``r`` more columns.  No
gcd is taken during a solve, and entries stay minors of the input, so they
grow only as far as those do.  Each cost row carries a further fixed
positive factor that makes the costs integers.  The artificials' columns are
deleted once phase 1 ends.

Inputs may be ints or Fractions: each row is multiplied by the lcm of its
denominators while slack and artificial columns stay unit.  That rescales
the row's slack and artificial, so a row's dual is its slack's reduced cost
(0 while the slack is basic) times the row's factor, and phase 1 weights
each artificial by the inverse of its row's factor to keep the objective the
plain sum of artificials.

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
from math import lcm
from typing import Sequence

from .rationals import ZERO, as_fraction, scaled_ints


class UnboundedError(ArithmeticError):
    """The linear program has unbounded objective."""


class InfeasibleError(ArithmeticError):
    """The linear program has no feasible point."""


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


def _pivot(rows, costs, basis, nonbasic, d, pr, pc) -> int:
    """Pivot on ``rows[pr][pc]`` over determinant ``d``; returns the new one.

    The entering variable of column ``pc`` and the leaving variable of row
    ``pr`` swap labels, and the column becomes the leaving variable's.
    """
    prow = rows[pr]
    p = prow[pc]
    for i in range(len(rows)):
        if i != pr:
            rows[i] = _eliminate(rows[i], prow, p, d, pc)
    for z in costs:
        z[:] = _eliminate(z, prow, p, d, pc)
    prow[pc] = d
    basis[pr], nonbasic[pc] = nonbasic[pc], basis[pr]
    return p


def _bland_min(rows, z, basis, nonbasic, d) -> tuple[int, int]:
    """Run minimizing simplex to optimality; returns pivot count and determinant."""
    pivots = 0
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
        d = _pivot(rows, [z], basis, nonbasic, d, pr, pc)
        pivots += 1
        order.remove(pc)  # column pc now holds the leaving label
        insort(order, pc, key=label_of)


def _primal(rows, basis, d, n) -> list[Fraction]:
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rows[i][-1], d)
    return x


def _two_phase(c, constraints):
    """The one simplex: minimize ``c.x`` over rows ``(coeffs, sense, rhs)``.

    Returns the result (duals left empty), the final reduced costs keyed by
    nonbasic label (a basic variable's is 0), their scale (the reduced costs
    are these over it) and each row's scale.
    """
    n = len(c)
    rows, senses, scales = [], [], []
    for coeffs, sense, rhs in constraints:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        row, scale = _integer_row([*coeffs, rhs])
        if row[-1] < 0:
            row = [-v for v in row]
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        rows.append(row)
        senses.append(sense)
        scales.append(scale)

    m = len(rows)
    # labels: x is 0..n-1, then a slack for each "<=" row and a surplus for
    # each ">=" row in row order, then an artificial for each non-"<=" row
    art_start = n + m - senses.count("==")
    nonbasic = list(range(n))
    basis, art_rows, surplus = [], [], []
    si, ai = n, art_start  # next slack/surplus and next artificial label
    for i, sense in enumerate(senses):
        if sense == "<=":
            basis.append(si)
        else:
            if sense == ">=":
                nonbasic.append(si)
                surplus.append(i)
            basis.append(ai)
            art_rows.append(i)
            ai += 1
        if sense != "==":
            si += 1
    if surplus:
        rows = [row[:n] + [-int(i == k) for k in surplus] + row[n:] for i, row in enumerate(rows)]

    pivots, d = 0, 1
    if art_rows:
        # phase 1: minimize the artificial total, priced out over the art basis;
        # artificial i weighs art_scale / (its row's scale)
        art_scale = lcm(*(scales[i] for i in art_rows))
        z1 = [0] * (len(nonbasic) + 1)
        for i in art_rows:
            weight = art_scale // scales[i]
            z1 = [a - weight * b for a, b in zip(z1, rows[i])]
        count, d = _bland_min(rows, z1, basis, nonbasic, d)
        pivots += count
        if z1[-1] != 0:
            raise InfeasibleError("phase 1 ended with positive artificial mass")
        # clear any artificial still basic at zero level
        drop = []
        for i in range(m):
            if basis[i] >= art_start:
                row = rows[i]
                pc = min((j for j, label in enumerate(nonbasic) if label < art_start and row[j]),
                         key=nonbasic.__getitem__, default=-1)
                if pc < 0:
                    drop.append(i)
                else:
                    d = _pivot(rows, [], basis, nonbasic, d, i, pc)
                    pivots += 1
                    if d < 0:  # pivoted on a negative entry: keep D positive
                        rows = [[-v for v in row] for row in rows]
                        d = -d
        for i in reversed(drop):
            del rows[i]
            del basis[i]
        # the artificials are all nonbasic now: delete their columns
        keep = [j for j, label in enumerate(nonbasic) if label < art_start]
        nonbasic = [nonbasic[j] for j in keep]
        rows = [[row[j] for j in keep] + row[-1:] for row in rows]

    cost, cscale = _integer_row(c)
    # z = d * cscale * (c priced out over the basis)
    z = [d * cost[label] if label < n else 0 for label in nonbasic] + [0]
    for i, bi in enumerate(basis):
        if bi < n and cost[bi]:
            f = cost[bi]
            z = [a - f * b for a, b in zip(z, rows[i])]
    count, d = _bland_min(rows, z, basis, nonbasic, d)
    pivots += count
    res = LPResult(objective=Fraction(-z[-1], d * cscale), x=_primal(rows, basis, d, n),
                   duals=[], pivots=pivots)
    return res, dict(zip(nonbasic, z)), d * cscale, scales


def solve_max_slack(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                    b: Sequence[Fraction]) -> LPResult:
    """Maximize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    ``duals[i]`` is the optimal multiplier of row i (``>= 0``, with
    ``duals . b == objective`` by strong duality).
    """
    if any(bi < 0 for bi in b):
        raise ValueError("slack start needs b >= 0")
    n = len(c)
    res, reduced, zscale, scales = _two_phase([-v for v in c],
                                              [(A[i], "<=", b[i]) for i in range(len(A))])
    res.objective = -res.objective
    # row i's slack has label n + i; its dual is its reduced cost while nonbasic
    res.duals = [Fraction(scale * reduced[n + i], zscale) if n + i in reduced else ZERO
                 for i, scale in enumerate(scales)]
    return res


def solve_min_general(c: Sequence[Fraction],
                      constraints: Sequence[tuple[Sequence[Fraction], str, Fraction]]) -> LPResult:
    """Minimize ``c.x`` over rows ``(coeffs, sense, rhs)`` with ``x >= 0``.

    ``sense`` is one of ``"<=", ">=", "=="``.  Full two-phase method; the
    duals slot of the result is left empty.
    """
    return _two_phase(c, constraints)[0]
