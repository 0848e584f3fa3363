"""Exact simplex on an integer-preserving tableau, with Bland's pivot rule.

Two entry points:

* :func:`solve_max_slack` -- maximize over ``Ax <= b, x >= 0`` with ``b >= 0``
  (slack basis is immediately feasible, no phase 1), returning primal and the
  dual multipliers read off the final reduced-cost row.
* :func:`solve_min_general` -- two-phase minimization over mixed
  ``<= / == / >=`` rows; value and primal only.

The tableau holds integers ``T = D * (true tableau)``, where ``D > 0`` is the
absolute determinant of the current basis and starts at 1.  A pivot on
``p = T[r][c]`` (Bareiss, *Math. Comp.* 1968; Edmonds) replaces every other
row, cost rows included, by ``(p * T[i] - T[i][c] * T[r]) // D``, a division
that is always exact, keeps the pivot row and sets ``D = p``.  No gcd is taken
during a solve, and entries stay minors of the input, so they grow only as
far as those do.  Each cost row carries a further fixed positive factor that
makes the costs integers.

Inputs may be ints or Fractions: each row is multiplied by the lcm of its
denominators while slack and artificial columns stay unit.  That rescales
the row's slack and artificial, so a row's dual is its slack's reduced cost
times the row's factor, and phase 1 weights each artificial by the inverse
of its row's factor to keep the objective the plain sum of artificials.

Bland's rule (smallest eligible entering index, smallest basic variable among
ratio ties) reads the signs of the cost row and compares ratios by
cross-multiplying, so it makes exactly the pivots a rational tableau would
and guarantees termination.  Values become Fractions once, at the end.
"""

from __future__ import annotations

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
    if all(type(v) is int for v in values):
        return list(values), 1
    return scaled_ints([as_fraction(v) for v in values])


def _eliminate(row, prow, p, d, pc):
    f = row[pc]
    if f:
        return [(p * a - f * b) // d for a, b in zip(row, prow)]
    if p == d:
        return row
    return [p * a // d for a in row]


def _pivot(rows, costs, basis, d, pr, pc) -> int:
    """Pivot on ``rows[pr][pc]`` over determinant ``d``; returns the new one."""
    prow = rows[pr]
    p = prow[pc]
    for i in range(len(rows)):
        if i != pr:
            rows[i] = _eliminate(rows[i], prow, p, d, pc)
    for z in costs:
        z[:] = _eliminate(z, prow, p, d, pc)
    basis[pr] = pc
    return p


def _bland_min(rows, z, basis, ncols, d) -> tuple[int, int]:
    """Run minimizing simplex to optimality; returns pivot count and determinant."""
    pivots = 0
    while True:
        pc = next((j for j in range(ncols) if z[j] < 0), -1)
        if pc < 0:
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
        d = _pivot(rows, [z], basis, d, pr, pc)
        pivots += 1


def _primal(rows, basis, d, n) -> list[Fraction]:
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rows[i][-1], d)
    return x


def solve_max_slack(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                    b: Sequence[Fraction]) -> LPResult:
    """Maximize ``c.x`` subject to ``Ax <= b``, ``x >= 0``, requiring ``b >= 0``.

    ``duals[i]`` is the optimal multiplier of row i (``>= 0``, with
    ``duals . b == objective`` by strong duality).
    """
    m, n = len(A), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("slack start needs b >= 0")
    ncols = n + m
    rows = []
    scales = []
    for i in range(m):
        coeffs, scale = _integer_row([*A[i], b[i]])
        row = coeffs[:n] + [0] * m + coeffs[n:]
        row[n + i] = 1
        rows.append(row)
        scales.append(scale)
    basis = [n + i for i in range(m)]
    # minimize -c.x; slack costs are zero so the initial pricing is direct
    cost, cscale = _integer_row(c)
    z = [-v for v in cost] + [0] * (m + 1)
    pivots, d = _bland_min(rows, z, basis, ncols, 1)
    # z = d * cscale * (reduced costs); its last entry is then c.x
    objective = Fraction(z[-1], d * cscale)
    duals = [Fraction(scales[i] * z[n + i], d * cscale) for i in range(m)]
    return LPResult(objective=objective, x=_primal(rows, basis, d, n), duals=duals,
                    pivots=pivots)


def solve_min_general(c: Sequence[Fraction],
                      constraints: Sequence[tuple[Sequence[Fraction], str, Fraction]]) -> LPResult:
    """Minimize ``c.x`` over rows ``(coeffs, sense, rhs)`` with ``x >= 0``.

    ``sense`` is one of ``"<=", ">=", "=="``.  Full two-phase method; the
    duals slot of the result is left empty.
    """
    n = len(c)
    norm = []
    for coeffs, sense, rhs in constraints:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        row, scale = _integer_row([*coeffs, rhs])
        if row[-1] < 0:
            row = [-v for v in row]
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        norm.append((row, sense, scale))

    m = len(norm)
    n_slack = sum(1 for _, s, _ in norm if s == "<=")
    n_surplus = sum(1 for _, s, _ in norm if s == ">=")
    n_art = sum(1 for _, s, _ in norm if s in (">=", "=="))
    ncols = n + n_slack + n_surplus + n_art
    art_start = n + n_slack + n_surplus
    # phase 1 weighs artificial i by weight[i] = art_scale / (its row's scale)
    art_scale = lcm(*(scale for _, s, scale in norm if s != "<="))

    rows = []
    basis = []
    si = n
    ai = art_start
    art_rows = []
    for i, (coeffs, sense, scale) in enumerate(norm):
        row = coeffs[:n] + [0] * (ncols - n) + coeffs[n:]
        if sense == "<=":
            row[si] = 1
            basis.append(si)
            si += 1
        else:
            if sense == ">=":
                row[si] = -1
                si += 1
            row[ai] = 1
            basis.append(ai)
            art_rows.append((i, art_scale // scale))
            ai += 1
        rows.append(row)

    pivots = 0
    d = 1
    if n_art:
        # phase 1: minimize the artificial total, priced out over the art basis
        z1 = [0] * (ncols + 1)
        for i, weight in art_rows:
            z1 = [a - weight * b for a, b in zip(z1, rows[i])]
            z1[basis[i]] = 0
        count, d = _bland_min(rows, z1, basis, ncols, d)
        pivots += count
        if z1[-1] != 0:
            raise InfeasibleError("phase 1 ended with positive artificial mass")
        # clear any artificial still basic at zero level
        drop = []
        for i in range(m):
            if basis[i] >= art_start:
                pc = next((j for j in range(art_start) if rows[i][j] != 0), None)
                if pc is None:
                    drop.append(i)
                else:
                    d = _pivot(rows, [], basis, d, i, pc)
                    pivots += 1
                    if d < 0:  # pivoted on a negative entry: keep D positive
                        rows = [[-v for v in row] for row in rows]
                        d = -d
        for i in reversed(drop):
            del rows[i]
            del basis[i]
        rows = [row[:art_start] + row[-1:] for row in rows]
        ncols = art_start

    cost, cscale = _integer_row(c)
    # z = d * cscale * (c priced out over the basis)
    z = [d * v for v in cost] + [0] * (ncols - n + 1)
    for i, bi in enumerate(basis):
        if bi < n and cost[bi]:
            f = cost[bi]
            z = [a - f * b for a, b in zip(z, rows[i])]
    count, d = _bland_min(rows, z, basis, ncols, d)
    pivots += count
    return LPResult(objective=Fraction(-z[-1], d * cscale), x=_primal(rows, basis, d, n),
                    duals=[], pivots=pivots)
