"""Exact rational linear programming (two-phase primal simplex).

Solves   min sum(lam)  s.t.  A lam = b,  lam >= 0   over Fractions, and
returns an optimal solution of the dual   max <b, y>  s.t.  A^T y <= 1
with it.  Bland's rule guarantees termination.  Problem sizes here are
small in the row dimension (one row per coordinate) with possibly many
columns.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Infeasible(Exception):
    pass


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col]:
            factor = line[col]
            tableau[r] = [v - factor * p for v, p in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(tableau, basis, ncols):
    # objective row is tableau[-1]; minimize, so pivot while a reduced cost < 0
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        best = None
        for r in range(len(tableau) - 1):
            if tableau[r][col] > 0:
                ratio = tableau[r][-1] / tableau[r][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            raise Infeasible("unbounded objective")  # cannot happen with lam >= 0, cost 1
        _pivot(tableau, basis, best[1], col)


def min_l1_combination(columns, target, m):
    """Minimal sum of nonnegative weights writing `target` as a combination
    of `columns` (each a length-m list of Fractions).  Returns (value,
    weights, duals) or raises Infeasible.

    `duals` is an optimal dual solution y, one entry per row: <target, y>
    equals value and <column, y> <= 1 for every column.
    """
    n = len(columns)
    b = list(target)
    # normalize rows so that b >= 0 for the phase-1 start
    signs = [ONE if v >= 0 else -ONE for v in b]
    b = [v * s for v, s in zip(b, signs)]
    cols = [[col[i] * signs[i] for i in range(m)] for col in columns]

    # tableau columns: structural (n) + artificial (m) + rhs
    width = n + m + 1
    tableau = []
    for i in range(m):
        row = [ZERO] * width
        for j in range(n):
            row[j] = cols[j][i]
        row[n + i] = ONE
        row[-1] = b[i]
        tableau.append(row)
    basis = [n + i for i in range(m)]

    # phase 1: drive artificials to zero
    obj = [ZERO] * width
    for j in range(n + m):
        if j >= n:
            obj[j] = ONE
    tableau.append(obj)
    for i in range(m):  # price out the starting basis
        tableau[-1] = [v - w for v, w in zip(tableau[-1], tableau[i])]
    _run_simplex(tableau, basis, n + m)
    if tableau[-1][-1] != 0:
        raise Infeasible("target is not in the cone of the columns")

    # drop artificials still in the basis (degenerate rows)
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j]), None)
            if col is not None:
                _pivot(tableau, basis, r, col)

    # phase 2: objective sum(lam)
    tableau[-1] = [ONE] * n + [ZERO] * m + [ZERO]
    for r in range(m):
        if basis[r] < n:
            factor = tableau[-1][basis[r]]
            if factor:
                tableau[-1] = [v - factor * w for v, w in zip(tableau[-1], tableau[r])]
    _run_simplex(tableau, basis, n)

    weights = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            weights[basis[r]] = tableau[r][-1]
    value = sum(weights, ZERO)
    # the artificial columns hold B^-1 and cost 0 in phase 2, so their
    # reduced costs are -y of the sign-normalised rows
    duals = [-tableau[-1][n + i] * signs[i] for i in range(m)]
    return (value, weights, duals)
