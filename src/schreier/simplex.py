"""Exact rational linear programming (two-phase primal simplex).

Solves   min sum(lam)  s.t.  A lam = b,  lam >= 0   over the rationals, and
returns an optimal solution of the dual   max <b, y>  s.t.  A^T y <= 1
with it.  Bland's rule guarantees termination.  Problem sizes here are
small in the row dimension (one row per coordinate) with possibly many
columns.

The tableau is fraction-free (integer-preserving, after Edmonds and
Bareiss): it holds integers over one positive common denominator `det`,
the absolute value of the basis determinant, and a pivot on the entry p of
row r updates every other row by exact integer division,

    t[i][j]  <-  (p t[i][j] - t[i][col] t[r][j]) / det,    det <-  p,

since each entry times the determinant is a minor of the integer data.
A rational column enters once, as integers over the least common multiple
of its denominators, and that multiple becomes its cost, so the column's
weight is scaled and the duals are not; the target is scaled the same way.
Every comparison of the simplex (signs of reduced costs, the ratio test by
cross-multiplication, Bland's ties) is the one a Fraction tableau makes,
so the pivot path is the same.  `value`, `weights` and `duals` become
Fractions only when read.

`Master` is the one tableau solver.  It keeps its tableau after a solve,
so column generation adds a column and resumes phase 2 from the current
basis instead of solving again: the artificial block of the tableau holds
B^-1, which gives the new column B^-1 a, and the objective row's artificial
block holds -y, which gives its reduced cost cost - <y, a>.  A column that
is a unit vector in the sign-normalised rows starts basic in its row, so a
master that contains +-e_i for every row starts at a feasible basis and
phase 1 has nothing to do.  `min_l1_combination` is a one-shot `Master`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm


class Infeasible(Exception):
    pass


def _integral(values):
    """Rationals (ints or Fractions) as (integers, L): the values times L,
    the least common multiple of their denominators.  A list of ints is
    returned as it is."""
    if set(map(type, values)) <= {int}:
        return values, 1
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(tableau, basis, row, col, det):
    """Pivot on (row, col) of the integer tableau over `det`; returns the
    new common denominator, the pivot entry."""
    line = tableau[row]
    piv = line[col]
    if piv < 0:  # negate the pivot row so that the denominator stays positive
        line[:] = [-v for v in line]
        piv = -piv
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            other[:] = [(piv * w - factor * v) // det for w, v in zip(other, line)]
        elif piv != det:
            other[:] = [piv * w // det for w in other]
    basis[row] = col
    return piv


def _price_out(tableau, basis, cost):
    """Make the objective row's reduced costs zero on the basic columns,
    basic column j costing cost(j)."""
    obj = tableau[-1]
    for line, j in zip(tableau, basis):
        weight = cost(j)
        if weight:
            for k in compress(range(len(line)), line):
                obj[k] -= weight * line[k]


def _run_simplex(tableau, basis, ncols, det):
    """Bland pivots while a reduced cost is negative; returns the final
    common denominator.  The objective row is tableau[-1]."""
    rows = range(len(tableau) - 1)
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return det
        # ratio test: the least rhs / entry over positive entries, compared
        # by cross-multiplication; ties go to the smaller basic index
        best = None
        for r in rows:
            a = tableau[r][col]
            if a > 0:
                rhs = tableau[r][-1]
                if best is None:
                    best, best_a, best_rhs = r, a, rhs
                    continue
                left, right = rhs * best_a, best_rhs * a
                if left < right or (left == right and basis[r] < basis[best]):
                    best, best_a, best_rhs = r, a, rhs
        if best is None:
            raise Infeasible("unbounded objective")  # cannot happen with lam >= 0, cost > 0
        det = _pivot(tableau, basis, best, col, det)


class Master:
    """min sum(lam)  s.t.  A lam = target,  lam >= 0  over the columns given
    so far (each a length-m list of ints or Fractions), kept optimal as
    columns are added.  Raises Infeasible if the first columns cannot write
    the target.  The tableau holds integers over the common denominator
    `det`.
    """

    def __init__(self, columns, target, m):
        n = len(columns)
        # negate the rows whose target is negative, so that b >= 0 for the
        # phase-1 start; the other rows keep their entries
        self.flipped = flipped = [v < 0 for v in target]
        scaled = [_integral(col) for col in columns]
        self.costs = [cost for _, cost in scaled]
        rhs, self.target_scale = _integral(target[:m])

        # tableau columns: structural (n) + artificial (m) + rhs
        tableau = []
        for i, entries in zip(range(m), zip(*[col for col, _ in scaled]) if n else [()] * m):
            if flipped[i]:
                row = [-v for v in entries] + [0] * m + [-rhs[i]]
            else:
                row = list(entries) + [0] * m + [rhs[i]]
            row[n + i] = 1
            tableau.append(row)
        basis = [n + i for i in range(m)]
        # crash basis: a unit column of cost 1 replaces its row's artificial;
        # the basis matrix stays the identity, so the tableau needs no pivot
        for j, (col, cost) in enumerate(scaled):
            if cost == 1:
                nonzero = list(compress(range(m), col))
                if len(nonzero) == 1:
                    i = nonzero[0]
                    if tableau[i][j] == 1 and basis[i] >= n:
                        basis[i] = j

        # phase 1: drive artificials to zero
        tableau.append([0] * n + [1] * m + [0])
        _price_out(tableau, basis, lambda j: 1 if j >= n else 0)
        det = _run_simplex(tableau, basis, n + m, 1)
        if tableau[-1][-1] != 0:
            raise Infeasible("target is not in the cone of the columns")

        # drop artificials still in the basis (degenerate rows)
        for r in range(m):
            if basis[r] >= n:
                col = next((j for j in range(n) if tableau[r][j]), None)
                if col is not None:
                    det = _pivot(tableau, basis, r, col, det)

        # phase 2: objective sum(lam), each scaled column costing its scale
        costs = self.costs
        tableau[-1] = [cost * det for cost in costs] + [0] * (m + 1)
        _price_out(tableau, basis, lambda j: costs[j] if j < n else 0)
        self.det = _run_simplex(tableau, basis, n, det)
        self.tableau, self.basis, self.n, self.m = tableau, basis, n, m

    def add_column(self, column, cost=None):
        """Add one column and restore optimality by phase-2 pivots from the
        current basis.  Without `cost` the column is m rationals; with it,
        m integers standing for column / cost."""
        tableau, basis, n, m = self.tableau, self.basis, self.n, self.m
        if cost is None:
            column, cost = _integral(column[:m])
        a = [(i, -v if self.flipped[i] else v) for i, v in enumerate(column[:m]) if v]
        # B^-1 a from the artificial block; the objective row's artificial
        # block holds -y, so the reduced cost is cost - <y, a>
        for line in tableau:
            line.insert(n, sum(line[n + i] * v for i, v in a))
        tableau[-1][n] += cost * self.det
        self.costs.append(cost)
        for r in range(m):
            if basis[r] >= n:
                basis[r] += 1
        self.n = n + 1
        # an artificial left basic at level 0 on a row the old columns could
        # not reach leaves by a degenerate pivot before the new column can
        # move its row
        for r in range(m):
            if basis[r] > n and tableau[r][n]:
                self.det = _pivot(tableau, basis, r, n, self.det)
        self.det = _run_simplex(tableau, basis, self.n, self.det)

    @property
    def weights(self):
        weights = [Fraction(0)] * self.n
        den = self.det * self.target_scale
        for r, j in enumerate(self.basis):
            if j < self.n:
                weights[j] = Fraction(self.tableau[r][-1] * self.costs[j], den)
        return weights

    @property
    def value(self):
        # the objective row's rhs holds -sum(cost * scaled weight)
        return Fraction(-self.tableau[-1][-1], self.det * self.target_scale)

    @property
    def dual_numerators(self):
        """Integers whose quotients by `det` are the duals."""
        # the artificial columns hold B^-1 and cost 0 in phase 2, so their
        # reduced costs are -y of the sign-normalised rows
        obj, n = self.tableau[-1], self.n
        return [obj[n + i] if f else -obj[n + i] for i, f in enumerate(self.flipped)]

    @property
    def duals(self):
        """An optimal dual solution y, one entry per row: <target, y> equals
        the value and <column, y> <= 1 for every column."""
        return [Fraction(v, self.det) for v in self.dual_numerators]


def min_l1_combination(columns, target, m):
    """Minimal sum of nonnegative weights writing `target` as a combination
    of `columns` (each a length-m list of ints or Fractions).  Returns
    (value, weights, duals) or raises Infeasible.

    `duals` is an optimal dual solution y, one entry per row: <target, y>
    equals value and <column, y> <= 1 for every column.
    """
    master = Master(columns, target, m)
    return (master.value, master.weights, master.duals)
