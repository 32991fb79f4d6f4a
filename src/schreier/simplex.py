"""Exact rational linear programming for the dual gauge (primal simplex).

Solves   min sum(lam)  s.t.  A lam = b,  lam >= 0   over the rationals, and
returns an optimal solution of the dual   max <b, y>  s.t.  A^T y <= 1
with it.  The columns of A are the 2m unit columns +-e_i of the m rows,
which every master holds, and the columns added since.  Bland's rule
guarantees termination.

The unit columns make every target feasible, and they give the starting
basis: once the rows with a negative target are negated, the unit column
with entry +1 in each row is basic, so B = I and there is no phase 1.  The
unit columns are never stored.  The tableau holds only B^-1, the added
columns and the right-hand side; unit column 2i (+e_(i+1)) or 2i+1
(-e_(i+1)) is read as +-(column i of B^-1), and added columns are numbered
from 2m on, so Bland's rule and the ratio test see every column.

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

`Master` keeps its tableau after a solve, so column generation adds a
column and resumes from the current basis instead of solving again: B^-1
gives the new column B^-1 a, and the objective row's B^-1 block holds -y,
which gives its reduced cost cost - <y, a> (for +-e_i, 1 -+ y_i).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integral(values):
    """Rationals (ints or Fractions) as (integers, L): the values times L,
    the least common multiple of their denominators.  A list of ints is
    returned as it is."""
    if set(map(type, values)) <= {int}:
        return values, 1
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(tableau, basis, row, col, entering, det):
    """Pivot column `col`, whose entries in the rows of the integer tableau
    over `det` are `entering`, into the basis at `row`; returns the new
    common denominator, the pivot entry (positive by the ratio test)."""
    line = tableau[row]
    piv = entering[row]
    for other, factor in zip(tableau, entering):
        if other is line:
            continue
        if factor:
            other[:] = [(piv * w - factor * v) // det for w, v in zip(other, line)]
        elif piv != det:
            other[:] = [piv * w // det for w in other]
    basis[row] = col
    return piv


class Master:
    """min sum(lam)  s.t.  A lam = target,  lam >= 0  over the unit columns
    of the m rows (column 2i is +e_(i+1), column 2i+1 is -e_(i+1)) and the
    columns added so far (each a length-m list of ints or Fractions,
    numbered 2m, 2m+1, ...), kept optimal as columns are added.

    Each row of the tableau holds m + k + 1 integers over the common
    denominator `det` after k additions: its row of B^-1, of the added
    columns and of the right-hand side; the objective row comes last.
    """

    def __init__(self, target, m):
        # negate the rows whose target is negative, so that b >= 0 and the
        # unit column with entry +1 in each row is a feasible basis
        self.flipped = flipped = [v < 0 for v in target[:m]]
        rhs, self.target_scale = _integral(target[:m])
        self.tableau = [[0] * i + [1] + [0] * (m - 1 - i) + [abs(v)] for i, v in enumerate(rhs)]
        # every basic column costs 1, so y = 1 on the sign-normalised rows
        self.tableau.append([-1] * m + [-sum(map(abs, rhs))])
        self.basis = [2 * i + f for i, f in enumerate(flipped)]
        self.costs = []  # of the added columns
        self.m, self.det = m, 1

    def _solve(self):
        """Bland pivots while a reduced cost is negative."""
        tableau, basis, m, flipped = self.tableau, self.basis, self.m, self.flipped
        obj = tableau[-1]
        while True:
            det = self.det
            # the entering column and its entries in every row, the objective
            # row last: first a unit column, which prices negative where
            # |y_i| > 1, the one of its row's pair whose sign in the
            # sign-normalised row is that of y_i
            i = next((i for i in range(m) if abs(obj[i]) > det), None)
            if i is not None:
                sign = -1 if obj[i] > 0 else 1
                col = 2 * i + (flipped[i] ^ (sign < 0))
                entering = [sign * line[i] for line in tableau]
                entering[-1] += det
            else:
                k = next((k for k in range(len(self.costs)) if obj[m + k] < 0), None)
                if k is None:
                    return
                col = 2 * m + k
                entering = [line[m + k] for line in tableau]
            # ratio test: the least rhs / entry over positive entries, compared
            # by cross-multiplication; ties go to the smaller basic index
            best = None
            for r in range(m):
                a = entering[r]
                if a > 0:
                    rhs = tableau[r][-1]
                    if best is None:
                        best, best_a, best_rhs = r, a, rhs
                        continue
                    left, right = rhs * best_a, best_rhs * a
                    if left < right or (left == right and basis[r] < basis[best]):
                        best, best_a, best_rhs = r, a, rhs
            self.det = _pivot(tableau, basis, best, col, entering, det)

    def add_column(self, column, cost=None):
        """Add one column and restore optimality by pivots from the current
        basis.  Without `cost` the column is m rationals; with it, m
        integers standing for column / cost."""
        m = self.m
        if cost is None:
            column, cost = _integral(column[:m])
        a = [(i, -v if self.flipped[i] else v) for i, v in enumerate(column[:m]) if v]
        for line in self.tableau:
            line.insert(-1, sum(line[i] * v for i, v in a))
        self.tableau[-1][-2] += cost * self.det
        self.costs.append(cost)
        # the other reduced costs are nonnegative at the optimum just left
        if self.tableau[-1][-2] < 0:
            self._solve()

    @property
    def weights(self):
        """The weight of every column, the 2m unit columns first."""
        m, costs = self.m, self.costs
        weights = [Fraction(0)] * (2 * m + len(costs))
        den = self.det * self.target_scale
        for line, j in zip(self.tableau, self.basis):
            weights[j] = Fraction(line[-1] * (costs[j - 2 * m] if j >= 2 * m else 1), den)
        return weights

    @property
    def value(self):
        # the objective row's rhs holds -sum(cost * scaled weight)
        return Fraction(-self.tableau[-1][-1], self.det * self.target_scale)

    @property
    def dual_numerators(self):
        """Integers whose quotients by `det` are the duals."""
        # the objective row's B^-1 block holds -y of the sign-normalised rows
        obj = self.tableau[-1]
        return [obj[i] if f else -obj[i] for i, f in enumerate(self.flipped)]

    @property
    def duals(self):
        """An optimal dual solution y, one entry per row: <target, y> equals
        the value and <column, y> <= 1 for every column."""
        return [Fraction(v, self.det) for v in self.dual_numerators]


def min_l1_combination(columns, target, m):
    """Minimal sum of nonnegative weights writing `target` as a combination
    of the unit columns +-e_i and `columns` (each a length-m list of ints or
    Fractions): one `Master`, with `columns` added one at a time.  Returns
    (value, weights, duals), the weights of the 2m unit columns first.

    `duals` is an optimal dual solution y, one entry per row: <target, y>
    equals value and <column, y> <= 1 for every column.  The benchmark's
    tracer wraps this name; it can go once the tracer wraps `Master`.
    """
    master = Master(target, m)
    for column in columns:
        master.add_column(column)
    return master.value, master.weights, master.duals
