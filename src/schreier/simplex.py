"""Exact rational linear programming (two-phase primal simplex).

Solves   min sum(lam)  s.t.  A lam = b,  lam >= 0   over Fractions, and
returns an optimal solution of the dual   max <b, y>  s.t.  A^T y <= 1
with it.  Bland's rule guarantees termination.  Problem sizes here are
small in the row dimension (one row per coordinate) with possibly many
columns.

`Master` is the one tableau solver.  It keeps its tableau after a solve,
so column generation adds a column and resumes phase 2 from the current
basis instead of solving again: the artificial block of the tableau holds
B^-1, which gives the new column B^-1 a, and the objective row's artificial
block holds -y, which gives its reduced cost 1 - <y, a>.  A column that is
a unit vector in the sign-normalised rows starts basic in its row, so a
master that contains +-e_i for every row starts at a feasible basis and
phase 1 has nothing to do.  `min_l1_combination` is a one-shot `Master`.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Infeasible(Exception):
    pass


def _pivot(tableau, basis, row, col):
    line = tableau[row]
    piv = line[col]
    # only the nonzero entries of the pivot row change the other rows
    nonzero = [(j, v / piv) for j, v in enumerate(line) if v]
    for j, v in nonzero:
        line[j] = v
    for r, other in enumerate(tableau):
        factor = other[col]
        if r != row and factor:
            for j, p in nonzero:
                other[j] -= factor * p
    basis[row] = col


def _price_out(tableau, basis, costed):
    """Make the objective row's reduced costs zero on the basic columns;
    the basic columns `costed` selects cost 1, the others 0."""
    obj = tableau[-1]
    for line, j in zip(tableau, basis):
        if costed(j):
            for k, w in enumerate(line):
                if w:
                    obj[k] -= w


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


class Master:
    """min sum(lam)  s.t.  A lam = target,  lam >= 0  over the columns given
    so far (each a length-m list of Fractions), kept optimal as columns are
    added.  Raises Infeasible if the first columns cannot write the target.
    """

    def __init__(self, columns, target, m):
        n = len(columns)
        # normalize rows so that b >= 0 for the phase-1 start
        self.signs = signs = [ONE if v >= 0 else -ONE for v in target]
        b = [v * s for v, s in zip(target, signs)]
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
        # crash basis: a unit column replaces its row's artificial; the basis
        # matrix stays the identity, so the tableau needs no pivot
        for j, col in enumerate(cols):
            nonzero = [i for i in range(m) if col[i]]
            if len(nonzero) == 1 and col[nonzero[0]] == 1 and basis[nonzero[0]] >= n:
                basis[nonzero[0]] = j

        # phase 1: drive artificials to zero
        tableau.append([ZERO] * n + [ONE] * m + [ZERO])
        _price_out(tableau, basis, lambda j: j >= n)
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
        _price_out(tableau, basis, lambda j: j < n)
        _run_simplex(tableau, basis, n)
        self.tableau, self.basis, self.n, self.m = tableau, basis, n, m

    def add_column(self, column):
        """Add one column and restore optimality by phase-2 pivots from the
        current basis."""
        tableau, basis, n, m = self.tableau, self.basis, self.n, self.m
        a = [(i, column[i] * self.signs[i]) for i in range(m) if column[i]]
        # B^-1 a from the artificial block; the objective row's artificial
        # block holds -y, so the reduced cost is 1 - <y, a>
        for line in tableau:
            line.insert(n, sum((line[n + i] * v for i, v in a), ZERO))
        tableau[-1][n] += ONE
        for r in range(m):
            if basis[r] >= n:
                basis[r] += 1
        self.n = n + 1
        # an artificial left basic at level 0 on a row the old columns could
        # not reach leaves by a degenerate pivot before the new column can
        # move its row
        for r in range(m):
            if basis[r] > n and tableau[r][n]:
                _pivot(tableau, basis, r, n)
        _run_simplex(tableau, basis, self.n)

    @property
    def weights(self):
        weights = [ZERO] * self.n
        for r, j in enumerate(self.basis):
            if j < self.n:
                weights[j] = self.tableau[r][-1]
        return weights

    @property
    def value(self):
        return sum(self.weights, ZERO)

    @property
    def duals(self):
        """An optimal dual solution y, one entry per row: <target, y> equals
        the value and <column, y> <= 1 for every column."""
        # the artificial columns hold B^-1 and cost 0 in phase 2, so their
        # reduced costs are -y of the sign-normalised rows
        obj = self.tableau[-1]
        return [-obj[self.n + i] * s for i, s in enumerate(self.signs)]


def min_l1_combination(columns, target, m):
    """Minimal sum of nonnegative weights writing `target` as a combination
    of `columns` (each a length-m list of Fractions).  Returns (value,
    weights, duals) or raises Infeasible.

    `duals` is an optimal dual solution y, one entry per row: <target, y>
    equals value and <column, y> <= 1 for every column.
    """
    master = Master(columns, target, m)
    return (master.value, master.weights, master.duals)
