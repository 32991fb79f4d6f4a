"""Norming functionals for Tsirelson-type norms, and the dual gauge.

The norm ||.||_(F,c) is realized as a supremum over the functional set
generated from the coordinate functionals by

    f  =  c * (f_1 + ... + f_k),   k >= 2,

where the supports of the f_j are successive and their minima form a member
of F.  Generation is graded by depth.  For a spreading family F, at depth
>= |supp(x)| the supremum over the set equals the norm (tested, not
assumed).  Without spreading it can fall short: a block's norm need not use
the block's minimum, so the matching functional's support minima can lie to
the right of the block minima, and only spreading keeps them admissible.
`norm_via_functionals` therefore rejects non-spreading families.

The best functional against a given vector is found without generating the
set, by a dynamic program over (min, max) support signatures.  It evaluates
the functional norm and prices the columns of the dual gauge, which is
computed by exact column generation: a rational simplex over the columns
found so far, extended by the functional its duals rate highest.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from . import simplex
from .norms import NormError
from .vectors import SparseVec


class FunctionalSet:
    """Generated norming functionals over a bounded index range.

    `depths` maps each functional (a SparseVec) to the generation depth at
    which it first appeared.
    """

    def __init__(self, depths):
        self.depths = depths

    def __iter__(self):
        return iter(self.depths)

    def __len__(self):
        return len(self.depths)

    def __contains__(self, f):
        return f in self.depths


def _generate(family, c, indices, depth, signed, budget):
    indices = tuple(sorted(indices))
    base = [SparseVec([(i, Fraction(1))]) for i in indices]
    if signed:
        base += [f.scale(-1) for f in base]
    depths = {f: 0 for f in base}
    current = set(depths)
    for level in range(1, depth + 1):
        # admissibility sees only the support minima, so the pool is
        # grouped by minimum and each minimum is tested once per chain
        groups = {}
        for f in sorted(current, key=lambda f: (f.support, f.entries)):
            groups.setdefault(f.support[0], []).append(f)
        minima = sorted(groups)
        new = set()

        def combine(chosen, mins, last_max):
            if len(depths) + len(new) > budget:
                raise NormError("functional generation budget exceeded")
            if len(chosen) >= 2:
                total = chosen[0]
                for f in chosen[1:]:
                    total = total.add(f)
                new.add(total.scale(c))
            for m in minima[bisect_right(minima, last_max):]:
                if family.contains(mins + (m,)):
                    for f in groups[m]:
                        combine(chosen + [f], mins + (m,), f.support[-1])

        combine([], (), 0)
        fresh = new - current
        for f in fresh:
            depths[f] = level
        if not fresh:
            break
        current |= fresh
    return depths


def norming_set(params, bound, depth, signed=True, budget=2_000_000):
    """The functional set K_depth over indices [1..bound]."""
    depths = _generate(params.family, params.c, range(1, bound + 1), depth, signed, budget)
    return FunctionalSet(depths)


def _best_functional(params, x, depth):
    """Maximum of <f, x> over the signed functional set K_depth, and a
    functional attaining it.

    Uses sign symmetry of the generated set: the supremum over all signed
    functionals equals the supremum of <f, |x|> over positive ones, and the
    positive maximiser takes the signs of x.  Two exact reductions keep the
    evaluation finite at scale.  The pairing is linear in the summands of
    f = c(f_1 + ... + f_k), and the combination constraints (successive
    supports, minima in the family) see only the minimum and maximum of
    each summand's support, so among functionals sharing a (min, max)
    signature only the best pairing value can ever appear in an optimal
    combination.  The levelwise state is therefore one value per signature,
    iterated to its fixed point, which is reached by level |supp(x)| at the
    latest.  Each value carries the tree of its combination: a coordinate
    index at a leaf, a tuple of subtrees at a combination.  Trees are
    immutable, so a later improvement of a signature leaves the trees built
    from its earlier value, and their depths, unchanged.
    """
    if not x:
        return Fraction(0), SparseVec([])
    fam = params.family
    c = params.c
    ax = x.abs()
    pool = {(i, i): (ax[i], i) for i in x.support}

    for _ in range(depth):
        new = {}
        sigs = sorted(pool)

        def combine(mins, last_max, total, parts):
            if len(mins) >= 2:
                sig = (mins[0], last_max)
                val = c * total
                if sig not in new or val > new[sig][0]:
                    new[sig] = (val, parts)
            for (m, mx) in sigs:
                if m > last_max and fam.contains(mins + (m,)):
                    val, tree = pool[(m, mx)]
                    combine(mins + (m,), mx, total + val, parts + (tree,))

        combine((), 0, Fraction(0), ())
        improved = False
        for sig, entry in new.items():
            if sig not in pool or entry[0] > pool[sig][0]:
                pool[sig] = entry
                improved = True
        if not improved:
            break
    value, tree = max(pool.values(), key=lambda entry: entry[0])

    entries = []

    def unfold(node, coeff):
        if isinstance(node, int):
            entries.append((node, coeff if x[node] > 0 else -coeff))
        else:
            for child in node:
                unfold(child, coeff * c)

    unfold(tree, Fraction(1))
    return value, SparseVec(entries)


def norm_via_functionals(params, x, depth=None):
    """Norm of x as the supremum of <f, x> over the generated functional set
    K_depth (by default depth |supp(x)|, where the supremum is the norm).
    The family must be spreading."""
    if not params.family.spreading:
        raise NormError("the functional route needs a spreading family, not %s"
                        % params.family.descriptor())
    if depth is None:
        depth = len(x)
    return _best_functional(params, x, depth)[0]


def dual_norm(params, g, bound, depth, functionals=None):
    """Gauge of the convex hull of the generated signed functional set.

    Exact minimum of sum lam_j over decompositions g = sum lam_j f_j with
    lam_j >= 0 and f_j in norming_set(params, bound, depth); at sufficient
    depth this is the dual norm restricted to the span.

    Solved by column generation: a restricted master LP over the columns
    found so far, starting from the coordinate functionals +-e_i (so it is
    always feasible), returns its value and row duals y.  The signature
    dynamic program prices the whole set at once, finding the f in K_depth
    that maximises <f, y>.  While that maximum exceeds 1 the maximiser is a
    violated column and joins the master; otherwise y is dual feasible for
    the full LP, <g, y> equals the master value, and that value is exact.
    Each added column is new, as every master column pairs with y to at
    most 1, and the set is finite, so the loop terminates.

    `functionals` is accepted for compatibility and unused: pricing never
    materialises the set.
    """
    if bound < 1:
        raise NormError("functional bound must be at least 1, got %d" % bound)
    if depth < 0:
        raise NormError("generation depth must be nonnegative, got %d" % depth)
    if not g:
        return Fraction(0)
    if g.support[-1] > bound:
        raise NormError("support of g exceeds the functional bound")
    rows = range(1, bound + 1)
    columns = [[Fraction(s) if j == i else Fraction(0) for j in rows]
               for i in rows for s in (1, -1)]
    target = [g[i] for i in rows]
    while True:
        value, _, duals = simplex.min_l1_combination(columns, target, bound)
        price, f = _best_functional(params, SparseVec(zip(rows, duals)), depth)
        if price <= 1:
            return value
        columns.append([f[i] for i in rows])
