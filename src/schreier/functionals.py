"""Norming functionals for Tsirelson-type norms, and the dual gauge.

The norm ||.||_(F,c) is realized as a supremum over the functional set
generated from the coordinate functionals by

    f  =  c * (f_1 + ... + f_k),   k >= 2,

where the supports of the f_j are successive and their minima form a member
of F.  Generation is graded by depth.  Every coefficient is +-c^d, so
generation holds a functional as (index, code) pairs, d for +c^d and ~d for
-c^d, and makes the Fractions once at the end.  Each level scales every
functional of the pool by c once (d -> d + 1); since the summands' supports
are successive, a combination is the concatenation of its summands' scaled
entries and is canonical as built, and each minimum added to a chain is one
step of the family's residual state (`initial_state`/`step`), for a fine
family below w^w one cached ordinal step.  For a spreading family F, at depth
>= |supp(x)| the supremum over the set equals the norm (tested, not
assumed).  Without spreading it can fall short: a block's norm need not use
the block's minimum, so the matching functional's support minima can lie to
the right of the block minima, and only spreading keeps them admissible.
`norm_via_functionals` therefore rejects non-spreading families.

The best functional against a given vector is found without generating the
set, by a dynamic program over (min, max) support signatures.  It runs on
integers, the values scaled by a common denominator, and reads each chain of
minima through the family's residual state as generation does.  In a
spreading family a chain that the largest minimum cannot extend is not
scanned further, in generation or in the DP.  The DP evaluates the
functional norm and prices the columns of the dual gauge, which is computed
by exact column generation: a fraction-free simplex master over the columns
found so far, extended by the functional its duals rate highest.  The whole
loop runs on integers: the DP's leaves are the master's dual numerators,
the maximiser unfolds into an integer column, and only the final value
becomes a Fraction.  The master is built once per gauge and resumes from
its last basis after each added column.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from . import simplex
from .families import BudgetExceeded
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
    # functionals are held as tuples of (index, code) with code d for +c^d
    # and ~d for -c^d (injective as 0 < c < 1), so sets hash only ints;
    # scaling by c is d -> d + 1, ~d -> ~(d + 1)
    base = [((i, 0),) for i in sorted(indices)]
    if signed:
        base += [((i, ~0),) for ((i, _),) in base]
    known = dict.fromkeys(base, 0)  # each functional -> its first depth
    start = family.initial_state()
    # sort the pool by support, then by coefficient value, as the Fractions
    # would sort: -1 < -c < ... < -c^depth < c^depth < ... < c < 1
    rank = lambda d: -d if d >= 0 else -d - 2 * depth - 2
    for level in range(1, depth + 1):
        # the pool grouped by support minimum, each functional scaled by c
        # once and kept with its support maximum
        groups = {}
        for e in sorted(known, key=lambda e: (tuple(i for i, _ in e), tuple(rank(d) for _, d in e))):
            scaled = tuple((i, d + 1 if d >= 0 else d - 1) for i, d in e)
            groups.setdefault(e[0][0], []).append((scaled, e[-1][0]))
        minima = sorted(groups)
        # in a spreading family a chain that the largest minimum cannot
        # extend admits no smaller one either: one step answers for the scan
        highest = minima[-1] if family.spreading else None
        new = set()

        def combine(entries, k, state, last_max):
            if len(known) + len(new) > budget:
                raise NormError("functional generation budget exceeded")
            if k >= 2:
                new.add(entries)
            if highest is not None and highest > last_max and family.step(state, highest) is None:
                return
            for m in minima[bisect_right(minima, last_max):]:
                after = family.step(state, m)
                if after is not None:
                    for scaled, top in groups[m]:
                        combine(entries + scaled, k + 1, after, top)

        combine((), 0, start, 0)
        fresh = new.difference(known)
        if not fresh:
            break
        known.update(dict.fromkeys(fresh, level))
    # materialise each key once from a table of the coefficients; the coded
    # functionals are moved out and freed as the result fills, so the two
    # maps are never both whole
    value = {}
    for d in range(depth + 1):
        value[d] = c ** d
        value[~d] = -value[d]
    coded = []
    while known:
        coded.append(known.popitem())
    depths = {}
    while coded:
        e, level = coded.pop()
        depths[SparseVec._canonical(tuple((i, value[d]) for i, d in e))] = level
    return depths


def norming_set(params, bound, depth, signed=True, budget=2_000_000):
    """The functional set K_depth over indices [1..bound]."""
    depths = _generate(params.family, params.c, range(1, bound + 1), depth, signed, budget)
    return FunctionalSet(depths)


def _best_functional(params, x, depth, budget=float("inf")):
    """Maximum of <f, x> over the signed functional set K_depth, a
    functional attaining it, and the number of DP nodes visited.  Raises
    BudgetExceeded once more than `budget` nodes are visited.

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

    The DP runs on integers: with c = p/q and D the least common multiple
    of the denominators of |x|, every value times S = D q^depth is an
    integer, as no leaf lies deeper than `depth`.
    """
    if not x:
        return Fraction(0), SparseVec([]), 0
    c = params.c
    scale = lcm(*(v.denominator for _, v in x.entries)) * c.denominator ** depth
    leaves = {i: abs(v.numerator) * (scale // v.denominator) for i, v in x.entries}
    value, tree, nodes = _signature_dp(params.family, c, leaves, depth, budget)

    entries = []

    def unfold(node, coeff):
        if isinstance(node, int):
            entries.append((node, coeff if x[node] > 0 else -coeff))
        else:
            for child in node:
                unfold(child, coeff * c)

    unfold(tree, Fraction(1))
    return Fraction(value, scale), SparseVec(entries), nodes


def _signature_dp(fam, c, leaves, depth, budget):
    """The signature DP of `_best_functional` on integer leaf values
    {index: value}: the best value, its tree and the nodes visited.  A chain
    of minima is read through the family's residual state, one `step` per
    added minimum.  Raises ArithmeticError if c times a sum is not an
    integer, which the scaling of its callers (`_best_functional`,
    `_price_column`) rules out."""
    p, q = c.numerator, c.denominator
    pool = {(i, i): (v, i) for i, v in leaves.items()}
    nodes = 0

    for _ in range(depth):
        new = {}
        # the pool's signatures by minimum, in signature order
        by_min = {}
        for (m, mx) in sorted(pool):
            by_min.setdefault(m, []).append((mx,) + pool[(m, mx)])
        minima = sorted(by_min)
        # a spreading family's chain that the largest minimum cannot extend
        # is not scanned (see `_generate`)
        highest = minima[-1] if fam.spreading else None

        def combine(state, first, last_max, k, total, parts):
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("signature DP ran past %d nodes" % budget)
            if k >= 2:
                sig = (first, last_max)
                val, rem = divmod(p * total, q)
                if rem:
                    raise ArithmeticError("scaled pricing value %d * %d / %d is not an integer"
                                          % (p, total, q))
                if sig not in new or val > new[sig][0]:
                    new[sig] = (val, parts)
            if highest is not None and highest > last_max and fam.step(state, highest) is None:
                return
            for m in minima[bisect_right(minima, last_max):]:
                after = fam.step(state, m)
                if after is not None:
                    for mx, val, tree in by_min[m]:
                        combine(after, first or m, mx, k + 1, total + val, parts + (tree,))

        combine(fam.initial_state(), 0, 0, 0, 0, ())
        improved = False
        for sig, entry in new.items():
            if sig not in pool or entry[0] > pool[sig][0]:
                pool[sig] = entry
                improved = True
        if not improved:
            break
    value, tree = max(pool.values(), key=lambda entry: entry[0])
    return value, tree, nodes


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


def _price_column(params, duals, det, depth, budget):
    """Pricing for the dual gauge on the master's integer duals, y_i =
    duals[i - 1] / det for i = 1..len(duals): the functional f of K_depth
    maximising <f, y> as an integer column q^depth f with its cost q^depth
    (c = p/q), or None for the column when <f, y> <= 1; and the DP nodes
    visited.

    The leaves of the signature DP are |duals[i - 1]| q^depth, the |y_i|
    scaled by S = det q^depth, so the price exceeds 1 exactly when the
    value exceeds S.  A leaf at depth d of the maximiser's tree has the
    coefficient +-c^d, the integer +-p^d q^(depth - d) in the column."""
    c = params.c
    p, q = c.numerator, c.denominator
    lift = q ** depth
    leaves = {i: abs(y) * lift for i, y in enumerate(duals, 1) if y}
    value, tree, nodes = _signature_dp(params.family, c, leaves, depth, budget)
    if value <= det * lift:
        return None, lift, nodes
    column = [0] * len(duals)

    def unfold(node, d):
        if isinstance(node, int):
            coeff = p ** d * q ** (depth - d)
            column[node - 1] = coeff if duals[node - 1] > 0 else -coeff
        else:
            for child in node:
                unfold(child, d + 1)

    unfold(tree, 0)
    return column, lift, nodes


def dual_norm(params, g, bound, depth, functionals=None, budget=100_000):
    """Gauge of the convex hull of the generated signed functional set.

    Exact minimum of sum lam_j over decompositions g = sum lam_j f_j with
    lam_j >= 0 and f_j in norming_set(params, bound, depth); at sufficient
    depth this is the dual norm restricted to the span.

    Solved by column generation: a restricted master LP over the columns
    found so far, starting from the coordinate functionals +-e_i (so it is
    always feasible), gives its value and row duals y.  The signature
    dynamic program prices the whole set at once, finding the f in K_depth
    that maximises <f, y>.  While that maximum exceeds 1 the maximiser is a
    violated column and joins the master, which resumes from its current
    basis; otherwise y is dual feasible for the full LP, <g, y> equals the
    master value, and that value is exact.  Each added column is new, as
    every master column pairs with y to at most 1, and the set is finite,
    so the loop terminates.

    The loop runs on integers.  The master starts from +-e_i as unit
    integer columns and reports its duals as integer numerators over one
    common denominator; `_price_column` feeds those to the DP and returns
    the maximiser as an integer column with its cost.

    The pricing DP grows exponentially with `bound` (S_1 at bound 14, depth
    2 visits about 290,000 nodes); `budget` caps its nodes over the whole
    call, and BudgetExceeded reports the round it stopped in.  For a family
    below w^w the default budget of 100,000 nodes is spent in about
    0.2-0.5 s at bounds up to 800 and about 1 s at bound 1,500, most of it
    building the master's dense tableau.  A family from w^w on reads
    chains by a membership query per step, and is slower: S_w spends the
    budget in about 13 s at bound 50.

    `functionals` is accepted for compatibility and unused: pricing never
    materialises the set.
    """
    if bound < 1:
        raise NormError("functional bound must be at least 1, got %d" % bound)
    if depth < 0:
        raise NormError("generation depth must be nonnegative, got %d" % depth)
    if budget < 0:
        raise NormError("pricing budget must be nonnegative, got %d" % budget)
    if not g:
        return Fraction(0)
    if g.support[-1] > bound:
        raise NormError("support of g exceeds the functional bound")
    # +-e_i as unit integer columns of cost 1
    columns = [[0] * bound for _ in range(2 * bound)]
    for i in range(bound):
        columns[2 * i][i], columns[2 * i + 1][i] = 1, -1
    master = simplex.Master(columns, [g[i] for i in range(1, bound + 1)], bound)
    spent = rounds = 0
    while True:
        rounds += 1
        try:
            column, cost, nodes = _price_column(
                params, master.dual_numerators, master.det, depth, budget - spent)
        except BudgetExceeded:
            raise BudgetExceeded(
                "dual gauge pricing ran out of budget in round %d: %d signature-DP "
                "nodes used, %d of them in the earlier rounds" % (rounds, budget, spent)) from None
        spent += nodes
        if column is None:
            return master.value
        master.add_column(column, cost)
