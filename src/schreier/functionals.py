"""Norming functionals for Tsirelson-type norms, and the dual gauge.

The norm ||.||_(F,c) is realized as a supremum over the functional set
generated from the coordinate functionals by

    f  =  c * (f_1 + ... + f_k),   k >= 2,

where the supports of the f_j are successive and their minima form a member
of F.  Generation is graded by depth.  Every coefficient is +-c^d, so
generation holds a functional as a tuple of integer codes, one per entry,
and makes the Fractions once at the end from a table of (index, +-c^d)
entries shared by all functionals.  A functional first made at depth d has a
coefficient +-c^d, so a combination is new at level L exactly when one of
its summands was first made at level L - 1: each level extends only the
chains that hold such a summand, makes nothing twice across levels, and
adds to the pool only the functionals the previous level made, each scaled
by c once.  Since the summands' supports are successive, a combination is
the concatenation of its summands' scaled entries and is canonical as
built, and each minimum added to a chain is one step of the family's
residual state (`initial_state`/`step`), for a fine family below w^w one
cached ordinal step.  For a spreading family F, at depth
>= |supp(x)| the supremum over the set equals the norm (tested, not
assumed).  Without spreading it can fall short: a block's norm need not use
the block's minimum, so the matching functional's support minima can lie to
the right of the block minima, and only spreading keeps them admissible.
`norm_via_functionals` therefore rejects non-spreading families.

The best functional against a given vector is found without generating the
set, by a dynamic program over (min, max) support signatures.  It runs on
integers, the values scaled by a common denominator, and reads each chain of
minima through the family's residual state as generation does, but merges
the chains whose states agree, as the norm DP does, instead of enumerating
them: its work is polynomial in the support wherever the family has few
states per position.  In a spreading family a chain that the largest
minimum cannot extend is not scanned further, in generation or in the DP.
The DP evaluates the
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
    """Generated norming functionals over a bounded index range, in the
    order of generation.

    `depths` maps each functional (a SparseVec) to the generation depth at
    which it first appeared; it is built on first use.
    """

    def __init__(self, functionals, starts):
        self._functionals = functionals
        self._starts = starts  # where each depth begins in the list
        self._depths = None

    def __iter__(self):
        return iter(self._functionals)

    def __len__(self):
        return len(self._functionals)

    def __contains__(self, f):
        return f in self.depths

    @property
    def depths(self):
        if self._depths is None:
            ends = self._starts[1:] + [len(self._functionals)]
            self._depths = {f: d for d, (lo, hi) in enumerate(zip(self._starts, ends))
                            for f in self._functionals[lo:hi]}
        return self._depths


def _generate(family, c, indices, depth, signed, budget):
    """The functionals of K_depth over `indices` as SparseVecs in the order
    of generation, and the position in that list where each depth starts.
    Raises NormError once more than `budget` functionals are held."""
    # a functional is held as a tuple of integer codes, one per entry: index
    # i with coefficient +c^d is i * width + 2d, with -c^d one more
    # (injective as 0 < c < 1), so scaling by c adds 2 to every code
    width = 2 * depth + 2
    indices = sorted(indices)
    made = [(i * width,) for i in indices]
    if signed:
        made += [(e + 1,) for (e,) in made]
    starts = [0]

    def hold(level, count):
        if count > budget:
            raise NormError("functional generation budget of %d exceeded at depth %d: %d "
                            "functionals held" % (budget, level, count))

    hold(0, len(made))
    start = family.initial_state()
    pool = {}  # support minimum -> [(functional scaled by c, support maximum)]
    fresh = made
    for level in range(1, depth + 1):
        # a combination with a summand first made at the previous level has
        # a coefficient +-c^level, which nothing made earlier has; one with
        # none was made at an earlier level.  So a level extends only the
        # chains that hold such a summand, and makes only new functionals;
        # the pool takes each of them, scaled by c, once
        latest = {}
        for f in fresh:
            latest.setdefault(f[0] // width, []).append(
                (tuple([e + 2 for e in f]), f[-1] // width))
        minima = sorted(pool.keys() | latest.keys())
        newest = max(latest, default=0)
        # in a spreading family a chain that the largest minimum cannot
        # extend admits no smaller one either: one step answers for the scan
        highest = minima[-1] if family.spreading and minima else None
        new = {}

        def combine(entries, k, state, last_max, mixed):
            if mixed:
                if k >= 2:
                    new[entries] = None
                    hold(level, len(made) + len(new))
            elif last_max >= newest:
                return  # no summand of the previous level can follow
            if highest is not None and highest > last_max and family.step(state, highest) is None:
                return
            for m in minima[bisect_right(minima, last_max):]:
                after = family.step(state, m)
                if after is not None:
                    for scaled, top in pool.get(m, ()):
                        combine(entries + scaled, k + 1, after, top, mixed)
                    for scaled, top in latest.get(m, ()):
                        combine(entries + scaled, k + 1, after, top, True)

        combine((), 0, start, 0, False)
        if not new:
            break
        for m, summands in latest.items():
            pool.setdefault(m, []).extend(summands)
        starts.append(len(made))
        fresh = list(new)
        made += fresh
    # each entry becomes an (index, +-c^d) pair from one shared table, in
    # place, so the coded functionals are freed as the list fills
    coeff = []
    for d in range(depth + 1):
        power = c ** d
        coeff += [power, -power]
    size = (indices[-1] + 1) * width if indices else 0
    table = [(e // width, coeff[e % width]) for e in range(size)]
    for n, f in enumerate(made):
        made[n] = SparseVec._canonical(tuple([table[e] for e in f]))
    return made, starts


def norming_set(params, bound, depth, signed=True, budget=2_000_000):
    """The functional set K_depth over indices [1..bound]."""
    return FunctionalSet(*_generate(params.family, params.c, range(1, bound + 1), depth,
                                    signed, budget))


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
    from its earlier value, and their depths, unchanged.  Within a level the
    chains of signatures are merged by residual state (`_signature_dp`).

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
    {index: value}: the best value, its tree and the nodes visited.  Raises
    ArithmeticError if c times a sum is not an integer, which the scaling of
    its callers (`_best_functional`, `_price_column`) rules out.

    A level combines the pool's signatures into chains with successive
    supports, reading the chain's minima through the family's residual
    state.  Chains are not enumerated but merged, as in the norm DP: two
    chains that agree on their first minimum, their residual state, their
    last maximum and whether they hold two or more summands have the same
    completions, so each such class keeps only its best total.  Classes are
    swept by last maximum, each extended by every later minimum its state
    admits.  A node is one such admitted extension, so `budget` bounds the
    classes times the minima; in a spreading family a class that the
    largest minimum cannot extend is not scanned further (see
    `_generate`).  Each class also keeps the least chain (its signatures in
    order) attaining its best total, and its least chain of all, so that
    ties resolve as in a scan of the chains in lexicographic order: the
    maximiser is the one such a scan finds first.
    """
    p, q = c.numerator, c.denominator
    # a signature (min, max) is coded as min * width + max, in the same order
    width = max(leaves, default=0) + 1
    pool = {i * width + i: (v, i) for i, v in sorted(leaves.items())}
    # residual states by number, and the number after each admitted minimum
    # (-1 when refused), so that each step is taken once per call
    states, ids, moves = [fam.initial_state()], {}, {}
    ids[states[0]] = 0

    def move(sid, m):
        key = sid * width + m
        after = moves.get(key)
        if after is None:
            state = fam.step(states[sid], m)
            if state is None:
                after = -1
            else:
                after = ids.get(state)
                if after is None:
                    after = ids[state] = len(states)
                    states.append(state)
            moves[key] = after
        return after

    nodes = 0
    for _ in range(depth):
        by_min = {}
        for sig in sorted(pool):
            by_min.setdefault(sig // width, []).append((sig, sig % width, pool[sig][0]))
        minima = sorted(by_min)
        highest = minima[-1] if fam.spreading else None
        # last maximum -> (first minimum, state number, k >= 2) -> [best
        # total, least chain attaining it, least chain]
        ends = {top: {} for top in sorted({0} | {sig % width for sig in pool})}
        ends[0][(0, 0, False)] = [0, (), ()]
        found = {}  # signature -> the same three, over its classes
        for last_max in list(ends):
            for (first, sid, multi), (total, best, least) in ends.pop(last_max).items():
                if multi:
                    have = found.setdefault(first * width + last_max, [total, best, least])
                    if total > have[0] or (total == have[0] and best < have[1]):
                        have[0], have[1] = total, best
                    if least < have[2]:
                        have[2] = least
                if highest is not None and highest > last_max and move(sid, highest) < 0:
                    continue
                for m in minima[bisect_right(minima, last_max):]:
                    after = move(sid, m)
                    if after < 0:
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceeded("signature DP ran past %d nodes" % budget)
                    key = (first or m, after, first != 0)
                    for sig, top, val in by_min[m]:
                        cand = total + val
                        target = ends[top]
                        have = target.get(key)
                        if have is None:
                            chain = best + (sig,)
                            target[key] = [cand, chain, chain if least is best else least + (sig,)]
                            continue
                        if cand >= have[0]:
                            chain = best + (sig,)
                            if cand > have[0] or chain < have[1]:
                                have[0], have[1] = cand, chain
                        chain = least + (sig,)
                        if chain < have[2]:
                            have[2] = chain
        improved = []
        for sig in sorted(found, key=lambda s: found[s][2]):
            total, best, _ = found[sig]
            val, rem = divmod(p * total, q)
            if rem:
                raise ArithmeticError("scaled pricing value %d * %d / %d is not an integer"
                                      % (p, total, q))
            if sig not in pool or val > pool[sig][0]:
                improved.append((sig, val, best))
        if not improved:
            break
        # every tree is read before this level replaces any signature's
        pool.update([(sig, (val, tuple(pool[s][1] for s in best))) for sig, val, best in improved])
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

    The pricing DP merges chains by residual state, so its nodes grow
    polynomially with `bound` (S_1, depth 2: 1,310 nodes for all-equal
    leaves on [1..14], 30,006 on [1..30]); `budget` caps its nodes over the
    whole call, and BudgetExceeded reports the round it stopped in.  A
    dense target on [1..14] at depth 2 takes 30 rounds and about 0.07 s.
    For a family below w^w the default budget of 100,000 nodes is spent in
    about 0.1-0.3 s at bounds up to 800 and about 0.75 s at bound 1,500,
    nearly all of it building the master's dense tableau.  A family from
    w^w on reads chains by a membership query per step, and is slower:
    S_w spends the budget in about 4 s at bound 50.

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
