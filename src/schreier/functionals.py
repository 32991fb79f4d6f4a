"""Norming functionals for Tsirelson-type norms, and the dual gauge.

The norm ||.||_(F,c) is realized as a supremum over the functional set
generated from the coordinate functionals by

    f  =  c * (f_1 + ... + f_k),   k >= 2,

where the supports of the f_j are successive and their minima form a member
of F.  The set is closed under sign flips of single entries, so generation
runs on one positive functional per sign class (87 classes for the 1,204
functionals of K(S_1, 1/2, 6, 3)) and makes each class's 2^k sign
patterns at the end.  It is graded by depth and holds a class as a tuple
of integer codes, one per entry (every coefficient is c^d), making the
Fractions once at the end.  A functional first made at depth d has a
coefficient +-c^d, so each level makes only new functionals, from the
chains that hold a summand the previous level made.  The constraints see
only each summand's support signature (min, max), so a level walks chains
of signature groups, reads their minima through the family's residual
state (`initial_state`/`step`) once per chain of groups, and makes the
product of the groups, each functional the concatenation of its summands'
scaled entries.  For a spreading family F, at depth >= |supp(x)| the
supremum over the set equals the norm (tested, not assumed).  Without
spreading it can fall short: a block's norm need not use the block's
minimum, so the matching functional's support minima can lie to the right
of the block minima, and only spreading keeps them admissible.
`norm_via_functionals` therefore rejects non-spreading families.

The best functional against a given vector is found without generating the
set, by a dynamic program over the same signatures, on integers.  It merges
the chains of minima whose residual states agree, as the norm DP does, and
keeps one best total per class, so its work is polynomial in the support
wherever the family has few states per position.  In a spreading family a
chain that the largest minimum cannot extend is not scanned further, in
generation or in the DP.  The DP evaluates the functional norm and prices
the columns of the dual gauge, computed by exact column generation: a
fraction-free simplex master over the columns found so far, extended by the
functional its duals rate highest.  Master and step table are built once
per gauge, the master only once the first round finds a column, and the
master resumes from its last basis after each column; the loop runs on
integers and makes only the final value a Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product
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

    The level walk runs on one positive functional per sign class: the set
    is closed under sign flips of single entries, and a combination's
    summands may be flipped independently, so the classes of a level are
    the combinations of the classes before it.  A level makes the product
    of each chain of signature groups that holds a group of the previous
    level.  The signed functionals are made at the end, each class's 2^k
    sign patterns of its k entries in `itertools.product` order.  Raises
    NormError once more than `budget` (signed) functionals are held,
    counting a class as its 2^k patterns, so the count held is the one of
    making the patterns one at a time."""
    indices = sorted(indices)
    # a functional first made at depth d has at least d + 1 entries, as
    # every combination has two summands or more
    depth = min(depth, max(len(indices) - 1, 0))
    # a class is held as a tuple of integer codes, one per entry: index i
    # with coefficient c^d is i * width + d (injective as 0 < c < 1), so
    # scaling by c adds 1 to every code
    width = depth + 1
    made = [(i * width,) for i in indices]
    starts = [0]
    held = 2 * len(made) if signed else len(made)

    def hold(level, count):
        if count > budget:
            raise NormError("functional generation budget of %d exceeded at depth %d: %d "
                            "functionals held" % (budget, level, count))

    hold(0, held)
    start = family.initial_state()
    pool = {}  # (support minimum, support maximum) -> [functionals scaled by c]
    fresh = made
    for level in range(1, depth + 1):
        # the previous level's functionals, scaled by c once, by signature
        latest = {}
        for f in fresh:
            latest.setdefault((f[0] // width, f[-1] // width), []).append(
                tuple([e + 1 for e in f]))
        groups = {}  # support minimum -> [(support maximum, group, of the previous level)]
        for young, part in ((False, pool), (True, latest)):
            for (m, top), group in part.items():
                groups.setdefault(m, []).append((top, group, young))
        minima = sorted(groups)
        newest = max(latest, default=(0,))[0]
        # in a spreading family a chain that the largest minimum cannot
        # extend admits no smaller one either: one step answers for the scan
        highest = minima[-1] if family.spreading and minima else None
        new = {}

        def combine(partial, k, state, last_max, mixed):
            nonlocal held
            if highest is not None and highest > last_max and family.step(state, highest) is None:
                return
            for m in minima[bisect_right(minima, last_max):]:
                after = family.step(state, m)
                if after is None:
                    continue
                for top, group, young in groups[m]:
                    holds = mixed or young
                    if not holds and top >= newest:
                        continue  # no group of the previous level can follow
                    ext = [a + b for a in partial for b in group]
                    if holds and k:
                        for f in ext:
                            if f not in new:
                                new[f] = None
                                held += 1 << len(f) if signed else 1
                                if held > budget:
                                    # the pattern that passed the budget
                                    hold(level, budget + 1)
                    combine(ext, k + 1, after, top, holds)

        combine([()], 0, start, 0, False)
        if not new:
            break
        for sig, group in latest.items():
            pool.setdefault(sig, []).extend(group)
        starts.append(len(made))
        fresh = list(new)
        made += fresh
    # each entry's choices of (index, +-c^d) pair, from one shared table
    choices = []
    for d in range(width):
        power = c ** d
        choices.append((power, -power) if signed else (power,))
    table = [tuple([(i, v) for v in choice])
             for i in range(indices[-1] + 1 if indices else 0) for choice in choices]
    vecs, offsets = [], []
    for lo, hi in zip(starts, starts[1:] + [len(made)]):
        offsets.append(len(vecs))
        for f in made[lo:hi]:
            vecs += map(SparseVec._canonical, product(*[table[e] for e in f]))
    return vecs, offsets


def norming_set(params, bound, depth, signed=True, budget=2_000_000):
    """The functional set K_depth over indices [1..bound]; NormError once
    more than `budget` functionals are held."""
    if depth < 0:
        raise NormError("generation depth must be nonnegative, got %d" % depth)
    if budget < 0:
        raise NormError("functional generation budget must be nonnegative, got %d" % budget)
    return FunctionalSet(*_generate(params.family, params.c, range(1, bound + 1), depth,
                                    signed, budget))


def _best_functional(params, x, depth, budget=float("inf")):
    """Maximum of <f, x> over the signed functional set K_depth, a
    functional attaining it, and the number of DP nodes visited.  Raises
    BudgetExceeded once more than `budget` nodes are visited.

    Uses sign symmetry of the generated set: the supremum over all signed
    functionals equals the supremum of <f, |x|> over positive ones, and the
    positive maximiser takes the signs of x.  The pairing is linear in the
    summands of f = c(f_1 + ... + f_k), and the combination constraints see
    only each summand's (min, max) signature, so among functionals sharing a
    signature only the best pairing value can appear in an optimal
    combination.  The levelwise state is therefore one value per signature,
    iterated to its fixed point (reached by level |supp(x)| at the latest).
    Each value carries the tree of its combination: a coordinate index at a
    leaf, a tuple of subtrees at a combination.  Trees are immutable, so a
    later improvement of a signature leaves the trees built from its earlier
    value, and their depths, unchanged.

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


class _Steps(dict):
    """The family's residual states by number (0 the initial one) and, at
    key s * width + m, the number of the state after the minimum m < width
    from state s, or -1 if m is refused: each step is taken on first
    lookup, once."""

    def __init__(self, fam, width):
        self.fam, self.width, self.states = fam, width, [fam.initial_state()]
        self.ids = {self.states[0]: 0}

    def __missing__(self, key):
        sid, m = divmod(key, self.width)
        state = self.fam.step(self.states[sid], m)
        after = -1 if state is None else self.ids.setdefault(state, len(self.states))
        if after == len(self.states):
            self.states.append(state)
        self[key] = after
        return after


def _signature_dp(fam, c, leaves, depth, budget, steps=None):
    """The signature DP of `_best_functional` on integer leaf values
    {index: value}: the best value, its tree and the nodes visited.  Raises
    ArithmeticError if c times a sum is not an integer, which the scaling of
    its callers (`_best_functional`, `_price_column`) rules out.  `steps` is
    the family's `_Steps` over minima up to the largest leaf index, shared
    by the calls that pass it.

    A level combines the pool's signatures into chains with successive
    supports, reading the chain's minima through the family's residual
    state.  Chains are not enumerated but merged, as in the norm DP: two
    chains that agree on their first minimum, their residual state, their
    last maximum and whether they hold two or more summands have the same
    completions, so each such class keeps only its best total and one chain
    attaining it, the first found.  Classes are swept by last maximum, each
    extended by every later minimum its state admits.  A node is one such
    admitted extension, so `budget` bounds the classes times the minima; in
    a spreading family a class that the largest minimum cannot extend is
    not scanned further (see `_generate`).
    """
    p, q = c.numerator, c.denominator
    # a signature (min, max) is coded as min * width + max, in the same order
    width = max(leaves, default=0) + 1
    pool = {i * width + i: (v, i) for i, v in sorted(leaves.items())}
    if steps is None:
        steps = _Steps(fam, width)
    span = steps.width
    nodes = 0
    for _ in range(depth):
        # last maximum -> (first minimum, state number, k >= 2) -> (best
        # total, its chain of signatures)
        ends = {top: {} for top in sorted({0} | {sig % width for sig in pool})}
        ends[0][(0, 0, False)] = (0, ())
        by_min = {}  # minimum -> [(signature, the classes at its maximum, value)]
        for sig in sorted(pool):
            by_min.setdefault(sig // width, []).append((sig, ends[sig % width], pool[sig][0]))
        minima = sorted(by_min)
        highest = minima[-1] if fam.spreading else None
        found = {}  # signature -> the same pair, over its classes
        for last_max, classes in ends.items():
            later = minima[bisect_right(minima, last_max):]
            for (first, sid, multi), entry in classes.items():
                total, chain = entry
                base = sid * span
                if multi:
                    sig = first * width + last_max
                    if sig not in found or total > found[sig][0]:
                        found[sig] = entry
                if highest is not None and highest > last_max and steps[base + highest] < 0:
                    continue
                for m in later:
                    after = steps[base + m]
                    if after < 0:
                        continue
                    nodes += 1
                    key = (first or m, after, first != 0)
                    for sig, target, val in by_min[m]:
                        cand = total + val
                        have = target.get(key)
                        if have is None or cand > have[0]:
                            target[key] = (cand, chain + (sig,))
                if nodes > budget:
                    raise BudgetExceeded("signature DP ran past %d nodes" % budget)
        improved = []
        for sig, (total, chain) in found.items():
            val, rem = divmod(p * total, q)
            if rem:
                raise ArithmeticError("scaled pricing value %d * %d / %d is not an integer"
                                      % (p, total, q))
            if sig not in pool or val > pool[sig][0]:
                improved.append((sig, val, chain))
        if not improved:
            break
        # every tree is read before this level replaces any signature's
        pool.update([(sig, (val, tuple(pool[s][1] for s in chain))) for sig, val, chain in improved])
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
    if depth < 0:
        raise NormError("generation depth must be nonnegative, got %d" % depth)
    return _best_functional(params, x, depth)[0]


def _price_column(params, duals, det, depth, budget, steps=None):
    """Pricing for the dual gauge on the master's integer duals, y_i =
    duals[i - 1] / det for i = 1..len(duals): the functional f of K_depth
    maximising <f, y> as an integer column q^depth f with its cost q^depth
    (c = p/q), or None for the column when <f, y> <= 1; and the DP nodes
    visited.

    The leaves of the signature DP are |duals[i - 1]| q^depth, the |y_i|
    scaled by S = det q^depth, so the price exceeds 1 exactly when the
    value exceeds S.  A leaf at depth d of the maximiser's tree has the
    coefficient +-c^d, the integer +-p^d q^(depth - d) in the column.
    `steps` is the gauge's `_Steps`, shared by its rounds."""
    c = params.c
    p, q = c.numerator, c.denominator
    lift = q ** depth
    leaves = {i: abs(y) * lift for i, y in enumerate(duals, 1) if y}
    value, tree, nodes = _signature_dp(params.family, c, leaves, depth, budget, steps)
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
    always feasible; the master keeps them implicit, see `simplex`), gives
    its value and row duals y.  At the start y_i is +-1 by the sign of g_i,
    so the first round is priced before the master is built, and a first
    round that finds no column returns sum |g_i| with no master at all.
    The signature dynamic program prices the whole set at once, finding
    the f in K_depth that maximises <f, y>.  While that maximum exceeds 1
    the maximiser is a violated column and joins the master, which
    resumes from its current basis; otherwise y is
    dual feasible for the full LP, <g, y> equals the master value, and that
    value is exact.  Each added column is new, as every master column pairs
    with y to at most 1, and the set is finite, so the loop terminates.

    The loop runs on integers: `_price_column` reads the master's dual
    numerators and returns the maximiser as an integer column with its cost.

    The pricing DP merges chains by residual state, so its nodes grow
    polynomially with `bound` (S_1, depth 2: 1,310 nodes for all-equal
    leaves on [1..14], 30,006 on [1..30]); `budget` caps its nodes over the
    whole call, and BudgetExceeded reports the round it stopped in.  At
    depth 2, g_i = (-1)^i (i mod 5 + 1) / (i mod 3 + 1) on [1..14] takes 43
    rounds and about 0.06 s; on [1..20], 97 rounds, about 527,000 nodes
    (past the default budget) and 0.85 s.  Below w^w the default budget is
    spent in the first round in about 0.16 s at bound 800, 0.23 s at bound
    1,500 and 0.32 s at bound 3,000, all of it pricing: the master, which
    holds B^-1 (bound x bound integers), is not built in a round that runs
    out.  A bound past the budget raises before any list of length `bound`
    is made where the first round admits every minimum.  S_w spends the
    budget in about 5 s at bound 50.

    `functionals` is accepted for compatibility and unused.
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
    if depth == 0:
        return g.l1_norm()  # the gauge of {+-e_i}
    fam = params.family
    steps = _Steps(fam, bound + 1)
    message = ("dual gauge pricing ran out of budget in round %d: %d signature-DP nodes "
               "used, %d of them in the earlier rounds")
    # the master starts from the unit columns +-e_i, of cost 1, so the
    # first duals are +-1 on every row; where every singleton is a member,
    # the first round then admits each minimum up to the bound
    if bound > budget and fam.spreading and steps[1] >= 0:
        raise BudgetExceeded(message % (1, budget, 0))
    target = [Fraction(0)] * bound
    for i, v in g.entries:
        target[i - 1] = v
    # round 1 prices those duals, the signs of g over det 1, and the master
    # is built only once that round finds a column
    duals, det = [-1 if v < 0 else 1 for v in target], 1
    master = None
    spent = rounds = 0
    while True:
        rounds += 1
        try:
            column, cost, nodes = _price_column(params, duals, det, depth, budget - spent, steps)
        except BudgetExceeded:
            raise BudgetExceeded(message % (rounds, budget, spent)) from None
        spent += nodes
        if column is None:
            return g.l1_norm() if master is None else master.value
        if master is None:
            master = simplex.Master(target, bound)
        master.add_column(column, cost)
        duals, det = master.dual_numerators, master.det
