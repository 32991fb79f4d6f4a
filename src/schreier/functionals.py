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
scaled entries.  `norming_set` returns the signed functionals as a plain
list in that order.  Over n indices no level past n - 1 makes a new
functional, as a functional first made at depth d has at least d + 1
entries, so generation and the dual gauge cap the depth at bound - 1 and
the functional norm at |supp(x)| - 1.  For a spreading family F, at depth
>= |supp(x)| - 1 the supremum over the set equals the norm (tested, not
assumed).  Without spreading it can fall short: a block's norm need not
use the block's minimum, so the matching functional's support minima can
lie to the right of the block minima, and only spreading keeps them
admissible.  `norm_via_functionals` therefore rejects non-spreading
families.

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
integers and makes only the final value a Fraction.  The pricing DP is
positively homogeneous in its leaves: duals k times as large give the same
nodes and tree and k times the value.  So for fine Schreier and explicit
families a completed run is kept in `_pricing_memo`, by the family, its
spreading flag, c, depth and the leaves divided by the gcd of the dual
numerators; gauges and rounds whose duals agree up to scale and sign share
it.  The memo holds at most PRICING_MEMO_CAP entries and drops its older
half when full, and a hit charges the nodes of the run it keeps against
the gauge's budget, as a fresh run would.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import islice, product
from math import gcd, lcm

from . import simplex
from .families import BudgetExceeded, Explicit, FineSchreier, Schreier
from .norms import NormError
from .vectors import SparseVec

PRICING_MEMO_CAP = 64  # most entries `_pricing_memo` holds; the older half goes at the cap
# (value, tree, nodes) of completed pricing runs on leaves normalised by the
# gcd of the dual numerators, by (family, spreading, c, depth, the
# normalised (index, leaf) pairs); see `_price_column`
_pricing_memo = {}
# the handles that are equal exactly when their families are
_SAME_FAMILY_TYPES = (FineSchreier, Schreier, Explicit)


def _depth_cap(depth, size):
    """`depth`, checked nonnegative, capped at size - 1: over `size`
    indices no level deeper makes a new functional, as a functional first
    made at depth d has at least d + 1 entries (every combination has two
    summands or more)."""
    if depth < 0:
        raise NormError("generation depth must be nonnegative, got %d" % depth)
    return min(depth, max(size - 1, 0))


def norming_set(params, bound, depth, budget=2_000_000):
    """The signed functionals of K_depth over indices [1..bound] as a list
    of SparseVecs in the order of generation, depth by depth; NormError
    once more than `budget` functionals are held.  A depth past bound - 1
    makes the set of depth bound - 1.

    The level walk runs on one positive functional per sign class: the set
    is closed under sign flips of single entries, and a combination's
    summands may be flipped independently, so the classes of a level are
    the combinations of the classes before it.  A level makes the product
    of each chain of signature groups that holds a group of the previous
    level.  The signed functionals are made at the end, each class's 2^k
    sign patterns of its k entries in `itertools.product` order.  The
    budget counts a class as its 2^k patterns, so the count held is the
    one of making the patterns one at a time."""
    family, c = params.family, params.c
    depth = _depth_cap(depth, bound)
    if budget < 0:
        raise NormError("functional generation budget must be nonnegative, got %d" % budget)

    def hold(level, count):
        if count > budget:
            raise NormError("functional generation budget of %d exceeded at depth %d: %d "
                            "functionals held" % (budget, level, count))

    held = 2 * max(bound, 0)
    hold(0, held)
    indices = range(1, bound + 1)
    # a class is held as a tuple of integer codes, one per entry: index i
    # with coefficient c^d is i * width + d (injective as 0 < c < 1), so
    # scaling by c adds 1 to every code
    width = depth + 1
    made = [(i * width,) for i in indices]
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
                                held += 1 << len(f)
                                if held > budget:
                                    # the pattern that passed the budget
                                    hold(level, budget + 1)
                    combine(ext, k + 1, after, top, holds)

        combine([()], 0, start, 0, False)
        if not new:
            break
        for sig, group in latest.items():
            pool.setdefault(sig, []).extend(group)
        fresh = list(new)
        made += fresh
    # each entry's choices of (index, +-c^d) pair, from one shared table
    powers = [c ** d for d in range(width)]
    table = [((i, v), (i, -v)) for i in range(bound + 1) for v in powers]
    vecs = []
    for f in made:
        vecs += map(SparseVec._canonical, product(*[table[e] for e in f]))
    return vecs


def _leaves(tree):
    """The (index, depth) of each leaf of a maximiser's tree (a coordinate
    index at a leaf, a tuple of subtrees at a combination), left to right."""
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, int):
            yield node, d
        else:
            stack += [(child, d + 1) for child in reversed(node)]


def _best_functional(params, x, depth):
    """Maximum of <f, x> over the signed functional set K_depth, a
    functional attaining it, and the number of DP nodes visited.

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
    value, tree, nodes = _signature_dp(params.family, c, leaves, depth, float("inf"))
    entries = [(i, c ** d if x[i] > 0 else -c ** d) for i, d in _leaves(tree)]
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
    not scanned further (see `norming_set`).
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
    K_depth, the depth capped at |supp(x)| - 1, where the supremum is the
    norm (the default).  The family must be spreading."""
    if not params.family.spreading:
        raise NormError("the functional route needs a spreading family, not %s"
                        % params.family.descriptor())
    if depth is None:
        depth = len(x)
    return _best_functional(params, x, _depth_cap(depth, len(x)))[0]


def _price_column(params, duals, det, depth, budget, steps=None):
    """Pricing for the dual gauge on the master's integer duals, y_i =
    duals[i - 1] / det for i = 1..len(duals): the functional f of K_depth
    maximising <f, y> as an integer column q^depth f with its cost q^depth
    (c = p/q), or None for the column when <f, y> <= 1; and the DP nodes
    visited.

    The |y_i| scaled by S = det q^depth are |duals[i - 1]| q^depth, so the
    price exceeds 1 exactly when the DP's value on those leaves exceeds S.
    A leaf at depth d of the maximiser's tree has the coefficient +-c^d,
    the integer +-p^d q^(depth - d) in the column.  `steps` is the gauge's
    `_Steps`, shared by its rounds.

    The DP is positively homogeneous in its leaves: leaves k times as large
    (k > 0) visit the same nodes, tie the same way, find the same tree and
    give k times the value, as every step is a sum, a comparison or a
    multiplication by c.  So the DP runs on those leaves divided by the gcd
    g of the numerators, |duals[i - 1]| / g q^depth over the nonzero duals,
    and the price is their value times g against S.  For fine Schreier and
    explicit families, whose handles are equal exactly when the families
    are, a completed run is kept in `_pricing_memo`, keyed by (family,
    spreading flag, c, depth, the normalised (index, leaf) pairs): the
    flag decides how the DP scans, and the DP reads nothing else, not the
    gauge's bound or its `_Steps` numbering.  So a round of any gauge whose
    duals agree with a kept run's up to scale and sign reads it, exactly.
    A hit charges the stored nodes and raises the BudgetExceeded a fresh run
    would raise when they pass `budget`; a run that runs out is not kept.
    At PRICING_MEMO_CAP entries the older half goes.  The column takes its
    signs from the duals on every call.  Oracle, residual and derived
    families are priced afresh every time (an oracle's handle is equal to
    any other of its name), as are all-zero duals, which `dual_norm` never
    prices."""
    c = params.c
    p, q = c.numerator, c.denominator
    lift = q ** depth
    fam = params.family
    g = gcd(*duals) or 1
    leaves = {i: abs(y) // g * lift for i, y in enumerate(duals, 1) if y}
    key = None
    if type(fam) in _SAME_FAMILY_TYPES and leaves:
        key = (fam, fam.spreading, c, depth, tuple(leaves.items()))
    known = _pricing_memo.get(key)
    if known is None:
        known = _signature_dp(fam, c, leaves, depth, budget, steps)
        if key is not None:
            if len(_pricing_memo) >= PRICING_MEMO_CAP:
                for old in list(islice(_pricing_memo, (len(_pricing_memo) + 1) // 2)):
                    del _pricing_memo[old]
            _pricing_memo[key] = known
    elif known[2] > budget:
        raise BudgetExceeded("signature DP ran past %d nodes" % budget)
    value, tree, nodes = known
    if value * g <= det * lift:
        return None, lift, nodes
    column = [0] * len(duals)
    for i, d in _leaves(tree):
        coeff = p ** d * q ** (depth - d)
        column[i - 1] = coeff if duals[i - 1] > 0 else -coeff
    return column, lift, nodes


def dual_norm(params, g, bound, depth, functionals=None, budget=100_000):
    """Gauge of the convex hull of the generated signed functional set.

    Exact minimum of sum lam_j over decompositions g = sum lam_j f_j with
    lam_j >= 0 and f_j in norming_set(params, bound, depth); at sufficient
    depth this is the dual norm restricted to the span.  As in
    `norming_set`, a depth past bound - 1 is priced as bound - 1, which
    gives the same set.

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
    For fine Schreier and explicit families a round whose duals agree up to
    scale and sign with a run in the pricing memo, of this gauge or an
    earlier one, reads that run (see `_price_column`) and still counts its
    nodes.  A first round prices units on [1..bound], so it repeats whenever
    an earlier gauge had the same family, c, depth and bound; on small
    bounds most later rounds repeat too.

    The pricing DP merges chains by residual state, so its nodes grow
    polynomially with `bound` (S_1, depth 2: 1,310 nodes for all-equal
    leaves on [1..14], 30,006 on [1..30]); `budget` caps its nodes over the
    whole call, and BudgetExceeded reports the round it stopped in.  At
    depth 2, g_i = (-1)^i (i mod 5 + 1) / (i mod 3 + 1) on [1..14] takes 43
    rounds and about 0.03 s; on [1..20], 97 rounds, about 527,000 nodes
    (past the default budget) and 0.34 s.  Below w^w the default budget is
    spent in the first round in about 0.04 s at bound 800, 0.08 s at bound
    1,500 and 0.12 s at bound 3,000, all of it pricing: the master, which
    holds B^-1 (bound x bound integers), is not built in a round that runs
    out.  A bound past the budget raises before any list of length `bound`
    is made where the first round admits every minimum.  S_w spends the
    budget in about 2 s at bound 50.  (Single calls with an empty pricing
    memo, on a shared 2-vCPU machine with Python 3.11.7.  The 43 rounds
    price 42 dual patterns, so the same gauge again runs no DP and takes
    about 0.005 s; the 97 price 90, more than the memo holds, so a warm
    memo saves nothing there, nor where the first round runs out, as only
    a completed run is kept.)

    `functionals` is accepted for compatibility and unused.
    """
    if bound < 1:
        raise NormError("functional bound must be at least 1, got %d" % bound)
    depth = _depth_cap(depth, bound)
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
