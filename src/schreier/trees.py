"""Tree indices at finite scale: orders, block derivatives, compression.

An explicit tree is a prefix-closed set of finite label sequences.  A block
tree is a tree of successive sequences of finite sets; the spreading-closure
representation stores generators and answers membership for every
subsequence-spread, which is the smallest finite encoding in which "one
extension implies infinitely many" is sound.

Both membership questions, of a block sequence in the tree and of a set of
minima in its min-set family, match their items into a subsequence of one
generator, each item taking the first block left that fits it (`_embeds`);
the min-set family makes that match one minimum at a time, as its residual
state.  A block derivative drops the last block of every generator, so the
block index is 1 + the longest generator.
"""

from bisect import bisect_right

from . import SchreierError, read_json
from .families import (
    FamilyHandle,
    FineSchreier,
    cb_derivative,
    enumerate_family,
    finset,
    is_spread,
    is_successive,
)


class TreeError(SchreierError, ValueError):
    pass


# -- explicit trees ---------------------------------------------------------

class ExplicitTree:
    """A finite prefix-closed set of finite sequences over arbitrary labels,
    kept as the sequences it was given: the tree is their prefix closure
    (with the empty sequence)."""

    def __init__(self, members):
        self.sequences = tuple(tuple(seq) for seq in members)

    @classmethod
    def from_json(cls, data):
        """A tree from a JSON array of label sequences (labels are scalars)."""
        if not isinstance(data, list) or not all(
            isinstance(seq, list) and not any(isinstance(x, (list, dict)) for x in seq)
            for seq in data
        ):
            raise TreeError("a tree is a JSON array of arrays of scalar labels")
        return cls(data)


def order(tree):
    """Height of a finite tree: 1 + the length of its longest sequence (the
    empty sequence is always a node, and a longest sequence is a longest
    branch)."""
    return 1 + max(map(len, tree.sequences), default=0)


def order_recursive(tree):
    """Height computed by the recursive identity 1 + max over children."""

    def height(prefix):
        k = len(prefix)
        children = {seq[k] for seq in tree.sequences if len(seq) > k and seq[:k] == prefix}
        return 1 + max((height(prefix + (ch,)) for ch in children), default=0)

    return height(())


# -- block trees ------------------------------------------------------------

class BlockTree:
    """A tree of successive finite-set sequences.

    closure == "spreading": membership holds for every successive sequence
    obtained from a generator by taking a subsequence and spreading each
    block pointwise.  closure == "explicit": membership is exactly the
    prefix closure of the generators.
    """

    def __init__(self, generators, closure="spreading"):
        if closure not in ("spreading", "explicit"):
            raise TreeError("closure must be 'spreading' or 'explicit'")
        gens = []
        for g in generators:
            g = tuple(finset(b) for b in g)
            if any(not b for b in g):
                raise TreeError("blocks must be non-empty")
            if not is_successive(g):
                raise TreeError("generator %r is not successive" % (g,))
            gens.append(g)
        self.generators = tuple(sorted(set(gens)))
        self.closure = closure

    @classmethod
    def from_json(cls, data):
        gens = data.get("generators") if isinstance(data, dict) else None
        if not isinstance(gens, list) or not all(
            isinstance(gen, list) and all(
                isinstance(block, list) and all(isinstance(x, int) for x in block)
                for block in gen)
            for gen in gens
        ):
            raise TreeError('a block tree is a JSON object whose "generators" is an '
                            'array of arrays of integer arrays')
        return cls([[tuple(block) for block in gen] for gen in gens],
                   data.get("closure", "spreading"))

    @classmethod
    def from_json_file(cls, path):
        return cls.from_json(read_json(path))

    def to_json(self):
        return {
            "generators": [[list(b) for b in g] for g in self.generators],
            "closure": self.closure,
        }

    def contains(self, seq):
        seq = tuple(tuple(b) for b in seq)
        if any(not b for b in seq) or not is_successive(seq):
            return False
        if self.closure == "explicit":
            return any(g[: len(seq)] == seq for g in self.generators)
        return any(_embeds(seq, g, is_spread) for g in self.generators)

    def __contains__(self, seq):
        return self.contains(seq)


def _embeds(items, gen, fits):
    """Can the items be matched, in order, to a subsequence of the blocks of
    gen with fits(block, item) for each pair?

    Each item takes the first block left that fits it.  This is as good as
    any matching: if some matching puts item i at block p_i, induction on i
    shows that the greedy choice for item i is at or before p_i, so a block
    that fits item i + 1 is still left.
    """
    blocks = iter(gen)
    return all(any(fits(block, item) for block in blocks) for item in items)


def block_derivative(bt):
    """One block derivative: members extendable by a further block.

    For a spreading-closure tree one stored extension yields all its spreads,
    hence an infinite successive sequence of extensions; explicit finite
    trees are rejected rather than silently emptied.
    """
    if bt.closure != "spreading":
        raise TreeError("block derivative requires a spreading-closure tree")
    return BlockTree([g[:-1] for g in bt.generators if g], "spreading")


def block_index_finite(bt):
    """The block index: the number of block derivatives that empty the tree.

    A derivative drops the last block of every generator (and the empty
    generator), so this is 1 + the length of the longest generator, or 0
    for the empty tree.
    """
    if bt.closure != "spreading":
        raise TreeError("block index requires a spreading-closure tree")
    return 1 + max(map(len, bt.generators)) if bt.generators else 0


def _room(block, span):
    """Is there a spread A of block with min A = lo inside [lo, hi), where
    span = (lo, hi) and hi is None for unbounded room to the right?

    The best placement is lo, then the len(block) - 1 largest values below
    hi.  It fits iff lo + len(block) <= hi, and spreads the block iff
    block[0] <= lo and block[i] <= hi - len(block) + i for i >= 1; as
    block[i] - i never decreases, the last of these, block[-1] < hi, implies
    the others."""
    lo, hi = span
    return block[0] <= lo and (hi is None or (lo + len(block) <= hi and block[-1] < hi))


def min_set(bt):
    """The family { {min A_i} : (A_i) in bt } of a block tree, read through
    residual states.

    In the spreading closure f_1 < ... < f_k is a member iff some generator
    has a subsequence whose t-th block has a spread with minimum f_t inside
    [f_t, f_(t+1)) (the last block has unbounded room); the family is
    hereditary, the tree being hereditary by construction of the closure.
    The state is, for each generator, the position `_embeds` has reached
    with the minima before the last, and the last minimum, whose block's
    room waits for the next element.  Every n above an admitted one is
    admitted too, so a member's one-point extensions run from the least
    admitted n, found by bisection below the gap, to the bound.

    In the explicit closure it is a member iff it is the minima of a prefix
    of some generator; the state is that prefix, and its extensions are
    the next block minima of the generators that have it.

    Either way the family has a right-stable gap; it need not be spreading,
    so `is_maximal` probes every one-point extension up to the gap.  A bound
    is required to enumerate it but not to query it, and no answer is kept,
    so an enumeration holds only its current branch.
    """
    return _MinSet(bt)


class _MinSet(FamilyHandle):
    prefix_states = False

    def __init__(self, bt):
        gens = self.generators = bt.generators
        self.explicit = bt.closure == "explicit"
        self.name = "minset(%s%s)" % ("explicit:" if self.explicit else "", ";".join(
            "|".join(",".join(map(str, b)) for b in g) for g in gens
        ))
        # Once a step clears every generator value and block size, every
        # block fits on either side of it: membership of F u {n} is the same
        # for all n >= max(F) + gap, and so is that of F followed by any
        # chain whose steps are all at least the gap, which makes the
        # derived families right-stable too.  (The family need not be
        # spreading: interior blocks require room between consecutive
        # minima.)  In the explicit closure no n past every generator value
        # is a block minimum.
        self.right_stable_gap = 1 + max(
            (max(max(b) for b in g) + sum(len(b) for b in g) for g in gens if g),
            default=1,
        )
        # explicit closure: each minima prefix of a generator -> the minima
        # that follow it in some generator, in increasing order
        self._next = {}
        for g in gens if self.explicit else ():
            mins = tuple(b[0] for b in g)
            for k in range(len(mins) + 1):
                self._next.setdefault(mins[:k], set()).update(mins[k:k + 1])
        self._next = {prefix: sorted(after) for prefix, after in self._next.items()}

    def initial_state(self):
        if not self.generators:
            return None
        return () if self.explicit else ((0,) * len(self.generators), None)

    def step(self, state, n):
        if self.explicit:
            after = state + (n,)
            return after if after in self._next else None
        positions, last = state
        after = []
        for g, pos in zip(self.generators, positions):
            if pos is not None and last is not None:
                # the last minimum takes the first block left with room below n
                pos = next((p + 1 for p in range(pos, len(g)) if _room(g[p], (last, n))), None)
            if pos is not None and (pos == len(g) or g[pos][0] > n):
                pos = None  # no block left has a spread with minimum n
            after.append(pos)
        return (tuple(after), n) if after.count(None) < len(after) else None

    def extensions(self, prefix, state, bound):
        if self.explicit:
            table = self._next[state]
            yield from ((n, state + (n,)) for n in table[:bisect_right(table, bound)])
            return
        lo = (prefix[-1] if prefix else 0) + 1
        hi = lo - 1 + self.right_stable_gap
        if self.step(state, hi) is None:
            return  # refused at the gap, so below it too
        while lo < hi:
            mid = (lo + hi) // 2
            if self.step(state, mid) is None:
                lo = mid + 1
            else:
                hi = mid
        for n in range(lo, bound + 1):
            yield n, self.step(state, n)

    def descriptor(self):
        return self.name


def lemma47_check(bt, n, bound):
    """Finite-scale inclusion of iterated derivatives through compression:

        CB-derivative^(2n+2) of (min bt)   is contained in   min(bl-derivative^(n+1) of bt)

    materialized over subsets of [1..bound].
    """
    if bt.closure != "spreading":
        raise TreeError("the check requires a spreading-closure tree")
    if n < 0:
        raise TreeError("the derivative count n must be nonnegative, got %d" % n)
    # A min-set member has at most as many elements as the longest generator
    # has blocks, so past that length the derivative is empty and the
    # inclusion holds; asking it would build a chain of 2n + 2 elements.
    if 2 * n + 2 > max(map(len, bt.generators), default=0):
        return True
    # derivatives of a hereditary right-stable family stay hereditary
    lhs = min_set(bt)
    for _ in range(2 * n + 2):
        lhs = cb_derivative(lhs)
    derived = bt
    for _ in range(n + 1):
        derived = block_derivative(derived)
    rhs_fam = min_set(derived)
    return all(rhs_fam.contains(f) for f in enumerate_family(lhs, bound))


def prop43_verify(alpha, witness, target, extension_pred, bound):
    """Finite surrogate of the witness characterization of tree indices.

    `witness` maps each non-empty member F of the fine Schreier family
    F_alpha within [1..bound] to a node label; the induced sequences must lie
    in `target`, and for every non-maximal F the tail of one-point
    extensions (x_(F u {n})) for n in (max F, bound] must satisfy
    `extension_pred`.  Returns (ok, first_violation_or_None).
    """
    tails = {}  # the witnesses of each member's one-point extensions, in order
    for f_set in filter(None, enumerate_family(FineSchreier(alpha), bound)):  # lex order
        if f_set not in witness:
            return (False, ("missing witness", f_set))
        # the prefixes of f_set are members listed before it, so witnessed
        if tuple(witness[f_set[: k + 1]] for k in range(len(f_set))) not in target:
            return (False, ("sequence not in target tree", f_set))
        tails.setdefault(f_set[:-1], []).append(witness[f_set])
    for f_set, tail in tails.items():
        if not extension_pred(tail):
            return (False, ("extension predicate fails", f_set))
    return (True, None)
