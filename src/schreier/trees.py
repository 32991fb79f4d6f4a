"""Tree indices at finite scale: orders, block derivatives, compression.

An explicit tree is a prefix-closed set of finite label sequences.  A block
tree is a tree of successive sequences of finite sets; the spreading-closure
representation stores generators and answers membership for every
subsequence-spread, which is the smallest finite encoding in which "one
extension implies infinitely many" is sound.
"""

from __future__ import annotations

import json

from .families import (
    FamilyHandle,
    Explicit,
    Oracle,
    finset,
    is_spread,
    is_successive,
)


class TreeError(ValueError):
    pass


# -- explicit trees ---------------------------------------------------------

class ExplicitTree:
    """A finite prefix-closed set of finite sequences over arbitrary labels."""

    def __init__(self, members):
        closed = set()
        for seq in members:
            seq = tuple(seq)
            for k in range(len(seq) + 1):
                closed.add(seq[:k])
        closed.add(())
        self.members = frozenset(closed)

    @classmethod
    def from_json(cls, data):
        """A tree from a JSON array of label sequences (labels are scalars)."""
        if not isinstance(data, list) or not all(
            isinstance(seq, list) and not any(isinstance(x, (list, dict)) for x in seq)
            for seq in data
        ):
            raise TreeError("a tree is a JSON array of arrays of scalar labels")
        return cls(data)

    def __contains__(self, seq):
        return tuple(seq) in self.members

    def __len__(self):
        return len(self.members)


def order(tree):
    """Height of a finite tree: steps of leaf removal until empty."""
    current = tree.members
    steps = 0
    while current:
        current = {x for x in current if any(y != x and y[: len(x)] == x for y in current)}
        steps += 1
    return steps


def order_recursive(tree):
    """Height computed by the recursive identity 1 + max over children."""

    def height(prefix):
        children = {
            seq[len(prefix)]
            for seq in tree.members
            if len(seq) > len(prefix) and seq[: len(prefix)] == prefix
        }
        return 1 + max((height(prefix + (ch,)) for ch in children), default=0)

    return height(()) if tree.members else 0


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
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def to_json(self):
        return {
            "generators": [[list(b) for b in g] for g in self.generators],
            "closure": self.closure,
        }

    @property
    def is_empty(self):
        return not self.generators

    def contains(self, seq):
        seq = tuple(tuple(b) for b in seq)
        if self.is_empty:
            return False
        if any(not b for b in seq) or not is_successive(seq):
            return False
        if self.closure == "explicit":
            return any(g[: len(seq)] == seq for g in self.generators)
        return any(_embeds_spread(seq, g) for g in self.generators)

    def __contains__(self, seq):
        return self.contains(seq)


def _embeds_spread(seq, gen):
    """Can seq be matched to a subsequence of gen, blockwise by spreads?"""
    t = 0
    for block in seq:
        while t < len(gen) and not is_spread(gen[t], block):
            t += 1
        if t == len(gen):
            return False
        t += 1
    return True


def block_derivative(bt):
    """One block derivative: members extendable by a further block.

    For a spreading-closure tree one stored extension yields all its spreads,
    hence an infinite successive sequence of extensions; explicit finite
    trees are rejected rather than silently emptied.
    """
    if bt.closure != "spreading":
        raise TreeError("block derivative requires a spreading-closure tree")
    gens = [g[:-1] for g in bt.generators if g]
    if not gens and not bt.is_empty:
        # tree was {empty sequence} only: derivative is the empty tree
        return BlockTree([], "spreading")
    return BlockTree(gens, "spreading")


def block_index_finite(bt, budget=32):
    """Steps of block derivation until empty; (steps, exact)."""
    current = bt
    for k in range(budget):
        if current.is_empty:
            return (k, True)
        current = block_derivative(current)
    return (budget, False)


def _minset_member(bt, f_set):
    """Is f_set = {min A_i} realizable by a member sequence of the closure?

    Blocks are placed greedily: block t gets minimum f_t and must fit inside
    [f_t, f_(t+1)) pointwise above its generator block; the last block has
    unbounded room to the right.
    """
    f_set = tuple(f_set)
    if not f_set:
        return not bt.is_empty
    k = len(f_set)

    def fits(block, lo, hi):
        # exists A with min A = lo, A pointwise >= block, A inside [lo, hi)
        if lo < block[0]:
            return False
        size = len(block)
        if hi is None:
            return True
        if hi - lo < size:
            return False
        # best placement: lo then the size-1 largest values below hi
        for t in range(1, size):
            if hi - size + t < block[t]:
                return False
        return hi - size + 1 > lo or size == 1

    for gen in bt.generators:
        # match f_1..f_k to a subsequence of gen
        n = len(gen)
        reach = [[False] * (n + 1) for _ in range(k + 1)]
        reach[0] = [True] * (n + 1)
        for t in range(1, k + 1):
            lo = f_set[t - 1]
            hi = f_set[t] if t < k else None
            for j in range(1, n + 1):
                if reach[t - 1][j - 1] and fits(gen[j - 1], lo, hi):
                    reach[t][j] = True
                elif reach[t][j - 1]:
                    reach[t][j] = True
        if reach[k][n]:
            return True
    return False


def min_set(bt):
    """The family { {min A_i} : (A_i) in bt } as a queryable handle.

    For spreading-closure trees the family is spreading and hereditary (the
    tree being hereditary by construction of the closure); a bound is
    required to enumerate it but not to query it.
    """
    if bt.closure == "explicit":
        members = set()
        for g in bt.generators:
            for k in range(len(g) + 1):
                members.add(tuple(b[0] for b in g[:k]))
        # heredity of bt (the caller's precondition) makes this downward closed
        return Explicit(members, already_closed=True)
    name = "minset(%s)" % ";".join(
        "|".join(",".join(map(str, b)) for b in g) for g in bt.generators
    )
    # Membership of F u {n} is monotone in n once n clears every generator
    # value and block size, so the family is right-stable with that gap.
    # (It need not be spreading: interior blocks require room between
    # consecutive minima.)
    gap = 1 + max(
        (max(max(b) for b in g) + sum(len(b) for b in g) for g in bt.generators if g),
        default=1,
    )
    return Oracle(lambda a: _minset_member(bt, a), name, right_stable_gap=gap)


def _cb_iterate_members(fam, steps, bound):
    """Members of the steps-fold CB derivative within [1..bound].

    The iterated derivative of a hereditary right-stable family is again
    hereditary, so the member trie can be walked with pruning."""
    from .families import cb_derivative, enumerate_family

    current = fam
    for _ in range(steps):
        current = cb_derivative(current)
    return set(enumerate_family(current, bound))


def lemma47_check(bt, n, bound):
    """Finite-scale inclusion of iterated derivatives through compression:

        CB-derivative^(2n+2) of (min bt)   is contained in   min(bl-derivative^(n+1) of bt)

    materialized over subsets of [1..bound].
    """
    if bt.closure != "spreading":
        raise TreeError("the check requires a spreading-closure tree")
    mins = min_set(bt)
    lhs = _cb_iterate_members(mins, 2 * n + 2, bound)
    derived = bt
    for _ in range(n + 1):
        derived = block_derivative(derived)
    rhs_fam = min_set(derived)
    return all(rhs_fam.contains(f) for f in lhs)


def prop43_verify(alpha, witness, target, extension_pred, bound):
    """Finite surrogate of the witness characterization of tree indices.

    `witness` maps each non-empty member F of the fine Schreier family
    F_alpha within [1..bound] to a node label; the induced sequences must lie
    in `target`, and for every non-maximal F the tail of one-point
    extensions (x_(F u {n})) for n in (max F, bound] must satisfy
    `extension_pred`.  Returns (ok, first_violation_or_None).
    """
    from .families import FineSchreier, enumerate_family, is_maximal

    fam = FineSchreier(alpha)
    members = [m for m in enumerate_family(fam, bound) if m]
    for f_set in members:
        if f_set not in witness:
            return (False, ("missing witness", f_set))
        seq = tuple(witness[f_set[: k + 1]] for k in range(len(f_set)))
        if any(f_set[: k + 1] not in witness for k in range(len(f_set))):
            return (False, ("missing witness prefix", f_set))
        if seq not in target:
            return (False, ("sequence not in target tree", f_set))
    for f_set in [()] + members:
        if fam.contains(f_set) and not is_maximal(fam, f_set):
            start = f_set[-1] + 1 if f_set else 1
            tail = []
            for m in range(start, bound + 1):
                ext = f_set + (m,)
                if fam.contains(ext):
                    if ext not in witness:
                        return (False, ("missing witness", ext))
                    tail.append(witness[ext])
            if tail and not extension_pred(tail):
                return (False, ("extension predicate fails", f_set))
    return (True, None)
