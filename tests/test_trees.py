import itertools
import random

import pytest

from schreier.ordinals import from_int
from schreier.families import FineSchreier, enumerate_family
from schreier.suites import random_block_tree
from schreier.trees import (
    BlockTree,
    ExplicitTree,
    TreeError,
    block_derivative,
    block_index_finite,
    lemma47_check,
    min_set,
    order,
    order_recursive,
    prop43_verify,
)


class TestOrder:
    def test_singleton_chain(self):
        # {(), (0,), (0,1), (0,1,2)} has order 4
        assert order(ExplicitTree([(0, 1, 2)])) == 4

    def test_branching(self):
        tree = ExplicitTree([(0, 1, 2), (3, 4, 5, 6, 7), (8,)])
        assert order(tree) == 6

    def test_empty_sequence_only(self):
        assert order(ExplicitTree([()])) == 1
        assert order(ExplicitTree([])) == 1

    def test_long_path(self):
        # the given sequences are kept, not their 20,001 prefixes
        tree = ExplicitTree.from_json([list(range(20000))])
        assert len(tree.sequences) == 1
        assert order(tree) == 20001

    def test_agrees_with_recursion(self):
        rng = random.Random(2)
        for _ in range(40):
            seqs = [
                tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(1, 10))
            ]
            tree = ExplicitTree(seqs)
            assert order(tree) == order_recursive(tree)


class TestBlockTree:
    def test_json_roundtrip(self):
        bt = BlockTree([[(1,), (2, 3)]])
        again = BlockTree.from_json(bt.to_json())
        assert again.generators == bt.generators
        assert again.closure == "spreading"

    def test_rejects_non_successive(self):
        with pytest.raises(TreeError):
            BlockTree([[(1, 4), (3,)]])

    def test_spreading_membership(self):
        bt = BlockTree([[(1,), (2, 3)]])
        assert bt.contains([(4,), (6, 9)])     # spread of the generator
        assert bt.contains([(2, 7)])           # spread of a subsequence
        assert not bt.contains([(1,), (2,)])   # second block too small
        assert not bt.contains([(1, 2), (3, 4)])

    def test_explicit_membership_is_prefixes(self):
        bt = BlockTree([[(1,), (2, 3)]], closure="explicit")
        assert bt.contains([(1,)])
        assert bt.contains([(1,), (2, 3)])
        assert not bt.contains([(4,)])


class TestBlockDerivative:
    def test_drops_last_block(self):
        bt = BlockTree([[(1,), (2, 3)]])
        d = block_derivative(bt)
        assert d.generators == (((1,),),)

    def test_explicit_rejected(self):
        with pytest.raises(TreeError):
            block_derivative(BlockTree([[(1,)]], closure="explicit"))

    def test_index(self):
        assert block_index_finite(BlockTree([[(1,), (2,)]])) == 3
        assert block_index_finite(BlockTree([[]])) == 1
        assert block_index_finite(BlockTree([])) == 0
        for gens in ([[(1,)]], []):
            with pytest.raises(TreeError):
                block_index_finite(BlockTree(gens, closure="explicit"))

    def test_index_counts_derivatives(self):
        for seed in range(200):
            bt = derived = random_block_tree(random.Random(seed))
            steps = 0
            while derived.generators:
                derived, steps = block_derivative(derived), steps + 1
            assert block_index_finite(bt) == steps


class TestMinSet:
    def test_explicit_example(self):
        bt = BlockTree([[(2, 3), (5, 9)]], closure="explicit")
        fam = min_set(bt)
        for a in [(), (2,), (2, 5)]:
            assert fam.contains(a)
        assert not fam.contains((5,))

    def test_closures_name_different_families(self):
        gens = [[(2, 3), (5, 9)]]
        explicit, spreading = (min_set(BlockTree(gens, c)) for c in ("explicit", "spreading"))
        assert explicit.contains((2, 5)) and not explicit.contains((3, 5))
        assert spreading.contains((3, 5))
        assert explicit != spreading and explicit == min_set(BlockTree(gens, "explicit"))

    def test_spreading_not_necessarily_spreading_family(self):
        # minima {1,5} is realizable but its spread {4,5} leaves no room
        # for the two-element first block
        bt = BlockTree([[(1, 2), (5,)]])
        fam = min_set(bt)
        assert fam.contains((1, 5))
        assert not fam.contains((4, 5))
        assert fam.contains((4, 6))


def brute_realizations(bt, count):
    """Every member sequence of `count` blocks that the tree's closure makes
    from one generator, listed by trying every increasing choice of generator
    positions; the blocks of a spread are drawn from [1..VALUES + 1]."""
    for g in bt.generators:
        for pos in itertools.combinations(range(len(g)), count):
            if bt.closure == "explicit":
                if pos == tuple(range(count)):
                    yield tuple(g[p] for p in pos)
                continue
            choices = [[a for a in itertools.combinations(range(1, VALUES + 2), len(g[p]))
                        if all(x <= y for x, y in zip(g[p], a))] for p in pos]
            for seq in itertools.product(*choices):
                if all(x[-1] < y[0] for x, y in zip(seq, seq[1:])):
                    yield seq


# Queries stay inside [1..VALUES].  Generator values stay below VALUES and
# blocks have at most two elements, so a spread whose minimum is at most
# VALUES has one inside [1..VALUES + 1].
VALUES = 11


class TestAgainstBruteForce:
    """Block membership and min-set membership against the member sequences
    listed by `brute_realizations`, which shares no code with the matcher."""

    TREES = [random_block_tree(random.Random(seed), max_len=3, max_block=2, value_bound=4)
             for seed in range(25)]

    @pytest.mark.parametrize("closure", ["spreading", "explicit"])
    def test_membership(self, closure):
        for tree in self.TREES:
            bt = BlockTree(tree.generators, closure)
            fam = min_set(bt)
            for count in range(4):
                members = set(brute_realizations(bt, count))
                minima = {tuple(b[0] for b in seq) for seq in members}
                for f_set in itertools.combinations(range(1, VALUES + 1), count):
                    assert fam.contains(f_set) == (f_set in minima), (bt.generators, f_set)
                for seq in members:
                    assert bt.contains(seq), (bt.generators, seq)
                # neighbours: a member with one block shifted by one
                for seq in members:
                    for i, block in enumerate(seq):
                        for d in (-1, 1):
                            other = seq[:i] + (tuple(x + d for x in block),) + seq[i + 1:]
                            if other[i][0] >= 1 and other[i][-1] <= VALUES + 1:
                                assert bt.contains(other) == (other in members), other


class TestLemma47:
    def test_single_generator(self):
        assert lemma47_check(BlockTree([[(1,), (2, 3)]]), 0, 10)

    def test_two_generators_n1(self):
        bt = BlockTree([[(1, 2), (3,)], [(1,), (2,), (3,)]])
        assert lemma47_check(bt, 1, 12)

    def test_explicit_rejected(self):
        with pytest.raises(TreeError):
            lemma47_check(BlockTree([[(1,)]], closure="explicit"), 0, 6)


class TestProp43:
    def test_identity_lift(self):
        target = BlockTree([[(1,), (2,)]])
        members = [f for f in enumerate_family(FineSchreier(from_int(2)), 6) if f]
        witness = {f: (f[-1],) for f in members}
        pred = lambda tail: all(a[0] < b[0] for a, b in zip(tail, tail[1:]))
        ok, why = prop43_verify(from_int(2), witness, target, pred, 6)
        assert ok, why

    def test_missing_witness_reported(self):
        target = BlockTree([[(1,), (2,)]])
        members = [f for f in enumerate_family(FineSchreier(from_int(2)), 6) if f]
        witness = {f: (f[-1],) for f in members}
        del witness[members[0]]
        ok, why = prop43_verify(from_int(2), witness, target, lambda t: True, 6)
        assert not ok
        assert why[0].startswith("missing witness")

    def test_wrong_target_reported(self):
        # one-block target cannot hold two-block sequences
        target = BlockTree([[(1,)]])
        members = [f for f in enumerate_family(FineSchreier(from_int(2)), 4) if f]
        witness = {f: (f[-1],) for f in members}
        ok, why = prop43_verify(from_int(2), witness, target, lambda t: True, 4)
        assert not ok
        assert why[0] == "sequence not in target tree"

    def test_extension_tails(self):
        target = BlockTree([[(1,), (2,)]])
        members = [f for f in enumerate_family(FineSchreier(from_int(2)), 5) if f]
        witness = {f: (f[-1],) for f in members}
        seen = []
        ok, _ = prop43_verify(from_int(2), witness, target, lambda t: not seen.append(t), 5)
        assert ok
        # one tail per member with extensions within the bound, in lex order
        assert seen == [[(n,) for n in range(m + 1, 6)] for m in range(5)]
        ok, why = prop43_verify(from_int(2), witness, target, lambda t: t[0] == (1,), 5)
        assert (ok, why) == (False, ("extension predicate fails", (1,)))
