import random
from fractions import Fraction

import pytest

from schreier.ordinals import ONE
from schreier.families import Schreier
from schreier.functionals import dual_norm, norm_via_functionals, norming_set
from schreier.norms import NormParams, NormError, norm
from schreier.simplex import Infeasible, min_l1_combination
from schreier.vectors import SparseVec

S1 = NormParams(Schreier(ONE), Fraction(1, 2))


def dense_dual_norm(fs, g, bound):
    """Reference gauge: the LP over the whole materialised set `fs`, with
    its duals checked as an optimality certificate."""
    rows = range(1, bound + 1)
    columns = [[f[i] for i in rows] for f in fs]
    target = [g[i] for i in rows]
    value, _, duals = min_l1_combination(columns, target, bound)
    pair = lambda v: sum((a * y for a, y in zip(v, duals)), Fraction(0))
    assert pair(target) == value
    assert all(pair(col) <= 1 for col in columns)
    return value


class TestSimplex:
    def test_exact_solution(self):
        # g = (1, 1) from columns e1, e2, e1+e2: best weight is 1 on the sum
        cols = [[1, 0], [0, 1], [1, 1]]
        value, weights, _ = min_l1_combination(cols, [1, 1], 2)
        assert value == 1
        assert sum(w * Fraction(c[0]) for w, c in zip(weights, cols)) == 1

    def test_negative_target_needs_negated_column(self):
        # lambda >= 0 only: -e1/2 is unreachable without the negated column
        with pytest.raises(Infeasible):
            min_l1_combination([[1, 0], [0, 1]], [Fraction(-1, 2), 0], 2)
        value, _, _ = min_l1_combination([[1, 0], [-1, 0]], [Fraction(-1, 2), 0], 2)
        assert value == Fraction(1, 2)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            min_l1_combination([[1, 0]], [0, 1], 2)

    def test_rational_exactness(self):
        cols = [[Fraction(1, 3), 0], [0, Fraction(1, 7)]]
        value, _, _ = min_l1_combination(cols, [Fraction(1, 3), Fraction(2, 7)], 2)
        assert value == 3


class TestNormingSet:
    def test_depth_zero_is_coordinates(self):
        fs = norming_set(S1, 4, 0, signed=False)
        assert len(fs) == 4
        assert all(len(f.support) == 1 for f in fs)

    def test_signed_doubles_depth_zero(self):
        assert len(norming_set(S1, 4, 0, signed=True)) == 8

    def test_growth_with_depth(self):
        sizes = [len(norming_set(S1, 5, d, signed=False)) for d in range(3)]
        assert sizes[0] < sizes[1] <= sizes[2]

    @pytest.mark.parametrize("bound, size", [(5, 202), (6, 1204), (7, 6762)])
    def test_sizes(self, bound, size):
        assert len(norming_set(S1, bound, 3)) == size

    def test_budget(self):
        with pytest.raises(NormError):
            norming_set(S1, 6, 3, budget=50)

    def test_example_functional_present(self):
        # c*(e2* + e3*) is one admissible combination
        fs = norming_set(S1, 3, 1, signed=False)
        f = SparseVec([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
        assert f in fs


class TestFunctionalNorm:
    def test_matches_dp(self):
        rng = random.Random(3)
        for _ in range(20):
            supp = sorted(rng.sample(range(1, 10), rng.randint(1, 6)))
            x = SparseVec([(i, Fraction(rng.choice([-2, -1, 1, 3]))) for i in supp])
            assert norm_via_functionals(S1, x) == norm(S1, x)[0]

    def test_empty(self):
        assert norm_via_functionals(S1, SparseVec([])) == 0


class TestDualNorm:
    def test_functional_in_ball(self):
        g = SparseVec([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
        assert dual_norm(S1, g, 6, 3) == 1

    def test_coordinate_functional(self):
        assert dual_norm(S1, SparseVec([(4, Fraction(1))]), 6, 2) == 1

    def test_scaling(self):
        g = SparseVec([(4, Fraction(1, 2))])
        assert dual_norm(S1, g, 6, 2) == Fraction(1, 2)

    def test_pairing_inequality(self):
        rng = random.Random(5)
        fs = norming_set(S1, 6, 2, signed=True)
        flist = sorted(fs, key=lambda f: f.entries)
        for _ in range(30):
            f = rng.choice(flist)
            supp = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
            x = SparseVec([(i, Fraction(rng.choice([-2, -1, 1, 2]))) for i in supp])
            gauge = dual_norm(S1, f, 6, 2, functionals=fs)
            assert f.inner(x) <= gauge * norm(S1, x)[0]

    def test_support_outside_bound(self):
        with pytest.raises(NormError):
            dual_norm(S1, SparseVec([(9, Fraction(1))]), 6, 2)

    def test_empty(self):
        assert dual_norm(S1, SparseVec([]), 6, 2) == 0


class TestDualNormOracle:
    """Column generation against the dense LP over K(S1, 1/2, 6, 3)."""

    def test_absolute_patterns(self):
        fs = norming_set(S1, 6, 3)
        patterns = sorted({f.abs() for f in fs}, key=lambda f: f.entries)
        assert len(patterns) == 87
        for g in patterns:
            assert dual_norm(S1, g, 6, 3) == dense_dual_norm(fs, g, 6)

    def test_signed_targets(self):
        fs = norming_set(S1, 6, 3)
        rng = random.Random(11)
        for _ in range(20):
            supp = sorted(rng.sample(range(1, 7), rng.randint(1, 6)))
            g = SparseVec([(i, Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3])))
                           for i in supp])
            assert dual_norm(S1, g, 6, 3) == dense_dual_norm(fs, g, 6)
