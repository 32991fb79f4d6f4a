import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from schreier.ordinals import ONE, OMEGA, from_int
from schreier.families import BudgetExceeded, Explicit, FineSchreier, Schreier
from schreier.functionals import dual_norm, norm_via_functionals, norming_set
from schreier.norms import NormParams, NormError, norm
from schreier.simplex import Infeasible, Master, min_l1_combination
from schreier.vectors import SparseVec, parse_vec

S1 = NormParams(Schreier(ONE), Fraction(1, 2))


def generate_oracle(family, c, indices, depth, signed, budget):
    """Reference generation: every combination rebuilt through SparseVec
    arithmetic, admissibility asked of `contains` on the whole prefix of
    minima.  Returns the depths map, as `norming_set(...).depths`."""
    indices = tuple(sorted(indices))
    base = [SparseVec([(i, Fraction(1))]) for i in indices]
    if signed:
        base += [f.scale(-1) for f in base]
    depths = {f: 0 for f in base}
    current = set(depths)
    for level in range(1, depth + 1):
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


def _passes(generate, budget):
    try:
        generate(budget)
    except NormError:
        return False
    return True


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

    # a non-spreading family: {2, 5} is a member, its spread {3, 5} is not
    NON_SPREADING = Explicit([(1, 2), (2, 5), (3, 4), (1, 3, 6)])

    @pytest.mark.parametrize("family, c, bound, depth", [
        (Schreier(ONE), Fraction(1, 2), 5, 3),
        (Schreier(ONE), Fraction(1, 2), 6, 3),
        (Schreier(ONE), Fraction(1, 2), 7, 3),
        (Schreier(from_int(2)), Fraction(1, 2), 6, 3),
        (FineSchreier(from_int(5)), Fraction(2, 3), 6, 3),
        (FineSchreier(OMEGA), Fraction(1, 2), 5, 3),
        (NON_SPREADING, Fraction(1, 3), 5, 3),
    ], ids=["S1-5", "S1-6", "S1-7", "S2-6", "F5-6", "Fw-5", "explicit-5"])
    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
    def test_matches_oracle(self, family, c, bound, depth, signed):
        params = NormParams(family, c)
        fs = norming_set(params, bound, depth, signed=signed)
        oracle = generate_oracle(family, c, range(1, bound + 1), depth, signed, 2_000_000)
        assert fs.depths == oracle
        assert all(type(v) is Fraction for f in fs for _, v in f.entries)

    def test_budget_matches_oracle(self):
        # the smallest budget that passes is the oracle's node-by-node peak
        ours = lambda budget: norming_set(S1, 5, 3, budget=budget)
        theirs = lambda budget: generate_oracle(S1.family, S1.c, range(1, 6), 3, True, budget)
        lo, hi = 0, 2_000_000  # passing is monotone in the budget: bisect
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _passes(theirs, mid) else (mid + 1, hi)
        threshold = lo
        assert threshold > len(ours(threshold))
        for budget in [50] + list(range(threshold - 12, threshold + 4)):
            assert _passes(ours, budget) == _passes(theirs, budget) == (budget >= threshold)

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


def _pair(column, duals):
    return sum((Fraction(a) * y for a, y in zip(column, duals)), Fraction(0))


class TestWarmMaster:
    """Columns added to a solved master against a from-scratch solve."""

    BOUND = 6

    @pytest.mark.parametrize("target", [
        "1:1,2:1,3:1,4:1,5:1,6:1",
        "2:3,5:-1/2",  # zero rows
        "1:-2,2:1/3",  # support in a short prefix
        "1:1,3:-5/3,4:1/2,6:4",
    ])
    def test_add_column_stays_optimal(self, target):
        rows = range(1, self.BOUND + 1)
        g = [parse_vec(target)[i] for i in rows]
        columns = [[Fraction(s) if j == i else Fraction(0) for j in rows]
                   for i in rows for s in (1, -1)]
        master = Master(columns, g, self.BOUND)
        flist = sorted(norming_set(S1, self.BOUND, 3), key=lambda f: f.entries)
        for f in random.Random(target).sample(flist, 40):
            columns.append([f[i] for i in rows])
            master.add_column(columns[-1])
            duals = master.duals
            assert _pair(g, duals) == master.value
            assert all(_pair(col, duals) <= 1 for col in columns)
            assert master.value == min_l1_combination(columns, g, self.BOUND)[0]
            weights = master.weights
            assert all(w >= 0 for w in weights)
            assert [sum(w * col[r] for w, col in zip(weights, columns)) for r in range(self.BOUND)] == g

    def test_artificial_left_on_a_redundant_row(self):
        # no start column reaches row 2, so phase 1 leaves its artificial
        # basic at level 0; the added columns must move it out, not up
        columns = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]]
        target = [Fraction(2), Fraction(0)]
        master = Master(columns, target, 2)
        assert master.value == 1
        for col in ([Fraction(3), Fraction(-1)], [Fraction(0), Fraction(1)],
                    [Fraction(1), Fraction(1)]):
            columns.append(col)
            master.add_column(col)
            assert master.value == min_l1_combination(columns, target, 2)[0]
            assert all(_pair(c, master.duals) <= 1 for c in columns)
            assert _pair(target, master.duals) == master.value


class TestDualNormBudget:
    def test_budget_reports_round_and_nodes(self):
        g = SparseVec([(1, Fraction(1))])
        assert dual_norm(S1, g, 10, 2) == 1
        with pytest.raises(BudgetExceeded, match=r"pricing .* round \d+: 1000 .*nodes"):
            dual_norm(S1, g, 10, 2, budget=1000)

    def test_negative_budget(self):
        with pytest.raises(NormError):
            dual_norm(S1, SparseVec([(1, Fraction(1))]), 4, 2, budget=-1)


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
