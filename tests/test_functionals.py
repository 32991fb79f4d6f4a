import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import pytest

from schreier import functionals, simplex
from schreier.ordinals import ONE, OMEGA, from_int
from schreier.families import (BudgetExceeded, Explicit, FineSchreier, Oracle, Schreier,
                               schreier_member)
from schreier.functionals import (_best_functional, _price_column, _signature_dp,
                                  dual_norm, norm_via_functionals, norming_set)
from schreier.norms import NormParams, NormError, norm
from schreier.simplex import Master, min_l1_combination
from schreier.vectors import SparseVec, parse_vec

S1 = NormParams(Schreier(ONE), Fraction(1, 2))


def generate_oracle(family, c, indices, depth, signed, budget):
    """Reference generation: every combination rebuilt through SparseVec
    arithmetic, admissibility asked of `contains` on the whole prefix of
    minima.  Returns the depth at which each functional first appears."""
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


def best_functional_oracle(params, x, depth, budget=float("inf")):
    """Reference pricing: the signature DP on Fractions, admissibility asked
    of `contains` on the whole prefix of minima.  Returns (value,
    functional, nodes), as `_best_functional`."""
    if not x:
        return Fraction(0), SparseVec([]), 0
    fam = params.family
    c = params.c
    ax = x.abs()
    pool = {(i, i): (ax[i], i) for i in x.support}
    nodes = 0

    for _ in range(depth):
        new = {}
        sigs = sorted(pool)

        def combine(mins, last_max, total, parts):
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("signature DP ran past %d nodes" % budget)
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
    return value, SparseVec(entries), nodes


def in_norming_set(family, c, f, depth):
    """Whether f lies in the signed set K_depth: up to signs, a coordinate
    functional, or c times a sum of k >= 2 members of K_(depth - 1) with
    successive supports whose minima form a member of `family`.  Every way
    of cutting the support into k >= 2 runs is tried, membership asked of
    `contains`."""

    def cuts(entries):
        for n in range(1, len(entries)):
            for rest in cuts(entries[n:]):
                yield (entries[:n],) + rest
        yield (entries,)

    @lru_cache(maxsize=None)
    def member(entries, depth):
        if len(entries) == 1 and entries[0][1] == 1:
            return True
        inner = tuple((i, v / c) for i, v in entries)
        return depth > 0 and any(
            len(parts) >= 2 and family.contains(tuple(part[0][0] for part in parts))
            and all(member(part, depth - 1) for part in parts) for parts in cuts(inner))

    return bool(f) and member(tuple((i, abs(v)) for i, v in f.entries), depth)


def price_column_oracle(params, duals, det, depth, budget=float("inf"), steps=None):
    """Reference dual-gauge pricing: `best_functional_oracle` on the
    Fraction duals duals[i - 1] / det, its maximiser as integers over the
    lcm of their denominators.  Returns (column, cost, nodes), as
    `functionals._price_column`."""
    rows = range(1, len(duals) + 1)
    x = SparseVec([(i, Fraction(duals[i - 1], det)) for i in rows])
    price, f, nodes = best_functional_oracle(params, x, depth, budget)
    if price <= 1:
        return None, 1, nodes
    cost = lcm(*(v.denominator for _, v in f.entries))
    return [f[i].numerator * (cost // f[i].denominator) for i in rows], cost, nodes


class Infeasible(Exception):
    pass


def unit_columns(m):
    """+e_1, -e_1, +e_2, ...: the columns every `Master` starts with."""
    return [[s if j == i else 0 for j in range(m)] for i in range(m) for s in (1, -1)]


class FractionMaster:
    """Reference master: the general two-phase Bland simplex on a Fraction
    tableau, as `simplex.Master` solved it before its tableau held integers
    and before its unit columns became implicit.  `log` holds the basis
    after every pivot."""

    def __init__(self, columns, target, m):
        n = len(columns)
        self.log = []
        self.flipped = flipped = [v < 0 for v in target]
        tableau = []
        for i in range(m):
            sign = -1 if flipped[i] else 1
            row = [sign * Fraction(col[i]) for col in columns] + [Fraction(0)] * m
            row.append(sign * Fraction(target[i]))
            row[n + i] = Fraction(1)
            tableau.append(row)
        basis = [n + i for i in range(m)]
        for j in range(n):
            nonzero = [i for i in range(m) if tableau[i][j]]
            if len(nonzero) == 1 and tableau[nonzero[0]][j] == 1 and basis[nonzero[0]] >= n:
                basis[nonzero[0]] = j
        self.tableau, self.basis, self.n, self.m = tableau, basis, n, m

        tableau.append([Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)])
        self._price_out(lambda j: j >= n)
        self._run(n + m)
        if tableau[-1][-1] != 0:
            raise Infeasible("target is not in the cone of the columns")
        for r in range(m):
            if basis[r] >= n:
                col = next((j for j in range(n) if tableau[r][j]), None)
                if col is not None:
                    self._pivot(r, col)
        tableau[-1] = [Fraction(1)] * n + [Fraction(0)] * (m + 1)
        self._price_out(lambda j: j < n)
        self._run(n)

    def _pivot(self, row, col):
        line = self.tableau[row]
        piv = line[col]
        line[:] = [v / piv for v in line]
        for r, other in enumerate(self.tableau):
            factor = other[col]
            if r != row and factor:
                other[:] = [w - factor * v for w, v in zip(other, line)]
        self.basis[row] = col
        self.log.append(list(self.basis))

    def _price_out(self, costed):
        obj = self.tableau[-1]
        for line, j in zip(self.tableau, self.basis):
            if costed(j):
                obj[:] = [w - v for w, v in zip(obj, line)]

    def _run(self, ncols):
        tableau, basis = self.tableau, self.basis
        while True:
            col = next((j for j in range(ncols) if tableau[-1][j] < 0), None)
            if col is None:
                return
            best = None
            for r in range(self.m):
                if tableau[r][col] > 0:
                    ratio = tableau[r][-1] / tableau[r][col]
                    if best is None or ratio < best[0] or (ratio == best[0]
                                                           and basis[r] < basis[best[1]]):
                        best = (ratio, r)
            self._pivot(best[1], col)

    def add_column(self, column):
        tableau, basis, n, m = self.tableau, self.basis, self.n, self.m
        a = [(i, -Fraction(v) if self.flipped[i] else Fraction(v)) for i, v in enumerate(column)]
        for line in tableau:
            line.insert(n, sum((line[n + i] * v for i, v in a), Fraction(0)))
        tableau[-1][n] += 1
        for r in range(m):
            if basis[r] >= n:
                basis[r] += 1
        self.n = n + 1
        for r in range(m):
            if basis[r] > n and tableau[r][n]:
                self._pivot(r, n)
        self._run(self.n)

    @property
    def weights(self):
        weights = [Fraction(0)] * self.n
        for r, j in enumerate(self.basis):
            if j < self.n:
                weights[j] = self.tableau[r][-1]
        return weights

    @property
    def value(self):
        return sum(self.weights, Fraction(0))

    @property
    def duals(self):
        obj = self.tableau[-1]
        return [obj[self.n + i] if f else -obj[self.n + i] for i, f in enumerate(self.flipped)]


def dense_dual_norm(fs, g, bound):
    """Reference gauge: the LP over the whole materialised set `fs`, with
    its weights and duals checked as a primal-dual certificate."""
    rows = range(1, bound + 1)
    columns = unit_columns(bound) + [[f[i] for i in rows] for f in fs]
    target = [g[i] for i in rows]
    value, weights, duals = min_l1_combination(columns[2 * bound:], target, bound)
    assert all(w >= 0 for w in weights) and sum(weights) == value
    assert [sum(w * col[r] for w, col in zip(weights, columns) if w) for r in range(bound)] == target
    assert _pair(target, duals) == value
    assert all(_pair(col, duals) <= 1 for col in columns)
    return value


def _passes(generate, budget):
    try:
        generate(budget)
    except NormError:
        return False
    return True


class TestSimplex:
    def test_exact_solution(self):
        # g = (1, 1) from +-e1, +-e2 and e1+e2: best weight is 1 on the sum,
        # whose weight follows the four unit columns'
        value, weights, _ = min_l1_combination([[1, 1]], [1, 1], 2)
        assert value == 1
        assert weights == [0, 0, 0, 0, 1]

    def test_negative_target_needs_negated_column(self):
        # lambda >= 0 only: -e1/2 is written by the implicit -e1, column 1
        value, weights, duals = min_l1_combination([], [Fraction(-1, 2), 0], 2)
        assert value == Fraction(1, 2)
        assert weights == [0, Fraction(1, 2), 0, 0]
        assert duals == [-1, 1]

    def test_rational_exactness(self):
        # e1/3 + 2 e2/7 costs 13/21 from the units and 1/2 from the first
        # column, twice the target; the other two cost 1 per unit of target
        cols = [[Fraction(2, 3), Fraction(4, 7)], [Fraction(1, 3), 0], [0, Fraction(1, 7)]]
        value, weights, duals = min_l1_combination(cols, [Fraction(1, 3), Fraction(2, 7)], 2)
        assert value == Fraction(1, 2)
        assert weights == [0, 0, 0, 0, Fraction(1, 2), 0, 0]
        assert duals == [Fraction(9, 14), 1]
        assert all(_pair(col, duals) <= 1 for col in unit_columns(2) + cols)

    def test_rows_hold_the_inverse_and_added_columns(self):
        # no stored unit columns: each row holds m + 1 integers, one more
        # per added column
        m = 30
        master = Master([Fraction(i % 5 - 2, i % 3 + 1) for i in range(m)], m)
        assert [len(row) for row in master.tableau] == [m + 1] * (m + 1)
        rng = random.Random(8)
        for k in range(1, 6):
            master.add_column([rng.choice([0, 1, -1, Fraction(1, 2)]) for _ in range(m)])
            assert [len(row) for row in master.tableau] == [m + k + 1] * (m + 1)
        assert all(type(v) is int for row in master.tableau for v in row)


class TestNormingSet:
    def test_depth_zero_is_coordinates(self):
        # +-e_i for each index in turn, the positive one first
        assert norming_set(S1, 4, 0) == [SparseVec([(i, Fraction(s))])
                                         for i in range(1, 5) for s in (1, -1)]

    def test_signed_doubles_depth_zero(self):
        assert len(norming_set(S1, 4, 0)) == 8

    def test_growth_with_depth(self):
        sizes = [len(norming_set(S1, 5, d)) for d in range(3)]
        assert sizes[0] < sizes[1] <= sizes[2]

    @pytest.mark.parametrize("bound, size", [(5, 202), (6, 1204), (7, 6762)])
    def test_sizes(self, bound, size):
        assert len(norming_set(S1, bound, 3)) == size

    def test_budget(self):
        with pytest.raises(NormError):
            norming_set(S1, 6, 3, budget=50)
        # the coordinate functionals are counted before any is made
        with pytest.raises(NormError, match="exceeded at depth 0: 2000000000000 functionals"):
            norming_set(S1, 10 ** 12, 1)

    # a non-spreading family: {2, 5} is a member, its spread {3, 5} is not
    NON_SPREADING = Explicit([(1, 2), (2, 5), (3, 4), (1, 3, 6)])

    ORACLE_CASES = [
        (Schreier(ONE), Fraction(1, 2), 5, 3),
        (Schreier(ONE), Fraction(1, 2), 6, 3),
        (Schreier(ONE), Fraction(1, 2), 7, 3),
        (Schreier(from_int(2)), Fraction(1, 2), 6, 3),
        (FineSchreier(from_int(5)), Fraction(2, 3), 6, 3),
        (FineSchreier(OMEGA), Fraction(1, 2), 5, 3),
        (NON_SPREADING, Fraction(1, 3), 5, 3),
        (Schreier(ONE), Fraction(1, 3), 5, 3),
        (Schreier(ONE), Fraction(9, 10), 5, 3),
        (FineSchreier(OMEGA), Fraction(1, 3), 5, 3),
        (FineSchreier(OMEGA), Fraction(9, 10), 5, 3),
        (Schreier(OMEGA), Fraction(1, 3), 5, 3),  # prefix states
        (Schreier(OMEGA), Fraction(9, 10), 5, 3),
    ]
    ORACLE_IDS = ["S1-5", "S1-6", "S1-7", "S2-6", "F5-6", "Fw-5", "explicit-5",
                  "S1-5-c1/3", "S1-5-c9/10", "Fw-5-c1/3", "Fw-5-c9/10", "Sw-5-c1/3", "Sw-5-c9/10"]

    @pytest.mark.parametrize("family, c, bound, depth", ORACLE_CASES, ids=ORACLE_IDS)
    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
    def test_matches_oracle(self, family, c, bound, depth, signed):
        # at each depth d, the list against the oracle's functionals of
        # depth <= d: all of them, or (unsigned) their positive ones
        # against the oracle run on positive coordinates only
        params = NormParams(family, c)
        oracle = generate_oracle(family, c, range(1, bound + 1), depth, signed, 2_000_000)
        for d in range(depth + 1):
            fs = norming_set(params, bound, d)
            assert len(set(fs)) == len(fs)
            if not signed:
                fs = [f for f in fs if all(v > 0 for _, v in f.entries)]
            assert set(fs) == {f for f, k in oracle.items() if k <= d}
        assert all(type(v) is Fraction for f in fs for _, v in f.entries)
        # a functional first made at depth d has coefficients +-c^k, k <= d
        for f, d in oracle.items():
            assert all(abs(v) in {c ** k for k in range(d + 1)} for _, v in f.entries)

    def test_budget_matches_oracle(self):
        # each level makes only new functionals, so the smallest budget that
        # passes is the size of the set; the oracle, which makes earlier
        # functionals again, needs more
        size = len(norming_set(S1, 5, 3))
        ours = lambda budget: norming_set(S1, 5, 3, budget=budget)
        theirs = lambda budget: generate_oracle(S1.family, S1.c, range(1, 6), 3, True, budget)
        for budget in [50] + list(range(size - 12, size + 4)):
            assert _passes(ours, budget) == (budget >= size)
        assert not _passes(theirs, size)
        with pytest.raises(NormError, match="budget of %d exceeded at depth 3: %d functionals held"
                           % (size - 1, size)):
            ours(size - 1)
        with pytest.raises(NormError, match="budget of 9 exceeded at depth 0: 10 functionals held"):
            ours(9)

    @pytest.mark.parametrize("family, c, bound, depth", ORACLE_CASES, ids=ORACLE_IDS)
    def test_signed_set_is_the_sign_flips(self, family, c, bound, depth):
        # the list is, depth by depth, each positive functional followed by
        # its other sign patterns in `itertools.product` order, each made
        # once; a shallower set is a prefix of a deeper one
        params = NormParams(family, c)
        fs = norming_set(params, bound, depth)
        positive = [f for f in fs if all(v > 0 for _, v in f.entries)]
        flips = [SparseVec([(i, s * v) for (i, v), s in zip(f.entries, signs)])
                 for f in positive for signs in product((1, -1), repeat=len(f))]
        assert fs == flips
        assert len(set(fs)) == len(fs)
        for d in range(depth):
            shallow = norming_set(params, bound, d)
            assert fs[:len(shallow)] == shallow

    def test_budget_within_sign_patterns(self):
        # S_1 on [1..5] at depth 1: 10 coordinate functionals, then, in
        # this order, 4 sign patterns each of {2, 3}, {2, 4}, {2, 5}, {3, 4},
        # 8 of {3, 4, 5} and 4 each of {3, 5}, {4, 5}; every budget from 11
        # to 41 but 14, 18, 22, 26, 34 and 38 runs out partway through one
        # support's patterns, and the count held is the one of making them
        # one at a time
        ours = lambda budget: norming_set(S1, 5, 1, budget=budget)
        assert len(ours(42)) == 42
        for budget in range(10, 42):
            with pytest.raises(NormError, match="budget of %d exceeded at depth 1: %d "
                               "functionals held$" % (budget, budget + 1)):
                ours(budget)
        # the positive functionals of the list come with all their patterns
        deep = norming_set(S1, 5, 3)
        positive = [f for f in deep if all(v > 0 for _, v in f.entries)]
        assert len(deep) == sum(2 ** len(f) for f in positive)

    def test_depth_past_the_bound(self):
        # a functional first made at depth d has d + 1 entries or more, so
        # a depth past bound - 1 adds nothing (and builds no table of c^d
        # for every d up to it)
        assert norming_set(S1, 3, 10 ** 9) == norming_set(S1, 3, 2)

    def test_negative_depth_and_budget(self):
        with pytest.raises(NormError, match="depth must be nonnegative, got -1"):
            norming_set(S1, 3, -1)
        with pytest.raises(NormError, match="budget must be nonnegative, got -1"):
            norming_set(S1, 3, 1, budget=-1)

    def test_example_functional_present(self):
        # c*(e2* + e3*) is one admissible combination, and so are its flips
        fs = norming_set(S1, 3, 1)
        f = SparseVec([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
        assert f in fs and f.scale(-1) in fs


class TestPricingOracle:
    """The integer, state-merged pricing DP against the Fraction/`contains`
    one, which enumerates the chains: the same value and no more nodes, and
    a maximiser that lies in K_depth, attains the value and is the same on
    every call (ties may resolve otherwise than in the oracle)."""

    @staticmethod
    def _agree(params, x, depth):
        ours = _best_functional(params, x, depth)
        assert type(ours[0]) is Fraction
        theirs = best_functional_oracle(params, x, depth)
        assert ours[0] == theirs[0]
        assert ours[2] <= theirs[2]
        if not x:
            return
        f = ours[1]
        assert in_norming_set(params.family, params.c, f, depth)
        assert f.inner(x) == ours[0]
        assert _best_functional(params, x, depth)[1] == f
        # the dual gauge's pricing, on x as integers over a common multiple
        # of its denominators
        rows = range(1, x.support[-1] + 1)
        det = 3 * lcm(*(v.denominator for _, v in x.entries))
        column, cost, nodes = _price_column(params, [x[i].numerator * det // x[i].denominator
                                                     for i in rows], det, depth, float("inf"))
        assert nodes == ours[2]
        if theirs[0] > 1:
            assert cost == params.c.denominator ** depth
            assert column == [f[i] * cost for i in rows]
        else:
            assert column is None

    def test_patterns_and_signed_targets(self):
        fs = norming_set(S1, 6, 3)
        patterns = sorted({f.abs() for f in fs}, key=lambda f: f.entries)
        assert len(patterns) == 87
        for x in patterns:
            self._agree(S1, x, 3)
        rng = random.Random(11)
        for _ in range(20):
            supp = sorted(rng.sample(range(1, 7), rng.randint(1, 6)))
            x = SparseVec([(i, Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3])))
                           for i in supp])
            self._agree(S1, x, 3)

    @pytest.mark.parametrize("family", [
        Schreier(ONE), Schreier(from_int(2)), FineSchreier(from_int(5)), FineSchreier(OMEGA),
        Schreier(OMEGA), TestNormingSet.NON_SPREADING,
    ], ids=["S1", "S2", "F5", "Fw", "Sw", "explicit"])
    def test_seeded_duals(self, family):
        rng = random.Random(family.descriptor())
        for c in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
            params = NormParams(family, c)
            for _ in range(8):
                supp = sorted(rng.sample(range(1, 8), rng.randint(1, 7)))
                x = SparseVec([(i, Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6),
                                            rng.randint(1, 10 ** 6))) for i in supp])
                self._agree(params, x, rng.randint(0, 3))

    def test_tied_values(self):
        # small integer targets make many chains tie; any maximiser will do,
        # but it must attain the value and lie in the set
        families = [Schreier(ONE), Schreier(from_int(2)), FineSchreier(from_int(2)),
                    FineSchreier(from_int(5)), FineSchreier(OMEGA), TestNormingSet.NON_SPREADING]
        # where the maximisers of an earlier DP, which resolved ties as the
        # oracle does, came out wrong: the least chain among tied best totals
        # decided the first case, the order of first appearance of the
        # signatures the second
        self._agree(NormParams(FineSchreier(from_int(5)), Fraction(1, 2)),
                    parse_vec("1:-1,2:2,3:-1,4:2,5:2,6:1,7:2,8:2"), 2)
        self._agree(NormParams(FineSchreier(OMEGA), Fraction(1, 2)),
                    parse_vec("1:1,2:1,3:1,4:1,5:1,6:1,7:-1,8:1"), 2)
        rng = random.Random(4)
        for _ in range(600):
            params = NormParams(rng.choice(families), rng.choice([Fraction(1, 2), Fraction(2, 3)]))
            supp = sorted(rng.sample(range(1, 9), rng.randint(2, 8)))
            x = SparseVec([(i, rng.choice([1, 1, 2, -1])) for i in supp])
            self._agree(params, x, rng.randint(1, 3))

    @pytest.mark.parametrize("target", ["1:1", "2:3,5:-1/2", "1:1,3:-5/3,4:1/2,6:4"])
    def test_budget_one_node_short(self, target, monkeypatch):
        g, bound = parse_vec(target), 6
        used = []
        price = functionals._price_column

        def recording(params, duals, det, depth, budget, steps=None):
            result = price(params, duals, det, depth, budget, steps)
            used.append(result[2])
            return result

        def run(budget):
            try:
                return dual_norm(S1, g, bound, 3, budget=budget)
            except BudgetExceeded as exc:
                return str(exc)

        ours = dual_norm(S1, g, bound, 3)
        with monkeypatch.context() as patched:
            patched.setattr(functionals, "_price_column", recording)
            assert run(10 ** 6) == ours
        rounds, total = len(used), sum(used)
        assert used[-1] > 0
        short = run(total - 1)
        assert "round %d: %d signature-DP nodes used, %d of them in the earlier rounds" % (
            rounds, total - 1, total - used[-1]) in short
        assert run(total) == ours

    def test_dual_norm_with_oracle_pricing(self, monkeypatch):
        rng = random.Random(12)
        g = SparseVec([(i, Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3])))
                       for i in range(1, 13)])
        ours = dual_norm(S1, g, 12, 2)
        with monkeypatch.context() as patched:
            patched.setattr(functionals, "_price_column", price_column_oracle)
            assert dual_norm(S1, g, 12, 2, budget=10 ** 9) == ours

    def test_exact_division_check(self):
        # unscaled leaves: c * (1 + 2) is not an integer
        with pytest.raises(ArithmeticError):
            _signature_dp(S1.family, S1.c, {2: 1, 3: 2}, 1, float("inf"))
        # scaled: the combination is worth 3, the leaf at 3 more
        assert _signature_dp(S1.family, S1.c, {2: 2, 3: 4}, 1, float("inf"))[:2] == (4, 3)


class TestFunctionalNorm:
    def test_negative_depth(self):
        with pytest.raises(NormError, match="depth must be nonnegative, got -1"):
            norm_via_functionals(S1, SparseVec([(1, Fraction(1))]), depth=-1)

    def test_matches_dp(self):
        rng = random.Random(3)
        for _ in range(20):
            supp = sorted(rng.sample(range(1, 10), rng.randint(1, 6)))
            x = SparseVec([(i, Fraction(rng.choice([-2, -1, 1, 3]))) for i in supp])
            assert norm_via_functionals(S1, x) == norm(S1, x)[0]

    def test_empty(self):
        assert norm_via_functionals(S1, SparseVec([])) == 0

    def test_depth_capped_at_the_support(self, monkeypatch):
        # the DP over n leaves is at its fixed point by depth n - 1, so no
        # deeper one is run (or scaled by q^depth)
        x = parse_vec("1:1,3:-2,4:1/2,7:3")
        want = norm(S1, x)[0]
        depths = []
        best = functionals._best_functional

        def recording(params, x, depth):
            depths.append(depth)
            return best(params, x, depth)

        monkeypatch.setattr(functionals, "_best_functional", recording)
        assert norm_via_functionals(S1, x, depth=10 ** 9) == want
        assert norm_via_functionals(S1, x) == want
        norm_via_functionals(S1, x, depth=2)
        assert depths == [3, 3, 2]


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
        fs = norming_set(S1, 6, 2)
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

    def test_depth_past_the_bound(self, monkeypatch):
        # K_depth over [1..5] stops growing at depth 4, so a deeper gauge is
        # priced at depth 4: its columns cost q^4, not q^(10^5)
        g = parse_vec("1:1,2:1,3:1")
        costs = []
        add = Master.add_column

        def recording(self, column, cost=1):
            costs.append(cost)
            return add(self, column, cost)

        monkeypatch.setattr(Master, "add_column", recording)
        deep = dual_norm(S1, g, 5, 10 ** 5)
        assert costs and all(cost == 2 ** 4 for cost in costs)
        assert deep == dual_norm(S1, g, 5, 4) == 3

    def test_empty(self):
        assert dual_norm(S1, SparseVec([]), 6, 2) == 0


def _pair(column, duals):
    return sum((a * y for a, y in zip(column, duals) if a), Fraction(0))


class TestWarmMaster:
    """Columns added to a solved master against a from-scratch solve."""

    BOUND = 6
    TARGETS = [
        "1:1,2:1,3:1,4:1,5:1,6:1",
        "2:3,5:-1/2",  # zero rows
        "1:-2,2:1/3",  # support in a short prefix
        "1:1,3:-5/3,4:1/2,6:4",
    ]

    @pytest.mark.parametrize("target", TARGETS)
    def test_add_column_stays_optimal(self, target):
        rows = range(1, self.BOUND + 1)
        g = [parse_vec(target)[i] for i in rows]
        columns = unit_columns(self.BOUND)
        master = Master(g, self.BOUND)
        flist = sorted(norming_set(S1, self.BOUND, 3), key=lambda f: f.entries)
        for f in random.Random(target).sample(flist, 40):
            columns.append([f[i] for i in rows])
            master.add_column(columns[-1])
            duals = master.duals
            assert _pair(g, duals) == master.value
            assert all(_pair(col, duals) <= 1 for col in columns)
            assert master.value == FractionMaster(columns, g, self.BOUND).value
            weights = master.weights
            assert all(w >= 0 for w in weights)
            assert [sum(w * col[r] for w, col in zip(weights, columns)) for r in range(self.BOUND)] == g


@pytest.fixture
def pivot_log(monkeypatch):
    """The basis after every pivot of `simplex.Master`."""
    log = []
    pivot = simplex._pivot

    def recording(tableau, basis, *args):
        det = pivot(tableau, basis, *args)
        log.append(list(basis))
        return det

    monkeypatch.setattr(simplex, "_pivot", recording)
    return log


class TestIntegerMaster:
    """The fraction-free master over implicit unit columns against the
    Fraction tableau given the unit columns first: the same basis after
    every pivot, and the same value, weights and duals."""

    @staticmethod
    def _run(log, target, m, added):
        theirs = FractionMaster(unit_columns(m), target, m)
        ours = Master(target, m)
        for column in (None,) + tuple(added):
            if column is not None:
                ours.add_column(column)
                theirs.add_column(column)
            assert log == theirs.log and ours.basis == theirs.basis
            assert ours.value == theirs.value
            assert ours.weights == theirs.weights
            assert ours.duals == theirs.duals
            assert all(type(v) is int for line in ours.tableau for v in line)

    @pytest.mark.parametrize("columns, target", [
        ([[1, 0], [0, 1], [1, 1]], [1, 1]),
        ([[1, 0], [0, 1]], [Fraction(-1, 2), 0]),
        ([[1, 0], [-1, 0]], [Fraction(-1, 2), 0]),
        ([[1, 0]], [0, 1]),
        ([[Fraction(1, 3), 0], [0, Fraction(1, 7)]], [Fraction(1, 3), Fraction(2, 7)]),
        ([[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]], [Fraction(2), Fraction(0)]),
        ([[Fraction(2, 3), Fraction(4, 7)], [2, -3]], [Fraction(1, 3), Fraction(-2, 7)]),
    ])
    def test_simplex_inputs(self, pivot_log, columns, target):
        added = columns + [[3, -1], [0, Fraction(1)], [Fraction(1), Fraction(1)]]
        self._run(pivot_log, target, 2, added)

    @pytest.mark.parametrize("target", TestWarmMaster.TARGETS)
    def test_warm_master_inputs(self, pivot_log, target):
        rows = range(1, TestWarmMaster.BOUND + 1)
        g = [parse_vec(target)[i] for i in rows]
        flist = sorted(norming_set(S1, TestWarmMaster.BOUND, 3), key=lambda f: f.entries)
        added = [[f[i] for i in rows] for f in random.Random(target).sample(flist, 40)]
        self._run(pivot_log, g, TestWarmMaster.BOUND, added)

    def test_dense_oracle_inputs(self, pivot_log):
        # a fixed sample of K(S1, 1/2, 6, 3) per target, one column at a time
        flist = sorted(norming_set(S1, 6, 3), key=lambda f: f.entries)
        rows = range(1, 7)
        patterns = sorted({f.abs() for f in flist}, key=lambda f: f.entries)
        rng = random.Random(11)
        targets = patterns[::12] + [
            SparseVec([(i, Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3])))
                       for i in sorted(rng.sample(range(1, 7), rng.randint(1, 6)))])
            for _ in range(4)]
        for g in targets:
            pivot_log.clear()
            added = [[f[i] for i in rows] for f in rng.sample(flist, 60)]
            self._run(pivot_log, [g[i] for i in rows], 6, added)

    def test_seeded_rational_inputs(self, pivot_log):
        # mixed denominators: scaled columns that look like units after
        # scaling, zero columns, negative targets
        rng = random.Random(17)
        entry = lambda: Fraction(rng.choice([-2, -1, 0, 0, 1, 2]), rng.choice([1, 2, 3]))
        for _ in range(60):
            m = rng.randint(1, 4)
            added = [[entry() for _ in range(m)] for _ in range(rng.randint(1, 7) + 4)]
            pivot_log.clear()
            self._run(pivot_log, [entry() for _ in range(m)], m, added)


class TestDualNormBudget:
    def test_budget_reports_round_and_nodes(self):
        g = SparseVec([(1, Fraction(1))])
        assert dual_norm(S1, g, 10, 2) == 1
        with pytest.raises(BudgetExceeded, match=r"pricing .* round \d+: 1000 .*nodes"):
            dual_norm(S1, g, 10, 2, budget=1000)

    def test_negative_budget(self):
        with pytest.raises(NormError):
            dual_norm(S1, SparseVec([(1, Fraction(1))]), 4, 2, budget=-1)

    def test_merged_chains_at_bound_30(self):
        # enumerating the admissible chains of minima passes 2,000,000 nodes
        # here; merged by residual state, they stay within 100,000
        value, _, nodes = _signature_dp(S1.family, S1.c, dict.fromkeys(range(1, 31), 4), 2,
                                        100_000)
        assert nodes <= 100_000
        assert Fraction(value, 4) == norm(S1, SparseVec([(i, 1) for i in range(1, 31)]))[0]

    def test_budget_bounds_family_steps(self):
        # a spreading family's chain that the largest minimum cannot extend
        # is not scanned, so the work is linear in the budget at any bound
        # (a scan of every minimum at each node took about 1,400 steps per
        # node at bound 400)
        fam = Schreier(ONE)
        calls = [0]
        step = fam.step

        def counting(state, n):
            calls[0] += 1
            return step(state, n)

        fam.step = counting
        budget = 10_000
        with pytest.raises(BudgetExceeded):
            _signature_dp(fam, Fraction(1, 2), dict.fromkeys(range(1, 401), 2), 1, budget)
        assert calls[0] <= 3 * budget
        calls[0] = 0
        with pytest.raises(NormError, match="generation budget"):
            norming_set(NormParams(fam, Fraction(1, 2)), 400, 1, budget=budget)
        assert calls[0] <= 3 * budget

    def test_bound_1500_in_round_one(self):
        # the budget runs out in the first pricing round
        with pytest.raises(BudgetExceeded) as exc:
            dual_norm(S1, SparseVec([(1, Fraction(1))]), 1500, 1)
        assert str(exc.value) == ("dual gauge pricing ran out of budget in round 1: 100000 "
                                  "signature-DP nodes used, 0 of them in the earlier rounds")

    def test_dense_target_rounds(self, monkeypatch):
        # the dense S_1 target of the `dual_norm` docstring, by its rounds
        rounds = []
        price = functionals._price_column

        def counting(*args):
            rounds.append(None)
            return price(*args)

        monkeypatch.setattr(functionals, "_price_column", counting)
        g = SparseVec([(i, Fraction((-1) ** i * (i % 5 + 1), i % 3 + 1)) for i in range(1, 15)])
        assert dual_norm(S1, g, 14, 2) == Fraction(168, 13)
        assert len(rounds) == 43

    def test_dense_target_at_bound_20(self, pricing_memo, price_log, dp_runs):
        # the bound-20 target of the `dual_norm` docstring, past the default
        # budget, by its value, rounds and nodes, from a cold pricing memo
        # and again warm; its 90 dual patterns are more than the memo holds
        g = SparseVec([(i, Fraction((-1) ** i * (i % 5 + 1), i % 3 + 1)) for i in range(1, 21)])
        for memo in ("cold", "warm"):
            price_log.clear()
            dp_runs.clear()
            assert dual_norm(S1, g, 20, 2, budget=10 ** 6) == Fraction(69, 5)
            assert len(price_log) == 97
            assert sum(nodes for _, _, nodes in price_log) == 527_157
            assert len(dp_runs) == len(_patterns(price_log)) == 90

    @staticmethod
    def _no_master(monkeypatch):
        def fail(*args):
            raise AssertionError("the master was built")

        monkeypatch.setattr(simplex, "Master", fail)

    def test_depth_zero_builds_no_master(self, monkeypatch):
        g = parse_vec("2:3,5:-1/2,9:1")
        want = dual_norm(S1, g, 12, 0)
        self._no_master(monkeypatch)
        assert want == Fraction(9, 2)
        assert dual_norm(S1, g, 1000, 0) == want

    def test_bound_past_budget_stops_before_the_master(self, monkeypatch):
        # the first duals are +-1 on every row, so the first round admits
        # every minimum up to the bound: the same error, without the master
        g = SparseVec([(1, Fraction(1))])
        message = ("dual gauge pricing ran out of budget in round 1: %d signature-DP nodes "
                   "used, 0 of them in the earlier rounds")
        # S_1 taken for a family the gauge cannot vouch for: priced in full
        unvouched = NormParams(Schreier(ONE), S1.c)
        unvouched.family.spreading = False
        with pytest.raises(BudgetExceeded) as priced:
            dual_norm(unvouched, g, 30, 1, budget=20)
        assert str(priced.value) == message % 20
        self._no_master(monkeypatch)
        rounds = []
        price = functionals._price_column

        def counting(*args):
            rounds.append(None)
            return price(*args)

        monkeypatch.setattr(functionals, "_price_column", counting)
        for bound, budget in ((30, 20), (1000, 20), (1000, 999)):
            with pytest.raises(BudgetExceeded) as guarded:
                dual_norm(S1, g, bound, 1, budget=budget)
            assert str(guarded.value) == message % budget
        assert not rounds
        # within the budget round 1 is priced, still without the master,
        # which is built once a round finds a column
        with pytest.raises(BudgetExceeded) as within:
            dual_norm(S1, g, 30, 1, budget=30)
        assert str(within.value) == message % 30
        assert len(rounds) == 1
        with pytest.raises(AssertionError, match="master was built"):
            dual_norm(S1, g, 10, 1)

    def test_bound_3000_in_round_one_without_the_master(self, monkeypatch):
        # B^-1 over [1..3000] would hold 9,000,000 integers; the first
        # round, priced on the signs of g, spends the budget before it
        self._no_master(monkeypatch)
        with pytest.raises(BudgetExceeded) as exc:
            dual_norm(S1, SparseVec([(1, Fraction(1))]), 3000, 1)
        assert str(exc.value) == ("dual gauge pricing ran out of budget in round 1: 100000 "
                                  "signature-DP nodes used, 0 of them in the earlier rounds")

    def test_round_one_without_a_column_builds_no_master(self, monkeypatch):
        # on [1..4] every functional of K_1 pairs with y = +-1 to at most 1
        # ({3, 4, 5} would pair to 3/2), so the gauge is sum |g_i| and no
        # master is built
        g = parse_vec("2:3,4:-1/2")
        self._no_master(monkeypatch)
        assert dual_norm(S1, g, 4, 1) == Fraction(7, 2)
        with pytest.raises(AssertionError, match="master was built"):
            dual_norm(S1, g, 5, 1)


@pytest.fixture
def pricing_memo(monkeypatch):
    """An empty `functionals._pricing_memo` for the test, the module's own
    restored afterwards."""
    monkeypatch.setattr(functionals, "_pricing_memo", {})
    return functionals._pricing_memo


@pytest.fixture
def price_log(monkeypatch):
    """(duals, column, nodes) of every `_price_column` call."""
    log = []
    price = functionals._price_column

    def recording(params, duals, det, depth, budget, steps=None):
        result = price(params, duals, det, depth, budget, steps)
        log.append((tuple(duals), result[0], result[2]))
        return result

    monkeypatch.setattr(functionals, "_price_column", recording)
    return log


@pytest.fixture
def dp_runs(monkeypatch):
    """One entry per `_signature_dp` run."""
    runs = []
    dp = functionals._signature_dp

    def counting(*args):
        runs.append(None)
        return dp(*args)

    monkeypatch.setattr(functionals, "_signature_dp", counting)
    return runs


def _targets(seed, bound, count):
    rng = random.Random(seed)
    return [SparseVec([(i, Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3])))
                       for i in sorted(rng.sample(range(1, bound + 1), rng.randint(1, bound)))])
            for _ in range(count)]


def _patterns(log):
    """The distinct dual patterns up to scale and sign of logged pricing
    calls: the (index, |y| / gcd) pairs of the nonzero numerators y."""
    out = set()
    for duals, _, _ in log:
        g = gcd(*duals)
        out.add(tuple((i, abs(y) // g) for i, y in enumerate(duals, 1) if y))
    return out


def _check_price(params, duals, det, depth, column, cost):
    """The priced column against the Fraction oracle: None where the best
    functional pairs with y = duals / det to at most 1, else a column
    column / cost attaining the oracle's maximum."""
    x = SparseVec([(i, Fraction(y, det)) for i, y in enumerate(duals, 1) if y])
    price = best_functional_oracle(params, x, depth)[0]
    if price <= 1:
        assert column is None
    else:
        assert sum(Fraction(a * y, cost * det) for a, y in zip(column, duals)) == price


class TestRoundOneCache:
    """The pricing memo, which grew from a table of round 1's unit duals:
    a run is kept per (family, spreading, c, depth, dual pattern up to
    scale and sign), so a warm memo changes no value, column or node count,
    runs the DP once per pattern it does not hold, and answers no family
    for another."""

    @pytest.mark.parametrize("family", [
        Schreier(ONE), Schreier(from_int(2)), FineSchreier(from_int(5)), FineSchreier(OMEGA),
        TestNormingSet.NON_SPREADING,
    ], ids=["S1", "S2", "F5", "Fw", "explicit"])
    @pytest.mark.parametrize("c, bound, depth", [(Fraction(1, 2), 6, 3),
                                                 (Fraction(2, 3), 8, 2)])
    def test_cold_and_warm_agree(self, pricing_memo, price_log, dp_runs, family, c,
                                 bound, depth):
        params = NormParams(family, c)

        def gauge(g):
            price_log.clear()
            dp_runs.clear()
            return dual_norm(params, g, bound, depth), list(price_log), len(dp_runs)

        targets = _targets(family.descriptor(), bound, 4)
        cold = []
        for g in targets:
            pricing_memo.clear()
            value, log, runs = gauge(g)
            assert runs == len(_patterns(log))
            # the same gauge at once finds every pattern in the memo
            assert gauge(g) == (value, log, 0)
            cold.append((value, log))
        # one memo over the targets, which evicts nothing here: a gauge runs
        # the DP once per pattern that no earlier gauge priced
        assert len(set().union(*(_patterns(log) for _, log in cold))) < functionals.PRICING_MEMO_CAP
        pricing_memo.clear()
        seen = set()
        for g, (value, log) in zip(targets, cold):
            assert gauge(g) == (value, log, len(_patterns(log) - seen))
            seen |= _patterns(log)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("target", ["1:1", "2:3,5:-1/2", "1:1,3:-5/3,4:1/2,6:4"])
    def test_budget_one_node_short(self, pricing_memo, price_log, warm, target):
        g = parse_vec(target)
        value = dual_norm(S1, g, 6, 3)
        used = [nodes for _, _, nodes in price_log]
        message = ("round %d: %d signature-DP nodes used, %d of them in the earlier rounds")
        for budget, rounds in ((used[0] - 1, 1), (sum(used) - 1, len(used))):
            if not warm:
                pricing_memo.clear()
            with pytest.raises(BudgetExceeded) as short:
                dual_norm(S1, g, 6, 3, budget=budget)
            assert message % (rounds, budget, sum(used[:rounds - 1])) in str(short.value)
        if not warm:
            pricing_memo.clear()
        assert dual_norm(S1, g, 6, 3, budget=sum(used)) == value

    @pytest.mark.parametrize("duals, det", [
        ([1, -1, 1, 1, -1, 1, 1], 1), ([1, -1, 1, 1, -1, 1, 1], 2), ([1, -1, 1, 1, -1, 1, 1], 3),
        ([1, -1, 0, 1, -1, 1, 1], 1), ([1, 0, 0, 0, 0, 0, 1], 1), ([2, -2, 2, 2, -2, 2, 2], 3),
    ])
    def test_only_unit_numerators_are_kept(self, pricing_memo, dp_runs, duals, det):
        # numerators equal up to scale and sign on their support are kept
        # as unit numerators, leaves q^depth, a zero dual left out; the
        # unit duals on that support and the duals again read that run,
        # and det still scales the price
        units = [(y > 0) - (y < 0) for y in duals]
        for ys in (duals, units, duals):
            column, cost, _ = _price_column(S1, ys, det, 3, float("inf"))
            _check_price(S1, ys, det, 3, column, cost)
        leaves = tuple((i, 8) for i, y in enumerate(duals, 1) if y)
        assert list(pricing_memo) == [(S1.family, True, S1.c, 3, leaves)]
        assert len(dp_runs) == 1

    def test_unvouched_priced_in_full(self, pricing_memo, price_log, dp_runs):
        # S_1 taken for a family the gauge cannot vouch for, after the
        # vouched S_1 has warmed the memo at the same parameters: each of
        # its patterns runs the DP and is kept under a key of its own
        g = parse_vec("1:1,4:-2")
        want = dual_norm(S1, g, 12, 1)
        vouched = list(pricing_memo)
        unvouched = NormParams(Schreier(ONE), S1.c)
        unvouched.family.spreading = False
        fresh = len(dp_runs)
        price_log.clear()
        assert dual_norm(unvouched, g, 12, 1) == want
        added = list(pricing_memo)[len(vouched):]
        assert vouched and {key[:2] for key in vouched} == {(S1.family, True)}
        assert {key[:2] for key in added} == {(S1.family, False)}
        assert len(dp_runs) - fresh == len(added) == len(_patterns(price_log))

    def test_oracles_sharing_a_name(self, pricing_memo):
        # oracle handles compare by name, so they are never keys
        s1 = Oracle(lambda a: schreier_member(ONE, a), "same")
        singletons = Oracle(lambda a: len(a) <= 1, "same")
        assert s1 == singletons
        g = parse_vec("1:1,2:1,3:1,4:1,5:1,6:1")
        want = dual_norm(S1, g, 6, 3)
        assert want < 6
        keys = list(pricing_memo)
        for fam, value in ((s1, want), (singletons, 6), (s1, want)):
            assert dual_norm(NormParams(fam, S1.c), g, 6, 3) == value
        assert list(pricing_memo) == keys
        assert keys and all(type(key[0]) is Schreier and key[:2] == (S1.family, True)
                            for key in keys)

    def test_bounded_table(self, pricing_memo, price_log, monkeypatch):
        keys = [(Schreier(ONE), Fraction(1, 2), 6, 3), (Schreier(ONE), Fraction(2, 3), 6, 3),
                (Schreier(from_int(2)), Fraction(1, 2), 7, 2),
                (FineSchreier(OMEGA), Fraction(1, 2), 5, 2),
                (TestNormingSet.NON_SPREADING, Fraction(2, 3), 6, 3)]
        rng = random.Random(9)
        calls = [(NormParams(fam, c), g, bound, depth)
                 for fam, c, bound, depth in keys * 3 for g in _targets(rng.random(), bound, 2)]
        rng.shuffle(calls)
        want = []
        priced = set()
        for params, g, bound, depth in calls:
            price_log.clear()
            want.append(dual_norm(params, g, bound, depth))
            assert len(pricing_memo) <= functionals.PRICING_MEMO_CAP
            priced |= {(params.family, params.c, depth, pattern)
                       for pattern in _patterns(price_log)}
        # more patterns than the cap were priced, so it was reached
        assert len(priced) > functionals.PRICING_MEMO_CAP
        pricing_memo.clear()
        monkeypatch.setattr(functionals, "PRICING_MEMO_CAP", 2)
        for call, value in zip(calls, want):
            assert dual_norm(*call) == value
            assert len(pricing_memo) <= 2

    def test_one_run_per_shared_first_round(self, pricing_memo, price_log, dp_runs):
        # 6 gauges at (S_1, 1/2, 6, 3): 24 rounds over 8 patterns, one DP
        # run each (the first-round table alone ran 19)
        for g in _targets(6, 6, 6):
            dual_norm(S1, g, 6, 3)
        assert len(price_log) == 24
        assert len(dp_runs) == len(_patterns(price_log)) == 8


class TestPricingMemo:
    """The memo's key is the dual pattern up to scale and sign: what shares
    an entry, and that sharing changes nothing."""

    @pytest.mark.parametrize("family", [Schreier(ONE), TestNormingSet.NON_SPREADING],
                             ids=["S1", "explicit"])
    @pytest.mark.parametrize("duals, det", [([3, -3, 3, 3, 0, -3], 4), ([3, -6, 9, 3, 0, -3], 40),
                                            ([5, 5, -5, 10, 5, 5], 11),
                                            ([10, 5, -5, 10, 0, 10], 12)])
    def test_scale(self, pricing_memo, dp_runs, family, duals, det):
        # duals and det k times as large: the same column (a combination,
        # or none) and nodes, one run
        params = NormParams(family, Fraction(1, 2))
        cold = []
        for k in (1, 2, 7):
            pricing_memo.clear()
            ys = [k * y for y in duals]
            cold.append(_price_column(params, ys, k * det, 3, float("inf")))
            _check_price(params, ys, k * det, 3, cold[-1][0], cold[-1][1])
        assert cold[0] == cold[1] == cold[2]
        pricing_memo.clear()
        dp_runs.clear()
        for k in (1, 2, 7):
            assert _price_column(params, [k * y for y in duals], k * det, 3,
                                 float("inf")) == cold[0]
        assert len(dp_runs) == len(pricing_memo) == 1

    def test_signs(self, pricing_memo, dp_runs):
        # equal magnitudes, two sign patterns: one entry, each call's own signs
        a = [2, -1, 3, 1, -2, 4]
        b = [-2, -1, 3, -1, 2, -4]
        ca, cost, nodes = _price_column(S1, a, 3, 2, float("inf"))
        cb, cost_b, nodes_b = _price_column(S1, b, 3, 2, float("inf"))
        assert ca is not None and (cost, nodes) == (cost_b, nodes_b)
        assert len(dp_runs) == len(pricing_memo) == 1
        assert cb == [v if (x > 0) == (y > 0) else -v for v, x, y in zip(ca, a, b)]
        _check_price(S1, a, 3, 2, ca, cost)
        _check_price(S1, b, 3, 2, cb, cost)

    def test_zero_duals(self, pricing_memo, price_log):
        # the rounds of a gauge whose duals hold zeros are kept, by their
        # nonzero support, and priced as the Fraction oracle prices them
        rng = random.Random(5)
        zeros = 0
        for target in _targets(5, 8, 6):
            pricing_memo.clear()
            price_log.clear()
            dual_norm(S1, target, 8, 2)
            for duals, _, _ in price_log:
                if 0 in duals:
                    zeros += 1
                    k = gcd(*duals)
                    leaves = tuple((i, abs(y) // k * 4) for i, y in enumerate(duals, 1) if y)
                    assert (S1.family, True, S1.c, 2, leaves) in pricing_memo
                    for det in (1, rng.randint(2, 50)):
                        column, cost, _ = _price_column(S1, duals, det, 2, float("inf"))
                        _check_price(S1, duals, det, 2, column, cost)
        assert zeros >= 5
        # all-zero duals, which no gauge prices, fail in the DP on no
        # leaves as before the memo, not by a division by their gcd 0
        with pytest.raises(IndexError):
            _price_column(S1, [0] * 4, 1, 2, float("inf"))

    @pytest.mark.parametrize("family", [
        Schreier(ONE), Schreier(from_int(2)), FineSchreier(from_int(5)), FineSchreier(OMEGA),
        TestNormingSet.NON_SPREADING, Oracle(lambda a: schreier_member(ONE, a), "s1"),
    ], ids=["S1", "S2", "F5", "Fw", "explicit", "oracle"])
    def test_memo_off_matches_memo_on(self, pricing_memo, price_log, dp_runs, monkeypatch,
                                      family):
        rng = random.Random(family.descriptor())
        calls = []
        for _ in range(6):
            c = rng.choice([Fraction(1, 2), Fraction(2, 3)])
            bound, depth = rng.randint(4, 8), rng.randint(1, 3)
            targets = _targets(rng.random(), bound, 2)
            calls += [(NormParams(family, c), g, bound, depth) for g in targets]

        def run():
            out = []
            for call in calls:
                price_log.clear()
                out.append((dual_norm(*call), list(price_log)))
            return out

        with monkeypatch.context() as off:
            off.setattr(functionals, "_SAME_FAMILY_TYPES", ())
            dp_runs.clear()
            want = run()
            assert not pricing_memo
            assert len(dp_runs) == sum(len(log) for _, log in want)
        dp_runs.clear()
        assert run() == want
        assert run() == want
        # the memo answered some rounds, save for the oracle, which is
        # priced afresh every time
        rounds = sum(len(log) for _, log in want)
        if type(family) is Oracle:
            assert not pricing_memo and len(dp_runs) == 2 * rounds
        else:
            assert pricing_memo and len(dp_runs) < 2 * rounds


def _counting_steps():
    """S_1 whose `step` calls are counted by (state, minimum)."""
    fam = Schreier(ONE)
    calls = Counter()
    step = fam.step

    def counting(state, n):
        calls[(state, n)] += 1
        return step(state, n)

    fam.step = counting
    return NormParams(fam, Fraction(1, 2)), calls


class TestStepCounts:
    """Family steps counted, not timed."""

    def test_norming_set_walks_signature_groups(self):
        # walking the chains of single functionals took 649 steps
        params, calls = _counting_steps()
        assert len(norming_set(params, 6, 3)) == 1204
        assert sum(calls.values()) == 116

    def test_gauge_takes_each_step_once(self, pricing_memo):
        # rebuilding the step table every round took 3,351 steps for 94 pairs;
        # a cold pricing memo, as a warm one may answer every round
        params, calls = _counting_steps()
        g = SparseVec([(i, Fraction((-1) ** i * (i % 5 + 1), i % 3 + 1)) for i in range(1, 15)])
        assert dual_norm(params, g, 14, 2) == Fraction(168, 13)
        assert max(calls.values()) == 1


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
