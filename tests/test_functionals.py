import random
from bisect import bisect_right
from fractions import Fraction
from math import lcm

import pytest

from schreier import functionals, simplex
from schreier.ordinals import ONE, OMEGA, from_int
from schreier.families import BudgetExceeded, Explicit, FineSchreier, Schreier
from schreier.functionals import (_best_functional, _price_column, _signature_dp,
                                  dual_norm, norm_via_functionals, norming_set)
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


def price_column_oracle(params, duals, det, depth, budget=float("inf")):
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


class FractionMaster:
    """Reference master: the two-phase Bland simplex on a Fraction tableau,
    as `simplex.Master` solved it before its tableau held integers.  `log`
    holds the basis after every pivot."""

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
        (Schreier(ONE), Fraction(1, 3), 5, 3),
        (Schreier(ONE), Fraction(9, 10), 5, 3),
        (FineSchreier(OMEGA), Fraction(1, 3), 5, 3),
        (FineSchreier(OMEGA), Fraction(9, 10), 5, 3),
        (Schreier(OMEGA), Fraction(1, 3), 5, 3),  # prefix states
        (Schreier(OMEGA), Fraction(9, 10), 5, 3),
    ], ids=["S1-5", "S1-6", "S1-7", "S2-6", "F5-6", "Fw-5", "explicit-5",
            "S1-5-c1/3", "S1-5-c9/10", "Fw-5-c1/3", "Fw-5-c9/10", "Sw-5-c1/3", "Sw-5-c9/10"])
    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
    def test_matches_oracle(self, family, c, bound, depth, signed):
        params = NormParams(family, c)
        fs = norming_set(params, bound, depth, signed=signed)
        oracle = generate_oracle(family, c, range(1, bound + 1), depth, signed, 2_000_000)
        assert fs.depths == oracle
        assert all(type(v) is Fraction for f in fs for _, v in f.entries)
        # a functional first made at depth d has coefficients +-c^k, k <= d
        for f, d in fs.depths.items():
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

    def test_example_functional_present(self):
        # c*(e2* + e3*) is one admissible combination
        fs = norming_set(S1, 3, 1, signed=False)
        f = SparseVec([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
        assert f in fs


class TestPricingOracle:
    """The integer, state-merged pricing DP against the Fraction/`contains`
    one, which enumerates the chains: the same value and functional, and
    no more nodes."""

    @staticmethod
    def _agree(params, x, depth):
        ours = _best_functional(params, x, depth)
        assert type(ours[0]) is Fraction
        theirs = best_functional_oracle(params, x, depth)
        assert ours[:2] == theirs[:2]
        assert ours[2] <= theirs[2]
        if not x:
            return
        # the dual gauge's pricing, on x as integers over a common multiple
        # of its denominators
        rows = range(1, x.support[-1] + 1)
        det = 3 * lcm(*(v.denominator for _, v in x.entries))
        column, cost, nodes = _price_column(params, [x[i].numerator * det // x[i].denominator
                                                     for i in rows], det, depth, float("inf"))
        assert nodes == ours[2]
        if theirs[0] > 1:
            assert cost == params.c.denominator ** depth
            assert [Fraction(v, cost) for v in column] == [theirs[1][i] for i in rows]
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
        # small integer targets make many chains tie; the maximiser is still
        # the one the oracle's lexicographic scan finds first
        families = [Schreier(ONE), Schreier(from_int(2)), FineSchreier(from_int(2)),
                    FineSchreier(from_int(5)), FineSchreier(OMEGA), TestNormingSet.NON_SPREADING]
        # the least chain among tied best totals decides the first case, the
        # order of first appearance of the signatures the second
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

        def recording(params, duals, det, depth, budget):
            result = price(params, duals, det, depth, budget)
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


@pytest.fixture
def pivot_log(monkeypatch):
    """The basis after every pivot of `simplex.Master`."""
    log = []
    pivot = simplex._pivot

    def recording(tableau, basis, row, col, det):
        det = pivot(tableau, basis, row, col, det)
        log.append(list(basis))
        return det

    monkeypatch.setattr(simplex, "_pivot", recording)
    return log


class TestIntegerMaster:
    """The fraction-free master against the Fraction tableau: the same basis
    after every pivot, and the same value, weights and duals."""

    @staticmethod
    def _run(log, columns, target, m, added=()):
        try:
            theirs = FractionMaster(columns, target, m)
        except Infeasible:
            with pytest.raises(Infeasible):
                Master(columns, target, m)
            return
        ours = Master(columns, target, m)
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
    ])
    def test_simplex_inputs(self, pivot_log, columns, target):
        added = [[3, -1], [0, Fraction(1)], [Fraction(1), Fraction(1)]]
        self._run(pivot_log, columns, target, 2, added)

    @pytest.mark.parametrize("target", TestWarmMaster.TARGETS)
    def test_warm_master_inputs(self, pivot_log, target):
        rows = range(1, TestWarmMaster.BOUND + 1)
        g = [parse_vec(target)[i] for i in rows]
        columns = [[Fraction(s) if j == i else Fraction(0) for j in rows]
                   for i in rows for s in (1, -1)]
        flist = sorted(norming_set(S1, TestWarmMaster.BOUND, 3), key=lambda f: f.entries)
        added = [[f[i] for i in rows] for f in random.Random(target).sample(flist, 40)]
        self._run(pivot_log, columns, g, TestWarmMaster.BOUND, added)

    def test_dense_oracle_inputs(self, pivot_log):
        fs = norming_set(S1, 6, 3)
        rows = range(1, 7)
        columns = [[f[i] for i in rows] for f in fs]
        patterns = sorted({f.abs() for f in fs}, key=lambda f: f.entries)
        rng = random.Random(11)
        targets = patterns[::12] + [
            SparseVec([(i, Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3])))
                       for i in sorted(rng.sample(range(1, 7), rng.randint(1, 6)))])
            for _ in range(4)]
        for g in targets:
            pivot_log.clear()
            self._run(pivot_log, columns, [g[i] for i in rows], 6)

    def test_seeded_rational_inputs(self, pivot_log):
        # mixed denominators: scaled columns that look like units after
        # scaling, negative pivots when artificials leave, infeasible targets
        rng = random.Random(17)
        entry = lambda: Fraction(rng.choice([-2, -1, 0, 0, 1, 2]), rng.choice([1, 2, 3]))
        for _ in range(60):
            m = rng.randint(1, 4)
            columns = [[entry() for _ in range(m)] for _ in range(rng.randint(1, 7))]
            added = [[entry() for _ in range(m)] for _ in range(4)]
            pivot_log.clear()
            self._run(pivot_log, columns, [entry() for _ in range(m)], m, added)


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
