import functools
import gc
import itertools
import pathlib
import random
import sys
import time
import tracemalloc

import pytest

from fractions import Fraction

from schreier import families, ordinals, trees
from schreier.ordinals import (
    OMEGA, ONE, add, classify, from_int, fundamental_seq, mul, omega_pow, parse_ordinal,
)
from schreier.families import (
    DEFAULT_HORIZON,
    EXPLICIT_CAP,
    BudgetExceeded,
    Derived,
    Explicit,
    FamilyError,
    FamilyHandle,
    FineSchreier,
    Oracle,
    Residual,
    Schreier,
    cb_derivative,
    cb_index_finite,
    check_structure,
    enumerate_family,
    finset,
    format_finset,
    fs_member,
    is_admissible,
    is_maximal,
    is_spread,
    is_successive,
    parse_finset,
    residual,
    schreier_member,
)
from schreier.functionals import norm_via_functionals
from schreier.norms import NormParams, norm, norm_exhaustive
from schreier.suites import random_block_tree
from schreier.vectors import SparseVec
from schreier.trees import BlockTree, min_set


def subsets(bound, max_size):
    for r in range(max_size + 1):
        yield from itertools.combinations(range(1, bound + 1), r)


class TestFinSet:
    def test_parse_and_format(self):
        assert parse_finset("2,5,9") == (2, 5, 9)
        assert parse_finset("-") == ()
        assert format_finset((2, 5, 9)) == "2,5,9"
        assert format_finset(()) == "-"

    def test_parse_rejects(self):
        with pytest.raises((FamilyError, ValueError)):
            parse_finset("3,2")
        with pytest.raises((FamilyError, ValueError)):
            parse_finset("0,1")

    def test_refuses_bools(self):
        # JSON `true` loads as a bool, which Python counts as the int 1
        for elements in [(True, 2), (1, True)]:
            with pytest.raises(FamilyError, match="positive integers"):
                finset(elements)

    def test_spread_and_successive(self):
        assert is_spread((1, 3), (2, 5))
        assert not is_spread((2, 5), (1, 3))
        assert not is_spread((1, 3), (4,))
        assert is_successive([(1, 2), (4, 5)])
        assert not is_successive([(1, 4), (3, 5)])


class TestClosedForms:
    def test_fine_finite_is_cardinality(self):
        for k in range(5):
            for a in subsets(9, 6):
                assert fs_member(from_int(k), a) == (len(a) <= k)

    def test_schreier_one(self):
        for a in subsets(10, 6):
            expected = (not a) or len(a) <= a[0]
            assert schreier_member(ONE, a) == expected

    def test_f_zero_is_empty_set_only(self):
        fam = FineSchreier(from_int(0))
        assert fam.contains(())
        assert not fam.contains((1,))

    def test_schreier_two_examples(self):
        s2 = Schreier(from_int(2))
        # {3,4,5} in S_1 and a fortiori in S_2
        assert s2.contains((3, 4, 5))
        # two S_1 blocks joined: {2,3} u {4,5,6,7} has minima {2,4} in S_1
        assert s2.contains((2, 3, 4, 5, 6, 7))
        assert not s2.contains((1, 2, 3))

    def test_limit_family(self):
        # F_w below n looks like F_(n') for some finite n' <= min
        fw = FineSchreier(OMEGA)
        assert fw.contains((3, 7, 9))
        assert not fw.contains((1, 2))
        assert fw.contains((2, 5))


@functools.lru_cache(maxsize=None)
def oracle_member(alpha, a):
    """Membership in F_alpha by the defining recursion: a reference that
    shares no code with `fs_member` or the residual states."""
    if not a:
        return True
    if alpha.is_zero:
        return False
    if alpha.is_successor:
        return oracle_member(classify(alpha)[1], a[1:])
    return any(oracle_member(fundamental_seq(alpha, n), a) for n in range(1, a[0] + 1))


def read_states(fam, a):
    """Membership of `a` by reading it through the family's residual states."""
    state = fam.initial_state()
    for n in a:
        if state is None:
            return False
        state = fam.step(state, n)
    return state is not None


OMEGA_SQ = omega_pow(from_int(2))
OMEGA_OMEGA = omega_pow(OMEGA)


class TestResidualStates:
    FAMILIES = [
        FineSchreier(from_int(5)),
        FineSchreier(OMEGA),
        Schreier(ONE),
        Schreier(from_int(2)),
        FineSchreier(add(OMEGA_SQ, ONE)),
        FineSchreier(add(mul(OMEGA, from_int(2)), from_int(3))),
        # prefix states, and the search at limits from w^w on
        FineSchreier(OMEGA_OMEGA),
        FineSchreier(add(OMEGA_OMEGA, from_int(2))),
        FineSchreier(add(OMEGA_OMEGA, OMEGA)),
        FineSchreier(mul(OMEGA_OMEGA, from_int(2))),
    ]

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.descriptor())
    def test_states_accept_exactly_the_members(self, fam):
        for a in subsets(12, 6):
            expected = oracle_member(fam.alpha, a)
            assert fs_member(fam.alpha, a) == expected, a
            assert read_states(fam, a) == expected, a

    def test_fundamental_sequences_grow_by_inclusion(self):
        # F_(lam[m]) <= F_(lam[m+1]) for every limit lam, which lets a fine
        # state be one ordinal.  Proof: F_b <= F_(b+1) by heredity, and
        # F_(g[1]) <= F_g at a limit g, as every nonempty set has minimum
        # >= 1; so F_b <= F_g whenever g reaches b by [1]-steps and
        # predecessors.  Without absorption (b's last exponent >= e),
        # (b + w^e)[1] = b + w^e' with e' = e - 1 or e[1], so b + w^e
        # reaches b (induction on e).  If lam's last exponent g is a
        # successor, lam[m+1] = lam[m] + w^(g-1) without absorption; if g is
        # a limit, lam[m+1] and lam[m] are h + w^(g[m+1]) and h + w^(g[m]),
        # and a step on the exponent is a [1]-step on h + w^exponent, so
        # lam[m+1] reaches lam[m] by induction on g.
        for lam in (OMEGA, mul(OMEGA, from_int(2)), OMEGA_SQ, add(OMEGA_SQ, OMEGA),
                    omega_pow(from_int(3)), OMEGA_OMEGA, add(OMEGA_OMEGA, OMEGA),
                    omega_pow(add(OMEGA, ONE)), omega_pow(mul(OMEGA, from_int(2))),
                    omega_pow(OMEGA_SQ), mul(OMEGA_OMEGA, from_int(2))):
            for m in range(1, 5):
                low, high = fundamental_seq(lam, m), fundamental_seq(lam, m + 1)
                for a in subsets(10, 5):
                    assert not oracle_member(low, a) or oracle_member(high, a), (lam, m, a)

    def test_omega_omega_and_explicit_keep_prefix_states(self):
        for fam in (Schreier(OMEGA), Explicit([(2, 5), (3,)])):
            assert fam.initial_state() == ()
            assert fam.step((), 2) == (2,)
        assert Schreier(OMEGA).step((1,), 2) is None
        assert Explicit([(2, 5)]).step((2,), 4) is None
        for a in subsets(10, 5):
            assert read_states(Schreier(OMEGA), a) == Schreier(OMEGA).contains(a)

    def test_search_memo_is_bounded(self, monkeypatch):
        # at the cap the older half of the memo goes, in insertion order
        class Recorder(families.BoundedMemo):
            inserted, sizes = [], []

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                Recorder.inserted.append(key)
                Recorder.sizes.append(len(self))

        cases = [(alpha, a) for alpha in (OMEGA_OMEGA, add(OMEGA_OMEGA, OMEGA),
                                          mul(OMEGA_OMEGA, from_int(2)))
                 for a in subsets(10, 5)]
        # a dict, whose size the benchmark reads, counting entries
        assert isinstance(families._fs_cache, dict)
        assert families._fs_cache.cap == families.FS_CACHE_CAP
        entry = families._fs_cache.weight
        monkeypatch.setattr(families, "_fs_cache", families.BoundedMemo(float("inf"), entry))
        uncapped = [fs_member(alpha, a) for alpha, a in cases]
        monkeypatch.setattr(families, "_fs_cache", Recorder(40, entry))
        for (alpha, a), expected in zip(cases, uncapped):
            assert fs_member(alpha, a) == expected == oracle_member(alpha, a), (alpha, a)
        sizes, memo = Recorder.sizes, families._fs_cache
        assert max(sizes) == 40 and min(sizes[sizes.index(40):]) == 21
        assert list(memo) == Recorder.inserted[-len(memo):]

    def test_large_indices(self):
        # an eager set-valued state would hold about a million ordinals here
        s3 = Schreier(from_int(3))
        a = tuple(range(1000, 1000 + 7 * 40, 7))
        assert read_states(s3, a) == fs_member(s3.alpha, a) == oracle_member(s3.alpha, a)

    def test_schreier_n_step_is_linear(self, monkeypatch):
        # a step of S_n reads through n levels of exponents in one pass over
        # the state's terms, making one exponent per level and one state per
        # element read; stepping by whole fundamental sequences made seven
        # ordinals per level, of up to n terms each (14,013 ordinals of
        # 4,021,999 terms at n = 2000)
        made, terms = [0], [0]
        make = ordinals._make

        def counting(t):
            made[0] += 1
            terms[0] += len(t)
            return make(t)

        families._fine_step.cache_clear()
        monkeypatch.setattr(ordinals, "_make", counting)
        n = 20_000
        assert schreier_member(from_int(n), (2, 3, 4, 5))
        assert made[0] <= n + 10
        assert terms[0] <= 5 * n
        families._fine_step.cache_clear()

    @pytest.mark.parametrize("fam", [FineSchreier(OMEGA), Schreier(ONE)],
                             ids=lambda f: f.descriptor())
    def test_long_sets_without_recursion(self, fam):
        # F_w = S_1 is {A : |A| <= min A}; a recursion per element would
        # overflow the stack long before 5000 elements.  Collect first, so
        # that the garbage of earlier tests is not timed with the call.
        for start, expected in ((5000, True), (4999, False)):
            a = tuple(range(start, start + 5000))
            gc.collect()
            t0 = time.perf_counter()
            assert fam.contains(a) is expected
            assert time.perf_counter() - t0 < 0.1


class TestHandles:
    def test_explicit_downward_closure(self):
        fam = Explicit([(2, 5)])
        for a in [(), (2,), (5,), (2, 5)]:
            assert fam.contains(a)
        assert not fam.contains((3,))

    def test_explicit_cap(self):
        # a row's 2^len subsets are refused before they are listed
        with pytest.raises(FamilyError, match="2\\^17 subsets"):
            Explicit([tuple(range(1, 18))])
        # rows within the cap whose closures together pass it
        with pytest.raises(FamilyError, match="closure passes the cap"):
            Explicit([tuple(range(1, 17)), tuple(range(17, 33))])
        with pytest.raises(FamilyError, match="closure passes the cap"):
            Explicit([(i,) for i in range(1, EXPLICIT_CAP + 1)])
        # closures and closed dumps up to the cap still load
        assert len(Explicit([tuple(range(1, 17))]).members) == EXPLICIT_CAP
        dump = list(enumerate_family(Explicit([tuple(range(1, 13))]), 12))
        assert Explicit(dump).members == frozenset(dump)

    def test_explicit_named_by_maximal_members(self):
        row = tuple(range(1, 17))
        assert Explicit([row]).descriptor() == "explicit:" + format_finset(row)
        assert Explicit([]).descriptor() == Explicit([()]).descriptor() == "explicit:-"
        # row lists with one closure name one family
        dump = list(enumerate_family(Explicit([(1, 2, 4), (3, 5)]), 6))
        for rows in ([(3, 5), (1, 2, 4), (2, 4), ()], dump):
            fam = Explicit(rows)
            assert fam.maximal == {(1, 2, 4), (3, 5)}
            assert fam == Explicit([(1, 2, 4), (3, 5)])
            assert hash(fam) == hash(Explicit([(1, 2, 4), (3, 5)]))
        assert Explicit([(1, 2, 4)]) != Explicit([(1, 2, 4), (3, 5)])

    def test_a_handle_needs_contains_or_states(self):
        class Bare(FamilyHandle):
            right_stable_gap = 1

        with pytest.raises(NotImplementedError, match="neither contains nor"):
            Bare().contains((1,))

    def test_descriptor_distinguishes(self):
        assert FineSchreier(OMEGA).descriptor() != Schreier(ONE).descriptor()
        # S_1 = F_(w^1): one family under two descriptors
        assert Schreier(ONE) == FineSchreier(omega_pow(ONE))
        assert hash(Schreier(ONE)) == hash(FineSchreier(omega_pow(ONE)))
        assert Schreier(ONE) != Schreier(from_int(2)) and FineSchreier(OMEGA) != Explicit([(1,)])


class TestMaximal:
    def test_schreier_one(self):
        assert is_maximal(Schreier(ONE), (3, 5, 9))
        assert not is_maximal(Schreier(ONE), (3, 5))
        assert not is_maximal(Schreier(ONE), ())

    def test_fine_finite(self):
        f2 = FineSchreier(from_int(2))
        assert is_maximal(f2, (4, 7))
        assert not is_maximal(f2, (4,))

    def test_explicit(self):
        fam = Explicit([(1, 2), (3,)])
        assert is_maximal(fam, (1, 2))
        assert is_maximal(fam, (3,))
        assert not is_maximal(fam, (1,))

    def test_explicit_agrees_with_one_point_extensions(self):
        rng = random.Random(5)
        for _ in range(30):
            fam = Explicit(tuple(sorted(rng.sample(range(1, 9), rng.randint(0, 4))))
                           for _ in range(rng.randint(0, 5)))
            for a in fam.members:
                probe = any(tuple(sorted(a + (x,))) in fam.members
                            for x in range(1, 9) if x not in a)
                assert is_maximal(fam, a) is not probe, a


# -- exhaustive references for enumeration and structure --------------------

def scan_members(fam, bound):
    """The member trie walked with every n tried up to the bound: the scan
    `enumerate_family` makes without its right-stable early stop."""
    out = []

    def visit(prefix):
        out.append(prefix)
        for n in range((prefix[-1] if prefix else 0) + 1, bound + 1):
            if fam.contains(prefix + (n,)):
                visit(prefix + (n,))

    if fam.contains(()):
        visit(())
    return out


def exhaustive_structure(fam, bound):
    """The structure check by exhaustive scans: every subset of each member,
    and every size-|m| subset of [1..bound] that spreads m; the greedy chain
    check is the one `check_structure` runs."""
    members = set(scan_members(fam, bound))
    hereditary = all(
        all(tuple(sub) in members for r in range(len(m)) for sub in itertools.combinations(m, r))
        for m in members
    )
    spreading_ok = all(
        spread in members
        for m in members
        if m
        for spread in itertools.combinations(range(1, bound + 1), len(m))
        if is_spread(m, spread)
    )
    no_chain = True
    horizon = bound + DEFAULT_HORIZON
    for m in members:
        chain = m
        while fam.contains(chain + ((chain[-1] + 1) if chain else 1,)):
            chain = chain + ((chain[-1] + 1) if chain else 1,)
            if chain[-1] > horizon:
                no_chain = False
                break
        if not no_chain:
            break
    return {"hereditary": hereditary, "spreading": spreading_ok, "compact_no_chain": no_chain}


def not_hereditary_oracle():
    """{ {}, {1}, {2}, {1,3} }: {3} is missing, yet the trie reaches {1,3}.
    No member holds an element past 3, so the gap is 4."""
    members = {(), (1,), (2,), (1, 3)}
    return Oracle(members.__contains__, "not hereditary", right_stable_gap=4)


def min_set_families():
    """`min_set` families of seeded random spreading block trees, with a
    right-stable gap, some of them not spreading."""
    return [min_set(random_block_tree(random.Random(seed))) for seed in range(12)]


STRUCTURE_CASES = [
    (FineSchreier(from_int(2)), 10),
    (FineSchreier(from_int(3)), 10),
    (FineSchreier(OMEGA), 10),
    (FineSchreier(add(OMEGA, ONE)), 10),
    (FineSchreier(mul(OMEGA, from_int(2))), 10),
    (FineSchreier(OMEGA_SQ), 10),
    (Schreier(from_int(2)), 8),
    # every set of at most two elements of [1..6]: spreading inside bound 6
    (Explicit(itertools.combinations(range(1, 7), 2)), 6),
    (Explicit([(1, 2)]), 4),
    (Explicit([(2, 5), (3,)]), 7),
    (not_hereditary_oracle(), 4),
    (Residual(Schreier(ONE), (3,)), 10),
    (Residual(Schreier(from_int(2)), (3,)), 9),
    (Derived(Residual(Schreier(ONE), (2,))), 8),
] + [(fam, 8) for fam in min_set_families()]


class TestEnumerate:
    def test_fine_one(self):
        got = list(enumerate_family(FineSchreier(ONE), 3))
        assert got == [(), (1,), (2,), (3,)]

    def test_maximal_only(self):
        got = list(enumerate_family(Schreier(ONE), 2, maximal_only=True))
        assert got == [(1,)]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_family(Schreier(from_int(2)), 14, budget=10))

    def test_counts_match_closed_form(self):
        got = enumerate_family(FineSchreier(from_int(2)), 6)
        expected = [a for a in subsets(6, 2)]
        assert sorted(got) == sorted(expected)


def case_id(fam):
    """A test id: the family's descriptor, except that an explicit family is
    named by every member of its closure, not only the maximal ones."""
    if isinstance(fam, Explicit):
        return "explicit:" + ";".join(format_finset(m) for m in sorted(fam.members))
    return fam.descriptor()


EXPLICIT_CASES = [fam for fam, _ in STRUCTURE_CASES if isinstance(fam, Explicit)] + [
    Explicit([(1, 2), (3,)]),
    Explicit([(2, 4, 6), (3, 5), (1, 7, 8)]),
    Explicit([(1, 2), (2, 5), (3, 4), (1, 3, 6)]),
]


@pytest.mark.parametrize("fam", EXPLICIT_CASES, ids=case_id)
def test_explicit_maximal_only_matches_a_superset_scan(fam):
    members = list(enumerate_family(fam, 8))
    assert members == sorted(fam.members)
    maximal = [m for m in members
               if not any(len(o) > len(m) and set(m) <= set(o) for o in fam.members)]
    assert list(enumerate_family(fam, 8, maximal_only=True)) == maximal


@pytest.mark.parametrize("fam", [
    Residual(Schreier(ONE), (3,)),
    Residual(Schreier(from_int(2)), (2, 5)),
    Residual(FineSchreier(OMEGA), (4,)),
    Derived(Residual(Schreier(ONE), (2,))),
    Derived(Residual(Schreier(from_int(2)), (3,))),
    Derived(Schreier(from_int(2))),
] + [fam for base in min_set_families() for fam in (base, Derived(base))],
    ids=lambda f: f.descriptor())
def test_maximal_gap_rule_agrees_with_one_point_extensions(fam):
    # the scan of a u {x} for x <= 40 reaches max(a) + gap, past which
    # every x answers alike
    for a in enumerate_family(fam, 9):
        assert (a[-1] if a else 0) + fam.right_stable_gap <= 40
        probe = any(fam.contains(tuple(sorted(a + (x,))))
                    for x in range(1, 41) if x not in a)
        assert is_maximal(fam, a) is not probe, a


class TestEnumerateEarlyStop:
    FAMILIES = [
        Schreier(ONE),
        Schreier(from_int(2)),
        FineSchreier(from_int(3)),
        Derived(Schreier(ONE)),
        Residual(Schreier(from_int(2)), ()),
        Explicit([(1, 2), (3,)]),
        Explicit([(2, 5), (3,)]),
        Residual(Schreier(from_int(2)), (3,)),
        Derived(Residual(Schreier(ONE), (2,))),
    ] + min_set_families()

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.descriptor())
    def test_lists_match_the_full_scan(self, fam):
        for bound in (6, 10):
            assert list(enumerate_family(fam, bound)) == scan_members(fam, bound)

    def test_stop_pinned_by_predicate_calls(self):
        s1 = Schreier(ONE)
        calls = []

        def counted(a):
            calls.append(a)
            return s1.contains(a)

        fam = Oracle(counted, "counted S1", right_stable_gap=1)
        with pytest.raises(BudgetExceeded):
            list(enumerate_family(fam, 20000, budget=1000))
        # without the stop, the first visit alone would ask 20000 questions
        assert len(calls) == 1999

    def test_explicit_extensions_need_no_scan(self):
        # a scan to the gap would step through 10^12 values; the table
        # lists the one extension at once
        fam = Explicit([[10 ** 12]])
        queries = []
        for name in ("contains", "step"):
            ask = getattr(fam, name)
            setattr(fam, name, lambda *args, ask=ask: queries.append(args) or ask(*args))
        assert list(enumerate_family(fam, 10 ** 12)) == [(), (10 ** 12,)]
        assert list(enumerate_family(fam, 10 ** 12 - 1)) == [()]
        assert len(queries) <= 4

    @pytest.mark.parametrize("fam", [f for f, _ in STRUCTURE_CASES if isinstance(f, Explicit)],
                             ids=case_id)
    def test_explicit_table_matches_the_gap_scan(self, fam):
        bounds = range(1, fam.right_stable_gap + 2)
        for bound in bounds:
            assert list(enumerate_family(fam, bound)) == scan_members(fam, bound)
        for prefix in fam.members:
            for bound in bounds:
                assert (list(fam.extensions(prefix, prefix, bound))
                        == list(FamilyHandle.extensions(fam, prefix, prefix, bound)))

    def test_members_longer_than_the_recursion_limit(self):
        k = sys.getrecursionlimit() + 100
        segments = Oracle(lambda a: a == tuple(range(1, len(a) + 1)), "initial segments",
                          right_stable_gap=2)
        assert (list(enumerate_family(segments, k))
                == [tuple(range(1, j + 1)) for j in range(k + 1)])
        # the walk reaches depth k before the budget runs out
        with pytest.raises(BudgetExceeded):
            list(enumerate_family(FineSchreier(from_int(k)), k + 5, budget=k + 1))


class TestEnumerateStreams:
    """`enumerate_family` yields each member as the walk reaches it and holds
    only the current branch."""

    def test_arguments_checked_on_the_call(self):
        with pytest.raises(FamilyError):
            enumerate_family(Schreier(ONE), 0)
        with pytest.raises(FamilyError):
            enumerate_family(Schreier(ONE), 4, budget=-1)

    def test_members_come_before_a_failing_query(self):
        s1 = Schreier(ONE)
        calls = itertools.count()

        class Refused(Exception):
            pass

        def failing(a):
            if next(calls) == 50:
                raise Refused
            return s1.contains(a)

        got = []
        with pytest.raises(Refused):
            for a in enumerate_family(Oracle(failing, "S1 until query 50", right_stable_gap=1),
                                      20):
                got.append(a)
        assert len(got) >= 10
        assert got == list(itertools.islice(enumerate_family(s1, 20), len(got)))

    def test_min_set_walk_holds_no_queries(self):
        # 9,960 members; a per-query memo held them all (8.4 MB traced), the
        # walk alone holds its branch of match states
        fam = min_set(BlockTree([[(1,), (2, 3), (4, 5, 6)], [(2,), (5, 9)]]))
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_family(fam, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 9960
        assert peak < 1 << 20


def whole_set_reading(fam):
    """Membership in `fam` judged on the whole set at once, as each handle
    answered before it read through residual states: a residual asks its
    base of the prefix and the set, a derivative asks its base of the set
    and the chained probe, and a min-set family matches the set's spans in
    one generator (spreading closure) or compares it with each generator's
    first block minima (explicit closure).  Fine, explicit and oracle
    handles answer through their own `contains`."""
    if isinstance(fam, Residual):
        base = whole_set_reading(fam.base)
        return lambda a: not a or (a[0] > fam.top and base(fam.prefix + a))
    if isinstance(fam, Derived):
        base, gap = whole_set_reading(fam.base), fam.base.right_stable_gap

        def probe(a):
            chain, x = list(a), a[-1] if a else 0
            for i in reversed(range(fam.depth)):
                x += gap + i
                chain.append(x)
            return base(tuple(chain))
        return probe
    if isinstance(fam, trees._MinSet):
        gens = fam.generators
        if fam.explicit:
            return lambda a: any(tuple(b[0] for b in g[:len(a)]) == a for g in gens)

        def embeds(a):
            spans = tuple(zip(a, a[1:] + (None,)))
            return any(trees._embeds(spans, g, trees._room) for g in gens)
        return embeds
    return fam.contains


def whole_set_scan(fam, member, bound):
    """The members within [1..bound] in lex order, every one-point extension
    up to the bound tried by `member`, and the refused ones."""
    out, refused = [], []
    stack = [()] if member(()) else []
    while stack:
        prefix = stack.pop()
        out.append(prefix)
        tried = [prefix + (n,) for n in range((prefix[-1] if prefix else 0) + 1, bound + 1)]
        refused += [a for a in tried if not member(a)]
        stack += reversed([a for a in tried if member(a)])
    return out, refused


def whole_set_cb_index(fam, budget):
    for k in range(budget):
        if not whole_set_reading(fam)(()):
            return (k, True)
        fam = Derived(fam)
    return (budget, False)


def random_min_sets(count=200):
    return [min_set(random_block_tree(random.Random(seed), max_len=6)) for seed in range(count)]


def state_agreement_cases():
    families_seen, cases = set(), []
    for fam, bound in (STRUCTURE_CASES
                       + [(fam, 10) for fam in TestEnumerateEarlyStop.FAMILIES]
                       + [(Derived(fam), 10) for fam in min_set_families()]):
        if fam not in families_seen:
            families_seen.add(fam)
            cases.append(pytest.param(fam, bound, id=case_id(fam)))
    return cases


def check_agrees_with_whole_set_reading(fam, bound, sample=None):
    """Every reading of `fam` against its whole-set reading: on the members
    within [1..bound] and their refused one-point extensions (`sample` of
    each, if given), and on the enumeration and CB index in full."""
    member = whole_set_reading(fam)
    members, refused = whole_set_scan(fam, member, bound)
    assert list(enumerate_family(fam, bound)) == members
    assert cb_index_finite(fam, 12) == whole_set_cb_index(fam, 12)
    if sample is not None:
        rng = random.Random(fam.descriptor())
        members = rng.sample(members, min(sample, len(members)))
        refused = rng.sample(refused, min(sample, len(refused)))
    for a in members:
        assert read_states(fam, a) and fam.contains(a), a
        last = (a[-1] if a else 0) + fam.right_stable_gap
        grows = any(member(tuple(sorted(a + (x,)))) for x in range(1, last + 1) if x not in a)
        assert is_maximal(fam, a) is not grows, a
    for a in refused:
        assert not read_states(fam, a) and not fam.contains(a), a


class TestOneMembershipModel:
    """Residual, derived and min-set handles read through residual states;
    what they answer agrees with the whole-set readings above."""

    @pytest.mark.parametrize("fam, bound", state_agreement_cases())
    def test_agrees_with_whole_set_reading(self, fam, bound):
        check_agrees_with_whole_set_reading(fam, bound)

    def test_random_min_sets_agree_with_whole_set_reading(self):
        for fam in random_min_sets():
            check_agrees_with_whole_set_reading(fam, 16, sample=20)

    @pytest.mark.parametrize("fam", [
        Residual(Schreier(ONE), (3,)),
        Residual(Schreier(from_int(2)), (2, 5)),
        Residual(Explicit([(2, 4, 6), (3, 5), (1, 7, 8)]), (2,)),
        Derived(Schreier(from_int(2))),
        Derived(Residual(Schreier(ONE), (2,))),
        Derived(Derived(Explicit([(1, 2, 3, 9), (2, 3, 4)]))),
        min_set(BlockTree([[(1,), (2, 3), (4, 5, 6)], [(2,), (5, 9)]])),
        min_set(BlockTree([[(1, 2), (4,), (6, 7)], [(2,), (3,), (5, 6)]], "explicit")),
    ] + [Derived(fam) for fam in min_set_families()[:4]], ids=lambda f: f.descriptor())
    def test_norm_equals_exhaustive_search(self, fam):
        rng = random.Random(fam.descriptor())
        whole = Oracle(whole_set_reading(fam), "whole", fam.right_stable_gap)
        for _ in range(12):
            c = rng.choice([Fraction(1, 2), Fraction(2, 3)])
            supp = sorted(rng.sample(range(1, 11), rng.randint(1, 8)))
            x = SparseVec([(i, Fraction(rng.choice([-2, -1, 1, 2, 3]))) for i in supp])
            value = norm(NormParams(fam, c), x)[0]
            assert norm_exhaustive(NormParams(fam, c), x) == value
            assert norm_exhaustive(NormParams(whole, c), x) == value

    def test_empty_derivative_has_no_state(self):
        # no member of F_1 reaches its gap twice, so D^2(F_1) is empty
        fam = Derived(Derived(FineSchreier(ONE)))
        assert fam.initial_state() is None and not fam.contains(())
        assert list(enumerate_family(fam, 5)) == []
        x = SparseVec([(2, Fraction(1)), (3, Fraction(-2))])
        assert norm(NormParams(fam, Fraction(1, 2)), x)[0] == 2


def counted_calls(fam, names=("step", "extensions")):
    """Wrap the handle's `names` to record each call; returns the record."""
    calls = []
    for name in names:
        method = getattr(fam, name)
        setattr(fam, name, lambda *args, name=name, method=method:
                calls.append(name) or method(*args))
    return calls


class TestNoScanToTheGap:
    """A member's extensions are found without stepping through every n up
    to its gap, however large the values of the family."""

    def test_min_set_lists_from_the_least_admitted_element(self):
        # the gap passes 3,000,000, and a scan stepped through each n below it
        fam = min_set(BlockTree([[(1,), (3000000,)]]))
        calls = counted_calls(fam)
        first = list(itertools.islice(enumerate_family(fam, 10 ** 12), 1000))
        assert first[:3] == [(), (1,), (1, 3000000)] and first[-1] == (1, 3000997)
        assert len(calls) < 10_000

    def test_explicit_closure_lists_the_next_minima(self):
        fam = min_set(BlockTree([[(1,), (3000000,)]], "explicit"))
        calls = counted_calls(fam)
        assert list(enumerate_family(fam, 10 ** 12)) == [(), (1,), (1, 3000000)]
        assert len(calls) <= 3

    def test_residual_lists_through_its_base(self):
        base = Explicit([[1, 3000000]])
        fam = Residual(base, (1,))
        calls = counted_calls(base, ("contains", "step", "extensions"))
        assert list(enumerate_family(fam, 10 ** 12)) == [(), (3000000,)]
        assert len(calls) <= 4

    def test_prefix_state_base_reads_a_chain_in_one_query(self):
        # a base whose state is its prefix answers a chain in one query, so
        # reading a set costs no query per element
        asked = []
        base = Oracle(lambda a: asked.append(a) or True, "all", right_stable_gap=1)
        a = tuple(range(2, 40))
        residual_fam, derived_fam = Residual(base, (1,)), Derived(Derived(base))
        asked.clear()
        assert residual_fam.contains(a) and asked == [(1,) + a]
        asked.clear()
        assert derived_fam.contains(a) and len(asked) == 4
        asked.clear()
        # level j reads the empty prefix and one chain of j elements
        assert cb_index_finite(base, budget=100) == (100, False)
        assert len(asked) == 1 + 2 * 99 and max(map(len, asked)) == 99

    def test_residual_norm_merges_its_chains(self):
        # all ones on [4..27] over the residual of S_2 at {3}, which is
        # F_(w^2 [3] - 1) = F_(w*2 + 2) above 3; with the prefix as its
        # state the DP kept every chain, 2^k - 1 states at support k
        fam = Residual(Schreier(from_int(2)), (3,))
        params = NormParams(fam, Fraction(1, 2))
        x = SparseVec([(i, Fraction(1)) for i in range(4, 28)])
        states = set()
        step = fam.step
        fam.step = lambda state, n: states.add(step(state, n)) or step(state, n)
        value = norm(params, x)[0]
        del fam.step
        assert value == norm_via_functionals(params, x) == Fraction(23, 2)
        assert len(states - {None}) == 56


class TestAdmissible:
    def test_basic(self):
        s1 = Schreier(ONE)
        assert is_admissible(s1, [(2, 3), (5, 9)])
        assert not is_admissible(s1, [(1, 2), (5, 9)])  # minima {1,5} not in S_1
        assert not is_admissible(s1, [(2, 5), (4, 9)])  # not successive
        with pytest.raises(FamilyError):
            is_admissible(s1, [])


class TestResidual:
    def test_successor_shift(self):
        # the residual of F_3 at {5} answers like F_2 on sets beyond 5
        res = residual(FineSchreier(from_int(3)), (5,))
        f2 = FineSchreier(from_int(2))
        for a in subsets(11, 4):
            if a and a[0] <= 5:
                continue
            assert res.contains(a) == f2.contains(a)

    def test_limit(self):
        res = residual(FineSchreier(OMEGA), (3,))
        for b in subsets(9, 3):
            if b and b[0] <= 3:
                continue
            assert res.contains(b) == oracle_member(OMEGA, (3,) + b)

    def test_rejects_non_member_prefix(self):
        with pytest.raises(FamilyError):
            residual(FineSchreier(ONE), (1, 2))


class TestStructure:
    @pytest.mark.parametrize("fam, bound", STRUCTURE_CASES,
                             ids=[case_id(fam) for fam, _ in STRUCTURE_CASES])
    def test_one_step_moves_match_exhaustive_scans(self, fam, bound):
        assert check_structure(fam, bound) == exhaustive_structure(fam, bound)

    @pytest.mark.parametrize("fam, bound", [case for case in STRUCTURE_CASES if case[0].spreading],
                             ids=[case_id(fam) for fam, _ in STRUCTURE_CASES if fam.spreading])
    def test_spreading_flag_is_found(self, fam, bound):
        assert check_structure(fam, bound)["spreading"]

    def test_cases_cover_both_verdicts(self):
        reports = [exhaustive_structure(fam, bound) for fam, bound in STRUCTURE_CASES]
        for key in ("hereditary", "spreading", "compact_no_chain"):
            assert {r[key] for r in reports} == {True, False}, key

    def test_non_hereditary_oracle(self):
        fam = not_hereditary_oracle()
        assert list(enumerate_family(fam, 4)) == [(), (1,), (1, 3), (2,)]
        assert check_structure(fam, 4) == {
            "hereditary": False, "spreading": False, "compact_no_chain": True}

    def test_schreier_one(self):
        report = check_structure(Schreier(ONE), 8)
        assert report == {"hereditary": True, "spreading": True, "compact_no_chain": True}

    def test_non_spreading_explicit(self):
        report = check_structure(Explicit([(1, 2)]), 4)
        assert report["hereditary"]
        assert not report["spreading"]


class TestCBIndex:
    def test_derivative_of_f0_is_empty(self):
        d = cb_derivative(FineSchreier(from_int(0)))
        assert not d.contains(())

    def test_derivative_drops_maximal(self):
        d = cb_derivative(FineSchreier(from_int(2)))
        assert d.contains((4,))       # {4} extends inside F_2
        assert not d.contains((4, 7))  # {4,7} is maximal in F_2

    def test_finite_indices(self):
        for k in range(5):
            assert cb_index_finite(FineSchreier(from_int(k)), budget=8) == (k + 1, True)

    def test_budget_exhaustion_flagged(self):
        index, exact = cb_index_finite(Schreier(ONE), budget=5)
        assert index == 5 and not exact

    @pytest.mark.parametrize("k", [12, 20, 30])
    def test_long_finite_indices_at_default_budget(self, k):
        assert cb_index_finite(FineSchreier(from_int(k))) == (k + 1, True)

    @pytest.mark.parametrize("fam", [Schreier(ONE), Schreier(from_int(2)),
                                     FineSchreier(OMEGA_OMEGA)], ids=["S1", "S2", "Fww"])
    def test_infinite_indices_reach_default_budget(self, fam):
        assert cb_index_finite(fam) == (32, False)

    def test_base_queries_grow_linearly_with_depth(self):
        class Counted(FineSchreier):
            """F_k that counts the steps of each read from its initial state
            and stops at a cap."""

            cap = 200_000

            def __init__(self, alpha):
                super().__init__(alpha)
                self.reads = []

            def initial_state(self):
                self.reads.append(0)
                return super().initial_state()

            def step(self, state, n):
                self.reads[-1] += 1
                if sum(self.reads) > self.cap:
                    raise RuntimeError("more than %d base steps" % self.cap)
                return super().step(state, n)

        for k in (3, 10, 20):
            base = Counted(from_int(k))
            assert cb_index_finite(base) == (k + 1, True)
            # level j >= 1 reads one chain of j elements through the base's
            # states (level 0 asks the base itself)
            assert base.reads == list(range(1, k + 2))

    def test_iterated_derivatives_of_finite_families(self):
        # the j-th derivative of F_k is F_(k-j), and empty for j > k
        sets = list(subsets(10, 10))
        for k in range(7):
            current = FineSchreier(from_int(k))
            for j in range(k + 2):
                want = [len(a) <= k - j for a in sets]
                assert [current.contains(a) for a in sets] == want, (k, j)
                current = cb_derivative(current)

    @pytest.mark.parametrize("expr, closed_form", [
        # the state after A is min A - |A| in S_1 = F_w
        ("w", lambda a, j: not a or len(a) + j <= a[0]),
        # F_(w+3) reads three successor steps, then its fourth element at w
        ("w+3", lambda a, j: len(a) <= 3 or len(a) + j <= a[3] + 3),
    ], ids=["Fw", "Fw+3"])
    def test_iterated_derivatives_match_closed_form(self, expr, closed_form):
        sets = list(subsets(10, 10))
        current = FineSchreier(parse_ordinal(expr))
        for j in range(7):
            assert [current.contains(a) for a in sets] == [closed_form(a, j) for a in sets], j
            current = cb_derivative(current)

    def test_limit_state_derivative_keeps_short_sets(self):
        # {1,2,3} has state w in F_(w+3), so it lies in every finite derivative;
        # {1,2,3,4} has state 3, outside D^4, but {1,2,3,9} has state 8
        d4 = FineSchreier(parse_ordinal("w+3"))
        for _ in range(4):
            d4 = cb_derivative(d4)
        assert d4.contains((1, 2, 3, 9)) and not d4.contains((1, 2, 3, 4))
        assert not is_maximal(d4, (1, 2, 3))
        assert cb_derivative(d4).contains((1, 2, 3))

    def test_s1_reaches_budget_66(self):
        # the j-th derivative of S_1 holds {n} only for n > j; its index is w+1
        assert cb_index_finite(Schreier(ONE), budget=66) == (66, False)

    def test_derivatives_deeper_than_recursion_limit(self):
        everything = Oracle(lambda a: True, "all finite sets", right_stable_gap=1)
        budget = sys.getrecursionlimit() + 10
        assert cb_index_finite(everything, budget=budget) == (budget, False)

    def test_explicit_index(self):
        # no member reaches the gap 4, so the derivative is empty
        fam = Explicit([(1, 2), (3,)])
        assert fam.right_stable_gap == 4
        assert cb_index_finite(fam) == (1, True)
        assert cb_index_finite(Explicit([])) == (1, True)

    def test_empty_prefix_residual_keeps_gap(self):
        res = residual(Schreier(ONE), ())
        assert cb_index_finite(res, budget=5) == (5, False)
        assert not is_maximal(res, (3, 5))

    def test_derived_keeps_descriptor_and_stability_check(self):
        d = cb_derivative(cb_derivative(Schreier(ONE)))
        assert d.descriptor() == "cbderiv(cbderiv(schreier:1))"
        # residual(S_1, {2}) holds {} and the singletons past 2, of which
        # only {} extends infinitely often; residual(S_1, {3}) adds pairs
        for prefix, want in (((2,), [()]), ((3,), [()] + [(n,) for n in range(4, 13)])):
            res = residual(Schreier(ONE), prefix)
            assert res.spreading and res.right_stable_gap == prefix[-1] + 1
            extends = [a for a in scan_members(res, 12)
                       if all(res.contains(a + (n,)) for n in range(41, 50))]
            assert list(enumerate_family(cb_derivative(res), 12)) == extends == want


def test_budget_exceeded_is_raised_in_one_place():
    # every guarded search runs out through `Budget.spend` and its one message
    src = pathlib.Path(families.__file__).parent
    raises = [path.name for path in sorted(src.glob("*.py"))
              for line in path.read_text().splitlines() if "raise BudgetExceeded" in line]
    assert raises == ["families.py"]
