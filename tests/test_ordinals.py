import random

import pytest
from hypothesis import given, settings, strategies as st

from schreier.ordinals import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    OrdinalParseError,
    add,
    classify,
    compare,
    format_ordinal,
    from_int,
    fundamental_seq,
    mul,
    natural_sum,
    omega_pow,
    parse_ordinal,
)
from schreier.suites import random_ordinal


def o(text):
    return parse_ordinal(text)


# bounded-depth random CNF ordinals for property tests
def ordinal_strategy(depth=3):
    if depth <= 0:
        return st.integers(0, 5).map(from_int)
    base = st.deferred(lambda: ordinal_strategy(depth - 1))
    terms = st.lists(st.tuples(base, st.integers(1, 3)), max_size=3)

    def build(pairs):
        total = ZERO
        for exp, coeff in sorted(pairs, key=lambda p: p[0], reverse=True):
            total = natural_sum(total, mul(omega_pow(exp), from_int(coeff)))
        return total

    return terms.map(build)


ords = ordinal_strategy()


class TestParsing:
    def test_roundtrip_fixed(self):
        for text in ["0", "1", "w", "w+1", "w*2", "w^2", "w^(w+1)*3+w*2+5", "w^(w)"]:
            assert format_ordinal(parse_ordinal(text)) == text

    def test_whitespace_and_parens(self):
        assert parse_ordinal(" w ^ (w) + 1 ") == add(omega_pow(OMEGA), ONE)

    def test_rejects_garbage(self):
        for bad in ["", "w^", "w^w", "w*0", "+1", "w**2", "2w"]:
            with pytest.raises(OrdinalParseError):
                parse_ordinal(bad)

    def test_operations_within_recursion_limit_at_nesting_cap(self):
        deep = "w^(" * MAX_NESTING + "%s" + ")" * MAX_NESTING
        a, b = parse_ordinal(deep % 1), parse_ordinal(deep % 2)
        assert compare(a, b) == "less" and compare(b, b) == "equal"
        assert parse_ordinal(format_ordinal(a)) == a
        assert natural_sum(a, b) == add(b, a)
        assert fundamental_seq(a, 3) < a

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 400])
    def test_deeper_nesting_is_a_parse_error(self, levels):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal("w^(" * levels + "1" + ")" * levels)
        # the parenthesis that opens level MAX_NESTING + 1
        assert exc.value.position == 3 * MAX_NESTING + 2

    def test_number_too_long_for_int_is_a_parse_error(self):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal("w+" + "1" * 5000)
        assert exc.value.position == 2

    @given(ords)
    def test_roundtrip_random(self, a):
        assert parse_ordinal(format_ordinal(a)) == a


class TestArithmetic:
    def test_add_absorption(self):
        assert add(o("1"), OMEGA) == OMEGA
        assert add(OMEGA, ONE) == o("w+1")
        assert add(o("w+5"), o("w*2")) == o("w*3")

    def test_mul_fixed(self):
        assert mul(o("w*2"), OMEGA) == o("w^2")
        assert mul(OMEGA, o("2")) == o("w*2")
        assert mul(o("w+1"), o("w")) == o("w^2")
        assert mul(o("w^2+w"), o("w+2")) == o("w^3+w^2*2+w")

    def test_mul_zero(self):
        assert mul(ZERO, OMEGA) == ZERO
        assert mul(OMEGA, ZERO) == ZERO

    def test_natural_sum_fixed(self):
        assert natural_sum(o("w*2+1"), o("w+2")) == o("w*3+3")
        assert natural_sum(o("w^2"), o("w")) == o("w^2+w")
        # natural sum sees both summands where ordinal sum absorbs
        assert add(ONE, OMEGA) == OMEGA
        assert natural_sum(ONE, OMEGA) == o("w+1")

    @given(ords, ords)
    def test_natural_sum_commutes(self, a, b):
        assert natural_sum(a, b) == natural_sum(b, a)

    @given(ords, ords, ords)
    @settings(max_examples=50)
    def test_add_associative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(ords, ords, ords)
    @settings(max_examples=50)
    def test_left_distributive(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(ords, ords)
    def test_natural_sum_dominates_sum(self, a, b):
        assert not natural_sum(a, b) < add(a, b)


class TestOrder:
    def test_compare(self):
        assert compare(o("w"), o("w+1")) == "less"
        assert compare(o("w^2"), o("w*5+3")) == "greater"
        assert compare(o("w*2"), o("w*2")) == "equal"

    @given(ords, ords)
    def test_trichotomy(self, a, b):
        assert sum([a < b, a == b, b < a]) == 1


class TestClassify:
    def test_kinds(self):
        assert classify(ZERO) == ("zero", None)
        assert classify(o("w+3")) == ("successor", o("w+2"))
        assert classify(o("w^2+w")) == ("limit", None)


class TestFundamentalSeq:
    def test_omega_is_n(self):
        for n in range(1, 10):
            assert fundamental_seq(OMEGA, n) == from_int(n)

    def test_fixed_values(self):
        assert fundamental_seq(o("w^2"), 3) == o("w*3")
        assert fundamental_seq(o("w*2"), 4) == o("w+4")
        assert fundamental_seq(o("w^(w)"), 2) == o("w^2")
        assert fundamental_seq(o("w^(w+1)"), 3) == o("w^(w)*3")

    def test_rejects_non_limit(self):
        with pytest.raises(ValueError):
            fundamental_seq(o("w+1"), 2)
        with pytest.raises(ValueError):
            fundamental_seq(ZERO, 2)

    @given(ords, st.integers(1, 5))
    @settings(max_examples=60)
    def test_below_limit_and_increasing(self, lam, n):
        if classify(lam)[0] != "limit":
            return
        a = fundamental_seq(lam, n)
        b = fundamental_seq(lam, n + 1)
        assert a < b < lam


class TestConstruction:
    @staticmethod
    def results(rng):
        """Every kind of result the arithmetic builds, from seeded inputs."""
        a, b = random_ordinal(rng), random_ordinal(rng)
        yield from (add(a, b), mul(a, b), natural_sum(a, b), omega_pow(a))
        kind, pred = classify(a)
        if kind == "successor":
            yield pred
        if kind == "limit":
            yield from (fundamental_seq(a, n) for n in range(1, 6))

    def test_results_pass_the_public_checks(self):
        # arithmetic makes its results without the public constructor's checks
        rng = random.Random(20)
        count = 0
        for _ in range(300):
            for r in self.results(rng):
                assert Ordinal(r.terms) == r
                terms = r.terms
                assert r.is_zero == (not terms)
                assert r.is_finite == (not terms or (len(terms) == 1 and terms[0][0] == ZERO))
                assert r.is_limit == (bool(terms) and terms[-1][0] != ZERO)
                assert r.is_successor == (bool(terms) and terms[-1][0] == ZERO)
                count += 1
        assert count > 1200

    @pytest.mark.parametrize("terms", [((1, 1),), ((ZERO, 0),), ((ONE, 1), (OMEGA, 1)),
                                       ((ONE, 1), (ONE, 2))],
                             ids=["exponent-not-ordinal", "coefficient-0",
                                  "exponents-increase", "exponents-repeat"])
    def test_public_constructor_rejects(self, terms):
        with pytest.raises(OrdinalError):
            Ordinal(terms)

    def test_immutable(self):
        three = from_int(3)
        for name in ("terms", "is_limit"):
            with pytest.raises(AttributeError):
                setattr(three, name, ())
            with pytest.raises(AttributeError):
                delattr(three, name)
        assert three.terms == ((ZERO, 3),) and not three.is_limit
