import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from schreier import cache
from schreier.ordinals import (
    ONE, OMEGA, add, from_int, fundamental_seq, mul, omega_pow, parse_ordinal,
)
from schreier.families import Explicit, FineSchreier, Residual, Schreier
from schreier.norms import (
    CertificateError,
    Leaf,
    Node,
    NormError,
    NormParams,
    cert_from_json,
    check_right_dominant,
    check_unconditional,
    domination_search,
    norm,
    norm_exhaustive,
    norm_value,
    verify_certificate,
)
from schreier.estimates import EstimateError, check_l1_lower, rational_root_half
from schreier.functionals import norm_via_functionals
from schreier.vectors import SparseVec, basis_vec, format_vec, parse_vec

S1 = NormParams(Schreier(ONE), Fraction(1, 2))


def vec(text):
    return parse_vec(text)


class TestParams:
    def test_value_semantics(self):
        same = NormParams(family=Schreier(ONE), c="1/2")
        assert same == S1 and hash(same) == hash(S1) and same.c == Fraction(1, 2)
        assert S1 != NormParams(Schreier(ONE), Fraction(2, 3))
        with pytest.raises(AttributeError):
            S1.c = Fraction(1, 3)
        with pytest.raises(NormError):
            NormParams(Schreier(ONE), 1)


class TestVectors:
    def test_parse_format_roundtrip(self):
        x = vec("3:1,4:1,5:-2/3")
        assert format_vec(x) == "3:1,4:1,5:-2/3"
        assert x[5] == Fraction(-2, 3)
        assert x[7] == 0

    def test_zero_coefficients_dropped(self):
        assert SparseVec([(3, Fraction(0))]).entries == ()

    def test_equal_vectors_hash_equal(self):
        # the hash reads numerators and denominators, so every constructor
        # must leave reduced Fractions
        x = vec("1:1/2,3:1/4,5:2")
        for y in (SparseVec([(5, 2), (1, Fraction(2, 4)), (3, Fraction(1, 4))]),
                  SparseVec._canonical(((1, Fraction(1, 2)), (3, Fraction(1, 2) ** 2),
                                        (5, Fraction(4, 2)))),
                  vec("1:1,3:1/2,5:4").scale(Fraction(1, 2)),
                  vec("1:-1/2,3:1/4,5:-2").abs()):
            assert y == x and hash(y) == hash(x)

    def test_add_and_restrict(self):
        x = vec("1:1,2:1").add(vec("2:-1,3:2"))
        assert format_vec(x) == "1:1,3:2"
        assert format_vec(x.restrict([3])) == "3:2"

    def test_immutable(self):
        x = vec("1:1,2:1")
        with pytest.raises(AttributeError):
            x.entries = ()
        with pytest.raises(AttributeError):
            del x.entries
        assert format_vec(x) == "1:1,2:1"


class TestCopyAndPickle:
    """Values copy and pickle through their checking constructors: the
    default restore of slot state would write through their refusing
    `__setattr__`."""

    ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]

    @pytest.mark.parametrize("make", [
        lambda: parse_ordinal("w^(w+1)*3+w*2+5"),
        lambda: add(OMEGA, parse_ordinal("w^(w)")),
        lambda: fundamental_seq(parse_ordinal("w^(w*2)"), 3),
        lambda: Schreier(parse_ordinal("w+1")),
        lambda: FineSchreier(parse_ordinal("w^(w)+w")),
        lambda: NormParams(Schreier(from_int(2)), Fraction(1, 3)),
        lambda: vec("3:1,4:-2/3,9:5"),
    ])
    @pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["copy", "deepcopy", "pickle"])
    def test_values_keep_equality_and_hash(self, make, round_trip):
        value = make()
        again = round_trip(value)
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["copy", "deepcopy", "pickle"])
    def test_certificate(self, round_trip):
        x = vec("3:1,4:1,5:1,9:-1/2")
        value, cert = norm(S1, x)
        again = round_trip(cert)
        assert again.to_json() == cert.to_json()
        assert verify_certificate(S1, x, again) == value


class TestNormValues:
    def test_single_coordinate(self):
        value, cert = norm(S1, vec("7:-3/2"))
        assert value == Fraction(3, 2)
        assert isinstance(cert, Leaf)

    def test_three_unit_vectors(self):
        # {3},{4},{5} are S_1-admissible singleton blocks
        value, cert = norm(S1, vec("3:1,4:1,5:1"))
        assert value == Fraction(3, 2)
        assert verify_certificate(S1, vec("3:1,4:1,5:1"), cert) == value

    def test_early_support_cannot_split(self):
        # {1} cannot start a 2-block admissible split in S_1
        value, _ = norm(S1, vec("1:1,2:1"))
        assert value == 1

    def test_sup_norm_floor(self):
        value, _ = norm(S1, vec("2:5,3:1"))
        assert value == 5

    def test_c_scaling(self):
        big = NormParams(Schreier(ONE), Fraction(2, 3))
        assert norm(big, vec("3:1,4:1,5:1"))[0] == 2

    def test_empty_vector(self):
        assert norm(S1, SparseVec([]))[0] == 0

    def test_empty_vector_certificate_verifies(self):
        zero = SparseVec([])
        _, cert = norm(S1, zero)
        again = cert_from_json(json.loads(json.dumps(cert.to_json())))
        assert verify_certificate(S1, zero, again) == 0
        with pytest.raises(CertificateError):
            verify_certificate(S1, zero, Leaf(0, 0))
        with pytest.raises(CertificateError):
            verify_certificate(S1, vec("2:1"), cert)

    def test_support_cap(self):
        x = SparseVec([(i, Fraction(1)) for i in range(1, 66)])
        with pytest.raises(NormError, match="support size 65 exceeds cap 64"):
            norm(S1, x)


class TestCertificates:
    def test_json_roundtrip(self):
        x = vec("3:1,4:1,5:1")
        value, cert = norm(S1, x)
        again = cert_from_json(json.loads(json.dumps(cert.to_json())))
        assert verify_certificate(S1, x, again) == value

    def test_tampered_value_rejected(self):
        x = vec("3:1,4:1,5:1")
        _, cert = norm(S1, x)
        data = cert.to_json()
        data["value"] = "7"
        with pytest.raises(CertificateError):
            verify_certificate(S1, x, cert_from_json(data))

    def test_inadmissible_blocks_rejected(self):
        x = vec("1:1,2:1")
        bad = Node(
            [(1,), (2,)],
            [Leaf(1, 1), Leaf(2, 1)],
            Fraction(1),
        )
        with pytest.raises(CertificateError):
            verify_certificate(S1, x, bad)

    def test_leaf_outside_support_rejected(self):
        with pytest.raises(CertificateError):
            verify_certificate(S1, vec("2:1"), Leaf(9, 1))


class TestOracleAgreement:
    def test_small_grid(self):
        rng = random.Random(11)
        families = [
            Schreier(ONE),
            FineSchreier(from_int(5)),
            FineSchreier(OMEGA),
            Schreier(from_int(2)),
            FineSchreier(add(omega_pow(from_int(2)), ONE)),
            FineSchreier(add(mul(OMEGA, from_int(2)), from_int(3))),
            Schreier(OMEGA),  # prefix states
            Explicit([(2, 4, 6), (3, 5), (1, 7, 8)]),  # prefix states
            Residual(Schreier(ONE), (3,)),  # spreading, gap 4
            Residual(Schreier(from_int(2)), (2,)),  # spreading, gap 3
        ]
        for _ in range(100):
            fam = rng.choice(families)
            params = NormParams(fam, rng.choice([Fraction(1, 2), Fraction(2, 3)]))
            supp = sorted(rng.sample(range(1, 9), rng.randint(1, 6)))
            x = SparseVec([(i, Fraction(rng.choice([-2, -1, 1, 2, 3]))) for i in supp])
            value = norm(params, x)[0]
            assert norm_exhaustive(params, x) == value
            # functionals are admitted by their support minima, which matches
            # block admissibility only in spreading families
            if fam.spreading:
                assert norm_via_functionals(params, x) == value

    def test_functional_route_rejects_non_spreading(self):
        # norm's blocks {2} and {4,5,8} have minima {2,4}, a member, but the
        # block {4,5,8} is normed without 4, and neither {2,5} nor {2,8},
        # the minima a functional would need, is a member
        params = NormParams(Explicit([(2, 4, 6), (3, 5), (1, 7, 8)]), Fraction(2, 3))
        x = vec("2:3,4:-1,5:-2,8:2")
        assert norm(params, x)[0] == norm_exhaustive(params, x) == Fraction(10, 3)
        with pytest.raises(NormError):
            norm_via_functionals(params, x)

    @pytest.mark.parametrize("fam", [Schreier(ONE), FineSchreier(from_int(5)),
                                     Schreier(from_int(2))], ids=lambda f: f.descriptor())
    def test_support_16_certificates(self, fam):
        rng = random.Random(16)
        params = NormParams(fam, Fraction(1, 2))
        x = SparseVec([(i, Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3])))
                       for i in range(1, 17)])
        value, cert = norm(params, x)
        assert verify_certificate(params, x, cert) == value
        assert norm_via_functionals(params, x) == value

    @pytest.mark.parametrize("fam", [Schreier(ONE), Schreier(from_int(2)),
                                     FineSchreier(from_int(5)), FineSchreier(OMEGA)],
                             ids=lambda f: f.descriptor())
    def test_support_20_functional_route(self, fam):
        rng = random.Random(20)
        params = NormParams(fam, Fraction(1, 2))
        x = SparseVec([(i, Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3])))
                       for i in range(1, 21)])
        assert norm_via_functionals(params, x) == norm(params, x)[0]


class TestBasisProperties:
    def test_unconditional(self):
        assert check_unconditional(S1, vec("2:1,3:2,5:1/2"))

    def test_sign_cap(self):
        x = SparseVec([(i, Fraction(1)) for i in range(1, 15)])
        with pytest.raises(NormError, match="capped at support size 12"):
            check_unconditional(S1, x)

    def test_right_dominant(self):
        x = vec("2:1,3:1,4:1")
        assert check_right_dominant(S1, x, {2: 5, 3: 7, 4: 11})

    def test_right_dominance_rejects_bad_map(self):
        with pytest.raises(NormError):
            check_right_dominant(S1, vec("3:1"), {3: 2})


class TestL1Lower:
    def test_members(self):
        # ||e_2 + e_3|| = 1 = 2^-1 * 2: the estimate is tight here
        assert check_l1_lower(ONE, 1, (2, 3), [1, 1])
        assert check_l1_lower(ONE, 1, (2, 5), [1, Fraction(-2, 3)])
        assert check_l1_lower(ONE, 2, (2, 3, 4, 5, 6), [1, -1, 2, 1, 3])

    def test_non_member(self):
        with pytest.raises(EstimateError, match="not a member"):
            check_l1_lower(ONE, 1, (1, 2), [1, 1])

    def test_coefficient_count_mismatch(self):
        with pytest.raises(EstimateError, match="one coefficient per element"):
            check_l1_lower(ONE, 1, (2, 5), [1])

    def test_zero_vector(self):
        assert check_l1_lower(ONE, 1, (2, 5), [0, 0])


def exact_root_half(n):
    """The bisection of `rational_root_half` with every power taken exactly."""
    if n == 1:
        return Fraction(1, 2)
    lo, hi = Fraction(1, 2), Fraction(1)
    while hi - lo > Fraction(1, 8 * 10**9):
        mid = (lo + hi) / 2
        if mid**n < Fraction(1, 2):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestRationalRootHalf:
    def test_matches_the_exact_bisection(self):
        for n in [*range(1, 101), 2000, 20000]:
            assert rational_root_half(n) == exact_root_half(n), n

    def test_large_n_takes_no_exact_power(self, monkeypatch):
        # the exact bisection spent 13.4 s in mid**n at n = 200,000
        powers = []
        power = Fraction.__pow__

        def counting(a, b, *rest):
            powers.append(b)
            return power(a, b, *rest)

        monkeypatch.setattr(Fraction, "__pow__", counting)
        c = rational_root_half(200_000)
        assert powers == []
        monkeypatch.undo()
        assert abs(float(c) - 2 ** (-1 / 200_000)) < 10 ** -9


class TestDomination:
    S2 = NormParams(Schreier(from_int(2)), Fraction(1, 2))

    def test_same_norm_gives_one(self):
        ratio, witness = domination_search(S1, S1, bound=4, budget=50)
        assert ratio == 1
        assert witness

    @staticmethod
    def stub_norm(monkeypatch, limit=None):
        """Replace `norm` by a constant that records each support it sees
        (once per vector) and raises `Stop` after `limit` vectors."""
        seen = []

        def fake(params, x):
            if params is S1:
                if limit is not None and len(seen) >= limit:
                    raise TestDomination.Stop
                seen.append(x.support)
            return (Fraction(1), None)

        monkeypatch.setattr("schreier.norms.norm", fake)
        return seen

    class Stop(Exception):
        pass

    def test_huge_bound_and_budget_walk_lazily(self, monkeypatch):
        # the walk never lists [1..10^11]
        seen = self.stub_norm(monkeypatch, limit=100)
        with pytest.raises(self.Stop):
            domination_search(S1, self.S2, bound=10 ** 11, budget=10 ** 11)
        # each support is tried as the all-ones vector and twice with drawn coefficients
        assert seen[::3] == [(i,) for i in range(1, 35)]

    def test_supports_in_combinations_order(self, monkeypatch):
        seen = self.stub_norm(monkeypatch)
        domination_search(S1, self.S2, bound=7, budget=10 ** 6)
        expected = [supp for size in range(1, 6)
                    for supp in itertools.combinations(range(1, 8), size) for _ in range(3)]
        assert seen[:len(expected)] == expected


class TestCache:
    KEY = ("schreier:1", "1/2", "2:1,3:1")

    def test_transparent(self, tmp_path):
        x = vec("3:1,4:1,5:1")
        cold = norm_value(S1, x, cache_dir=str(tmp_path))
        warm = norm_value(S1, x, cache_dir=str(tmp_path))
        plain = norm(S1, x)[0]
        assert cold == warm == plain
        (record_file,) = tmp_path.iterdir()  # one file per record, no temporary left
        assert record_file.suffix == ".json"
        record = json.loads(record_file.read_text())
        assert record["value"] == str(plain)
        assert set(record) == {"family", "c", "vec", "value", "cert"}
        assert verify_certificate(S1, x, cert_from_json(record["cert"])) == plain

    def test_explicit_family_record_is_small(self, tmp_path):
        # the key names the family by its one maximal member, not its 2^16
        params = NormParams(Explicit([tuple(range(1, 17))]), Fraction(1, 2))
        x = vec("1:1,2:1,3:1")
        assert norm_value(params, x, cache_dir=str(tmp_path)) == norm(params, x)[0]
        (record_file,) = tmp_path.iterdir()
        assert record_file.stat().st_size < 400
        assert norm_value(params, x, cache_dir=str(tmp_path)) == norm(params, x)[0]

    @pytest.mark.parametrize("cert", ["x", 5, {"leaf": 9, "value": "7"}, {"blocks": [[2]]}])
    def test_unreadable_certificate_is_a_miss(self, tmp_path, cert):
        x = vec("2:1,3:1")
        cache.store(str(tmp_path), *self.KEY, "7", cert)
        assert norm_value(S1, x, cache_dir=str(tmp_path)) == norm(S1, x)[0] == 1
        assert cache.lookup(str(tmp_path), *self.KEY)[0] == "1"
        assert len(list(tmp_path.iterdir())) == 1

    def test_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHREIER_CACHE_DIR", str(tmp_path))
        x = vec("2:1,3:1")
        assert norm_value(S1, x) == norm(S1, x)[0]
        assert cache.lookup(str(tmp_path), *self.KEY)[0] == "1"

    def test_no_cache_dir(self, monkeypatch):
        monkeypatch.delenv("SCHREIER_CACHE_DIR", raising=False)
        monkeypatch.setattr(cache, "lookup", None)  # never consulted without a directory
        assert norm_value(S1, vec("3:1")) == 1

    def test_truncated_record_is_a_miss(self, tmp_path):
        y = vec("2:1,3:1")
        norm_value(S1, y, cache_dir=str(tmp_path))
        (record_file,) = tmp_path.iterdir()
        text = record_file.read_text()
        record_file.write_text(text[: len(text) // 2])  # a write cut off mid-record
        assert cache.lookup(str(tmp_path), *self.KEY) is None
        assert norm_value(S1, y, cache_dir=str(tmp_path)) == norm(S1, y)[0]
        assert record_file.read_text() == text
        assert len(list(tmp_path.iterdir())) == 1

    def test_file_holding_another_key_is_a_miss(self, tmp_path):
        x, y = vec("3:1,4:1,5:1"), vec("2:1,3:1")
        norm_value(S1, x, cache_dir=str(tmp_path))
        (x_file,) = tmp_path.iterdir()
        norm_value(S1, y, cache_dir=str(tmp_path))
        (y_file,) = set(tmp_path.iterdir()) - {x_file}
        y_file.write_text(x_file.read_text())  # two keys with one checksum
        assert cache.lookup(str(tmp_path), *self.KEY) is None
        assert norm_value(S1, y, cache_dir=str(tmp_path)) == norm(S1, y)[0] == 1
        assert cache.lookup(str(tmp_path), *self.KEY)[0] == "1"

    def test_last_store_wins(self, tmp_path):
        cache.store(str(tmp_path), *self.KEY, "7", "first")
        cache.store(str(tmp_path), *self.KEY, "1", "second")
        assert cache.lookup(str(tmp_path), *self.KEY) == ("1", "second")
        assert len(list(tmp_path.iterdir())) == 1

    def test_concurrent_stores_leave_whole_records(self, tmp_path):
        values = [str(v) for v in range(8)]
        seen, errors = [], []

        def work(value):
            try:
                for _ in range(50):
                    cache.store(str(tmp_path), *self.KEY, value, value)
                    seen.append(cache.lookup(str(tmp_path), *self.KEY))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(v,)) for v in values]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        # every read finds one store's whole record, never a torn one
        assert len(seen) == 400 and all(hit[0] in values and hit[1] == hit[0] for hit in seen)
        assert len(list(tmp_path.iterdir())) == 1

    def test_lookup_opens_one_file(self, tmp_path):
        for i in range(1, 201):
            norm_value(S1, vec("%d:1,%d:1/2" % (i, i + 1)), cache_dir=str(tmp_path))
        assert len(list(tmp_path.iterdir())) == 200
        # audit hooks cannot be removed, so count in a fresh interpreter
        src = os.path.dirname(os.path.dirname(cache.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_OPENS, str(tmp_path), "schreier:1", "1/2",
             "100:1,101:1/2"],
            capture_output=True, text=True, env=env, timeout=60)
        hit, miss = (json.loads(line) for line in proc.stdout.splitlines())
        assert hit == {"found": True, "open": 1, "listed": 0}, proc.stderr
        assert miss == {"found": False, "open": 1, "listed": 0}


# Prints, for a hit on the key in argv and then a miss, whether the lookup
# found a record, how many files it opened and how many directories it listed.
_COUNT_OPENS = """
import json, sys
from schreier import cache
events = []
sys.addaudithook(lambda event, args: events.append(event))
for key in (sys.argv[2:], ["schreier:1", "1/2", "1:1"]):
    events.clear()
    found = cache.lookup(sys.argv[1], *key) is not None
    print(json.dumps({"found": found, "open": events.count("open"),
                      "listed": events.count("os.listdir") + events.count("os.scandir")}))
"""
