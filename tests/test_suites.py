"""The check table behind `schreier check` and the runner that returns its
JSON summary."""

import random

import pytest

from schreier import suites
from schreier.families import cb_derivative, enumerate_family
from schreier.trees import min_set

IDS = {
    "ordinals": ["ord-algebra", "ord-natural-sum", "ord-fundamental-seq",
                 "ord-parse-roundtrip"],
    "families": ["fam-fine-closed-form", "fam-schreier-closed-form",
                 "fam-hereditary-spreading", "fam-almost-increasing", "fam-residual",
                 "fam-cb-index"],
    "norms": ["norm-oracle-triple", "norm-order-props", "norm-l1-lower", "norm-basis-props",
              "norm-duality", "norm-equivalence-report", "norm-certificates"],
    "indices": ["idx-order-identity", "idx-block-derivative", "idx-compression-hereditary",
                "idx-fk-lift", "idx-lemma47", "idx-prop43"],
}


def test_table_rows_in_run_order():
    assert suites.SUITES == tuple(IDS)
    rows = suites._table(recorder=[])
    assert [row[:2] for row in rows] == [(s, i) for s, ids in IDS.items() for i in ids]


@pytest.fixture
def stub_table(monkeypatch):
    """Cheap rows with the real ids: each records one entry and passes,
    and idx-prop43 fails with a witness."""

    def table(recorder):
        def run(check_id):
            def check(rng):
                recorder.append(check_id)
                if check_id == "idx-prop43":
                    return (False, "seen %d" % len(recorder))
                return (True, None)
            return check

        return [(s, i, "claim " + i, run(i)) for s, ids in IDS.items() for i in ids]

    monkeypatch.setattr(suites, "_table", table)


@pytest.mark.parametrize("name", list(IDS) + ["all"])
def test_summary_sorts_the_suite_checks_by_id(stub_table, name):
    summary = suites.run_suite(name, seed=3)
    assert list(summary) == ["suite", "seed", "checks", "elapsed_ms"]
    assert summary["suite"] == name and summary["seed"] == 3
    expected = sum(IDS.values(), []) if name == "all" else IDS[name]
    assert [c["id"] for c in summary["checks"]] == sorted(expected)
    for c in summary["checks"]:
        assert c["claim"] == "claim " + c["id"]
        assert type(c["elapsed_ms"]) is int and c["elapsed_ms"] >= 0


def test_failure_carries_its_witness_and_each_run_a_fresh_recorder(stub_table):
    for _ in range(2):
        checks = {c["id"]: c for c in suites.run_suite("indices")["checks"]}
        assert list(checks["idx-prop43"]) == ["id", "claim", "status", "witness", "elapsed_ms"]
        assert checks["idx-prop43"]["status"] == "fail"
        assert checks["idx-prop43"]["witness"] == "seen %d" % len(IDS["indices"])
        assert list(checks["idx-fk-lift"]) == ["id", "claim", "status", "elapsed_ms"]
        assert checks["idx-fk-lift"]["status"] == "pass"


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        suites.run_suite("bogus")


def left_side(bt, n, bound):
    """The members within [1..bound] of the (2n + 2)-th CB derivative of the
    min-set family of `bt`: the left-hand side of Lemma 4.7."""
    fam = min_set(bt)
    for _ in range(2 * n + 2):
        fam = cb_derivative(fam)
    return list(enumerate_family(fam, bound))


def criterion_7():
    return suites.check_lemma47(random.Random("acceptance:c7"), cases=100, bound=12)


def test_lemma47_meets_nonempty_left_sides_at_n_1(monkeypatch):
    # a generator of fewer than four blocks leaves no set of the left-hand
    # side at n = 1 but the empty one; 16 of criterion 7's trees have one
    asked = []
    real = suites.lemma47_check

    def spy(bt, n, bound):
        asked.append((bt, n, bound))
        return real(bt, n, bound)

    monkeypatch.setattr(suites, "lemma47_check", spy)
    assert criterion_7() == (True, None)
    assert sum(any(left_side(bt, n, bound)) for bt, n, bound in asked if n == 1) >= 1


def test_lemma47_fails_a_right_side_of_only_the_empty_set_at_n_1(monkeypatch):
    real = suites.lemma47_check

    def only_the_empty_set_at_1(bt, n, bound):
        if n != 1:
            return real(bt, n, bound)
        return not any(left_side(bt, n, bound))

    monkeypatch.setattr(suites, "lemma47_check", only_the_empty_set_at_1)
    ok, witness = criterion_7()
    assert not ok and witness.endswith("at n=1")
