import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from schreier.cli import main
from schreier.families import Schreier
from schreier.functionals import norm_via_functionals
from schreier.norms import NormParams, cert_from_json, verify_certificate
from schreier.ordinals import ONE
from schreier.vectors import parse_vec

S1 = NormParams(Schreier(ONE), Fraction(1, 2))


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


class TestOrd:
    def test_nsum(self):
        result = run("ord", "nsum", "w*2+1", "w+2")
        assert result.exit_code == 0
        assert result.output.strip() == "w*3+3"

    def test_cmp(self):
        assert run("ord", "cmp", "w", "w+1").output.strip() == "less"

    def test_add_mul(self):
        assert run("ord", "add", "1", "w").output.strip() == "w"
        assert run("ord", "mul", "w*2", "w").output.strip() == "w^2"

    def test_fs(self):
        assert run("ord", "fs", "w^2", "3").output.strip() == "w*3"

    def test_fs_non_limit_is_usage_error(self):
        assert run("ord", "fs", "w+1", "3").exit_code == 2

    def test_classify(self):
        assert run("ord", "classify", "w+3").output.strip() == "successor of w+2"

    def test_parse_error(self):
        assert run("ord", "add", "w^", "1").exit_code == 2


class TestFamily:
    def test_member(self):
        result = run("family", "member", "--schreier", "1", "--set", "3,5,9")
        assert result.output.strip() == "yes"
        result = run("family", "member", "--schreier", "1", "--set", "2,5,9")
        assert result.output.strip() == "no"

    def test_requires_one_family(self):
        assert run("family", "member", "--set", "1").exit_code == 2
        assert run("family", "member", "--fine", "1", "--schreier", "1",
                   "--set", "1").exit_code == 2

    def test_explicit_file(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[2, 5]]))
        result = run("family", "member", "--explicit", str(path), "--set", "5")
        assert result.output.strip() == "yes"  # downward closure applied

    def test_maximal(self):
        assert run("family", "maximal", "--schreier", "1",
                   "--set", "3,5,9").output.strip() == "yes"

    def test_enumerate(self):
        result = run("family", "enumerate", "--fine", "1", "--bound", "3")
        assert result.output.split() == ["-", "1", "2", "3"]

    def test_enumerate_budget_exit_code(self):
        result = run("family", "enumerate", "--schreier", "2", "--bound", "14",
                     "--budget", "10")
        assert result.exit_code == 3

    def test_admissible(self):
        result = run("family", "admissible", "--schreier", "1", "--blocks", "2,3;5,9")
        assert result.output.strip() == "yes"

    def test_structure_failure_exit_code(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[1, 2]]))  # not spreading
        result = run("family", "structure", "--explicit", str(path), "--bound", "4")
        assert result.exit_code == 1
        assert "spreading: no" in result.output

    @pytest.mark.parametrize("args", [
        ["family", "enumerate", "--schreier", "1", "--bound", "0"],
        ["family", "member", "--schreier", "0", "--set", "1,2"],
        ["norm", "--schreier", "1", "--c", "3/2", "--vec", "1:1,2:1"],
        ["norm", "--schreier", "1", "--c", "1/2", "--vec", "1:1/0"],
        ["family", "member", "--explicit", "{bad}", "--set", "1"],
        ["family", "member", "--explicit", "{ill_typed}", "--set", "1"],
    ])
    def test_bad_input_is_usage_error(self, tmp_path, args):
        (tmp_path / "bad.json").write_text("[[1, 2]")
        (tmp_path / "ill_typed.json").write_text("[1, 2]")
        args = [a.format(bad=tmp_path / "bad.json", ill_typed=tmp_path / "ill_typed.json")
                for a in args]
        result = run(*args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_member_past_omega_omega_long_set(self):
        # 2000 successor steps down to w^w, then 99 more elements
        result = run("family", "member", "--fine", "w^(w)+2000",
                     "--set", ",".join(str(n) for n in range(1, 2100)))
        assert result.exit_code == 0
        assert result.output.strip() == "yes"

    def test_cb_index(self):
        assert run("family", "cb-index", "--fine", "3").output.strip() == "4"

    def test_cb_index_budget_exit_code(self):
        result = run("family", "cb-index", "--schreier", "1", "--budget", "4")
        assert result.exit_code == 3


class TestNorm:
    def test_value_and_cert(self, tmp_path):
        cert = tmp_path / "cert.json"
        result = run("norm", "--schreier", "1", "--c", "1/2",
                     "--vec", "3:1,4:1,5:1", "--cert", str(cert))
        assert result.output.strip() == "3/2"
        data = json.loads(cert.read_text())
        assert data["value"] == "3/2"

    def test_zero_vector_cert_verifies(self, tmp_path):
        cert = tmp_path / "cert.json"
        result = run("norm", "--schreier", "1", "--c", "1/2", "--vec", "", "--cert", str(cert))
        assert result.exit_code == 0 and result.output.strip() == "0"
        data = json.loads(cert.read_text())
        assert verify_certificate(S1, parse_vec(""), cert_from_json(data)) == 0

    def test_cache_round_trip(self, tmp_path):
        args = ("norm", "--schreier", "1", "--c", "1/2", "--vec", "3:1,4:1,5:1",
                "--cache-dir", str(tmp_path))
        cold = run(*args)
        warm = run(*args)
        assert cold.output == warm.output == "3/2\n"

    def test_dualnorm(self):
        result = run("dualnorm", "--schreier", "1", "--c", "1/2",
                     "--vec", "2:1/2,3:1/2", "--bound", "6", "--depth", "3")
        assert result.output.strip() == "1"

    def test_dualnorm_bound_8(self):
        vec = "1:3,2:-1/2,3:2,4:1,5:-5/3,6:1/2,7:4,8:-1"
        result = run("dualnorm", "--schreier", "1", "--c", "1/2",
                     "--vec", vec, "--bound", "8", "--depth", "3")
        assert result.exit_code == 0
        g = parse_vec(vec)
        gauge = Fraction(result.output.strip())
        assert g.inner(g) <= gauge * norm_via_functionals(S1, g, depth=3)

    @pytest.mark.parametrize("vec, bound, depth", [
        ("1:1,9:1", "4", "2"),  # support beyond the bound
        ("1:1", "0", "2"),
        ("1:1", "4", "-1"),
    ])
    def test_dualnorm_bad_input(self, vec, bound, depth):
        result = run("dualnorm", "--schreier", "1", "--c", "1/2",
                     "--vec", vec, "--bound", bound, "--depth", depth)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_dominate_trivial(self):
        result = run("dominate", "--u-schreier", "1", "--u-c", "1/2",
                     "--v-schreier", "1", "--v-c", "1/2",
                     "--bound", "4", "--budget", "50")
        assert "C >= 1" in result.output

    def test_equiv_sample_deterministic(self):
        args = ("equiv-sample", "--alpha", "1", "--n", "2", "--bound", "6",
                "--samples", "10", "--seed", "7")
        assert run(*args).output == run(*args).output


class TestIndices:
    def test_order(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps([[0, 1, 2]]))
        assert run("indices", "order", "--tree", str(path)).output.strip() == "4"

    def test_derive(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"generators": [[[1], [2, 3]]],
                                    "closure": "spreading"}))
        result = run("indices", "derive", "--tree", str(path))
        assert json.loads(result.output) == {"generators": [[[1]]],
                                             "closure": "spreading"}

    def test_derive_explicit_rejected(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"generators": [[[1]]], "closure": "explicit"}))
        assert run("indices", "derive", "--tree", str(path)).exit_code == 2

    def test_compress(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"generators": [[[2, 3], [5, 9]]],
                                    "closure": "explicit"}))
        result = run("indices", "compress", "--tree", str(path), "--bound", "9")
        assert result.output.split() == ["-", "2", "2,5"]

    def test_lemma47(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"generators": [[[1], [2, 3]]],
                                    "closure": "spreading"}))
        result = run("indices", "lemma47", "--tree", str(path), "--n", "1",
                     "--bound", "10")
        assert result.exit_code == 0
        assert result.output.strip() == "holds"

    @pytest.mark.parametrize("args, text", [
        ("order", "[1, 2]"),
        ("order", '{"generators": []}'),
        ("order", "[[[1], [2]]]"),
        ("derive", "[1, 2]"),
        ("derive", '{"closure": "spreading"}'),
        ("derive", '{"generators": [[1, 2]]}'),
        ("derive", '{"generators": [[["a"]]]}'),
        ("derive", '{"generators": [[[2], [1]]]}'),
        ("derive", '{"generators": [[[1]]], "closure": "explicit"}'),
        ("derive", '{"generators": [[[1]]], "closure": "other"}'),
        ("compress --bound 4", '{"generators": [[[0]]]}'),
        ("lemma47 --n 1 --bound 4", '{"generators": 3}'),
        ("lemma47 --n 1 --bound 4", '{"generators": [[[1]]], "closure": "explicit"}'),
        ("witness --alpha 1 --bound 3 --witness {good}", "[[[1]]]"),
        ("witness --alpha 1 --bound 3 --tree {good} --witness {bad}", "[1]"),
        ("witness --alpha 1 --bound 3 --tree {good} --witness {bad}", '{"1": 1}'),
    ])
    def test_bad_tree_is_usage_error(self, tmp_path, args, text):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(text)
        good.write_text(json.dumps({"generators": [[[1]]]}))
        if "--tree" not in args:
            args += " --tree {bad}"
        result = run("indices", *args.format(bad=bad, good=good).split())
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_witness(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({"generators": [[[1], [2]]],
                                    "closure": "spreading"}))
        from schreier.families import FineSchreier, enumerate_family, format_finset
        from schreier.ordinals import from_int

        members = [f for f in enumerate_family(FineSchreier(from_int(2)), 5) if f]
        wfile = tmp_path / "witness.json"
        wfile.write_text(json.dumps({format_finset(f): [f[-1]] for f in members}))
        result = run("indices", "witness", "--alpha", "2", "--tree", str(tree),
                     "--witness", str(wfile), "--bound", "5")
        assert result.exit_code == 0
        assert result.output.strip() == "verified"


class TestCheck:
    def test_suite_passes(self, tmp_path):
        out = tmp_path / "summary.json"
        result = run("check", "--suite", "ordinals", "--seed", "0",
                     "--json", str(out))
        assert result.exit_code == 0
        summary = json.loads(out.read_text())
        assert summary["suite"] == "ordinals"
        assert all(c["status"] == "pass" for c in summary["checks"])
        assert {"id", "claim", "status"} <= set(summary["checks"][0])

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("check", "--suite", "ordinals", "--seed", "5", "--json", str(a))
        run("check", "--suite", "ordinals", "--seed", "5", "--json", str(b))
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("elapsed_ms")
        db.pop("elapsed_ms")
        assert da == db

    def test_unknown_suite_is_usage_error(self):
        assert run("check", "--suite", "bogus").exit_code == 2
