import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import schreier
from schreier import cache, functionals, norms
from schreier.cli import main
from schreier.families import BoundedMemo, Schreier, format_finset
from schreier.functionals import norm_via_functionals
from schreier.norms import NormParams, cert_from_json, verify_certificate
from schreier.ordinals import ONE
from schreier.vectors import parse_vec

S1 = NormParams(Schreier(ONE), Fraction(1, 2))


class _Stderr(io.StringIO):
    """Standard error that also copies its writes to the shared transcript."""

    def __init__(self, transcript):
        super().__init__()
        self.transcript = transcript

    def write(self, text):
        self.transcript.write(text)
        return super().write(text)


def run(*args):
    """Run the CLI in this process; `output` interleaves stdout and stderr as a
    terminal shows them, `exception` is the SystemExit of a nonzero status or
    the exception that escaped."""
    transcript = io.StringIO()
    err = _Stderr(transcript)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(transcript), contextlib.redirect_stderr(err):
        try:
            main(args=list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            exit_code = code if isinstance(code, int) else 1
            if exit_code:
                exception = exc
        except Exception as exc:
            exit_code, exception = 1, exc
    return SimpleNamespace(exit_code=exit_code, output=transcript.getvalue(),
                           stderr=err.getvalue(), exception=exception)


def process_env():
    """The environment of a fresh interpreter that imports this schreier."""
    src = os.path.dirname(os.path.dirname(schreier.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_process(*args, timeout=60, preexec_fn=None):
    """Run the CLI as `python -m schreier.cli` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "schreier.cli", *args],
                          capture_output=True, text=True, env=process_env(), timeout=timeout,
                          preexec_fn=preexec_fn)


def s1_members_in_lex_order(bound):
    """S_1 = {A : |A| <= min A} within [1..bound], in lex order, by its
    closed form: a prefix A extends only while |A| < min A."""
    def walk(prefix):
        yield prefix
        if not prefix or len(prefix) < prefix[0]:
            for n in range((prefix[-1] if prefix else 0) + 1, bound + 1):
                yield from walk(prefix + (n,))

    return walk(())


# 400 levels of w^( used to overflow the parser's recursion
DEEP_NESTING = "w^(" * 400 + "1" + ")" * 400


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

    def test_deep_nesting_is_usage_error(self):
        result = run("ord", "nsum", DEEP_NESTING, "1")
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: nested deeper than")


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

    def test_explicit_row_past_the_cap(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([list(range(1, 41))]))
        result = run("family", "member", "--explicit", str(path), "--set", "1")
        assert result.exit_code == 2
        assert result.output.startswith("error: a row of 40 elements")
        assert len(result.output.splitlines()) == 1

    def test_explicit_far_bound(self, tmp_path):
        # no member of [[1, 2], [3]] reaches its gap 4, so every scan ends
        # there, whatever the bound, and its derivative is empty
        path = tmp_path / "ex.json"
        path.write_text(json.dumps([[1, 2], [3]]))
        result = run("family", "cb-index", "--explicit", str(path))
        assert (result.exit_code, result.output) == (0, "1\n")
        result = run("family", "enumerate", "--explicit", str(path), "--bound", "1000000000000")
        assert (result.exit_code, result.output) == (0, "-\n1\n1,2\n2\n3\n")
        result = run("family", "structure", "--explicit", str(path), "--bound", "1000000000000")
        assert (result.exit_code, result.output) == (
            1, "hereditary: yes\nspreading: no\ncompact_no_chain: yes\n")

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

    def test_enumerate_into_a_closed_pipe(self):
        # 275,637 bytes of members, past any pipe buffer: the writes after
        # the reader closes its end fail, and the command ends quietly
        proc = subprocess.Popen([sys.executable, "-m", "schreier.cli", "family", "enumerate",
                                 "--schreier", "1", "--bound", "20"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=process_env())
        assert proc.stdout.readline() == "-\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert stderr == ""
        assert "Traceback" not in stderr

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
        ["family", "cb-index", "--schreier", "1", "--budget", "-1"],
        ["norm", "--schreier", "1", "--c", "1/2", "--vec", "1:1", "--cert", "{missing}/c.json"],
        ["equiv-sample", "--alpha", "1", "--n", "0"],
        ["equiv-sample", "--alpha", "1", "--n", "2", "--bound", "0"],
        ["equiv-sample", "--alpha", "1", "--n", "2", "--samples", "0"],
        ["dominate", "--u-schreier", "1", "--u-c", "1/2", "--v-schreier", "1", "--v-c", "1/2",
         "--bound", "0"],
        ["dominate", "--u-schreier", "1", "--u-c", "1/2", "--v-schreier", "1", "--v-c", "1/2",
         "--budget", "0"],
        ["check", "--suite", "ordinals", "--json", "{missing}/summary.json"],
        ["family", "enumerate", "--schreier", "1", "--bound", "4", "--budget", "-1"],
        ["family", "structure", "--schreier", "1", "--bound", "4", "--budget", "-1"],
        ["norm", "--schreier", "1", "--c", "abc", "--vec", "1:1"],
        # Fraction would expand these exponents into billion-digit integers
        ["norm", "--schreier", "1", "--c", "1e-999999999", "--vec", "1:1"],
        ["norm", "--schreier", "1", "--c", "1/2", "--vec", "1:1E999999999"],
        # json loads `true` as a bool, which Python counts as the int 1
        ["family", "member", "--explicit", "{bools}", "--set", "1"],
        ["family", "member", "--explicit", "{not_utf8}", "--set", "1"],
        ["family", "member", "--explicit", "{deep}", "--set", "1"],
        # an empty block between or after the semicolons
        ["family", "admissible", "--schreier", "1", "--blocks", "1,2;;3"],
        ["family", "admissible", "--schreier", "1", "--blocks", "1,2;"],
    ])
    def test_bad_input_is_usage_error(self, tmp_path, args):
        (tmp_path / "bad.json").write_text("[[1, 2]")
        (tmp_path / "ill_typed.json").write_text("[1, 2]")
        (tmp_path / "bools.json").write_text("[[1, true], [3]]")
        (tmp_path / "not_utf8.json").write_bytes(b"[[1, 2], [3, \xff]]")
        (tmp_path / "deep.json").write_text("[" * 100_000)
        invalid_json = any(a in ("{bad}", "{not_utf8}", "{deep}") for a in args)
        args = [a.format(bad=tmp_path / "bad.json", ill_typed=tmp_path / "ill_typed.json",
                         bools=tmp_path / "bools.json", not_utf8=tmp_path / "not_utf8.json",
                         deep=tmp_path / "deep.json", missing=tmp_path / "missing")
                for a in args]
        result = run(*args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert lines[0].startswith("error: invalid JSON: ") == invalid_json

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

    def test_cb_index_default_budget_reports_lower_bound(self):
        result = run("family", "cb-index", "--schreier", "1")
        assert result.exit_code == 3
        assert result.output.strip() == ">= 32 (budget reached)"

    def test_cb_index_large_budget_reports_lower_bound(self):
        result = run("family", "cb-index", "--schreier", "1", "--budget", "100")
        assert result.exit_code == 3
        assert result.output.strip() == ">= 100 (budget reached)"

    def test_cb_index_deep_finite_family(self):
        result = run("family", "cb-index", "--fine", "30")
        assert result.exit_code == 0
        assert result.output.strip() == "31"


class TestBoundedFamilySearches:
    """Searches that once ran for minutes; each ends within seconds in a
    fresh interpreter, under a generous timeout."""

    def test_structure_fine_3_bound_60(self):
        proc = run_process("family", "structure", "--fine", "3", "--bound", "60",
                           "--budget", "100000")
        assert proc.returncode == 0
        assert proc.stdout == "hereditary: yes\nspreading: yes\ncompact_no_chain: yes\n"

    def test_structure_schreier_2_bound_14(self):
        # the greedy chain passes DEFAULT_HORIZON, so S_2 reads as non-compact
        proc = run_process("family", "structure", "--schreier", "2", "--bound", "14")
        assert proc.returncode == 1
        assert proc.stdout == "hereditary: yes\nspreading: yes\ncompact_no_chain: no\n"

    def test_enumerate_schreier_1_bound_20000(self):
        # members print as the walk reaches them: stdout holds the 1000
        # listed within the budget, first in lex order, before the error
        proc = run_process("family", "enumerate", "--schreier", "1", "--bound", "20000",
                           "--budget", "1000")
        assert proc.returncode == 3
        assert proc.stderr == ("error: enumeration within [1..20000]: budget of 1000 members "
                               "exhausted, 1001 spent\n")
        first = itertools.islice(s1_members_in_lex_order(20000), 1000)
        assert proc.stdout == "".join(format_finset(a) + "\n" for a in first)

    def test_enumerate_members_longer_than_recursion_limit(self):
        proc = run_process("family", "enumerate", "--fine", "2000", "--bound", "3000",
                           "--budget", "5000")
        assert proc.returncode == 3
        assert proc.stderr == ("error: enumeration within [1..3000]: budget of 5000 members "
                               "exhausted, 5001 spent\n")

    def test_dualnorm_out_of_memory_exits_3(self, tmp_path):
        # B^-1 over [1..20000] holds 400,000,000 integers, past a 512 MiB
        # address space; the same call at bound 2000 fits and answers
        path = tmp_path / "fam.json"
        path.write_text("[[1, 2], [3]]")
        limit = 512 << 20
        lower = lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        call = ["dualnorm", "--explicit", str(path), "--c", "2/3", "--vec", "1:1,2:1",
                "--depth", "1", "--bound"]
        fits = run_process(*call, "2000", preexec_fn=lower)
        assert (fits.returncode, fits.stdout) == (0, "3/2\n")
        proc = run_process(*call, "20000", preexec_fn=lower)
        assert proc.returncode == 3
        assert proc.stderr == "error: out of memory; a smaller bound or depth needs less\n"
        assert "Traceback" not in proc.stdout + proc.stderr


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
        assert len(list(tmp_path.iterdir())) == 1

    def test_cache_edited_record_is_recomputed(self, tmp_path):
        # the certificate stored with the record gives 1, not the edited 7:
        # the record is a miss, and the corrected record replaces it
        args = ("norm", "--schreier", "1", "--c", "1/2", "--vec", "1:1,2:1,3:1",
                "--cache-dir", str(tmp_path))
        assert run(*args).output == "1\n"
        (path,) = tmp_path.iterdir()
        record = json.loads(path.read_text())
        assert record["value"] == "1"
        record["value"] = "7"
        path.write_text(json.dumps(record))
        for _ in range(2):
            result = run(*args)
            assert result.exit_code == 0 and result.output == "1\n"
            assert json.loads(path.read_text())["value"] == "1"
            assert list(tmp_path.iterdir()) == [path]

    def test_cache_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "env"))
        args = ("norm", "--schreier", "1", "--c", "1/2", "--vec", "1:1,2:1")
        assert run(*args).output == "1\n"
        assert cache.lookup(str(tmp_path / "env"), "schreier:1", "1/2", "1:1,2:1")[0] == "1"

        def no_recompute(*args):
            raise AssertionError("a cached norm was recomputed")

        monkeypatch.setattr(norms, "norm", no_recompute)
        result = run(*args)
        assert result.exit_code == 0 and result.output == "1\n"

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

    def test_dualnorm_budget(self):
        # the pricing DP needs about 290,000 nodes here
        args = ("dualnorm", "--schreier", "1", "--c", "1/2", "--vec", "1:1",
                "--bound", "14", "--depth", "2")
        result = run(*args, "--budget", "1000")
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and "pricing" in lines[0] and "round" in lines[0]
        assert run(*args[:-4], "--bound", "4", "--depth", "2", "--budget", "-1").exit_code == 2

    def test_dualnorm_large_bound_ends(self):
        proc = run_process("dualnorm", "--schreier", "1", "--c", "1/2", "--vec", "1:1",
                           "--bound", "16", "--depth", "2", timeout=10)
        assert proc.returncode in (0, 3)
        assert "Traceback" not in proc.stderr

    def test_dominate_bound_past_the_budget(self):
        # each support visited costs an evaluation, so indices past the
        # budget are never reached and need not be listed
        args = ("dominate", "--u-schreier", "1", "--u-c", "1/2", "--v-schreier", "2",
                "--v-c", "1/2", "--budget", "200", "--bound")
        huge = run(*args, "99999999999")
        assert huge.exit_code == 0
        assert huge.output == run(*args, "200").output

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
        ("lemma47 --n -1 --bound 4", '{"generators": [[[1], [2, 3]]]}'),
        ("witness --alpha 1 --bound 3 --witness {good}", "[[[1]]]"),
        ("witness --alpha 1 --bound 3 --tree {good} --witness {bad}", "[1]"),
        ("witness --alpha 1 --bound 3 --tree {good} --witness {bad}", '{"1": 1}'),
        # json loads `true` as a bool, which Python counts as the int 1
        ("derive", '{"generators": [[[true], [2, 3]]]}'),
        ("witness --alpha 1 --bound 3 --tree {good} --witness {bad}",
         '{"1": [true], "2": [2], "3": [3]}'),
        # text that is not JSON, or not UTF-8, in each file the commands read
        ("order", "[[1, 2]"),
        ("derive", "[[1, 2]"),
        ("witness --alpha 1 --bound 3 --witness {good}", "[[1, 2]"),
        ("witness --alpha 1 --bound 3 --tree {good} --witness {bad}", "[[1, 2]"),
        ("order", b"[[1, \xff]]"),
        ("derive", b'{"generators": [[[1]]], "closure": "\xff"}'),
        ("witness --alpha 1 --bound 3 --tree {good} --witness {bad}", b'{"1": [\xff]}'),
        pytest.param("derive", "[" * 100_000, id="derive-nested-past-the-recursion-limit"),
    ])
    def test_bad_tree_is_usage_error(self, tmp_path, args, text):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_bytes(text.encode() if isinstance(text, str) else text)
        good.write_text(json.dumps({"generators": [[[1]]]}))
        if "--tree" not in args:
            args += " --tree {bad}"
        try:
            json.loads(text)
            invalid_json = False
        except (ValueError, RecursionError):
            invalid_json = True
        result = run("indices", *args.format(bad=bad, good=good).split())
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert lines[0].startswith("error: invalid JSON: ") == invalid_json

    def test_lemma47_huge_n_holds_at_once(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"generators": [[[1], [2, 3], [4, 5, 6]],
                                                   [[2], [5, 9]]]}))
        result = run("indices", "lemma47", "--tree", str(path), "--n", "10000000",
                     "--bound", "12")
        assert result.exit_code == 0
        assert result.output.strip() == "holds"

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
        for summary in (da, db):  # timings are all that may differ for one seed
            summary.pop("elapsed_ms")
            for check in summary["checks"]:
                check.pop("elapsed_ms")
        assert da == db

    def test_unknown_suite_is_usage_error(self):
        assert run("check", "--suite", "bogus").exit_code == 2

    def test_json_carries_check_timings(self, tmp_path):
        out = tmp_path / "summary.json"
        assert run("check", "--suite", "ordinals", "--json", str(out)).exit_code == 0
        for check in json.loads(out.read_text())["checks"]:
            assert type(check["elapsed_ms"]) is int and check["elapsed_ms"] >= 0


def _help_screens():
    """The pinned `--help` screens, keyed by the command words."""
    with open(os.path.join(os.path.dirname(__file__), "help_screens.json")) as fh:
        return json.load(fh)


class TestParser:
    COMMANDS = [[], ["ord"], ["family"], ["indices"]] + [
        ["ord", name] for name in ("cmp", "add", "mul", "nsum", "fs", "classify")
    ] + [
        ["family", name]
        for name in ("member", "maximal", "enumerate", "admissible", "structure", "cb-index")
    ] + [
        ["indices", name] for name in ("order", "derive", "compress", "lemma47", "witness")
    ] + [[name] for name in ("norm", "dualnorm", "dominate", "equiv-sample", "check")]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c) or "main")
    def test_help(self, command):
        result = run(*command, "--help")
        assert result.exit_code == 0
        assert result.output.startswith("usage: ")

    @pytest.mark.parametrize("args", [
        ["family", "member", "--schreier", "1", "--set", "3,5,9", "--bogus"],
        ["family", "member", "--sch", "1", "--set", "3,5,9"],  # no abbreviations
        ["ord", "nsum", "w"],
        ["ord", "fs", "w^2", "x"],
        ["bogus"],
        ["family"],
    ])
    def test_bad_usage_exits_2(self, args):
        assert run(*args).exit_code == 2

    @pytest.mark.parametrize("args", [
        "family member --explicit {missing} --set 1",
        "indices order --tree {missing}",
        "indices derive --tree {missing}",
        "indices compress --tree {missing} --bound 3",
        "indices lemma47 --tree {missing} --n 1 --bound 3",
        "indices witness --alpha 1 --tree {missing} --witness {missing} --bound 3",
    ])
    def test_missing_file_exits_2(self, tmp_path, args):
        result = run(*args.format(missing=tmp_path / "missing.json").split())
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the screens are argparse's layout in Python 3.11")
    def test_help_screens_are_pinned(self, monkeypatch):
        # every flag, default, metavar, choice and help string of the whole
        # interface, at the width argparse wraps to on an 80-column terminal
        monkeypatch.setenv("COLUMNS", "80")
        screens = _help_screens()
        assert list(screens) == [" ".join(command) for command in self.COMMANDS]
        for command, screen in screens.items():
            assert run(*command.split(), "--help").output == screen, command

    # A call builds the parser of the one path it names, so these are the
    # levels where the full listing must still be built: a word after an
    # option, a misspelt word, a missing word.
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the screens are argparse's layout in Python 3.11")
    @pytest.mark.parametrize("args, code, output", [
        ("-h norm", 0, "{main}"),
        ("family -h member", 0, "{family}"),
        ("famly member", 2,
         "usage: schreier [-h] COMMAND ...\n"
         "schreier: error: argument COMMAND: invalid choice: 'famly' (choose from 'ord', "
         "'family', 'norm', 'dualnorm', 'dominate', 'equiv-sample', 'indices', 'check')\n"),
        ("family membr --schreier 1", 2,
         "usage: schreier family [-h] COMMAND ...\n"
         "schreier family: error: argument COMMAND: invalid choice: 'membr' (choose from "
         "'member', 'maximal', 'enumerate', 'admissible', 'structure', 'cb-index')\n"),
        ("family", 2,
         "usage: schreier family [-h] COMMAND ...\n"
         "schreier family: error: the following arguments are required: COMMAND\n"),
    ])
    def test_parser_edges_list_every_command(self, monkeypatch, args, code, output):
        monkeypatch.setenv("COLUMNS", "80")
        screens = _help_screens()
        result = run(*args.split())
        assert result.exit_code == code
        assert result.output == output.format(main=screens[""], family=screens["family"])


DRAWN = st.text(max_size=40) | st.text(alphabet="0123456789w^()+*-,:/.e ", max_size=40)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(command=st.sampled_from(["classify", "member", "norm"]), text=DRAWN,
       c=st.sampled_from(["1/2", "2/3"]) | DRAWN)
@example(command="classify", text=DEEP_NESTING, c="1/2")
@example(command="member", text=",".join(map(str, range(3000, 6001))), c="1/2")
@example(command="norm", text="1:1/2,3:-1,5:2", c="1e-999999999")
def test_drawn_input_keeps_the_exit_contract(command, text, c):
    args = {
        "classify": ["ord", "classify", text],
        "member": ["family", "member", "--schreier", "1", "--set", text],
        "norm": ["norm", "--schreier", "1", "--c", c, "--vec", text],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(args=args)
    assert (exc.value.code or 0) in (0, 2)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1


# Explicit families from small files, each command on them with a drawn
# bound, far past the members included; a row may hold elements just below
# 10^12, which enumeration reads from the family's table without a scan
_ROWS = st.lists(st.lists(st.integers(1, 12) | st.integers(10 ** 12 - 12, 10 ** 12),
                          max_size=5), max_size=4)
_FINSET = st.lists(st.integers(1, 12), max_size=4).map(lambda a: ",".join(map(str, a)) or "-")
_VEC = st.lists(st.tuples(st.integers(1, 12), st.integers(-3, 3)), min_size=1, max_size=5).map(
    lambda entries: ",".join("%d:%d" % entry for entry in entries))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows=_ROWS, command=st.sampled_from(
    ["member", "maximal", "enumerate", "structure", "cb-index", "norm", "dualnorm"]),
       bound=st.integers(1, 12) | st.just(10**12), finset=_FINSET, vec=_VEC,
       c=st.sampled_from(["1/2", "2/3"]), depth=st.integers(0, 2))
@example(rows=[[1, 2], [3]], command="enumerate", bound=10**12, finset="-", vec="1:1,3:1",
         c="1/2", depth=1)
@example(rows=[[1, 2], [3]], command="structure", bound=10**12, finset="-", vec="1:1,3:1",
         c="1/2", depth=1)
@example(rows=[[1, 2], [3]], command="dualnorm", bound=10**12, finset="-", vec="1:1,3:1",
         c="1/2", depth=1)
def test_drawn_explicit_family_keeps_the_exit_contract(rows, command, bound, finset, vec, c,
                                                       depth):
    bounded = ["--bound", str(bound)]
    tail = {
        "member": ["--set", finset],
        "maximal": ["--set", finset],
        "enumerate": bounded,
        "structure": bounded,
        "cb-index": [],
        "norm": ["--c", c, "--vec", vec],
        "dualnorm": ["--c", c, "--vec", vec, *bounded, "--depth", str(depth)],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fam.json")
        with open(path, "w") as fh:
            json.dump(rows, fh)
        args = ([command] if command in ("norm", "dualnorm") else ["family", command]) + [
            "--explicit", path, *tail]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                main(args=args)
    assert (exc.value.code or 0) in (0, 1, 2, 3)


def _readme_examples():
    """The README command lines that state their output in a comment, as
    (arguments, first stdout line, exit status; 0 unless the comment ends
    in `, exit N`)."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.startswith("schreier ") and "#" in line]
    for line in lines:
        command, _, stated = line.partition("#")
        first, status = re.fullmatch(r"(.*?)(?:, exit (\d))?", stated.strip()).groups()
        yield pytest.param(shlex.split(command)[1:], first, int(status or 0),
                           id=command.strip())


@pytest.mark.parametrize("args, first, status", _readme_examples())
def test_readme_example(args, first, status, monkeypatch):
    # paths in the examples are relative to the repository root
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            main(args=args)
    assert (exc.value.code or 0) == status
    assert out.getvalue().splitlines()[0] == first


def test_package_exports_resolve():
    for name in schreier.__all__:
        assert getattr(schreier, name) is not None
    assert schreier.norms.norm is schreier.norm


def test_error_classes_share_one_base():
    from schreier.estimates import EstimateError
    from schreier.families import BudgetExceeded, FamilyError
    from schreier.norms import NormError
    from schreier.ordinals import OrdinalError
    from schreier.trees import TreeError
    from schreier.vectors import VectorError

    for cls in (OrdinalError, FamilyError, VectorError, NormError, TreeError, EstimateError):
        assert issubclass(cls, schreier.SchreierError) and issubclass(cls, ValueError)
        assert cls.exit_code == 2
    assert issubclass(BudgetExceeded, schreier.SchreierError)
    assert issubclass(BudgetExceeded, RuntimeError)
    assert BudgetExceeded.exit_code == 3


# Runs one command in a fresh interpreter, as `python -m schreier.cli` does,
# and prints its exit status, the modules it loaded and the collector's
# frozen object count; `json` is imported only after the modules are listed.
_COLD_CALL = """
import gc, runpy, sys
sys.argv = ["schreier"] + sys.argv[1:]
try:
    runpy.run_module("schreier.cli", run_name="__main__")
except SystemExit as exc:
    modules = sorted(sys.modules)
    import json
    print(json.dumps([exc.code, modules, gc.get_freeze_count()]))
"""


def _cold_call(*args):
    """(exit status, modules loaded, frozen objects) of one cold call."""
    proc = subprocess.run([sys.executable, "-c", _COLD_CALL, *args],
                          capture_output=True, text=True, env=process_env(), timeout=60)
    code, modules, frozen = json.loads(proc.stdout.splitlines()[-1])
    return code or 0, set(modules), frozen


def _cold_modules(*args):
    code, modules, _ = _cold_call(*args)
    assert code == 0
    return modules


def test_cold_start_loads_only_the_layers_a_command_runs(tmp_path):
    heavy = {"click", "dataclasses", "schreier.suites", "schreier.functionals",
             "schreier.simplex", "schreier.trees", "schreier.estimates"}
    nsum = _cold_modules("ord", "nsum", "w*2+1", "w+2")
    member = _cold_modules("family", "member", "--schreier", "1", "--set", "3,5,9")
    norm_args = ("norm", "--schreier", "1", "--c", "1/2", "--vec", "3:1,4:1,5:1",
                 "--cache-dir", str(tmp_path))
    miss = _cold_modules(*norm_args)
    assert len(list(tmp_path.glob("*.json"))) == 1
    hit = _cold_modules(*norm_args)
    equiv = _cold_modules("equiv-sample", "--alpha", "1", "--n", "2", "--bound", "5",
                          "--samples", "3")
    dual = _cold_modules("dualnorm", "--schreier", "1", "--c", "1/2", "--vec", "1:1,3:1",
                         "--bound", "5", "--depth", "2")
    assert "dataclasses" not in equiv
    suite = _cold_modules("check", "--suite", "ordinals")
    assert "schreier.suites" in suite
    assert "schreier.suites" not in _cold_modules("--help")
    assert not {"dataclasses", "inspect"} & suite
    for modules in (nsum, member, miss, hit):
        assert not modules & heavy
    assert not {"schreier.families", "schreier.norms"} & nsum
    assert "hashlib" not in miss  # the record stores the certificate itself
    assert "hashlib" not in hit
    for modules in (nsum, member, dual, equiv):  # no JSON read or written
        assert not {"json", "__future__"} & modules
    for modules in (miss, hit):  # the cache records are JSON
        assert "json" in modules and "__future__" not in modules


# A budget too small for the input, on each guarded search's command, and
# the one line its exhaustion prints: the stage, the limit with its unit and
# the units spent.
_EXHAUSTED = {
    "family enumerate": (
        ["family", "enumerate", "--schreier", "2", "--bound", "14", "--budget", "10"],
        "enumeration within [1..14]: budget of 10 members exhausted, 11 spent"),
    "family structure": (
        ["family", "structure", "--schreier", "2", "--bound", "14", "--budget", "10"],
        "enumeration within [1..14]: budget of 10 members exhausted, 11 spent"),
    "dualnorm": (
        ["dualnorm", "--schreier", "1", "--c", "1/2", "--vec", "1:1", "--bound", "14",
         "--depth", "2", "--budget", "1000"],
        "dual gauge pricing round 1, after 0 nodes in the earlier rounds: budget of 1000 "
        "signature-DP nodes exhausted, 1001 spent"),
    # round 1 reads a dual for each of the 10^12 rows, in any family
    "dualnorm explicit": (
        ["dualnorm", "--explicit", "{fam}", "--c", "1/2", "--vec", "1:1,3:1",
         "--bound", "1000000000000", "--depth", "1", "--budget", "100000"],
        "dual gauge pricing round 1, after 0 nodes in the earlier rounds: budget of 100000 "
        "signature-DP nodes exhausted, 1000000000000 spent"),
}


@pytest.mark.parametrize("args, message", _EXHAUSTED.values(), ids=_EXHAUSTED)
def test_exhausted_budget_prints_one_line(args, message, tmp_path, monkeypatch):
    # a kept pricing run charges all its nodes at once, so the count spent
    # is that of a cold memo only where the memo starts empty
    monkeypatch.setattr(functionals, "_pricing_memo", BoundedMemo(
        functionals.PRICING_MEMO_PAIRS, functionals._pricing_memo.weight))
    fam = tmp_path / "ex.json"
    fam.write_text(json.dumps([[1, 2], [3]]))
    args = [arg.format(fam=fam) for arg in args]
    result = run(*args)
    assert result.exit_code == 3
    assert result.stderr == "error: %s\n" % message
    negative = run(*args[:-1], "-1")
    assert negative.exit_code == 2
    assert negative.stderr == "error: budget must be >= 0, got -1\n"


# One command per exit status of the contract: pass, failed check, usage
# error, budget; the explicit family [1, 2] is not spreading.
_EXIT_CASES = [
    (0, ["ord", "nsum", "w*2+1", "w+2"]),
    (1, ["family", "structure", "--explicit", "{fam}", "--bound", "4"]),
    (2, ["ord", "nsum", "w+1"]),
    (3, ["family", "enumerate", "--schreier", "2", "--bound", "14", "--budget", "10"]),
]


@pytest.fixture
def exit_case(request, tmp_path):
    code, args = request.param
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps([[1, 2]]))
    return code, [arg.format(fam=fam) for arg in args]


@pytest.mark.parametrize("exit_case", _EXIT_CASES, ids=lambda case: "exit%d" % case[0],
                         indirect=True)
class TestProcessEntry:
    """`run` is `main` plus a frozen collector at the end of the process;
    `main`, the in-process API, leaves the collector alone."""

    def test_main_leaves_the_collector(self, exit_case):
        code, args = exit_case
        frozen = gc.get_freeze_count()
        assert run(*args).exit_code == code
        assert gc.get_freeze_count() == frozen

    def test_module_run_freezes_and_keeps_the_status(self, exit_case):
        code, args = exit_case
        status, _, frozen = _cold_call(*args)
        assert status == code
        assert frozen > 0


def test_installed_script_is_the_process_entry():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        text = fh.read()
    script = re.search(r'^\[project\.scripts\]\nschreier = "(.+)"$', text, re.M).group(1)
    assert script == "schreier.cli:run"
    module, _, name = script.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry) and entry is schreier.cli.run
