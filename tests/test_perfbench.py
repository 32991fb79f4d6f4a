"""Smoke test of the benchmark worker on tiny batches, traced.

The traced worker binds library names that no public API promises (the
fine-Schreier memo table, every handle class's `contains`, the simplex
entry point, the `SparseVec` methods, the cache functions).  Running one
traced repetition and its check per workload keeps a change to those names
from breaking the benchmark unnoticed; the CLI session traces each of its
calls through `perfbench/cli_shim.py`.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


def worker(mode, workload, out, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, WORKER, mode, "--workload", workload, "--seed", "0",
         "--size", "tiny", "--trace", "1", "--out", str(out)] + list(extra),
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    with open(out) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["norm-dp", "dual-gauge", "families-trees", "cli-session"])
def test_traced_tiny_batch_runs_and_checks(workload, tmp_path):
    run = worker("run", workload, tmp_path / "run.json")
    if workload == "cli-session":
        assert run["calls"] and all(call["trace"]["calls"] for call in run["calls"])
        assert not [call for call in run["calls"] if call["traceback"]]
    else:
        assert run["trace"]["calls"]
    assert not [out for out in run["outputs"] if isinstance(out, dict) and "error" in out]
    outputs = tmp_path / "outputs.json"
    outputs.write_text(json.dumps(run["outputs"]))
    check = worker("check", workload, tmp_path / "check.json", "--outputs", str(outputs))
    assert check["verdicts"]
    assert [v for v in check["verdicts"] if v[1]] == []
