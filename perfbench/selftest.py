"""Self-test of the benchmark at a tiny batch size.

    python3 perfbench/selftest.py

From the root of a checkout.  Checks that every workload prints every
end-to-end metric with its unit, that two traced runs print every per-layer
metric with identical counts, that a corrupted reference value is reported
as a failed operation and an incorrect run, that the cli-session failures
are exactly its bad-input probes, and that the benchmark refuses to run
without the program's sources.  Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


def result(*extra):
    """The result object of one tiny run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "0", "--seconds", "1",
           "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(res, expected):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["attempted"] >= 1
    got = res["metrics"]
    assert set(got) == {name for name, _ in expected}, sorted(set(got) ^ {n for n, _ in expected})
    for name, unit in expected:
        assert got[name]["unit"] == unit, (name, got[name])
        assert isinstance(got[name]["value"], (int, float)), (name, got[name])


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    session = len(workloads.build("cli-session", 0, "tiny"))
    for name in workloads.NAMES:
        res = result("--workload", name, "--trace", "0")
        assert_metrics(res, run.END_TO_END)
        assert res["correct"], (name, res)
        if name == "cli-session":
            reps = res["attempted"] // session
            assert res["failed"] == len(workloads.PROBES) * reps, res
        else:
            assert res["failed"] == 0, (name, res)
        traced = [result("--workload", name, "--trace", "1") for _ in range(2)]
        for res in traced:
            assert_metrics(res, run.PER_LAYER)
        for metric, unit in run.PER_LAYER:
            if unit != "s":
                values = [res["metrics"][metric]["value"] for res in traced]
                assert values[0] == values[1], (name, metric, values)
        print("ok  %s" % name)

    with open(os.path.join(HERE, "reference.json")) as fh:
        data = json.load(fh)
    seeded = data["seeded"]["0"]
    key = workloads.op_key(workloads.build("norm-dp", 0, "tiny")[0])
    seeded[key] = str(Fraction(seeded[key]) + 1)
    corrupt = os.path.join(SCRATCH, "corrupt-reference.json")
    with open(corrupt, "w") as fh:
        json.dump(data, fh)
    res = result("--workload", "norm-dp", "--trace", "0", "--reference", corrupt)
    assert res["failed"] >= 1 and not res["correct"], res
    print("ok  corrupted reference is a failed operation")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "norm-dp",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(SCRATCH)
    print("ok  refuses to run without the sources")


if __name__ == "__main__":
    main()
