"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py run   --workload W --seed N --size full --trace 0 --out FILE
    python3 perfbench/worker.py check --workload W --seed N --size full --trace 0 --out FILE \
        --outputs FILE

`run` imports schreier, builds the seeded batch (this is set-up), then runs
the batch in order between two clock readings and writes them and the
outputs as JSON.  `check` rebuilds the same batch and checks the given outputs against
the exact references, outside any timed region.  With --trace 1 the span
wrappers are installed after the import and their aggregates are written too.
"""

from time import perf_counter

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

import tracer as tracing
import workloads
from schreier import families

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "check"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--outputs")
    parser.add_argument("--reference")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = os.path.dirname(os.path.abspath(args.out))
    state = workloads.State(workdir, member=tracer.member(families.fs_member) if tracer else None)
    ops = workloads.build(args.workload, args.seed, args.size)
    workloads.prepare(ops, state)
    if args.mode == "run":
        result = _run(ops, state, args, workdir)
    else:
        result = _check(ops, args)
    result["memo_entries"] = len(families._fs_cache)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(os.path.join(workdir, "spans-%s-%s.bin" % (args.mode, args.workload)))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def _run(ops, state, args, workdir):
    run_cli = None
    calls = []
    if args.workload == "cli-session":
        _reset_session(state)
        run_cli = _cli_runner(workdir, args.trace, calls)
    outputs = []
    t_first = perf_counter()
    for op in ops:
        try:
            outputs.append(workloads.execute(op, state, run_cli))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append({"error": "%s: %s" % (type(exc).__name__, exc)})
    t_last = perf_counter()
    result = {"t_first": t_first, "t_last": t_last, "outputs": outputs, "calls": calls}
    if args.workload == "cli-session":
        path = os.path.join(state.cache_dir, "norms.jsonl")
        result["cache_file_bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
    return result


def _reset_session(state):
    """A fresh cache directory and the malformed JSON the probes read."""
    shutil.rmtree(state.cache_dir, ignore_errors=True)
    with open(state.bad_json, "w") as fh:
        fh.write("[[1, 2], [3,")


def _cli_runner(workdir, trace, calls):
    """Run one CLI invocation as a user's shell would, in a fresh interpreter."""
    env = dict(os.environ)

    def run_cli(argv):
        if trace:
            spans = os.path.join(workdir, "cli-spans-%d.json" % len(calls))
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans] + argv
        else:
            spans = None
            cmd = [sys.executable, "-m", "schreier.cli"] + argv
        t = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        call = {"latency_s": perf_counter() - t, "code": proc.returncode,
                "traceback": "Traceback" in proc.stderr}
        if spans is not None and os.path.exists(spans):
            with open(spans) as fh:
                call["trace"] = json.load(fh)
            os.remove(spans)
        calls.append(call)
        stderr = proc.stderr
        if call["traceback"]:  # keep the exception line; frames differ under the shim
            stderr = "Traceback\n" + stderr.strip().splitlines()[-1]
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": stderr}

    return run_cli


def _check(ops, args):
    with open(args.outputs) as fh:
        outputs = json.load(fh)
    ref = workloads.load_reference(args.seed, args.reference)
    verdicts = []
    for op, out in zip(ops, outputs):
        try:
            verdicts.append(list(workloads.check(op, out, ref)))
        except Exception as exc:  # a checker that cannot decide counts as a failure
            verdicts.append([1, 1, "check raised %s: %s" % (type(exc).__name__, exc), True])
    if len(outputs) != len(ops):
        verdicts.append([1, 1, "%d outputs for %d operations" % (len(outputs), len(ops)), True])
    return {"verdicts": verdicts}


if __name__ == "__main__":
    main()
