"""The schreier benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are norm-dp, dual-gauge,
families-trees and cli-session (see perfbench/WORKLOADS.md).  The loop is
closed with a single caller: each repetition of the workload's fixed batch
runs in a fresh interpreter, one child process at a time, so every
repetition starts with empty in-process memo tables and an empty norm cache,
as every CLI call and every acceptance run does.  Repetitions start while
the time left fits another one; the figures are medians over repetitions.
Output checks run after the loop, outside the timed region, in a checker
process of their own.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-layer ones, from repetitions run
under span wrappers, and trace.overhead_s, the traced minus the untraced
median wall time.  The lines before it say what was run on which machine.
"""

from time import perf_counter

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
HASH_SEED = "0"
# fewest repetitions of an untraced run; 4 x 19 cli-session calls put its tail at p86
MIN_REPS = {"norm-dp": 3, "dual-gauge": 3, "families-trees": 3, "cli-session": 4}
CHILD_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "1"),
              ("call_p50_ms", "ms"), ("call_tail_ms", "ms"))

NORM_BUCKETS = tuple("norms.norm.%s.s%d.self_s" % (fam, k)
                     for fam in ("S1", "S2", "F5", "Fw") for k in (6, 8, 10, 12))
PER_LAYER = (
    ("families.member.calls", "count"), ("families.member.self_s", "s"),
    ("families.member_long.self_s", "s"), ("families.memo_entries", "count"),
    ("families.enumerate.self_s", "s"), ("families.structure.self_s", "s"),
    ("ordinals.fundamental_seq.calls", "count"), ("ordinals.classify.calls", "count"),
    ("ordinals.self_s", "s"),
    ("norms.norm.calls", "count"), ("norms.norm.self_s", "s"),
) + tuple((name, "s") for name in NORM_BUCKETS) + (
    ("norms.member_per_norm", "calls/norm"), ("norms.verify.self_s", "s"),
    ("functionals.norming_set.self_s", "s"), ("functionals.set_size", "count"),
    ("functionals.dual_norm.calls", "count"), ("functionals.dual_norm.self_s", "s"),
    ("vectors.calls", "count"), ("vectors.self_s", "s"),
    ("simplex.calls", "count"), ("simplex.self_s", "s"), ("simplex.columns", "count"),
    ("simplex.tableau_cells", "count"),
    ("trees.lemma47.calls", "count"), ("trees.lemma47.self_s", "s"),
    ("trees.min_set.self_s", "s"),
    ("estimates.equivalence_sample.self_s", "s"),
    ("cache.lookups", "count"), ("cache.hits", "count"), ("cache.hit_ratio", "1"),
    ("cache.stores", "count"), ("cache.self_s", "s"), ("cache.file_bytes", "bytes"),
    ("cli.import_s", "s"), ("cli.command_s", "s"),
    ("cli.exit.0", "count"), ("cli.exit.1", "count"), ("cli.exit.2", "count"),
    ("cli.exit.3", "count"), ("cli.tracebacks", "count"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def spawn(mode, args, trace, rep, extra=()):
    """Run one worker process to completion; returns (result, spawn time, exit time)."""
    out = os.path.join(WORKDIR, "%s-%s-%d.json" % (mode, args.workload, rep))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(trace),
           "--out", out] + list(extra)
    t_spawn = perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    t_exit = perf_counter()
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s" % (mode, proc.returncode, proc.stderr[-4000:]))
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result, t_spawn, t_exit


def repetition(args, trace, rep):
    result, t_spawn, t_exit = spawn("run", args, trace, rep)
    rss_kb = result["children_rss_kb"] if args.workload == "cli-session" else result["rss_kb"]
    result.update(setup_s=result["t_first"] - t_spawn, wall_s=result["t_last"] - result["t_first"],
                  process_s=t_exit - t_spawn, peak_rss_mb=rss_kb / 1024.0, traced=bool(trace))
    return result


def measure(args, deadline):
    """Repetitions until the next one would overrun the deadline.

    An untraced run repeats the untraced batch; a traced run alternates an
    untraced and a traced repetition, so the two medians see the same
    machine state and their difference is the tracing overhead."""
    kinds = [1, 0] if args.trace else [0]
    min_reps = 2 if args.trace else MIN_REPS[args.workload]
    reps, durations = [], {0: [], 1: []}
    while True:
        kind = kinds[len(reps) % len(kinds)]
        if len(reps) >= min_reps and durations[kind]:
            if perf_counter() + statistics.median(durations[kind]) > deadline:
                break
        t = perf_counter()
        reps.append(repetition(args, kind, len(reps)))
        durations[kind].append(perf_counter() - t)
    return reps


def tail(samples, n_min):
    """(value, percentile): the highest whole percentile with at least ten
    samples beyond it in every run, that is among n_min samples, the fewest a
    run can have, so the same percentile is reported run after run.  Where
    that percentile would not exceed the median, the median stands in
    (percentile 50): the maximum of a handful of samples would measure the
    machine's worst moment, not the program."""
    p = 100 * (n_min - 10) // n_min
    if p <= 50:
        return statistics.median(samples), 50
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1], p


def check(args, reps, trace):
    """Every repetition must give the same outputs; the first is checked."""
    first = reps[0]["outputs"]
    path = os.path.join(WORKDIR, "outputs-%s.json" % args.workload)
    with open(path, "w") as fh:
        json.dump(first, fh)
    extra = ["--outputs", path]
    if args.reference:
        extra += ["--reference", args.reference]
    result, _, _ = spawn("check", args, trace, 0, extra)
    os.remove(path)
    verdicts = result["verdicts"]
    per_rep_items = sum(v[0] for v in verdicts)
    per_rep_failed = sum(v[1] for v in verdicts)
    mismatched = sum(1 for rep in reps[1:] for a, b in zip(first, rep["outputs"]) if a != b)
    wrong_values = [v[2] for v in verdicts if v[3]]
    attempted = per_rep_items * len(reps)
    failed = per_rep_failed * len(reps) + mismatched
    reasons = [v[2] for v in verdicts if v[1]]
    return attempted, failed, not wrong_values and not mismatched, reasons, result


def end_to_end(args, reps, attempted, failed):
    if args.workload == "cli-session":
        calls = [c["latency_s"] * 1000 for rep in reps for c in rep["calls"]]
    else:  # a batch workload is one interpreter invocation per repetition
        calls = [rep["process_s"] * 1000 for rep in reps]
    tail_ms, tail_p = tail(calls, len(calls) // len(reps) * MIN_REPS[args.workload])
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "ok_ratio": 1 - failed / attempted,
        "call_p50_ms": statistics.median(calls),
        "call_tail_ms": tail_ms,
    }
    print("calls: n=%d, p50 %.1f ms, tail p%s %.1f ms" % (len(calls), values["call_p50_ms"],
                                                          tail_p, tail_ms))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_values(rep, check_result):
    """Per-layer metric values of one traced repetition (and the traced check)."""
    self_s, calls, counters = {}, {}, {}

    def merge(summary):
        for name, value in summary["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in summary["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in summary["counters"].items():
            if name == "functionals.set_size":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    merge(rep["trace"])
    memo = rep["memo_entries"]
    cli_calls = rep["calls"]
    import_s, command_s = [], []
    for call in cli_calls:
        if "trace" in call:
            merge(call["trace"])
            memo = max(memo, call["trace"]["memo_entries"])
            import_s.append(call["trace"]["self_s"].get("cli.import", 0.0))
            command_s.append(sum(v for k, v in call["trace"]["self_s"].items()
                                 if k != "cli.import"))
    verify_s = check_result["trace"]["self_s"].get("norms.verify", 0.0)

    def total(prefix):
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "@"))

    def count(prefix):
        return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "@"))

    norm_calls = count("norms.norm")
    lookups = counters.get("cache.lookups", 0)
    values = {
        "families.member.calls": counters.get("families.member.entering", 0),
        "families.member.self_s": total("families.member"),
        "families.member_long.self_s": self_s.get("families.member@long", 0.0),
        "families.memo_entries": memo,
        "families.enumerate.self_s": total("families.enumerate"),
        "families.structure.self_s": total("families.structure"),
        "ordinals.fundamental_seq.calls": count("ordinals.fundamental_seq"),
        "ordinals.classify.calls": count("ordinals.classify"),
        "ordinals.self_s": total("ordinals.fundamental_seq") + total("ordinals.classify"),
        "norms.norm.calls": norm_calls,
        "norms.norm.self_s": total("norms.norm"),
        "norms.member_per_norm": (counters.get("norms.member_under_norm", 0) / norm_calls
                                  if norm_calls else 0.0),
        "norms.verify.self_s": verify_s,
        "functionals.norming_set.self_s": total("functionals.norming_set"),
        "functionals.set_size": counters.get("functionals.set_size", 0),
        "functionals.dual_norm.calls": count("functionals.dual_norm"),
        "functionals.dual_norm.self_s": total("functionals.dual_norm"),
        "vectors.calls": count("vectors"),
        "vectors.self_s": total("vectors"),
        "simplex.calls": count("simplex"),
        "simplex.self_s": total("simplex"),
        "simplex.columns": counters.get("simplex.columns", 0),
        "simplex.tableau_cells": counters.get("simplex.tableau_cells", 0),
        "trees.lemma47.calls": count("trees.lemma47"),
        "trees.lemma47.self_s": total("trees.lemma47"),
        "trees.min_set.self_s": total("trees.min_set"),
        "estimates.equivalence_sample.self_s": total("estimates.equivalence_sample"),
        "cache.lookups": lookups,
        "cache.hits": counters.get("cache.hits", 0),
        "cache.hit_ratio": counters.get("cache.hits", 0) / lookups if lookups else 0.0,
        "cache.stores": counters.get("cache.stores", 0),
        "cache.self_s": total("cache"),
        "cache.file_bytes": rep.get("cache_file_bytes", 0),
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.command_s": statistics.median(command_s) if command_s else 0.0,
        "cli.tracebacks": sum(1 for c in cli_calls if c["traceback"]),
    }
    for code in range(4):
        values["cli.exit.%d" % code] = sum(1 for c in cli_calls if c["code"] == code)
    for fam in ("S1", "S2", "F5", "Fw"):
        for k in (6, 8, 10, 12):
            values["norms.norm.%s.s%d.self_s" % (fam, k)] = self_s.get(
                "norms.norm@%s.s%d" % (fam, k), 0.0)
    return values


def per_layer(reps, check_result):
    traced = [_layer_values(r, check_result) for r in reps if r["traced"]]
    plain = [r["wall_s"] for r in reps if not r["traced"]]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in reps if r["traced"])
                     - statistics.median(plain))
        elif unit == "s":
            value = statistics.median(v[name] for v in traced)
        else:
            value = traced[0][name]
            if any(v[name] != value for v in traced[1:]):
                print("warning: %s differs between traced repetitions" % name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def machine():
    load = os.getloadavg()[0] if hasattr(os, "getloadavg") else float("nan")
    return "python %s, nproc %d, load %.2f, PYTHONHASHSEED=%s" % (
        sys.version.split()[0], os.cpu_count() or 0, load, HASH_SEED)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a small batch for the self-test")
    parser.add_argument("--reference", help="reference file in place of perfbench/reference.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "schreier", "__init__.py")):
        print("error: no schreier sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    print("machine: " + machine())
    # compile and load the sources once, so no repetition pays for it
    warm = subprocess.run([sys.executable, "-c", "import schreier.cli"], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print("error: cannot import schreier:\n" + warm.stderr, file=sys.stderr)
        return 2

    try:
        reps = measure(args, perf_counter() + args.seconds)
        attempted, failed, correct, reasons, check_result = check(args, reps, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("workload %s, seed %d, size %s: %d repetitions (%d traced)" % (
        args.workload, args.seed, args.size, len(reps), sum(r["traced"] for r in reps)))
    print("wall_s by repetition: " + " ".join("%.3f%s" % (r["wall_s"], "t" if r["traced"] else "")
                                              for r in reps))
    for reason in sorted(set(reasons)):
        print("failed: " + reason)
    if args.trace:
        metrics = per_layer(reps, check_result)
    else:
        metrics = end_to_end(args, reps, attempted, failed)
    shutil.rmtree(os.path.join(WORKDIR, "cache"), ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
