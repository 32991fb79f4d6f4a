"""Regenerate perfbench/reference.json, the exact reference outputs.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_reference.py

Stores, for the default seed and both batch sizes, every norm value after
checking that all routes agree on it (`norm`, `norm_exhaustive` where the
support is at most 8, `norm_via_functionals`) and that its certificate
re-verifies; every dual gauge; and, for the operations that do not depend on
the seed, the membership answers, enumerations and structure reports.  It
also fixes the seed-free inputs: the long membership sets at the size where
the answer flips, and the absolute patterns of generated functionals.
"""

import json
import os
import sys
from fractions import Fraction

import workloads
from schreier import families, functionals, norms, ordinals

# (ordinal, |A|) of the long membership sets; cost grows fast with |A|
LONG_SETS = {
    "full": [("w", 100), ("w", 200), ("w+1", 100), ("w*2", 150), ("w^2", 100),
             ("w^(w)", 200)],
    "tiny": [("w", 20), ("w^2", 20)],
}
PATTERN_KEYS = [(6, 3), (4, 2), (5, 2)]
SEED_FREE = ("grid", "member_long", "enumerate", "structure", "cb_index", "norming_set")


def flip_start(expr, length):
    """Least s with [s, s+length) in F_expr; membership grows with s (spreading)."""
    alpha = ordinals.parse_ordinal(expr)
    lo, hi = 2, 3 * length
    while lo < hi:
        mid = (lo + hi) // 2
        if families.fs_member(alpha, tuple(range(mid, mid + length))):
            hi = mid
        else:
            lo = mid + 1
    assert not families.fs_member(alpha, tuple(range(lo - 1, lo - 1 + length)))
    return lo


def norm_reference(params, x):
    value, cert = norms.norm(params, x)
    routes = [functionals.norm_via_functionals(params, x),
              norms.verify_certificate(params, x, cert)]
    if len(x) <= 8:
        routes.append(norms.norm_exhaustive(params, x))
    if any(r != value for r in routes):
        raise SystemExit("norm routes disagree on %s: %s vs %s" % (x, value, routes))
    return str(value)


def reference_output(op):
    kind = op["kind"]
    if kind == "norm":
        return norm_reference(op["_params"], op["_x"])
    if kind == "dual":
        return str(functionals.dual_norm(op["_params"], op["_g"], op["bound"], op["depth"]))
    if kind == "cli" and op["check"] == "norm":
        params = norms.NormParams(workloads.family(*workloads.NORM_FAMILIES[op["family"]]),
                                  Fraction(op["c"]))
        return norm_reference(params, workloads.vectors.parse_vec(op["vec"]))
    if kind == "cli" and op["check"] == "dual":
        params = norms.NormParams(workloads.family("schreier", "1"), workloads.HALF)
        g = workloads.vectors.parse_vec(op["vec"])
        return str(functionals.dual_norm(params, g, op["bound"], op["depth"]))
    if kind not in ("norming_set", "enumerate", "grid", "member_long", "structure"):
        return None  # checked by closed forms alone
    out = workloads.execute(op, workloads.State(os.path.dirname(workloads.REFERENCE_PATH)))
    return workloads.digest(out) if kind == "enumerate" else out


def main():
    long_sets = {size: [[expr, length, flip_start(expr, length)] for expr, length in spec]
                 for size, spec in LONG_SETS.items()}
    patterns = [{"key": list(key), "patterns": workloads.functional_patterns(*key)}
                for key in PATTERN_KEYS]
    workloads.REFERENCE_LONG = long_sets
    workloads.REFERENCE_PATTERNS = {tuple(p["key"]): p["patterns"] for p in patterns}
    workloads.PATTERN_SET = {k: set(v) for k, v in workloads.REFERENCE_PATTERNS.items()}
    seed_free, seeded = {}, {}
    for name in workloads.NAMES:
        for size in ("full", "tiny"):
            ops = workloads.build(name, workloads.DEFAULT_SEED, size)
            workloads.prepare(ops, workloads.State(os.path.dirname(workloads.REFERENCE_PATH)))
            for op in ops:
                out = reference_output(op)
                if out is not None:
                    table = seed_free if op["kind"] in SEED_FREE else seeded
                    table[workloads.op_key(op)] = out
            print("%s %s: %d operations" % (name, size, len(ops)), file=sys.stderr)
    data = {"long_sets": long_sets, "patterns": patterns, "seed_free": seed_free,
            "seeded": {str(workloads.DEFAULT_SEED): seeded}}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
