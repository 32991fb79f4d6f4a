"""Seeded inputs, operations and output checks of the four workloads.

Every workload is a fixed batch of operations built from the seed alone; the
library only ever sees the generated inputs.  `build` makes the batch,
`execute` runs one operation and returns a JSON-ready output, and `check`
compares an output against exact references and returns
(items checked, items failed, first failure reason, wrong value).  The last
field tells a wrong value apart from an operation that raised or broke the
CLI's exit-code contract.

Library functions are looked up on their modules at call time, so the span
wrappers of a traced run see every call the benchmark makes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

from schreier import families, functionals, norms, ordinals, trees, vectors
from schreier.suites import random_block_tree

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0

NAMES = ("norm-dp", "dual-gauge", "families-trees", "cli-session")

NORM_FAMILIES = {"S1": ("schreier", "1"), "S2": ("schreier", "2"),
                 "F5": ("fine", "5"), "Fw": ("fine", "w")}
HALF, TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)

# (support size, constants): one antithetic pair per family and constant
NORM_CELLS = {
    "full": [(6, (HALF, TWO_THIRDS)), (8, (HALF, TWO_THIRDS)), (10, (HALF, TWO_THIRDS))],
    "tiny": [(6, (HALF,))],
}

GRID_FAMILIES = ("3", "w", "w+1", "w*2", "w^2", "w^(w)")


def family(kind, expr):
    alpha = ordinals.parse_ordinal(expr)
    return families.Schreier(alpha) if kind == "schreier" else families.FineSchreier(alpha)


def _coefficient(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 1, 2, 3)))


def antithetic_supports(rng, k):
    """Two supports of size k in [1..2k]: one index from each pair {2j-1, 2j},
    and the complementary choice.  Their combined cost hardly depends on the
    seed, which keeps the batch time steady from seed to seed."""
    bits = [rng.randrange(2) for _ in range(k)]
    return [[2 * j + 1 + (b ^ flip) for j, b in enumerate(bits)] for flip in (0, 1)]


def random_vec(rng, support):
    return vectors.SparseVec([(i, _coefficient(rng)) for i in support])


# -- batch construction ------------------------------------------------------

def build(name, seed, size="full"):
    """The workload's batch: a list of operations (plain dicts)."""
    rng = random.Random("%s:%d" % (name, seed))
    return {"norm-dp": _build_norm_dp, "dual-gauge": _build_dual_gauge,
            "families-trees": _build_families_trees,
            "cli-session": _build_cli_session}[name](rng, size)


def _build_norm_dp(rng, size):
    ops = []
    for k, constants in NORM_CELLS[size]:
        for label in NORM_FAMILIES:
            for c in constants:
                for support in antithetic_supports(rng, k):
                    x = random_vec(rng, support)
                    ops.append({"kind": "norm", "family": label, "c": str(c),
                                "vec": vectors.format_vec(x)})
    rng.shuffle(ops)
    return ops


def functional_patterns(bound, depth):
    """Absolute-value patterns of the generated S1, c = 1/2 functionals."""
    params = norms.NormParams(family("schreier", "1"), HALF)
    fset = functionals.norming_set(params, bound, depth)
    return sorted({vectors.format_vec(f.abs()) for f in fset})


def _build_dual_gauge(rng, size):
    # the shared set K is the one of criterion 8; the calls that build their
    # own set, as the CLI does, use a smaller bound so the batch stays short
    bound, depth, shared, own, own_bound = (6, 3, 6, 2, 5) if size == "full" else (4, 2, 2, 1, 3)
    patterns = REFERENCE_PATTERNS.get((bound, depth)) or functional_patterns(bound, depth)
    targets = []
    for k in range(shared):
        if k % 2 == 0:
            targets.append(rng.choice(patterns))
        else:
            support = sorted(rng.sample(range(1, bound + 1), rng.randint(2, bound)))
            targets.append(vectors.format_vec(random_vec(rng, support)))
    ops = [{"kind": "dual", "vec": g, "bound": bound, "depth": depth, "shared": True}
           for g in targets]
    rng.shuffle(ops)
    ops.insert(0, {"kind": "norming_set", "bound": bound, "depth": depth})
    for _ in range(own):
        support = sorted(rng.sample(range(1, own_bound + 1), 3))
        ops.append({"kind": "dual", "vec": vectors.format_vec(random_vec(rng, support)),
                    "bound": own_bound, "depth": depth, "shared": False})
    return ops


def long_sets(size):
    """Intervals at and just past the size where membership flips."""
    out = []
    for expr, length, start in REFERENCE_LONG[size]:
        for s in (start, start - 1):
            out.append({"kind": "member_long", "alpha": expr,
                        "set": [s, s + length - 1]})
    return out


def _build_families_trees(rng, size):
    full = size == "full"
    ops = [{"kind": "grid", "alpha": expr, "max_elem": 12 if full else 6,
            "max_size": 6 if full else 3} for expr in GRID_FAMILIES]
    ops += long_sets(size)
    ops += [{"kind": "enumerate", "family": "S1", "bound": 14 if full else 8},
            {"kind": "enumerate", "family": "S2", "bound": 12 if full else 8},
            {"kind": "structure", "family": "S2", "bound": 8 if full else 6},
            {"kind": "cb_index", "k_max": 7 if full else 3}]
    for _ in range(8 if full else 2):
        bt = random_block_tree(rng)
        ops.append({"kind": "lemma47", "tree": bt.to_json(), "n": 1,
                    "bound": 14 if full else 8})
    # a fixed order: the operations share the memo table, so shuffling them
    # would move the batch time from seed to seed
    return ops


# Bad-input probes of the exit-code contract: exit 2 and a one-line `error:`.
PROBES = [
    ["family", "enumerate", "--schreier", "1", "--bound", "0"],
    ["family", "member", "--schreier", "0", "--set", "1,2"],
    ["norm", "--schreier", "1", "--c", "3/2", "--vec", "1:1,2:1"],
    ["family", "member", "--explicit", "{bad_json}", "--set", "1"],
    ["dualnorm", "--schreier", "1", "--c", "1/2", "--vec", "1:1,9:1",
     "--bound", "4", "--depth", "2"],
]


def _build_cli_session(rng, size):
    full = size == "full"
    # three distinct vectors, each asked for three times: a miss that computes,
    # then two hits; the misses are the session's slowest calls, so they set
    # its tail (an antithetic pair at support 12 keeps their cost steady)
    norm_calls = []
    if full:
        cells = [("F5", antithetic_supports(rng, 11)[0])]
        cells += [("F5", support) for support in antithetic_supports(rng, 12)]
    else:
        cells = [("S1", antithetic_supports(rng, 4)[0]), ("F5", antithetic_supports(rng, 5)[0])]
    for label, support in cells:
        kind, expr = NORM_FAMILIES[label]
        x = vectors.format_vec(random_vec(rng, support))
        argv = ["norm", "--" + kind, expr, "--c", "1/2", "--vec", x, "--cache-dir", "{cache}"]
        norm_calls += [{"kind": "cli", "check": "norm", "argv": argv,
                        "family": label, "c": "1/2", "vec": x} for _ in range(3)]
    other = []
    a = sorted(rng.sample(range(1, 12), rng.randint(1, 5)))
    other.append({"kind": "cli", "check": "member", "alpha": "w", "set": a,
                  "argv": ["family", "member", "--schreier", "1", "--set",
                           families.format_finset(tuple(a))]})
    other.append({"kind": "cli", "check": "enumerate", "bound": 8,
                  "argv": ["family", "enumerate", "--schreier", "1", "--bound", "8"]})
    a = [rng.randint(0, 3) for _ in range(3)]
    b = [rng.randint(0, 3) for _ in range(3)]
    other.append({"kind": "cli", "check": "nsum", "a": a, "b": b,
                  "argv": ["ord", "nsum", _cnf(a), _cnf(b)]})
    g = vectors.format_vec(random_vec(rng, sorted(rng.sample(range(1, 6), 3))))
    other.append({"kind": "cli", "check": "dual", "vec": g, "bound": 5, "depth": 2,
                  "argv": ["dualnorm", "--schreier", "1", "--c", "1/2", "--vec", g,
                           "--bound", "5", "--depth", "2"]})
    eq_seed = rng.randrange(1000)
    other.append({"kind": "cli", "check": "equiv", "seed": eq_seed,
                  "argv": ["equiv-sample", "--alpha", "1", "--n", "2", "--bound", "6",
                           "--samples", "6", "--seed", str(eq_seed)]})
    other += [{"kind": "cli", "check": "probe", "argv": list(p)} for p in PROBES]
    ops = norm_calls + other
    rng.shuffle(ops)
    return ops


def _cnf(coeffs):
    """w^2*a + w*b + c in the CLI's text form (coefficients may be 0)."""
    a, b, c = coeffs
    parts = [("w^2*%d" % a) if a else "", ("w*%d" % b) if b else "", str(c) if c else ""]
    return "+".join(p for p in parts if p) or "0"


# -- execution ---------------------------------------------------------------

class State:
    """Per-process inputs prepared before the timed loop."""

    def __init__(self, workdir, member=None):
        self.member = member or families.fs_member
        self.functionals = None
        self.cache_dir = os.path.join(workdir, "cache")
        self.bad_json = os.path.join(workdir, "bad.json")


def prepare(ops, state):
    """Parse every input into library objects; part of set-up, not timed."""
    for op in ops:
        kind = op["kind"]
        if kind == "norm":
            op["_params"] = norms.NormParams(family(*NORM_FAMILIES[op["family"]]),
                                             Fraction(op["c"]))
            op["_x"] = vectors.parse_vec(op["vec"])
        elif kind == "dual":
            op["_params"] = norms.NormParams(family("schreier", "1"), HALF)
            op["_g"] = vectors.parse_vec(op["vec"])
        elif kind == "norming_set":
            op["_params"] = norms.NormParams(family("schreier", "1"), HALF)
        elif kind in ("grid", "member_long"):
            op["_alpha"] = ordinals.parse_ordinal(op["alpha"])
            if kind == "grid":
                op["_sets"] = grid_sets(op["max_elem"], op["max_size"])
            else:
                op["_set"] = tuple(range(op["set"][0], op["set"][1] + 1))
        elif kind in ("enumerate", "structure"):
            op["_family"] = family(*NORM_FAMILIES[op["family"]])
        elif kind == "lemma47":
            op["_tree"] = trees.BlockTree.from_json(op["tree"])
        elif kind == "cli":
            op["_argv"] = [a.replace("{cache}", state.cache_dir).replace("{bad_json}", state.bad_json)
                           for a in op["argv"]]


def grid_sets(max_elem, max_size):
    return [a for r in range(max_size + 1)
            for a in itertools.combinations(range(1, max_elem + 1), r)]


def execute(op, state, run_cli=None):
    kind = op["kind"]
    if kind == "norm":
        value, cert = norms.norm(op["_params"], op["_x"])
        return {"value": str(value), "cert": cert.to_json()}
    if kind == "norming_set":
        state.functionals = functionals.norming_set(op["_params"], op["bound"], op["depth"])
        return {"size": len(state.functionals)}
    if kind == "dual":
        shared = state.functionals if op["shared"] else None
        return str(functionals.dual_norm(op["_params"], op["_g"], op["bound"], op["depth"],
                                         functionals=shared))
    if kind == "grid":
        member = state.member
        return "".join("1" if member(op["_alpha"], a) else "0" for a in op["_sets"])
    if kind == "member_long":
        return state.member(op["_alpha"], op["_set"])
    if kind == "enumerate":
        members = families.enumerate_family(op["_family"], op["bound"])
        return [families.format_finset(a) for a in members]
    if kind == "structure":
        return families.check_structure(op["_family"], op["bound"])
    if kind == "cb_index":
        return [list(families.cb_index_finite(families.FineSchreier(ordinals.from_int(k))))
                for k in range(op["k_max"] + 1)]
    if kind == "lemma47":
        return trees.lemma47_check(op["_tree"], op["n"], op["bound"])
    if kind == "cli":
        return run_cli(op["_argv"])
    raise ValueError("unknown operation kind %r" % kind)


# -- checks ------------------------------------------------------------------

def op_key(op):
    """Stable text key of an operation, for the stored references."""
    return json.dumps({k: v for k, v in op.items() if not k.startswith("_")}, sort_keys=True)


def closed_form(alpha, a):
    """Membership by closed form where one exists, else None.

    F_k: |A| <= k.  F_w = S_1: |A| <= min A.  F_(w+1): A minus its minimum
    lies in F_w.  F_(w*2): some n <= min A leaves A, minus its first n
    elements, in F_w; n = min A is the best choice because the families are
    hereditary."""
    if not a:
        return True
    if alpha.is_finite:
        return len(a) <= alpha.as_int()
    text = ordinals.format_ordinal(alpha)
    if text == "w":
        return len(a) <= a[0]
    if text == "w+1":
        return len(a) <= 1 or len(a) - 1 <= a[1]
    if text == "w*2":
        n = a[0]
        return len(a) <= n or len(a) - n <= a[n]
    return None


def check(op, out, ref):
    """(items, failed, reason, wrong value) for one operation's output.

    `ref` maps op_key to a stored exact reference.  Operations that do not
    depend on the seed have one for every seed; the others only for the
    default seed.  Without one, the fallback routes are the functional
    supremum for norms, the closed forms for membership and the <= 1 and
    pairing inequalities for dual gauges."""
    stored = ref.get(op_key(op))
    kind = op["kind"]
    if isinstance(out, dict) and "error" in out and kind != "cli":
        items = len(op["_sets"]) if kind == "grid" else 1
        return (items, items, "raised %s" % out["error"], False)
    if kind == "norm":
        return _check_norm(op["_params"], op["_x"], out, stored)
    if kind == "norming_set":
        return _verdict(stored is None or out == stored, "set size %s" % out["size"])
    if kind == "dual":
        return _check_dual(op, Fraction(out), stored)
    if kind == "grid":
        failed, reason = 0, None
        for pos, (a, got) in enumerate(zip(op["_sets"], out)):
            want = closed_form(op["_alpha"], a)
            if want is None and stored is not None:
                want = stored[pos] == "1"
            if want is not None and (got == "1") != want:
                failed += 1
                reason = reason or "member %s %s" % (op["alpha"], a)
        if len(out) != len(op["_sets"]):
            failed, reason = len(op["_sets"]), "grid length %d" % len(out)
        return (len(op["_sets"]), failed, reason, failed > 0)
    if kind == "member_long":
        want = closed_form(op["_alpha"], op["_set"])
        if want is None:
            want = stored
        return _verdict(want is None or out == want, "long member %s" % op["alpha"])
    if kind == "enumerate":
        if op["family"] == "S1":
            want = [families.format_finset(a) for a in enumerate_closed_s1(op["bound"])]
            return _verdict(sorted(out) == sorted(want), "S1 enumeration")
        return _verdict(stored is None or digest(out) == stored, "S2 enumeration")
    if kind == "structure":
        # hereditary and spreading hold for every Schreier family; the chain
        # probe is compared with the stored output (see WORKLOADS.md)
        ok = out["hereditary"] and out["spreading"]
        if stored is not None:
            ok = ok and out == stored
        return _verdict(ok, "structure %s" % out)
    if kind == "cb_index":
        return _verdict(out == [[k + 1, True] for k in range(op["k_max"] + 1)], "cb index")
    if kind == "lemma47":
        return _verdict(out is True, "lemma 4.7 inclusion fails")
    if kind == "cli":
        return _check_cli(op, out, stored)
    raise ValueError("unknown operation kind %r" % kind)


def _verdict(ok, reason):
    return (1, 0, None, False) if ok else (1, 1, reason, True)


def _broken(reason):
    return (1, 1, reason, False)


def enumerate_closed_s1(bound):
    return [a for r in range(bound + 1)
            for a in itertools.combinations(range(1, bound + 1), r) if not a or len(a) <= a[0]]


def _check_norm(params, x, out, stored):
    value = Fraction(out["value"])
    want = Fraction(stored) if stored is not None else functionals.norm_via_functionals(params, x)
    if value != want:
        return _verdict(False, "norm %s != %s" % (value, want))
    try:
        certified = norms.verify_certificate(params, x, norms.cert_from_json(out["cert"]))
    except norms.CertificateError as exc:
        return _verdict(False, "certificate: %s" % exc)
    return _verdict(certified == value, "certificate value %s" % certified)


def _check_dual(op, value, stored):
    if stored is not None and value != Fraction(stored):
        return _verdict(False, "dual %s != %s" % (value, stored))
    g = vectors.parse_vec(op["vec"])
    params = norms.NormParams(family("schreier", "1"), HALF)
    # every generated functional has sup norm <= 1, so the gauge bounds it
    if value < g.sup_norm():
        return _verdict(False, "dual %s below sup norm" % value)
    # pairing: <g, x> <= gauge(g) * sup over K of <f, x>, tested at x = g
    k_norm = functionals.norm_via_functionals(params, g, depth=op["depth"])
    if g.inner(g) > value * k_norm:
        return _verdict(False, "pairing inequality fails for %s" % op["vec"])
    # an absolute pattern of a generated functional lies in K: gauge <= 1
    if op["vec"] in PATTERN_SET.get((op["bound"], op["depth"]), ()) and value > 1:
        return _verdict(False, "pattern gauge %s > 1" % value)
    return _verdict(True, None)


def _check_cli(op, out, stored):
    code, stdout, stderr = out["code"], out["stdout"], out["stderr"]
    command = " ".join(op["argv"][:3])
    if op["check"] == "probe":
        lines = stderr.strip().splitlines()
        if code == 2 and len(lines) == 1 and lines[0].startswith("error:"):
            return _verdict(True, None)
        return _broken("probe %s exited %d%s" % (
            command, code, " with a traceback" if "Traceback" in stderr else ""))
    if code != 0 or "Traceback" in stderr:
        return _broken("%s exited %d" % (command, code))
    text = stdout.strip()
    check_kind = op["check"]
    if check_kind == "norm":
        want = Fraction(stored) if stored is not None else _functional_norm(
            op["family"], op["c"], op["vec"])
        return _verdict(Fraction(text) == want, "cli norm %s != %s" % (text, want))
    if check_kind == "member":
        want = closed_form(ordinals.parse_ordinal(op["alpha"]), tuple(op["set"]))
        return _verdict(text == ("yes" if want else "no"), "cli member %s" % op["set"])
    if check_kind == "enumerate":
        want = [families.format_finset(a) for a in enumerate_closed_s1(op["bound"])]
        return _verdict(sorted(text.split()) == sorted(want), "cli enumerate")
    if check_kind == "nsum":
        want = _cnf([x + y for x, y in zip(op["a"], op["b"])])
        want = ordinals.format_ordinal(ordinals.parse_ordinal(want))
        return _verdict(text == want, "cli nsum %s != %s" % (text, want))
    if check_kind == "dual":
        return _check_dual(op, Fraction(text), stored)
    if check_kind == "equiv":
        return _check_equiv(op, text)
    raise ValueError("unknown cli check %r" % check_kind)


@functools.lru_cache(maxsize=None)
def _functional_norm(label, c, vec):
    """The functional route, once per distinct vector of a session."""
    params = norms.NormParams(family(*NORM_FAMILIES[label]), Fraction(c))
    return functionals.norm_via_functionals(params, vectors.parse_vec(vec))


def _check_equiv(op, text):
    """Recompute every sampled ratio by the functional route."""
    from schreier.estimates import rational_root_half
    from schreier.suites import random_vector

    rng = random.Random("equiv:%d" % op["seed"])
    samples = []
    while len(samples) < 6:
        x = random_vector(rng, bound=6, max_size=6)
        if x:
            samples.append(x)
    c = rational_root_half(2)
    up = norms.NormParams(family("schreier", "2"), HALF)
    down = norms.NormParams(family("schreier", "1"), c)
    ratios = [functionals.norm_via_functionals(up, x) / functionals.norm_via_functionals(down, x)
              for x in samples]
    lines = text.splitlines()
    ok = (len(lines) == 4 and lines[0] == "c = %s" % c and lines[1] == "samples = 6"
          and lines[2].startswith("max ratio up = %s at " % max(ratios))
          and lines[3].startswith("max ratio down = %s at " % max(1 / r for r in ratios)))
    return _verdict(ok, "equiv-sample report differs")


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- stored references ---------------------------------------------------------

def load_reference(seed, path=None):
    """{op_key: exact output} for the given seed, seed-free outputs included."""
    with open(path or REFERENCE_PATH) as fh:
        data = json.load(fh)
    ref = dict(data["seed_free"])
    ref.update(data["seeded"].get(str(seed), {}))
    return ref


def _seed_free_inputs():
    try:
        with open(REFERENCE_PATH) as fh:
            data = json.load(fh)
    except FileNotFoundError:  # while make_reference.py builds it
        return {}, {"full": [], "tiny": []}
    return {tuple(p["key"]): p["patterns"] for p in data["patterns"]}, data["long_sets"]


REFERENCE_PATTERNS, REFERENCE_LONG = _seed_free_inputs()
PATTERN_SET = {k: set(v) for k, v in REFERENCE_PATTERNS.items()}
