"""Consolidated property-check suites.

Each check is a named, seeded, deterministic verification of one of the
library's contracts, from ordinal algebra up to the norm-equivalence
sampling report.  A check function returns (ok, witness), the witness a
message or None; scale parameters default to the values the acceptance
contract pins, and the acceptance tests call the functions directly.

The `check` CLI command goes through one table of (suite, id, claim, run)
rows and `run_suite`, which returns the JSON summary the command prints:
the suite name, the seed, one entry per check sorted by id (its id, claim,
status "pass" or "fail", witness when there is one, and elapsed_ms), and
the suite's elapsed_ms.
"""

import itertools
import random
import time
from fractions import Fraction

from . import ordinals
from .ordinals import OMEGA, ONE, ZERO, from_int, omega_pow
from .families import (
    FineSchreier,
    Schreier,
    cb_index_finite,
    check_structure,
    enumerate_family,
    fs_member,
    residual,
    schreier_member,
)
from .norms import (
    NormParams,
    check_right_dominant,
    check_unconditional,
    norm,
    norm_exhaustive,
    verify_certificate,
)
from .functionals import dual_norm, norm_via_functionals, norming_set
from .estimates import equivalence_sample, random_vector, schreier_product_family
from .trees import (
    BlockTree,
    ExplicitTree,
    block_derivative,
    block_index_finite,
    lemma47_check,
    min_set,
    order,
    order_recursive,
    prop43_verify,
)
from .vectors import SparseVec, format_vec


# -- random generators ------------------------------------------------------

def random_ordinal(rng, depth=3):
    """A random CNF ordinal with nesting depth at most `depth`."""
    nterms = rng.randint(0, 3)
    exps = set()
    while len(exps) < nterms:
        if depth <= 1:
            exps.add(from_int(rng.randint(0, 4)))
        else:
            exps.add(random_ordinal(rng, depth - 1))
    terms = tuple((e, rng.randint(1, 3)) for e in sorted(exps, reverse=True))
    return ordinals.Ordinal(terms)


def random_block_tree(rng, max_gens=3, max_len=3, max_block=3, value_bound=8):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        length = rng.randint(1, max_len)
        blocks = []
        cursor = 0
        for _ in range(length):
            size = rng.randint(1, max_block)
            lo = cursor + 1
            hi = lo + size + rng.randint(0, 2)
            if hi > value_bound + 6:
                break
            block = tuple(sorted(rng.sample(range(lo, hi + 1), size)))
            blocks.append(block)
            cursor = block[-1]
        if blocks:
            gens.append(blocks)
    if not gens:
        gens = [[(1,)]]
    return BlockTree(gens)


# -- ordinal checks ---------------------------------------------------------

def check_ordinal_algebra(rng, cases=1000):
    """Associativity of +, left distributivity of *, and the order axioms,
    on random CNF ordinals of depth <= 3."""
    for _ in range(cases):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        if ordinals.add(ordinals.add(a, b), c) != ordinals.add(a, ordinals.add(b, c)):
            return (False, "add assoc fails: %s,%s,%s" % (a, b, c))
        lhs = ordinals.mul(a, ordinals.add(b, c))
        rhs = ordinals.add(ordinals.mul(a, b), ordinals.mul(a, c))
        if lhs != rhs:
            return (False, "distributivity fails: %s,%s,%s" % (a, b, c))
        if not (a < b or a == b or b < a):
            return (False, "trichotomy fails: %s,%s" % (a, b))
        if a < b and b < c and not a < c:
            return (False, "transitivity fails")
    return (True, None)


def check_natural_sum(rng, cases=1000):
    """Natural sum: commutative, associative, strictly monotone, >= ordinal sum."""
    nsum = ordinals.natural_sum
    for _ in range(cases):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        if nsum(a, b) != nsum(b, a):
            return (False, "commutativity fails: %s,%s" % (a, b))
        if nsum(nsum(a, b), c) != nsum(a, nsum(b, c)):
            return (False, "associativity fails: %s,%s,%s" % (a, b, c))
        if nsum(a, b) < ordinals.add(a, b):
            return (False, "nsum < sum: %s,%s" % (a, b))
        if b < c and not nsum(a, b) < nsum(a, c):
            return (False, "monotonicity fails: %s,%s,%s" % (a, b, c))
        if nsum(a, ZERO) != a:
            return (False, "zero is not neutral: %s" % a)
    return (True, None)


def check_fundamental_seq(rng, cases=200):
    """lam[n] strictly increasing below lam; lam[n] = n at lam = omega."""
    for n in range(1, 20):
        if ordinals.fundamental_seq(OMEGA, n) != from_int(n):
            return (False, "omega[%d] != %d" % (n, n))
    for _ in range(cases):
        lam = random_ordinal(rng)
        if not lam.is_limit:
            continue
        for n in range(1, 6):
            a = ordinals.fundamental_seq(lam, n)
            b = ordinals.fundamental_seq(lam, n + 1)
            if not (a < b < lam):
                return (False, "sequence not increasing below %s at n=%d" % (lam, n))
    return (True, None)


def check_parse_roundtrip(rng, cases=300):
    for _ in range(cases):
        a = random_ordinal(rng)
        if ordinals.parse_ordinal(ordinals.format_ordinal(a)) != a:
            return (False, "roundtrip fails for %s" % a)
    return (True, None)


# -- family checks ----------------------------------------------------------

def _subsets(bound, max_size=None):
    idx = range(1, bound + 1)
    for r in range(0, (max_size or bound) + 1):
        yield from itertools.combinations(idx, r)


def check_fine_closed_form(kmax=6, bound=12):
    """F_k = {A : |A| <= k} for finite k, exhaustively."""
    for k in range(kmax + 1):
        for a in _subsets(bound, kmax + 2):
            if fs_member(from_int(k), a) != (len(a) <= k):
                return (False, "F_%d wrong at %s" % (k, a))
    return (True, None)


def check_schreier_closed_form(bound=14):
    """S_1 = {A : |A| <= min A}, exhaustively up to the bound."""
    for a in _subsets(bound):
        expected = (not a) or len(a) <= a[0]
        if schreier_member(ONE, a) != expected:
            return (False, "S_1 wrong at %s" % (a,))
    return (True, None)


GRID_ORDINALS = (
    from_int(2),
    from_int(3),
    OMEGA,
    ordinals.add(OMEGA, ONE),
    ordinals.mul(OMEGA, from_int(2)),
    omega_pow(from_int(2)),
)


def check_hereditary_spreading(bound=10):
    """Heredity and spread closure of F_alpha over the sample grid."""
    for alpha in GRID_ORDINALS:
        report = check_structure(FineSchreier(alpha), bound)
        for prop in ("hereditary", "spreading"):
            if not report[prop]:
                return (False, "%s fails at %s" % (prop, alpha))
    return (True, None)


def check_almost_increasing(bound=14):
    """For alpha <= beta some tail of F_alpha sits inside F_beta."""
    for alpha, beta in itertools.combinations_with_replacement(sorted(GRID_ORDINALS), 2):
        found = None
        for n in range(1, bound + 1):
            ok = all(
                fs_member(beta, a)
                for a in _subsets(bound, 6)
                if a and a[0] >= n and fs_member(alpha, a)
            )
            if ok:
                found = n
                break
        if found is None:
            return (False, "no tail inclusion for %s <= %s" % (alpha, beta))
    return (True, None)


def check_residual_coherence(bound=9):
    """Residuals by {n} agree with direct membership of {n} u B."""
    for alpha in GRID_ORDINALS:
        fam = FineSchreier(alpha)
        for n in (1, 2, 4):
            if not fam.contains((n,)):
                continue
            res = residual(fam, (n,))
            for b in _subsets(bound, 4):
                if not b or b[0] <= n:
                    continue
                direct = fs_member(alpha, (n,) + b)
                if res.contains(b) != direct:
                    return (False, "residual mismatch at alpha=%s n=%d B=%s" % (alpha, n, b))
    return (True, None)


def check_cb_index(kmax=6):
    """cb index of F_k is k+1 for finite k."""
    for k in range(kmax + 1):
        got = cb_index_finite(FineSchreier(from_int(k)), budget=kmax + 3)
        if got != (k + 1, True):
            return (False, "cb index of F_%d = %s" % (k, got))
    return (True, None)


# -- norm checks ------------------------------------------------------------

def _norm_test_params():
    return [
        NormParams(Schreier(ONE), Fraction(1, 2)),
        NormParams(Schreier(from_int(2)), Fraction(1, 2)),
        NormParams(FineSchreier(from_int(5)), Fraction(1, 2)),
        NormParams(FineSchreier(OMEGA), Fraction(1, 2)),
        NormParams(Schreier(ONE), Fraction(2, 3)),
        NormParams(Schreier(from_int(2)), Fraction(2, 3)),
        NormParams(FineSchreier(from_int(5)), Fraction(2, 3)),
        NormParams(FineSchreier(OMEGA), Fraction(2, 3)),
    ]


def check_norm_oracles(rng, cases=500, *, recorder):
    """Triple agreement: interval DP == exhaustive decomposition search ==
    functional-set supremum, all in exact rationals."""
    params_pool = _norm_test_params()
    for k in range(cases):
        params = params_pool[k % len(params_pool)]
        x = random_vector(rng, bound=10)
        value, cert = norm(params, x)
        recorder.append((params, x, value, cert))
        if norm_exhaustive(params, x) != value:
            return (False, "exhaustive oracle differs at %s / %s" % (format_vec(x), params.key()))
        if norm_via_functionals(params, x) != value:
            return (False, "functional oracle differs at %s / %s" % (format_vec(x), params.key()))
    return (True, None)


def check_norm_order_properties(rng, cases=120):
    """Family monotonicity, c monotonicity, projection contraction,
    homogeneity and the triangle inequality, exactly."""
    s1 = Schreier(ONE)
    s2 = Schreier(from_int(2))
    for _ in range(cases):
        x = random_vector(rng, bound=9, max_size=6)
        if not x:
            continue
        a = norm(NormParams(s1, Fraction(1, 2)), x)[0]
        b = norm(NormParams(s2, Fraction(1, 2)), x)[0]
        if a > b:
            return (False, "family monotonicity fails at %s" % format_vec(x))
        c_small = norm(NormParams(s1, Fraction(1, 3)), x)[0]
        c_big = norm(NormParams(s1, Fraction(2, 3)), x)[0]
        if c_small > c_big:
            return (False, "c monotonicity fails at %s" % format_vec(x))
        params = NormParams(s1, Fraction(1, 2))
        keep = [i for i in x.support if rng.random() < 0.5]
        if keep and norm(params, x.restrict(keep))[0] > a:
            return (False, "projection contraction fails at %s" % format_vec(x))
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if norm(params, x.scale(lam))[0] != lam * a:
            return (False, "homogeneity fails at %s" % format_vec(x))
        y = random_vector(rng, bound=9, max_size=6)
        s = x.add(y)
        if s and norm(params, s)[0] > a + norm(params, y)[0]:
            return (False, "triangle inequality fails at %s + %s" % (format_vec(x), format_vec(y)))
    return (True, None)


def check_l1_lower_bound(rng, cases=200, *, recorder):
    """l1 lower estimate on members of S_(1*n) for n in {1, 2}."""
    done = 0
    fams = {n: schreier_product_family(ONE, n) for n in (1, 2)}
    params = NormParams(Schreier(ONE), Fraction(1, 2))
    while done < cases:
        n = rng.choice((1, 2))
        size = rng.randint(1, 5)
        f_set = tuple(sorted(rng.sample(range(1, 13), size)))
        if not fams[n].contains(f_set):
            continue
        coeffs = [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
            for _ in f_set
        ]
        vec = SparseVec(list(zip(f_set, coeffs)))
        value, cert = norm(params, vec)
        recorder.append((params, vec, value, cert))
        if value < Fraction(1, 2**n) * vec.l1_norm():
            return (False, "l1 bound fails at n=%d F=%s" % (n, f_set))
        done += 1
    return (True, None)


def check_basis_properties(rng, sign_vectors=30, spread_cases=200, *, recorder):
    """1-unconditionality (all sign patterns) and 1-right-dominance."""
    params = NormParams(Schreier(ONE), Fraction(1, 2))

    def evaluate(v):
        value, cert = norm(params, v)
        recorder.append((params, v, value, cert))
        return value

    for _ in range(sign_vectors):
        x = random_vector(rng, bound=10, dense_bias=True).abs()
        if not check_unconditional(params, x, evaluate=evaluate):
            return (False, "unconditionality fails at %s" % format_vec(x))
    for _ in range(spread_cases):
        x = random_vector(rng, bound=8, max_size=5)
        if not x:
            continue
        mapping = {}
        cursor = 0
        for i in x.support:
            cursor = max(cursor + 1, i + rng.randint(0, 4))
            mapping[i] = cursor
        if not check_right_dominant(params, x, mapping, evaluate=evaluate):
            return (False, "right dominance fails at %s via %s" % (format_vec(x), mapping))
    return (True, None)


def check_certificates(recorder):
    """Re-verify every recorded partition certificate against its value."""
    if not recorder:
        return (False, "no recorded norm evaluations to verify")
    for params, x, value, cert in recorder:
        if verify_certificate(params, x, cert) != value:
            return (False, "certificate mismatch at %s / %s" % (format_vec(x), params.key()))
    return (True, "verified %d certificates" % len(recorder))


def check_duality(rng, bound=6, depth=3, pairs=200):
    """Every generated functional has dual gauge <= 1, and the duality
    pairing inequality holds on sampled pairs, exactly.

    The generated set is closed under coordinatewise sign flips and the
    gauge is invariant under them, so the exact LP runs once per absolute
    pattern; invariance itself is asserted on a sample.
    """
    params = NormParams(Schreier(ONE), Fraction(1, 2))
    fs = norming_set(params, bound, depth)
    reps = {}
    for f in fs:
        reps.setdefault(f.abs(), f)
    gauges = {}
    for pattern in reps:
        gauges[pattern] = dual_norm(params, pattern, bound, depth)
        if gauges[pattern] > 1:
            return (False, "functional with gauge > 1: %s" % format_vec(pattern))
    flist = sorted(fs, key=lambda f: f.entries)
    for f in rng.sample(flist, min(20, len(fs))):
        if dual_norm(params, f, bound, depth) != gauges[f.abs()]:
            return (False, "gauge not sign invariant at %s" % format_vec(f))
    for _ in range(pairs):
        f = rng.choice(flist)
        x = random_vector(rng, bound=bound, max_size=bound)
        lhs = f.inner(x)
        rhs = gauges[f.abs()] * norm(params, x)[0]
        if lhs > rhs:
            return (False, "pairing fails: <%s,%s>" % (format_vec(f), format_vec(x)))
    return (True, None)


def check_equivalence_report(rng, cases=100):
    """Sample report for the equivalence of T_(1*2) with T_(1, 2^-1/2):
    finite positive ratios with recorded extrema (no asserted constant)."""
    vectors = [random_vector(rng, bound=8, max_size=5) for _ in range(cases)]
    vectors = [v for v in vectors if v]
    report = equivalence_sample(ONE, 2, 8, vectors)
    if report["samples"] != len(vectors):
        return (False, "sample count mismatch")
    if any(r <= 0 for r in report["ratios"]):
        return (False, "non-positive ratio")
    witness = "max up %s at %s; max down %s at %s" % (
        report["max_ratio_up"], format_vec(report["witness_up"]),
        report["max_ratio_down"], format_vec(report["witness_down"]))
    return (True, witness)


# -- index checks -----------------------------------------------------------

def check_order_identity(rng, cases=60):
    """1 + the longest sequence equals the recursive height, on random trees."""
    for _ in range(cases):
        seqs = []
        for _ in range(rng.randint(1, 12)):
            length = rng.randint(0, 4)
            seqs.append(tuple(rng.randint(0, 3) for _ in range(length)))
        tree = ExplicitTree(seqs)
        if order(tree) != order_recursive(tree):
            return (False, "order mismatch on %s" % (sorted(tree.sequences),))
    return (True, None)


def check_block_derivative_props(rng, cases=40):
    """Block derivative is decreasing, and monotone in the tree."""
    for _ in range(cases):
        bt = random_block_tree(rng)
        d = block_derivative(bt)
        sample_seqs = [g for g in d.generators] + [g[:1] for g in d.generators if g]
        for seq in sample_seqs:
            if d.contains(seq) and not bt.contains(seq):
                return (False, "derivative not decreasing")
        bigger = BlockTree(list(bt.generators) + [[(20, 21), (25,)]])
        dbig = block_derivative(bigger)
        for g in d.generators:
            if not dbig.contains(g):
                return (False, "derivative not monotone")
    return (True, None)


def check_compression_hereditary(rng, cases=25, bound=8):
    for _ in range(cases):
        bt = random_block_tree(rng)
        fam = min_set(bt)
        report = check_structure(fam, bound)
        if not report["hereditary"]:
            return (False, "compression not hereditary for %s" % (bt.generators,))
    return (True, None)


def check_fk_lift_index(kmax=4, bound=8):
    """Block trees lifted from F_k derive to empty in exactly k+1 steps,
    matching the cb index of F_k."""
    for k in range(kmax + 1):
        members = enumerate_family(FineSchreier(from_int(k)), bound)
        gens = [[(m,) for m in f] for f in members]
        bt = derived = BlockTree(gens)
        steps = 0
        while derived.generators:
            derived, steps = block_derivative(derived), steps + 1
        index = block_index_finite(bt)
        if not index == steps == k + 1:
            return (False, "index of F_%d lift = %d after %d derivatives" % (k, index, steps))
    return (True, None)


def check_lemma47(rng, cases=100, bound=12):
    """Compression inclusion for iterated derivatives on random spreading
    block trees of index <= 7, n in {0, 1}.  Generators of up to six blocks
    leave a nonempty left-hand side at n = 1, which needs four."""
    for i in range(cases):
        bt = random_block_tree(rng, max_len=6)
        for n in (0, 1):
            if not lemma47_check(bt, n, bound):
                return (False, "inclusion fails for %s at n=%d" % (bt.generators, n))
    return (True, None)


def check_prop43(bound=6):
    """Witness verification: an identity-style lift of F_2 into the
    spreading closure of two-block chains passes; broken witnesses fail."""
    target = BlockTree([[(1,), (2,)]])
    members = [f for f in enumerate_family(FineSchreier(from_int(2)), bound) if f]
    witness = {f: (f[-1],) for f in members}

    def increasing(tail):
        return all(a[0] < b[0] for a, b in zip(tail, tail[1:]))

    ok, why = prop43_verify(from_int(2), witness, target, increasing, bound)
    if not ok:
        return (False, "identity lift rejected: %s" % (why,))
    broken = dict(witness)
    broken.pop(members[0])
    ok, why = prop43_verify(from_int(2), broken, target, increasing, bound)
    if ok:
        return (False, "missing witness accepted")
    return (True, None)




# -- the check table --------------------------------------------------------

SUITES = ("ordinals", "families", "norms", "indices")


def _table(recorder):
    """Every check as a (suite, id, claim, run) row, in run order; `run`
    takes the check's rng.  The norm rows record into `recorder`, which
    norm-certificates re-verifies after them."""
    return [
        ("ordinals", "ord-algebra",
         "ordinal + associative, * left-distributive, order total", check_ordinal_algebra),
        ("ordinals", "ord-natural-sum",
         "natural sum commutative/associative/monotone and >= ordinal sum", check_natural_sum),
        ("ordinals", "ord-fundamental-seq",
         "fundamental sequences increase to their limit; omega[n] = n", check_fundamental_seq),
        ("ordinals", "ord-parse-roundtrip",
         "format then parse is the identity", check_parse_roundtrip),
        ("families", "fam-fine-closed-form", "F_k is the sets of size <= k, exhaustively to 12",
         lambda rng: check_fine_closed_form()),
        ("families", "fam-schreier-closed-form", "S_1 is {A : |A| <= min A}, exhaustively to 14",
         lambda rng: check_schreier_closed_form()),
        ("families", "fam-hereditary-spreading",
         "F_alpha hereditary and spreading on the sample grid",
         lambda rng: check_hereditary_spreading()),
        ("families", "fam-almost-increasing",
         "tails of F_alpha embed into F_beta for alpha <= beta",
         lambda rng: check_almost_increasing()),
        ("families", "fam-residual", "residuals by {n} match direct membership of {n} u B",
         lambda rng: check_residual_coherence()),
        ("families", "fam-cb-index", "cb_index(F_3) = 4 and cb_index(F_k) = k+1 for k <= 6",
         lambda rng: check_cb_index()),
        ("norms", "norm-oracle-triple",
         "DP norm == exhaustive search == functional supremum, exactly",
         lambda rng: check_norm_oracles(rng, recorder=recorder)),
        ("norms", "norm-order-props",
         "monotone in family and c; contractive projections; norm axioms",
         check_norm_order_properties),
        ("norms", "norm-l1-lower", "members of S_(1*n) give 2^-n l1 lower estimates in T_1",
         lambda rng: check_l1_lower_bound(rng, recorder=recorder)),
        ("norms", "norm-basis-props", "basis is exactly 1-unconditional and 1-right-dominant",
         lambda rng: check_basis_properties(rng, recorder=recorder)),
        ("norms", "norm-duality",
         "generated functionals have dual gauge <= 1; pairing inequality exact", check_duality),
        ("norms", "norm-equivalence-report",
         "exact ratio extrema between T_(1*2) and T_(1, ~2^-1/2)", check_equivalence_report),
        ("norms", "norm-certificates",
         "partition certificates re-verify every recorded norm value",
         lambda rng: check_certificates(recorder)),
        ("indices", "idx-order-identity",
         "tree order (1 + longest sequence) equals the recursive height", check_order_identity),
        ("indices", "idx-block-derivative", "block derivative decreasing and monotone",
         check_block_derivative_props),
        ("indices", "idx-compression-hereditary",
         "compressions of hereditary block trees are hereditary", check_compression_hereditary),
        ("indices", "idx-fk-lift", "F_k lifts have block index k+1",
         lambda rng: check_fk_lift_index()),
        ("indices", "idx-lemma47",
         "iterated CB derivative of min-sets embeds in min-sets of block derivatives",
         check_lemma47),
        ("indices", "idx-prop43", "witness families verify against their target trees",
         lambda rng: check_prop43()),
    ]


def run_suite(name, seed=0):
    """Run one named suite (or 'all') and return its JSON summary.

    Each check draws from its own rng, seeded by the seed and the check id,
    so the summary is deterministic for a fixed seed apart from its times.
    """
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s, all)" % (name, ", ".join(SUITES)))
    t0 = time.monotonic()
    checks = []
    for suite, check_id, claim, run in _table(recorder=[]):
        if name in ("all", suite):
            rng = random.Random("%d:%s" % (seed, check_id))
            t1 = time.monotonic()
            ok, witness = run(rng)
            checks.append({"id": check_id, "claim": claim, "status": "pass" if ok else "fail",
                           **({"witness": witness} if witness else {}),
                           "elapsed_ms": int((time.monotonic() - t1) * 1000)})
    return {"suite": name, "seed": seed, "checks": sorted(checks, key=lambda c: c["id"]),
            "elapsed_ms": int((time.monotonic() - t0) * 1000)}
