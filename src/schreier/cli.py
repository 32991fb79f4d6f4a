"""Command line front end.

Exit codes: 0 success (and all requested checks pass), 1 a check failed,
2 usage error (bad options) and any invalid input the library rejects,
3 a search or enumeration budget ran out.  Errors print one `error:` line.

Each command imports the layers it runs inside its own body, so a call
loads only the modules it uses.  `run` is the process entry, of the
installed `schreier` script and of `python -m schreier.cli`; `main` is the
same command for callers inside a process.
"""

import argparse
import gc
import json
import os
import sys

from . import SchreierError

EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 3
# sorted(suites.SUITES) + ["all"], spelled out so that only `check` imports suites
SUITE_CHOICES = ("families", "indices", "norms", "ordinals", "all")


def _fail(message, code=2):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(code)


def main(args=None, prog_name=None):
    """Exact Schreier families, Tsirelson-type norms, and tree indices.

    Runs one command and always ends in SystemExit with the exit status.
    The error boundary: library errors print one `error:` line and exit 2,
    an exhausted budget exits 3.  A reader that closes stdout early (`| head`)
    ends the command quietly with exit 0: stdout is pointed at the null
    device, so the interpreter's final flush has nowhere left to fail.
    """
    argv = sys.argv[1:] if args is None else list(args)
    parsed = _parser(prog_name or "schreier", argv).parse_args(argv)
    try:
        code = parsed.run(parsed)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
    except SchreierError as exc:
        _fail(exc, exc.exit_code)
    except json.JSONDecodeError as exc:
        _fail("invalid JSON: %s" % exc)
    except OSError as exc:
        _fail(exc)
    sys.exit(code)


def run():
    """The process entry: `main` on sys.argv, then the collector frozen.

    The process ends right after, and freezing moves every tracked object
    into the permanent generation, so the interpreter's shutdown passes no
    longer walk the modules, functions and caches the command loaded.
    Streams are still flushed and closed, and `atexit` still runs.  `main`
    never touches the collector."""
    try:
        main()
    finally:
        gc.freeze()


# -- ordinal commands -------------------------------------------------------

def _ord_binary(name):
    def run(args):
        from . import ordinals

        result = getattr(ordinals, name)(ordinals.parse_ordinal(args.a),
                                         ordinals.parse_ordinal(args.b))
        print(result if name == "compare" else ordinals.format_ordinal(result))

    return run


def ord_fs(args):
    """N-th element of the fundamental sequence of a limit ordinal."""
    from .ordinals import format_ordinal, fundamental_seq, parse_ordinal

    print(format_ordinal(fundamental_seq(parse_ordinal(args.a), args.n)))


def ord_classify(args):
    from .ordinals import classify, format_ordinal, parse_ordinal

    kind, pred = classify(parse_ordinal(args.a))
    print("successor of %s" % format_ordinal(pred) if kind == "successor" else kind)


# -- family commands --------------------------------------------------------

def _family_options(parser, prefix=""):
    """Exactly one family; `dominate` prefixes its two with `u-` and `v-`."""
    one = parser.add_mutually_exclusive_group(required=True)
    one.add_argument("--%sfine" % prefix, metavar="EXPR",
                     help="fine family F_EXPR, EXPR an ordinal term")
    one.add_argument("--%sschreier" % prefix, metavar="EXPR",
                     help="family S_EXPR = F_(w^EXPR)")
    if not prefix:
        one.add_argument("--explicit", metavar="FILE",
                         help="explicit family: JSON array of integer arrays; "
                              "downward closure applied on load")


def _family(args, prefix=""):
    from .families import Explicit, FineSchreier, Schreier
    from .ordinals import parse_ordinal

    fine, schreier = getattr(args, prefix + "fine"), getattr(args, prefix + "schreier")
    if fine is not None:
        return FineSchreier(parse_ordinal(fine))
    if schreier is not None:
        return Schreier(parse_ordinal(schreier))
    return Explicit.from_json_file(args.explicit)


def family_member(args):
    from .families import parse_finset

    fam = _family(args)
    print("yes" if fam.contains(parse_finset(args.set)) else "no")


def family_maximal(args):
    from .families import is_maximal, parse_finset

    fam = _family(args)
    print("yes" if is_maximal(fam, parse_finset(args.set)) else "no")


def family_enumerate(args):
    from .families import enumerate_family, format_finset

    fam = _family(args)
    for a in enumerate_family(fam, args.bound, maximal_only=args.maximal_only,
                              budget=args.budget):
        print(format_finset(a))


def family_admissible(args):
    from .families import is_admissible, parse_finset

    fam = _family(args)
    parts = [parse_finset(b) for b in args.blocks.split(";") if b]
    print("yes" if is_admissible(fam, parts) else "no")


def family_structure(args):
    from .families import check_structure

    report = check_structure(_family(args), args.bound, budget=args.budget)
    for key, value in report.items():
        print("%s: %s" % (key, "yes" if value else "no"))
    if not all(report.values()):
        return EXIT_CHECK_FAILED


def family_cb_index(args):
    from .families import cb_index_finite

    index, exact = cb_index_finite(_family(args), budget=args.budget)
    if not exact:
        print(">= %d (budget reached)" % index)
        return EXIT_BUDGET
    print(index)


# -- norm commands ----------------------------------------------------------

def _params(args, prefix=""):
    from .norms import NormError, NormParams
    from .vectors import parse_rational

    fam = _family(args, prefix)
    text = getattr(args, prefix + "c")
    try:
        c = parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise NormError("cannot parse constant %r" % text)
    return NormParams(fam, c)


def norm_cmd(args):
    """Exact Tsirelson-type norm of a rational vector."""
    from .norms import norm, norm_value
    from .vectors import parse_vec

    params = _params(args)
    x = parse_vec(args.vec)
    if args.cert is None:
        print(norm_value(params, x, cache_dir=args.cache_dir))
        return
    value, cert = norm(params, x)
    with open(args.cert, "w") as fh:
        json.dump(cert.to_json(), fh, indent=2)
    print(value)


def dualnorm_cmd(args):
    """Exact dual gauge against the generated functional set."""
    from .functionals import dual_norm
    from .vectors import parse_vec

    params = _params(args)
    print(dual_norm(params, parse_vec(args.vec), args.bound, args.depth, budget=args.budget))


def dominate_cmd(args):
    """Certified lower bound for the domination constant between two norms."""
    from .norms import domination_search
    from .vectors import format_vec

    params_u, params_v = _params(args, "u_"), _params(args, "v_")
    ratio, witness = domination_search(params_u, params_v, args.bound, budget=args.budget)
    print("C >= %s" % ratio)
    print("witness: %s" % format_vec(witness))


def equiv_sample_cmd(args):
    """Exact ratio report between the product-family and scaled-c norms."""
    import random

    from .estimates import equivalence_sample, random_vector
    from .ordinals import parse_ordinal
    from .vectors import format_vec

    rng = random.Random("equiv:%d" % args.seed)
    vectors = []
    while len(vectors) < args.samples:
        x = random_vector(rng, bound=args.bound, max_size=min(6, args.bound))
        if x:
            vectors.append(x)
    report = equivalence_sample(parse_ordinal(args.alpha), args.n, args.bound, vectors)
    print("c = %s" % report.c)
    print("samples = %d" % report.samples)
    print("max ratio up = %s at %s" % (report.max_ratio_up, format_vec(report.witness_up)))
    print("max ratio down = %s at %s"
          % (report.max_ratio_down, format_vec(report.witness_down)))


# -- index commands ---------------------------------------------------------

def indices_order(args):
    from .trees import ExplicitTree, order

    with open(args.tree) as fh:
        print(order(ExplicitTree.from_json(json.load(fh))))


def indices_derive(args):
    from .trees import BlockTree, block_derivative

    print(json.dumps(block_derivative(BlockTree.from_json_file(args.tree)).to_json()))


def indices_compress(args):
    from .families import enumerate_family, format_finset
    from .trees import BlockTree, min_set

    for a in enumerate_family(min_set(BlockTree.from_json_file(args.tree)), args.bound):
        print(format_finset(a))


def indices_lemma47(args):
    from .trees import BlockTree, lemma47_check

    ok = lemma47_check(BlockTree.from_json_file(args.tree), args.n, args.bound)
    print("holds" if ok else "fails")
    if not ok:
        return EXIT_CHECK_FAILED


def indices_witness(args):
    """Verify a witness family against a target tree."""
    from .families import parse_finset
    from .ordinals import parse_ordinal
    from .trees import BlockTree, TreeError, prop43_verify

    bt = BlockTree.from_json_file(args.tree)
    with open(args.witness) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not all(
        isinstance(v, list) and all(type(x) is int for x in v) for v in raw.values()
    ):
        raise TreeError("a witness file is a JSON object mapping sets to integer arrays")
    witness = {parse_finset(k): tuple(v) for k, v in raw.items()}
    preds = {
        "increasing": lambda tail: all(a[0] < b[0] for a, b in zip(tail, tail[1:])),
        "distinct": lambda tail: len(set(tail)) == len(tail),
        "none": lambda tail: True,
    }
    ok, violation = prop43_verify(parse_ordinal(args.alpha), witness, bt, preds[args.pred],
                                  args.bound)
    if ok:
        print("verified")
    else:
        print("violation: %s" % (violation,))
        return EXIT_CHECK_FAILED


# -- suite command ----------------------------------------------------------

def check_cmd(args):
    """Run a property-check suite; exit 0 iff every check passes."""
    from .suites import run_suite

    summary = run_suite(args.suite, seed=args.seed)
    for c in summary["checks"]:
        line = "%s %s: %s" % ("pass" if c["status"] == "pass" else "FAIL", c["id"], c["claim"])
        if "witness" in c:
            line += " [%s]" % c["witness"]
        print(line)
    print(json.dumps(summary))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
    if any(c["status"] == "fail" for c in summary["checks"]):
        return EXIT_CHECK_FAILED


# -- the parser -------------------------------------------------------------

def _operands(*names):
    def add(sub):
        for name in names:
            sub.add_argument(name)

    return add


def _ord_fs_options(sub):
    sub.add_argument("a")
    sub.add_argument("n", type=int)


def _set_options(sub):
    _family_options(sub)
    sub.add_argument("--set", required=True, metavar="FINSET")


def _enumerate_options(sub):
    _family_options(sub)
    sub.add_argument("--bound", type=int, required=True)
    sub.add_argument("--maximal-only", action="store_true")
    sub.add_argument("--budget", type=int, default=1_000_000)


def _admissible_options(sub):
    _family_options(sub)
    sub.add_argument("--blocks", required=True, metavar="B1;B2;...",
                     help="semicolon-separated FinSets, e.g. '1,2;4,5'")


def _structure_options(sub):
    _family_options(sub)
    sub.add_argument("--bound", type=int, required=True)
    sub.add_argument("--budget", type=int, default=2_000_000,
                     help="members enumerated within the bound before giving up (exit 3)")


def _cb_index_options(sub):
    _family_options(sub)
    sub.add_argument("--budget", type=int, default=32,
                     help="derivatives taken before reporting a lower bound (exit 3)")


def _norm_options(sub):
    _family_options(sub)
    sub.add_argument("--c", required=True, metavar="NUM/DEN")
    sub.add_argument("--vec", required=True, metavar="IDX:COEF,...")
    sub.add_argument("--cert", metavar="PATH",
                     help="write the witnessing certificate as JSON")
    sub.add_argument("--cache-dir", metavar="PATH",
                     help="persistent norm cache directory (overrides the environment)")


def _dualnorm_options(sub):
    _family_options(sub)
    sub.add_argument("--c", required=True, metavar="NUM/DEN")
    sub.add_argument("--vec", required=True, metavar="IDX:COEF,...")
    sub.add_argument("--bound", type=int, required=True)
    sub.add_argument("--depth", type=int, required=True)
    sub.add_argument("--budget", type=int, default=100_000,
                     help="pricing dynamic-program nodes over the whole call")


def _dominate_options(sub):
    for side in ("u", "v"):
        _family_options(sub, side + "-")
        sub.add_argument("--%s-c" % side, required=True, metavar="NUM/DEN")
    sub.add_argument("--bound", type=int, default=8)
    sub.add_argument("--budget", type=int, default=10_000)


def _equiv_sample_options(sub):
    sub.add_argument("--alpha", required=True, metavar="EXPR")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--bound", type=int, default=8)
    sub.add_argument("--samples", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)


def _tree_options(*extra):
    def add(sub):
        sub.add_argument("--tree", required=True, metavar="FILE")
        for name in extra:
            sub.add_argument("--" + name, type=int, required=True)

    return add


def _order_options(sub):
    sub.add_argument("--tree", required=True, metavar="FILE",
                     help="JSON array of label sequences")


def _witness_options(sub):
    sub.add_argument("--alpha", required=True, metavar="EXPR")
    sub.add_argument("--tree", required=True, metavar="FILE")
    sub.add_argument("--witness", required=True, metavar="FILE",
                     help="JSON object mapping FinSet text to a node label (integer array)")
    sub.add_argument("--bound", type=int, required=True)
    sub.add_argument("--pred", choices=("increasing", "distinct", "none"),
                     default="increasing",
                     help="finite surrogate applied to each extension tail")


def _check_options(sub):
    sub.add_argument("--suite", required=True, choices=SUITE_CHOICES)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", metavar="PATH",
                     help="also write the JSON summary to this file")


# The command tree in help order.  A command is (name, run, add_options); a
# group is (name, doc, list of commands).
_COMMANDS = (
    ("ord", "Cantor Normal Form ordinal arithmetic.", [
        ("cmp", _ord_binary("compare"), _operands("a", "b")),
        ("add", _ord_binary("add"), _operands("a", "b")),
        ("mul", _ord_binary("mul"), _operands("a", "b")),
        ("nsum", _ord_binary("natural_sum"), _operands("a", "b")),
        ("fs", ord_fs, _ord_fs_options),
        ("classify", ord_classify, _operands("a")),
    ]),
    ("family", "Queries against compact hereditary families.", [
        ("member", family_member, _set_options),
        ("maximal", family_maximal, _set_options),
        ("enumerate", family_enumerate, _enumerate_options),
        ("admissible", family_admissible, _admissible_options),
        ("structure", family_structure, _structure_options),
        ("cb-index", family_cb_index, _cb_index_options),
    ]),
    ("norm", norm_cmd, _norm_options),
    ("dualnorm", dualnorm_cmd, _dualnorm_options),
    ("dominate", dominate_cmd, _dominate_options),
    ("equiv-sample", equiv_sample_cmd, _equiv_sample_options),
    ("indices", "Tree orders, block derivatives, compression.", [
        ("order", indices_order, _order_options),
        ("derive", indices_derive, _tree_options()),
        ("compress", indices_compress, _tree_options("bound")),
        ("lemma47", indices_lemma47, _tree_options("n", "bound")),
        ("witness", indices_witness, _witness_options),
    ]),
    ("check", check_cmd, _check_options),
)


def _parser(prog, argv):
    """The argparse tree for one call.  Every group and command is listed, so
    help and usage errors name them all, but only the group and command that
    `argv` names get their options and subcommands: the options of the top
    parser and of the groups are only -h, so those names are the first two
    words of `argv` that do not start with '-'."""
    words = iter([a for a in argv if not a.startswith("-")][:2])
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__.splitlines()[0],
                                     allow_abbrev=False)
    _add_commands(parser, _COMMANDS, words)
    return parser


def _add_commands(parser, commands, words):
    named = next(words, None)
    subs = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, run, options in commands:
        doc = run if isinstance(run, str) else run.__doc__
        sub = subs.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        if name != named:
            continue
        if isinstance(run, str):
            _add_commands(sub, options, words)
        else:
            sub.set_defaults(run=run)
            options(sub)


if __name__ == "__main__":
    run()
