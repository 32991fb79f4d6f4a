"""Command line front end.

Exit codes: 0 success (and all requested checks pass), 1 a check failed,
2 usage error (bad options) and any invalid input the library rejects,
3 a search or enumeration budget ran out.  Errors print one `error:` line.

The command line is one table, `_COMMANDS`: each group lists its commands,
and each command's row holds its name, the function that runs it and its
arguments, every one an `add_argument` call as a (flags, kwargs) pair or a
function that adds a group (the one-of family options, the `--suite`
choices read from `suites`).  A call builds one parser path, the group and
command it names with their options; a level lists all of its commands only
for help and errors, where its word is missing, unknown or after an option.
Each command imports the layers it runs inside its own body, and `json` only
where it reads or writes JSON (input files through `schreier.read_json`), so a
call loads only the modules it uses.  `run` is the process entry, of the
installed `schreier` script and of `python -m schreier.cli`; `main` is the
same command for callers inside a process.
"""

import argparse
import gc
import os
import sys

from . import SchreierError, read_json

EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 3


def _fail(message, code=2):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(code)


def main(args=None, prog_name=None):
    """Exact Schreier families, Tsirelson-type norms, and tree indices.

    Runs one command and always ends in SystemExit with the exit status.
    The error boundary: library errors print one `error:` line and exit 2,
    an exhausted budget or exhausted memory exits 3.  A reader that closes
    stdout early (`| head`) ends the command quietly with exit 0: stdout is
    pointed at the null device, so the interpreter's final flush has nowhere
    left to fail.
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
    except OSError as exc:
        _fail(exc)
    except MemoryError:
        _fail("out of memory; a smaller bound or depth needs less", 3)
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
    parts = [parse_finset(b) for b in args.blocks.split(";")]
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
    import json

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
    print("c = %s" % report["c"])
    print("samples = %d" % report["samples"])
    for side in ("up", "down"):
        print("max ratio %s = %s at %s" % (side, report["max_ratio_" + side],
                                           format_vec(report["witness_" + side])))


# -- index commands ---------------------------------------------------------

def indices_order(args):
    from .trees import ExplicitTree, order

    print(order(ExplicitTree.from_json(read_json(args.tree))))


def indices_derive(args):
    import json

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
    raw = read_json(args.witness)
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
    import json

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

def _arg(*flags, **kwargs):
    """One `add_argument` call of a command's row, as its (flags, kwargs)."""
    return flags, kwargs


def _suite_argument(sub):
    from .suites import SUITES

    sub.add_argument("--suite", required=True, choices=(*sorted(SUITES), "all"))


_BOUND = _arg("--bound", type=int, required=True)
_C_VEC = (_arg("--c", required=True, metavar="NUM/DEN"),
          _arg("--vec", required=True, metavar="IDX:COEF,..."))
_SET = _arg("--set", required=True, metavar="FINSET")
_TREE = _arg("--tree", required=True, metavar="FILE")
_A, _B = _arg("a"), _arg("b")

# The command tree in help order.  A command is (name, run, arguments), each
# argument an `_arg` pair or a function that adds a group to the command's
# parser; a group is (name, doc, list of commands).
_COMMANDS = (
    ("ord", "Cantor Normal Form ordinal arithmetic.", [
        ("cmp", _ord_binary("compare"), (_A, _B)),
        ("add", _ord_binary("add"), (_A, _B)),
        ("mul", _ord_binary("mul"), (_A, _B)),
        ("nsum", _ord_binary("natural_sum"), (_A, _B)),
        ("fs", ord_fs, (_A, _arg("n", type=int))),
        ("classify", ord_classify, (_A,)),
    ]),
    ("family", "Queries against compact hereditary families.", [
        ("member", family_member, (_family_options, _SET)),
        ("maximal", family_maximal, (_family_options, _SET)),
        ("enumerate", family_enumerate, (
            _family_options, _BOUND, _arg("--maximal-only", action="store_true"),
            _arg("--budget", type=int, default=1_000_000))),
        ("admissible", family_admissible, (
            _family_options,
            _arg("--blocks", required=True, metavar="B1;B2;...",
                 help="semicolon-separated FinSets, e.g. '1,2;4,5'"))),
        ("structure", family_structure, (
            _family_options, _BOUND,
            _arg("--budget", type=int, default=2_000_000,
                 help="members enumerated within the bound before giving up (exit 3)"))),
        ("cb-index", family_cb_index, (
            _family_options,
            _arg("--budget", type=int, default=32,
                 help="derivatives taken before reporting a lower bound (exit 3)"))),
    ]),
    ("norm", norm_cmd, (
        _family_options, *_C_VEC,
        _arg("--cert", metavar="PATH", help="write the witnessing certificate as JSON"),
        _arg("--cache-dir", metavar="PATH",
             help="persistent norm cache directory (overrides the environment)"))),
    ("dualnorm", dualnorm_cmd, (
        _family_options, *_C_VEC, _BOUND, _arg("--depth", type=int, required=True),
        _arg("--budget", type=int, default=100_000,
             help="pricing dynamic-program nodes over the whole call"))),
    ("dominate", dominate_cmd, (
        lambda sub: _family_options(sub, "u-"), _arg("--u-c", required=True, metavar="NUM/DEN"),
        lambda sub: _family_options(sub, "v-"), _arg("--v-c", required=True, metavar="NUM/DEN"),
        _arg("--bound", type=int, default=8), _arg("--budget", type=int, default=10_000))),
    ("equiv-sample", equiv_sample_cmd, (
        _arg("--alpha", required=True, metavar="EXPR"), _arg("--n", type=int, required=True),
        _arg("--bound", type=int, default=8), _arg("--samples", type=int, default=100),
        _arg("--seed", type=int, default=0))),
    ("indices", "Tree orders, block derivatives, compression.", [
        ("order", indices_order, (
            _arg("--tree", required=True, metavar="FILE", help="JSON array of label sequences"),)),
        ("derive", indices_derive, (_TREE,)),
        ("compress", indices_compress, (_TREE, _BOUND)),
        ("lemma47", indices_lemma47, (_TREE, _arg("--n", type=int, required=True), _BOUND)),
        ("witness", indices_witness, (
            _arg("--alpha", required=True, metavar="EXPR"), _TREE,
            _arg("--witness", required=True, metavar="FILE",
                 help="JSON object mapping FinSet text to a node label (integer array)"),
            _BOUND,
            _arg("--pred", choices=("increasing", "distinct", "none"), default="increasing",
                 help="finite surrogate applied to each extension tail"))),
    ]),
    ("check", check_cmd, (
        _suite_argument, _arg("--seed", type=int, default=0),
        _arg("--json", metavar="PATH", help="also write the JSON summary to this file"))),
)


def _parser(prog, argv):
    """The argparse tree for one call: the path of the group and command that
    `argv` names, each with its options and subcommands."""
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__.splitlines()[0],
                                     allow_abbrev=False)
    _add_commands(parser, _COMMANDS, argv)
    return parser


def _add_commands(parser, commands, argv):
    """Add one level of the tree, named by the first word of `argv` that does
    not start with '-' (the top parser and the groups take no option but -h).
    The level holds that one command when its name is the first item of
    `argv`; otherwise, where the word is missing, unknown or after an option
    (`schreier -h norm`), it lists every command, so that help and usage
    errors name them all."""
    named = next((a for a in argv if not a.startswith("-")), None)
    path = [c for c in commands if c[0] == named and argv[0] == named]
    subs = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, run, rest in path or commands:
        doc = run if isinstance(run, str) else run.__doc__
        sub = subs.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        if name != named:
            continue
        if isinstance(run, str):
            _add_commands(sub, rest, argv[argv.index(named) + 1:])
            continue
        sub.set_defaults(run=run)
        for arg in rest:
            if callable(arg):
                arg(sub)
            else:
                sub.add_argument(*arg[0], **arg[1])

if __name__ == "__main__":
    run()
