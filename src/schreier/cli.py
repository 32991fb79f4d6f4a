"""Command line front end.

Exit codes: 0 success (and all requested checks pass), 1 a check failed,
2 usage error (click's default, and any invalid input the library rejects),
3 a search or enumeration budget ran out.  Errors print one `error:` line.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from . import ordinals
from .ordinals import OrdinalError, parse_ordinal, format_ordinal
from .families import (
    BudgetExceeded,
    Explicit,
    FamilyError,
    FineSchreier,
    Schreier,
    cb_index_finite,
    check_structure,
    enumerate_family,
    format_finset,
    is_admissible,
    is_maximal,
    parse_finset,
)
from .norms import NormError, NormParams, norm, norm_value
from .functionals import dual_norm as dual_norm_fn
from .norms import domination_search
from .estimates import equivalence_sample
from .trees import (
    BlockTree,
    ExplicitTree,
    TreeError,
    block_derivative,
    lemma47_check,
    min_set,
    order as tree_order,
    prop43_verify,
)
from .vectors import VectorError, parse_vec, format_vec
from .suites import run_suite, SUITES

EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 3


def _fail(message, code=1):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


class _Main(click.Group):
    """The error boundary of every command: library errors become one
    `error:` line and exit 2, an exhausted budget exits 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BudgetExceeded as exc:
            _fail(str(exc), EXIT_BUDGET)
        except json.JSONDecodeError as exc:
            _fail("invalid JSON: %s" % exc, 2)
        except (FamilyError, NormError, OrdinalError, TreeError, VectorError) as exc:
            _fail(str(exc), 2)


@click.group(cls=_Main)
def main():
    """Exact Schreier families, Tsirelson-type norms, and tree indices."""


# -- ordinal commands -------------------------------------------------------

@main.group("ord")
def ord_group():
    """Cantor Normal Form ordinal arithmetic."""


@ord_group.command("cmp")
@click.argument("a")
@click.argument("b")
def ord_cmp(a, b):
    click.echo(ordinals.compare(parse_ordinal(a), parse_ordinal(b)))


@ord_group.command("add")
@click.argument("a")
@click.argument("b")
def ord_add(a, b):
    click.echo(format_ordinal(ordinals.add(parse_ordinal(a), parse_ordinal(b))))


@ord_group.command("mul")
@click.argument("a")
@click.argument("b")
def ord_mul(a, b):
    click.echo(format_ordinal(ordinals.mul(parse_ordinal(a), parse_ordinal(b))))


@ord_group.command("nsum")
@click.argument("a")
@click.argument("b")
def ord_nsum(a, b):
    click.echo(format_ordinal(ordinals.natural_sum(parse_ordinal(a), parse_ordinal(b))))


@ord_group.command("fs")
@click.argument("a")
@click.argument("n", type=int)
def ord_fs(a, n):
    """N-th element of the fundamental sequence of a limit ordinal."""
    click.echo(format_ordinal(ordinals.fundamental_seq(parse_ordinal(a), n)))


@ord_group.command("classify")
@click.argument("a")
def ord_classify(a):
    kind, pred = ordinals.classify(parse_ordinal(a))
    if kind == "successor":
        click.echo("successor of %s" % format_ordinal(pred))
    else:
        click.echo(kind)


# -- family commands --------------------------------------------------------

def family_options(fn):
    fn = click.option("--fine", "fine", default=None, metavar="EXPR",
                      help="fine family F_EXPR, EXPR an ordinal term")(fn)
    fn = click.option("--schreier", "schreier", default=None, metavar="EXPR",
                      help="family S_EXPR = F_(w^EXPR)")(fn)
    fn = click.option("--explicit", "explicit", default=None, metavar="FILE",
                      type=click.Path(exists=True),
                      help="explicit family: JSON array of integer arrays; "
                           "downward closure applied on load")(fn)
    return fn


def family_from_opts(fine, schreier, explicit):
    given = [x for x in (fine, schreier, explicit) if x is not None]
    if len(given) != 1:
        _fail("give exactly one of --fine, --schreier, --explicit", 2)
    if fine is not None:
        return FineSchreier(parse_ordinal(fine))
    if schreier is not None:
        return Schreier(parse_ordinal(schreier))
    return Explicit.from_json_file(explicit)


@main.group("family")
def family_group():
    """Queries against compact hereditary families."""


@family_group.command("member")
@family_options
@click.option("--set", "set_", required=True, metavar="FINSET")
def family_member(fine, schreier, explicit, set_):
    fam = family_from_opts(fine, schreier, explicit)
    click.echo("yes" if fam.contains(parse_finset(set_)) else "no")


@family_group.command("maximal")
@family_options
@click.option("--set", "set_", required=True, metavar="FINSET")
def family_maximal(fine, schreier, explicit, set_):
    fam = family_from_opts(fine, schreier, explicit)
    click.echo("yes" if is_maximal(fam, parse_finset(set_)) else "no")


@family_group.command("enumerate")
@family_options
@click.option("--bound", type=int, required=True)
@click.option("--maximal-only", is_flag=True, default=False)
@click.option("--budget", type=int, default=1_000_000)
def family_enumerate(fine, schreier, explicit, bound, maximal_only, budget):
    fam = family_from_opts(fine, schreier, explicit)
    for a in enumerate_family(fam, bound, maximal_only=maximal_only, budget=budget):
        click.echo(format_finset(a))


@family_group.command("admissible")
@family_options
@click.option("--blocks", required=True, metavar="B1;B2;...",
              help="semicolon-separated FinSets, e.g. '1,2;4,5'")
def family_admissible(fine, schreier, explicit, blocks):
    fam = family_from_opts(fine, schreier, explicit)
    parts = [parse_finset(b) for b in blocks.split(";") if b]
    click.echo("yes" if is_admissible(fam, parts) else "no")


@family_group.command("structure")
@family_options
@click.option("--bound", type=int, required=True)
@click.option("--budget", type=int, default=2_000_000)
def family_structure(fine, schreier, explicit, bound, budget):
    fam = family_from_opts(fine, schreier, explicit)
    report = check_structure(fam, bound, budget=budget)
    for key, value in report.items():
        click.echo("%s: %s" % (key, "yes" if value else "no"))
    if not all(report.values()):
        sys.exit(EXIT_CHECK_FAILED)


@family_group.command("cb-index")
@family_options
@click.option("--budget", type=int, default=32)
def family_cb_index(fine, schreier, explicit, budget):
    fam = family_from_opts(fine, schreier, explicit)
    index, exact = cb_index_finite(fam, budget=budget)
    if not exact:
        click.echo(">= %d (budget reached)" % index)
        sys.exit(EXIT_BUDGET)
    click.echo(str(index))


# -- norm commands ----------------------------------------------------------

def _parse_c(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail("cannot parse constant %r" % text, 2)


@main.command("norm")
@family_options
@click.option("--c", "c_", required=True, metavar="NUM/DEN")
@click.option("--vec", required=True, metavar="IDX:COEF,...")
@click.option("--cert", "cert_path", default=None, type=click.Path(),
              help="write the witnessing certificate as JSON")
@click.option("--cache-dir", default=None, type=click.Path(),
              help="persistent norm cache directory (overrides the environment)")
def norm_cmd(fine, schreier, explicit, c_, vec, cert_path, cache_dir):
    """Exact Tsirelson-type norm of a rational vector."""
    params = NormParams(family_from_opts(fine, schreier, explicit), _parse_c(c_))
    x = parse_vec(vec)
    if cert_path is None and cache_dir is not None:
        click.echo(str(norm_value(params, x, cache_dir=cache_dir)))
        return
    value, cert = norm(params, x)
    if cert_path is not None:
        with open(cert_path, "w") as fh:
            json.dump(cert.to_json(), fh, indent=2)
    click.echo(str(value))


@main.command("dualnorm")
@family_options
@click.option("--c", "c_", required=True, metavar="NUM/DEN")
@click.option("--vec", required=True, metavar="IDX:COEF,...")
@click.option("--bound", type=int, required=True)
@click.option("--depth", type=int, required=True)
def dualnorm_cmd(fine, schreier, explicit, c_, vec, bound, depth):
    """Exact dual gauge against the generated functional set."""
    params = NormParams(family_from_opts(fine, schreier, explicit), _parse_c(c_))
    g = parse_vec(vec)
    click.echo(str(dual_norm_fn(params, g, bound, depth)))


@main.command("dominate")
@click.option("--u-fine", default=None, metavar="EXPR")
@click.option("--u-schreier", default=None, metavar="EXPR")
@click.option("--u-c", required=True, metavar="NUM/DEN")
@click.option("--v-fine", default=None, metavar="EXPR")
@click.option("--v-schreier", default=None, metavar="EXPR")
@click.option("--v-c", required=True, metavar="NUM/DEN")
@click.option("--bound", type=int, default=8)
@click.option("--budget", type=int, default=10_000)
def dominate_cmd(u_fine, u_schreier, u_c, v_fine, v_schreier, v_c, bound, budget):
    """Certified lower bound for the domination constant between two norms."""
    params_u = NormParams(family_from_opts(u_fine, u_schreier, None), _parse_c(u_c))
    params_v = NormParams(family_from_opts(v_fine, v_schreier, None), _parse_c(v_c))
    ratio, witness = domination_search(params_u, params_v, bound, budget=budget)
    click.echo("C >= %s" % ratio)
    click.echo("witness: %s" % format_vec(witness))


@main.command("equiv-sample")
@click.option("--alpha", required=True, metavar="EXPR")
@click.option("--n", "n_", type=int, required=True)
@click.option("--bound", type=int, default=8)
@click.option("--samples", type=int, default=100)
@click.option("--seed", type=int, default=0)
def equiv_sample_cmd(alpha, n_, bound, samples, seed):
    """Exact ratio report between the product-family and scaled-c norms."""
    import random

    from .suites import random_vector

    rng = random.Random("equiv:%d" % seed)
    vectors = []
    while len(vectors) < samples:
        x = random_vector(rng, bound=bound, max_size=min(6, bound))
        if x:
            vectors.append(x)
    report = equivalence_sample(parse_ordinal(alpha), n_, bound, vectors)
    click.echo("c = %s" % report.c)
    click.echo("samples = %d" % report.samples)
    click.echo("max ratio up = %s at %s" % (report.max_ratio_up, format_vec(report.witness_up)))
    click.echo("max ratio down = %s at %s" % (report.max_ratio_down, format_vec(report.witness_down)))


# -- index commands ---------------------------------------------------------

@main.group("indices")
def indices_group():
    """Tree orders, block derivatives, compression."""


@indices_group.command("order")
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True),
              help="JSON array of label sequences")
def indices_order(tree_path):
    with open(tree_path) as fh:
        click.echo(str(tree_order(ExplicitTree.from_json(json.load(fh)))))


@indices_group.command("derive")
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True))
def indices_derive(tree_path):
    bt = BlockTree.from_json_file(tree_path)
    click.echo(json.dumps(block_derivative(bt).to_json()))


@indices_group.command("compress")
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True))
@click.option("--bound", type=int, required=True)
def indices_compress(tree_path, bound):
    for a in enumerate_family(min_set(BlockTree.from_json_file(tree_path)), bound):
        click.echo(format_finset(a))


@indices_group.command("lemma47")
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True))
@click.option("--n", "n_", type=int, required=True)
@click.option("--bound", type=int, required=True)
def indices_lemma47(tree_path, n_, bound):
    ok = lemma47_check(BlockTree.from_json_file(tree_path), n_, bound)
    click.echo("holds" if ok else "fails")
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


@indices_group.command("witness")
@click.option("--alpha", required=True, metavar="EXPR")
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True))
@click.option("--witness", "witness_path", required=True, type=click.Path(exists=True),
              help="JSON object mapping FinSet text to a node label (integer array)")
@click.option("--bound", type=int, required=True)
@click.option("--pred", type=click.Choice(["increasing", "distinct", "none"]),
              default="increasing",
              help="finite surrogate applied to each extension tail")
def indices_witness(alpha, tree_path, witness_path, bound, pred):
    """Verify a witness family against a target tree."""
    bt = BlockTree.from_json_file(tree_path)
    with open(witness_path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not all(
        isinstance(v, list) and all(isinstance(x, int) for x in v) for v in raw.values()
    ):
        raise TreeError("a witness file is a JSON object mapping sets to integer arrays")
    witness = {parse_finset(k): tuple(v) for k, v in raw.items()}
    preds = {
        "increasing": lambda tail: all(a[0] < b[0] for a, b in zip(tail, tail[1:])),
        "distinct": lambda tail: len(set(tail)) == len(tail),
        "none": lambda tail: True,
    }
    ok, violation = prop43_verify(parse_ordinal(alpha), witness, bt, preds[pred], bound)
    if ok:
        click.echo("verified")
    else:
        click.echo("violation: %s" % (violation,))
        sys.exit(EXIT_CHECK_FAILED)


# -- suite command ----------------------------------------------------------

@main.command("check")
@click.option("--suite", "suite_name", required=True,
              type=click.Choice(sorted(SUITES) + ["all"]))
@click.option("--seed", type=int, default=0)
@click.option("--json", "json_path", default=None, type=click.Path(),
              help="also write the JSON summary to this file")
def check_cmd(suite_name, seed, json_path):
    """Run a property-check suite; exit 0 iff every check passes."""
    report = run_suite(suite_name, seed=seed)
    for c in sorted(report.checks, key=lambda c: c.id):
        line = "%s %s: %s" % ("pass" if c.ok else "FAIL", c.id, c.claim)
        if c.witness:
            line += " [%s]" % c.witness
        click.echo(line)
    summary = report.to_json()
    click.echo(json.dumps(summary))
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2)
    if not report.ok:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
