"""Finite-scale norm estimates: l1 lower bounds and norm-equivalence samples."""

from fractions import Fraction
from math import log2

from . import SchreierError, ordinals
from .families import Schreier, format_finset
from .norms import NormParams, norm
from .vectors import SparseVec


class EstimateError(SchreierError, ValueError):
    pass


def schreier_product_family(alpha, n):
    """The family S_(alpha*n), with alpha*n computed in ordinal arithmetic."""
    return Schreier(ordinals.mul(alpha, ordinals.from_int(n)))


def check_l1_lower(alpha, n, f_set, coeffs):
    """Exact check of the l1 lower estimate on a member of S_(alpha*n):

        || sum_{i in F} a_i e_i ||_(T_alpha)  >=  2^-n * sum |a_i| .
    """
    f_set = tuple(f_set)
    if len(coeffs) != len(f_set):
        raise EstimateError("need one coefficient per element of F")
    fam = schreier_product_family(alpha, n)
    if not fam.contains(f_set):
        raise EstimateError("F = %s is not a member of S_(alpha*n)" % format_finset(f_set))
    vec = SparseVec([(i, Fraction(a)) for i, a in zip(f_set, coeffs)])
    if not vec:
        return True
    params = NormParams(Schreier(alpha), Fraction(1, 2))
    value, _ = norm(params, vec)
    return value >= Fraction(1, 2**n) * vec.l1_norm()


def rational_root_half(n):
    """A rational approximation of 2^(-1/n), within 10^-9.

    The approximation is stored and used exactly; no floating point enters
    any norm computation.  The bisection tests mid^n < 1/2 as
    n log2(mid) + 1 < 0 in floats, off by less than (n + 1) 2^-50; only a
    float within (n + 1) 2^-40 of 0 takes the exact power: every step is exact.
    """
    if n < 1:
        raise EstimateError("n must be >= 1")
    if n == 1:
        return Fraction(1, 2)
    # bisection on c^n = 1/2 over rationals, well inside the tolerance
    lo, hi = Fraction(1, 2), Fraction(1)
    target = Fraction(1, 2)
    margin = (n + 1) * 2.0 ** -40
    while hi - lo > Fraction(1, 8 * 10**9):
        mid = (lo + hi) / 2
        sign = n * log2(mid) + 1
        if sign < -margin or (sign <= margin and mid**n < target):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def random_vector(rng, bound=10, max_size=None, dense_bias=False):
    """A random vector with support in [1..bound] and small rational entries."""
    if bound < 1:
        raise EstimateError("a random vector needs bound >= 1")
    sizes = [1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 7]
    if dense_bias:
        sizes += [8, 9, 10]
    size = rng.choice([s for s in sizes if s <= (max_size or bound)])
    supp = sorted(rng.sample(range(1, bound + 1), size))
    entries = []
    for i in supp:
        num = rng.choice([-3, -2, -1, 1, 1, 2, 2, 3, 4])
        den = rng.choice([1, 1, 1, 2, 3])
        entries.append((i, Fraction(num, den)))
    return SparseVec(entries)


def equivalence_sample(alpha, n, bound, samples):
    """Exact ratio report comparing T_(alpha*n) with T_(alpha, 2^(-1/n)).

    `samples` is a sequence of vectors with support inside [1..bound]; the
    zero vectors are skipped.  Returns a dict: the constant `c`, the number
    of `samples` compared, `max_ratio_up`, the largest ratio
    ||x||_(alpha*n) / ||x||_(alpha,c), at the first sample `witness_up`
    that attains it, `max_ratio_down` and `witness_down` likewise for the
    reciprocal ratio, and the `ratios` in sample order.
    """
    if bound < 1:
        raise EstimateError("bound must be >= 1")
    c = rational_root_half(n)
    params_prod = NormParams(schreier_product_family(alpha, n), Fraction(1, 2))
    params_c = NormParams(Schreier(alpha), c)
    pairs = []
    for x in samples:
        if not x:
            continue
        if x.support[-1] > bound:
            raise EstimateError("sample support exceeds bound %d" % bound)
        pairs.append((norm(params_prod, x)[0] / norm(params_c, x)[0], x))
    if not pairs:
        raise EstimateError("no nonzero sample to compare")
    up, witness_up = max(pairs, key=lambda pair: pair[0])
    down, witness_down = min(pairs, key=lambda pair: pair[0])
    return {"c": c, "samples": len(pairs), "max_ratio_up": up, "witness_up": witness_up,
            "max_ratio_down": 1 / down, "witness_down": witness_down,
            "ratios": [ratio for ratio, _ in pairs]}
