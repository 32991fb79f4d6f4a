"""Exact Tsirelson-type norms with partition certificates.

The norm ||.||_(F,c) is the least norm on finitely supported vectors with

    ||x|| = ||x||_inf  v  c * sup { sum ||A_i x|| : (A_i) F-admissible }.

Two independent evaluation routes are provided: a dynamic program over
interval decompositions (`norm`) and a fixed-point search over all
admissible successive-subset decompositions (`norm_exhaustive`).  A third
route via norming functionals lives in `functionals`.
"""

from __future__ import annotations

from fractions import Fraction

from . import SchreierError
from .families import is_admissible
from .vectors import SparseVec

SUPPORT_CAP = 64  # largest support `norm` takes
SIGN_CAP = 12  # largest support whose 2^n sign flips `check_unconditional` tries


class NormError(SchreierError, ValueError):
    pass


class CertificateError(NormError):
    pass


class NormParams:
    """The norm's family F and constant 0 < c < 1; immutable, equal by value.

    A plain class rather than a frozen dataclass: `dataclasses` imports
    `inspect`, which would add its import time to every CLI call.
    """

    __slots__ = ("family", "c")

    def __init__(self, family, c):
        c = Fraction(c)
        if not (0 < c < 1):
            raise NormError("parameter c must satisfy 0 < c < 1, got %s" % c)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("NormParams is immutable")

    def __delattr__(self, name):
        raise AttributeError("NormParams is immutable")

    def __eq__(self, other):
        if type(other) is not NormParams:
            return NotImplemented
        return (self.family, self.c) == (other.family, other.c)

    def __hash__(self):
        return hash((self.family, self.c))

    def __repr__(self):
        return "NormParams(family=%r, c=%r)" % (self.family, self.c)

    def key(self):
        return (self.family.descriptor(), str(self.c))


class Leaf:
    """Certificate leaf: a single coordinate, valued |x_i|."""

    __slots__ = ("index", "value")

    def __init__(self, index, value):
        self.index = index
        self.value = Fraction(value)

    def to_json(self):
        return {"leaf": self.index, "value": str(self.value)}


class Node:
    """Certificate node: an admissible successive list of index blocks."""

    __slots__ = ("blocks", "children", "value")

    def __init__(self, blocks, children, value):
        self.blocks = tuple(tuple(b) for b in blocks)
        self.children = tuple(children)
        self.value = Fraction(value)

    def to_json(self):
        return {
            "blocks": [list(b) for b in self.blocks],
            "children": [ch.to_json() for ch in self.children],
            "value": str(self.value),
        }


def cert_from_json(data):
    if "leaf" in data:
        return Leaf(data["leaf"], Fraction(data["value"]))
    children = [cert_from_json(ch) for ch in data["children"]]
    return Node([tuple(b) for b in data["blocks"]], children, Fraction(data["value"]))


def norm(params, x):
    """Exact norm of x with a witnessing partition certificate.

    Dynamic program over interval decompositions: a split is determined by
    its set of minima M in the family; each block extends to the interval
    reaching the next minimum (enlarging blocks never lowers the sum, by
    projection contraction), and coordinates before the first minimum are
    dropped.

    Chains of minima are not enumerated but merged.  For each start `lo`
    (right to left) a chain whose first minimum is `lo` is summarised, at
    the position of its last minimum, by the family's residual state after
    its minima: chains with equal states have the same completions, so only
    the best sum of their closed blocks is kept, with a back-pointer.  While
    `hi` sweeps upward, the value of the interval [lo, hi) is the best of
    its sup norm, the interval [lo + 1, hi) (a later first minimum) and
    c * (sum + value of [p, hi)) over the chains of two or more minima,
    their last at p; then the chains are extended by a minimum at `hi`.
    Certificates are rebuilt from the back-pointers of the intervals the
    root decomposition reaches.
    """
    if not x:
        return (Fraction(0), Node([], [], 0))
    supp = x.support
    if len(supp) > SUPPORT_CAP:
        raise NormError("support size %d exceeds cap %d" % (len(supp), SUPPORT_CAP))
    fam = params.family
    c = params.c
    size = len(supp)
    mags = [abs(v) for _, v in x.entries]
    start = fam.initial_state()
    # val[lo][hi]: norm of x on supp[lo:hi].  back[lo][hi]: a leaf position,
    # None for "as [lo + 1, hi)", or the linked minima (p, (p', ...)).
    val = [[None] * (size + 1) for _ in range(size)]
    back = [[None] * (size + 1) for _ in range(size)]
    for lo in range(size - 1, -1, -1):
        first = fam.step(start, supp[lo])
        # chains[p]: {state: (sum of closed blocks, linked minima)}
        chains = {lo: {first: (Fraction(0), (lo, None))}} if first is not None else {}
        best = {}  # p > lo: of the chains ending at p (two or more minima), the best
        top = lo
        for hi in range(lo + 1, size + 1):
            if mags[hi - 1] > mags[top]:
                top = hi - 1
            value, how = mags[top], top
            if hi - lo > 1 and val[lo + 1][hi] > value:
                value, how = val[lo + 1][hi], None
            for p, (total, links) in best.items():
                total = c * (total + val[p][hi])
                if total > value:
                    value, how = total, links
            val[lo][hi] = value
            back[lo][hi] = how
            if hi == size:
                break
            grown = {}
            for p, table in chains.items():
                closed = val[p][hi]
                for state, (total, links) in table.items():
                    after = fam.step(state, supp[hi])
                    if after is None:
                        continue
                    total += closed
                    kept = grown.get(after)
                    if kept is None or total > kept[0]:
                        grown[after] = (total, (hi, links))
            if grown:
                chains[hi] = grown
                best[hi] = max(grown.values(), key=lambda entry: entry[0])

    def certificate(lo, hi):
        while back[lo][hi] is None:
            lo += 1
        how = back[lo][hi]
        if isinstance(how, int):
            return Leaf(supp[how], mags[how])
        cuts = [hi]
        while how is not None:
            cuts.append(how[0])
            how = how[1]
        cuts.reverse()
        spans = list(zip(cuts, cuts[1:]))
        return Node([supp[a:b] for a, b in spans], [certificate(a, b) for a, b in spans],
                    val[lo][hi])

    return (val[0][size], certificate(0, size))


def verify_certificate(params, x, cert):
    """Recompute a certificate bottom-up and check admissibility at each node.

    Returns the certified value, a lower bound for the norm; raises
    CertificateError at the first invalid node.  The zero vector is
    certified by the empty decomposition, valued 0.
    """
    coeff = dict(x.entries)
    c = params.c
    if not coeff:
        if not isinstance(cert, Node) or cert.blocks or cert.children or cert.value:
            raise CertificateError("the zero vector takes the empty certificate")
        return cert.value

    def check(node, allowed):
        if isinstance(node, Leaf):
            if node.index not in coeff:
                raise CertificateError("leaf index %d outside support" % node.index)
            if allowed is not None and node.index not in allowed:
                raise CertificateError("leaf index %d escapes its block" % node.index)
            if node.value != abs(coeff[node.index]):
                raise CertificateError("leaf value mismatch at index %d" % node.index)
            return node.value
        if not isinstance(node, Node):
            raise CertificateError("unknown certificate node %r" % (node,))
        if not node.blocks or any(not b for b in node.blocks):
            raise CertificateError("empty block in certificate node")
        if len(node.blocks) != len(node.children):
            raise CertificateError("block/child count mismatch")
        if not is_admissible(params.family, node.blocks):
            raise CertificateError("inadmissible blocks %r" % (node.blocks,))
        for b in node.blocks:
            if allowed is not None and not set(b) <= allowed:
                raise CertificateError("block %r escapes its parent" % (b,))
        total = sum(
            (check(ch, set(b)) for b, ch in zip(node.blocks, node.children)), Fraction(0)
        )
        if node.value != c * total:
            raise CertificateError("node value mismatch: %s != %s" % (node.value, c * total))
        return node.value

    return check(cert, None)


def norm_exhaustive(params, x):
    """Fixed point over all admissible successive-subset decompositions.

    Independent oracle for `norm`: blocks are arbitrary successive subsets of
    the support (found by assigning each coordinate to a block or skipping
    it), not just intervals.  One-block decompositions never beat the
    running best (c||x|B|| <= c||x|| < ||x||), and with two or more blocks
    every block has strictly smaller support, so the recursion is
    well-founded without a depth bound.
    """
    if not x:
        return Fraction(0)
    fam = params.family
    c = params.c
    memo = {}

    def value(vec):
        key = vec.entries
        if key in memo:
            return memo[key]
        best = vec.sup_norm()
        supp = vec.support
        if len(supp) > 1:

            def assign(pos, mins, open_block, done_blocks):
                nonlocal best
                if pos == len(supp):
                    blocks = done_blocks + ([open_block] if open_block else [])
                    if len(blocks) >= 2:
                        total = sum(
                            (value(vec.restrict(b)) for b in blocks), Fraction(0)
                        )
                        if c * total > best:
                            best = c * total
                    return
                p = supp[pos]
                # skip this coordinate
                assign(pos + 1, mins, open_block, done_blocks)
                # extend the open block
                if open_block:
                    assign(pos + 1, mins, open_block + [p], done_blocks)
                # open a new block with minimum p
                if fam.contains(tuple(mins) + (p,)):
                    assign(
                        pos + 1,
                        mins + [p],
                        [p],
                        done_blocks + ([open_block] if open_block else []),
                    )

            assign(0, [], None, [])
        memo[key] = best
        return best

    return value(x)


def norm_value(params, x, cache_dir=None):
    """Norm value with optional persistent caching.

    The cache directory comes from `cache_dir` or the SCHREIER_CACHE_DIR
    environment variable; without either this is just `norm(...)[0]`.  The
    directory holds one JSON file per record (see `cache`).  A cached value
    is served only if its stored certificate verifies to it; otherwise the
    norm is recomputed and its record replaced.  A certificate proves a
    lower bound, so a record whose certificate is valid but not optimal is
    still served.
    """
    from . import cache
    from .vectors import format_vec

    path = cache.cache_path(cache_dir)
    if path is None:  # no cache, so no key to build
        return norm(params, x)[0]
    family_key, c_key = params.key()
    vec_key = format_vec(x)
    hit = cache.lookup(path, family_key, c_key, vec_key)
    if hit is not None:
        try:
            value = Fraction(hit[0])
            if verify_certificate(params, x, cert_from_json(hit[1])) == value:
                return value
        except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError):
            pass  # an unreadable record or certificate is a miss too
    value, cert = norm(params, x)
    cache.store(path, family_key, c_key, vec_key, str(value), cert.to_json())
    return value


def check_unconditional(params, x, evaluate=None):
    """Exact norm invariance under every sign flip of the coefficients."""
    if len(x) > SIGN_CAP:
        raise NormError("sign exhaustion capped at support size %d" % SIGN_CAP)
    evaluate = evaluate or (lambda v: norm(params, v)[0])
    supp = x.support
    base = evaluate(x)
    for mask in range(2 ** len(supp)):
        signs = {supp[k]: (-1 if (mask >> k) & 1 else 1) for k in range(len(supp))}
        if evaluate(x.flip(signs)) != base:
            return False
    return True


def check_right_dominant(params, x, spread_map, evaluate=None):
    """Exact check that spreading indices rightward does not lower the norm."""
    supp = x.support
    for i in supp:
        if spread_map[i] < i:
            raise NormError("spread map must satisfy m(i) >= i")
    mapped = [spread_map[i] for i in supp]
    if any(a >= b for a, b in zip(mapped, mapped[1:])):
        raise NormError("spread map must be strictly increasing on the support")
    evaluate = evaluate or (lambda v: norm(params, v)[0])
    return evaluate(x) <= evaluate(x.map_indices(spread_map))


def _supports(last, size, first=1):
    """The `size`-subsets of [first..last] as sorted tuples, in the order of
    `itertools.combinations`, made one at a time: the range is never listed,
    so `last` may be far larger than memory."""
    if size == 0:
        yield ()
        return
    for i in range(first, last - size + 2):
        for rest in _supports(last, size - 1, i + 1):
            yield (i,) + rest


def domination_search(params_u, params_v, bound, budget=2000):
    """Certified lower bound for the least C with ||x||_U <= C ||x||_V.

    Exhausts sparse sign/coefficient patterns on supports of at most five
    indices within the budget (coefficients drawn from a generator seeded
    with 0), then refines the best witness coordinatewise.  The witness
    attains the reported ratio exactly.
    """
    import random

    if bound < 1 or budget < 1:
        raise NormError("domination search needs bound >= 1 and budget >= 1")
    rng = random.Random(0)
    coeff_pool = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3)]
    best_ratio = None
    best_witness = None
    evals = 0

    def consider(vec):
        nonlocal best_ratio, best_witness, evals
        if not vec or evals >= budget:
            return
        evals += 1
        ratio = norm(params_u, vec)[0] / norm(params_v, vec)[0]
        if best_ratio is None or ratio > best_ratio:
            best_ratio = ratio
            best_witness = vec

    # each support visited costs an evaluation, so none passes [1..budget]
    last = min(bound, budget)
    for size in range(1, min(5, bound) + 1):
        for supp in _supports(last, size):
            if evals >= budget:
                break
            consider(SparseVec([(i, Fraction(1)) for i in supp]))
            for _ in range(2):
                coeffs = [rng.choice(coeff_pool) * rng.choice((1, -1)) for _ in supp]
                consider(SparseVec(list(zip(supp, coeffs))))

    # local refinement of the best witness
    improved = True
    while improved and evals < budget:
        improved = False
        for i in best_witness.support:
            for step in (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)):
                cand = best_witness.add(SparseVec([(i, step)]))
                if not cand or evals >= budget:
                    continue
                prev = best_ratio
                consider(cand)
                if best_ratio > prev:
                    improved = True
    return (best_ratio, best_witness)
