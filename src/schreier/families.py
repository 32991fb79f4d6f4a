"""Compact hereditary families of finite subsets of N.

Fine Schreier families F_alpha are defined by the transfinite recursion

    F_0        = { {} }
    F_(a+1)    = { {n} u A : n < A, A in F_a }  u  { {} }
    F_lambda   = { A : exists n <= min A with A in F_(lambda[n]) }  u  { {} }

with lambda[n] the canonical fundamental sequences from `ordinals`.
Schreier families are S_alpha = F_(w^alpha); S_1 is the classical family
{ A : |A| <= min A }.

Finite sets are plain tuples of strictly increasing positive integers.
Family handles are immutable and answer membership queries.  Membership in
F_alpha reads the set one element at a time; below w^w the state is one
ordinal, and only limits from w^w on search their fundamental sequences.
Handles expose that reading as a residual state (`initial_state`, `step`),
which the norm DP uses to merge prefixes with the same completions.
"""

from __future__ import annotations

import functools
import itertools
import json

from . import SchreierError, ordinals
from .ordinals import Ordinal, ZERO, omega_pow


# How far past the bound `check_structure` follows a member's greedy chain
# (always appending max + 1) before it reports an infinite chain.
DEFAULT_HORIZON = 64
EXPLICIT_CAP = 1 << 16  # most members an explicit family's downward closure may hold
FS_CACHE_CAP = 1 << 16  # most entries `_fs_cache` holds; the oldest half goes at the cap


class FamilyError(SchreierError, ValueError):
    pass


class BudgetExceeded(SchreierError, RuntimeError):
    """A finite enumeration or iteration ran past its configured budget."""

    exit_code = 3


# -- finite sets ------------------------------------------------------------

def finset(elements):
    """Validate and canonicalize a finite set of positive integers."""
    elems = tuple(elements)
    for x in elems:
        if not isinstance(x, int) or x < 1:
            raise FamilyError("set elements must be positive integers: %r" % (x,))
    for a, b in zip(elems, elems[1:]):
        if a >= b:
            raise FamilyError("set elements must be strictly increasing: %r" % (elems,))
    return elems


def parse_finset(text):
    """Parse the `2,5,9` text form; `-` denotes the empty set."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        return finset(int(part) for part in text.split(","))
    except ValueError as exc:
        raise FamilyError("bad set %r: %s" % (text, exc))


def format_finset(a):
    return ",".join(str(x) for x in a) if a else "-"


def is_spread(a, b):
    """True iff b is a spread of a: same size, pointwise a_i <= b_i."""
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def is_successive(blocks):
    """True iff max(A_i) < min(A_(i+1)) along the sequence."""
    return all(x[-1] < y[0] for x, y in zip(blocks, blocks[1:]))


# -- fine Schreier membership ----------------------------------------------

# Every F_beta is hereditary, so F_beta is contained in F_(beta+1): drop the
# minimum of a member.  At a limit g, F_(g[1]) lies in F_g, as every nonempty
# set has minimum >= 1.  So F_beta lies in F_gamma whenever gamma reaches
# beta by [1]-steps and predecessors.  Without absorption (beta's last
# exponent is >= e), (beta + w^e)[1] = beta + w^e' with e' = e - 1 or e[1],
# so beta + w^e reaches beta (induction on e).  For a limit lam = h + w^g,
# lam[m+1] = lam[m] + w^(g-1) if g is a successor; if g is a limit, lam[m+1]
# and lam[m] are h + w^(g[m+1]) and h + w^(g[m]), and a step on the exponent
# is a [1]-step on h + w^exponent, so lam[m+1] reaches lam[m] by induction on
# g.  Hence F_(lam[m]) lies in F_(lam[m+1]) for every limit, and a set with
# minimum n lies in F_lam iff it lies in F_(lam[n]).  Reading n therefore
# descends through lam[n] while the ordinal is a limit, then steps to the
# predecessor: the rest of the set must lie in F of that single ordinal.
# `fs_member` and `FineSchreier.step` still search the fundamental sequences
# of limits from w^w on (see `_below_omega_omega`); the one-ordinal reading
# would be exact there too.

def _below_omega_omega(alpha):
    """True iff alpha < w^w, where a fine state is one ordinal."""
    return alpha.is_zero or alpha.terms[0][0].is_finite


@functools.lru_cache(maxsize=1 << 14)
def _fine_step(beta, n):
    """The ordinal gamma with {n} u B in F_beta iff B in F_gamma, for every
    B above n; None if no such B exists.  beta is below w^w or a successor."""
    while beta.is_limit:
        beta = ordinals.fundamental_seq(beta, n)
    if beta.is_zero:
        return None
    return ordinals.classify(beta)[1]


# Memo of the search at limits lam >= w^w, keyed by (lam, rest of the set).
# When an insertion would pass FS_CACHE_CAP, the older half of the entries,
# in insertion order, is dropped: the newer half is the search's working set.
_fs_cache = {}


def fs_member(alpha, a):
    """Membership of the finite set `a` in the fine Schreier family F_alpha.

    Reads `a` one element at a time through `_fine_step`.  Only at a limit
    lam >= w^w does it try every lam[m] with m <= min of the rest.
    """
    a = tuple(a)
    for i, n in enumerate(a):
        if alpha.is_limit and not _below_omega_omega(alpha):
            key = (alpha, a[i:])
            if key not in _fs_cache:
                found = any(fs_member(ordinals.fundamental_seq(alpha, m), a[i:])
                            for m in range(1, n + 1))
                if len(_fs_cache) >= FS_CACHE_CAP:
                    for old in list(itertools.islice(_fs_cache, (len(_fs_cache) + 1) // 2)):
                        del _fs_cache[old]
                _fs_cache[key] = found
            return _fs_cache[key]
        alpha = _fine_step(alpha, n)
        if alpha is None:
            return False
    return True


def schreier_member(alpha, a):
    """Membership in S_alpha = F_(w^alpha); alpha must be nonzero."""
    if alpha.is_zero:
        raise FamilyError("Schreier families are indexed by nonzero ordinals")
    return fs_member(omega_pow(alpha), a)


# -- family handles ---------------------------------------------------------

class FamilyHandle:
    """A symbolic compact hereditary family, queryable for membership."""

    spreading = False
    # When set, membership of a u {n} is the same for every n >= max(a) + gap
    # (max of the empty set being 0), so the single probe a u {max(a) + gap}
    # decides whether a has infinitely many one-point extensions.
    right_stable_gap = None

    def __contains__(self, a):
        return self.contains(tuple(a))

    def contains(self, a):
        raise NotImplementedError

    def initial_state(self):
        """Residual state of the empty prefix; see `step`."""
        return ()

    def step(self, state, n):
        """The state after reading n, or None when the prefix read so far
        plus n is not a member.  n must exceed every element read so far.

        Prefixes with equal states have the same completions in the family.
        The default state is the prefix itself.
        """
        prefix = state + (n,)
        return prefix if self.contains(prefix) else None

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return "<family %s>" % self.descriptor()

    def __eq__(self, other):
        return isinstance(other, FamilyHandle) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())


class FineSchreier(FamilyHandle):
    spreading = True
    # a u {n} with n > max(a) is a member iff the state after a is nonzero:
    # reading n descends through limits lam[n] >= n >= 1 (see `_fine_step`).
    right_stable_gap = 1

    def __init__(self, alpha):
        if not isinstance(alpha, Ordinal):
            raise FamilyError("index must be an Ordinal")
        self.alpha = alpha
        # Below w^w the residual state is one ordinal (see `_fine_step`);
        # from w^w on the prefix state stays.
        self._ordinal_states = _below_omega_omega(alpha)

    def contains(self, a):
        return fs_member(self.alpha, a)

    def initial_state(self):
        return self.alpha if self._ordinal_states else ()

    def step(self, state, n):
        if self._ordinal_states:
            return _fine_step(state, n)
        return super().step(state, n)

    def descriptor(self):
        return "fine:%s" % self.alpha

    # S_alpha is F_(w^alpha): fine families are the same family exactly
    # when their indices agree, whatever their descriptors
    def __eq__(self, other):
        return isinstance(other, FineSchreier) and self.alpha == other.alpha

    def __hash__(self):
        return hash(self.alpha)


class Schreier(FineSchreier):
    def __init__(self, alpha):
        if alpha.is_zero:
            raise FamilyError("Schreier families are indexed by nonzero ordinals")
        super().__init__(omega_pow(alpha))
        self.schreier_index = alpha

    def descriptor(self):
        return "schreier:%s" % self.schreier_index


class Explicit(FamilyHandle):
    """A finite family stored fully materialized and downward closed, with
    at most EXPLICIT_CAP members, and named by its maximal members."""

    def __init__(self, members):
        closed = {(): False}  # member -> is it a proper subset of a row?
        for m in members:
            m = finset(m)
            if 1 << len(m) > EXPLICIT_CAP:
                raise FamilyError("a row of %d elements has 2^%d subsets, past the cap of %d "
                                  "members" % (len(m), len(m), EXPLICIT_CAP))
            for r in range(len(m)):
                closed.update(dict.fromkeys(itertools.combinations(m, r), True))
            closed.setdefault(m, False)
            if len(closed) > EXPLICIT_CAP:
                raise FamilyError("the downward closure passes the cap of %d members"
                                  % EXPLICIT_CAP)
        self.members = frozenset(closed)
        # a row is maximal iff no one-point extension of it lies in the
        # closure, that is iff it is a proper subset of no row
        self.maximal = frozenset(m for m, proper in closed.items() if not proper)

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, list) or not all(
            isinstance(row, list) and all(isinstance(x, int) for x in row) for row in data
        ):
            raise FamilyError("explicit family file must be a JSON array of integer arrays")
        return cls(tuple(sorted(set(row))) for row in data)

    def contains(self, a):
        return a in self.members

    def descriptor(self):
        return "explicit:%s" % ";".join(format_finset(m) for m in sorted(self.maximal))


class Residual(FamilyHandle):
    """{ B : prefix < B and prefix u B in base }."""

    def __init__(self, base, prefix):
        prefix = finset(prefix)
        if not base.contains(prefix):
            raise FamilyError("residual prefix %s is not a member" % format_finset(prefix))
        self.base = base
        self.prefix = prefix
        if not prefix:  # a nonempty prefix puts members above it: neither holds
            self.spreading, self.right_stable_gap = base.spreading, base.right_stable_gap

    def contains(self, a):
        if not a:
            return True
        if self.prefix and a[0] <= self.prefix[-1]:
            return False
        return self.base.contains(self.prefix + a)

    def descriptor(self):
        return "residual(%s;%s)" % (self.base.descriptor(), format_finset(self.prefix))


class Oracle(FamilyHandle):
    """A family given by an arbitrary membership predicate.

    Used internally (e.g. for min-set families of block trees); the caller
    vouches for heredity and, when given, the right-stable gap.
    """

    def __init__(self, predicate, name, right_stable_gap=None):
        self.predicate = predicate
        self.name = name
        self.right_stable_gap = right_stable_gap
        self._cache = {}

    def contains(self, a):
        try:
            return self._cache[a]
        except KeyError:
            result = self._cache[a] = self.predicate(a)
            return result

    def descriptor(self):
        return "oracle:%s" % self.name


# -- Cantor-Bendixson derivatives -------------------------------------------

# The derivative D(F) of a hereditary family keeps the members with
# infinitely many one-point extensions.  If F is right-stable with gap g, a
# is one iff a u {max(a) + g} lies in F (heredity then puts a in F), and
# D(F) is given gap g + 1.  So D^j(F) answers a by one query to F: is
# a u {x_1 < ... < x_j} a member, with x_0 = max(a) and
# x_i = x_(i-1) + g + (j - i)?
#
# For F_alpha (gap 1) these gaps are exact.  Write st(A) for the state after
# reading A (see `_fine_step`; none if A is not a member).  Reading n > max(A)
# from st(A) = beta descends through limits to a successor and takes its
# predecessor, so st(A u {n}) < beta.  If beta >= j + 1 and n >= j + 1, then
# st(A u {n}) >= j: the successor reached is beta itself or lam[n] >= n for
# some limit lam.  Hence A lies in D^j(F_alpha) iff st(A) >= j, by induction
# on j: A has infinitely many extensions with a state >= j iff
# st(A) >= j + 1.  The same two facts give, for every n >= max(A) + j + 1,
# A u {n} in D^j(F_alpha) iff st(A) >= j + 1: D^j(F_alpha) has gap j + 1.
# A min-set family of a block tree answers alike every chain whose steps
# are all at least its gap (see `trees.min_set`), so larger gaps are sound
# there too.

class Derived(FamilyHandle):
    """Cantor-Bendixson derivative: members with infinitely many one-point
    extensions in the base family.

    A derivative of a derivative is kept as the j-th derivative of the first
    base, so `contains` asks that base one question, the chained probe
    above, and no stack of levels is ever walked.  For spreading families
    the derivative holds exactly the non-maximal members.
    """

    def __init__(self, base):
        if base.right_stable_gap is None:
            raise FamilyError(
                "CB derivative requires a spreading (or right-stable) family"
            )
        self.spreading = base.spreading
        self.right_stable_gap = base.right_stable_gap + 1
        if isinstance(base, Derived):
            self.base, self.depth = base.base, base.depth + 1
        else:
            self.base, self.depth = base, 1

    def contains(self, a):
        chain = list(a)
        x = a[-1] if a else 0
        for i in reversed(range(self.depth)):  # D^i has gap base gap + i
            x += self.base.right_stable_gap + i
            chain.append(x)
        return self.base.contains(tuple(chain))

    def descriptor(self):
        return "cbderiv(" * self.depth + self.base.descriptor() + ")" * self.depth


# -- operations -------------------------------------------------------------

def is_maximal(fam, a):
    """True iff `a` is a member with no proper superset in the family.

    Maximality is judged inside N (not within any enumeration bound); for a
    spreading family the single probe a u {max(a) + gap} decides it.
    """
    a = tuple(a)
    if not fam.contains(a):
        raise FamilyError("%s is not a member of %s" % (format_finset(a), fam.descriptor()))
    if isinstance(fam, Explicit):
        return a in fam.maximal
    if not fam.spreading:
        raise FamilyError("maximality probe requires a spreading family")
    return not fam.contains(a + ((a[-1] if a else 0) + fam.right_stable_gap,))


def enumerate_family(fam, bound, maximal_only=False, budget=1_000_000):
    """All members (or all maximal members) within [1..bound], in lex order.

    Walks the member trie depth-first through the residual states; heredity
    makes pruning at non-members complete.  With a right-stable gap g,
    prefix u {n} has the same membership for every n >= max(prefix) + g, so
    the scan of n stops at the first refused n past that point.  The budget
    counts visited members.
    """
    if bound < 1:
        raise FamilyError("bound must be >= 1")
    if budget < 0:
        raise FamilyError("budget must be >= 0, got %d" % budget)
    gap = fam.right_stable_gap

    def children(prefix, state):
        top = prefix[-1] if prefix else 0
        for n in range(top + 1, bound + 1):
            after = fam.step(state, n)
            if after is not None:
                yield prefix + (n,), after
            elif gap is not None and n >= top + gap:
                return

    out = []
    # one iterator of children per level, so long members need no recursion
    stack = [iter([((), fam.initial_state())] if fam.contains(()) else [])]
    while stack:
        prefix, state = next(stack[-1], (None, None))
        if prefix is None:
            stack.pop()
            continue
        budget -= 1
        if budget < 0:
            raise BudgetExceeded("enumeration budget exhausted at bound %d" % bound)
        if not maximal_only or is_maximal(fam, prefix):
            out.append(prefix)
        stack.append(children(prefix, state))
    return out


def is_admissible(fam, blocks):
    """True iff blocks are successive and their minima form a member."""
    blocks = [tuple(b) for b in blocks]
    if not blocks or any(not b for b in blocks):
        raise FamilyError("admissibility requires a non-empty list of non-empty sets")
    if not is_successive(blocks):
        return False
    return fam.contains(tuple(b[0] for b in blocks))


def residual(fam, prefix):
    """The family {B : prefix < B, prefix u B in fam}."""
    return Residual(fam, prefix)


def check_structure(fam, bound, budget=2_000_000):
    """Verify hereditary/spreading/no-chain structure of the members within
    [1..bound] that `enumerate_family` lists under `budget`.

    Heredity: every member minus one element is a member; by induction this
    reaches every subset.  Spreading: raising one element by 1, where the set
    stays increasing and within the bound, gives a member; raising the last
    element, then the one before it, and so on, reaches every such spread.

    The chain check is the finite shadow of compactness: no member may extend
    greedily (always appending max+1) past the horizon while staying inside
    the family.
    """
    members = set(enumerate_family(fam, bound, budget=budget))
    hereditary = all(m[:i] + m[i + 1:] in members for m in members for i in range(len(m)))
    spreading_ok = all(m[:i] + (x + 1,) + m[i + 1:] in members
                       for m in members for i, x in enumerate(m)
                       if x + 1 < (m[i + 1] if i + 1 < len(m) else bound + 1))
    no_chain = True
    horizon = bound + DEFAULT_HORIZON
    for m in members:
        chain = m
        while fam.contains(chain + ((chain[-1] + 1) if chain else 1,)):
            chain = chain + ((chain[-1] + 1) if chain else 1,)
            if chain[-1] > horizon:
                no_chain = False
                break
        if not no_chain:
            break
    return {"hereditary": hereditary, "spreading": spreading_ok, "compact_no_chain": no_chain}


def cb_derivative(fam):
    """The Cantor-Bendixson derivative of a right-stable hereditary family.

    The j-th iterated derivative answers a set by one query to the first
    base, a set j elements longer (see `Derived`).
    """
    return Derived(fam)


def cb_index_finite(fam, budget=32):
    """Least k with the k-th iterated derivative empty.

    Returns (index, exact).  When the index is not reached within the budget
    the result is (budget, False), reporting index >= budget.  Level k asks
    the base one question, a set of k elements, so F_k costs k + 2 base
    queries, and on a family of infinite index the time grows as budget^2
    (S_1 on a shared 2-vCPU machine, Python 3.11: 0.015 s at budget 100,
    2 s at 1,000).
    """
    if budget < 0:
        raise FamilyError("budget must be >= 0, got %d" % budget)
    current = fam
    for k in range(budget):
        if not current.contains(()):
            return (k, True)
        current = cb_derivative(current)
    return (budget, False)
