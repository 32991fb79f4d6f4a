"""Compact hereditary families of finite subsets of N.

Fine Schreier families F_alpha are defined by the transfinite recursion

    F_0        = { {} }
    F_(a+1)    = { {n} u A : n < A, A in F_a }  u  { {} }
    F_lambda   = { A : exists n <= min A with A in F_(lambda[n]) }  u  { {} }

with lambda[n] the canonical fundamental sequences from `ordinals`.
Schreier families are S_alpha = F_(w^alpha); S_1 is the classical family
{ A : |A| <= min A }.

Finite sets are plain tuples of strictly increasing positive integers.
Family handles are immutable, and every handle reads a set one element at
a time through a residual state (`initial_state`, `step`): prefixes with
equal states have the same completions, so the norm DP, pricing and
enumeration merge them.  Membership is the fold of `step` over the set.
Below w^w a fine state is one ordinal; a residual reads its base from the
state after its prefix, a derivative keeps its base's state and probes a
chain from it, and a spreading-closure min-set family (`trees.min_set`)
keeps each generator's greedy match position.  Explicit families and
explicit-closure min-sets are one member trie (`_Trie`), a state its node.
Only oracles and fine families from w^w on keep the prefix as their state
and read a whole chain (`read`) in one membership query.  Enumeration,
maximality and greedy chains read through the states after each prefix
(`states`) and `extensions`, whatever model the handle uses.
"""

import functools
import itertools
from bisect import bisect_right

from . import SchreierError, ordinals, read_json
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


class Budget:
    """A guarded search's limit on units of work, the unit, the stage running
    and the units spent.  A hot loop counts in a local integer and calls
    `spend` only once its units are settled or the limit is passed."""

    def __init__(self, limit, unit, stage):
        if limit < 0:
            raise FamilyError("budget must be >= 0, got %d" % limit)
        self.limit, self.unit, self.stage, self.spent = limit, unit, stage, 0

    def spend(self, units):
        self.spent += units
        if self.spent > self.limit:
            raise BudgetExceeded("%s: budget of %d %s exhausted, %d spent"
                                 % (self.stage, self.limit, self.unit, self.spent))


class BoundedMemo(dict):
    """A memo whose keys weigh at most `cap` together, `weight(key)` each.
    A key that would pass the cap first drops the older half of the entries,
    in insertion order, as often as it takes; one heavier is not kept."""

    def __init__(self, cap, weight):
        super().__init__()
        self.cap, self.weight, self.held = cap, weight, 0

    def keep(self, key, value):
        size = self.weight(key)
        if size > self.cap:
            return
        while self.held + size > self.cap:
            for old in list(itertools.islice(self, (len(self) + 1) // 2)):
                self.held -= self.weight(old)
                del self[old]
        self[key] = value
        self.held += size

    def clear(self):
        super().clear()
        self.held = 0


# -- finite sets ------------------------------------------------------------

def finset(elements):
    """Validate and canonicalize a finite set of positive integers (a bool,
    as JSON `true` loads, is not one)."""
    elems = tuple(elements)
    for x in elems:
        if type(x) is not int or x < 1:
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
# of limits from w^w on (see `_below_omega_omega`), with prefix states as an
# oracle's; the one-ordinal reading would be exact there too.

def _below_omega_omega(alpha):
    """True iff alpha < w^w, where a fine state is one ordinal."""
    return alpha.is_zero or alpha.terms[0][0].is_finite


@functools.lru_cache(maxsize=1 << 14)
def _fine_step(beta, n):
    """The ordinal gamma with {n} u B in F_beta iff B in F_gamma, for every
    B above n; None if no such B exists.  beta is below w^w or a successor.
    One pass over beta's terms (`ordinals.descend`), so a step costs time
    linear in the size of its result."""
    return ordinals.descend(beta, n)


# Memo of the search at limits lam >= w^w, keyed by (lam, rest of the set).
_fs_cache = BoundedMemo(FS_CACHE_CAP, lambda key: 1)


def fs_member(alpha, a):
    """Membership of the finite set `a` in the fine Schreier family F_alpha.

    Reads `a` one element at a time through `_fine_step`.  Only at a limit
    lam >= w^w does it try every lam[m] with m <= min of the rest.
    """
    a = tuple(a)
    for i, n in enumerate(a):
        if alpha.is_limit and not _below_omega_omega(alpha):
            key = (alpha, a[i:])
            found = _fs_cache.get(key)
            if found is None:
                found = any(fs_member(ordinals.fundamental_seq(alpha, m), a[i:])
                            for m in range(1, n + 1))
                _fs_cache.keep(key, found)
            return found
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
    """A symbolic compact hereditary family, queryable for membership.  Each
    handle sets an integer `right_stable_gap` >= 1: membership of a u {n} is
    the same for every n >= max(a) + gap (max of the empty set being 0)."""

    spreading = False
    # The state is the prefix read so far, judged by `contains` (the defaults
    # below).  A handle with states of its own sets this False and defines
    # `initial_state` and `step`; `contains` is then their fold.
    prefix_states = True

    def __contains__(self, a):
        return self.contains(tuple(a))

    def contains(self, a):
        """Membership of `a`: the fold of `step` over its elements (`read`)."""
        state = self.initial_state()
        return state is not None and self.read(state, a) is not None

    def states(self, a):
        """The residual states after each prefix of `a`, the empty prefix
        first; None if `a` is not a member.  A prefix state is the prefix
        itself, so one query answers for every prefix of a member."""
        if self.prefix_states:
            return [a[:i] for i in range(len(a) + 1)] if self.contains(a) else None
        states = [self.initial_state()]
        for n in a:
            states.append(None if states[-1] is None else self.step(states[-1], n))
        return None if states[-1] is None else states

    def initial_state(self):
        """Residual state of the empty prefix, None if the family is empty;
        see `step`."""
        if type(self).contains is FamilyHandle.contains:
            raise NotImplementedError("%s defines neither contains nor initial_state and step"
                                      % type(self).__name__)
        return () if self.contains(()) else None

    def step(self, state, n):
        """The state after reading n, or None when the prefix read so far
        plus n is not a member.  n must exceed every element read so far.

        Prefixes with equal states have the same completions in the family.
        """
        prefix = state + (n,)
        return prefix if self.contains(prefix) else None

    def read(self, state, chain):
        """The state after reading the increasing `chain` from `state`, whose
        prefix it lies above; None if that prefix plus the chain is not a
        member.  A prefix state asks `contains` once for the whole chain;
        other states fold `step`."""
        if self.prefix_states:
            prefix = state + tuple(chain)
            return prefix if self.contains(prefix) else None
        for n in chain:
            state = self.step(state, n)
            if state is None:
                break
        return state

    def extensions(self, prefix, state, bound):
        """(n, state after n) for each n <= bound that extends the member
        `prefix`, read into `state`, in increasing order.  The default scan
        stops at the first refused n >= max(prefix) + gap, past which every
        n answers alike, however far the bound."""
        top = prefix[-1] if prefix else 0
        for n in range(top + 1, bound + 1):
            after = self.step(state, n)
            if after is not None:
                yield n, after
            elif n >= top + self.right_stable_gap:
                return

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
        self.prefix_states = not _below_omega_omega(alpha)

    def contains(self, a):
        return fs_member(self.alpha, a)

    def initial_state(self):
        return () if self.prefix_states else self.alpha

    def step(self, state, n):
        return super().step(state, n) if self.prefix_states else _fine_step(state, n)

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


class _Trie(FamilyHandle):
    """The finite family of the prefix-closed `nodes` as a trie (Fredkin,
    "Trie memory", 1960): a state is a node, a step one table lookup, and a
    node's extensions a bisection of its sorted children.  No member
    reaches the gap, 1 + the largest element of any node."""

    prefix_states = False

    def __init__(self, nodes, name):
        self.name = name
        self._children = {node: [] for node in nodes}
        for node in sorted(self._children)[1:]:  # () sorts first
            self._children[node[:-1]].append(node[-1])
        self.right_stable_gap = 1 + max((m[-1] for m in self._children if m), default=0)

    def initial_state(self):
        return () if () in self._children else None

    def step(self, state, n):
        after = state + (n,)
        return after if after in self._children else None

    def extensions(self, prefix, state, bound):
        # the table lists the extensions, so no n is scanned, however large
        # the members' elements
        table = self._children[state]
        return [(n, state + (n,)) for n in table[:bisect_right(table, bound)]]

    def descriptor(self):
        return self.name


class Explicit(_Trie):
    """A finite family given by rows: the trie of their downward closure,
    with at most EXPLICIT_CAP members, named by its maximal members."""

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
        # a row is maximal iff no one-point extension of it lies in the
        # closure, that is iff it is a proper subset of no row
        self.maximal = frozenset(m for m, proper in closed.items() if not proper)
        super().__init__(closed, "explicit:%s" % ";".join(
            format_finset(m) for m in sorted(self.maximal)))

    @classmethod
    def from_json_file(cls, path):
        data = read_json(path)
        if not isinstance(data, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in data
        ):
            raise FamilyError("explicit family file must be a JSON array of integer arrays")
        return cls(tuple(sorted(set(row))) for row in data)


class Residual(FamilyHandle):
    """{ B : prefix < B and prefix u B in base }, with gap max(prefix) + the
    base's gap, and spreading when the base is (a spread of B stays above
    the prefix).  Its states are the base's, from the state after the
    prefix on."""

    prefix_states = False

    def __init__(self, base, prefix):
        prefix = finset(prefix)
        states = base.states(prefix)
        if states is None:
            raise FamilyError("residual prefix %s is not a member" % format_finset(prefix))
        self.start = states[-1]
        self.base, self.prefix, self.spreading = base, prefix, base.spreading
        self.top = prefix[-1] if prefix else 0
        self.right_stable_gap = self.top + base.right_stable_gap

    def initial_state(self):
        return self.start

    def step(self, state, n):
        return None if n <= self.top else self.base.step(state, n)

    def read(self, state, chain):
        return None if chain and chain[0] <= self.top else self.base.read(state, chain)

    def extensions(self, prefix, state, bound):
        return self.base.extensions(self.prefix + prefix, state, bound)

    def descriptor(self):
        return "residual(%s;%s)" % (self.base.descriptor(), format_finset(self.prefix))


class Oracle(FamilyHandle):
    """A family given by an arbitrary membership predicate, with the prefix
    read so far as its state.

    The caller vouches for heredity and for the right-stable gap, which is
    required.  Each query asks the predicate once; no answer is kept.
    """

    def __init__(self, predicate, name, right_stable_gap):
        self.predicate = predicate
        self.name = name
        self.right_stable_gap = right_stable_gap

    def contains(self, a):
        return self.predicate(a)

    def descriptor(self):
        return "oracle:%s" % self.name


# -- Cantor-Bendixson derivatives -------------------------------------------

# The derivative D(F) of a hereditary family keeps the members with
# infinitely many one-point extensions.  If F has right-stable gap g, a
# is one iff a u {max(a) + g} lies in F (heredity then puts a in F), and
# D(F) is given gap g + 1.  So D^j(F) answers a by one chained probe: is
# a u {x_1 < ... < x_j} a member of F, with x_0 = max(a) and
# x_i = x_(i-1) + g + (j - i)?  The probe reads the chain from F's state
# after a, and whether it passes depends on a only through that state (a
# lies in D^j(F) iff its completions in F include infinitely many chains),
# so D^j(F) keeps F's states.
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
# there too, and so are those of a residual of F_alpha at p: it is F_(st(p))
# above max(p), and its j-th derivative has gap j + 1 <= max(p) + 1 + j.

class Derived(FamilyHandle):
    """Cantor-Bendixson derivative of any handle, with gap one more than the
    base's: members with infinitely many one-point extensions in the base.

    A derivative of a derivative is kept as the j-th derivative of the first
    base, so a set is read through that base's states, the chained probe
    above running from the state after each element, and no stack of
    levels is ever walked.  A chain is read in one `read` of the base and
    one probe from its end, so on a base with prefix states it costs two
    queries.  For spreading families the derivative holds exactly the
    non-maximal members.
    """

    prefix_states = False

    def __init__(self, base):
        self.spreading = base.spreading
        self.right_stable_gap = base.right_stable_gap + 1
        if isinstance(base, Derived):
            self.base, self.depth = base.base, base.depth + 1
        else:
            self.base, self.depth = base, 1

    def _probe(self, state, top):
        """`state`, the base's state after a set with maximum `top`, if the
        chained probe from it is a member of the base; None if not."""
        chain, x = [], top
        for i in reversed(range(self.depth)):  # D^i has gap base gap + i
            x += self.base.right_stable_gap + i
            chain.append(x)
        return None if self.base.read(state, chain) is None else state

    def initial_state(self):
        state = self.base.initial_state()
        return None if state is None else self._probe(state, 0)

    def step(self, state, n):
        state = self.base.step(state, n)
        return None if state is None else self._probe(state, n)

    def read(self, state, chain):
        # D^j(F) is hereditary, so the probe from the end of the chain
        # answers for every prefix of it
        if not chain:
            return state
        state = self.base.read(state, chain)
        return None if state is None else self._probe(state, chain[-1])

    def descriptor(self):
        return "cbderiv(" * self.depth + self.base.descriptor() + ")" * self.depth


# -- operations -------------------------------------------------------------

def is_maximal(fam, a):
    """True iff `a` is a member with no proper superset in the family.

    Judged inside N through the states of `a`'s prefixes (`states`): some n
    in a gap of `a` must extend the prefix below it (`extensions`, up to
    max(a) + gap past the end), and the rest of `a` read on from there.  A
    spreading family spreads a u {n} to a u {max(a) + gap}: the last gap.
    """
    a = tuple(a)
    states = fam.states(a)
    if states is None:
        raise FamilyError("%s is not a member of %s" % (format_finset(a), fam.descriptor()))
    above = a + ((a[-1] if a else 0) + fam.right_stable_gap + 1,)  # the element past each gap
    return not any(fam.read(after, a[i:]) is not None
                   for i in range(len(a) if fam.spreading else 0, len(a) + 1)
                   for _, after in fam.extensions(a[:i], states[i], above[i] - 1))


def enumerate_family(fam, bound, maximal_only=False, budget=1_000_000):
    """Yield all members (or all maximal members) within [1..bound] in lex
    order, each as the walk reaches it; bound and budget are checked first.

    Walks the member trie depth-first through the residual states; heredity
    makes pruning at non-members complete.  A member's children are the
    family's `extensions` of it: a scan that stops at the family's gap, a
    trie's table, or from the least admissible element on in a min-set
    family's spreading closure, so no child is looked for past the gap,
    however far the bound.  The budget
    counts visited members, and those visited before it runs out are
    yielded; the walk holds only its current branch.
    """
    if bound < 1:
        raise FamilyError("bound must be >= 1")
    meter = Budget(budget, "members", "enumeration within [1..%d]" % bound)

    def children(prefix, state):
        for n, after in fam.extensions(prefix, state, bound):
            yield prefix + (n,), after

    def walk(limit):
        # one iterator of children per level, so long members need no recursion
        start = fam.initial_state()
        stack = [iter([] if start is None else [((), start)])]
        visited = 0
        while stack:
            prefix, state = next(stack[-1], (None, None))
            if prefix is None:
                stack.pop()
                continue
            visited += 1
            if visited > limit:
                meter.spend(visited)
            if not maximal_only or is_maximal(fam, prefix):
                yield prefix
            stack.append(children(prefix, state))
        meter.spend(visited)

    return walk(budget)


def is_admissible(fam, blocks):
    """True iff blocks are successive and their minima form a member."""
    blocks = [tuple(b) for b in blocks]
    if not blocks or any(not b for b in blocks):
        raise FamilyError("admissibility requires a non-empty list of non-empty sets")
    if not is_successive(blocks):
        return False
    return fam.contains(tuple(b[0] for b in blocks))


residual = Residual  # the family {B : prefix < B, prefix u B in fam}


def check_structure(fam, bound, budget=2_000_000):
    """Verify hereditary/spreading/no-chain structure of the members within
    [1..bound] that `enumerate_family` lists under `budget`.

    Heredity: every member minus one element is a member; by induction this
    reaches every subset.  Spreading: raising one element by 1, where the set
    stays increasing and within the bound, gives a member; raising the last
    element, then the one before it, and so on, reaches every such spread.

    The chain check is the finite shadow of compactness: no member may extend
    greedily (always appending max+1) past the horizon while staying inside
    the family; each chain steps on from its member's state.  A compact
    family fails it when a greedy chain, finite as all are, ends past bound +
    DEFAULT_HORIZON: so S_2 at bound 8 (from {8} the chain takes S_1 blocks
    of 8, 16, ...) and F_(w^w) at bound 22 fail.
    """
    members = set(enumerate_family(fam, bound, budget=budget))
    hereditary = all(m[:i] + m[i + 1:] in members for m in members for i in range(len(m)))
    spreading_ok = all(m[:i] + (x + 1,) + m[i + 1:] in members
                       for m in members for i, x in enumerate(m)
                       if x + 1 < (m[i + 1] if i + 1 < len(m) else bound + 1))
    horizon = bound + DEFAULT_HORIZON

    def passes_horizon(m):
        state, top = fam.states(m)[-1], m[-1] if m else 0
        while state is not None and top <= horizon:
            top += 1
            state = fam.step(state, top)
        return state is not None

    no_chain = not any(map(passes_horizon, members))
    return {"hereditary": hereditary, "spreading": spreading_ok, "compact_no_chain": no_chain}


cb_derivative = Derived  # the Cantor-Bendixson derivative of a family


def cb_index_finite(fam, budget=32):
    """Least k with the k-th iterated derivative empty.

    Returns (index, exact).  When the index is not reached within the budget
    the result is (budget, False), reporting index >= budget.  Level k reads
    one chain of k elements through the base's states (one query where the
    base's state is its prefix), so F_k costs k + 2 reads, and on a family
    of infinite index the time grows as budget^2 (S_1 on a shared 2-vCPU
    machine, Python 3.11: 0.01 s at budget 100, 1 s at 1,000; an oracle
    of every finite set: 0.03 s at 1,010).
    """
    if budget < 0:
        raise FamilyError("budget must be >= 0, got %d" % budget)
    current = fam
    for k in range(budget):
        if not current.contains(()):
            return (k, True)
        current = cb_derivative(current)
    return (budget, False)
