"""Span recorder for the traced benchmark run.

The wrappers are installed from the benchmark's own files around the public
entry points of each layer; the program under measurement is not edited.
Spans (id, name, parent, start, end) are kept in memory in flat arrays and
written out when the process ends.  Self time, a span's duration minus the
time its child spans cover, is accumulated per name as spans close.

A span name may carry a tag after `@` (for example `norms.norm@S1.s10`):
the part before `@` is the layer entry point, the tag a bucket inside it.

Names that a layer calls recursively, such as `families.fs_member` and
`ordinals.fundamental_seq` inside `ordinals`, are never patched: that would
put a wrapper frame on every level of the program's own recursion.
Ordinal calls are traced where `families` and `cli` make them, through a
copy of the `ordinals` module bound only in those two modules.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter

LONG_SET = 100  # membership queries with |A| >= LONG_SET are tagged "long"

FAMILY_LABELS = {"schreier:1": "S1", "schreier:2": "S2", "fine:5": "F5", "fine:w": "Fw"}
NORM_SUPPORTS = (6, 8, 10, 12)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_id = array("q")
        self.span_name = array("l")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # open spans: [name, start, child time, id]
        self._next_id = 0
        self.self_s = {}
        self.calls = {}
        self.counters = {}

    def open(self, name):
        self._stack.append([name, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def close(self):
        end = perf_counter()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        self.calls[name] = self.calls.get(name, 0) + 1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_parent.append(parent[3] if parent is not None else -1)
        self.span_start.append(start)
        self.span_end.append(end)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, before=None, after=None):
        """`fn` inside a span.  `name` is a string or a function of the call's
        arguments; `before` sees the arguments and `after` the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            tracer.open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(result)
            return result

        return traced

    def member(self, fn):
        """Membership queries; only those entering the families layer count
        as calls, and those made under a norm also count per norm."""

        def entering(*args):
            stack = [span[0].split("@")[0] for span in self._stack]
            if not stack or stack[-1] != "families.member":
                self.count("families.member.entering")
                if "norms.norm" in stack:
                    self.count("norms.member_under_norm")

        return self.wrap(fn, lambda *args: "families.member@long" if len(args[-1]) >= LONG_SET
                         else "families.member", before=entering)

    def summary(self):
        """Aggregates by span name plus counters, JSON-ready."""
        return {"self_s": self.self_s, "calls": self.calls, "counters": self.counters}

    def dump(self, path):
        """Write every span: a JSON header line, then the five arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.span_id),
                      "arrays": ["id:q", "name:l", "parent:q", "start:d", "end:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_id, self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def _replace_everywhere(orig, new):
    """Rebind every name in the schreier modules that refers to `orig`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "schreier" or mod_name.startswith("schreier.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def install(tracer):
    """Install span wrappers on the already imported schreier modules."""
    from schreier import cache, estimates, families, functionals, norms, ordinals
    from schreier import simplex, trees, vectors

    def patch(fn, name, **hooks):
        _replace_everywhere(fn, tracer.wrap(fn, name, **hooks))

    # families: every handle's membership test, enumeration, structure check
    for value in list(vars(families).values()):
        if (isinstance(value, type) and issubclass(value, families.FamilyHandle)
                and "contains" in vars(value)):
            value.contains = tracer.member(vars(value)["contains"])
    patch(families.enumerate_family, "families.enumerate")
    patch(families.check_structure, "families.structure")

    # ordinals, as seen from families and cli only (fundamental_seq recurses)
    view = types.ModuleType(ordinals.__name__)
    view.__dict__.update(vars(ordinals))
    view.fundamental_seq = tracer.wrap(ordinals.fundamental_seq, "ordinals.fundamental_seq")
    view.classify = tracer.wrap(ordinals.classify, "ordinals.classify")
    families.ordinals = view
    if "schreier.cli" in sys.modules:
        sys.modules["schreier.cli"].ordinals = view

    def norm_name(params, x, *args):
        label = FAMILY_LABELS.get(params.family.descriptor())
        if label and len(x) in NORM_SUPPORTS:
            return "norms.norm@%s.s%d" % (label, len(x))
        return "norms.norm"

    patch(norms.norm, norm_name)
    patch(norms.verify_certificate, "norms.verify")

    def set_size(fset):
        tracer.counters["functionals.set_size"] = max(
            len(fset), tracer.counters.get("functionals.set_size", 0))

    patch(functionals.norming_set, "functionals.norming_set", after=set_size)
    patch(functionals.dual_norm, "functionals.dual_norm")

    def lp_size(columns, target, m):
        n = len(columns)
        tracer.count("simplex.columns", n)
        tracer.count("simplex.tableau_cells", (n + m + 1) * (m + 1))

    patch(simplex.min_l1_combination, "simplex", before=lp_size)
    for meth in ("add", "scale", "abs", "inner", "restrict"):
        setattr(vectors.SparseVec, meth,
                tracer.wrap(getattr(vectors.SparseVec, meth), "vectors"))

    def trace_queries(fam):  # min-set families answer queries through a predicate
        if isinstance(fam, families.Oracle):
            fam.predicate = tracer.wrap(fam.predicate, "trees.min_set")

    patch(trees.min_set, "trees.min_set", after=trace_queries)
    patch(trees.lemma47_check, "trees.lemma47")
    patch(estimates.equivalence_sample, "estimates.equivalence_sample")

    def lookup_result(hit):
        tracer.count("cache.lookups")
        if hit is not None:
            tracer.count("cache.hits")

    patch(cache.lookup, "cache", after=lookup_result)
    patch(cache.store, "cache", before=lambda *args: tracer.count("cache.stores"))
