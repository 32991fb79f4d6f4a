"""Finitely supported vectors with exact rational coefficients."""

from fractions import Fraction

from . import SchreierError


class VectorError(SchreierError, ValueError):
    pass


class SparseVec:
    """Immutable sparse vector indexed by positive integers.

    Canonical form: entries sorted by index, no zero coefficients.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = entries
        cleaned = []
        for i, v in sorted(items):
            if not isinstance(i, int) or i < 1:
                raise VectorError("indices must be positive integers: %r" % (i,))
            v = Fraction(v)
            if v:
                cleaned.append((i, v))
        for (a, _), (b, _) in zip(cleaned, cleaned[1:]):
            if a == b:
                raise VectorError("duplicate index %d" % a)
        object.__setattr__(self, "entries", tuple(cleaned))

    @staticmethod
    def _canonical(entries):
        """Trusted constructor: `entries` is a tuple already in canonical form
        (positive int indices, strictly increasing, nonzero Fractions).  It
        sets the slot through its descriptor, skipping `__setattr__`."""
        vec = _new(SparseVec)
        _set_entries(vec, entries)
        return vec

    def __setattr__(self, *args):
        raise AttributeError("SparseVec is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return (SparseVec, (self.entries,))

    @property
    def support(self):
        return tuple(i for i, _ in self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        for j, v in self.entries:
            if j == i:
                return v
        return Fraction(0)

    def __eq__(self, other):
        return isinstance(other, SparseVec) and self.entries == other.entries

    def __hash__(self):
        # reduced Fractions are equal iff their numerators and denominators
        # are; hashing those ints skips Fraction.__hash__'s modular inverse
        return hash(tuple([(i, v.numerator, v.denominator) for i, v in self.entries]))

    def __repr__(self):
        return "SparseVec(%s)" % format_vec(self)

    def restrict(self, indices):
        """Projection onto the given index set."""
        keep = set(indices)
        return SparseVec([(i, v) for i, v in self.entries if i in keep])

    def abs(self):
        return SparseVec([(i, abs(v)) for i, v in self.entries])

    def flip(self, signs):
        """Apply a sign pattern {index: +-1} to the coefficients."""
        return SparseVec([(i, v * signs.get(i, 1)) for i, v in self.entries])

    def map_indices(self, mapping):
        return SparseVec([(mapping[i], v) for i, v in self.entries])

    def scale(self, factor):
        return SparseVec([(i, v * factor) for i, v in self.entries])

    def add(self, other):
        out = dict(self.entries)
        for i, v in other.entries:
            out[i] = out.get(i, Fraction(0)) + v
        return SparseVec(out)

    def inner(self, other):
        other_map = dict(other.entries)
        return sum((v * other_map[i] for i, v in self.entries if i in other_map), Fraction(0))

    def sup_norm(self):
        return max((abs(v) for _, v in self.entries), default=Fraction(0))

    def l1_norm(self):
        return sum((abs(v) for _, v in self.entries), Fraction(0))


_new = object.__new__
_set_entries = SparseVec.entries.__set__


def basis_vec(i, coeff=1):
    return SparseVec([(i, Fraction(coeff))])


def parse_rational(text):
    """`num`, `num/den` or a decimal; no exponent, which Fraction expands."""
    if "e" in text.lower():
        raise ValueError("exponent notation is not accepted: %r" % text)
    return Fraction(text)


def parse_vec(text):
    """Parse the `idx:num/den,...` text form, e.g. `3:1,4:1,5:-2/3`."""
    text = text.strip()
    if not text:
        return SparseVec([])
    entries = []
    for part in text.split(","):
        try:
            idx, coeff = part.split(":")
            entries.append((int(idx), parse_rational(coeff)))
        except (ValueError, ZeroDivisionError):
            raise VectorError("bad vector component %r" % part)
    return SparseVec(entries)


def format_vec(x):
    return ",".join("%d:%s" % (i, v) for i, v in x.entries)
