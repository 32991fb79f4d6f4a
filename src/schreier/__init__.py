"""Exact combinatorics of Schreier families and Tsirelson-type norms.

Submodules:
  ordinals     Cantor Normal Form arithmetic below epsilon_0
  families     (fine) Schreier and general compact hereditary families
  vectors      finitely supported exact rational vectors
  norms        Tsirelson-type norms with partition certificates
  functionals  norming functional sets and the exact dual gauge
  estimates    l1 lower bounds and norm-equivalence sampling
  trees        tree orders, block derivatives, compression
  suites       consolidated property-check suites

The names below are re-exported lazily (PEP 562): `from schreier import norm`
imports `schreier.norms` on first use, and so does `schreier.norms`, so
importing the package, or one submodule, loads nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"


class SchreierError(Exception):
    """Base of the library's input and search errors.

    `exit_code` is the CLI exit status the error maps to: 2 for invalid
    input, 3 (on `families.BudgetExceeded`) for an exhausted budget.
    """

    exit_code = 2


def read_json(path):
    """The JSON value in the UTF-8 file at `path`, the one place the package
    reads JSON input.  Text that is not UTF-8 or not JSON (or nests past the
    decoder's recursion limit) is invalid input: SchreierError, exit 2.  `json`
    is imported here, so a command that reads no JSON does not load it."""
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SchreierError("invalid JSON: %s" % exc) from None


_EXPORTS = {
    "ordinals": (
        "Ordinal", "ZERO", "ONE", "OMEGA", "add", "classify", "compare", "format_ordinal",
        "from_int", "fundamental_seq", "mul", "natural_sum", "omega_pow", "parse_ordinal",
    ),
    "families": (
        "FamilyHandle", "FineSchreier", "Schreier", "Explicit", "cb_derivative",
        "cb_index_finite", "check_structure", "enumerate_family", "finset", "fs_member",
        "is_admissible", "is_maximal", "is_spread", "parse_finset", "format_finset",
        "residual", "schreier_member",
    ),
    "vectors": ("SparseVec", "basis_vec", "parse_vec", "format_vec"),
    "norms": (
        "NormParams", "norm", "norm_exhaustive", "norm_value", "verify_certificate",
        "check_unconditional", "check_right_dominant", "domination_search",
    ),
    "functionals": ("norming_set", "norm_via_functionals", "dual_norm"),
    "estimates": ("check_l1_lower", "equivalence_sample", "rational_root_half"),
    "trees": (
        "BlockTree", "ExplicitTree", "block_derivative", "block_index_finite",
        "lemma47_check", "min_set", "order", "prop43_verify",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cache", "simplex", "suites"}

__all__ = ["SchreierError", *_SOURCE]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE) | _SUBMODULES)
