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
"""

from .ordinals import (
    Ordinal,
    ZERO,
    ONE,
    OMEGA,
    add,
    classify,
    compare,
    format_ordinal,
    from_int,
    fundamental_seq,
    mul,
    natural_sum,
    omega_pow,
    parse_ordinal,
)
from .families import (
    FamilyHandle,
    FineSchreier,
    Schreier,
    Explicit,
    cb_derivative,
    cb_index_finite,
    check_structure,
    enumerate_family,
    finset,
    fs_member,
    is_admissible,
    is_maximal,
    is_spread,
    parse_finset,
    format_finset,
    residual,
    schreier_member,
)
from .vectors import SparseVec, basis_vec, parse_vec, format_vec
from .norms import (
    NormParams,
    norm,
    norm_exhaustive,
    norm_value,
    verify_certificate,
    check_unconditional,
    check_right_dominant,
    domination_search,
)
from .functionals import norming_set, norm_via_functionals, dual_norm
from .estimates import check_l1_lower, equivalence_sample, rational_root_half
from .trees import (
    BlockTree,
    ExplicitTree,
    block_derivative,
    block_index_finite,
    lemma47_check,
    min_set,
    order,
    prop43_verify,
)

__version__ = "0.1.0"
