"""Exact verification toolkit for an eigenvalue-order invariant of finite
group characters, computed along two independent routes: an alternating
sum of Adams operations, and the coefficients of the canonical induction
of the character from one-dimensional characters of subgroups."""

from .errors import BoundExceeded, ConsistencyError, SpecError, TableFormatError
from .cyclo import Cyclotomic, RootOfUnity, rational, zeta
from .groups import LinearChar, MonomialPair, PermGroup, Subgroup, from_spec
from .chartab import (
    CharacterTable,
    ClassFunction,
    compute_table,
    conductor,
    galois_conjugate,
    inner_product,
    load_table,
    save_table,
)
from .adams import (
    FeitReport,
    InvariantReport,
    adams_operation,
    alternating_adams_character,
    eigenvalue_multiplicities,
    eigenvalue_order_witness,
    feit_indicator,
    invariant,
    verify_invariant,
)

# the oracle's names, served on first use (PEP 562): importing the package
# does not compile ``brauer``, which only ``verify`` and ``corpus`` run
_BRAUER_NAMES = (
    "PairCombination",
    "adams_identity_check",
    "check_equivalences",
    "check_max_sets",
    "induced_character",
    "induction_by_chains",
    "induction_by_orbit_chains",
    "invariant_via_coefficients",
    "monomial_pairs",
    "restrict_combination",
)

__all__ = [
    "BoundExceeded",
    "ConsistencyError",
    "SpecError",
    "TableFormatError",
    "Cyclotomic",
    "RootOfUnity",
    "rational",
    "zeta",
    "LinearChar",
    "MonomialPair",
    "PermGroup",
    "Subgroup",
    "from_spec",
    "CharacterTable",
    "ClassFunction",
    "compute_table",
    "conductor",
    "galois_conjugate",
    "inner_product",
    "load_table",
    "save_table",
    "FeitReport",
    "InvariantReport",
    "adams_operation",
    "alternating_adams_character",
    "eigenvalue_multiplicities",
    "eigenvalue_order_witness",
    "feit_indicator",
    "invariant",
    "verify_invariant",
    *_BRAUER_NAMES,
]


def __getattr__(name: str):
    if name in _BRAUER_NAMES:
        from . import brauer

        return getattr(brauer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_BRAUER_NAMES})


__version__ = "0.1.0"
