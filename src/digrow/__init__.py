"""Exact bases and growth estimation for finitely presented dialgebras.

A dialgebra carries two associative products tied together by three mixed
associativity laws.  The free object has a monomial basis of words with a
marked middle position; quotients by relators and identity schemes get
degree-truncated linear bases through exact sparse elimination, and their
growth exponent is estimated from the filtered dimension series.
"""

from importlib import resources

from .element import (
    DiElement,
    PrimeField,
    QQ,
    RationalField,
    axiom_residuals,
    parse_element,
    parse_field,
)
from .errors import (
    AlphabetMismatch,
    DegreeBoundExceeded,
    FieldMismatch,
    ParseError,
    ResourceCapExceeded,
)
from .growth import (
    GkEstimate,
    GrowthSeries,
    gap_check,
    gk_estimate,
    growth_series,
    identity_class_check,
    special_basis_check,
    theorem_a_check,
)
from .monomial import (
    Alphabet,
    Disequence,
    lprod,
    monomials,
    rprod,
    universe_count,
)
from .presentation import (
    ASSOCIATIVE,
    DIALGEBRA,
    BasisTable,
    Presentation,
    associated_associative,
    basis_upto,
    collapse_middle,
    normal_form,
    prefix_suffix_check,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped .dpres fixture, e.g. fixture_path("free_a")."""
    if not name.endswith(".dpres"):
        name += ".dpres"
    return str(resources.files(__name__).joinpath("fixtures", name))


__all__ = [
    "Alphabet", "Disequence", "lprod", "rprod", "monomials", "universe_count",
    "DiElement", "QQ", "RationalField", "PrimeField", "parse_element",
    "parse_field", "axiom_residuals",
    "Presentation", "BasisTable", "basis_upto",
    "normal_form", "associated_associative", "collapse_middle",
    "prefix_suffix_check", "DIALGEBRA", "ASSOCIATIVE",
    "GrowthSeries", "GkEstimate", "growth_series", "gk_estimate",
    "theorem_a_check", "gap_check", "special_basis_check",
    "identity_class_check",
    "AlphabetMismatch", "FieldMismatch", "DegreeBoundExceeded",
    "ResourceCapExceeded", "ParseError",
    "fixture_path",
]
