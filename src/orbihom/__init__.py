"""Exact homology of weighted cellular orbifold models.

Computes cellular homology over the integers and the rationals for
finite weighted cell complexes, the matching scaled-dual cohomology,
fundamental group presentations with abelianization, and mechanical
verification of the structural identities relating them (exact
sequences, products, degenerations, duality).
"""

from .intlin import FgAbGroup
from .chains import (ChainComplex, ChainMap, HomologyResult, connecting_hom,
                     homology, inclusion_map, induced_map)
from .orbmodel import (
    Ball3,
    Ball3Cyclic,
    Custom,
    Disc2,
    ProductTorus,
    Surface,
    WeightedCellComplex,
    parse_owc,
    serialize_owc,
    t_model,
    underlying_model,
    adapted_model,
    ws_complex,
)
from .groups import Presentation, abelianization, pi1_presentation
from .report import Assertion, VerdictReport
from .affops import prism_operator, sd_operator
from .verify import (
    check_bhomotopy_pair,
    check_duality,
    check_hurewicz,
    check_kunneth,
    check_mv,
    check_rational,
    check_underlying,
)

__version__ = "0.1.0"

__all__ = [
    "FgAbGroup",
    "ChainComplex",
    "ChainMap",
    "HomologyResult",
    "homology",
    "inclusion_map",
    "induced_map",
    "connecting_hom",
    "Disc2",
    "Ball3",
    "Ball3Cyclic",
    "Surface",
    "ProductTorus",
    "Custom",
    "WeightedCellComplex",
    "t_model",
    "underlying_model",
    "adapted_model",
    "ws_complex",
    "parse_owc",
    "serialize_owc",
    "Presentation",
    "pi1_presentation",
    "abelianization",
    "Assertion",
    "VerdictReport",
    "check_mv",
    "check_kunneth",
    "check_rational",
    "check_underlying",
    "check_hurewicz",
    "check_bhomotopy_pair",
    "check_duality",
    "sd_operator",
    "prism_operator",
    "__version__",
]
