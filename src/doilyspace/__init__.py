"""Computational finite geometry for the doily (GQ(2,2)), its Veldkamp
space, and the magic Veldkamp line of the symplectic polar space W(5,2).

Everything is exact over GF(2) and small enough to verify by exhaustion;
the library constructs the objects, certifies every claimed bijection, and
the ``doilyspace`` command line exposes verification suites, tables and
figure exports.
"""

from .gf2 import (
    BinaryVector,
    BilinearForm,
    QuadraticForm,
    SymplecticForm,
    classify_form,
    elliptic_form,
    hyperbolic_form,
    polarize,
)
from .incidence import (
    CapacityError,
    IncidenceStructure,
    check_gamma_space,
    check_gq,
    collinear,
    enumerate_hyperplanes,
    find_isomorphism,
    induced_substructure,
    is_geometric_hyperplane,
    is_isomorphism,
    null_space_hyperplanes,
)
from .doily import (
    DUADS,
    SYNTHEMES,
    DoilyHyperplane,
    all_named_hyperplanes,
    build_doily,
    classify_hyperplane,
    grid,
    ovoid,
    perp_set,
    veldkamp_sum,
)
from .veldkamp import (
    FAMILIES,
    VeldkampLine,
    VeldkampSpace,
    build_veldkamp_space,
    classify_veldkamp_line,
    family_census,
)
from .magicline import (
    ConsistencyError,
    MagicLine,
    PolarPairReport,
    build_magic_line,
    build_sector_models,
    build_w52,
    complementary_point,
    doily_trace,
    image_matches_family,
    polar_pair_check,
    sector_image,
    sector_labels,
    veldkamp_line_image,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryVector", "BilinearForm", "QuadraticForm", "SymplecticForm",
    "classify_form", "elliptic_form", "hyperbolic_form", "polarize",
    "CapacityError", "IncidenceStructure", "check_gamma_space", "check_gq",
    "collinear", "enumerate_hyperplanes", "find_isomorphism",
    "induced_substructure", "is_geometric_hyperplane", "is_isomorphism",
    "null_space_hyperplanes",
    "DUADS", "SYNTHEMES", "DoilyHyperplane", "all_named_hyperplanes",
    "build_doily", "classify_hyperplane", "grid", "ovoid", "perp_set",
    "veldkamp_sum",
    "FAMILIES", "VeldkampLine", "VeldkampSpace", "build_veldkamp_space",
    "classify_veldkamp_line", "family_census",
    "ConsistencyError", "MagicLine", "PolarPairReport",
    "build_magic_line", "build_sector_models", "build_w52",
    "complementary_point", "doily_trace", "image_matches_family",
    "polar_pair_check", "sector_image", "sector_labels", "veldkamp_line_image",
]
