"""Anisotropic dilations in the Poincare disk and their convexity behavior."""

from .convexity import (
    GeodesicPolygon,
    SampledRegion,
    convexity_defect,
    dilate_region,
    hyperbolic_hull,
    random_hconvex_polygon,
)
from .curvature import ChordSpec, chord_radius, phi, psi, side_ordering
from .dilation import DilationParams
from .lemmas import (
    lemma_coth_poly,
    lemma_coth_ratio,
    lemma_sin_scaling,
    lemma_sinh_scaling,
)
from .sphere import SphericalPolygon, conjecture_trial, s_convexity_defect

__version__ = "0.1.0"
