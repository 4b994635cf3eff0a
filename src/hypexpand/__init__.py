"""Anisotropic dilations in the Poincare disk and their convexity behavior."""

from .convexity import (
    GeodesicPolygon,
    SampledRegion,
    convexity_defect,
    dilate_region,
    from_klein,
    hyperbolic_hull,
    is_hconvex,
    polygon_region,
    random_hconvex_polygon,
    to_klein,
)
from .curvature import (
    ChordSpec,
    PCoefficients,
    beta,
    chord_radius,
    gamma_curve,
    p_coefficients,
    phi,
    preimage_curve,
    psi,
    side_ordering,
)
from .dilation import DilationParams, dilate, dilate_inverse, dilate_origin, origin_params
from .disk import (
    DiskPoint,
    FirstFundamentalForm,
    ORIGIN,
    ParamCurve,
    geodesic_between,
    geodesic_curvature,
    hyperbolic_distance,
    polar_cartesian_roundtrip,
    translate,
)
from .lemmas import (
    GridReport,
    lemma_coth_poly,
    lemma_coth_ratio,
    lemma_sin_scaling,
    lemma_sinh_scaling,
)
from .sphere import SpherePoint, SphericalPolygon, conjecture_trial, s_contract, s_convexity_defect

__version__ = "0.1.0"
