"""Hyperbolic simplex geometry, volumes, and triangulation complexity experiments."""

from .minkowski import (  # noqa: F401
    DEFAULT_TOL,
    GeometryError,
    Isometry,
    ProjectivePoint,
    distance,
    finite_point,
    ideal_point,
    lift_klein,
    mink,
    random_isometry,
    to_klein,
)
from .simplex import (  # noqa: F401
    GeodesicSimplex,
    incenter_inradius,
    is_degenerate,
    min_face_clearance,
    regular_ideal_simplex,
)
from .volume import (  # noqa: F401
    VolumeEstimate,
    ball_volume,
    ideal_regular_volume,
    lobachevsky,
    maximality_probe,
    simplex_volume,
)
from .constants import (  # noqa: F401
    alpha_k_table,
    budget_check,
    compute_Cn,
    constants_row,
    delta_n,
    estimate_a_eps,
)

__version__ = "0.1.0"
