"""Desk-scale numerical checks for conformally invariant fully nonlinear
curvature equations: cone/operator algebra, Mobius conjugation of the
conformal Schouten tensor, bubble rigidity residuals, radial shooting,
moving-sphere sweeps, the explicit Harnack product, and a homotopy
continuation solver on the circle-sphere product."""

__version__ = "0.1.0"

from .bubbles import (
    BubbleParams,
    Residuals,
    ball_robin_residual,
    bubble_from_initial_conditions,
    bubble_grad,
    bubble_hess,
    bubble_value,
    halfspace_residual,
    verify_fullspace,
)
from .cones import (
    CurvatureOperator,
    GammaKCone,
    HomotopyCone,
    LevelSetCone,
    ValidationReport,
    cone_ray_scale,
    homogenize,
    homotopy_operator,
    in_gamma_k,
    make_sigma_k_operator,
    sample_cone_directions,
    scalar_curvature,
    sigma_all,
    sigma_k,
    solve_unit_level,
    validate_operator,
)
from .conformal import (
    Invert,
    MoebiusMap,
    Scale,
    Translate,
    a_matrix_flat,
    conjugation_residual,
    identity_map,
    product_background_eigenvalues,
    product_eigenvalues,
    pullback_u,
    schouten_eigen_flat,
    sphere_inversion_map,
    sphere_inversion_u,
    sphere_inversion_value,
    superharmonic_check,
)
from .errors import (
    ConeError,
    ConformaError,
    ConvergenceError,
    DomainError,
    GeometryError,
    PositivityError,
    SingularityError,
)
from .fields import (
    BubbleField,
    ConstantField,
    FDField,
    GaussianBumpField,
    HarmonicPowerField,
    QuadraticField,
    ScalarField,
    annulus,
    ball,
    field_from_json,
    finite_difference,
    half_ball,
)
from .moving_sphere import (
    SweepConfig,
    alpha_invariant,
    critical_radius,
    gradient_bound_check,
    h_lemma_check,
    harnack_constant,
    harnack_product,
    msi_violation,
)
from .radial import (
    RadialProfile,
    bubble_deviation,
    implicit_vpp,
    matched_bubble,
    mu_star,
    order_estimate,
    profile_max_unit_residual,
    radial_eigenvalues,
    shoot,
    vpp0_exact,
)
from .yamabe import (
    ContinuationResult,
    PeriodicGrid,
    c_star,
    constant_start,
    continuation,
    jacobian,
    jacobian_fd,
    newton_solve,
    residual,
)
