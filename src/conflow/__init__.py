"""conflow: a numerical laboratory for conformal curvature flows.

Evolves positive conformal factors under du/dt = (n-2)/4 * (f(S) - A) * u
for strictly decreasing response functions f, and verifies the associated
evolution identities and quantitative bounds at desk scale.
"""

from .conformal import (
    Background,
    ConformalState,
    Constants,
    FDomainError,
    average_f,
    background_from_spec,
    conformal_laplacian,
    einstein_hilbert,
    metric_laplacian,
    scalar_curvature,
    sigma,
    volume,
)
from .flow import (
    DtPolicy,
    ParabolicityError,
    RunConfig,
    Trajectory,
    check_parabolic_validity,
    frechet_apply,
    frechet_normalized_apply,
    hamilton_rescale,
    renormalize_volume,
    rhs_nonnormalized,
    rhs_normalized,
    run,
    stable_dt,
    step,
)
from .fzoo import FSpec, check_decreasing, classical, expdecay, homogeneity_check, power_law, reciprocal
from .grid import (
    GridMismatchError,
    GridSpec,
    PositivityError,
    ScalarField,
    field_from_spec,
    grad_inner,
    integrate0,
    integrate_g,
    laplacian0,
    lp_norm_g,
    read_field,
    write_field,
)

__version__ = "0.1.0"
