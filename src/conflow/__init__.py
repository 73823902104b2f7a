"""conflow: a numerical laboratory for conformal curvature flows.

Evolves positive conformal factors under du/dt = (n-2)/4 * (f(S) - A) * u
for strictly decreasing response functions f, and verifies the associated
evolution identities and quantitative bounds at desk scale.
"""

from .conformal import Background, ConformalState, FDomainError
from .flow import (
    ParabolicityError,
    RunConfig,
    Trajectory,
    frechet_apply,
    frechet_normalized_apply,
    hamilton_rescale,
    rhs_normalized,
    run,
    stable_dt,
    step,
)
from .fzoo import FSpec, classical, expdecay, homogeneity_check, power_law, reciprocal
from .grid import (
    GridMismatchError,
    GridSpec,
    PositivityError,
    ScalarField,
    field_from_spec,
    read_field,
    write_field,
)

__version__ = "0.1.0"
