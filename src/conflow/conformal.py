"""Conformal-geometry quantities on a prescribed background.

The background is a synthetic curvature field S0 paired with the flat
discrete Laplacian; together they define the conformal Laplacian

    L(u) = S0 * u - c_n * laplacian0(u),      c_n = 4(n-1)/(n-2),

and a positive conformal factor u carries the curvature

    S = u^(-beta) L(u),                       beta = (n+2)/(n-2).

Every identity checked by this package uses only L, the volume weights and
the discrete maximum principle, so all three sign cases of S0 are exercised
at desk scale even though e.g. a constant negative S0 is not realizable as a
conformal factor over a flat torus.  Reports carry that caveat.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    PositivityError,
    ScalarField,
    field_from_spec,
    grad_inner_values,
    integrate_g,
    laplacian0_values,
    power,
    volume_weight,
)

__all__ = [
    "Constants",
    "Background",
    "ConformalState",
    "FDomainError",
    "conformal_laplacian",
    "scalar_curvature",
    "metric_laplacian",
    "volume",
    "average_f",
    "sigma",
    "einstein_hilbert",
    "background_from_spec",
]


class FDomainError(ValueError):
    """Scalar curvature left the admissible domain of the response function."""


@dataclass(frozen=True)
class Constants:
    """Conformal exponents for ambient dimension n."""

    n: int
    beta: float
    c_n: float
    vol_exp: float  # 2n/(n-2), the volume-density exponent

    @classmethod
    def for_dimension(cls, n: int) -> "Constants":
        if n < 3:
            raise ValueError("ambient dimension must be >= 3")
        return cls(
            n=n,
            beta=(n + 2.0) / (n - 2.0),
            c_n=4.0 * (n - 1.0) / (n - 2.0),
            vol_exp=2.0 * n / (n - 2.0),
        )


@dataclass(frozen=True)
class Background:
    """Prescribed curvature field S0 plus the ambient dimension."""

    S0: ScalarField
    n: int

    def __post_init__(self):
        if self.n != self.S0.grid.ambient_n:
            raise ValueError("background dimension must match the grid's ambient_n")

    @property
    def grid(self) -> GridSpec:
        return self.S0.grid

    @functools.cached_property
    def constants(self) -> Constants:
        return Constants.for_dimension(self.n)

    @property
    def case_tag(self) -> str:
        lo, hi = self.S0.min(), self.S0.max()
        if lo == 0.0 and hi == 0.0:
            return "flat"
        if hi < 0.0:
            return "negative"
        if lo > 0.0:
            return "positive"
        return "mixed"


@dataclass(frozen=True)
class ConformalState:
    """Positive conformal factor at a given time."""

    u: ScalarField
    t: float = 0.0

    def __post_init__(self):
        if self.u.min() <= 0.0:
            raise PositivityError("state outside positive cone")


def require_f_domain(f, smin: float, smax: float):
    """Raise FDomainError unless the curvature range [smin, smax] lies
    inside the domain of the response function f."""
    if not f.domain.contains_interval(smin, smax):
        raise FDomainError(
            f"f-domain violation: S range [{smin:g}, {smax:g}] not inside {f.domain}"
        )


def conformal_laplacian_values(bg: Background, h: np.ndarray) -> np.ndarray:
    """Raw-array L(h) = S0*h - c_n*laplacian0(h) (no validation); like the
    stencil it acts on one field or a ``(K, *grid.shape)`` stack."""
    return bg.S0.values * h - bg.constants.c_n * laplacian0_values(bg.grid, h)


def conformal_laplacian(bg: Background, u: ScalarField) -> ScalarField:
    """L(u) = S0*u - c_n*laplacian0(u); linear in u."""
    return ScalarField(u.grid, conformal_laplacian_values(bg, u.values))


def scalar_curvature_values(bg: Background, u: np.ndarray) -> np.ndarray:
    """Raw-array curvature u^(-beta) * L(u) (no validation).  ``u`` may be
    one field or a ``(K, *grid.shape)`` stack of records."""
    return power(u, -bg.constants.beta) * conformal_laplacian_values(bg, u)


def scalar_curvature(bg: Background, state: ConformalState) -> ScalarField:
    return ScalarField(bg.grid, scalar_curvature_values(bg, state.u.values))


def metric_laplacian(bg: Background, state: ConformalState, xi: ScalarField) -> ScalarField:
    """Laplacian of the evolving metric applied to xi:

        u^(-4/(n-2)) * (laplacian0(xi) + (2/u) * <grad u, grad xi>).

    Reduces to laplacian0 when u is identically one.
    """
    u = state.u.values
    g = bg.grid
    lap = laplacian0_values(g, xi.values)
    cross = grad_inner_values(g, u, xi.values)
    vals = power(u, -4.0 / (bg.n - 2.0)) * (lap + 2.0 * cross / u)
    return ScalarField(g, vals)


def volume(state: ConformalState) -> float:
    """Total evolving volume, integrate_g(1, u)."""
    n = state.u.grid.ambient_n
    return float(volume_weight(state.u, n).mean())


def average_f(bg: Background, state: ConformalState, f) -> float:
    """Volume-weighted mean of f(S); the flow's normalization constant.

    Satisfies f(S_max) <= result <= f(S_min) for decreasing f.
    """
    S = scalar_curvature_values(bg, state.u.values)
    require_f_domain(f, float(S.min()), float(S.max()))
    w = volume_weight(state.u, bg.n)
    return float((f.eval_f(S) * w).mean() / w.mean())


def sigma(bg: Background, state: ConformalState) -> float:
    """Volume-weighted average scalar curvature."""
    S = ScalarField(bg.grid, scalar_curvature_values(bg, state.u.values))
    return integrate_g(S, state.u, bg.n) / volume(state)


def einstein_hilbert(bg: Background, state: ConformalState) -> float:
    """Vol^((2-n)/n) * integral of S; coincides with sigma at unit volume."""
    S = ScalarField(bg.grid, scalar_curvature_values(bg, state.u.values))
    vol = volume(state)
    return vol ** ((2.0 - bg.n) / bg.n) * integrate_g(S, state.u, bg.n)


def background_from_spec(grid: GridSpec, spec: str) -> Background:
    return Background(S0=field_from_spec(grid, spec), n=grid.ambient_n)
