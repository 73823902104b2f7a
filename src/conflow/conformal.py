"""Conformal-geometry quantities on a prescribed background.

The background is a synthetic curvature field S0 paired with the flat
discrete Laplacian; together they define the conformal Laplacian

    L(u) = S0 * u - c_n * laplacian0_values(u),      c_n = 4(n-1)/(n-2),

and a positive conformal factor u carries the curvature

    S = u^(-beta) L(u),                               beta = (n+2)/(n-2).

``conformal_laplacian_values`` and ``scalar_curvature_values`` evaluate
them on raw arrays, one field or a ``(K, *grid.shape)`` stack of records;
``Constants`` holds the exponents, the volume-density exponent 2n/(n-2)
among them.  Every identity checked by this package uses only L, the volume
weights and the discrete maximum principle, so all three sign cases of S0
are exercised at desk scale even though e.g. a constant negative S0 is not
realizable as a conformal factor over a flat torus.  Reports carry that
caveat.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, PositivityError, ScalarField, laplacian0_values, power

__all__ = [
    "Constants",
    "Background",
    "ConformalState",
    "FDomainError",
    "require_f_domain",
    "conformal_laplacian_values",
    "scalar_curvature_values",
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
    """Raw-array L(h) = S0*h - c_n*laplacian0_values(h) (no validation); like the
    stencil it acts on one field or a ``(K, *grid.shape)`` stack."""
    return bg.S0.values * h - bg.constants.c_n * laplacian0_values(bg.grid, h)


def scalar_curvature_values(bg: Background, u: np.ndarray) -> np.ndarray:
    """Raw-array curvature u^(-beta) * L(u) (no validation).  ``u`` may be
    one field or a ``(K, *grid.shape)`` stack of records."""
    return power(u, -bg.constants.beta) * conformal_laplacian_values(bg, u)
