"""Conformal-geometry quantities on a prescribed background.

The background is a synthetic curvature field S0 paired with the flat
discrete Laplacian; together they define the conformal Laplacian

    L(u) = S0 * u - c_n * laplacian0_values(u),      c_n = 4(n-1)/(n-2),

and a positive conformal factor u carries the curvature

    S = u^(-beta) L(u),                               beta = (n+2)/(n-2).

``conformal_laplacian_values`` and ``scalar_curvature_values`` evaluate
them on raw arrays, one field or a ``(K, *grid.shape)`` stack of records;
``Background`` carries the exponents of its dimension n, the volume-density
exponent 2n/(n-2) and the rate prefactor (n-2)/4 among them.  On the volume
weight u^(2n/(n-2)) rest ``unit_scale``, a normalized run's scaling to unit
volume, and ``weighted_mean``, the one mean A of the flow's step and of
``Records``, the per-record quantities of a stack of logged states (volume
weight, f-domain test, ...) for the diagnostics columns and every check.

Every identity checked by this package uses only L, the volume weights and
the discrete maximum principle, so all three sign cases of S0 are exercised
at desk scale even though e.g. a constant negative S0 is not realizable as
a conformal factor over a flat torus.  Reports carry that caveat.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GridSpec,
    PositivityError,
    ScalarField,
    chain_exponent,
    laplacian0_values,
    node_mean,
    power,
    record_blocks,
)

__all__ = [
    "Background",
    "ConformalState",
    "FDomainError",
    "require_f_domain",
    "conformal_laplacian_values",
    "scalar_curvature_values",
    "unit_scale",
    "weighted_mean",
    "Records",
]


class FDomainError(ValueError):
    """Scalar curvature left the admissible domain of the response function."""


@dataclass(frozen=True)
class Background:
    """A prescribed curvature field, ``Background(S0)``; n is its grid's
    ambient_n.  The conformal exponents of n are computed here, so an n too
    large for a float raises OverflowError: ``beta``, ``c_n``, the
    volume-density exponent ``vol_exp`` = 2n/(n-2) and the flow's rate
    prefactor ``pref`` = (n-2)/4."""

    S0: ScalarField
    beta: float = field(init=False, repr=False, compare=False)
    c_n: float = field(init=False, repr=False, compare=False)
    vol_exp: float = field(init=False, repr=False, compare=False)
    pref: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        for name, value in (("beta", (n + 2.0) / (n - 2.0)),
                            ("c_n", 4.0 * (n - 1.0) / (n - 2.0)),
                            ("vol_exp", 2.0 * n / (n - 2.0)),
                            ("pref", 0.25 * (n - 2.0))):
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> GridSpec:
        return self.S0.grid

    @property
    def n(self) -> int:
        return self.S0.grid.ambient_n

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
    """The verdict on a curvature range [smin, smax]: FloatingPointError for
    a non-finite range (NaN fails every domain test, so it is caught first),
    FDomainError for a range outside the domain of the response function f."""
    if not (math.isfinite(smin) and math.isfinite(smax)):
        raise FloatingPointError(f"non-finite curvature: S range [{smin:g}, {smax:g}]")
    if not f.domain.contains_interval(smin, smax):
        raise FDomainError(
            f"f-domain violation: S range [{smin:g}, {smax:g}] not inside {f.domain}"
        )


def conformal_laplacian_values(bg: Background, h: np.ndarray) -> np.ndarray:
    """Raw-array L(h) = S0*h - c_n*laplacian0_values(h) (no validation); like the
    stencil it acts on one field or a ``(K, *grid.shape)`` stack."""
    return bg.S0.values * h - bg.c_n * laplacian0_values(bg.grid, h)


def scalar_curvature_values(bg: Background, u: np.ndarray, with_weight: bool = False):
    """Raw-array curvature u^(-beta) * L(u) (no validation) of one field or a
    ``(K, *grid.shape)`` stack.  ``with_weight=True`` adds the volume weight
    u^(2n/(n-2)) = u^(beta+1); for an integer beta both come from one chain
    ``power(u, beta)``, as 1/chain and chain*u, bit for bit the two powers."""
    L = conformal_laplacian_values(bg, u)
    if with_weight and chain_exponent(bg.beta) is not None:
        chain = power(u, bg.beta)
        return (1.0 / chain) * L, chain * u
    S = power(u, -bg.beta) * L
    return (S, power(u, bg.vol_exp)) if with_weight else S


def unit_scale(bg: Background, u: np.ndarray) -> tuple[float, float]:
    """The factor that scales a positive finite u to unit volume, and the
    volume of u.  A volume that under- or overflows is taken again with u
    divided by its max, as ``weighted_mean`` mends an overflowing mean."""
    vol = float(node_mean(bg.grid, power(u, bg.vol_exp)))
    if 0.0 < vol < math.inf:
        return vol ** (-1.0 / bg.vol_exp), vol
    s = float(u.max())
    return float(node_mean(bg.grid, power(u / s, bg.vol_exp))) ** (-1.0 / bg.vol_exp) / s, vol


def weighted_mean(grid: GridSpec, v: np.ndarray, w: np.ndarray):
    """The mean of v against the volume weight w, of one field or of each
    record of a stack.  A mean that overflowed although v is finite is taken
    again with v scaled by max |v|, record by record, so every finite mean
    keeps its bits; the overflow warns as the caller's errstate says."""
    m = node_mean(grid, v * w) / node_mean(grid, w)
    if v.ndim > grid.active_dims:
        for k in np.flatnonzero(~np.isfinite(m)):
            m[k] = weighted_mean(grid, v[k], w[k])
    elif not math.isfinite(m) and np.isfinite(v).all():
        s = np.abs(v).max()
        m = s * (node_mean(grid, v / s * w) / node_mean(grid, w))
    return m


class Records:
    """Per-record quantities of a ``(K, *grid.shape)`` stack ``U`` of states.

    ``S`` is the curvature, ``w`` the volume weight u^(2n/(n-2)) and ``vol``
    the volume of every record; from the response function ``f``, which
    every stack carries, the f-domain test ``in_domain``, f(S) (``phi``),
    its mean ``A`` and ``dev`` = f(S) - A are evaluated on first use.  Integrals
    and means are ``node_mean`` and ``weighted_mean``, so each value is bit
    for bit what the same formula gives on that record alone.
    """

    def __init__(self, bg: Background, f, U: np.ndarray):
        self.bg, self.f, self.U = bg, f, U
        self.S, self.w = scalar_curvature_values(bg, U, with_weight=True)
        self.vol = node_mean(bg.grid, self.w)
        self.Smin, self.Smax = self.extremes(self.S)

    @classmethod
    def blocks(cls, bg: Background, f, U: np.ndarray):
        """Yield ``(slice, Records)`` for each ``grid.record_blocks`` block of U."""
        for sl in record_blocks(bg.grid, len(U)):
            yield sl, cls(bg, f, U[sl])

    @staticmethod
    def extremes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-record minimum and maximum of a stack."""
        flat = v.reshape(len(v), -1)
        return np.minimum.reduce(flat, axis=1), np.maximum.reduce(flat, axis=1)

    def per_record(self, a: np.ndarray) -> np.ndarray:
        """Per-record scalars shaped to broadcast against the stack."""
        return a.reshape((-1,) + (1,) * (self.U.ndim - 1))

    def integral(self, v: np.ndarray) -> np.ndarray:
        """Integral of each record of ``v`` against its evolving volume."""
        return node_mean(self.bg.grid, v * self.w)

    @np.errstate(over="ignore", invalid="ignore")  # weighted_mean mends an overflow
    def mean(self, v: np.ndarray) -> np.ndarray:
        return weighted_mean(self.bg.grid, v, self.w)

    @functools.cached_property
    def in_domain(self) -> np.ndarray:
        return self.f.domain.contains_interval(self.Smin, self.Smax)

    @functools.cached_property
    def phi(self) -> np.ndarray:
        """f(S); ``require_f_domain`` names the first record outside f's domain."""
        if not self.in_domain.all():
            k = int(np.argmin(self.in_domain))
            require_f_domain(self.f, self.Smin[k], self.Smax[k])
        return self.f.eval_f(self.S)

    @functools.cached_property
    def A(self) -> np.ndarray:
        return self.mean(self.phi)

    @functools.cached_property
    def dev(self) -> np.ndarray:
        return self.phi - self.per_record(self.A)
