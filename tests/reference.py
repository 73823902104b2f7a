"""Reference formulas and fixtures that the tests check the kernels against.

These are field-level codings of the evolving-metric integrals, the
curvature means and the metric Laplacian, plus response-function helpers
(a shift by a constant, normalization at zero and a sampled parabolicity
margin).  No command reaches them: ``conflow run``, ``verify``, ``sweep`` and
``compare`` work on the raw-array kernels (``laplacian0_values``,
``scalar_curvature_values``, ``flow._Kernel``, ``record_means``).  Keeping
them apart from those kernels makes each comparison one between two
independent codings of the same formula.
"""

from dataclasses import replace

import numpy as np

from conflow.conformal import Background, ConformalState, require_f_domain, scalar_curvature_values
from conflow.fzoo import FSpec, Growth
from conflow.grid import (
    GridMismatchError,
    PositivityError,
    ScalarField,
    grad_inner_values,
    laplacian0_values,
    power,
)


# ---------------------------------------------------------------------------
# Evolving-metric quadrature
# ---------------------------------------------------------------------------

def _check_same_grid(a: ScalarField, b: ScalarField):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


def volume_weight(u: ScalarField, n: int) -> np.ndarray:
    """Evolving volume density u ** (2n/(n-2)) against the background weights."""
    if u.min() <= 0.0:
        raise PositivityError("state outside positive cone")
    return power(u.values, 2.0 * n / (n - 2.0))


def integrate_g(field: ScalarField, u: ScalarField, n: int | None = None) -> float:
    """Integral against the evolving volume measure defined by u."""
    _check_same_grid(field, u)
    m = n if n is not None else u.grid.ambient_n
    return float((field.values * volume_weight(u, m)).mean())


def lp_norm_g(field: ScalarField, p: float, u: ScalarField, n: int | None = None) -> float:
    """L^p norm with respect to the evolving volume measure."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    _check_same_grid(field, u)
    m = n if n is not None else u.grid.ambient_n
    w = volume_weight(u, m)
    return float((np.abs(field.values) ** p * w).mean() ** (1.0 / p))


# ---------------------------------------------------------------------------
# Conformal quantities of one state
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Response-function helpers
# ---------------------------------------------------------------------------

def check_decreasing(f: FSpec, lo: float, hi: float, samples: int = 1000) -> float:
    """Minimum of -f' over ``samples`` points of [lo, hi] (endpoints included).

    A positive return value certifies a parabolicity constant c with
    f' <= -c on the interval.
    """
    if not f.domain.contains_interval(lo, hi):
        raise ValueError(f"[{lo:g}, {hi:g}] is not inside the domain {f.domain} of {f.name}")
    xs = np.linspace(lo, hi, max(samples, 2))
    return float((-f.eval_fp(xs)).min())


def shift(f: FSpec, const: float) -> FSpec:
    """f + const; derivatives, domain and homogeneity degree are unchanged."""
    c = float(const)
    base = f.eval_f
    new_growth = None
    if f.growth is not None:
        new_growth = Growth(f.growth.mu, max(f.growth.nu - c, 0.0), f.growth.kappa)
    return replace(
        f,
        name=f"{f.name}{c:+g}",
        eval_f=lambda x, _b=base, _c=c: _b(x) + _c,
        growth=new_growth,
        bounded_below=None if f.bounded_below is None else f.bounded_below + c,
    )


def normalize_at_zero(f: FSpec) -> FSpec:
    """f - f(0); requires 0 to be in the domain."""
    if not f.domain.contains(0.0):
        raise ValueError(f"cannot normalize {f.name} at zero: 0 not in {f.domain}")
    return shift(f, -float(f.eval_f(0.0)))
