"""Reference formulas and fixtures that the tests check the kernels against.

These are field-level codings of the evolving-metric integrals, the
curvature means and the metric Laplacian, plus response-function helpers
(a shift by a constant, normalization at zero and a sampled parabolicity
margin).  No command reaches them: ``conflow run``, ``verify``, ``sweep`` and
``compare`` work on the raw-array kernels (``laplacian0_values``,
``scalar_curvature_values``, ``flow._Kernel``, ``grid.node_mean`` and
``conformal.weighted_mean``).  Keeping
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
# The flow's kernel on one state, from numpy primitives
# ---------------------------------------------------------------------------
#
# np.roll stencils and explicit product chains, apart from the package's
# operators (grid.laplacian0_values, grid.power, scalar_curvature_values),
# in the order of operations the package promises, so that every value
# matches flow._Kernel bit for bit.

def chain_power(v: np.ndarray, exponent: float) -> np.ndarray:
    """v ** exponent: repeated products, and a reciprocal for a negative
    exponent, when the exponent is an integer of size at most 8; np.power
    otherwise."""
    k = round(exponent)
    if abs(exponent - k) >= 1e-13 or abs(k) > 8:
        return np.power(v, exponent)
    out = np.ones_like(v)
    if k != 0:
        out = v
        for _ in range(abs(k) - 1):
            out = out * v
    return out if k >= 0 else 1.0 / out


def rolled_laplacian(grid, v: np.ndarray) -> np.ndarray:
    """Three-point periodic Laplacian by np.roll, summed over the active axes."""
    return sum((np.roll(v, -1, ax) - 2.0 * v + np.roll(v, 1, ax)) / (h * h)
               for ax, h in zip(range(-grid.active_dims, 0), grid.spacing))


def curvature(bg: Background, u: np.ndarray) -> np.ndarray:
    """u^(-beta) * (S0*u - c_n * Laplacian(u))."""
    c = bg.constants
    return chain_power(u, -c.beta) * (bg.S0.values * u - c.c_n * rolled_laplacian(bg.grid, u))


def flow_terms(bg: Background, f, u: np.ndarray) -> dict:
    """S, the volume weight and its mean, f(S), its weighted mean A and
    sup |f(S) - A| of one state inside f's domain."""
    S = curvature(bg, u)
    w = chain_power(u, bg.constants.vol_exp)
    phi = f.eval_f(S)
    A = float((phi * w).mean() / w.mean())
    return {"S": S, "wm": float(w.mean()), "phi": phi, "A": A,
            "fSA_sup": float(np.abs(phi - A).max())}


def flow_rhs(bg: Background, f, u: np.ndarray, normalized: bool) -> np.ndarray:
    """(n-2)/4 * (f(S) - A) * u, or (n-2)/4 * f(S) * u when not normalized."""
    t = flow_terms(bg, f, u)
    return 0.25 * (bg.n - 2.0) * (t["phi"] - t["A"] if normalized else t["phi"]) * u


def flow_stable_dt(bg: Background, f, u: np.ndarray, safety: float) -> float:
    """safety * h_min^2 / (2 d max kappa), kappa = (n-1) |f'(S)| u^(1-beta)."""
    kappa = (bg.n - 1.0) * np.abs(f.eval_fp(curvature(bg, u))) \
        * chain_power(u, 1.0 - bg.constants.beta)
    return safety * bg.grid.min_spacing ** 2 / (2.0 * bg.grid.active_dims * float(kappa.max()))


def rk4_step(rhs, u: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def renormalized(bg: Background, u: np.ndarray) -> tuple[np.ndarray, float]:
    """u scaled to unit volume, and its volume before the scaling."""
    vol = float(chain_power(u, bg.constants.vol_exp).mean())
    return u * vol ** (-1.0 / bg.constants.vol_exp), vol


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
