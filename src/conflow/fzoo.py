"""Registry of admissible strictly decreasing response functions.

Every ``FSpec`` bundles f with its first two derivatives, its domain, and
optional metadata: a homogeneity degree alpha with

    f(lambda x) - f(lambda y) == lambda**alpha * (f(x) - f(y)),

a growth certificate (mu, nu, kappa) asserting -f(x) <= mu*x**kappa + nu on
x >= 0 with 1 <= kappa <= n/2, and an infimum when f is bounded below.

Built-ins:

    classical            f(x) = -x                 (alpha = 1)
    power:kappa          f(x) = -x**kappa, x > 0   (alpha = kappa)
    reciprocal:a[,b]     f(x) = (x+a)**(-b)        (alpha = -b when a = 0)
    expdecay:a           f(x) = exp(-a*x)
    table                monotone-cubic interpolant of (x, f) pairs

Construction rejects any candidate whose sampled derivative is >= 0 anywhere
on the declared domain or at a closed finite end of it; monotonicity is
certified by dense sampling, not symbolic proof, since f is user-extensible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "Growth",
    "FSpec",
    "homogeneity_check",
    "classical",
    "power_law",
    "reciprocal",
    "expdecay",
    "from_table",
    "from_config",
]

_CERT_SAMPLES = 10_000
_CERT_WINDOW = 50.0


@dataclass(frozen=True)
class Interval:
    """Possibly unbounded interval with open or closed finite endpoints."""

    lo: float = -math.inf
    hi: float = math.inf
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x):
        """Whether x lies inside, elementwise for an array x."""
        above = x >= self.lo if (self.closed_lo and math.isfinite(self.lo)) else x > self.lo
        below = x <= self.hi if (self.closed_hi and math.isfinite(self.hi)) else x < self.hi
        return above & below

    def contains_interval(self, lo, hi):
        """Whether [lo, hi] lies inside, elementwise for arrays lo and hi."""
        return self.contains(lo) & self.contains(hi)

    def __str__(self):
        lb = "[" if (self.closed_lo and math.isfinite(self.lo)) else "("
        rb = "]" if (self.closed_hi and math.isfinite(self.hi)) else ")"
        return f"{lb}{self.lo:g}, {self.hi:g}{rb}"


@dataclass(frozen=True)
class Growth:
    """Certificate -f(x) <= mu*x**kappa + nu for x >= 0."""

    mu: float
    nu: float
    kappa: float

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0:
            raise ValueError("growth constants mu, nu must be nonnegative")
        if self.kappa < 1.0:
            raise ValueError("growth exponent kappa must be >= 1")


@dataclass(frozen=True)
class FSpec:
    """A strictly decreasing C^2 response function with metadata."""

    name: str
    eval_f: Callable[[np.ndarray], np.ndarray]
    eval_fp: Callable[[np.ndarray], np.ndarray]
    eval_fpp: Callable[[np.ndarray], np.ndarray]
    domain: Interval = Interval()
    alpha_homogeneous: float | None = None
    growth: Growth | None = None
    bounded_below: float | None = None


@np.errstate(all="ignore")  # the certificate tests the samples for non-finite values
def _certify_decreasing(f: FSpec, rng: np.random.Generator | None = None) -> FSpec:
    lo = max(f.domain.lo, -_CERT_WINDOW)
    hi = min(f.domain.hi, max(lo + 2.0 * _CERT_WINDOW, _CERT_WINDOW))
    # midpoints, so open endpoints are never touched
    t = (np.arange(_CERT_SAMPLES) + 0.5) / _CERT_SAMPLES
    pts = lo + (hi - lo) * t
    if rng is not None:
        extra = rng.uniform(1e-9, 1.0 - 1e-9, size=_CERT_SAMPLES // 10)
        pts = np.concatenate([pts, lo + (hi - lo) * extra])
    # and every closed finite end, where parabolicity needs f' < 0 as well
    d = f.domain
    ends = [x for x, closed in ((d.lo, d.closed_lo), (d.hi, d.closed_hi))
            if closed and math.isfinite(x)]
    fp = f.eval_fp(np.concatenate([pts, ends]))
    if not np.all(np.isfinite(fp)) or fp.max() >= 0.0:
        raise ValueError(f"{f.name}: sampled derivative is >= 0 somewhere on {f.domain}")
    return f


def _homogeneity_triples(domain: Interval) -> list[tuple[float, float, float]]:
    """(lambda, x, y) triples inside the domain, used by homogeneity_check."""
    if domain.contains(0.0):
        pairs = [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)]
    else:
        pairs = [(0.5, 2.0), (1.0, 3.0), (2.0, 5.0)]
    triples = []
    for lam in (0.5, 2.0, 3.0):
        for x, y in pairs:
            if all(domain.contains(v) for v in (x, y, lam * x, lam * y)):
                triples.append((lam, x, y))
    return triples


def homogeneity_check(f: FSpec, alpha: float) -> float:
    """Max defect |f(lx) - f(ly) - l**alpha (f(x) - f(y))| over sample triples
    inside the domain of f."""
    triples = _homogeneity_triples(f.domain)
    if not triples:
        raise ValueError("no admissible homogeneity triples inside the domain")
    worst = 0.0
    for lam, x, y in triples:
        lhs = float(f.eval_f(lam * x) - f.eval_f(lam * y))
        rhs = lam ** alpha * float(f.eval_f(x) - f.eval_f(y))
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------

def classical() -> FSpec:
    """f(x) = -x, the classical choice."""
    return _certify_decreasing(FSpec(
        name="classical",
        eval_f=lambda x: -np.asarray(x, dtype=float),
        eval_fp=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        eval_fpp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        alpha_homogeneous=1.0,
        growth=Growth(mu=1.0, nu=0.0, kappa=1.0),
    ))


def power_law(kappa: float) -> FSpec:
    """f(x) = -x**kappa on positive x; homogeneous of degree kappa.

    For kappa > 1 the derivative vanishes at 0, so the domain is open there.
    """
    k = float(kappa)
    if k < 1.0:
        raise ValueError("power-law exponent must be >= 1")
    domain = Interval(0.0, math.inf, closed_lo=(k == 1.0))
    return _certify_decreasing(FSpec(
        name=f"power:{k:g}",
        eval_f=lambda x: -np.power(np.asarray(x, dtype=float), k),
        eval_fp=lambda x: -k * np.power(np.asarray(x, dtype=float), k - 1.0),
        eval_fpp=lambda x: -k * (k - 1.0) * np.power(np.asarray(x, dtype=float), k - 2.0),
        domain=domain,
        alpha_homogeneous=k,
        growth=Growth(mu=1.0, nu=0.0, kappa=k),
    ))


def reciprocal(alpha: float, exponent: float = 1.0) -> FSpec:
    """f(x) = (x + alpha)**(-exponent) on x > -alpha; bounded below by 0.

    Homogeneous (of degree -exponent) only for alpha = 0.
    """
    a, b = float(alpha), float(exponent)
    if b <= 0.0:
        raise ValueError("reciprocal exponent must be positive")
    return _certify_decreasing(FSpec(
        name=f"reciprocal:{a:g}" + (f",{b:g}" if b != 1.0 else ""),
        eval_f=lambda x: np.power(np.asarray(x, dtype=float) + a, -b),
        eval_fp=lambda x: -b * np.power(np.asarray(x, dtype=float) + a, -b - 1.0),
        eval_fpp=lambda x: b * (b + 1.0) * np.power(np.asarray(x, dtype=float) + a, -b - 2.0),
        domain=Interval(-a, math.inf, closed_lo=False),
        alpha_homogeneous=(-b if a == 0.0 else None),
        growth=Growth(mu=0.0, nu=0.0, kappa=1.0),
        bounded_below=0.0,
    ))


def expdecay(alpha: float) -> FSpec:
    """f(x) = exp(-alpha*x); bounded below by 0, not homogeneous."""
    a = float(alpha)
    if a <= 0.0:
        raise ValueError("expdecay rate must be positive")
    return _certify_decreasing(FSpec(
        name=f"expdecay:{a:g}",
        eval_f=lambda x: np.exp(-a * np.asarray(x, dtype=float)),
        eval_fp=lambda x: -a * np.exp(-a * np.asarray(x, dtype=float)),
        eval_fpp=lambda x: a * a * np.exp(-a * np.asarray(x, dtype=float)),
        growth=Growth(mu=0.0, nu=0.0, kappa=1.0),
        bounded_below=0.0,
    ))


@np.errstate(all="ignore")  # an overflowing interpolant fails its certificate
def from_table(xs, fs, seed: int | None = None) -> FSpec:
    """Monotone-cubic interpolant through (x, f) pairs.

    Rejected unless the data and the interpolant are strictly decreasing.
    """
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 3:
        raise ValueError("table needs at least 3 matching (x, f) pairs")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("table abscissae must be strictly increasing")
    if not np.all(np.diff(fs) < 0):
        raise ValueError("table values are not strictly decreasing")
    interp = PchipInterpolator(xs, fs)
    rng = None if seed is None else np.random.default_rng(seed)
    return _certify_decreasing(FSpec(
        name="table",
        eval_f=interp,
        eval_fp=interp.derivative(1),
        eval_fpp=interp.derivative(2),
        domain=Interval(float(xs[0]), float(xs[-1])),
    ), rng=rng)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def from_config(cfg: dict, seed: int | None = None) -> FSpec:
    """Build an FSpec from a config table like {"name": "power", "kappa": 1.5}."""
    if not isinstance(cfg, dict):
        raise ValueError(f"response function config must be a table, got {cfg!r}")
    for key in ("kappa", "alpha", "exponent", "x", "f"):
        value = cfg.get(key, 0)
        if any(isinstance(v, bool) or not isinstance(v, (int, float))
               for v in (value if isinstance(value, list) else [value])):
            raise ValueError(f"'f.{key}' must be a JSON number (a table's x and f lists"
                             f" of them), got {value!r}")
    name = cfg.get("name")
    if name == "classical":
        return classical()
    if name == "power":
        return power_law(cfg["kappa"])
    if name == "reciprocal":
        return reciprocal(cfg.get("alpha", 0.0), cfg.get("exponent", 1.0))
    if name == "expdecay":
        return expdecay(cfg.get("alpha", 1.0))
    if name == "table":
        return from_table(cfg["x"], cfg["f"], seed=seed)
    raise ValueError(f"unknown response function {name!r}")
