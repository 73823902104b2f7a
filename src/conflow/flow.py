"""Time integration of the normalized and non-normalized conformal flows.

The state variable is the positive conformal factor u.  The normalized flow

    du/dt = (n-2)/4 * (f(S) - A) * u,     A = volume-weighted mean of f(S),

keeps the total volume fixed; dropping A gives the non-normalized flow.
Both are integrated by the method of lines with explicit Euler or classical
RK4, with the nonlocal mean A recomputed at every internal stage so that the
quadrature-exact volume stationarity is preserved at scheme order.

Per-step work of ``run``: ``_Kernel.evaluate`` turns a state into its
curvature S, volume weight, curvature range and f(S).  The evaluation of
the current state, with its volume weight and mean A only where A is read,
serves the stop tests, the step size and, unchanged, the first RK4 stage;
``advance`` adds three ``rhs`` calls, each one evaluation, so an RK4 step
costs four evaluations (Euler: one).  A logged step stores only its state,
plus its pre-correction volume when the run renormalizes; without
renormalization ``vol_pre`` is the ``vol`` column.  ``_Kernel.columns``
builds the diagnostics columns from the logged states after the loop with
``conformal.Records``, the theorem checks' evaluator; every A, of a stage
or of a record, is ``conformal.weighted_mean``.  ``rhs_normalized``,
``stable_dt``, ``step`` and the linearizations evaluate one state, checked.

Stability control: the principal part of the linearized right-hand side is a
diffusion with state-dependent coefficient

    kappa(x) = (n-1) * |f'(S)| * u**(1-beta),

so a run without a fixed dt takes dt = safety * h_min**2 / (2 * d * max kappa)
with d active spatial dimensions (the forward-Euler diffusion limit; RK4 has
a slightly larger real-axis stability interval and is run at the same dt).
A non-finite max kappa would make that step 0 or NaN, so it ends the run.

For homogeneous f of degree alpha, a non-normalized run can be mapped onto
the normalized flow by rescaling the solution with exp(-(n-2)/4 * eta) and
the time by d(tau)/dt = exp(-alpha * eta), where eta is the time integral of
the logged A series; ``hamilton_rescale`` implements this with trapezoid
quadrature (``cumtrapz``) and returns the tau times and each record's
rescaling factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (
    Background,
    ConformalState,
    FDomainError,
    Records,
    conformal_laplacian_values,
    require_f_domain,
    scalar_curvature_values,
    weighted_mean,
)
from .fzoo import FSpec, homogeneity_check
from .grid import PositivityError, ScalarField, node_mean, power

__all__ = [
    "RunConfig",
    "Trajectory",
    "ParabolicityError",
    "RECORD_COLUMNS",
    "BLOWUP_SUP",
    "POSITIVITY_FLOOR",
    "rhs_normalized",
    "stable_dt",
    "step",
    "run",
    "hamilton_rescale",
    "cumtrapz",
    "frechet_apply",
    "frechet_normalized_apply",
]

RECORD_COLUMNS = (
    "t", "dt", "Smin", "Smax", "A", "sigma", "vol",
    "fSA_sup", "lp2", "lpn2", "umin", "umax",
)

BLOWUP_SUP = 1e8
POSITIVITY_FLOOR = 1e-10
_MAX_STEPS = 5_000_000


class ParabolicityError(RuntimeError):
    """f' is not negative on the attained curvature range."""


@dataclass(frozen=True)
class RunConfig:
    """A run's settings.  ``dt`` is a fixed step; None takes the adaptive
    step, ``safety`` times the stability limit."""

    background: Background
    f: FSpec
    u0: ScalarField
    T_final: float
    dt: float | None = None
    safety: float = 0.8
    stop_tol: float = 1e-8
    renormalize_volume: bool = True
    log_cadence: int = 10
    scheme: str = "rk4"
    normalized: bool = True
    tau_stop: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.T_final) and self.T_final > 0.0):
            raise ValueError(f"T_final must be positive and finite, got {self.T_final!r}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"fixed dt policy needs a finite dt > 0, got {self.dt!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must lie in (0, 1]")
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0.0):
            raise ValueError(f"stop_tol must be nonnegative and finite, got {self.stop_tol!r}")
        if self.scheme not in ("euler", "rk4"):
            raise ValueError(f"scheme must be 'euler' or 'rk4', got {self.scheme!r}")
        if self.log_cadence < 1:
            raise ValueError("log_cadence must be >= 1")
        if self.u0.grid != self.background.grid:
            raise ValueError("u0 must live on the background grid")
        if self.u0.min() <= 0.0:
            raise PositivityError(f"u0 must be positive, its minimum is {self.u0.min():g}")
        if not self.normalized and self.renormalize_volume:
            raise ValueError("volume renormalization only applies to the normalized flow")
        if self.tau_stop is not None:
            if self.normalized:
                raise ValueError("tau_stop only applies to non-normalized runs")
            if self.f.alpha_homogeneous is None:
                raise ValueError(f"tau_stop needs a homogeneous f; {self.f.name}"
                                 " declares no homogeneity degree")
            if self.log_cadence != 1:
                raise ValueError("tau-stopped runs must log every step")


@dataclass
class Trajectory:
    """The run of ``config``: what it logged and how it ended.

    The config is the one source of the run's kind, grid, dimension n,
    background and f.  ``columns`` holds one array per RECORD_COLUMNS entry;
    ``snapshots`` has one u field per record.  Times are strictly increasing
    and every logged state is positive.  ``vol_pre`` keeps the conservation
    defect measurable: the pre-correction volume when renormalization is
    on (``vol_pre[0]`` is the volume after the initial renormalization, so
    the drift is the steps'), the ``vol`` column otherwise.
    """

    config: RunConfig
    termination: str
    columns: dict
    snapshots: np.ndarray
    vol_pre: np.ndarray
    notes: str = ""

    @property
    def kind(self) -> str:
        return "normalized" if self.config.normalized else "non_normalized"

    @property
    def times(self) -> np.ndarray:
        return self.columns["t"]

    @property
    def n_records(self) -> int:
        return len(self.columns["t"])


# ndarray.min/max bit for bit, without their Python-level wrappers
_min, _max = np.minimum.reduce, np.maximum.reduce


class _Kernel:
    """Raw-array evaluations of states shared by one run, whose per-step
    work the module docstring sets out; what does not depend on the state is
    bound once.  ``evaluate`` is the only code that turns a state into S, w,
    Smin, Smax and f(S).  Numpy's warnings follow the caller's errstate:
    ``run`` and the single-state entry points silence overflow."""

    def __init__(self, bg: Background, f: FSpec, normalized: bool):
        c = bg.constants
        self.bg = bg
        self.f = f
        self.normalized = normalized
        self.n = bg.n
        self.beta = c.beta
        self.m = c.vol_exp
        self.pref = c.pref
        self.eval_f, self.eval_fp = f.eval_f, f.eval_fp
        self.hmin2 = bg.grid.min_spacing ** 2
        self.two_d = 2.0 * bg.grid.active_dims

    def unit_scale(self, u: np.ndarray) -> tuple[float, float]:
        """The factor that scales u to unit volume, and the volume of u."""
        vol = float(node_mean(self.bg.grid, power(u, self.m)))
        return vol ** (-1.0 / self.m), vol

    def evaluate(self, u: np.ndarray, with_weight: bool = True, checked: bool = False):
        """``(S, w, Smin, Smax, phi)`` of u: its curvature S, volume weight w
        (None without ``with_weight``), the range of S and f(S) (None
        outside f's domain).  A ``checked`` evaluation raises instead:
        PositivityError for a nonpositive u, then ``require_f_domain``'s
        verdict on the range (FloatingPointError when it is non-finite)."""
        if checked and _min(u, None) <= 0.0:
            raise PositivityError("state outside positive cone")
        sw = scalar_curvature_values(self.bg, u, with_weight)
        S, w = sw if with_weight else (sw, None)
        Smin, Smax = float(_min(S, None)), float(_max(S, None))
        # only a finite range lies inside a domain
        if self.f.domain.contains_interval(Smin, Smax):
            return S, w, Smin, Smax, self.eval_f(S)
        if checked:
            require_f_domain(self.f, Smin, Smax)
        return S, w, Smin, Smax, None

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """(n-2)/4 * (f(S) - A) * u, or (n-2)/4 * f(S) * u when not normalized."""
        S, w, _, _, phi = self.evaluate(u, self.normalized, checked=True)
        if not self.normalized:
            return self.pref * phi * u
        return self.pref * (phi - weighted_mean(self.bg.grid, phi, w)) * u

    def advance(self, u: np.ndarray, dt: float, scheme: str, k1: np.ndarray) -> np.ndarray:
        """One Euler or RK4 step from u; k1 must be rhs(u)."""
        if scheme == "euler":
            return u + dt * k1
        k2 = self.rhs(u + 0.5 * dt * k1)
        k3 = self.rhs(u + 0.5 * dt * k2)
        k4 = self.rhs(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def stable_dt(self, u: np.ndarray, S: np.ndarray, safety: float) -> float:
        fp = self.eval_fp(S)
        if float(_max(fp, None)) >= 0.0:
            raise ParabolicityError("parabolicity lost: f' >= 0 on the attained S range")
        kappa = (self.n - 1.0) * np.abs(fp) * power(u, 1.0 - self.beta)
        kmax = float(_max(kappa, None))
        if not math.isfinite(kmax):  # the step would be 0 (inf) or NaN
            raise OverflowError(f"non-finite diffusivity: max kappa = {kmax:g}")
        return safety * self.hmin2 / (self.two_d * kmax)

    def columns(self, U: np.ndarray, t, dt_used) -> dict:
        """RECORD_COLUMNS of a ``(K, *grid.shape)`` stack of states at times
        ``t`` after steps ``dt_used``, evaluated one block of records at a
        time (``conformal.Records``); every per-record value is bit for bit
        what the formulas give on that record alone.  ``run`` says what the f
        columns of a record outside f's domain or with an overflowing f(S) hold."""
        K = len(U)
        cols = {k: np.full(K, math.nan) for k in RECORD_COLUMNS}
        cols["t"][:] = t
        cols["dt"][:] = dt_used
        halfn = 0.5 * self.n
        for sl, rec in Records.blocks(self.bg, self.f, U):
            ok = rec.in_domain
            if ok.any():
                fin = rec if ok.all() else Records(self.bg, self.f, rec.U[ok])
                cols["A"][sl][ok] = fin.A
                cols["fSA_sup"][sl][ok] = fin.extremes(np.abs(fin.dev))[1]
            cols["Smin"][sl], cols["Smax"][sl] = rec.Smin, rec.Smax
            cols["sigma"][sl] = rec.mean(rec.S)
            cols["vol"][sl] = rec.vol
            # Python float powers, record by record: numpy's `** 0.5` is a sqrt
            cols["lp2"][sl] = [v ** 0.5 for v in rec.integral(rec.S * rec.S).tolist()]
            cols["lpn2"][sl] = [v ** (1.0 / halfn)
                                for v in rec.integral(np.abs(rec.S) ** halfn).tolist()]
            cols["umin"][sl], cols["umax"][sl] = rec.extremes(rec.U)
        return cols


# ---------------------------------------------------------------------------
# Single-state entry points
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # weighted_mean mends an overflowing A
def rhs_normalized(bg: Background, state: ConformalState, f: FSpec) -> ScalarField:
    """(n-2)/4 * (f(S) - A) * u.  Volume-stationary by construction."""
    return ScalarField(bg.grid, _Kernel(bg, f, normalized=True).rhs(state.u.values))


def stable_dt(bg: Background, state: ConformalState, f: FSpec, safety: float = 0.8) -> float:
    """Forward-Euler diffusion limit for the state-dependent diffusivity.

    The parabolicity margin is evaluated on the attained grid values of S;
    a nonpositive margin raises ParabolicityError, a non-finite diffusivity
    OverflowError.
    """
    kern = _Kernel(bg, f, normalized=True)
    u = state.u.values
    return kern.stable_dt(u, kern.evaluate(u, with_weight=False, checked=True)[0], safety)


@np.errstate(over="ignore", invalid="ignore")
def step(bg: Background, state: ConformalState, f: FSpec, dt: float,
         scheme: str = "rk4", normalized: bool = True) -> ConformalState:
    """One explicit step; t advances by dt.  Raises PositivityError or
    FDomainError when the step leaves the admissible region.

    Stability is the caller's responsibility: Euler needs dt within
    stable_dt, RK4 tolerates moderately more (its real-axis stability
    interval is ~1.4x Euler's); run() stays at stable_dt for both.
    """
    if scheme not in ("euler", "rk4"):
        raise ValueError(f"scheme must be 'euler' or 'rk4', got {scheme!r}")
    kern = _Kernel(bg, f, normalized=normalized)
    u = state.u.values
    u_new = kern.advance(u, dt, scheme, kern.rhs(u))
    return ConformalState(ScalarField(bg.grid, u_new), state.t + dt)


# ---------------------------------------------------------------------------
# Linearizations
# ---------------------------------------------------------------------------

def _frechet_terms(bg: Background, u: ScalarField, h: ScalarField, f: FSpec):
    """The kernel, S, the volume weight w, L(h), f(S), f'(S) and DF(u)h, the
    derivative of u -> f(S)*u applied to h, from the checked evaluation of u."""
    kern = _Kernel(bg, f, normalized=False)
    uv, hv = u.values, h.values
    S, w, _, _, phi = kern.evaluate(uv, checked=True)
    Lh = conformal_laplacian_values(bg, hv)
    fp = kern.eval_fp(S)
    DF = phi * hv + fp * (power(uv, 1.0 - kern.beta) * Lh - kern.beta * S * hv)
    return kern, S, w, Lh, phi, fp, DF


def frechet_apply(bg: Background, u: ScalarField, h: ScalarField, f: FSpec) -> ScalarField:
    """Derivative of u -> f(S)*u applied to h:

        f(S)*h + f'(S) * (u**(1-beta) * L(h) - beta*S*h).
    """
    return ScalarField(bg.grid, _frechet_terms(bg, u, h, f)[-1])


@np.errstate(over="ignore", invalid="ignore")
def frechet_normalized_apply(bg: Background, u: ScalarField, h: ScalarField, f: FSpec) -> ScalarField:
    """Derivative of the full normalized right-hand-side factor u -> (f(S)-A)*u.

    Chain rule: DF(u)h - A*h - DA(h)*u, where DA collects the variations of
    f(S), of the volume density (2n/(n-2) * h/u per unit volume) and of the
    normalizing volume itself.
    """
    kern, S, w, Lh, phi, fp, DF = _frechet_terms(bg, u, h, f)
    uv, hv = u.values, h.values
    dS = power(uv, -kern.beta) * Lh - kern.beta * S * hv / uv
    A = weighted_mean(bg.grid, phi, w)
    dA = weighted_mean(bg.grid, fp * dS + kern.m * (phi - A) * hv / uv, w)
    return ScalarField(bg.grid, DF - A * hv - dA * uv)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def run(config: RunConfig) -> Trajectory:
    """Integrate until T_final, stationarity (normalized runs), failure, or
    the step budget.

    Deterministic for a fixed config.  Diagnostics are logged every
    log_cadence steps plus always at the first and terminal states; the
    terminal record of an f-domain violation carries NaN in the f columns,
    and a record whose f(S) itself overflows inside f's domain carries A =
    inf and fSA_sup = NaN.  A step whose result, or the curvature of one of
    whose RK4 stages, is non-finite is rejected and ends the run as
    ``blowup``, as does an adaptive step whose diffusivity kappa is
    non-finite (it would not advance t); a run still going after _MAX_STEPS
    accepted steps ends as ``step_budget``.  These tests read non-finite
    values themselves, so numpy's floating-point warnings are off.
    """
    bg, f = config.background, config.f
    kern = _Kernel(bg, f, normalized=config.normalized)
    u = np.array(config.u0.values, dtype=float)
    if config.renormalize_volume:
        u = u * kern.unit_scale(u)[0]
    # every later state's extremes come from the step that made it
    umin, umax = float(_min(u, None)), float(_max(u, None))

    # the logged states' bytes go into one buffer: the stack is held once
    times, dts, vol_pre, snaps = [], [], [], bytearray()
    last_pre = kern.unit_scale(u)[1]
    fixed_dt, safety = config.dt, config.safety

    track_tau = config.tau_stop is not None
    # inside the loop only the normalized factor and the tau bookkeeping read
    # A, and only A reads the volume weight; the logged A and vol columns
    # come from ``_Kernel.columns``
    needs_A = config.normalized or track_tau
    alpha = f.alpha_homogeneous
    eta = tau = prev_t = 0.0
    prev_A = math.nan

    t = dt_used = 0.0
    step_idx = 0
    termination = None
    notes = ""

    while True:
        S, w, Smin, Smax, phi = kern.evaluate(u, needs_A)
        # the first stage's factor: f(S) - A, or f(S) when not normalized
        A, factor = math.nan, None
        if phi is not None:
            if needs_A:
                A = weighted_mean(bg.grid, phi, w)
            factor = phi - A if config.normalized else phi

        if track_tau and step_idx > 0 and math.isfinite(prev_A) and math.isfinite(A):
            d = t - prev_t
            prev_eta = eta
            eta += 0.5 * (prev_A + A) * d
            tau += 0.5 * (math.exp(-alpha * prev_eta) + math.exp(-alpha * eta)) * d
        prev_t, prev_A = t, A

        if umin <= POSITIVITY_FLOOR:
            termination = "positivity_lost"
        elif umax > BLOWUP_SUP or max(abs(Smin), abs(Smax)) > BLOWUP_SUP:
            termination = "blowup"
        elif factor is None:
            termination = "f_domain_violation"
        elif config.normalized and float(_max(np.abs(factor), None)) <= config.stop_tol:
            termination = "stationary"
        elif t >= config.T_final - 1e-14:
            termination = "time_reached"
        elif track_tau and tau >= config.tau_stop:
            termination = "time_reached"
            notes = f"rescaled-time target tau={config.tau_stop:g} reached at t={t:g}"
        elif step_idx >= _MAX_STEPS:
            termination = "step_budget"
            notes = f"stopped after {step_idx} steps at t={t:g}"

        # a failed step keeps u, t, dt_used and last_pre: it logs the last accepted state
        if termination is None:
            try:
                dt = fixed_dt if fixed_dt is not None else kern.stable_dt(u, S, safety)
                # land exactly on the horizon: clip the step, and absorb a
                # near-exact hit instead of leaving a sliver interval
                remaining = config.T_final - t
                if remaining <= 1.05 * dt:
                    dt = remaining
                # u passed the positivity and domain tests, so its f(S) and A
                # give the first stage exactly as rhs(u) would
                u_new = kern.advance(u, dt, config.scheme, kern.pref * factor * u)
                # never accept (or log) a state at or under the positivity
                # floor, nor a non-finite one (NaN fails every comparison)
                umin, umax = float(_min(u_new, None)), float(_max(u_new, None))
                if umin <= POSITIVITY_FLOOR:
                    termination = "positivity_lost"
                elif not math.isfinite(umax):
                    termination = "blowup"
                    notes = f"non-finite state after the step from t={t:g}"
            except PositivityError:
                termination = "positivity_lost"
            except FDomainError:
                termination = "f_domain_violation"
            except FloatingPointError:
                termination = "blowup"
                notes = f"non-finite curvature in a stage of the step from t={t:g}"
            except OverflowError as exc:
                termination = "blowup"
                notes = f"{exc} at t={t:g}"
            except ParabolicityError as exc:
                termination = "f_domain_violation"
                notes = str(exc)
        if termination is not None or step_idx % config.log_cadence == 0:
            times.append(t)
            dts.append(dt_used)
            snaps.extend(u.data)
            # the volume before the correction that produced the state
            if config.renormalize_volume:
                vol_pre.append(last_pre)
        if termination is not None:
            break

        if config.renormalize_volume:
            # rounding is monotone, so the extremes of the scaled state are
            # the scaled extremes, bit for bit
            scale, last_pre = kern.unit_scale(u_new)
            u_new, umin, umax = u_new * scale, umin * scale, umax * scale
        u = u_new
        t += dt
        dt_used = dt
        step_idx += 1

    snapshots = np.frombuffer(snaps, dtype=float).reshape((len(times), *u.shape))
    columns = kern.columns(snapshots, times, dts)
    # without renormalization the drift lives in the vol column itself
    if not config.renormalize_volume:
        vol_pre = columns["vol"].copy()
    return Trajectory(
        config=config,
        termination=termination,
        columns=columns,
        snapshots=snapshots,
        vol_pre=np.asarray(vol_pre, dtype=float),
        notes=notes,
    )


def cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at zero."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


HOMOGENEITY_TOL = 1e-8


def hamilton_rescale(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Map a non-normalized trajectory onto the normalized flow.

    eta is the trapezoid integral of the logged A series, the new time is
    tau with d(tau)/dt = exp(-alpha*eta), and the conformal factor becomes
    exp(-(n-2)/4 * eta) * v.  Requires the run's f homogeneous of a known
    degree; both eta(0) and tau(0) are zero.  Returns tau and the factor
    ``scale`` per record: record k rescales to ``traj.snapshots[k] * scale[k]``.
    """
    if traj.kind != "non_normalized":
        raise ValueError("hamilton_rescale expects a non-normalized trajectory")
    f = traj.config.f
    alpha = f.alpha_homogeneous
    if alpha is None:
        raise ValueError(f"{f.name} declares no homogeneity degree")
    defect = homogeneity_check(f, alpha)
    if defect > HOMOGENEITY_TOL:
        raise ValueError(f"{f.name} is not {alpha:g}-homogeneous (defect {defect:.3g})")

    t = traj.times
    eta = cumtrapz(traj.columns["A"], t)
    tau = cumtrapz(np.exp(-alpha * eta), t)
    return tau, np.exp(-traj.config.background.constants.pref * eta)
