"""Time integration of the normalized and non-normalized conformal flows.

The state variable is the positive conformal factor u.  The normalized flow

    du/dt = (n-2)/4 * (f(S) - A) * u,     A = volume-weighted mean of f(S),

keeps the total volume fixed; dropping A gives the non-normalized flow.
Both are integrated by the method of lines with explicit Euler or classical
RK4, with the nonlocal mean A recomputed at every internal stage so that the
quadrature-exact volume stationarity is preserved at scheme order.

Per-step work of ``run``: ``_Kernel`` binds the background's exponents once
per run; ``_Kernel.evaluate`` turns a state into its curvature S, volume
weight (in a normalized kernel only), curvature range and f(S), and
``_Kernel.factor`` into the flow factor, f(S) - A or f(S).  The current
state's factor serves the stop tests, the step size and, unchanged, the
first RK4 stage; ``advance`` adds three ``rhs`` calls, so an RK4 step costs
four evaluations (Euler: one).  A normalized run scales u0 and each step to
unit volume (``conformal.unit_scale``) and logs with a step's state the
volume before the scaling; otherwise ``vol_pre`` is the ``vol`` column.
``_Kernel.columns`` builds the diagnostics columns from the logged states
after the loop with ``conformal.Records``, the theorem checks' evaluator;
every A is ``conformal.weighted_mean``.  ``rhs_normalized``, ``stable_dt``,
``step`` and the linearizations evaluate one state, checked.
A ``Trajectory``, whether ``run`` made it or it was read from disk, refuses
data that breaks its invariants.

Stability control: the principal part of the linearized right-hand side is a
diffusion with state-dependent coefficient

    kappa(x) = (n-1) * |f'(S)| * u**(1-beta),

so a run without a fixed dt takes dt = safety * h_min**2 / (2 * d * max kappa)
with d active spatial dimensions (the forward-Euler diffusion limit; RK4 has
a slightly larger real-axis stability interval and is run at the same dt).
A max kappa that is non-finite or 0 would make that step 0, NaN or inf, so
it ends the run.

For homogeneous f of degree alpha, a non-normalized run maps onto the
normalized flow by rescaling the solution with exp(-(n-2)/4 * eta) and the
time by d(tau)/dt = exp(-alpha * eta), where eta is the time integral of A.
As d log(vol)/dt = n/2 * A, exp(eta) is (vol/vol0)**(2/n): the rescaling is
each record's unit-volume scaling, read off the logged vol column, and
``hamilton_rescale`` returns it with the tau times (a trapezoid integral,
``cumtrapz``); a run itself knows no rescaled time.
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
    unit_scale,
    weighted_mean,
)
from .fzoo import FSpec, homogeneity_check
from .grid import PositivityError, ScalarField, power

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

SCHEMES = ("euler", "rk4")
BLOWUP_SUP = 1e8
POSITIVITY_FLOOR = 1e-10
_MAX_STEPS = 5_000_000


class ParabolicityError(RuntimeError):
    """f' is not negative on the attained curvature range."""


def _require_scheme(scheme: str):
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be {' or '.join(map(repr, SCHEMES))}, got {scheme!r}")


@dataclass(frozen=True)
class RunConfig:
    """A run's settings and their one set of defaults.  ``dt`` is a fixed
    step; None takes the adaptive step, ``safety`` times the stability
    limit.  A ``normalized`` run renormalizes, so its u0 must scale to a
    positive finite unit-volume state.  ``T_final`` is a run's one horizon."""

    background: Background
    f: FSpec
    u0: ScalarField
    T_final: float = 1.0
    dt: float | None = None
    safety: float = 0.8
    stop_tol: float = 1e-8
    log_cadence: int = 10
    scheme: str = "rk4"
    normalized: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.T_final) and self.T_final > 0.0):
            raise ValueError(f"T_final must be positive and finite, got {self.T_final!r}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"fixed dt policy needs a finite dt > 0, got {self.dt!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must lie in (0, 1]")
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0.0):
            raise ValueError(f"stop_tol must be nonnegative and finite, got {self.stop_tol!r}")
        _require_scheme(self.scheme)
        if self.log_cadence < 1:
            raise ValueError("log_cadence must be >= 1")
        if self.u0.grid != self.background.grid:
            raise ValueError("u0 must live on the background grid")
        umin, umax = self.u0.min(), self.u0.max()
        if umin <= 0.0:
            raise PositivityError(f"u0 must be positive, its minimum is {umin:g}")
        # the run scales u0 to unit volume: inside [1e-100, 1e100] the factor
        # is finite and keeps u0 positive, so only a u0 outside pays for the
        # power that finding the factor takes
        if self.normalized and not 1e-100 <= umin <= umax <= 1e100:
            with np.errstate(over="ignore"):
                scale = unit_scale(self.background, self.u0.values)[0]
            if not (math.isfinite(scale) and umin * scale > 0.0):
                raise ValueError(f"u0 of range [{umin:g}, {umax:g}] has no positive finite"
                                 f" unit-volume rescaling (factor {scale:g})")


@dataclass
class Trajectory:
    """The run of ``config``: what it logged and how it ended.

    The config is the one source of the run's kind, grid, dimension n,
    background and f.  ``columns`` holds one array per RECORD_COLUMNS entry;
    ``snapshots`` has one u field per record, positive and finite, at finite,
    strictly increasing times; other data raises ValueError.  ``vol_pre``
    keeps the conservation defect measurable: in a normalized run the volume
    before each renormalization (``vol_pre[0]`` is the volume after the
    initial one, so the drift is the steps'), otherwise the ``vol`` column.
    """

    config: RunConfig
    termination: str
    columns: dict
    snapshots: np.ndarray
    vol_pre: np.ndarray
    notes: str = ""

    def __post_init__(self):
        # K >= 1 records on the config's grid, one column entry per record,
        # and positive finite states (min > 0 fails on NaN, a finite max bounds it)
        snaps, shape = self.snapshots, self.config.background.grid.shape
        K = len(snaps) if snaps.ndim else 0
        if K < 1 or snaps.shape != (K, *shape):
            raise ValueError(f"snapshots of shape {snaps.shape} are not records on the {shape} grid")
        short = [k for k, v in (("vol_pre", self.vol_pre),
                                *((f"column {c}", self.columns.get(c)) for c in RECORD_COLUMNS))
                 if np.shape(v) != (K,)]
        if short:
            raise ValueError(f"{', '.join(short)} not of shape ({K},)")
        if not (snaps.min() > 0.0 and math.isfinite(snaps.max())):
            raise ValueError("a snapshot value is not positive and finite")
        t = np.asarray(self.times)
        if not (np.isfinite(t).all() and (t[1:] > t[:-1]).all()):
            raise ValueError("the times are not finite and strictly increasing")

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
    """Raw-array evaluations of the states of one run (the module docstring
    sets out its per-step work), with what does not depend on the state bound
    once.  ``evaluate`` is the only code that turns a state into S, w, Smin,
    Smax and f(S), ``factor`` the only one that takes f(S) - A; only a
    ``normalized`` kernel takes w and A.  Numpy's warnings follow the caller's
    errstate: ``run`` and every single-state entry point (``rhs_normalized``,
    ``stable_dt``, ``step`` and both linearizations) silence overflow and
    invalid values."""

    def __init__(self, bg: Background, f: FSpec, normalized: bool):
        self.bg, self.f, self.normalized = bg, f, normalized
        self.n, self.beta, self.pref = bg.n, bg.beta, bg.pref
        self.eval_f, self.eval_fp = f.eval_f, f.eval_fp
        self.hmin2 = bg.grid.min_spacing ** 2
        self.two_d = 2.0 * bg.grid.active_dims

    def evaluate(self, u: np.ndarray, checked: bool = False):
        """``(S, w, Smin, Smax, phi)`` of u: its curvature S, volume weight w
        (None when not normalized), the range of S and f(S) (None outside
        f's domain).  A ``checked`` evaluation raises instead: PositivityError
        for a nonpositive u, then ``require_f_domain``'s verdict on the range
        (FloatingPointError when it is non-finite)."""
        if checked and _min(u, None) <= 0.0:
            raise PositivityError("state outside positive cone")
        sw = scalar_curvature_values(self.bg, u, self.normalized)
        S, w = sw if self.normalized else (sw, None)
        Smin, Smax = float(_min(S, None)), float(_max(S, None))
        # only a finite range lies inside a domain
        if self.f.domain.contains_interval(Smin, Smax):
            return S, w, Smin, Smax, self.eval_f(S)
        if checked:
            require_f_domain(self.f, Smin, Smax)
        return S, w, Smin, Smax, None

    def factor(self, u: np.ndarray, checked: bool = False):
        """``(S, Smin, Smax, F)``: ``evaluate``'s S and its range, and the flow
        factor F, f(S) - A if normalized, else f(S) (None outside f's domain)."""
        S, w, Smin, Smax, F = self.evaluate(u, checked)
        if F is not None and self.normalized:
            F = F - weighted_mean(self.bg.grid, F, w)
        return S, Smin, Smax, F

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """(n-2)/4 * (f(S) - A) * u, or (n-2)/4 * f(S) * u when not normalized."""
        return self.pref * self.factor(u, checked=True)[3] * u

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
        if not 0.0 < kmax < math.inf:  # the step would be inf, 0 or NaN
            raise OverflowError(f"{'zero' if kmax == 0.0 else 'non-finite'} diffusivity:"
                                f" max kappa = {kmax:g}")
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


@np.errstate(over="ignore", invalid="ignore")
def stable_dt(bg: Background, state: ConformalState, f: FSpec, safety: float = 0.8) -> float:
    """Forward-Euler diffusion limit for the state-dependent diffusivity.

    The parabolicity margin is evaluated on the attained grid values of S;
    a nonpositive margin raises ParabolicityError, a non-finite or zero
    diffusivity OverflowError.
    """
    kern = _Kernel(bg, f, normalized=False)
    u = state.u.values
    return kern.stable_dt(u, kern.evaluate(u, checked=True)[0], safety)


@np.errstate(over="ignore", invalid="ignore")
def step(bg: Background, state: ConformalState, f: FSpec, dt: float,
         scheme: str = "rk4", normalized: bool = True) -> ConformalState:
    """One explicit step; t advances by dt.  Raises PositivityError or
    FDomainError when the step leaves the admissible region.

    Stability is the caller's responsibility: Euler needs dt within
    stable_dt, RK4 tolerates moderately more (its real-axis stability
    interval is ~1.4x Euler's); run() stays at stable_dt for both.
    """
    _require_scheme(scheme)
    kern = _Kernel(bg, f, normalized=normalized)
    u = state.u.values
    u_new = kern.advance(u, dt, scheme, kern.rhs(u))
    return ConformalState(ScalarField(bg.grid, u_new), state.t + dt)


# ---------------------------------------------------------------------------
# Linearizations
# ---------------------------------------------------------------------------

def _frechet_terms(bg: Background, uv: np.ndarray, hv: np.ndarray, f: FSpec):
    """The volume weight w, f(S), f'(S), the linearized curvature
    dS = u**(-beta) * L(h) - beta*S*h/u and DF(u)h = f(S)*h + f'(S)*u*dS, the
    derivative of u -> f(S)*u applied to h, from the checked evaluation of u."""
    S, w, _, _, phi = _Kernel(bg, f, normalized=True).evaluate(uv, checked=True)
    fp = f.eval_fp(S)
    dS = power(uv, -bg.beta) * conformal_laplacian_values(bg, hv) - bg.beta * S * hv / uv
    return w, phi, fp, dS, phi * hv + fp * uv * dS


@np.errstate(over="ignore", invalid="ignore")
def frechet_apply(bg: Background, u: ScalarField, h: ScalarField, f: FSpec) -> ScalarField:
    """Derivative of u -> f(S)*u applied to h: f(S)*h + f'(S)*u*dS, with dS
    the linearized curvature (``_frechet_terms``)."""
    return ScalarField(bg.grid, _frechet_terms(bg, u.values, h.values, f)[-1])


@np.errstate(over="ignore", invalid="ignore")
def frechet_normalized_apply(bg: Background, u: ScalarField, h: ScalarField, f: FSpec) -> ScalarField:
    """Derivative of the full normalized right-hand-side factor u -> (f(S)-A)*u.

    Chain rule: DF(u)h - A*h - DA(h)*u, where DA collects the variations of
    f(S), of the volume density (2n/(n-2) * h/u per unit volume) and of the
    normalizing volume itself.
    """
    uv, hv = u.values, h.values
    w, phi, fp, dS, DF = _frechet_terms(bg, uv, hv, f)
    A = weighted_mean(bg.grid, phi, w)
    dA = weighted_mean(bg.grid, fp * dS + bg.vol_exp * (phi - A) * hv / uv, w)
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
    if config.normalized:
        u = u * unit_scale(bg, u)[0]
        last_pre = unit_scale(bg, u)[1]
    # every later state's extremes come from the step that made it
    umin, umax = float(_min(u, None)), float(_max(u, None))

    # the logged states' bytes go into one buffer: the stack is held once
    times, dts, vol_pre, snaps = [], [], [], bytearray()
    fixed_dt, safety = config.dt, config.safety
    # a few ulps: a clipped last step from under T_final / 2 can miss T_final by one
    t_end = config.T_final - 4.0 * math.ulp(config.T_final)

    t = dt_used = 0.0
    step_idx = 0
    termination = None
    notes = ""

    while True:
        # the logged A and vol columns come from ``_Kernel.columns``
        S, Smin, Smax, factor = kern.factor(u)

        if umin <= POSITIVITY_FLOOR:
            termination = "positivity_lost"
        elif umax > BLOWUP_SUP or max(abs(Smin), abs(Smax)) > BLOWUP_SUP:
            termination = "blowup"
        elif factor is None:
            termination = "f_domain_violation"
        elif config.normalized and float(_max(np.abs(factor), None)) <= config.stop_tol:
            termination = "stationary"
        elif t >= t_end:
            termination = "time_reached"
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
            if config.normalized:
                vol_pre.append(last_pre)
        if termination is not None:
            break

        if config.normalized:
            # rounding is monotone, so the extremes of the scaled state are
            # the scaled extremes, bit for bit
            scale, last_pre = unit_scale(bg, u_new)
            u_new, umin, umax = u_new * scale, umin * scale, umax * scale
        u = u_new
        t += dt
        dt_used = dt
        step_idx += 1

    snapshots = np.frombuffer(snaps, dtype=float).reshape((len(times), *u.shape))
    columns = kern.columns(snapshots, times, dts)
    return Trajectory(
        config=config,
        termination=termination,
        columns=columns,
        snapshots=snapshots,
        # in a non-normalized run the drift lives in the vol column itself
        vol_pre=np.asarray(vol_pre, dtype=float) if config.normalized else columns["vol"].copy(),
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

    Record k's factor ``scale[k]`` = (vol_k/vol_0)**(-1/vol_exp) scales it to
    the first record's volume: ``traj.snapshots[k] * scale[k]`` is the
    rescaled state.  The new time tau, d(tau)/dt = (vol/vol_0)**(-2*alpha/n),
    is its trapezoid integral over the logged times.  Requires the run's f
    homogeneous of a known degree; tau[0] is 0 and scale[0] is 1.
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

    bg, vol = traj.config.background, traj.columns["vol"]
    ratio = vol / vol[0]
    return cumtrapz(ratio ** (-2.0 * alpha / bg.n), traj.times), ratio ** (-1.0 / bg.vol_exp)
