"""Theorem checks over logged trajectories.

Every checker is a pure function of the trajectory, which carries the
background and f in ``traj.config``; rerunning it yields a bit-identical
report.  Checkers never raise on a failing property; they return a
TheoremReport whose ``passed`` field is True, False, or None (inconclusive,
for misapplied hypotheses or fits that explain the data poorly).

Discretization slack: the theorem inequalities hold in the continuum; the
min/max checks use an additive tolerance 1e-6 + 3e-3 * h**2.  The h**2
coefficient was calibrated once by a resolution study (the chosen stencils
satisfy the discrete maximum principle exactly, so measured violations sit
orders of magnitude below this allowance; see tests).

Checks that evaluate operators on the logged snapshots do so in blocks of
records through ``conformal.Records`` (``Records.blocks``): each operator is
called once per block on a ``(B, *grid.shape)`` stack, and the curvature,
the volume weight, the mean A and the f-domain test of every record are the
same evaluation the diagnostics columns use, bit for bit the
record-by-record values.  A ``Trajectory`` holds only positive finite states at
strictly increasing times: the one bad record a checker meets is one outside f's domain.
"""

import functools
import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .conformal import Background, Records
from .flow import Trajectory, cumtrapz, hamilton_rescale, run
from .fzoo import FSpec
from .grid import ScalarField, grad_inner_values, node_mean, power

__all__ = [
    "TheoremReport",
    "DecayFit",
    "predicted_decay_constants",
    "check_minmax_principle",
    "fit_decay",
    "compare_decay",
    "check_u_bounds",
    "check_evolution_identities",
    "check_Lnhalf_monotone",
    "check_positive_S_bounds",
    "check_flat_identity",
    "compare_rescaled",
    "check_rescale_equivalence",
    "check_stationary_limit",
    "sobolev_program_series",
    "run_checks",
    "CHECK_NAMES",
]

MINMAX_BASE_TOL = 1e-6
MINMAX_H2_COEF = 3e-3
DECAY_RATE_FRACTION = 0.9
DECAY_ENVELOPE_FACTOR = 1.1
DECAY_RESIDUAL_LIMIT = 0.1
DECAY_FLOOR = 1e-300  # fSA_sup at the stationarity floor, too small to fit
DECAY_SKIP_FRACTION = 0.1  # the initial transient fit_decay leaves out
DECAY_SAMPLES = 10001  # points of the curvature range f' is sampled on
STATIONARY_TOL = 1e-6
RESCALE_TOL = 1e-4
RESCALE_MARGIN = 3.0  # normalized steps the rescale companion runs past T
RESCALE_RERUNS = 4
IDENTITY_REL_TOL = 1e-3
EXACT_TOL = 1e-8
FLAT_INTEGRAL_TOL = 1e-9
BISECTION_TOL = 1e-12

BACKGROUND_CAVEAT = (
    "background is a prescribed curvature field paired with the flat lattice"
    " Laplacian (synthetic conformal data); all checked identities use only"
    " the conformal Laplacian, the volume weights and the discrete maximum"
    " principle, which this pairing possesses"
)


@dataclass
class TheoremReport:
    # the check's registration (``_check``) stamps id and segment
    id: str = field(default="", kw_only=True)
    passed: bool | None
    measured: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    notes: str = ""
    segment: dict = field(default_factory=dict, kw_only=True)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DecayFit:
    C_fit: float
    B_fit: float
    window: tuple[float, float]
    residual: float
    n_points: int


def _segment(traj: Trajectory) -> dict:
    return {
        "t0": float(traj.times[0]),
        "t1": float(traj.times[-1]),
        "records": int(traj.n_records),
        "termination": traj.termination,
    }


def _stamp(report: TheoremReport, report_id: str, traj: Trajectory) -> TheoremReport:
    report.id, report.segment = report_id, _segment(traj)
    return report


class _Check(NamedTuple):
    report_id: str
    checker: str  # the module attribute, looked up when called so a patched one is used


# Every check by short name, in definition order (the order help texts list them)
_CHECKS: dict[str, _Check] = {}


def _check(name: str, report_id: str, normalized_only: bool = True):
    """Register the decorated checker as check ``name``.  Every report it
    returns carries ``report_id`` and the trajectory's segment; unless
    ``normalized_only`` is False, a trajectory that is not normalized is
    reported inconclusive without running the checker."""
    def register(checker):
        @functools.wraps(checker)
        def stamped(traj):
            if normalized_only and traj.kind != "normalized":
                report = TheoremReport(None, notes="requires a normalized trajectory,"
                                                   f" got {traj.kind}")
            else:
                report = checker(traj)
            return _stamp(report, report_id, traj)
        _CHECKS[name] = _Check(report_id, checker.__name__)
        return stamped
    return register


# ---------------------------------------------------------------------------
# Min/max principle
# ---------------------------------------------------------------------------

@_check("minmax", "minmax_principle")
def check_minmax_principle(traj: Trajectory) -> TheoremReport:
    """Maximum-principle consequences for the curvature extremes.

    While S_max <= 0 it must not increase; while S_min <= 0 it must not
    decrease; a nonnegative initial curvature stays nonnegative; and in the
    negative case S(t) remains inside the initial range, all within the
    discretization tolerance.
    """
    h = traj.config.background.grid.min_spacing
    eta = MINMAX_BASE_TOL + MINMAX_H2_COEF * h * h
    smin = traj.columns["Smin"]
    smax = traj.columns["Smax"]
    s0min, s0max = float(smin[0]), float(smax[0])

    measured = {}
    checks = []

    nonpos_max = smax[:-1] <= eta
    if nonpos_max.any():
        rises = np.where(nonpos_max, np.diff(smax), -np.inf)
        measured["max_rise_of_Smax"] = float(rises.max())
        checks.append(measured["max_rise_of_Smax"] <= eta)
    nonpos_min = smin[:-1] <= eta
    if nonpos_min.any():
        drops = np.where(nonpos_min, -np.diff(smin), -np.inf)
        measured["max_drop_of_Smin"] = float(drops.max())
        checks.append(measured["max_drop_of_Smin"] <= eta)
    if s0min >= 0.0:
        measured["min_of_Smin"] = float(smin.min())
        checks.append(measured["min_of_Smin"] >= -eta)
    if s0max < 0.0:
        measured["containment_low_margin"] = float((smin - s0min).min())
        measured["containment_high_margin"] = float((s0max - smax).min())
        checks.append(measured["containment_low_margin"] >= -eta)
        checks.append(measured["containment_high_margin"] >= -eta)

    return TheoremReport(bool(all(checks)) if checks else True, measured,
                         {"initial_range": [s0min, s0max]}, {"eta": eta})


# ---------------------------------------------------------------------------
# Exponential decay (negative case)
# ---------------------------------------------------------------------------

def predicted_decay_constants(bg: Background, f: FSpec):
    """(B, C) from the background curvature range [S0_min, S0_max]:
    the rate B = -c * S0_max with -c the largest value of f' on the range,
    and the amplitude C = max|f'| * (S0_max - S0_min)."""
    lo, hi = bg.S0.min(), bg.S0.max()
    xs = np.linspace(lo, hi, DECAY_SAMPLES) if hi > lo else np.array([lo])
    fp = f.eval_fp(xs)
    B = float(fp.max()) * hi if hi < 0 else math.nan
    C = float(np.abs(fp).max()) * (hi - lo)
    return B, C


def fit_decay(traj: Trajectory) -> DecayFit:
    """Least squares on log ||f(S)-A||_inf vs t, skipping the initial
    transient (the first 10 percent of the run)."""
    t = traj.times
    y = traj.columns["fSA_sup"]
    t0 = t[0] + DECAY_SKIP_FRACTION * (t[-1] - t[0])
    mask = (t >= t0) & np.isfinite(y) & (y > DECAY_FLOOR)
    n_pts = int(mask.sum())
    if n_pts < 3:
        return DecayFit(C_fit=0.0, B_fit=0.0, window=(float(t0), float(t[-1])),
                        residual=0.0, n_points=n_pts)
    tt, yy = t[mask], np.log(y[mask])
    slope, intercept = np.polyfit(tt, yy, 1)
    resid = float(np.sqrt(np.mean((yy - (slope * tt + intercept)) ** 2)))
    return DecayFit(C_fit=float(np.exp(intercept)), B_fit=float(-slope),
                    window=(float(tt[0]), float(tt[-1])), residual=resid, n_points=n_pts)


@_check("decay", "exponential_decay")
def compare_decay(traj: Trajectory) -> TheoremReport:
    """Negative case: ||f(S)-A||_inf must decay at least at the predicted
    rate B, under the predicted envelope C * exp(-B t) up to a factor 1.1.
    Fits with log-residual above 0.1 are inconclusive.  With under 3 points
    to fit, the envelope alone decides: a series that reached the floor holds
    vacuously under it; any other short series fails above it and is
    inconclusive under it."""
    bg, f = traj.config.background, traj.config.f
    if bg.case_tag != "negative":
        return TheoremReport(None, notes="decay prediction needs a negative background,"
                                         f" got {bg.case_tag}")
    fit = fit_decay(traj)
    B_pred, C_pred = predicted_decay_constants(bg, f)
    t = traj.times
    y = traj.columns["fSA_sup"]
    env = DECAY_ENVELOPE_FACTOR * C_pred * np.exp(-B_pred * t) + 1e-12
    env_margin = float((env - y).min())

    measured = {
        "B_fit": fit.B_fit,
        "C_fit": fit.C_fit,
        "residual": fit.residual,
        "n_points": fit.n_points,
        "envelope_margin": env_margin,
    }
    predicted = {"B": B_pred, "C": C_pred}
    tolerances = {
        "rate_fraction": DECAY_RATE_FRACTION,
        "envelope_factor": DECAY_ENVELOPE_FACTOR,
        "residual_limit": DECAY_RESIDUAL_LIMIT,
    }
    if fit.n_points < 3:
        if not np.any((t >= fit.window[0]) & (y <= DECAY_FLOOR)):  # a short run
            over = env_margin < 0.0  # False for a NaN margin
            note = (f"too few points to fit a rate: {fit.n_points} in the window"
                    f" of a {traj.n_records}-record run; "
                    + ("the envelope is exceeded" if over else "inconclusive"))
            return TheoremReport(False if over else None, measured, predicted, tolerances, note)
        note = "series at the stationarity floor; decay holds vacuously"
        return TheoremReport(env_margin >= 0.0, measured, predicted, tolerances, note)
    if fit.residual > DECAY_RESIDUAL_LIMIT:
        return TheoremReport(None, measured, predicted, tolerances,
                             "fit residual too large; inconclusive")
    passed = fit.B_fit >= DECAY_RATE_FRACTION * B_pred and env_margin >= 0.0
    return TheoremReport(bool(passed), measured, predicted, tolerances)


# ---------------------------------------------------------------------------
# Conformal factor bounds
# ---------------------------------------------------------------------------

def _f_at_zero(f: FSpec) -> tuple[float | None, str]:
    """f(0) and a note for the positive-case checks, which normalize f at
    zero.  Where 0 is an open end of f's domain, f's own value there is the
    boundary limit when it is finite (-0.0 for a power law of exponent
    above 1); an infinite or NaN one, like that of ``reciprocal`` with alpha
    0, gives None and a note saying why, as does a 0 outside the domain."""
    if f.domain.contains(0.0):
        return float(f.eval_f(0.0)), ""
    if 0.0 not in (f.domain.lo, f.domain.hi):
        return None, "0 outside the domain of f"
    with np.errstate(all="ignore"):
        f0 = float(f.eval_f(0.0))
    if not math.isfinite(f0):
        return None, f"f has no finite value at 0 (f(0) = {f0:g})"
    return f0, "f(0) taken as the boundary limit"


@_check("u_bounds", "conformal_factor_bounds")
def check_u_bounds(traj: Trajectory) -> TheoremReport:
    """Case-dependent bounds on the conformal factor.

    negative: u inside exp(+-(n-2)C/(4B)) with the predicted constants, and
    ||du/dt||_inf under the matching exponential envelope.
    flat: the ratio u_min/u_max never drops below its initial value, and
    u_min**(2n/(n-2)) stays above that ratio's power times the volume.
    positive with f bounded below: u inside exp(+-(n-2)/4 * (f(0)-inf f) * t).
    """
    bg, f = traj.config.background, traj.config.f
    pref = bg.pref
    t = traj.times
    umin = traj.columns["umin"]
    umax = traj.columns["umax"]

    if bg.case_tag == "negative":
        B_pred, C_pred = predicted_decay_constants(bg, f)
        half_width = pref * C_pred / B_pred
        lo, hi = math.exp(-half_width), math.exp(half_width)
        # sup |du/dt| per record; ``rec.dev`` raises at the first one outside f's domain
        dudt = np.concatenate([rec.extremes(np.abs(pref * rec.dev * rec.U))[1]
                               for _, rec in Records.blocks(bg, f, traj.snapshots)])
        ctilde = pref * C_pred * hi
        env = DECAY_ENVELOPE_FACTOR * ctilde * np.exp(-B_pred * t) + 1e-12
        measured = {
            "umin_min": float(umin.min()),
            "umax_max": float(umax.max()),
            "dudt_envelope_margin": float((env - dudt).min()),
        }
        passed = (measured["umin_min"] >= lo - 1e-12
                  and measured["umax_max"] <= hi + 1e-12
                  and measured["dudt_envelope_margin"] >= 0.0)
        return TheoremReport(bool(passed), measured,
                             {"band": [lo, hi], "B": B_pred, "C": C_pred, "ctilde": ctilde},
                             {"envelope_factor": DECAY_ENVELOPE_FACTOR})

    if bg.case_tag == "flat":
        vol = traj.columns["vol"]
        m = bg.vol_exp
        r = umin / umax
        r0 = float(r[0])
        k_const = r0 ** m
        measured = {
            "ratio_initial": r0,
            "ratio_min_margin": float((r - r0).min()),
            "umin_power_margin": float((umin ** m - k_const * vol).min()),
            "volume_max_dev": float(np.abs(vol - 1.0).max()),
        }
        passed = (measured["ratio_min_margin"] >= -EXACT_TOL
                  and measured["umin_power_margin"] >= -EXACT_TOL)
        return TheoremReport(bool(passed), measured, {"k": k_const}, {"slack": EXACT_TOL})

    if bg.case_tag == "positive":
        if f.bounded_below is None:
            return TheoremReport(None, notes="positive-case band needs f bounded below")
        f0, f0_note = _f_at_zero(f)
        if f0 is None:
            return TheoremReport(None, notes=f"positive-case band needs f(0): {f0_note}")
        if abs(float(umin[0]) - 1.0) > 1e-9 or abs(float(umax[0]) - 1.0) > 1e-9:
            return TheoremReport(None, notes="positive-case band assumes u(0) = 1")
        rate = pref * (f0 - f.bounded_below)
        lo_env = np.exp(-rate * t)
        hi_env = np.exp(rate * t)
        measured = {
            "low_margin": float((umin - lo_env).min()),
            "high_margin": float((hi_env - umax).min()),
        }
        passed = measured["low_margin"] >= -1e-12 and measured["high_margin"] >= -1e-12
        note = ("band rate (n-2)/4 * (f(0) - inf f) follows from the u evolution"
                " equation; the transposed constant 4/(n-2) is intentionally not used")
        return TheoremReport(bool(passed), measured, {"rate": rate}, {"slack": 1e-12}, note)

    return TheoremReport(None, notes=f"no u-bound is formulated for the {bg.case_tag} case")


# ---------------------------------------------------------------------------
# Evolution identities
# ---------------------------------------------------------------------------

def _truncation_floor(rhs: np.ndarray, t: np.ndarray) -> float:
    """Estimated size of the three-point stencil's truncation error,
    |dp*dm/6 * Q'''|, with Q''' read off the analytic rate series."""
    if rhs.size < 3:
        return 0.0
    dp = t[2:] - t[1:-1]
    dm = t[1:-1] - t[:-2]
    d2 = 2.0 * (dm * rhs[2:] - (dp + dm) * rhs[1:-1] + dp * rhs[:-2]) / (dp * dm * (dp + dm))
    return float((dp * dm / 6.0 * np.abs(d2)).max())


@_check("identities", "evolution_identities")
def check_evolution_identities(traj: Trajectory) -> TheoremReport:
    """Centered time differences of the logged functionals against their
    analytic rates.

    Quantities: the mean A of f(S), the mean curvature sigma (both displayed
    forms), the volume, the integrals of |S|^p for p in {2, n/2} with
    p >= 2, and the integrals of |S-sigma|^2 and |f(S)-A)|^2, all against
    the evolving volume.  The rate of the |S|^p integral carries |S|^(p-2),
    which is unbounded at S = 0 for p < 2, so n = 3 leaves p = 1.5 out with
    a note.  The deviation families stay at p = 2: for fractional p their
    integrands |.|^(p-2) kink at the sign crossings the deviations always
    have, and the discrete quadrature of a kink is not second-order
    accurate.  All rates are evaluated with the same discrete gradient and
    quadrature operators the flow uses.
    """
    bg, f = traj.config.background, traj.config.f
    n = bg.n
    K = traj.n_records
    if K < 3:
        return TheoremReport(None, notes="need at least 3 records")
    halfn = 0.5 * n
    ps, note = sorted({2.0, halfn}), ""
    if halfn < 2.0:
        ps, note = [2.0], (f"left out p={halfn:g} (n/2) of the |S|^p family:"
                           " its rate's |S|^(p-2) is unbounded at S = 0 for p < 2")
    elif float(traj.columns["Smin"].min()) < 0.0 < float(traj.columns["Smax"].max()):
        # |S|^(p-2) kinks at the sign change for non-integer p, and the
        # quadrature of a kink is not second-order accurate
        dropped = [p for p in ps if abs(p - round(p)) > 1e-12]
        if dropped:
            ps = [p for p in ps if p not in dropped]
            note = (f"dropped p={dropped} for the |S|^p family:"
                    " S changes sign and fractional powers kink there")

    t = traj.times

    names = ["A", "sigma", "vol"]
    names += [f"int|S|^{p:g}" for p in ps]
    names += ["int|S-sigma|^2", "int|f-A|^2"]
    Q = {name: np.empty(K) for name in names}
    R = {name: np.empty(K) for name in names}
    sigma_gap = 0.0

    for sl, rec in Records.blocks(bg, f, traj.snapshots):
        if not rec.in_domain.all():
            return TheoremReport(None, notes=f"record {sl.start + int(np.argmin(rec.in_domain))}"
                                             " leaves the domain of f")
        S, V, phi, A, dev, per_record = rec.S, rec.vol, rec.phi, rec.A, rec.dev, rec.per_record
        fp = f.eval_fp(S)
        fpp = f.eval_fpp(S)
        sig = rec.mean(S)
        gsq = power(rec.U, -4.0 / (n - 2.0)) * grad_inner_values(bg.grid, S, S)

        Q["A"][sl] = A
        Q["sigma"][sl] = sig
        Q["vol"][sl] = V
        RA = (n - 1.0) * rec.mean(fp * fpp * gsq) + rec.mean((halfn * phi - S * fp) * dev)
        R["A"][sl] = RA
        dS = S - per_record(sig)
        s1 = 0.5 * (n - 2.0) * rec.mean(S * dev)
        s2 = 0.5 * (n - 2.0) * rec.mean(dS * dev)
        sigma_gap = max(sigma_gap, float(np.abs(s1 - s2).max()))
        R["sigma"][sl] = s1
        int_dev = rec.integral(dev)
        R["vol"][sl] = halfn * int_dev
        # the p = 2 rate's |S|^0 * f' is f' bit for bit
        int_fp_gsq = rec.integral(fp * gsq)
        absS = np.abs(S)
        for p in ps:
            absS_p = absS ** p
            int_p = int_fp_gsq if p == 2.0 else rec.integral(absS ** (p - 2.0) * fp * gsq)
            Q[f"int|S|^{p:g}"][sl] = rec.integral(absS_p)
            R[f"int|S|^{p:g}"][sl] = (p * (p - 1.0) * (n - 1.0) * int_p
                                      + (halfn - p) * rec.integral(absS_p * dev))
        Q["int|S-sigma|^2"][sl] = rec.integral(dS * dS)
        R["int|S-sigma|^2"][sl] = (
            2.0 * (n - 1.0) * int_fp_gsq
            + (halfn - 2.0) * rec.integral(dev * dS * dS)
            - 2.0 * rec.integral((per_record(s1) + per_record(sig) * dev) * dS))
        dev2 = dev * dev
        Q["int|f-A|^2"][sl] = rec.integral(dev2)
        R["int|f-A|^2"][sl] = (
            2.0 * (n - 1.0) * rec.integral(dev * fp * fpp * gsq)
            + 2.0 * (n - 1.0) * rec.integral(fp ** 3 * gsq)
            + rec.integral(dev2 * (halfn * dev - 2.0 * S * fp))
            - 2.0 * RA * int_dev)

    # second-order three-point derivative, exact for quadratics on
    # nonuniform record spacing
    dp = t[2:] - t[1:-1]
    dm = t[1:-1] - t[:-2]
    defects = {}
    floors = {}
    ok = True
    for name in names:
        q = Q[name]
        dq = (dm / (dp * (dp + dm)) * q[2:]
              + (dp - dm) / (dp * dm) * q[1:-1]
              - dp / (dm * (dp + dm)) * q[:-2])
        # the defect is scaled by the interior rates it is compared with,
        # the time-resolution floor by the rates at every record
        q_floor = 1e-3 * max(1.0, float(np.abs(q).max()))
        r_mid = R[name][1:-1]
        defects[name] = (float(np.abs(dq - r_mid).max())
                         / max(float(np.abs(r_mid).max()), q_floor, 1e-300))
        # tolerance: the stated relative defect plus the measured resolution
        # of the record grid itself (three-point truncation of the rates)
        floors[name] = (3.0 * _truncation_floor(R[name], t)
                        / max(float(np.abs(R[name]).max()), q_floor, 1e-300))
        ok = ok and defects[name] <= IDENTITY_REL_TOL + floors[name]
    defects["sigma_forms_gap"] = sigma_gap

    worst = max(v for k, v in defects.items() if k != "sigma_forms_gap")
    passed = ok and sigma_gap <= 1e-10 * max(1.0, float(np.abs(Q["sigma"]).max()))
    return TheoremReport(bool(passed), defects,
                         {"worst_defect": worst, "time_resolution_allowance": floors},
                         {"rel_tol": IDENTITY_REL_TOL, "sigma_forms_gap": 1e-10}, note)


# ---------------------------------------------------------------------------
# L^p monotonicity (positive case)
# ---------------------------------------------------------------------------

@_check("lnhalf", "lp_monotonicity")
def check_Lnhalf_monotone(traj: Trajectory) -> TheoremReport:
    """Positive case: the L^(n/2) norm of S never increases, and every
    L^p norm with p <= n/2 stays below the initial L^(n/2) norm.

    The comparison covers p in {1, 2, n/2} restricted to p <= n/2 (at unit
    volume the norms grow with p, so larger p carry no bound)."""
    if float(traj.columns["Smin"].min()) < -EXACT_TOL:
        return TheoremReport(None, notes="needs nonnegative curvature along the flow")
    halfn = 0.5 * traj.config.background.n
    norm_half = traj.columns["lpn2"]
    init = float(norm_half[0])

    norms = {halfn: norm_half}
    if 2.0 <= halfn:
        norms[2.0] = traj.columns["lp2"]
    blocks = Records.blocks(traj.config.background, traj.config.f, traj.snapshots)
    norms[1.0] = np.concatenate([rec.integral(np.abs(rec.S)) for _, rec in blocks])

    measured = {
        "max_rise_of_Lnhalf": float(np.diff(norm_half).max()) if traj.n_records > 1 else 0.0,
        "initial_Lnhalf": init,
    }
    ok = measured["max_rise_of_Lnhalf"] <= EXACT_TOL
    for p in sorted(norms):
        margin = float((init + EXACT_TOL - norms[p]).min())
        measured[f"margin_p{p:g}"] = margin
        ok = ok and margin >= 0.0
    return TheoremReport(bool(ok), measured, {"bound": init}, {"slack": EXACT_TOL})


# ---------------------------------------------------------------------------
# Positive-case curvature bounds
# ---------------------------------------------------------------------------

@_check("positive_bounds", "positive_curvature_bounds")
def check_positive_S_bounds(traj: Trajectory) -> TheoremReport:
    """Positive case with f(0) normalized away: S_min stays above the
    envelope S_min(0) * exp(a t), a the running minimum of the shifted mean.
    For f bounded below, S_max stays under S_max(0) * exp(C t) with C the
    observed supremum of the shifted mean (the growth constant is not pinned
    a priori; the report states which C was used)."""
    smin = traj.columns["Smin"]
    smax = traj.columns["Smax"]
    if float(smin[0]) <= 0.0:
        return TheoremReport(None, notes="needs strictly positive initial curvature")
    f = traj.config.f
    f0, f0_note = _f_at_zero(f)
    if f0 is None:
        return TheoremReport(None, notes=f"cannot normalize f at zero: {f0_note}")

    t = traj.times
    A = traj.columns["A"]
    A_shift = A - f0
    a_running = np.minimum.accumulate(A_shift)
    envelope = smin[0] * np.exp(a_running * t)
    measured = {
        "min_envelope_margin": float((smin - envelope + EXACT_TOL).min()),
        "a_observed": float(A_shift.min()),
    }
    predicted = {"f0": f0}
    checks = [measured["min_envelope_margin"] >= 0.0]
    notes = [f0_note] if f0_note else []

    if f.bounded_below is not None:
        C_obs = float((A - f.bounded_below).max())
        upper = smax[0] * np.exp(C_obs * t)
        measured["max_envelope_margin"] = float((upper - smax + EXACT_TOL).min())
        predicted["C_used"] = C_obs
        checks.append(measured["max_envelope_margin"] >= 0.0)
        notes.append("C taken as the observed supremum of the mean of f(S)-inf f"
                     " (no a-priori constant is available)")

    if f.growth is not None:
        nu_shift = max(f.growth.nu + f0, 0.0)
        a_pred = -(f.growth.mu * float(traj.columns["lpn2"][0]) ** f.growth.kappa + nu_shift)
        predicted["a_from_growth_certificate"] = a_pred
        measured["a_certificate_margin"] = measured["a_observed"] - a_pred + EXACT_TOL
        checks.append(measured["a_certificate_margin"] >= 0.0)

    return TheoremReport(bool(all(checks)), measured, predicted, {"slack": EXACT_TOL},
                         "; ".join(notes))


# ---------------------------------------------------------------------------
# Flat case
# ---------------------------------------------------------------------------

@_check("flat_identity", "flat_background_identity")
def check_flat_identity(traj: Trajectory) -> TheoremReport:
    """Flat background: the integral of u^beta * S against the background
    volume vanishes at every state, S_min never exceeds 0, and S_min stays
    above its initial value.  Inconclusive on any other background."""
    bg = traj.config.background
    if bg.case_tag != "flat":
        return TheoremReport(None, notes="the flat identity needs a flat background,"
                                         f" got {bg.case_tag}")
    integrals = np.concatenate([node_mean(bg.grid, power(rec.U, bg.beta) * rec.S)
                                for _, rec in Records.blocks(bg, traj.config.f, traj.snapshots)])
    worst_integral = float(np.abs(integrals).max())
    smin = traj.columns["Smin"]
    measured = {
        "max_abs_integral": worst_integral,
        "containment_margin": float((smin - smin[0]).min()),
        "max_of_Smin": float(smin.max()),
    }
    passed = (worst_integral <= FLAT_INTEGRAL_TOL
              and measured["containment_margin"] >= -MINMAX_BASE_TOL
              and measured["max_of_Smin"] <= FLAT_INTEGRAL_TOL)
    return TheoremReport(bool(passed), measured, {"integral": 0.0},
                         {"integral_tol": FLAT_INTEGRAL_TOL, "containment_tol": MINMAX_BASE_TOL})


# ---------------------------------------------------------------------------
# Rescaling equivalence
# ---------------------------------------------------------------------------

def sup_deviation_on_times(times: np.ndarray, snaps: np.ndarray, tau: np.ndarray,
                           raw: np.ndarray, scale: np.ndarray) -> tuple[float, int]:
    """Sup-norm gap between snapshots at ``times`` and the tau-indexed
    rescaled snapshots ``raw[k] * scale[k]``, linearly interpolated in tau.
    Only the two records bracketing each time are rescaled.  Returns
    (gap, count) over the overlapping times."""
    worst = 0.0
    count = 0
    for j, tj in enumerate(times):
        if tj > tau[-1] + 1e-12:
            break
        i = int(np.searchsorted(tau, tj, side="right")) - 1
        i = min(max(i, 0), len(tau) - 2)
        span = tau[i + 1] - tau[i]
        wgt = 0.0 if span <= 0 else (tj - tau[i]) / span
        interp = (1.0 - wgt) * (raw[i] * scale[i]) + wgt * (raw[i + 1] * scale[i + 1])
        worst = max(worst, float(np.abs(interp - snaps[j]).max()))
        count += 1
    return worst, count


def compare_rescaled(traj: Trajectory, traj_nn: Trajectory) -> TheoremReport:
    """Rescale the non-normalized ``traj_nn`` (``hamilton_rescale``, with
    its own f) and compare its conformal factors with ``traj``'s on matched
    times.  Passes when the sup gap is within RESCALE_TOL at every record of
    ``traj``.  Raises ValueError when ``traj_nn`` cannot be rescaled."""
    tau, scale = hamilton_rescale(traj_nn)
    gap, count = sup_deviation_on_times(traj.times, traj.snapshots, tau,
                                        traj_nn.snapshots, scale)
    notes = ""
    if count < traj.n_records:
        notes = (f"rescaled run covers {count} of {traj.n_records} normalized records"
                 f" (non-normalized run ended with {traj_nn.termination})")
    report = TheoremReport(bool(gap <= RESCALE_TOL and count == traj.n_records),
                           {"sup_gap": gap, "matched_records": count},
                           {"alpha": traj_nn.config.f.alpha_homogeneous},
                           {"sup_tol": RESCALE_TOL}, notes)
    return _stamp(report, _CHECKS["rescale"].report_id, traj)


@_check("rescale", "rescale_equivalence")
def check_rescale_equivalence(traj: Trajectory) -> TheoremReport:
    """Runs the non-normalized flow of the normalized trajectory's config
    from its first state, logging every step, and compares it with the trajectory
    (``compare_rescaled``); inconclusive, before any run, for an f of no
    declared homogeneity degree.  As d(eta)/d(tau) is the normalized mean A,
    the rescaled time reaches the last time T at t(T), the integral over
    [0, T] of exp(alpha * eta), read off the A column (a failed run's
    non-finite last A holds the one before).  The companion runs
    RESCALE_MARGIN of the trajectory's largest steps past t(T).  A later
    horizon moves only the last record, so once the second-to-last one's
    rescaled time reaches T the records bracketing each normalized time are
    the unbounded run's; until then, at most RESCALE_RERUNS times, a
    companion that reached its horizon is rerun to twice it."""
    f = traj.config.f
    if f.alpha_homogeneous is None:
        return TheoremReport(None, notes="rescale equivalence needs a homogeneous f;"
                                         f" {f.name} declares no homogeneity degree")
    t, A = traj.times, traj.columns["A"]
    if len(A) > 1 and not math.isfinite(A[-1]):
        A = np.append(A[:-1], A[-2])
    with np.errstate(over="ignore", invalid="ignore"):
        dt_dtau = np.exp(f.alpha_homogeneous * cumtrapz(A, t))
        horizon = float(cumtrapz(dt_dtau, t)[-1]
                        + RESCALE_MARGIN * traj.columns["dt"].max() * dt_dtau[-1])
    for _ in range(RESCALE_RERUNS + 1):
        # T = 0 needs only the first state; inf, a failure or the step budget
        T_final = max(horizon, math.ulp(0.0)) if horizon < math.inf else np.finfo(float).max
        nn = run(replace(traj.config, normalized=False, log_cadence=1, T_final=T_final,
                         u0=ScalarField(traj.config.background.grid, traj.snapshots[0])))
        tau = hamilton_rescale(nn)[0]
        if nn.termination != "time_reached" or tau[max(len(tau) - 2, 0)] >= t[-1]:
            break
        horizon *= 2.0
    return compare_rescaled(traj, nn)


# ---------------------------------------------------------------------------
# Stationary limit
# ---------------------------------------------------------------------------

def _bisect_inverse(f: FSpec, target: float, lo: float, hi: float) -> float:
    """Solve f(x) = target for decreasing f by bisection to 1e-12."""
    flo, fhi = float(f.eval_f(lo)), float(f.eval_f(hi))
    if not (flo >= target >= fhi):
        raise ValueError(f"target {target:g} not bracketed by f on [{lo:g}, {hi:g}]")
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if float(f.eval_f(mid)) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@_check("stationary", "stationary_limit")
def check_stationary_limit(traj: Trajectory) -> TheoremReport:
    """At a stationary termination the curvature must be constant, equal to
    the preimage of A under f, and negative in the negative case."""
    if traj.termination != "stationary":
        return TheoremReport(None, notes=f"run terminated with {traj.termination},"
                                         " not stationary")
    bg, f = traj.config.background, traj.config.f
    rec = Records(bg, f, traj.snapshots[-1:])
    A, sig = float(rec.A[0]), float(rec.mean(rec.S)[0])
    spread, s_max = float(rec.Smax[0] - rec.Smin[0]), float(rec.Smax[0])

    lo = float(traj.columns["Smin"].min())
    hi = float(traj.columns["Smax"].max())
    pad = max(1e-6, 1e-6 * (hi - lo))
    lo = lo - pad if f.domain.contains(lo - pad) else lo
    hi = hi + pad if f.domain.contains(hi + pad) else hi
    try:
        s_star = _bisect_inverse(f, A, lo, hi)
        inv_gap = float(np.abs(rec.S[0] - s_star).max())
    except ValueError as exc:
        return TheoremReport(None, notes=str(exc))

    measured = {"S_spread": spread, "max_dev_from_f_inverse": inv_gap,
                "S_max_final": s_max}
    checks = [spread <= STATIONARY_TOL * max(1.0, abs(sig)), inv_gap <= STATIONARY_TOL]
    if bg.case_tag == "negative":
        checks.append(s_max < 0.0)
    return TheoremReport(bool(all(checks)), measured, {"f_inverse_of_A": s_star, "sigma": sig},
                         {"spread_tol": STATIONARY_TOL, "inverse_tol": STATIONARY_TOL})


# ---------------------------------------------------------------------------
# Informational series
# ---------------------------------------------------------------------------

@_check("sobolev_info", "sobolev_integral_info", normalized_only=False)
def sobolev_program_series(traj: Trajectory) -> TheoremReport:
    """Informational: the running time integral of
    (integral of S^(n^2/(2(n-2))) dVol)^((n-2)/n), logged for positive runs.
    No pass/fail is attached."""
    n = traj.config.background.n
    q = n * n / (2.0 * (n - 2.0))
    if float(traj.columns["Smin"].min()) < -EXACT_TOL:
        return TheoremReport(None, notes="skipped: curvature not nonnegative")
    # Python float powers, as record by record (numpy's may round differently)
    blocks = Records.blocks(traj.config.background, traj.config.f, traj.snapshots)
    vals = np.array([v ** ((n - 2.0) / n) for _, rec in blocks
                     for v in rec.integral(np.maximum(rec.S, 0.0) ** q).tolist()])
    integral = cumtrapz(vals, traj.times)
    return TheoremReport(None, {"final_integral": float(integral[-1]),
                                "max_integrand": float(vals.max())},
                         notes="informational series; no pass/fail")


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

CHECK_NAMES = tuple(_CHECKS)


def default_checks(case_tag: str) -> list[str]:
    base = ["minmax", "identities", "u_bounds"]
    if case_tag == "negative":
        return base + ["decay", "stationary"]
    if case_tag == "flat":
        return base + ["flat_identity"]
    if case_tag == "positive":
        return base + ["lnhalf", "positive_bounds", "sobolev_info"]
    return base


def require_known_checks(names: list[str]):
    """Raise ValueError naming every entry of ``names`` that is no check."""
    unknown = [name for name in names if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown check {', '.join(map(repr, unknown))};"
                         f" known: {', '.join(CHECK_NAMES)}")


def run_checks(traj: Trajectory, bg: Background, f: FSpec,
               names: list[str]) -> list[TheoremReport]:
    """Dispatch checks by short name.  The checks read the background and f
    from ``traj.config``; ``bg`` and ``f`` must be those, and unknown names or
    a foreign ``bg`` or ``f`` raise ValueError before any check runs.  A
    checker that cannot evaluate its hypotheses, or fails in any other way,
    reports inconclusive instead of raising."""
    require_known_checks(names)
    if bg != traj.config.background or f != traj.config.f:
        raise ValueError("the checks read the background and f from the trajectory's"
                         " config; bg and f must be the trajectory's own")
    reports = []
    for name in names:
        check = _CHECKS[name]
        try:
            reports.append(globals()[check.checker](traj))
        except Exception as exc:  # report, never throw
            reports.append(_stamp(TheoremReport(None, notes=f"checker could not run: {exc}"),
                                  check.report_id, traj))
    return reports
