import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conflow
from conflow import cli, flow
from conflow.conformal import (
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
from conflow.flow import (
    ParabolicityError,
    RECORD_COLUMNS,
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
from conflow.fzoo import FSpec, Interval, classical, expdecay, power_law
from conflow.grid import PositivityError, ScalarField, field_from_spec, power

import reference
from conftest import TWO_PI, grid1d, smooth_field
from reference import average_f, integrate_g, shift, sigma, volume


NEG_BG = "sinusoidal:-1.5,0.4,0"


def neg_setup(N=128):
    g = grid1d(N=N)
    bg = Background(field_from_spec(g, NEG_BG))
    return g, bg, classical(), ConformalState(ScalarField.constant(g, 1.0))


def reference_row(bg, f, u, t, dt):
    """One diagnostics row from numpy formulas on one state; A and fSA_sup
    are NaN when the curvature range leaves f's domain."""
    S = scalar_curvature_values(bg, u)
    w = power(u, bg.vol_exp)
    A = fsa = math.nan
    if f.domain.contains_interval(float(S.min()), float(S.max())):
        phi = f.eval_f(S)
        A = float((phi * w).mean() / w.mean())
        fsa = float(np.abs(phi - A).max())
    halfn = 0.5 * bg.n
    return {
        "t": t, "dt": dt, "Smin": float(S.min()), "Smax": float(S.max()), "A": A,
        "sigma": float((S * w).mean()) / float(w.mean()), "vol": float(w.mean()),
        "fSA_sup": fsa,
        "lp2": float(((S * S) * w).mean()) ** 0.5,
        "lpn2": float((np.abs(S) ** halfn * w).mean()) ** (1.0 / halfn),
        "umin": float(u.min()), "umax": float(u.max()),
    }


def assert_rows_match_reference(bg, f, columns, states, dts=None):
    """Every record of ``columns`` equals reference_row bit for bit (NaN
    where the reference is NaN); ``dts`` defaults to the time differences."""
    times = columns["t"]
    if dts is None:
        dts = np.diff(times, prepend=times[0])
    for k, u in enumerate(states):
        ref = reference_row(bg, f, u, float(times[k]), float(dts[k]))
        for key in RECORD_COLUMNS:
            assert np.array_equal(columns[key][k], ref[key], equal_nan=True), (k, key)


def dense_matrix(grid):
    N = grid.points[0]
    h2 = grid.spacing[0] ** 2
    D = np.zeros((N, N))
    for i in range(N):
        D[i, i] = -2.0 / h2
        D[i, (i - 1) % N] = 1.0 / h2
        D[i, (i + 1) % N] = 1.0 / h2
    return D


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_zero_at_constant_curvature():
    g, _, f, st = neg_setup()
    bg = Background(field_from_spec(g, "constant:-1.5"))
    assert np.abs(rhs_normalized(bg, st, f).values).max() < 1e-15


def test_rhs_classical_is_curvature_deficit():
    # for f(x) = -x the normalized rhs is -(n-2)/4 (S - sigma) u
    g, bg, f, _ = neg_setup()
    rng = np.random.default_rng(0)
    st = ConformalState(ScalarField(g, 1.0 + 0.2 * smooth_field(g, rng).values))
    got = rhs_normalized(bg, st, f).values
    S = scalar_curvature_values(bg, st.u.values)
    sig = sigma(bg, st)
    want = -0.5 * (S - sig) * st.u.values
    assert np.abs(got - want).max() < 1e-13


def test_rhs_normalized_vs_nonnormalized_gap():
    g, bg, f, _ = neg_setup()
    rng = np.random.default_rng(1)
    st = ConformalState(ScalarField(g, 1.0 + 0.1 * smooth_field(g, rng).values))
    A = average_f(bg, st, f)
    rhs_nonnormalized = flow._Kernel(bg, f, normalized=False).rhs(st.u.values)
    gap = rhs_nonnormalized - rhs_normalized(bg, st, f).values
    assert np.abs(gap - 0.5 * A * st.u.values).max() < 1e-14


def test_rhs_dense_oracle():
    g = grid1d(N=256)
    bg = Background(field_from_spec(g, "constant:0"))
    x = g.axis_coordinates(0)
    u = 1.0 + 0.3 * np.cos(x)
    st = ConformalState(ScalarField(g, u))
    got = rhs_normalized(bg, st, classical()).values
    D = dense_matrix(g)
    S = (-6.0 * (D @ u)) / u**3
    w = u**4
    A = np.sum(-S * w) / np.sum(w)
    want = 0.5 * (-S - A) * u
    assert np.abs(got - want).max() < 1e-10


def test_rhs_volume_stationary():
    # the volume derivative 2n/(n-2) * integral of rhs/u dVol vanishes exactly
    g, bg, f, _ = neg_setup()
    rng = np.random.default_rng(2)
    st = ConformalState(ScalarField(g, 1.0 + 0.3 * smooth_field(g, rng).values))
    r = rhs_normalized(bg, st, f)
    val = 4.0 * integrate_g(ScalarField(g, r.values / st.u.values), st.u)
    assert abs(val) < 1e-12


# ---------------------------------------------------------------------------
# Stability control
# ---------------------------------------------------------------------------

def test_stable_dt_plugin_value():
    g, _, f, st = neg_setup()
    bg = Background(field_from_spec(g, "constant:-1.5"))
    h = TWO_PI / 128
    # kappa = (n-1) |f'| u^(1-beta) = 3 at u = 1
    for safety in (0.8, 0.4):
        want = safety * h * h / (2.0 * 1 * 3.0)
        assert abs(stable_dt(bg, st, f, safety) - want) < 1e-15


def test_stable_dt_scaling_in_u():
    g, _, f, _ = neg_setup()
    bg = Background(field_from_spec(g, "constant:-1.5"))
    dt1 = stable_dt(bg, ConformalState(ScalarField.constant(g, 1.0)), f)
    dt2 = stable_dt(bg, ConformalState(ScalarField.constant(g, 2.0)), f)
    assert abs(dt2 / dt1 - 4.0) < 1e-10  # u^(1-beta) = u^-2 for n = 4


def test_stable_dt_parabolicity_lost():
    g, _, _, st = neg_setup()
    bg = Background(field_from_spec(g, "constant:-1.5"))
    rogue = FSpec(
        name="rogue",
        eval_f=lambda x: np.asarray(x, dtype=float),
        eval_fp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        eval_fpp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    with pytest.raises(ParabolicityError, match="parabolicity lost"):
        stable_dt(bg, st, rogue)


def test_check_parabolic_validity():
    # (min u, min -f'(S)) on the curvature the run's kernel computes and
    # admits: both positive iff the state is uniformly parabolic
    g, _, f, st = neg_setup()
    bg = Background(field_from_spec(g, "constant:-1.0"))
    kern = flow._Kernel(bg, f, normalized=True)

    def check_parabolic_validity(u):
        S = scalar_curvature_values(bg, u)
        require_f_domain(f, float(S.min()), float(S.max()))
        return float(u.min()), float((-f.eval_fp(S)).min())

    assert check_parabolic_validity(st.u.values) == (1.0, 1.0)
    u = np.full(g.shape, 1.0)
    u[5] = 0.3
    margin_u, margin_fp = check_parabolic_validity(u)
    assert margin_u == 0.3 and margin_fp == 1.0


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def test_euler_step_is_exactly_one_increment():
    g, bg, f, _ = neg_setup()
    rng = np.random.default_rng(3)
    st = ConformalState(ScalarField(g, 1.0 + 0.1 * smooth_field(g, rng).values))
    dt = 1e-4
    new = step(bg, st, f, dt, scheme="euler")
    want = st.u.values + dt * rhs_normalized(bg, st, f).values
    assert np.array_equal(new.u.values, want)
    assert new.t == st.t + dt


def test_step_fixed_point_unchanged():
    g = grid1d()
    bg = Background(field_from_spec(g, "constant:-1.0"))
    st = ConformalState(ScalarField.constant(g, 1.0))
    new = step(bg, st, classical(), 1e-3, scheme="rk4")
    assert np.abs(new.u.values - 1.0).max() < 1e-15


def test_step_positivity_guard():
    g = grid1d()
    bg = Background(field_from_spec(g, "constant:100.0"))
    st = ConformalState(ScalarField.constant(g, 1.0))
    with pytest.raises(PositivityError):
        step(bg, st, classical(), 0.05, scheme="euler", normalized=False)


def test_step_domain_guard():
    g = grid1d()
    bg = Background(field_from_spec(g, "constant:-1.0"))
    st = ConformalState(ScalarField.constant(g, 1.0))
    with pytest.raises(FDomainError):
        step(bg, st, power_law(1.5), 1e-4)


SINGLE_STATE_ENTRY_POINTS = {
    "rhs": lambda bg, u, h, f: flow._Kernel(bg, f, normalized=True).rhs(u),
    "stable_dt": lambda bg, u, h, f: stable_dt(bg, ConformalState(ScalarField(bg.grid, u)), f),
    "frechet": lambda bg, u, h, f: frechet_apply(bg, ScalarField(bg.grid, u), h, f),
    "frechet_normalized": lambda bg, u, h, f: frechet_normalized_apply(
        bg, ScalarField(bg.grid, u), h, f),
}


@pytest.mark.parametrize("case,error", [
    ("out_of_domain", FDomainError),
    ("non_finite", FloatingPointError),
    ("nonpositive", PositivityError),
])
@pytest.mark.parametrize("entry", sorted(SINGLE_STATE_ENTRY_POINTS))
def test_single_state_entry_points_keep_their_error_verdicts(entry, case, error):
    # the single-state entry points share the run's checked evaluation: on a
    # negative background S < 0 leaves the domain of f = x^1.5, u = 1e-120
    # underflows u^beta so S = -inf, and a raw state with a negative node
    # is outside the positive cone (stable_dt takes a ConformalState, which
    # cannot be nonpositive)
    if entry == "stable_dt" and case == "nonpositive":
        pytest.skip("a ConformalState is positive by construction")
    g, bg, f, _ = neg_setup(N=32)
    h = ScalarField(g, np.cos(g.axis_coordinates(0)))
    u = np.ones(g.shape)
    if case == "out_of_domain":
        f = power_law(1.5)
    elif case == "non_finite":
        u = np.full(g.shape, 1e-120)
    else:
        u[7] = -0.5
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"), pytest.raises(error):
        SINGLE_STATE_ENTRY_POINTS[entry](bg, u, h, f)


def renormalize_volume(state):
    """The run's volume renormalization applied to one state."""
    g, u = state.u.grid, state.u.values
    bg = Background(ScalarField.constant(g, 0.0))
    return ConformalState(ScalarField(g, u * unit_scale(bg, u)[0]), state.t)


def test_renormalize_volume():
    g = grid1d()
    st = ConformalState(ScalarField.constant(g, 1.0))
    out = renormalize_volume(st)
    assert np.array_equal(out.u.values, st.u.values)
    st2 = ConformalState(ScalarField.constant(g, 1.7))
    out2 = renormalize_volume(st2)
    assert np.abs(out2.u.values - 1.0).max() < 1e-14
    assert abs(volume(out2) - 1.0) < 1e-14


def test_renormalize_curvature_scaling_law():
    # S picks up the factor Vol^(2/n) under the renormalizing rescale
    g = grid1d()
    bg = Background(field_from_spec(g, NEG_BG))
    rng = np.random.default_rng(4)
    st = ConformalState(ScalarField(g, 1.1 + 0.2 * smooth_field(g, rng).values))
    vol = volume(st)
    S_before = scalar_curvature_values(bg, st.u.values)
    S_after = scalar_curvature_values(bg, renormalize_volume(st).u.values)
    assert np.abs(S_after - S_before * vol ** (2.0 / 4.0)).max() < 1e-10


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def test_run_stationary_at_fixed_point():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=1.0)
    traj = run(cfg)
    assert traj.termination == "stationary"
    assert traj.n_records == 1
    assert traj.times[0] == 0.0


def test_run_time_reached_and_cadence():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=0.02, dt=1e-3, stop_tol=0.0,
                    log_cadence=5)
    traj = run(cfg)
    assert traj.termination == "time_reached"
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 0.02) < 1e-14
    assert np.all(np.diff(traj.times) > 0)
    # cadence 5 at dt 1e-3: records at 0, 5e-3, 1e-2, ...
    assert abs(traj.times[1] - 5e-3) < 1e-12
    assert set(traj.columns) == set(RECORD_COLUMNS)


def test_run_determinism():
    g = grid1d(N=64)
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=0.5, log_cadence=7)
    t1, t2 = run(cfg), run(cfg)
    assert np.array_equal(t1.snapshots, t2.snapshots)
    for k in RECORD_COLUMNS:
        assert np.array_equal(t1.columns[k], t2.columns[k])


def test_run_positivity_floor_termination():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    u0 = np.full(g.shape, 1.0)
    u0[0] = 5e-11  # below the positivity floor but still a valid state
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField(g, u0), T_final=1.0)
    traj = run(cfg)
    assert traj.termination == "positivity_lost"


@pytest.mark.parametrize("value", [1e-90, 1e300])
def test_a_u0_whose_volume_under_or_overflows_is_renormalized(value):
    # u0^(2n/(n-2)) underflows to 0 or overflows to inf: the volume is
    # taken again with u0 divided by its max, and the run starts at unit volume
    g = grid1d(N=32)
    cfg = RunConfig(background=Background(field_from_spec(g, NEG_BG)), f=classical(),
                    u0=ScalarField.constant(g, value), T_final=0.05)
    traj = run(cfg)
    assert traj.termination == "time_reached"
    assert traj.snapshots[0] == pytest.approx(1.0, rel=1e-15)
    assert traj.vol_pre[0] == pytest.approx(1.0, rel=1e-14)


def test_run_never_logs_nonpositive_states():
    # a coarse Euler step on a strongly contracting non-normalized flow
    # crashes through zero; the crossing state must not enter the log
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:50.0"))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=10.0, dt=0.03, scheme="euler",
                    normalized=False, stop_tol=0.0, log_cadence=1)
    traj = run(cfg)
    assert traj.termination == "positivity_lost"
    assert traj.snapshots.min() > 0.0


def test_run_blowup_termination():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    u0 = np.full(g.shape, 1.0)
    u0[0] = 2e-3  # curvature ~ u^-beta exceeds the blowup threshold
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField(g, u0), T_final=1.0)
    traj = run(cfg)
    assert traj.termination == "blowup"


@pytest.mark.filterwarnings("error")
def test_run_overflowing_f_is_blowup_without_warnings():
    # u0 = 1 + 0.5 sin on 8 points over a unit period has S down to about
    # -4800, where exp(-S) overflows: the rate is inf, the step is rejected
    # as `blowup`, and no numpy warning reaches stderr
    g = conflow.GridSpec(3, 1, (8,), (1.0,))
    cfg = RunConfig(background=Background(ScalarField.constant(g, 0.0)), f=expdecay(1.0),
                    u0=field_from_spec(g, "sinusoidal:1.0,0.5,0"), T_final=0.0625,
                    dt=0.0078125, scheme="euler", normalized=False, log_cadence=1)
    traj = run(cfg)
    assert traj.termination == "blowup"
    assert traj.columns["Smin"][0] < -4000.0 and traj.columns["A"][0] == math.inf
    assert math.isnan(traj.columns["fSA_sup"][0])  # inf - inf


def test_run_domain_violation_records_nan():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "sinusoidal:0.0,1.0,0"))  # mixed sign curvature
    cfg = RunConfig(background=bg, f=power_law(1.5), u0=ScalarField.constant(g, 1.0),
                    T_final=1.0)
    traj = run(cfg)
    assert traj.termination == "f_domain_violation"
    assert np.isnan(traj.columns["A"][-1])
    assert np.isfinite(traj.columns["Smin"][-1])


@pytest.mark.parametrize("scheme, steps", [("euler", 3), ("rk4", 0)])
def test_run_rejects_non_finite_step(scheme, steps):
    # f turns NaN from its fourth evaluation on: the NaN reaches u through
    # the probe's stage (Euler, at step 3) or the last RK4 stage (step 0);
    # either way the step must be rejected, not accepted and logged
    calls = []
    base = classical()

    def eval_f(S):
        calls.append(None)
        return base.eval_f(S) if len(calls) < 4 else np.full_like(S, np.nan)

    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=dataclasses.replace(base, eval_f=eval_f),
                    u0=ScalarField.constant(g, 1.0), T_final=1.0,
                    dt=1e-3, scheme=scheme)
    traj = run(cfg)
    assert traj.termination == "blowup"
    assert abs(traj.times[-1] - steps * 1e-3) < 1e-15
    assert np.all(np.isfinite(traj.snapshots))
    assert np.all(np.isfinite(traj.columns["umax"]))


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_run_nan_response_is_blowup(scheme):
    # f is NaN above S = -1.3, so the first stage is NaN; RK4's second stage
    # then has NaN curvature, which no domain test admits, and must still be
    # tagged blowup rather than f_domain_violation
    base = classical()

    def eval_f(S):
        S = np.asarray(S, dtype=float)
        return np.where(S > -1.3, np.nan, base.eval_f(S))

    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=dataclasses.replace(base, eval_f=eval_f),
                    u0=ScalarField.constant(g, 1.0), T_final=1.0, scheme=scheme)
    traj = run(cfg)
    assert traj.termination == "blowup"
    assert traj.notes.endswith("from t=0")
    assert np.all(np.isfinite(traj.snapshots))


def test_run_step_budget_termination(monkeypatch):
    monkeypatch.setattr(flow, "_MAX_STEPS", 5)
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=10.0, dt=1e-3, log_cadence=2)
    traj = run(cfg)
    assert traj.termination == "step_budget"
    # records at steps 0, 2, 4 and the terminal step 5
    assert traj.n_records == 4
    assert abs(traj.times[-1] - 5e-3) < 1e-15


@pytest.mark.parametrize("values,refused", [
    ([1e-310], True),  # the unit-volume factor overflows
    ([1e-300, 1e300], True),  # the factor is finite but scales 1e-300 to 0
    ([1e-120], False),
    ([1e300], False),
    ([1e-100, 1e100], False),
])
def test_run_config_refuses_a_u0_with_no_unit_volume_rescaling(values, refused):
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    u0 = ScalarField(g, np.resize(values, 32))
    if refused:
        with pytest.raises(ValueError, match="no positive finite unit-volume rescaling"):
            RunConfig(background=bg, f=classical(), u0=u0)
    else:
        traj = run(RunConfig(background=bg, f=classical(), u0=u0, T_final=1e-3))
        assert traj.vol_pre[0] > 0.0 and traj.snapshots[0].min() > 0.0
    # a non-normalized run logs u0 as it is
    RunConfig(background=bg, f=classical(), u0=u0, normalized=False)


def test_run_config_rejects_nonpositive_u0():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    with pytest.raises(PositivityError, match="u0 must be positive"):
        RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, -1.0),
                  T_final=1.0)


@pytest.mark.parametrize("field,value", [
    ("T_final", math.nan), ("T_final", math.inf), ("stop_tol", math.nan),
    ("stop_tol", math.inf)])
def test_run_config_rejects_non_finite_horizon_and_tolerance(field, value):
    # a NaN T_final passes `T_final <= 0` and a NaN stop_tol turns the
    # stationarity test off; both must be refused up front
    g = grid1d(N=32)
    kwargs = {"T_final": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be .* finite"):
        RunConfig(background=Background(field_from_spec(g, NEG_BG)), f=classical(),
                  u0=ScalarField.constant(g, 1.0), **kwargs)


@pytest.mark.parametrize("T_final", [1e-15, 1e-300])
def test_a_tiny_horizon_takes_its_step(T_final):
    # the horizon test is a few ulps of T_final, not an absolute tolerance
    # that a tiny T_final lies under: the run steps once and lands on it
    path = Path(__file__).resolve().parent.parent / "configs" / "negative.json"
    cfg = json.loads(path.read_text())
    cfg["grid"]["points"] = [32]
    cfg["time"]["T_final"] = T_final
    traj = run(cli.build_run_config(cfg, path.parent))
    assert traj.termination == "time_reached"
    assert traj.times.tolist() == [0.0, T_final]


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
def test_fixed_dt_policy_needs_finite_positive_dt(dt):
    g = grid1d(N=32)
    with pytest.raises(ValueError, match="finite dt > 0"):
        RunConfig(background=Background(field_from_spec(g, NEG_BG)), f=classical(),
                  u0=ScalarField.constant(g, 1.0), T_final=1.0, dt=dt)


def first_stage(kern, u):
    """The run loop's first RK stage from the factor of u."""
    return kern.pref * kern.factor(u)[3] * u


KERNEL_POINTS = {1: (32,), 2: (16, 12), 3: (8, 10, 8)}


def kernel_case(dims, n):
    """A background, a state and f on a ``dims``-D grid for ambient n: both
    fields vary along the first and the last axis."""
    g = conflow.GridSpec(n, dims, KERNEL_POINTS[dims], (TWO_PI,) * dims)
    mesh = g.coordinate_mesh()
    S0 = -1.5 + 0.4 * np.sin(mesh[0]) + 0.2 * np.cos(mesh[-1])
    u = 1.0 + 0.1 * np.cos(mesh[0]) + 0.05 * np.sin(2.0 * mesh[-1])
    bg = Background(ScalarField(g, np.broadcast_to(S0, g.shape).copy()))
    return bg, np.broadcast_to(u, g.shape).copy(), expdecay(0.5)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "plain"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("dims", [1, 2, 3], ids=["1d", "2d", "3d"])
def test_kernel_matches_reference_bit_for_bit(dims, n, normalized):
    # n = 3, 4 and 6 take the product chains (beta 5, 3 and 2), n = 5
    # np.power (beta 7/3); every kernel entry point equals the numpy formulas
    # exactly, and the curvature with its volume weight, on one field or a
    # stack of records, equals the two separate powers
    bg, u, f = kernel_case(dims, n)
    for v in (u, np.stack([u, 0.9 * u, u * u])):
        S, w = scalar_curvature_values(bg, v, with_weight=True)
        assert same_bits(S, power(v, -bg.beta) * conformal_laplacian_values(bg, v))
        assert same_bits(S, scalar_curvature_values(bg, v))
        assert same_bits(w, power(v, bg.vol_exp))
    kern = flow._Kernel(bg, f, normalized=normalized)

    def rhs(v):
        return reference.flow_rhs(bg, f, v, normalized)

    assert np.array_equal(kern.rhs(u), rhs(u))
    (S, w, Smin, Smax, phi), ref = kern.evaluate(u), reference.flow_terms(bg, f, u)
    # only a normalized kernel takes the volume weight
    assert (w is None) == (not normalized)
    w = scalar_curvature_values(bg, u, with_weight=True)[1]
    assert np.array_equal(S, ref["S"]) and np.array_equal(phi, ref["phi"])
    A = weighted_mean(bg.grid, phi, w)
    assert np.array_equal(phi - A, ref["phi"] - ref["A"])
    assert (float(w.mean()), A, float(np.abs(phi - A).max())) == (
        ref["wm"], ref["A"], ref["fSA_sup"])
    assert (Smin, Smax) == (ref["S"].min(), ref["S"].max())
    assert np.array_equal(first_stage(kern, u), rhs(u))
    dt = kern.stable_dt(u, S, 0.8)
    assert dt == reference.flow_stable_dt(bg, f, u, 0.8)
    stepped = kern.advance(u, dt, "rk4", kern.rhs(u))
    assert np.array_equal(stepped, reference.rk4_step(rhs, u, dt))
    assert np.array_equal(kern.advance(u, dt, "euler", rhs(u)), u + dt * rhs(u))
    (scale, vol), want = unit_scale(bg, stepped), reference.renormalized(bg, stepped)
    assert np.array_equal(stepped * scale, want[0]) and vol == want[1]


def test_scaled_extremes_are_the_extremes_scaled():
    # rounding is monotone, so scaling by a positive factor commutes with
    # min and max bit for bit, down to subnormals and up to overflow: run
    # carries a renormalized state's extremes this way
    rng = np.random.default_rng(11)
    for mag in (-307, -300, -150, 0, 150, 300, 307):
        for _ in range(20):
            u = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 300))) * 10.0 ** mag
            for s in (float(rng.lognormal(sigma=3.0)), 10.0 ** -float(rng.uniform(0, 20)),
                      10.0 ** float(rng.uniform(0, 20))):
                with np.errstate(over="ignore", under="ignore"):
                    us = u * s
                assert float(us.min()) == float(u.min()) * s
                assert float(us.max()) == float(u.max()) * s


@pytest.mark.parametrize("scheme,normalized", [
    ("rk4", True), ("euler", True), ("rk4", False)], ids=["rk4", "euler", "rk4-plain"])
def test_run_carries_exact_extremes_into_every_probe(monkeypatch, scheme, normalized):
    # series.csv does not log the probe's umin/umax, so no golden digest
    # would catch a carried extreme that differs from a fresh reduction:
    # run carries min(u_new) * scale and max(u_new) * scale from each step
    # (unscaled without renormalization) into the next state's probe
    g = grid1d(N=32)
    cfg = RunConfig(background=Background(field_from_spec(g, NEG_BG)),
                    f=classical(), u0=field_from_spec(g, "sinusoidal:1.0,0.3,0"),
                    T_final=0.3, scheme=scheme, normalized=normalized)
    events = []
    Kernel = flow._Kernel
    evaluate, advance = Kernel.evaluate, Kernel.advance

    def recorded(name, method, extremes):
        def wrapper(self, u, *args, **kwargs):
            out = method(self, u, *args, **kwargs)
            events.append((name, extremes(u, out)))
            return out
        return wrapper

    monkeypatch.setattr(Kernel, "evaluate", recorded(
        "evaluate", evaluate, lambda u, out: (float(u.min()), float(u.max()))))
    monkeypatch.setattr(Kernel, "advance", recorded(
        "advance", advance, lambda u, out: (float(out.min()), float(out.max()))))
    monkeypatch.setattr(flow, "unit_scale", recorded(
        "scale", flow.unit_scale, lambda u, out: out[0]))
    assert run(cfg).termination == "time_reached"
    probes = 0
    last = None  # (min, max) of the last step's state, scaled when renormalized
    for name, value in events:
        if name == "advance":
            last = value
        elif name == "scale" and last is not None:
            last = (last[0] * value, last[1] * value)
        elif name == "evaluate" and last is not None:
            # the first evaluation after a step is the probe of its state
            assert value == last
            probes, last = probes + 1, None
    assert probes > 20


def stage_failure_config(kind):
    """A fixed-dt RK4 run whose probe at t=0 passes and one of whose first
    step's later stages fails: it leaves the positive cone, its curvature
    turns NaN, or its curvature leaves f's domain."""
    g = grid1d(N=32)
    if kind == "nan_curvature":
        # f(S) is NaN above -1.3, so k1 and then the second stage are NaN
        base = classical()
        f = dataclasses.replace(base, eval_f=lambda S: np.where(
            np.asarray(S) > -1.3, np.nan, base.eval_f(S)))
        return RunConfig(background=Background(field_from_spec(g, NEG_BG)),
                         f=f, u0=ScalarField.constant(g, 1.0), T_final=1.0,
                         dt=1e-3)
    # S0 = 100, u = 1: du/dt = -50/u without normalization, so u shrinks and
    # S = 100 u^-2 grows past the probe's S = 100
    if kind == "nonpositive":
        f, dt = classical(), 0.05      # the second stage is 1 - 0.025 * 50 < 0
    else:
        f, dt = dataclasses.replace(classical(), domain=Interval(hi=100.0)), 1e-3
    return RunConfig(background=Background(ScalarField.constant(g, 100.0)),
                     f=f, u0=ScalarField.constant(g, 1.0), T_final=1.0,
                     dt=dt, normalized=False)


@pytest.mark.parametrize("kind,termination,notes", [
    ("nonpositive", "positivity_lost", ""),
    ("nan_curvature", "blowup", "non-finite curvature in a stage of the step from t=0"),
    ("out_of_domain", "f_domain_violation", ""),
    # the step from state 6 (a cadence step of 3) or from state 7 (off one)
    ("out_of_domain@6", "f_domain_violation", ""),
    ("out_of_domain@7", "f_domain_violation", ""),
])
def test_run_stage_failures_keep_their_tags(kind, termination, notes):
    # the terminal record is the last accepted state, logged once after
    # the cadence's records
    kind, _, after = kind.partition("@")
    cfg, last = stage_failure_config(kind), int(after or 0)
    states, times = np.ones((1, 32)), [0.0]
    if last:
        # S = 100/u^2 rises along the run (du/dt = -50/u): every stage of a
        # step lies under the next state's S, and a step's second stage 5%
        # or more above its own state's.  So a domain ending 2% above state
        # `last`'s S holds every earlier stage and fails the step from it.
        free = run(dataclasses.replace(cfg, f=classical(), log_cadence=1))
        hi = 1.02 * float(free.columns["Smax"][last])
        cfg = dataclasses.replace(cfg, log_cadence=3, f=dataclasses.replace(
            cfg.f, domain=Interval(hi=hi)))
        states, times = free.snapshots, free.times.tolist()
    traj = run(cfg)
    assert (traj.termination, traj.notes) == (termination, notes)
    logged = sorted({*range(0, last + 1, 3), last})
    assert traj.times.tolist() == [times[k] for k in logged]
    assert (np.diff(traj.times) > 0.0).all()
    assert np.array_equal(traj.snapshots, states[logged])


def test_an_infinite_diffusivity_ends_the_run(monkeypatch):
    # at S = -354.6, f = exp(-2 S) is finite but f' overflows to -inf: the
    # adaptive step would be 0 and t would never advance.  A small step
    # budget makes a run that stalls fail fast.
    monkeypatch.setattr(flow, "_MAX_STEPS", 20)
    g = grid1d(N=16)
    cfg = RunConfig(background=Background(field_from_spec(g, "constant:-354.6")),
                    f=expdecay(2.0), u0=ScalarField.constant(g, 1.0), T_final=1.0,
                    scheme="euler", normalized=False)
    traj = run(cfg)
    assert (traj.termination, traj.notes) == (
        "blowup", "non-finite diffusivity: max kappa = inf at t=0")
    assert traj.n_records == 1 and traj.times.tolist() == [0.0]


@pytest.mark.filterwarnings("error")
def test_the_mean_A_of_a_finite_f_near_the_float_maximum_is_finite():
    # at u = 1, f(S) = exp(709.2) = 1.0038e308 at all 16 nodes: finite,
    # though the sum of f(S) * w overflows
    g = grid1d(N=16)
    bg, f = Background(field_from_spec(g, "constant:-354.6")), expdecay(2.0)
    fS = float(f.eval_f(-354.6))
    assert math.isfinite(fS) and not math.isfinite(16.0 * fS)
    cfg = RunConfig(background=bg, f=f, u0=ScalarField.constant(g, 1.0), T_final=1.0,
                    scheme="euler", normalized=False)
    traj = run(cfg)
    assert (traj.columns["A"].tolist(), traj.columns["fSA_sup"].tolist()) == ([fS], [0.0])
    # the normalized flow sees the state as the stationary state it is
    assert run(dataclasses.replace(cfg, normalized=True)).termination == "stationary"
    state = ConformalState(cfg.u0)
    assert np.array_equal(rhs_normalized(bg, state, f).values, np.zeros(16))
    assert np.array_equal(step(bg, state, f, 1e-3, "euler").u.values, cfg.u0.values)
    # in a stack only the overflowing record is taken again: the other
    # record's A is its A alone, bit for bit
    U = np.stack([cfg.u0.values, 2.0 + 0.1 * np.cos(g.axis_coordinates(0))])
    A = Records(bg, f, U).A
    assert A[0] == fS and A[1].tobytes() == Records(bg, f, U[1:]).A.tobytes()


def test_probe_matches_rhs_and_reference_row():
    # the run loop's first RK stage comes from the probe and must equal
    # rhs(u) bit for bit; the columns of one state must equal the formulas
    # with numpy means, and the probe's values must agree with them
    g, bg, f, _ = neg_setup(N=64)
    u = 1.0 + 0.1 * np.cos(g.axis_coordinates(0))
    for normalized in (False, True):
        kern = flow._Kernel(bg, f, normalized=normalized)
        assert np.array_equal(first_stage(kern, u), kern.rhs(u))
    cols = kern.columns(u[None], [0.25], [1e-3])
    expected = reference_row(bg, f, u, 0.25, 1e-3)
    assert {key: cols[key][0] for key in RECORD_COLUMNS} == expected
    _, w, Smin, Smax, phi = kern.evaluate(u)
    A = weighted_mean(bg.grid, phi, w)
    assert (A, float(np.abs(phi - A).max()), float(w.mean()), Smin, Smax,
            float(u.min()), float(u.max())) == tuple(
        expected[k] for k in ("A", "fSA_sup", "vol", "Smin", "Smax", "umin", "umax"))


def test_run_holds_its_snapshot_stack_once():
    # the logged states go into one buffer that becomes the snapshot stack,
    # so a run's traced peak stays near the stack itself
    g = conflow.GridSpec(4, 2, (64, 64), (TWO_PI, TWO_PI))
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=0.07, stop_tol=0.0, log_cadence=1)
    tracemalloc.start()
    try:
        traj = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_records >= 100
    assert peak <= 1.25 * traj.snapshots.nbytes + 2**20, (peak, traj.snapshots.nbytes)


def test_run_volume_pinned_with_renormalization():
    g = grid1d(N=64)
    bg = Background(field_from_spec(g, "constant:0"))
    x = g.axis_coordinates(0)
    cfg = RunConfig(background=bg, f=classical(),
                    u0=ScalarField(g, 1.0 + 0.3 * np.cos(x)),
                    T_final=0.05, dt=5e-4, stop_tol=0.0,
                    log_cadence=10)
    traj = run(cfg)
    assert np.abs(traj.columns["vol"] - 1.0).max() < 1e-12
    assert traj.vol_pre.shape == (traj.n_records,)


@pytest.mark.parametrize("scheme,order", [("euler", 1), ("rk4", 4)])
def test_one_step_volume_drift_order(scheme, order):
    # vol_pre[k] is the volume one step made from a unit-volume state: its
    # drift is the scheme's local error, O(dt^(p+1)), so halving dt divides
    # it by 2^(p+1).  Below dt = 1e-3 RK4's drift nears rounding (1e-14).
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:0"))
    x = g.axis_coordinates(0)
    u0 = ScalarField(g, 1.0 + 0.3 * np.cos(x))
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = RunConfig(background=bg, f=classical(), u0=u0, T_final=0.5,
                        dt=dt, stop_tol=0.0, log_cadence=1, scheme=scheme)
        drifts.append(np.abs(run(cfg).vol_pre[1:] - 1.0).max())
    assert 0.8 * 2 ** (order + 1) < drifts[0] / drifts[1] < 1.25 * 2 ** (order + 1)


def test_config_validation():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    u0 = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError, match="T_final"):
        RunConfig(background=bg, f=classical(), u0=u0, T_final=0.0)
    with pytest.raises(ValueError, match="safety"):
        RunConfig(background=bg, f=classical(), u0=u0, T_final=1.0, safety=1.5)
    with pytest.raises(ValueError, match="scheme"):
        RunConfig(background=bg, f=classical(), u0=u0, T_final=1.0, scheme="ab2")
    # a document with no time section takes RunConfig's defaults, every one
    doc = {"grid": {"ambient_n": 4, "points": [32], "periods": [TWO_PI]},
           "background": "constant:-1.0", "u0": "constant:1", "f": {"name": "classical"}}
    built = cli.build_run_config(doc, Path("."))
    default = RunConfig(built.background, built.f, built.u0)
    for field in dataclasses.fields(RunConfig):
        assert getattr(built, field.name) == getattr(default, field.name), field.name


@pytest.mark.parametrize("change,match", [
    (lambda d: d["columns"].pop("A"), "A not of shape"),
    (lambda d: d["snapshots"].__setitem__((1, 0), 0.0), "not positive"),
    (lambda d: d["snapshots"].__setitem__((1, 0), math.inf), "not positive"),
    (lambda d: d["columns"]["t"].__setitem__(1, math.inf), "strictly increasing"),
    (lambda d: d["columns"]["t"].__setitem__(2, 0.0), "strictly increasing"),
], ids=["missing-column", "zero-value", "infinite-value", "infinite-time",
        "decreasing-time"])
def test_trajectory_refuses_data_that_breaks_its_invariants(change, match):
    # what a run logs is accepted; one broken invariant is a ValueError
    g = grid1d(N=32)
    traj = run(RunConfig(background=Background(field_from_spec(g, NEG_BG)), f=classical(),
                         u0=ScalarField.constant(g, 1.0), T_final=0.05, dt=1e-3,
                         stop_tol=0.0))
    data = {"config": traj.config, "termination": traj.termination,
            "columns": {k: v.copy() for k, v in traj.columns.items()},
            "snapshots": traj.snapshots.copy(), "vol_pre": traj.vol_pre.copy()}
    Trajectory(**data)
    change(data)
    with pytest.raises(ValueError, match=match):
        Trajectory(**data)


def test_shift_invariance_of_runs():
    g = grid1d(N=64)
    bg = Background(field_from_spec(g, NEG_BG))
    u0 = ScalarField.constant(g, 1.0)
    trajs = []
    for f in (classical(), shift(classical(), 5.0)):
        cfg = RunConfig(background=bg, f=f, u0=u0, T_final=0.5,
                        dt=5e-4, stop_tol=0.0, log_cadence=20)
        trajs.append(run(cfg))
    assert np.abs(trajs[0].snapshots - trajs[1].snapshots).max() < 1e-10
    assert np.array_equal(trajs[0].times, trajs[1].times)


# ---------------------------------------------------------------------------
# Hamilton rescaling
# ---------------------------------------------------------------------------

def nonnormalized_run(bg, f, u0, T, cadence=1):
    cfg = RunConfig(background=bg, f=f, u0=u0, T_final=T,
                    normalized=False, stop_tol=0.0, log_cadence=cadence)
    return run(cfg)


def rescaled_stack(traj):
    """tau, the rescale factors and the rescaled snapshots of a non-normalized
    run from ``hamilton_rescale``, after checking that every rescaled record
    has the first record's volume to a relative 1e-13."""
    tau, scale = hamilton_rescale(traj)
    rescaled = traj.snapshots * scale[:, None]
    vol = np.array([unit_scale(traj.config.background, v)[1] for v in rescaled])
    assert np.abs(vol / vol[0] - 1.0).max() <= 1e-13
    return tau, scale, rescaled


def compare_nonnormalized_run(n):
    path = Path(__file__).resolve().parent.parent / "configs" / "compare_nonnormalized.json"
    cfg = json.loads(path.read_text())
    cfg["grid"]["ambient_n"] = n
    return run(cli.build_run_config(cfg, path.parent))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hamilton_rescale_keeps_the_first_volume(n):
    # the factor is the unit-volume scaling of the logged vol, at every n
    traj = compare_nonnormalized_run(n)
    assert (traj.termination, traj.times[-1]) == ("time_reached", 1.0)
    tau, _, _ = rescaled_stack(traj)
    assert tau[0] == 0.0 and (np.diff(tau) > 0.0).all()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_logged_A_integrates_to_the_logged_volume(n):
    # d log(vol)/dt = (n/2) * A along the non-normalized flow: the trapezoid
    # integral of the logged A meets (2/n) * log(vol/vol0) to within the
    # trapezoid rule's error, sum of dt^3 * |A''| / 12 with A'' from second
    # divided differences (the defect is 0.9995 of it at n = 3, 4 and 5)
    traj = compare_nonnormalized_run(n)
    t, A, vol = traj.times, traj.columns["A"], traj.columns["vol"]
    defect = np.abs(flow.cumtrapz(A, t) - (2.0 / n) * np.log(vol / vol[0])).max()
    dt = np.diff(t)
    App = 2.0 * np.diff(np.diff(A) / dt) / (dt[1:] + dt[:-1])
    trapezoid_error = float(np.sum(dt[1:] ** 3 * np.abs(App))) / 12.0
    assert 0.0 < defect <= 1.05 * trapezoid_error


def test_hamilton_rescale_of_a_run_that_left_the_domain():
    # the last record's A is NaN, its vol is not: tau and the factor stay finite
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "sinusoidal:0.3,0.28,0"))
    u0 = ScalarField.constant(g, 1.0)
    dt = 1.5 * stable_dt(bg, ConformalState(u0), power_law(1.5), safety=1.0)
    traj = run(RunConfig(background=bg, f=power_law(1.5), u0=u0, T_final=2.0, dt=dt,
                         scheme="euler", normalized=False, stop_tol=0.0, log_cadence=1))
    assert (traj.termination, traj.n_records) == ("f_domain_violation", 50)
    assert math.isnan(traj.columns["A"][-1])
    tau, scale, _ = rescaled_stack(traj)
    assert np.isfinite(tau).all() and np.isfinite(scale).all()


def test_hamilton_rescale_starts_at_zero():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    traj = nonnormalized_run(bg, classical(), ScalarField.constant(g, 1.0), 0.5)
    tau, scale, rescaled = rescaled_stack(traj)
    assert tau[0] == 0.0 and scale[0] == 1.0
    assert np.array_equal(rescaled[0], traj.snapshots[0])


def test_hamilton_rescale_constant_state_stays_constant():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    traj = nonnormalized_run(bg, classical(), ScalarField.constant(g, 1.0), 1.0)
    # the non-normalized factor moves, the rescaled one must not: a constant
    # state's unit-volume scaling is 1 to rounding
    assert np.abs(traj.snapshots[-1] - 1.0).max() > 1e-3
    _, _, rescaled = rescaled_stack(traj)
    assert np.abs(rescaled - 1.0).max() < 1e-14


def test_hamilton_rescale_curvature_consistency():
    # S(rescaled) = exp(eta) * R holds exactly, record by record, with
    # eta = (2/n) * log(vol/vol0), the time integral of A
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    f = classical()
    traj = nonnormalized_run(bg, f, ScalarField.constant(g, 1.0), 0.4)
    _, _, rescaled = rescaled_stack(traj)
    vol = traj.columns["vol"]
    eta = (2.0 / bg.n) * np.log(vol / vol[0])
    for k in (0, traj.n_records // 2, traj.n_records - 1):
        R = scalar_curvature_values(bg, traj.snapshots[k])
        S = scalar_curvature_values(bg, rescaled[k])
        assert np.abs(S - np.exp(eta[k]) * R).max() < 1e-10 * max(1.0, np.abs(S).max())


def test_kernel_rows_outside_the_domain_match_record():
    # records whose curvature leaves f's domain carry NaN in A and fSA_sup
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "sinusoidal:1.0,0.5,0"))
    f = power_law(1.5)
    x = g.axis_coordinates(0)
    states = np.array([1.0 + a * np.cos(x) for a in (0.0, 0.5, 0.01, 0.6)])
    times = np.array([0.0, 0.1, 0.2, 0.3])
    cols = flow._Kernel(bg, f, normalized=True).columns(
        states, times, np.diff(times, prepend=0.0))
    assert np.isnan(cols["A"]).tolist() == [False, True, False, True]
    assert_rows_match_reference(bg, f, cols, states)


def test_run_columns_do_not_depend_on_the_record_block(monkeypatch):
    # run builds its columns from the logged states after the loop; five
    # records per block give the same columns and vol_pre as the default
    g, bg, f, _ = neg_setup(N=32)
    u0 = ScalarField(g, 1.0 + 0.2 * np.cos(g.axis_coordinates(0)))
    cfg = RunConfig(background=bg, f=f, u0=u0, T_final=0.3, stop_tol=0.0, log_cadence=3)
    default = run(cfg)
    assert default.n_records > 10
    monkeypatch.setattr(conflow.grid, "BLOCK_NODES", 5 * 32)
    blocked = run(cfg)
    assert np.array_equal(blocked.vol_pre, default.vol_pre)
    assert np.array_equal(blocked.snapshots, default.snapshots)
    for key in RECORD_COLUMNS:
        assert np.array_equal(blocked.columns[key], default.columns[key]), key
    assert_rows_match_reference(bg, f, default.columns, default.snapshots,
                                default.columns["dt"])


def test_hamilton_rescale_guards():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    traj = nonnormalized_run(bg, classical(), ScalarField.constant(g, 1.0), 0.1)
    # the f comes from the trajectory's config
    foreign = dataclasses.replace(traj, config=dataclasses.replace(traj.config, f=expdecay(1.0)))
    with pytest.raises(ValueError, match="homogeneity"):
        hamilton_rescale(foreign)
    norm_cfg = RunConfig(background=bg, f=classical(),
                         u0=ScalarField.constant(g, 1.0), T_final=0.1, stop_tol=0.0)
    with pytest.raises(ValueError, match="non-normalized"):
        hamilton_rescale(run(norm_cfg))


def test_only_a_normalized_run_takes_the_mean_A(monkeypatch):
    # inside the loop of a non-normalized run nothing reads A; the logged A
    # column comes from the columns pass
    means = []

    def counting(grid, v, w):
        means.append(1)
        return weighted_mean(grid, v, w)

    monkeypatch.setattr(flow, "weighted_mean", counting)
    path = Path(__file__).resolve().parent.parent / "configs" / "compare_nonnormalized.json"
    cfg = json.loads(path.read_text())
    cfg["time"]["T_final"] = 0.05
    config = cli.build_run_config(cfg, path.parent)
    traj = run(config)
    assert traj.n_records > 2 and np.isfinite(traj.columns["A"]).all()
    assert means == []
    # every state is logged: a normalized run takes one mean per evaluation
    traj = run(dataclasses.replace(config, normalized=True))
    assert len(means) == 4 * traj.n_records - 3


def test_only_a_normalized_run_asks_for_the_volume_weight(monkeypatch):
    # the probe and RK4's later stages ask for the weight only in the
    # normalized flow
    asked = []
    curvature = flow.scalar_curvature_values

    def recording(bg, u, with_weight=False):
        asked.append(with_weight)
        return curvature(bg, u, with_weight)

    monkeypatch.setattr(flow, "scalar_curvature_values", recording)
    path = Path(__file__).resolve().parent.parent / "configs" / "compare_nonnormalized.json"
    cfg = json.loads(path.read_text())
    cfg["time"]["T_final"] = 0.05
    config = cli.build_run_config(cfg, path.parent)
    traj = run(config)
    assert traj.n_records > 2 and asked == [False] * (4 * traj.n_records - 3)
    asked.clear()
    traj = run(dataclasses.replace(config, normalized=True))
    assert asked == [True] * (4 * traj.n_records - 3)


# ---------------------------------------------------------------------------
# Linearizations
# ---------------------------------------------------------------------------

def test_frechet_zero_direction():
    g, bg, f, _ = neg_setup(N=64)
    rng = np.random.default_rng(5)
    u = ScalarField(g, 1.0 + 0.2 * smooth_field(g, rng).values)
    z = ScalarField.constant(g, 0.0)
    assert np.abs(frechet_apply(bg, u, z, f).values).max() == 0.0
    assert np.abs(frechet_normalized_apply(bg, u, z, f).values).max() == 0.0


def test_frechet_linearity():
    g, bg, f, _ = neg_setup(N=64)
    rng = np.random.default_rng(6)
    u = ScalarField(g, 1.0 + 0.2 * smooth_field(g, rng).values)
    h1 = smooth_field(g, rng)
    h2 = smooth_field(g, rng)
    a, b = 0.7, -1.3
    comb = ScalarField(g, a * h1.values + b * h2.values)
    for op in (frechet_apply, frechet_normalized_apply):
        lhs = op(bg, u, comb, f).values
        rhs = a * op(bg, u, h1, f).values + b * op(bg, u, h2, f).values
        assert np.abs(lhs - rhs).max() < 1e-12


def test_frechet_matches_central_differences():
    g, bg, f, _ = neg_setup(N=64)
    rng = np.random.default_rng(7)
    u = ScalarField(g, 1.0 + 0.25 * smooth_field(g, rng).values)
    h = smooth_field(g, rng, amp=2.0)
    DF = frechet_apply(bg, u, h, f).values
    eps = 1e-5

    def F(w):
        S = scalar_curvature_values(bg, w.values)
        return f.eval_f(S) * w.values

    up = ScalarField(g, u.values + eps * h.values)
    um = ScalarField(g, u.values - eps * h.values)
    fd = (F(up) - F(um)) / (2 * eps)
    assert np.abs(fd - DF).max() < 1e-7


def test_frechet_scaling_direction_of_normalized_flow():
    # at unit volume, h = u generates a pure rescaling; compare against
    # central differences of the full normalized right-hand-side factor
    g, bg, f, _ = neg_setup(N=64)
    rng = np.random.default_rng(8)
    u_raw = 1.0 + 0.2 * smooth_field(g, rng).values
    u_raw = u_raw / np.mean(u_raw**4) ** 0.25
    u = ScalarField(g, u_raw)
    h = u
    DN = frechet_normalized_apply(bg, u, h, f).values
    eps = 1e-6

    def N(w):
        S = scalar_curvature_values(bg, w.values)
        A = average_f(bg, ConformalState(w), f)
        return (f.eval_f(S) - A) * w.values

    up = ScalarField(g, u.values * (1 + eps))
    um = ScalarField(g, u.values * (1 - eps))
    fd = (N(up) - N(um)) / (2 * eps)
    assert np.abs(fd - DN * 1.0).max() < 1e-6


def test_run_matches_independent_integrator():
    # end-to-end oracle: the same semidiscrete system handed to scipy's
    # RK45 at tight tolerance, with a dense-matrix right-hand side built
    # locally in the test, from the run's renormalized first state; the
    # oracle keeps the volume at its own order, not by projection
    from scipy.integrate import solve_ivp

    g = grid1d(N=48)
    bg = Background(field_from_spec(g, "sinusoidal:-1.5,0.4,0"))
    x = g.axis_coordinates(0)
    u0 = 1.0 + 0.1 * np.cos(x)
    D = dense_matrix(g)
    T = 0.5

    def rhs_oracle(_t, u):
        S = (-1.5 + 0.4 * np.sin(x)) * u - 6.0 * (D @ u)
        S = S / u**3
        w = u**4
        A = np.sum(-S * w) / np.sum(w)
        return 0.5 * (-S - A) * u

    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField(g, u0),
                    T_final=T, dt=5e-4, stop_tol=0.0, log_cadence=10**9)
    traj = run(cfg)
    sol = solve_ivp(rhs_oracle, (0.0, T), traj.snapshots[0], method="RK45",
                    rtol=1e-11, atol=1e-13, dense_output=False, t_eval=[T])
    assert np.abs(traj.snapshots[-1] - sol.y[:, -1]).max() < 1e-8


# ---------------------------------------------------------------------------
# 2D smoke
# ---------------------------------------------------------------------------

def test_two_dimensional_run():
    g = conflow.GridSpec(4, 2, (24, 24), (TWO_PI, TWO_PI))
    bg = Background(field_from_spec(g, "constant:0"))
    X = g.coordinate_mesh()[0]
    u0 = ScalarField(g, np.broadcast_to(1.0 + 0.2 * np.cos(X), g.shape).copy())
    cfg = RunConfig(background=bg, f=classical(), u0=u0, T_final=0.05, log_cadence=5)
    traj = run(cfg)
    assert traj.termination in ("time_reached", "stationary")
    assert np.abs(traj.columns["vol"] - 1.0).max() < 1e-12
