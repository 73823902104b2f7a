"""Flows and checks away from n = 4, where the conformal exponents stop
being small integers and the power fast paths give way to np.power."""

import numpy as np
import pytest

import conflow
from conflow import diagnostics as dg
from conflow.conformal import Background, scalar_curvature_values
from conflow.flow import RunConfig, run
from conflow.fzoo import classical
from conflow.grid import ScalarField, field_from_spec, node_mean, power

from conftest import COS_PHASE, TWO_PI


def make_grid(n, N=64):
    return conflow.GridSpec(n, 1, (N,), (TWO_PI,))


def test_power_helper_matches_np_power():
    rng = np.random.default_rng(0)
    v = 0.5 + rng.random(100)
    for e in (-3.0, -7.0 / 3.0, -1.0, 0.0, 1.5, 10.0 / 3.0, 4.0):
        assert np.abs(power(v, e) - np.power(v, e)).max() < 1e-13


@pytest.mark.parametrize("n,beta,cn", [(3, 5.0, 8.0), (5, 7.0 / 3.0, 16.0 / 3.0),
                                       (6, 2.0, 5.0)])
def test_constant_factor_curvature_scaling(n, beta, cn):
    g = make_grid(n, N=32)
    bg = Background(field_from_spec(g, "constant:2.0"))
    assert (bg.beta, bg.c_n) == (beta, cn)
    S = scalar_curvature_values(bg, ScalarField.constant(g, 1.3).values)
    assert np.abs(S - 2.0 * 1.3 ** (1.0 - beta)).max() < 1e-13


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("normalized", [False])
def test_vol_pre_without_renormalization_is_the_volume_of_each_record(n, dims, normalized):
    # beta = 5 takes the weight from the curvature's power chain, beta = 7/3
    # from its own power; either way vol_pre is each state's mean weight.
    # Only a non-normalized run goes without renormalization.
    N = 64 if dims == 1 else 16
    g = conflow.GridSpec(n, dims, (N,) * dims, (TWO_PI,) * dims)
    bg = Background(field_from_spec(g, "sinusoidal:-1.5,0.4,0"))
    u0 = conflow.field_from_spec(g, f"sinusoidal:1.0,0.2,{dims - 1}")
    cfg = RunConfig(background=bg, f=classical(), u0=u0, T_final=0.05, stop_tol=0.0,
                    normalized=normalized, log_cadence=5)
    traj = run(cfg)
    assert traj.termination == "time_reached" and traj.n_records > 2
    want = [node_mean(g, scalar_curvature_values(bg, u, with_weight=True)[1])
            for u in traj.snapshots]
    assert traj.vol_pre.tolist() == want


def test_three_dimensional_negative_run():
    g = make_grid(3, N=64)
    bg = Background(field_from_spec(g, "sinusoidal:-1.5,0.4,0"))
    f = classical()
    cfg = RunConfig(background=bg, f=f, u0=ScalarField.constant(g, 1.0),
                    T_final=20.0, stop_tol=1e-8, log_cadence=10)
    traj = run(cfg)
    assert traj.termination == "stationary"
    assert dg.check_minmax_principle(traj).passed is True
    assert dg.compare_decay(traj).passed is True
    assert dg.check_u_bounds(traj).passed is True
    assert dg.check_stationary_limit(traj).passed is True


def test_five_dimensional_flat_run():
    # beta = 7/3 exercises the non-integer exponent path end to end
    g = make_grid(5, N=64)
    bg = Background(field_from_spec(g, "constant:0"))
    u0 = conflow.field_from_spec(g, f"sinusoidal:1.0,0.2,0,{COS_PHASE}")
    f = classical()
    cfg = RunConfig(background=bg, f=f, u0=u0, T_final=0.5, stop_tol=1e-8,
                    log_cadence=10)
    traj = run(cfg)
    assert traj.termination in ("time_reached", "stationary")
    assert np.abs(traj.columns["vol"] - 1.0).max() < 1e-12
    rep = dg.check_flat_identity(traj)
    assert rep.passed is True
    rep_u = dg.check_u_bounds(traj)
    assert rep_u.passed is True


def test_five_dimensional_identities():
    g = make_grid(5, N=64)
    bg = Background(field_from_spec(g, "sinusoidal:-1.5,0.4,0"))
    f = classical()
    cfg = RunConfig(background=bg, f=f, u0=ScalarField.constant(g, 1.0),
                    T_final=0.2, dt=2e-4, stop_tol=0.0,
                    log_cadence=20)
    traj = run(cfg)
    # p list includes the non-integer n/2 = 2.5 norm; S < 0 keeps it smooth
    rep = dg.check_evolution_identities(traj)
    assert rep.passed is True
    assert "int|S|^2.5" in rep.measured and rep.notes == ""


def test_three_dimensional_identities_leave_out_p_below_2():
    # n/2 = 1.5 < 2: the |S|^p family keeps p = 2 alone, and the note says
    # why p = 1.5 is left out instead of giving up the whole check
    g = make_grid(3, N=64)
    bg = Background(field_from_spec(g, "sinusoidal:-1.5,0.4,0"))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=0.5, stop_tol=1e-8, log_cadence=10)
    rep = dg.check_evolution_identities(run(cfg))
    assert rep.passed is True
    assert "int|S|^2" in rep.measured and "int|S|^1.5" not in rep.measured
    assert "p=1.5" in rep.notes


def test_three_dimensional_lp_monotonicity_skips_p2():
    # for n = 3 the norm bound only covers p <= 1.5; asserting it for p = 2
    # would be wrong (norms grow with p at unit volume)
    g = make_grid(3, N=64)
    bg = Background(field_from_spec(g, "sinusoidal:1.0,0.5,0"))
    f = conflow.expdecay(1.0)
    cfg = RunConfig(background=bg, f=f, u0=ScalarField.constant(g, 1.0),
                    T_final=2.0, stop_tol=1e-8, log_cadence=10)
    traj = run(cfg)
    rep = dg.check_Lnhalf_monotone(traj)
    assert rep.passed is True
    assert "margin_p1.5" in rep.measured and "margin_p2" not in rep.measured
    # the p = 2 norm genuinely exceeds the initial L^1.5 norm here
    assert traj.columns["lp2"][0] > traj.columns["lpn2"][0]


def test_five_dimensional_identities_drop_fractional_p_at_sign_change():
    # flat case: S changes sign, so |S|^2.5 kinks and is excluded with a note
    g = make_grid(5, N=64)
    bg = Background(field_from_spec(g, "constant:0"))
    u0 = conflow.field_from_spec(g, f"sinusoidal:1.0,0.2,0,{COS_PHASE}")
    cfg = RunConfig(background=bg, f=classical(), u0=u0, T_final=0.05,
                    dt=2e-4, stop_tol=0.0, log_cadence=10)
    traj = run(cfg)
    rep = dg.check_evolution_identities(traj)
    assert rep.passed is True
    assert "int|S|^2.5" not in rep.measured
    assert "kink" in rep.notes
