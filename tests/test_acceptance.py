"""Acceptance suite: one test per criterion, each printing a PASS line.

The shared runs:
  run1  negative background, classical response, N=128, run to stationarity
  run4  flat background, cosine bump factor, N=256, horizon 2
  run5  positive background, exponential-decay response, horizon 5
"""

import time

import numpy as np
import pytest

import conflow
from conflow import diagnostics as dg
from conflow.conformal import Background, ConformalState, scalar_curvature_values
from conflow.flow import DtPolicy, RunConfig, run
from conflow.fzoo import classical, expdecay, power_law
from conflow.grid import ScalarField, field_from_spec

from conftest import COS_PHASE, grid1d, smooth_field
from reference import average_f, lp_norm_g, shift

N1 = 128
N4 = 256

# plug-in constants for the negative configuration S0 = -1.5 + 0.4 sin x:
# the response f(x) = -x has f' = -1 on [-1.9, -1.1], so the predicted rate
# is 1 * 1.1 and the predicted amplitude is 1 * (S0_max - S0_min)
B_PRED = 1.1
C_PRED = 0.8


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def neg_config(N=N1, **overrides):
    g = grid1d(N=N)
    bg = Background(field_from_spec(g, "sinusoidal:-1.5,0.4,0"))
    kw = dict(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
              T_final=20.0, dt_policy=DtPolicy.adaptive(0.8), stop_tol=1e-8,
              renormalize_volume=True, log_cadence=10)
    kw.update(overrides)
    return RunConfig(**kw)


def flat_config(N=N4, **overrides):
    g = grid1d(N=N)
    bg = Background(field_from_spec(g, "constant:0"))
    u0 = conflow.field_from_spec(g, f"sinusoidal:1.0,0.3,0,{COS_PHASE}")
    kw = dict(background=bg, f=classical(), u0=u0, T_final=2.0,
              dt_policy=DtPolicy.adaptive(0.8), stop_tol=1e-8,
              renormalize_volume=True, log_cadence=10)
    kw.update(overrides)
    return RunConfig(**kw)


def pos_config(N=N1, **overrides):
    g = grid1d(N=N)
    bg = Background(field_from_spec(g, "sinusoidal:1.0,0.5,0"))
    kw = dict(background=bg, f=expdecay(1.0), u0=ScalarField.constant(g, 1.0),
              T_final=5.0, dt_policy=DtPolicy.adaptive(0.8), stop_tol=1e-8,
              renormalize_volume=True, log_cadence=10)
    kw.update(overrides)
    return RunConfig(**kw)


@pytest.fixture(scope="module")
def run1():
    cfg = neg_config()
    t0 = time.perf_counter()
    traj = run(cfg)
    wall = time.perf_counter() - t0
    return traj, cfg, wall


@pytest.fixture(scope="module")
def run4():
    cfg = flat_config()
    traj = run(cfg)
    return traj, cfg


@pytest.fixture(scope="module")
def run5():
    cfg = pos_config()
    traj = run(cfg)
    return traj, cfg


def test_criterion_1_negative_decay(run1):
    traj, cfg, wall = run1
    bg, f = cfg.background, cfg.f
    B_code, C_code = dg.predicted_decay_constants(bg, f)
    assert abs(B_code - B_PRED) < 1e-12 and abs(C_code - C_PRED) < 1e-12
    fit = dg.fit_decay(traj)
    env_ok = bool(np.all(traj.columns["fSA_sup"]
                         <= 1.1 * C_PRED * np.exp(-B_PRED * traj.times) + 1e-12))
    rep = dg.compare_decay(traj, fit)
    ok = (fit.B_fit >= 0.9 * B_PRED and fit.B_fit >= 0.99 and env_ok
          and rep.passed is True and wall < 60.0)
    report(1, "negative-case decay", ok,
           f"B_fit={fit.B_fit:.3f} >= 0.99, envelope_ok={env_ok}, wall={wall:.1f}s")


def test_criterion_2_minmax_containment(run1):
    traj, _, _ = run1
    eta = 1e-5
    smin, smax = traj.columns["Smin"], traj.columns["Smax"]
    contained = bool(smin.min() >= -1.9 - eta and smax.max() <= -1.1 + eta)
    max_rise = float(np.diff(smax).max())
    max_drop = float((-np.diff(smin)).max())
    rep = dg.check_minmax_principle(traj, tol=eta)
    ok = contained and max_rise <= eta and max_drop <= eta and rep.passed is True
    report(2, "min/max containment", ok,
           f"S in [{smin.min():.6f}, {smax.max():.6f}], rise={max_rise:.2e},"
           f" drop={max_drop:.2e}, eta={eta:g}")


def test_criterion_3_u_bounds_and_convergence(run1):
    traj, cfg, _ = run1
    bg = cfg.background
    half_width = (4 - 2) * C_PRED / (4.0 * B_PRED)  # (n-2)C/(4B) with n = 4
    lo, hi = np.exp(-half_width), np.exp(half_width)
    in_band = bool(traj.columns["umin"].min() >= lo - 1e-12
                   and traj.columns["umax"].max() <= hi + 1e-12)
    S = scalar_curvature_values(bg, traj.snapshots[-1])
    A = traj.columns["A"][-1]
    spread = float(S.max() - S.min())
    inv_gap = float(np.abs(S - (-A)).max())  # f(x) = -x inverts explicitly
    rep = dg.check_stationary_limit(traj)
    ok = (traj.termination == "stationary" and in_band
          and spread <= 1e-6 and float(S.max()) < 0.0 and inv_gap <= 1e-6
          and rep.passed is True)
    report(3, "u bounds and convergence", ok,
           f"u in [{lo:.4f}, {hi:.4f}]: {in_band}, spread={spread:.2e},"
           f" |S-f^-1(A)|={inv_gap:.2e}, S_max={S.max():.4f}")


def test_criterion_4_flat_case(run4):
    traj, _ = run4
    rep = dg.check_flat_identity(traj)
    integral = rep.measured["max_abs_integral"]
    r0 = 0.7 / 1.3
    k = r0**4
    ratio_ok = bool((traj.columns["umin"] / traj.columns["umax"]).min() >= r0 - 1e-8)
    power_ok = bool((traj.columns["umin"] ** 4).min() >= k - 1e-8)
    smin = traj.columns["Smin"]
    contain_ok = bool(smin.min() >= smin[0] - 1e-6)
    ok = (integral <= 1e-9 and ratio_ok and power_ok and contain_ok
          and rep.passed is True)
    report(4, "flat case", ok,
           f"|int u^beta S|={integral:.2e}, ratio>= {r0:.6f}-1e-8: {ratio_ok},"
           f" umin^4>={k:.6f}-1e-8: {power_ok}, Smin contained: {contain_ok}")


def test_criterion_5_positive_bounded_f(run5):
    traj, cfg = run5
    bg = cfg.background
    nonneg = bool(traj.columns["Smin"].min() >= -1e-8)
    norm_half0 = traj.columns["lpn2"][0]
    p_ok = {}
    for p in (1.0, 2.0):
        vals = np.array([lp_norm_g(ScalarField(bg.grid, scalar_curvature_values(bg, u)), p,
                                   ScalarField(bg.grid, u))
                         for u in traj.snapshots])
        p_ok[p] = bool(vals.max() <= norm_half0 + 1e-8)
    monotone = bool(np.diff(traj.columns["lpn2"]).max() <= 1e-8)
    a_obs = float((traj.columns["A"] - 1.0).min())  # f(0) = 1 for exp(-x)
    envelope = 0.5 * np.exp(a_obs * traj.times)     # S0_min = 0.5 on the grid
    env_ok = bool(np.all(traj.columns["Smin"] >= envelope - 1e-8))
    rep_l = dg.check_Lnhalf_monotone(traj)
    rep_p = dg.check_positive_S_bounds(traj)
    ok = (nonneg and p_ok[1.0] and p_ok[2.0] and monotone and env_ok
          and rep_l.passed is True and rep_p.passed is True)
    report(5, "positive case, bounded f", ok,
           f"S>=-1e-8: {nonneg}, L1/L2<=Ln/2(0): {p_ok}, Ln/2 monotone: {monotone},"
           f" Smin envelope (a={a_obs:.3f}): {env_ok}")


def _identity_defects(cfg_builder, dt, cadence, T):
    cfg = cfg_builder(dt_policy=DtPolicy.fixed(dt), log_cadence=cadence,
                      T_final=T, stop_tol=0.0)
    traj = run(cfg)
    rep = dg.check_evolution_identities(traj)
    return {k: v for k, v in rep.measured.items() if k != "sigma_forms_gap"}, rep


def test_criterion_6_evolution_identities(run1, run4):
    rows = []
    ok = True
    for tag, builder, dt, cad, T in (
            ("negative", neg_config, 2e-4, 25, 0.5),
            ("flat", flat_config, 3e-5, 40, 0.4)):
        coarse, rep_c = _identity_defects(builder, dt, cad, T)
        fine, rep_f = _identity_defects(builder, dt / 2, cad, T)
        for name, d0 in coarse.items():
            d1 = fine[name]
            ok = ok and d0 <= 1e-3 and d1 <= 1e-3
            if d0 > 1e-8:  # above the rounding floor the ratio must show dt^2
                ok = ok and d0 / d1 >= 3.0
                rows.append(f"{tag}:{name} {d0:.2e}->{d1:.2e} (x{d0/d1:.1f})")
            else:
                rows.append(f"{tag}:{name} {d0:.2e} (floor)")
        ok = ok and rep_c.passed is True and rep_f.passed is True
    report(6, "evolution identities", ok, "; ".join(rows))


def test_criterion_7_rescaling_equivalence():
    rep_neg = dg.check_rescale_equivalence(run(neg_config()))
    cfg_pos = pos_config(f=power_law(1.5))
    rep_pos = dg.check_rescale_equivalence(run(cfg_pos))
    ok = rep_neg.passed is True and rep_pos.passed is True
    report(7, "rescaling equivalence", ok,
           f"classical gap={rep_neg.measured['sup_gap']:.2e},"
           f" power-3/2 gap={rep_pos.measured['sup_gap']:.2e}, tol=1e-4")


def test_criterion_8_frechet_slopes():
    g = grid1d(N=64)
    bg = Background(field_from_spec(g, "sinusoidal:-1.5,0.4,0"))
    rng = np.random.default_rng(20240611)
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    slopes = []

    def raw(which, w, f):
        S = scalar_curvature_values(bg, w.values)
        if which == "plain":
            return f.eval_f(S) * w.values
        A = average_f(bg, ConformalState(w), f)
        return (f.eval_f(S) - A) * w.values

    for f, amp in ((classical(), 3.0), (expdecay(1.0), 1.0)):
        for _ in range(5):
            u = ScalarField(g, 1.0 + 0.25 * smooth_field(g, rng).values)
            h = smooth_field(g, rng, amp=amp)
            DF = conflow.frechet_apply(bg, u, h, f).values
            DN = conflow.frechet_normalized_apply(bg, u, h, f).values
            for which, D in (("plain", DF), ("normalized", DN)):
                defects = []
                for e in eps:
                    up = ScalarField(g, u.values + e * h.values)
                    um = ScalarField(g, u.values - e * h.values)
                    defects.append(np.abs((raw(which, up, f) - raw(which, um, f))
                                          / (2 * e) - D).max())
                slopes.append(float(np.polyfit(np.log(eps), np.log(defects), 1)[0]))
    slopes = np.array(slopes)
    ok = bool(np.all(np.abs(slopes - 2.0) <= 0.1))
    report(8, "Frechet correctness", ok,
           f"{len(slopes)} slopes in [{slopes.min():.3f}, {slopes.max():.3f}],"
           " required 2.00 +/- 0.1")


def test_criterion_9_shift_invariance():
    trajs = []
    for f in (classical(), shift(classical(), 5.0)):
        cfg = neg_config(f=f, T_final=1.0, dt_policy=DtPolicy.fixed(2e-4),
                         stop_tol=0.0, log_cadence=20)
        trajs.append(run(cfg))
    same_times = bool(np.array_equal(trajs[0].times, trajs[1].times))
    gap = float(np.abs(trajs[0].snapshots - trajs[1].snapshots).max())
    ok = same_times and gap <= 1e-10
    report(9, "shift invariance", ok, f"sup u gap={gap:.2e} over forced dt grid")


def test_criterion_10_fixed_point_and_order():
    # exact fixed point: constant background curvature, unit factor
    g = grid1d(N=N1)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    st = ConformalState(ScalarField.constant(g, 1.0))
    f = classical()
    worst_rate = 0.0
    for _ in range(5):
        worst_rate = max(worst_rate,
                         float(np.abs(conflow.rhs_normalized(bg, st, f).values).max()))
        st = conflow.step(bg, st, f, 1e-3)
    fixed_ok = worst_rate <= 1e-14

    # temporal self-convergence on the flat configuration, coarse grid so the
    # dt^4 error sits far above rounding
    diffs = []
    finals = []
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = flat_config(N=32, T_final=0.5, dt_policy=DtPolicy.fixed(dt),
                          stop_tol=0.0, renormalize_volume=False,
                          log_cadence=10**9)
        finals.append(run(cfg).snapshots[-1])
    diffs = [float(np.abs(finals[i] - finals[i + 1]).max()) for i in range(2)]
    order = float(np.log2(diffs[0] / diffs[1]))
    ok = fixed_ok and 3.8 <= order <= 4.2
    report(10, "fixed point and scheme order", ok,
           f"fixed-point rate={worst_rate:.1e}, rk4 order={order:.3f}")
