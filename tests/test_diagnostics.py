import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import conflow
from conflow import cli
from conflow import diagnostics as dg
from conflow.conformal import Background, ConformalState, scalar_curvature_values
from conflow.flow import RunConfig, Trajectory, _Kernel, hamilton_rescale, run, stable_dt
from conflow.fzoo import classical, expdecay, power_law, reciprocal
from conflow.grid import ScalarField, field_from_spec, grad_inner_values, power

from conftest import COS_PHASE, grid1d
from reference import metric_laplacian


NEG_BG = "sinusoidal:-1.5,0.4,0"
POS_BG = "sinusoidal:1.0,0.5,0"


def make_run(bgspec, f, u0spec="constant:1", N=64, T=1.0, stop_tol=1e-8,
             cadence=10, dt=None):
    g = grid1d(N=N)
    bg = Background(field_from_spec(g, bgspec))
    u0 = conflow.field_from_spec(g, u0spec)
    cfg = RunConfig(background=bg, f=f, u0=u0, T_final=T, dt=dt, safety=0.8,
                    stop_tol=stop_tol, log_cadence=cadence)
    return run(cfg), bg


def rebuild(traj, snapshots, times=None):
    """Doctored trajectory with recomputed per-record diagnostics."""
    cfg = traj.config
    kern = _Kernel(cfg.background, cfg.f, normalized=True)
    times = traj.times if times is None else np.asarray(times, dtype=float)
    snapshots = np.asarray(snapshots, dtype=float)
    return Trajectory(
        config=cfg,
        termination=traj.termination,
        columns=kern.columns(snapshots, times, np.diff(times, prepend=times[0])),
        snapshots=snapshots,
        vol_pre=np.ones(len(snapshots)),
        notes="crafted",
    )


def reverse_in_time(traj):
    return rebuild(traj, traj.snapshots[::-1])


@pytest.fixture(scope="module")
def neg_run():
    traj, bg = make_run(NEG_BG, classical(), T=20.0, N=64)
    assert traj.termination == "stationary"
    return traj, bg


@pytest.fixture(scope="module")
def pos_run():
    traj, bg = make_run(POS_BG, expdecay(1.0), T=3.0, N=64)
    assert traj.termination == "time_reached"
    return traj, bg


@pytest.fixture(scope="module")
def flat_run():
    traj, bg = make_run("constant:0", classical(),
                        u0spec=f"sinusoidal:1.0,0.3,0,{COS_PHASE}", T=1.0, N=64)
    return traj, bg


# ---------------------------------------------------------------------------
# Positive paths
# ---------------------------------------------------------------------------

def test_minmax_passes_on_negative_run(neg_run):
    traj, _ = neg_run
    rep = dg.check_minmax_principle(traj)
    assert rep.passed is True
    assert rep.segment["records"] == traj.n_records


def test_minmax_tolerance_calibration():
    # resolution study: measured violations sit far below the h^2 allowance
    for N in (64, 128):
        traj, _ = make_run(NEG_BG, classical(), T=2.0, N=N)
        rep = dg.check_minmax_principle(traj)
        assert rep.passed is True
        assert rep.measured["max_rise_of_Smax"] <= 1e-8
        assert rep.measured["max_drop_of_Smin"] <= 1e-8
        assert rep.tolerances["eta"] >= 1e-6


def test_decay_fit_window_skips_transient(neg_run):
    traj, _ = neg_run
    fit = dg.fit_decay(traj)
    assert fit.window[0] >= 0.1 * traj.times[-1] - 1e-12
    assert fit.n_points >= 3
    assert fit.B_fit > 0


def test_decay_passes_on_negative_run(neg_run):
    traj, _ = neg_run
    rep = dg.compare_decay(traj)
    assert rep.passed is True
    assert rep.measured["B_fit"] >= 0.9 * rep.predicted["B"]


def test_decay_vacuous_on_constant_background():
    traj, _ = make_run("constant:-1.0", classical(), T=1.0, N=32)
    rep = dg.compare_decay(traj)
    assert rep.passed is True
    assert "vacuous" in rep.notes


def test_decay_inconclusive_on_a_run_too_short_to_fit():
    # the curvature leaves reciprocal(3)'s domain (-3, inf) at the first
    # record: no point to fit, and the series never reached the floor
    f = reciprocal(3.0)
    traj, _ = make_run(NEG_BG, f, u0spec="sinusoidal:1.0,0.45,0", N=32)
    assert traj.termination == "f_domain_violation"
    rep = dg.compare_decay(traj)
    assert rep.passed is None
    assert rep.measured["n_points"] == 0
    assert f"of a {traj.n_records}-record run" in rep.notes
    assert "vacuous" not in rep.notes


def test_decay_fails_a_short_run_above_the_envelope():
    # two records, one of them in the fit window: no rate to fit, but the
    # initial sup |f(S) - A| of this u0 lies above 1.1 * C
    f = classical()
    traj, _ = make_run(NEG_BG, f, u0spec="sinusoidal:1.0,0.2,0", N=32, T=0.05, cadence=1000)
    assert (traj.termination, traj.n_records) == ("time_reached", 2)
    rep = dg.compare_decay(traj)
    assert rep.passed is False
    assert rep.measured["n_points"] == 1 and rep.measured["envelope_margin"] < 0.0
    assert rep.notes.endswith("of a 2-record run; the envelope is exceeded")


def test_decay_inconclusive_on_noisy_fit(neg_run):
    # a series the exponential model explains poorly must not pass or fail
    traj, _ = neg_run
    rng = np.random.default_rng(9)
    doctored = rebuild(traj, traj.snapshots)
    noise = np.exp(rng.normal(scale=1.5, size=traj.n_records))
    doctored.columns["fSA_sup"] = traj.columns["fSA_sup"] * noise
    rep = dg.compare_decay(doctored)
    assert rep.passed is None
    assert rep.measured["residual"] > 0.1


def test_u_bounds_flat_and_negative(neg_run, flat_run):
    traj, _ = neg_run
    assert dg.check_u_bounds(traj).passed is True
    traj2, _ = flat_run
    rep = dg.check_u_bounds(traj2)
    assert rep.passed is True
    assert abs(rep.measured["ratio_initial"] - 0.7 / 1.3) < 1e-12


def test_identities_pass_on_fixed_dt_run():
    traj, _ = make_run(NEG_BG, classical(), T=0.4, N=64, dt=2e-4, cadence=20,
                        stop_tol=0.0)
    rep = dg.check_evolution_identities(traj)
    assert rep.passed is True
    assert rep.measured["sigma_forms_gap"] < 1e-12


def test_lnhalf_passes_on_positive_run(pos_run):
    traj, _ = pos_run
    rep = dg.check_Lnhalf_monotone(traj)
    assert rep.passed is True


def test_positive_bounds_pass(pos_run):
    traj, _ = pos_run
    rep = dg.check_positive_S_bounds(traj)
    assert rep.passed is True
    assert "C taken as the observed supremum" in rep.notes
    assert rep.predicted["a_from_growth_certificate"] <= rep.measured["a_observed"]


def test_positive_checks_need_a_finite_f_at_zero():
    # reciprocal with alpha 0 is +inf at the open end 0 of its domain: no
    # shifted mean exists, where f(1e-12) = 1e12 once made the envelope 0
    traj, _ = make_run(POS_BG, reciprocal(0.0), T=0.5)
    for check in (dg.check_positive_S_bounds, dg.check_u_bounds):
        rep = check(traj)
        assert rep.passed is None
        assert rep.notes.endswith("f has no finite value at 0 (f(0) = inf)")


def test_positive_checks_need_0_inside_the_domain_of_f():
    # reciprocal with alpha -1 lives on (1, inf), above the background's 1.5
    traj, _ = make_run("sinusoidal:2.0,0.5,0", reciprocal(-1.0), T=0.5)
    for check in (dg.check_positive_S_bounds, dg.check_u_bounds):
        rep = check(traj)
        assert rep.passed is None
        assert rep.notes.endswith(": 0 outside the domain of f")


def test_positive_bounds_take_a_finite_boundary_value_at_zero():
    # -x**1.5 is open at 0, where its own value -0.0 is the limit
    traj, _ = make_run(POS_BG, conflow.power_law(1.5), T=0.2)
    rep = dg.check_positive_S_bounds(traj)
    assert rep.passed is True
    assert math.copysign(1.0, rep.predicted["f0"]) == -1.0 and rep.predicted["f0"] == 0.0
    assert rep.notes == "f(0) taken as the boundary limit"


def test_flat_identity_passes(flat_run):
    traj, _ = flat_run
    rep = dg.check_flat_identity(traj)
    assert rep.passed is True
    assert rep.measured["max_abs_integral"] < 1e-12


def test_stationary_limit_passes(neg_run):
    traj, _ = neg_run
    rep = dg.check_stationary_limit(traj)
    assert rep.passed is True
    # f(x) = -x inverts exactly: the limit curvature is -A
    A_final = traj.columns["A"][-1]
    assert abs(rep.predicted["f_inverse_of_A"] + A_final) < 1e-9


def test_sobolev_info_positive(pos_run):
    traj, _ = pos_run
    rep = dg.sobolev_program_series(traj)
    assert rep.passed is None
    assert np.isfinite(rep.measured["final_integral"])


@pytest.mark.parametrize("bgspec,f,positive_note", [
    (POS_BG, expdecay(1.0), "C taken as the observed supremum of the mean of f(S)-inf f"
                            " (no a-priori constant is available)"),
    (POS_BG, power_law(1.5), "f(0) taken as the boundary limit"),
    (NEG_BG, classical(), "needs strictly positive initial curvature"),
], ids=["expdecay", "power", "negative"])
def test_no_report_note_ends_in_a_separator(bgspec, f, positive_note):
    # a note is its pieces joined by "; ", never a piece with a dangling ";"
    traj, bg = make_run(bgspec, f, N=32, T=0.1)
    reports = dg.run_checks(traj, bg, traj.config.f, list(dg.CHECK_NAMES))
    notes = {r.id: r.notes for r in reports if r.notes}
    assert notes["positive_curvature_bounds"] == positive_note
    assert [n for n in notes.values() if n.rstrip().endswith(";")] == []


def test_rescale_equivalence_fixed_point():
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "constant:-1.0"))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=0.5)
    rep = dg.check_rescale_equivalence(run(cfg))
    assert rep.passed is True
    assert rep.measured["sup_gap"] < 1e-8


def test_rescale_check_runs_only_the_non_normalized_flow(monkeypatch):
    # the normalized trajectory under verification is not run again
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=0.2, stop_tol=0.0)
    traj = run(cfg)
    runs = []

    def counting_run(config):
        runs.append(config)
        return run(config)

    monkeypatch.setattr(dg, "run", counting_run)
    rep = dg.check_rescale_equivalence(traj)
    assert [c.normalized for c in runs] == [False]
    assert rep.passed is True
    assert rep.segment == dg._segment(traj)

    # the companion's horizon moves only its last record: at 50 times the
    # margin the report is the same from one longer run, and at no margin
    # the companion falls short of T and is rerun to a longer horizon
    margin = dg.RESCALE_MARGIN
    for scaled, n_runs in ((50.0 * margin, [1]), (0.0, range(2, dg.RESCALE_RERUNS + 2))):
        runs.clear()
        monkeypatch.setattr(dg, "RESCALE_MARGIN", scaled)
        assert dg.check_rescale_equivalence(traj).to_dict() == rep.to_dict()
        assert len(runs) in n_runs
        assert [c.T_final for c in runs] == sorted(c.T_final for c in runs)

    runs.clear()
    nn = run(RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                       T_final=0.05, normalized=False, stop_tol=0.0))
    rep = dg.check_rescale_equivalence(nn)
    assert rep.passed is None and "normalized" in rep.notes
    assert runs == []


def _counted_rescale_check(monkeypatch, traj):
    """The rescale report of ``traj`` and the number of companion runs."""
    runs = []

    def counting_run(config):
        runs.append(config)
        return run(config)

    monkeypatch.setattr(dg, "run", counting_run)
    return dg.check_rescale_equivalence(traj), len(runs)


@pytest.mark.parametrize("cadence,sup_gap,records", [
    (1, 4.523514518517402e-08, 413),
    (5, 4.523483054796884e-08, 84),
    (50, 4.523483054796884e-08, 10),
    (10 ** 9, 1.7285973985536884e-08, 2),
], ids=["1", "5", "50", "1000000000"])  # a re-pinned gap keeps the test's name
def test_rescale_check_of_compare_normalized_at_any_cadence(monkeypatch, cadence, sup_gap,
                                                            records):
    # the companion's horizon is read off the logged A column: a coarse log
    # still takes one run, and the records bracketing each normalized time,
    # so the pinned gap, are those of a run stopped once its rescaled time
    # passed T
    path = Path(__file__).resolve().parent.parent / "configs" / "compare_normalized.json"
    cfg = json.loads(path.read_text())
    cfg["time"]["log_cadence"] = cadence
    traj = run(cli.build_run_config(cfg, path.parent))
    rep, n_runs = _counted_rescale_check(monkeypatch, traj)
    assert (rep.passed, rep.notes, n_runs) == (True, "", 1)
    assert rep.measured == {"sup_gap": sup_gap, "matched_records": records}


@pytest.mark.parametrize("u0,sup_gap,records", [
    # 2 scales to 1 exactly: constant:1's runs at cadence 5 above, bit for bit
    ("constant:2", 4.523483054796884e-08, 84),
    ("sinusoidal:1.0,0.2,0", 2.0582719995054788e-07, 90),
], ids=["constant:2", "sinusoidal:1.0,0.2,0"])
def test_rescale_check_of_compare_normalized_off_unit_volume(monkeypatch, u0, sup_gap,
                                                             records):
    # the rescaling identity maps solutions with the same initial data: the
    # companion starts from the normalized run's first state, u0 at unit volume
    path = Path(__file__).resolve().parent.parent / "configs" / "compare_normalized.json"
    cfg = json.loads(path.read_text())
    cfg["u0"] = u0
    traj = run(cli.build_run_config(cfg, path.parent))
    rep, n_runs = _counted_rescale_check(monkeypatch, traj)
    assert (rep.passed, rep.notes, n_runs) == (True, "", 1)
    assert rep.measured == {"sup_gap": sup_gap, "matched_records": records}


def test_rescale_check_of_a_one_record_run(monkeypatch):
    # T = 0: the companion's first state is all the comparison reads
    traj, _ = make_run("constant:-1.0", classical(), N=32, T=0.5)
    assert (traj.termination, traj.n_records) == ("stationary", 1)
    rep, n_runs = _counted_rescale_check(monkeypatch, traj)
    assert (rep.passed, rep.notes, n_runs) == (True, "", 1)
    assert rep.measured == {"sup_gap": 0.0, "matched_records": 1}


def left_domain_run():
    """An unstable Euler step takes S out of power(1.5)'s domain (0, inf):
    the run ends ``f_domain_violation`` after 21 records, the last with NaN
    f-columns."""
    g = grid1d(N=32)
    bg = Background(field_from_spec(g, "sinusoidal:0.3,0.28,0"))
    u0 = ScalarField.constant(g, 1.0)
    dt = 1.5 * stable_dt(bg, ConformalState(u0), power_law(1.5), safety=1.0)
    assert dt == 0.008437125961221757
    traj = run(RunConfig(background=bg, f=power_law(1.5), u0=u0, T_final=2.0, dt=dt,
                         scheme="euler", stop_tol=0.0, log_cadence=3))
    assert (traj.termination, traj.n_records) == ("f_domain_violation", 21)
    assert math.isnan(traj.columns["A"][-1])
    return traj


def test_rescale_check_of_a_run_that_left_the_domain(monkeypatch):
    # the companion leaves the domain before its predicted horizon.  Its
    # rescaled times stay finite to its last record, so the three
    # normalized records past them are counted as unmatched
    traj = left_domain_run()
    rep, n_runs = _counted_rescale_check(monkeypatch, traj)
    assert (rep.passed, n_runs) == (False, 1)
    assert rep.notes == ("rescaled run covers 18 of 21 normalized records"
                         " (non-normalized run ended with f_domain_violation)")
    assert rep.measured == {"sup_gap": 0.00028809220525360946, "matched_records": 18}


def rescale_pair(N=128, T=0.3):
    """A normalized run and its non-normalized companion, logged every step."""
    g = grid1d(N=N)
    bg = Background(field_from_spec(g, NEG_BG))
    cfg = RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                    T_final=T, stop_tol=0.0)
    nn = run(RunConfig(background=bg, f=classical(), u0=ScalarField.constant(g, 1.0),
                       T_final=1.5 * T, normalized=False, stop_tol=0.0, log_cadence=1))
    return run(cfg), nn


def test_compare_rescaled_keeps_one_copy_of_the_companion():
    # the rescaled states are formed two records at a time, never as a stack
    traj, nn = rescale_pair()
    tracemalloc.start()
    try:
        rep = dg.compare_rescaled(traj, nn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed is True and rep.measured["matched_records"] == traj.n_records
    assert peak <= 0.25 * nn.snapshots.nbytes, (peak, nn.snapshots.nbytes)


def test_sup_gap_of_the_factors_is_the_gap_of_the_rescaled_stack():
    traj, nn = rescale_pair(N=32)
    tau, scale = hamilton_rescale(nn)
    stack = nn.snapshots * scale[:, None]
    ones = np.ones(nn.n_records)
    assert (dg.sup_deviation_on_times(traj.times, traj.snapshots, tau, nn.snapshots, scale)
            == dg.sup_deviation_on_times(traj.times, traj.snapshots, tau, stack, ones))
    assert dg.compare_rescaled(traj, nn).predicted == {"alpha": 1.0}


# The direct entry of every check, by its short name
DIRECT = {
    "minmax": dg.check_minmax_principle,
    "decay": dg.compare_decay,
    "u_bounds": dg.check_u_bounds,
    "identities": dg.check_evolution_identities,
    "lnhalf": dg.check_Lnhalf_monotone,
    "positive_bounds": dg.check_positive_S_bounds,
    "flat_identity": dg.check_flat_identity,
    "rescale": dg.check_rescale_equivalence,
    "stationary": dg.check_stationary_limit,
    "sobolev_info": dg.sobolev_program_series,
}


def test_every_checker_takes_the_trajectory_alone():
    traj, _ = make_run(NEG_BG, classical(), T=0.2, N=32, stop_tol=0.0)
    reports = dg.run_checks(traj, traj.config.background, traj.config.f, list(dg.CHECK_NAMES))
    for name, rep in zip(dg.CHECK_NAMES, reports):
        assert repr(DIRECT[name](traj).to_dict()) == repr(rep.to_dict()), name


def test_run_checks_rejects_a_foreign_background_or_f(neg_run, monkeypatch):
    # the checks read both from traj.config; a second source is refused
    # before any checker runs
    traj, bg = neg_run
    ran = []
    monkeypatch.setitem(dg._CHECKS, "minmax", lambda *a: ran.append(a))
    fresh_bg = Background(field_from_spec(bg.grid, NEG_BG))
    for foreign in ((bg, classical()), (fresh_bg, traj.config.f)):
        with pytest.raises(ValueError, match="must be the trajectory's own"):
            dg.run_checks(traj, *foreign, ["minmax"])
    assert ran == []
    dg.run_checks(traj, bg, traj.config.f, ["minmax"])
    assert len(ran) == 1 and ran[0][0] is traj


ALL_BUT_RESCALE = [name for name in dg.CHECK_NAMES if name != "rescale"]


@pytest.mark.parametrize("records_per_block", [1, 3])
def test_reports_do_not_depend_on_the_record_block(neg_run, pos_run, flat_run,
                                                   monkeypatch, records_per_block):
    # every check gives the same report whether it takes the records one,
    # three or (at the default node budget) all at a time
    cases = [neg_run, pos_run, flat_run]
    default = [[r.to_dict() for r in dg.run_checks(traj, bg, traj.config.f, ALL_BUT_RESCALE)]
               for traj, bg in cases]
    assert all(traj.n_records > 3 for traj, _ in cases)
    monkeypatch.setattr(conflow.grid, "BLOCK_NODES", records_per_block * 64)
    blocked = [[r.to_dict() for r in dg.run_checks(traj, bg, traj.config.f, ALL_BUT_RESCALE)]
               for traj, bg in cases]
    assert repr(blocked) == repr(default)


def test_report_leaves_are_json_scalars(neg_run, pos_run, flat_run):
    # to_dict is the dataclass's own asdict: no checker returns a numpy value
    def leaves(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, (list, tuple)):
            return [leaf for v in obj for leaf in leaves(v)]
        return [obj]

    for traj, bg in (neg_run, pos_run, flat_run):
        for rep in dg.run_checks(traj, bg, traj.config.f, list(dg.CHECK_NAMES)):
            assert all(type(leaf) in (bool, int, float, str, type(None))
                       for leaf in leaves(rep.to_dict())), rep.id


def record_6_outside_the_domain():
    """A negative-background run of ``reciprocal(3.0)`` and its snapshots with
    record 6 replaced by one whose curvature leaves f's domain."""
    traj, _ = make_run(NEG_BG, reciprocal(3.0), N=32, T=0.1, dt=1e-3, cadence=5, stop_tol=0.0)
    snaps = traj.snapshots.copy()
    snaps[6] = 1.0 + 0.5 * np.cos(traj.config.background.grid.axis_coordinates(0))
    return traj, snaps


def test_out_of_domain_record_gives_the_record_by_record_note(monkeypatch):
    # record 6 leaves the domain (-3, inf) of f; with four records per
    # block it sits inside the second block
    monkeypatch.setattr(conflow.grid, "BLOCK_NODES", 4 * 32)
    traj, snaps = record_6_outside_the_domain()
    bg, f = traj.config.background, traj.config.f
    S = scalar_curvature_values(bg, snaps[6])
    assert S.min() < -3.0
    domain_note = (f"checker could not run: f-domain violation: S range"
                   f" [{S.min():g}, {S.max():g}] not inside {f.domain}")

    rep = dg.check_evolution_identities(rebuild(traj, snaps))
    assert rep.passed is None and rep.notes == "record 6 leaves the domain of f"
    [rep] = dg.run_checks(rebuild(traj, snaps), bg, f, ["u_bounds"])
    assert rep.passed is None and rep.notes == domain_note
    rep = dg.check_u_bounds(rebuild(traj, snaps))
    assert rep.passed is None and rep.notes == domain_note

    # a nonpositive record never reaches a checker: no Trajectory holds one
    snaps[7] = -1.0
    with pytest.raises(ValueError, match="not positive"):
        rebuild(traj, snaps)


def first_records(traj, k):
    """The trajectory of ``traj``'s first ``k`` records."""
    return Trajectory(config=traj.config, termination=traj.termination,
                      columns={c: v[:k] for c, v in traj.columns.items()},
                      snapshots=traj.snapshots[:k], vol_pre=traj.vol_pre[:k])


def test_no_verdict_on_the_nan_record_of_a_run_that_left_the_domain():
    # the terminal record's A is NaN, so the envelope margins are NaN
    traj = left_domain_run()
    rep = dg.check_positive_S_bounds(traj)
    assert rep.passed is None
    assert rep.notes == ("f(0) taken as the boundary limit; no verdict on non-finite measured"
                         " min_envelope_margin, a_observed, a_certificate_margin")
    assert dg.check_positive_S_bounds(first_records(traj, 20)).passed is True
    # a finite failure stays one
    assert dg.check_minmax_principle(traj).passed is False


def doctored_last_record(f, snapshot):
    """A negative-background run of ``f`` with its last record replaced by
    ``snapshot``, and the same run without that record."""
    traj, _ = make_run(NEG_BG, f, N=32, T=0.1, dt=1e-3, cadence=5, stop_tol=0.0)
    snaps = traj.snapshots.copy()
    snaps[-1] = snapshot(traj.config.background.grid.axis_coordinates(0))
    with np.errstate(over="ignore", invalid="ignore"):  # as in a run: A may be inf
        return rebuild(traj, snaps), rebuild(traj, snaps[:-1], times=traj.times[:-1])


def test_no_verdict_on_a_record_outside_the_domain_of_f():
    # S reaches -29.9, under the open end -3 of the domain: A and fSA_sup are NaN
    traj, before = doctored_last_record(reciprocal(3.0), lambda x: 1.0 + 0.5 * np.cos(x))
    rep = dg.compare_decay(traj)
    assert rep.passed is None and math.isnan(rep.measured["envelope_margin"])
    assert rep.notes == "no verdict on non-finite measured envelope_margin"
    assert dg.compare_decay(before).passed is True


def test_no_verdict_on_a_record_whose_f_overflows():
    # S reaches -1252.5, inside the domain of exp(-x), where f(S) overflows: A = inf
    traj, _ = doctored_last_record(expdecay(1.0), lambda x: 1.0 + 0.5 * np.cos(8 * x))
    assert traj.columns["Smin"][-1] < -1252.0 and traj.columns["A"][-1] == math.inf
    reports = dg.run_checks(traj, traj.config.background, traj.config.f,
                            ["minmax", "decay", "u_bounds", "identities"])
    assert [(r.id, r.passed, r.notes) for r in reports] == [
        ("minmax_principle", False, ""),
        ("exponential_decay", None, "no verdict on non-finite measured envelope_margin"),
        ("conformal_factor_bounds", None,
         "no verdict on non-finite measured dudt_envelope_margin"),
        ("evolution_identities", None, "no verdict on non-finite measured A, int|f-A|^2"),
    ]


def test_a_direct_call_reports_what_run_checks_reports(neg_run, pos_run, flat_run):
    # the registration decides every report: a checker that raises or meets
    # a non-finite value reports the same by either entry, and warns in neither
    assert list(DIRECT) == list(dg.CHECK_NAMES)
    traj, snaps = record_6_outside_the_domain()
    overflowing, _ = doctored_last_record(expdecay(1.0), lambda x: 1.0 + 0.5 * np.cos(8 * x))
    cases = [neg_run[0], pos_run[0], flat_run[0], rebuild(traj, snaps), overflowing]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in cases:
            by_name = dg.run_checks(case, case.config.background, case.config.f,
                                    list(dg.CHECK_NAMES))
            for name, rep in zip(dg.CHECK_NAMES, by_name):
                assert repr(DIRECT[name](case).to_dict()) == repr(rep.to_dict()), name


# a_certificate_margin on both backgrounds (N=64, T=2); None where kappa > n/2
@pytest.mark.parametrize("bgspec,kappa,margin", [
    ("sinusoidal:1.0,0.5,0", 1.5, 0.0449), ("sinusoidal:1.0,0.5,0", 2.0, 0.0),
    ("sinusoidal:1.0,0.5,0", 3.0, None), ("sinusoidal:1.0,0.5,0", 4.0, None),
    ("sinusoidal:1.0,0.9,0", 1.5, 0.1311), ("sinusoidal:1.0,0.9,0", 2.0, 0.0),
    ("sinusoidal:1.0,0.9,0", 3.0, None), ("sinusoidal:1.0,0.9,0", 4.0, None),
])
def test_growth_certificate_needs_kappa_at_most_n_over_2(bgspec, kappa, margin):
    # a >= -(mu ||S(0)||^kappa + nu') holds for kappa <= n/2 (Hoelder at unit
    # volume), with equality at t = 0 for kappa = n/2 = 2; past n/2 the
    # certificate is left out and the envelopes keep their verdicts
    traj, _ = make_run(bgspec, power_law(kappa), T=2.0, N=64)
    rep = dg.check_positive_S_bounds(traj)
    assert rep.passed is True and rep.measured["min_envelope_margin"] == dg.EXACT_TOL
    if margin is not None:
        assert rep.notes == "f(0) taken as the boundary limit"
        assert rep.measured["a_certificate_margin"] == pytest.approx(margin, abs=1e-4)
    else:
        assert rep.notes == ("f(0) taken as the boundary limit; growth certificate left out:"
                             f" its bound on a needs kappa <= n/2, got kappa = {kappa:g}")
        assert "a_certificate_margin" not in rep.measured
        assert "a_from_growth_certificate" not in rep.predicted


# ---------------------------------------------------------------------------
# Determinism and gates
# ---------------------------------------------------------------------------

def test_checker_reruns_bit_identical(neg_run):
    traj, _ = neg_run
    r1 = dg.check_minmax_principle(traj).to_dict()
    r2 = dg.check_minmax_principle(traj).to_dict()
    assert r1 == r2
    d1 = dg.compare_decay(traj).to_dict()
    d2 = dg.compare_decay(traj).to_dict()
    assert d1 == d2


def test_gates_report_inconclusive(neg_run, pos_run, flat_run):
    neg, neg_bg = neg_run
    pos, _ = pos_run
    assert dg.compare_decay(pos).passed is None
    assert dg.check_Lnhalf_monotone(neg).passed is None
    assert dg.check_stationary_limit(pos).passed is None
    mixed_traj, _ = make_run("sinusoidal:0.0,0.2,0", classical(), T=0.02, N=32)
    assert dg.check_u_bounds(mixed_traj).passed is None
    off_one, _ = make_run(POS_BG, expdecay(1.0), u0spec="sinusoidal:1.0,0.2,0", T=0.02, N=32)
    rep = dg.check_u_bounds(off_one)
    assert (rep.passed, rep.notes) == (None, "positive-case band assumes u(0) = 1")
    two_records, _ = make_run(NEG_BG, classical(), T=0.01, N=32, cadence=10**6)
    assert two_records.n_records == 2
    rep = dg.check_evolution_identities(two_records)
    assert (rep.passed, rep.notes) == (None, "need at least 3 records")
    nn_cfg = RunConfig(background=neg_bg, f=classical(),
                       u0=ScalarField.constant(neg.config.background.grid, 1.0), T_final=0.1,
                       normalized=False, stop_tol=0.0)
    nn = run(nn_cfg)
    assert dg.check_minmax_principle(nn).passed is None


def test_run_checks_dispatch(neg_run):
    traj, bg = neg_run
    reports = dg.run_checks(traj, bg, traj.config.f,
                            ["minmax", "decay", "u_bounds", "stationary"])
    assert [r.id for r in reports] == [
        "minmax_principle", "exponential_decay",
        "conformal_factor_bounds", "stationary_limit"]
    assert all(r.passed is True for r in reports)
    with pytest.raises(ValueError, match="unknown check"):
        dg.run_checks(traj, bg, traj.config.f, ["nope"])


@pytest.mark.parametrize("case_tag,extra", [
    ("negative", ["decay", "stationary"]),
    ("flat", ["flat_identity"]),
    ("positive", ["lnhalf", "positive_bounds", "sobolev_info"]),
    ("mixed", []),
])
def test_default_checks_of_each_case(case_tag, extra):
    # the lists the README documents for a config that names no checks
    assert dg.default_checks(case_tag) == ["minmax", "identities", "u_bounds", *extra]


def test_run_checks_rejects_unknown_names_before_running(neg_run, monkeypatch):
    traj, bg = neg_run
    ran = []
    monkeypatch.setitem(dg._CHECKS, "minmax", lambda *a: ran.append(a))
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        dg.run_checks(traj, bg, traj.config.f, ["minmax", "bogus"])
    assert ran == []


def test_run_checks_reports_checker_value_error_inconclusive(neg_run, monkeypatch):
    traj, bg = neg_run

    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(dg, "_CHECKS", dict(dg._CHECKS))  # registered for this test only
    dg._check("minmax", "minmax_principle")(broken)
    reports = dg.run_checks(traj, bg, traj.config.f, ["minmax", "u_bounds"])
    assert reports[0].passed is None and "boom" in reports[0].notes
    assert reports[1].passed is True


def test_a_checker_that_raises_is_reported_under_its_registered_id(neg_run, monkeypatch):
    traj, bg = neg_run

    def broken(traj):
        raise ValueError("boom")

    monkeypatch.setattr(dg, "_CHECKS", dict(dg._CHECKS))  # registered for this test only
    dg._check("minmax", "minmax_principle")(broken)
    [rep] = dg.run_checks(traj, bg, traj.config.f, ["minmax"])
    assert (rep.id, rep.passed, rep.notes) == ("minmax_principle", None,
                                               "checker could not run: boom")
    assert rep.segment == dg._segment(traj)


# ---------------------------------------------------------------------------
# Negative controls: every checker must flag a crafted violation
# ---------------------------------------------------------------------------

def test_minmax_fails_on_reversed_run(neg_run):
    traj, _ = neg_run
    rep = dg.check_minmax_principle(reverse_in_time(traj))
    assert rep.passed is False


def test_decay_fails_without_decay(neg_run):
    traj, _ = neg_run
    frozen = rebuild(traj, np.repeat(traj.snapshots[:1], traj.n_records, axis=0))
    rep = dg.compare_decay(frozen)
    assert rep.passed is False


def test_u_bounds_fails_outside_band(neg_run):
    traj, _ = neg_run
    inflated = rebuild(traj, traj.snapshots * np.linspace(1.0, 2.0, traj.n_records)[:, None])
    rep = dg.check_u_bounds(inflated)
    assert rep.passed is False


def test_identities_fail_on_tampered_snapshots():
    traj, _ = make_run(NEG_BG, classical(), T=0.4, N=64, dt=2e-4, cadence=20,
                        stop_tol=0.0)
    warp = 1.0 + 0.05 * np.linspace(0.0, 1.0, traj.n_records) ** 2
    rep = dg.check_evolution_identities(rebuild(traj, traj.snapshots * warp[:, None]))
    assert rep.passed is False


def test_lnhalf_fails_on_reversed_positive_run(pos_run):
    traj, _ = pos_run
    rep = dg.check_Lnhalf_monotone(reverse_in_time(traj))
    assert rep.passed is False


def test_positive_bounds_fail_on_collapsing_curvature(pos_run):
    traj, _ = pos_run
    g = traj.config.background.grid
    x = g.axis_coordinates(0)
    # amplitude grows fast enough to drive S_min toward 0 faster than exp(a t)
    snaps = []
    for k in range(traj.n_records):
        amp = 0.001 + 0.05 * (k / max(1, traj.n_records - 1))
        snaps.append(1.0 + amp * np.cos(3 * x))
    crafted = rebuild(traj, np.asarray(snaps), times=np.linspace(0.0, 40.0, traj.n_records))
    rep = dg.check_positive_S_bounds(crafted)
    assert rep.passed is False


def test_flat_identity_inconclusive_when_misapplied(neg_run):
    traj, _ = neg_run
    rep = dg.check_flat_identity(traj)
    assert rep.passed is None
    assert rep.notes == "the flat identity needs a flat background, got negative"


def test_flat_identity_fails_on_a_flat_run_reversed_in_time(flat_run):
    # on its own hypothesis the check still fires: run backwards, S_min drops
    traj, _ = flat_run
    rep = dg.check_flat_identity(reverse_in_time(traj))
    assert rep.passed is False
    assert rep.measured["containment_margin"] < -dg.MINMAX_BASE_TOL


def test_stationary_limit_fails_with_loose_stop():
    traj, _ = make_run(NEG_BG, classical(), T=20.0, N=64, stop_tol=0.1)
    assert traj.termination == "stationary"
    rep = dg.check_stationary_limit(traj)
    assert rep.passed is False


STATIONARY_STOP_TOLS = (1e-8, 1e-6, 1e-4, 1e-2)


@pytest.mark.parametrize("f,passing_tols", [
    (classical(), {1e-8}),
    (expdecay(1.0), {1e-8, 1e-6}),
    (reciprocal(3.0, 2.0), {1e-8}),
], ids=["classical", "expdecay", "reciprocal"])
def test_stationary_limit_from_the_final_record(f, passing_tols):
    # configs/negative.json's background: the preimage of A is one Newton
    # step from the final mean curvature, within 1e-12 of solving f(s) = A
    # wherever the check passes, and exactly -A for f(x) = -x
    for stop_tol in STATIONARY_STOP_TOLS:
        for N in (32, 64):
            traj, _ = make_run(NEG_BG, f, N=N, T=20.0, stop_tol=stop_tol)
            assert traj.termination == "stationary"
            rep = dg.check_stationary_limit(traj)
            assert rep.passed is (stop_tol in passing_tols), (stop_tol, N)
            A, s_star = traj.columns["A"][-1], rep.predicted["f_inverse_of_A"]
            if rep.passed:
                assert abs(float(f.eval_f(s_star)) - A) <= 1e-12 * max(1.0, abs(A))
            if f.name == "classical":
                assert s_star == -A
            S = scalar_curvature_values(traj.config.background, traj.snapshots[-1])
            assert rep.measured["max_dev_from_f_inverse"] == float(np.abs(S - s_star).max())


def test_rescale_comparison_detects_mismatch(neg_run):
    traj, _ = neg_run
    gap, count = dg.sup_deviation_on_times(traj.times, traj.snapshots, traj.times,
                                           traj.snapshots, np.full(traj.n_records, 1.01))
    assert count == traj.n_records
    assert gap > 1e-3


# ---------------------------------------------------------------------------
# Pointwise curvature-evolution consistency
# ---------------------------------------------------------------------------

def test_curvature_evolution_pointwise_consistency():
    # centered dS/dt vs -(n-1)(f'(S) lap_g S + f''(S) |grad S|_g^2) - S(f(S)-A)
    # with a nonlinear f so the chain-rule term is exercised; the defect
    # shrinks like h^2 once dt is small enough
    f = expdecay(1.0)
    defects = []
    for N in (32, 64):
        traj, bg = make_run(POS_BG, f, T=0.02, N=N, dt=2e-5, cadence=1,
                            stop_tol=0.0)
        k = traj.n_records // 2
        u = traj.snapshots[k]
        g = traj.config.background.grid
        st = ConformalState(ScalarField(g, u))
        S = ScalarField(g, scalar_curvature_values(bg, u))
        w = power(u, bg.vol_exp)
        A = float((f.eval_f(S.values) * w).mean() / w.mean())
        lapg = metric_laplacian(bg, st, S).values
        gsq = power(u, -2.0) * grad_inner_values(g, S.values, S.values)
        rhs = (-3.0 * (f.eval_fp(S.values) * lapg + f.eval_fpp(S.values) * gsq)
               - S.values * (f.eval_f(S.values) - A))
        Sm = scalar_curvature_values(bg, traj.snapshots[k - 1])
        Sp = scalar_curvature_values(bg, traj.snapshots[k + 1])
        dSdt = (Sp - Sm) / (traj.times[k + 1] - traj.times[k - 1])
        defects.append(np.abs(dSdt - rhs).max() / np.abs(rhs).max())
    assert defects[0] / defects[1] > 3.0
    assert defects[1] < 5e-3
