import json
import math

import numpy as np
import pytest

from conflow import cli, diagnostics

TWO_PI = 2.0 * math.pi


def base_config(**time_overrides):
    time = {"T_final": 5.0, "dt": {"policy": "adaptive", "safety": 0.8},
            "stop_tol": 1e-8, "log_cadence": 10}
    time.update(time_overrides)
    return {
        "grid": {"ambient_n": 4, "active_dims": 1, "points": [32], "periods": [TWO_PI]},
        "background": "sinusoidal:-1.5,0.4,0",
        "u0": "constant:1",
        "f": {"name": "classical"},
        "time": time,
    }


def write_cfg(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_run_success_and_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "u_initial.field").exists()
    assert (out / "u_final.field").exists()
    assert (out / "trajectory.npz").exists()
    header = (out / "series.csv").read_text().splitlines()[0]
    assert header == "t,dt,Smin,Smax,A,sigma,vol,fSA_sup,lp2,lpn2,umin,umax"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "stationary"
    assert summary["case_tag"] == "negative"


def test_run_deterministic_outputs(tmp_path):
    cfg = write_cfg(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_run_config_error_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"ambient_n": 4, "points": [32]}})
    assert cli.main(["run", str(cfg)]) == 1
    bad_f = base_config()
    bad_f["f"] = {"name": "table", "x": [0, 1, 2], "f": [0.0, 1.0, 2.0]}
    cfg2 = write_cfg(tmp_path, bad_f, "bad_f.json")
    assert cli.main(["run", str(cfg2)]) == 1


def test_run_failure_exit_2(tmp_path):
    cfg = base_config()
    cfg["background"] = "sinusoidal:0.0,1.0,0"
    cfg["f"] = {"name": "power", "kappa": 1.5}
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["termination"] == "f_domain_violation"


def test_verify_on_run_dir(tmp_path):
    cfg = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    code = cli.main(["verify", str(out), "--checks", "minmax,decay,u_bounds,stationary"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert "background_caveat" in rep
    assert {r["id"] for r in rep["reports"]} == {
        "minmax_principle", "exponential_decay",
        "conformal_factor_bounds", "stationary_limit"}
    assert all(r["passed"] for r in rep["reports"])


def test_verify_from_config_with_default_checks(tmp_path):
    cfg = write_cfg(tmp_path, base_config())
    out = tmp_path / "v"
    assert cli.main(["verify", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_verify_empty_checks(tmp_path):
    cfg = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    cli.main(["run", str(cfg), "--out", str(out)])
    assert cli.main(["verify", str(out), "--checks", ""]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["reports"] == []


def test_verify_missing_target(tmp_path):
    assert cli.main(["verify", str(tmp_path / "nothere.json")]) == 1


def test_verify_misapplied_check_fails(tmp_path):
    # flat-background identity on a negative run: detector must fire
    cfg = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    cli.main(["run", str(cfg), "--out", str(out)])
    assert cli.main(["verify", str(out), "--checks", "flat_identity"]) == 2


def test_verify_reruns_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    cli.main(["run", str(cfg), "--out", str(out)])
    cli.main(["verify", str(out), "--checks", "minmax,decay"])
    first = (out / "report.json").read_bytes()
    cli.main(["verify", str(out), "--checks", "minmax,decay"])
    assert (out / "report.json").read_bytes() == first


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def sweep_plan(tmp_path, ids=("a", "b", "c", "d")):
    plan = {
        "base": base_config(T_final=0.5),
        "runs": [
            {"id": ids[0], "overrides": {}},
            {"id": ids[1], "overrides": {"f": {"name": "expdecay", "alpha": 1.0}}},
            {"id": ids[2], "overrides": {"grid": {"points": [48]}}},
            {"id": ids[3], "overrides": {"background": "constant:-1.2"}},
        ],
    }
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    return p


def test_sweep_serial(tmp_path):
    plan = sweep_plan(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(plan), "--out", str(out), "--jobs", "1"]) == 0
    table = (out / "aggregate.csv").read_text().splitlines()
    assert table[0] == "id,case,termination,exit,B_pred,B_fit"
    assert len(table) == 5
    for rid in ("a", "b", "c", "d"):
        assert (out / rid / "series.csv").exists()


@pytest.fixture(scope="module")
def serial_and_parallel_sweep(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sweeps")
    plan = sweep_plan(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["sweep", str(plan), "--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main(["sweep", str(plan), "--out", str(out2), "--jobs", "2"]) == 0
    return out1, out2


@pytest.mark.parametrize("name", ["series.csv", "summary.json", "u_final.field"])
def test_sweep_parallel_matches_serial(serial_and_parallel_sweep, name):
    # sweep parallelism changes no member's output, byte for byte
    out1, out2 = serial_and_parallel_sweep
    for rid in ("a", "b", "c", "d"):
        assert (out1 / rid / name).read_bytes() == (out2 / rid / name).read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


def test_sweep_pool_is_bounded_by_the_run_count(tmp_path, monkeypatch):
    # the pool forks all its workers at the first submit, so --jobs beyond
    # the number of runs must not reach it; the stand-in maps serially
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    plan = sweep_plan(tmp_path)
    assert cli.main(["sweep", str(plan), "--out", str(tmp_path / "s"), "--jobs", "5000"]) == 0
    assert sizes == [4]
    assert len((tmp_path / "s" / "aggregate.csv").read_text().splitlines()) == 5


def test_sweep_duplicate_ids(tmp_path):
    plan = {"base": base_config(), "runs": [{"id": "x"}, {"id": "x"}]}
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    assert cli.main(["sweep", str(p)]) == 1


def test_sweep_child_failure_preserves_partial(tmp_path):
    plan = {
        "base": base_config(T_final=0.2),
        "runs": [
            {"id": "good", "overrides": {}},
            {"id": "bad", "overrides": {"f": {"name": "power", "kappa": 1.5},
                                        "background": "sinusoidal:0.0,1.0,0"}},
        ],
    }
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(p), "--out", str(out)]) == 2
    assert (out / "good" / "series.csv").exists()
    assert (out / "bad" / "summary.json").exists()
    assert (out / "aggregate.csv").exists()


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------

def test_compare_shift_mode(tmp_path):
    base = base_config(T_final=0.5, dt={"policy": "fixed", "dt": 1e-3}, stop_tol=0.0)
    cfg_a = write_cfg(tmp_path, base, "a.json")
    shifted = json.loads(json.dumps(base))
    shifted["f"] = {"name": "table",
                    "x": list(np.linspace(-4, 4, 41)),
                    "f": list(5.0 - np.linspace(-4, 4, 41))}
    cfg_b = write_cfg(tmp_path, shifted, "b.json")
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    assert cli.main(["run", str(cfg_a), "--out", str(out_a)]) == 0
    assert cli.main(["run", str(cfg_b), "--out", str(out_b)]) == 0
    assert cli.main(["compare", str(out_a), str(out_b), "--mode", "shift"]) == 0


def test_compare_shift_detects_difference(tmp_path):
    cfg_a = write_cfg(tmp_path, base_config(T_final=0.3, stop_tol=0.0), "a.json")
    other = base_config(T_final=0.3, stop_tol=0.0)
    other["background"] = "sinusoidal:-1.5,0.3,0"
    cfg_b = write_cfg(tmp_path, other, "b.json")
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    cli.main(["run", str(cfg_a), "--out", str(out_a)])
    cli.main(["run", str(cfg_b), "--out", str(out_b)])
    assert cli.main(["compare", str(out_a), str(out_b), "--mode", "shift"]) == 2


def test_compare_rescale_mode(tmp_path, monkeypatch):
    norm = base_config(T_final=0.3, stop_tol=0.0)
    cfg_a = write_cfg(tmp_path, norm, "norm.json")
    nonnorm = base_config(T_final=0.45, stop_tol=0.0, log_cadence=1)
    nonnorm["time"]["normalized"] = False
    nonnorm["time"]["renormalize_volume"] = False
    cfg_b = write_cfg(tmp_path, nonnorm, "nonnorm.json")
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    assert cli.main(["run", str(cfg_a), "--out", str(out_a)]) == 0
    assert cli.main(["run", str(cfg_b), "--out", str(out_b)]) == 0
    # compare and the verify check both go through one comparison
    compared = []
    real = diagnostics.compare_rescaled

    def recording(*args, **kwargs):
        compared.append(real(*args, **kwargs))
        return compared[-1]

    monkeypatch.setattr(diagnostics, "compare_rescaled", recording)
    assert cli.main(["compare", str(out_a), str(out_b), "--mode", "rescale"]) == 0
    assert cli.main(["verify", str(out_a), "--checks", "rescale",
                     "--out", str(tmp_path / "v")]) == 0
    (report,) = json.loads((tmp_path / "v" / "report.json").read_text())["reports"]
    assert len(compared) == 2
    assert compared[0].measured == compared[1].measured == report["measured"]
    assert report["measured"]["matched_records"] == 8
    # wrong order: run_b must be the non-normalized one
    assert cli.main(["compare", str(out_b), str(out_a), "--mode", "rescale"]) == 1


NON_NORMALIZED = {"time.normalized": False, "time.renormalize_volume": False}


@pytest.mark.parametrize("mode,changes_a,changes_b,why", [
    ("shift", {}, {"grid.points": [64]}, "different grids"),
    ("rescale", {}, {"grid.points": [64], **NON_NORMALIZED}, "different grids"),
    ("rescale", NON_NORMALIZED, NON_NORMALIZED, "needs a normalized run_a"),
    ("shift", {}, NON_NORMALIZED, "needs a normalized run_b"),
], ids=["shift-grids", "rescale-grids", "rescale-kind", "shift-kind"])
def test_compare_mismatched_runs_is_one_line_exit_1(tmp_path, capsys, mode, changes_a,
                                                    changes_b, why):
    # two runs that cannot be compared end in one `compare:` line naming why
    outs = []
    for name, changes in (("a", changes_a), ("b", changes_b)):
        cfg = base_config(T_final=0.1, dt={"policy": "fixed", "dt": 1e-3}, stop_tol=0.0)
        for path, value in changes.items():
            _set(cfg, path, value)
        outs.append(str(tmp_path / name))
        assert cli.main(["run", str(write_cfg(tmp_path, cfg, f"{name}.json")),
                         "--out", outs[-1]]) == 0
    capsys.readouterr()
    assert cli.main(["compare", *outs, "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("compare:") and why in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_trajectory_roundtrip_bitwise(tmp_path):
    import conflow
    from conflow.flow import RECORD_COLUMNS, run as run_flow

    cfg_dict = base_config(T_final=0.2)
    p = write_cfg(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    rc = cli.build_run_config(cfg_dict, tmp_path)
    in_memory = run_flow(rc)
    loaded, _ = cli.load_trajectory(out)
    assert np.array_equal(in_memory.snapshots, loaded.snapshots)
    for k in RECORD_COLUMNS:
        assert np.array_equal(in_memory.columns[k], loaded.columns[k])
    assert in_memory.termination == loaded.termination
    assert loaded.config.background.case_tag == "negative"


def test_file_field_spec_roundtrip(tmp_path, monkeypatch):
    # a config using a relative file: u0 must rerun from its stored copy
    import conflow

    g = conflow.GridSpec(4, 1, (32,), (TWO_PI,))
    x = g.axis_coordinates(0)
    conflow.write_field(tmp_path / "u0.field",
                        conflow.ScalarField(g, 1.0 + 0.1 * np.cos(x)))
    cfg = base_config(T_final=0.05)
    cfg["u0"] = "file:u0.field"
    p = write_cfg(tmp_path, cfg, "filey.json")
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    monkeypatch.chdir(tmp_path / "out")  # reload from elsewhere
    assert cli.main(["verify", str(out), "--checks", "minmax"]) == 0


def test_conflow_out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CONFLOW_OUT", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, base_config(T_final=0.05), "envy.json")
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "envy" / "series.csv").exists()


# ---------------------------------------------------------------------------
# Totality: bad input ends with one line and exit 1, a run out of steps
# with a termination tag
# ---------------------------------------------------------------------------

def test_run_nonpositive_u0_is_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["u0"] = "constant:-1"
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "u0 must be positive" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_verify_unknown_check_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_config(T_final=0.05))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(out), "--checks", "minmax,bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "unknown check 'bogus'" in captured.err
    assert not (out / "report.json").exists()
    # a config target is rejected before its run starts
    fresh = tmp_path / "fresh"
    assert cli.main(["verify", str(cfg), "--checks", "bogus", "--out", str(fresh)]) == 1
    assert not fresh.exists()


def test_step_budget_exit_2(tmp_path, monkeypatch):
    from conflow import flow

    monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    p = write_cfg(tmp_path, base_config())
    out = tmp_path / "o"
    assert cli.main(["run", str(p), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "step_budget"


def test_sweep_step_budget_keeps_every_member(tmp_path, monkeypatch):
    from conflow import flow

    monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    plan = sweep_plan(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(plan), "--out", str(out), "--jobs", "1"]) == 2
    rows = [r.split(",") for r in (out / "aggregate.csv").read_text().splitlines()[1:]]
    # "d" has constant curvature and is stationary at once
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("a", "step_budget", "2"), ("b", "step_budget", "2"),
        ("c", "step_budget", "2"), ("d", "stationary", "0")]
    for rid in ("a", "b", "c", "d"):
        assert (out / rid / "summary.json").exists()


def _set(cfg, path, value):
    *keys, last = path.split(".")
    for k in keys:
        cfg = cfg[k]
    cfg[last] = value


@pytest.mark.parametrize("path,value", [
    ("f", "classical"),
    ("time", "x"),
    ("time.dt", "fixed"),
    ("background", 1.5),
    ("u0", ["constant:1"]),
    ("time.T_final", math.nan),
    ("time.stop_tol", math.nan),
    ("time.dt", {"policy": "fixed", "dt": math.nan}),
    ("time.normalized", "false"),
    ("time.renormalize_volume", "false"),
    ("time.log_cadence", 2.5),
    ("time.log_cadence", True),
    ("outputs", 5),
    ("outputs", {"dir": 5}),
    ("checks", 5),
    ("checks", None),
    ("checks", "minmax"),
    ("time.dt", {"policy": "fixd", "dt": 0.001}),
    ("grid.ambient_n", 4.7),
    ("grid.points", [32.5]),
    ("grid.periods", [math.inf]),
])
@pytest.mark.filterwarnings("error")
def test_run_malformed_config_is_one_line_exit_1(tmp_path, capsys, path, value):
    # a malformed section or a non-finite number (JSON NaN) ends in one
    # `config error:` line before any run starts, and `verify` of the same
    # config in one `verify:` line; a numpy warning would be one more line
    cfg = base_config()
    _set(cfg, path, value)
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()
    assert cli.main(["verify", str(p), "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("key,value", [
    ("runs", "x"),
    ("runs", ["x"]),
    ("jobs", "two"),
    ("base", "oops"),
    ("overrides", "oops"),
    ("base_path", 7),
])
def test_sweep_malformed_plan_is_one_line_exit_1(tmp_path, capsys, key, value):
    plan = json.loads(sweep_plan(tmp_path).read_text())
    if key == "overrides":
        plan["runs"][1]["overrides"] = value
    else:
        plan[key] = value
    p = tmp_path / "bad_plan.json"
    p.write_text(json.dumps(plan))
    assert cli.main(["sweep", str(p), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sweep:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("corrupt", [
    lambda raw: b"not a trajectory\n" * 4,
    lambda raw: raw[: len(raw) // 2],
    lambda raw: b"",
    lambda raw: raw[:60] + bytes(b ^ 0xFF for b in raw[60:120]) + raw[120:],
], ids=["garbage", "truncated", "empty", "damaged"])
def test_verify_corrupt_trajectory_is_one_line_exit_1(tmp_path, capsys, corrupt):
    cfg = write_cfg(tmp_path, base_config(T_final=0.05))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    npz = out / "trajectory.npz"
    npz.write_bytes(corrupt(npz.read_bytes()))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify:") and "trajectory.npz" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "report.json").exists()
