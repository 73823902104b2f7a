import concurrent.futures
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conflow
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


def test_verify_empty_checks(tmp_path, capsys):
    # nothing to check is a usage error, not a vacuous pass: `--checks ""`,
    # `--checks ,` and a config's `"checks": []` each end in one `verify:`
    # line and exit 1, with no report written
    cfg = write_cfg(tmp_path, {**base_config(T_final=0.05), "checks": []})
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for flags in (["--checks", ""], ["--checks", ","], []):
        assert cli.main(["verify", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verify: no checks to run")
        assert len(captured.err.strip().splitlines()) == 1
        assert not (out / "report.json").exists()
    # a config target is rejected before its run starts
    fresh = tmp_path / "fresh"
    assert cli.main(["verify", str(cfg), "--out", str(fresh)]) == 1
    assert not fresh.exists()


def test_verify_missing_target(tmp_path):
    assert cli.main(["verify", str(tmp_path / "nothere.json")]) == 1


def verify_flat_identity(tmp_path, cfg, capsys) -> dict:
    """Run ``cfg``, verify its output with the flat identity alone (exit 0
    expected) and return that one report."""
    out = tmp_path / "out"
    assert cli.main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    assert cli.main(["verify", str(out), "--checks", "flat_identity"]) == 0
    assert "flat_background_identity  INCONCLUSIVE" in capsys.readouterr().out
    (rep,) = json.loads((out / "report.json").read_text())["reports"]
    return rep


def test_verify_misapplied_check_is_inconclusive(tmp_path, capsys):
    # the flat-background identity on a negative run: its hypothesis does
    # not hold, so it neither passes nor fails
    rep = verify_flat_identity(tmp_path, base_config(), capsys)
    assert rep["passed"] is None
    assert rep["notes"] == "the flat identity needs a flat background, got negative"


def test_verify_rescale_names_its_hypothesis_for_a_non_homogeneous_f(tmp_path, capsys):
    cfg = base_config(T_final=0.05)
    cfg["f"] = {"name": "expdecay", "alpha": 1}
    out = tmp_path / "out"
    assert cli.main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    assert cli.main(["verify", str(out), "--checks", "rescale,minmax"]) == 0
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert [r["id"] for r in reports] == ["rescale_equivalence", "minmax_principle"]
    assert reports[0]["passed"] is None
    assert reports[0]["notes"] == ("rescale equivalence needs a homogeneous f;"
                                   " expdecay:1 declares no homogeneity degree")


def test_verify_flat_identity_on_a_positive_2d_run_is_inconclusive(tmp_path, capsys):
    # 2-D 16x12, n=5 (fractional exponents), positive background
    cfg = {
        "grid": {"ambient_n": 5, "points": [16, 12], "periods": [TWO_PI, TWO_PI]},
        "background": "sinusoidal:1.0,0.3,0",
        "u0": "constant:1",
        "f": {"name": "expdecay", "alpha": 1.0},
        "time": {"T_final": 0.2},
    }
    rep = verify_flat_identity(tmp_path, cfg, capsys)
    assert rep["passed"] is None
    assert rep["notes"].endswith("got positive")


def test_verify_reruns_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    cli.main(["run", str(cfg), "--out", str(out)])
    cli.main(["verify", str(out), "--checks", "minmax,decay"])
    first = (out / "report.json").read_bytes()
    cli.main(["verify", str(out), "--checks", "minmax,decay"])
    assert (out / "report.json").read_bytes() == first


# ---------------------------------------------------------------------------
# Process start
# ---------------------------------------------------------------------------

FOOTPRINT = """
import json, sys
import conflow, conflow.cli, conflow.diagnostics, conflow.flow
loaded = [m for m in ("numpy.random", "concurrent.futures", "argparse") if m in sys.modules]
f = conflow.fzoo.from_table([-2.0, 0.0, 1.0, 3.0], [4.0, 1.0, 0.5, -1.0], seed=1)
print(json.dumps({"loaded": loaded, "table": f.name, "random": "numpy.random" in sys.modules}))
"""


def test_import_footprint_leaves_out_what_no_run_uses():
    # a fresh interpreter, so that neither pytest nor earlier tests have
    # imported the modules already: numpy.random (only a seeded table's
    # certification draws from it), the sweep pool and argparse load where
    # they are used
    src = str(Path(conflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "table": "table", "random": True}


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    plan = sweep_plan(tmp_path)
    assert cli.main(["sweep", str(plan), "--out", str(tmp_path / "s"), "--jobs", "5000"]) == 0
    assert sizes == [4]
    assert len((tmp_path / "s" / "aggregate.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_passes_the_seed_to_every_member(tmp_path, monkeypatch, jobs):
    # a table f's certification takes --seed in a sweep member as in `run`;
    # the spy writes to a file, so that forked workers report too
    seen = tmp_path / "seeds.txt"
    from_config = conflow.fzoo.from_config

    def spy(cfg, seed=None):
        with open(seen, "a") as fh:
            fh.write(f"{seed}\n")
        return from_config(cfg, seed=seed)

    monkeypatch.setattr(conflow.fzoo, "from_config", spy)
    plan = json.loads(sweep_plan(tmp_path).read_text())
    plan["base"]["f"] = {"name": "table", "x": [-4.0, 0.0, 4.0], "f": [4.0, 0.0, -4.0]}
    plan["runs"] = [{"id": "a"}, {"id": "b", "overrides": {"grid": {"points": [48]}}}]
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    out = tmp_path / "sweep"
    assert cli.main(["--seed", "7", "sweep", str(p), "--out", str(out), "--jobs", jobs]) == 0
    assert seen.read_text().split() == ["7", "7"]


def test_verify_and_compare_pass_the_seed_to_a_stored_run(tmp_path, monkeypatch):
    # rebuilding a stored run's config certifies its table f under --seed,
    # as `run` did
    seeds = []
    from_config = conflow.fzoo.from_config

    def spy(cfg, seed=None):
        seeds.append(seed)
        return from_config(cfg, seed=seed)

    monkeypatch.setattr(conflow.fzoo, "from_config", spy)
    cfg = base_config(T_final=0.05)
    cfg["f"] = {"name": "table", "x": [-4.0, 0.0, 4.0], "f": [4.0, 0.0, -4.0]}
    out = tmp_path / "out"
    assert cli.main(["--seed", "7", "run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    assert cli.main(["--seed", "7", "verify", str(out), "--checks", "minmax"]) == 0
    assert seeds == [7, 7]
    assert cli.main(["--seed", "7", "compare", str(out), str(out), "--mode", "shift"]) == 0
    assert seeds == [7, 7, 7, 7]


def test_sweep_override_with_a_string_f_parameter_is_a_config_error(tmp_path):
    # the member fails with exit 1 before it runs; the others still run
    plan = json.loads(sweep_plan(tmp_path).read_text())
    plan["runs"][1]["overrides"] = {"f": {"name": "expdecay", "alpha": "2"}}
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(p), "--out", str(out), "--jobs", "1"]) == 2
    # the message holds a comma, so its field is quoted: every row of the
    # table still parses to the header's six fields
    with open(out / "aggregate.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 6 and all(len(row) == 6 for row in rows)
    assert rows[1] == ["b", "invalid", "config error: invalid config: 'f.alpha' must be a"
                       " JSON number (a table's x and f lists of them), got '2'", "1", "nan", "nan"]
    assert not (out / "b").exists()
    assert all((out / rid / "summary.json").exists() for rid in ("a", "c", "d"))


def test_sweep_member_with_a_missing_field_file_is_a_config_error(tmp_path):
    # the member's u0 file is looked for next to the plan and is not there
    plan = json.loads(sweep_plan(tmp_path).read_text())
    plan["runs"][1]["overrides"] = {"u0": "file:missing.field"}
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(p), "--out", str(out), "--jobs", "1"]) == 2
    with open(out / "aggregate.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 6 and all(len(row) == 6 for row in rows)
    rid, case, message, *rest = rows[1]
    assert (rid, case, rest) == ("b", "invalid", ["1", "nan", "nan"])
    assert message.startswith("config error: invalid config:") and "missing.field" in message
    assert not (out / "b").exists()
    assert all((out / rid / "summary.json").exists() for rid in ("a", "c", "d"))


def test_sweep_member_with_a_grid_no_run_can_use_is_a_config_error(tmp_path):
    # an ambient_n whose exponents overflow a float, or a spacing whose
    # square does, is the member's own row; the others still run
    plan = json.loads(sweep_plan(tmp_path).read_text())
    plan["runs"][1]["overrides"] = {"grid": {"ambient_n": 2 ** 1030}}
    plan["runs"][2]["overrides"] = {"grid": {"periods": [1e300]}}
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(p), "--out", str(out), "--jobs", "1"]) == 2
    with open(out / "aggregate.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [row[0] for row in rows] == ["a", "b", "c", "d"]
    for rid, case, message, *rest in rows[1:3]:
        assert (case, rest) == ("invalid", ["1", "nan", "nan"])
        assert message.startswith("config error: invalid config:")
        assert not (out / rid).exists()
    assert all((out / rid / "summary.json").exists() for rid in ("a", "d"))


@pytest.mark.parametrize("stated", ["", None], ids=["empty", "null"])
def test_a_plan_out_that_is_no_directory_name_is_one_line_exit_1(tmp_path, monkeypatch,
                                                                 capsys, stated):
    # `"out": ""` would be the working directory; like `outputs.dir`, it and
    # null are refused before any member runs, and nothing is written
    monkeypatch.chdir(tmp_path)
    plan = json.loads(sweep_plan(tmp_path).read_text())
    (tmp_path / "plan.json").write_text(json.dumps({**plan, "out": stated}))
    assert cli.main(["sweep", "plan.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sweep:") and "'out' must be a non-empty string" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


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
    # a config may state the kind twice, as configs/*.json do
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


NON_NORMALIZED = {"time.normalized": False}


@pytest.mark.parametrize("mode,changes_a,changes_b,why", [
    ("shift", {}, {"grid.points": [64]}, "different grids"),
    ("rescale", {}, {"grid.points": [64], **NON_NORMALIZED}, "different grids"),
    ("rescale", NON_NORMALIZED, NON_NORMALIZED, "needs a normalized run_a"),
    ("shift", {}, NON_NORMALIZED, "needs a normalized run_b"),
    ("shift", {}, {"u0": "sinusoidal:1.0,0.2,0"}, "first states differ"),
], ids=["shift-grids", "rescale-grids", "rescale-kind", "shift-kind", "shift-start"])
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


@pytest.mark.parametrize("u0,status", [("constant:1", 0), ("constant:2", 1)])
def test_compare_needs_runs_from_one_first_state(tmp_path, capsys, u0, status):
    # a normalized run starts from u0 scaled to unit volume, a non-normalized
    # one from u0 itself: at `constant:2` the shipped compare pair's first
    # states differ by 1, so the pair is refused, not compared
    configs = Path(__file__).resolve().parent.parent / "configs"
    outs = []
    for name in ("compare_normalized", "compare_nonnormalized"):
        cfg = json.loads((configs / f"{name}.json").read_text())
        cfg["u0"] = u0
        outs.append(str(tmp_path / name))
        assert cli.main(["run", str(write_cfg(tmp_path, cfg, f"{name}.json")),
                         "--out", outs[-1]]) == 0
    capsys.readouterr()
    assert cli.main(["compare", *outs, "--mode", "rescale"]) == status
    captured = capsys.readouterr()
    if status == 0:
        assert captured.out.startswith("rescale compare:") and captured.err == ""
    else:
        assert captured.out == "" and captured.err == (
            "compare: the first states differ by 1, over the tolerance 0.0001\n")


def test_trajectory_roundtrip_bitwise(tmp_path, monkeypatch):
    # every field of a stored run reloads bit for bit: a plain run, one
    # whose step budget leaves a note, and a non-normalized run
    from conflow import flow
    from conflow.flow import RECORD_COLUMNS, run as run_flow

    cases = [("plain", {}, None, 0),
             ("budget", {}, 3, 2),
             ("nonnormalized", {"normalized": False}, None, 0)]
    for name, overrides, max_steps, code in cases:
        cfg_dict = base_config(T_final=0.2, **overrides)
        p = write_cfg(tmp_path, cfg_dict, f"{name}.json")
        out = tmp_path / name
        with monkeypatch.context() as m:
            if max_steps is not None:
                m.setattr(flow, "_MAX_STEPS", max_steps)
            assert cli.main(["run", str(p), "--out", str(out)]) == code
            in_memory = run_flow(cli.build_run_config(cfg_dict, tmp_path))
        loaded, _ = cli.load_trajectory(out)
        assert bool(in_memory.notes) == (max_steps is not None)
        for field in ("kind", "termination", "notes"):
            assert getattr(loaded, field) == getattr(in_memory, field)
        assert loaded.config.background.grid == in_memory.config.background.grid
        assert loaded.config.background.n == in_memory.config.background.n
        assert np.array_equal(in_memory.snapshots, loaded.snapshots)
        assert np.array_equal(in_memory.vol_pre, loaded.vol_pre)
        for k in RECORD_COLUMNS:
            assert np.array_equal(in_memory.columns[k], loaded.columns[k], equal_nan=True)
        assert loaded.config.background.case_tag == "negative"


def test_verify_reads_a_trajectory_with_the_old_members(tmp_path):
    # trajectory.npz holds the snapshots, vol_pre and the columns as stored
    # (not deflated) members; the same members deflated, and a deflated file
    # that also holds kind, termination and notes, verify to the same report
    import zipfile

    from conflow.flow import RECORD_COLUMNS

    p = write_cfg(tmp_path, base_config(T_final=0.2))
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    code = cli.main(["verify", str(out)])
    report = (out / "report.json").read_bytes()
    npz = out / "trajectory.npz"
    with zipfile.ZipFile(npz) as zf:
        assert {m.compress_type for m in zf.infolist()} == {zipfile.ZIP_STORED}
    with np.load(npz) as data:
        members = dict(data)
    assert sorted(members) == sorted(["snapshots", "vol_pre",
                                      *(f"col_{k}" for k in RECORD_COLUMNS)])
    summary = json.loads((out / "summary.json").read_text())
    old_files = {
        "compressed": members,
        "compressed_with_run_fields": {**members, "kind": summary["kind"],
                                       "termination": summary["termination"],
                                       "notes": summary["notes"]},
    }
    for name, content in old_files.items():
        np.savez_compressed(npz, **content)
        with zipfile.ZipFile(npz) as zf:
            assert {m.compress_type for m in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        (out / "report.json").unlink()
        assert cli.main(["verify", str(out)]) == code, name
        assert (out / "report.json").read_bytes() == report, name


@pytest.mark.parametrize("damage", [
    lambda summary: {k: v for k, v in summary.items() if k != "termination"},
    lambda summary: {k: v for k, v in summary.items() if k != "notes"},
    lambda summary: [summary],
], ids=["no_termination", "no_notes", "not_an_object"])
def test_verify_unreadable_summary_is_one_line_exit_1(tmp_path, capsys, damage):
    # a stored run's termination and notes live in summary.json only
    p = write_cfg(tmp_path, base_config(T_final=0.05))
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    (out / "summary.json").write_text(json.dumps(damage(summary)))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify:") and "summary.json" in err
    assert "trajectory.npz" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "report.json").exists()


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


def test_empty_output_dir_is_a_config_error(tmp_path, monkeypatch, capsys):
    # `"dir": ""` would be the working directory; it is refused like a
    # non-string dir, before any run, by `run` and by `verify` of the config
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {**base_config(T_final=0.05), "outputs": {"dir": ""}})
    for command in ("run", "verify"):
        assert cli.main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("config error:", "verify:"))
        assert "'outputs.dir' must be a non-empty string" in err
        assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("below", [False, True], ids=["a_file", "under_a_file"])
@pytest.mark.parametrize("command", ["run", "verify-config", "verify-run", "sweep"])
def test_an_output_path_at_a_file_is_one_line_exit_1(tmp_path, capsys, monkeypatch, command,
                                                     below):
    # `--out` naming a file, or a path under one, ends in one line before
    # any run or check starts, and leaves the file as it was
    cfg = write_cfg(tmp_path, base_config(T_final=0.05))
    target, prefix = str(cfg), "config error:"
    if command.startswith("verify"):
        prefix = "verify:"
        if command == "verify-run":
            target = str(tmp_path / "out")
            assert cli.main(["run", str(cfg), "--out", target]) == 0
    elif command == "sweep":
        target, prefix = str(sweep_plan(tmp_path)), "sweep:"
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker

    def refuse(*args, **kwargs):
        raise AssertionError("the command ran or checked before it failed")

    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.setattr(diagnostics, "run_checks", refuse)
    capsys.readouterr()
    assert cli.main([command.split("-")[0], target, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and str(out) in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert blocker.read_text() == "kept\n"


def test_sweep_member_whose_directory_is_a_file_is_a_config_error(tmp_path):
    # the member's id names a file under the output root: its row says so
    # with exit 1, and the other members run
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "b").write_text("kept\n")
    assert cli.main(["sweep", str(sweep_plan(tmp_path)), "--out", str(out), "--jobs", "1"]) == 2
    with open(out / "aggregate.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    rid, case, message, *rest = rows[1]
    assert (rid, case, rest) == ("b", "invalid", ["1", "nan", "nan"])
    assert message.startswith("config error: cannot make the output directory")
    assert (out / "b").read_text() == "kept\n"
    assert all((out / rid / "summary.json").exists() for rid in ("a", "c", "d"))


def test_a_stored_config_that_is_not_an_object_is_one_line_exit_1(tmp_path, capsys):
    # summary.json's config rebuilds the stored run: a list there ends
    # `verify` and `compare` of the run in one line
    out = tmp_path / "out"
    assert cli.main(["run", str(write_cfg(tmp_path, base_config(T_final=0.05))),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    (out / "summary.json").write_text(json.dumps({**summary, "config": []}))
    capsys.readouterr()
    for command, prefix in ((["verify", str(out)], "verify:"),
                            (["compare", str(out), str(out), "--mode", "shift"], "compare:")):
        assert cli.main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix) and "must be a JSON object" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
    assert not (out / "report.json").exists()


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


def test_a_u0_with_no_unit_volume_rescaling_is_a_config_error(tmp_path, capsys):
    # a subnormal u0's unit-volume factor overflows; a renormalized run, its
    # verify and its sweep member refuse it before any directory is made
    cfg = base_config()
    cfg["u0"] = "constant:1e-310"
    p = write_cfg(tmp_path, cfg)
    for command, prefix in ((["run", str(p)], "config error:"), (["verify", str(p)], "verify:")):
        assert cli.main([*command, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(prefix)
        assert "unit-volume rescaling" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()
    plan = json.loads(sweep_plan(tmp_path).read_text())
    plan["runs"][1]["overrides"] = {"u0": "constant:1e-310"}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(tmp_path / "plan.json"), "--out", str(out), "--jobs", "1"]) == 2
    with open(out / "aggregate.csv", newline="") as fh:
        rid, case, message, *rest = list(csv.reader(fh))[2]
    assert (rid, case, rest) == ("b", "invalid", ["1", "nan", "nan"])
    assert message.startswith("config error: invalid config:") and "unit-volume" in message
    assert not (out / "b").exists()


def test_a_u0_under_the_positivity_floor_is_logged(tmp_path, capsys):
    # its volume underflows to 0; without renormalization the run logs it
    # and ends positivity_lost
    cfg = base_config(normalized=False)
    cfg["u0"] = "constant:1e-90"
    out = tmp_path / "o"
    assert cli.main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["termination"], summary["n_records"]) == ("positivity_lost", 1)
    with np.load(out / "trajectory.npz") as data:
        assert (data["snapshots"] == 1e-90).all()


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
    ("time.T_final", "0.3"),
    ("time.T_final", True),
    ("time.stop_tol", True),
    ("time.stop_tol", "1e-8"),
    ("time.dt", {"policy": "fixed", "dt": "0.001"}),
    ("time.dt", {"policy": "fixed", "dt": True}),
    ("time.dt", {"policy": "adaptive", "safety": "0.8"}),
    ("time.dt", {"policy": "adaptive", "safety": True}),
    ("grid.periods", ["6.283185307179586"]),
    ("grid.periods", [True]),
    pytest.param("time.T_final", 10 ** 400, id="time.T_final-too_large_for_a_float"),
    ("f", {"name": "power", "kappa": "1.5"}),
    ("f", {"name": "power", "kappa": True}),
    ("f", {"name": "expdecay", "alpha": "2"}),
    ("f", {"name": "reciprocal", "alpha": True}),
    ("f", {"name": "reciprocal", "alpha": 3.0, "exponent": "2"}),
    ("f", {"name": "table", "x": [-4, "0", 4], "f": [4, 0, -4]}),
    ("f", {"name": "table", "x": [-4, 0, 4], "f": [True, False, -4]}),
    ("u0", "file:missing.field"),
    pytest.param("background", "file:.", id="background-a_directory"),
    pytest.param("", [1, 2], id="document-a_list"),
    pytest.param("", "x", id="document-a_string"),
    pytest.param("grid.ambient_n", 2 ** 1030, id="grid.ambient_n-too_large_for_a_float"),
    pytest.param("grid.periods", [1e300], id="grid.periods-spacing_squared_overflows"),
    pytest.param("f", {"name": "expdecay", "alpha": 100}, id="f-expdecay_overflows"),
    pytest.param("f", {"name": "power", "kappa": 1e308}, id="f-power_overflows"),
    pytest.param("f", {"name": "table", "x": [-1e308, 0, 1e308], "f": [4, 0, -4]},
                 id="f-table_overflows"),
    pytest.param("checks", ["minmax", "nope"], id="checks-an_unknown_name"),
    pytest.param("grid", [1], id="grid-a_list"),
    pytest.param("time.dt", {"policy": "fixed"}, id="time.dt-fixed_without_dt"),
    pytest.param("time.renormalize_volume", False, id="time.renormalize_volume-normalized"),
])
@pytest.mark.filterwarnings("error")
def test_run_malformed_config_is_one_line_exit_1(tmp_path, capsys, path, value):
    # a malformed section, a non-finite number (JSON NaN), a field file
    # that cannot be read or a document that is not an object ends in one
    # `config error:` line before any run starts, and `verify` of the same
    # config in one `verify:` line; a numpy warning would be one more line
    cfg = base_config()
    if path:
        _set(cfg, path, value)
    else:  # the whole document
        cfg = value
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


@pytest.mark.parametrize("path,value,message", [
    ("checks", ["minmax", "nope"],
     f"unknown check 'nope'; known: {', '.join(diagnostics.CHECK_NAMES)}"),
    ("grid", [1], "'grid' must be a JSON object, got [1]"),
    ("time.dt", {"policy": "fixed"}, "'time.dt.dt' must be a number, got None"),
    ("time", {"normalized": False, "renormalize_volume": True},
     "'time.renormalize_volume' must be false, the run's 'time.normalized', got True"),
], ids=["an_unknown_check", "a_grid_list", "a_fixed_dt_policy_without_dt",
        "a_renormalized_non_normalized_run"])
def test_a_malformed_config_says_what_is_wrong(tmp_path, capsys, path, value, message):
    # `run` and `verify` print the same message, and so does the sweep
    # member's aggregate row; no command makes a directory
    cfg = base_config()
    _set(cfg, path, value)
    p = write_cfg(tmp_path, cfg)
    for command, prefix in (("run", "config error"), ("verify", "verify")):
        assert cli.main([command, str(p), "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == f"{prefix}: {message}\n"
        assert not (tmp_path / command).exists()
    plan = json.loads(sweep_plan(tmp_path).read_text())
    plan["runs"][1]["overrides"] = {path.split(".")[0]: cfg[path.split(".")[0]]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(plan_path), "--out", str(out), "--jobs", "1"]) == 2
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[1] == ["b", "invalid", f"config error: {message}", "1", "nan", "nan"]
    assert not (out / "b").exists()


@pytest.mark.parametrize("key,value", [
    ("runs", "x"),
    ("runs", ["x"]),
    ("jobs", "two"),
    ("base", "oops"),
    ("overrides", "oops"),
    ("base_path", 7),
    ("jobs", 2.5),
    ("jobs", True),
    ("config", {"f": {"name": "classical"}}),
    ("id", "../escaped"),
    ("id", ""),
    ("id", "a/b"),
    ("id", "."),
    ("id", ".."),
])
def test_sweep_malformed_plan_is_one_line_exit_1(tmp_path, capsys, key, value):
    # a run id names a directory under the output root: one that is not a
    # plain file name would write outside it or into the root itself
    plan = json.loads(sweep_plan(tmp_path).read_text())
    if key in ("overrides", "config", "id"):  # run keys; 'config' is no longer one
        plan["runs"][1][key] = value
    else:
        plan[key] = value
    p = tmp_path / "bad_plan.json"
    p.write_text(json.dumps(plan))
    assert cli.main(["sweep", str(p), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sweep:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "s").exists()


def rewritten(change):
    """A corruption that rewrites trajectory.npz with ``change`` applied to
    its dict of members."""
    def corrupt(raw):
        with np.load(io.BytesIO(raw)) as data:
            members = {k: data[k].copy() for k in data.files}
        change(members)
        buf = io.BytesIO()
        np.savez(buf, **members)
        return buf.getvalue()
    return corrupt


def _set_value(members, index, value, key="snapshots"):
    members[key][index] = value


@pytest.mark.parametrize("corrupt", [
    lambda raw: b"not a trajectory\n" * 4,
    lambda raw: raw[: len(raw) // 2],
    lambda raw: b"",
    lambda raw: raw[:60] + bytes(b ^ 0xFF for b in raw[60:120]) + raw[120:],
    rewritten(lambda m: m.update(snapshots=m["snapshots"][:, :16])),
    rewritten(lambda m: m.update(col_t=m["col_t"][:-2])),
    rewritten(lambda m: m.update({k: np.empty(0) for k in m})),
    rewritten(lambda m: _set_value(m, (1, 3), np.nan)),
    rewritten(lambda m: _set_value(m, (-1, 5), -1.0)),
    rewritten(lambda m: m.update(snapshots=m["snapshots"][0])),
    rewritten(lambda m: m.update(vol_pre=m["vol_pre"][:1])),
    rewritten(lambda m: _set_value(m, 5, m["col_t"][4], key="col_t")),
    rewritten(lambda m: _set_value(m, 5, np.nan, key="col_t")),
    None,
], ids=["garbage", "truncated", "empty", "damaged", "cut-grid", "short-column",
        "empty-members", "nan-value", "negative-value", "one-1d-record", "short-vol_pre",
        "repeated-time", "nan-time", "a-directory"])
def test_verify_corrupt_trajectory_is_one_line_exit_1(tmp_path, capsys, corrupt):
    # a trajectory.npz that is unreadable (None: a directory in its place),
    # or whose arrays contradict the grid or each other, ends `verify` in
    # one line before any check runs
    cfg = write_cfg(tmp_path, base_config(T_final=0.05, dt={"policy": "fixed", "dt": 1e-3},
                                          log_cadence=7))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    npz = out / "trajectory.npz"
    if corrupt is None:
        npz.unlink()
        npz.mkdir()
    else:
        npz.write_bytes(corrupt(npz.read_bytes()))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify:") and "trajectory.npz" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "report.json").exists()


def test_compare_corrupt_trajectory_is_one_line_exit_1(tmp_path, capsys):
    # a stored snapshot stack of one 1-D record is not a trajectory on the
    # grid, so the shift comparison never reads it
    cfg = write_cfg(tmp_path, base_config(T_final=0.05, dt={"policy": "fixed", "dt": 1e-3}))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    npz = outs[1] / "trajectory.npz"
    npz.write_bytes(rewritten(lambda m: m.update(snapshots=m["snapshots"][0]))(npz.read_bytes()))
    capsys.readouterr()
    assert cli.main(["compare", *map(str, outs), "--mode", "shift"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("compare:") and "trajectory.npz" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_compare_a_directory_trajectory_is_one_line_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_config(T_final=0.05, dt={"policy": "fixed", "dt": 1e-3}))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    npz = outs[0] / "trajectory.npz"
    npz.unlink()
    npz.mkdir()
    capsys.readouterr()
    assert cli.main(["compare", *map(str, outs), "--mode", "shift"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("compare:") and "trajectory.npz" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
