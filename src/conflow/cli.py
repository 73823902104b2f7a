"""Batch front-end: configure, run, verify, sweep, and compare flows.

A run is described by one JSON document with sections
{grid, background, u0, f, time, outputs, checks}; see configs/ for worked
examples.  Outputs per run: series.csv (the logged diagnostics), snapshot
files for the initial and final conformal factor, trajectory.npz (all
logged snapshots, for verification and comparison), and summary.json.

Exit codes: run returns 0 when the flow reached its horizon or a stationary
state, 2 on blowup / positivity loss / f-domain violation / an exhausted
step budget, 1 on config errors (a nonpositive u0, a non-finite number or
a section of the wrong type among them).  verify returns 2 when any
non-inconclusive check fails and 1 on config errors, an unreadable
trajectory.npz, unknown check names or none, which are rejected before any
run or check starts.  sweep returns 1 on a malformed plan.  compare returns
2 when the two runs disagree and 1 when they cannot be compared: an
unreadable run, two different grids, or a run of the wrong kind for the mode.
Identical configs produce bit-identical CSV and summaries.
"""

import json
import math
import os
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import diagnostics, fzoo
from .conformal import Background
from .flow import RECORD_COLUMNS, RunConfig, Trajectory, run
from .grid import GridSpec, ScalarField, field_from_spec, write_field

_RUN_OK = ("time_reached", "stationary")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config assembly
# ---------------------------------------------------------------------------

def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(value, what: str) -> dict:
    """``value`` itself if it is a JSON object, else a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _typed(value, kind: type, what: str):
    """``value`` if it is a JSON boolean (``kind`` bool), a JSON integer
    (``kind`` int) or a JSON number (``kind`` float, integers included),
    else a ConfigError naming ``what``; a boolean is neither number."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or (kind is not bool and isinstance(value, bool)):
        must = {bool: "true or false", int: "an integer", float: "a number"}[kind]
        raise ConfigError(f"'{what}' must be {must}, got {value!r}")
    return value


def _resolve_field_spec(spec: str, base_dir: Path) -> str:
    if isinstance(spec, str) and spec.startswith("file:"):
        p = Path(spec[5:])
        if not p.is_absolute():
            return f"file:{(base_dir / p).resolve()}"
    return spec


def resolve_config_paths(cfg: dict, base_dir: Path) -> dict:
    """Pin relative file: field specs to the config's own directory, so the
    stored copy reloads from anywhere."""
    out = dict(cfg)
    for key in ("background", "u0"):
        if key in out:
            out[key] = _resolve_field_spec(out[key], base_dir)
    return out


def build_run_config(cfg: dict, base_dir: Path, seed: int | None = None) -> RunConfig:
    """The RunConfig of a config document; a malformed document (its
    ``outputs`` and ``checks`` too) or an unreadable field file raises ConfigError."""
    try:
        outputs = _object(cfg.get("outputs", {}), "'outputs'")
        if "dir" in outputs and not (isinstance(outputs["dir"], str) and outputs["dir"]):
            raise ConfigError(f"'outputs.dir' must be a non-empty string, got {outputs['dir']!r}")
        checks = cfg.get("checks", [])
        if not (isinstance(checks, list) and all(isinstance(c, str) for c in checks)):
            raise ConfigError(f"'checks' must be a JSON list of strings, got {checks!r}")
        gspec = cfg["grid"]
        grid = GridSpec(
            ambient_n=_typed(gspec["ambient_n"], int, "grid.ambient_n"),
            active_dims=_typed(gspec.get("active_dims", len(gspec["points"])), int,
                               "grid.active_dims"),
            points=tuple(_typed(p, int, "grid.points") for p in gspec["points"]),
            periods=tuple(_typed(p, float, "grid.periods") for p in gspec["periods"]),
        )
        bg = Background(field_from_spec(grid, _resolve_field_spec(cfg["background"], base_dir)))
        u0 = field_from_spec(grid, _resolve_field_spec(cfg["u0"], base_dir))
        f = fzoo.from_config(cfg["f"], seed=seed)
        tcfg = _object(cfg.get("time", {}), "'time'")
        dt_cfg = _object(tcfg.get("dt", {"policy": "adaptive"}), "'time.dt'")
        mode = dt_cfg.get("policy", "adaptive")
        step = {}  # an unstated safety is RunConfig's default
        if mode == "fixed":
            step["dt"] = float(_typed(dt_cfg["dt"], float, "time.dt.dt"))
        elif mode != "adaptive":
            raise ConfigError(f"'time.dt.policy' must be 'fixed' or 'adaptive', got {mode!r}")
        elif "safety" in dt_cfg:
            step["safety"] = float(_typed(dt_cfg["safety"], float, "time.dt.safety"))
        normalized = _typed(tcfg.get("normalized", True), bool, "time.normalized")
        return RunConfig(
            background=bg,
            f=f,
            u0=u0,
            T_final=float(_typed(tcfg.get("T_final", 1.0), float, "time.T_final")),
            **step,
            stop_tol=float(_typed(tcfg.get("stop_tol", 1e-8), float, "time.stop_tol")),
            renormalize_volume=_typed(tcfg.get("renormalize_volume", normalized), bool,
                                      "time.renormalize_volume"),
            log_cadence=_typed(tcfg.get("log_cadence", 10), int, "time.log_cadence"),
            scheme=tcfg.get("scheme", "rk4"),
            normalized=normalized,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _default_out(cfg_path: Path, cfg: dict, flag: str | None) -> Path:
    if flag:
        return Path(flag)
    if "outputs" in cfg and "dir" in cfg["outputs"]:
        return Path(cfg["outputs"]["dir"])
    root = os.environ.get("CONFLOW_OUT", "out")
    return Path(root) / cfg_path.stem


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_series_csv(path: Path, traj: Trajectory):
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        cols = [traj.columns[k] for k in RECORD_COLUMNS]
        for i in range(traj.n_records):
            fh.write(",".join(_fmt(c[i]) for c in cols) + "\n")


def write_outputs(traj: Trajectory, out: Path, cfg: dict) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(out / "series.csv", traj)
    grid = traj.config.background.grid
    write_field(out / "u_initial.field", ScalarField(grid, traj.snapshots[0]))
    write_field(out / "u_final.field", ScalarField(grid, traj.snapshots[-1]))
    # stored members: deflating held ~2.8x the snapshots and took ~4x as long
    np.savez(
        out / "trajectory.npz",
        snapshots=traj.snapshots,
        vol_pre=traj.vol_pre,
        **{f"col_{k}": traj.columns[k] for k in RECORD_COLUMNS},
    )
    last = {k: float(traj.columns[k][-1]) for k in RECORD_COLUMNS}
    summary = {
        "kind": traj.kind,
        "termination": traj.termination,
        "notes": traj.notes,
        "n_records": traj.n_records,
        "final": last,
        "max_volume_drift": float(np.abs(traj.vol_pre - 1.0).max()),
        "case_tag": traj.config.background.case_tag,
        "config": cfg,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def load_trajectory(out: Path, seed: int | None = None) -> tuple[Trajectory, dict]:
    """The stored run in ``out``: its config, termination and notes from
    summary.json (its f built with ``seed``), its records from
    trajectory.npz.  A trajectory.npz that cannot be read, whose arrays
    contradict the grid or each other, or whose times are not finite and
    strictly increasing, raises ConfigError."""
    summary = _object(_load_json(out / "summary.json"), str(out / "summary.json"))
    missing = [k for k in ("config", "termination", "notes") if summary.get(k) is None]
    if missing:
        raise ConfigError(f"{out}: summary.json carries no {' or '.join(missing)}")
    cfg = summary["config"]
    rc = build_run_config(cfg, out, seed=seed)
    path = out / "trajectory.npz"
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            traj = Trajectory(
                config=rc,
                termination=summary["termination"],
                columns={k: np.asarray(data[f"col_{k}"], dtype=float) for k in RECORD_COLUMNS},
                snapshots=np.asarray(data["snapshots"], dtype=float),
                vol_pre=np.asarray(data["vol_pre"], dtype=float),
                notes=summary["notes"],
            )
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigError(f"{path}: not a readable trajectory ({exc})") from exc
    # K >= 1 records on the config's grid, one column entry per record, and
    # positive finite states (min > 0 fails on NaN, a finite max bounds it)
    snaps, shape = traj.snapshots, rc.background.grid.shape
    K = len(snaps) if snaps.ndim else 0
    if K < 1 or snaps.shape != (K, *shape):
        raise ConfigError(f"{path}: snapshots of shape {snaps.shape} are not records"
                          f" on the {shape} grid")
    short = [k for k, v in (("vol_pre", traj.vol_pre),
                            *((f"col_{c}", traj.columns[c]) for c in RECORD_COLUMNS))
             if v.shape != (K,)]
    if short:
        raise ConfigError(f"{path}: {', '.join(short)} not of shape ({K},)")
    if not (snaps.min() > 0.0 and math.isfinite(snaps.max())):
        raise ConfigError(f"{path}: a snapshot value is not positive and finite")
    t = traj.times
    if not (np.isfinite(t).all() and (t[1:] > t[:-1]).all()):
        raise ConfigError(f"{path}: col_t is not finite and strictly increasing")
    return traj, cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg_path = Path(args.config)
    try:
        cfg = resolve_config_paths(_load_json(cfg_path), cfg_path.parent)
        rc = build_run_config(cfg, cfg_path.parent, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = _default_out(cfg_path, cfg, args.out)
    traj = run(rc)
    write_outputs(traj, out, cfg)
    print(f"{cfg_path.stem}: {traj.termination} after {traj.n_records} records"
          f" (t = {traj.times[-1]:.6g}); outputs in {out}")
    return 0 if traj.termination in _RUN_OK else 2


def _select_checks(args_checks, cfg: dict, case_tag: str) -> list[str]:
    if args_checks is not None:
        names = [c for c in args_checks.split(",") if c]
    elif "checks" in cfg:
        names = list(cfg["checks"])
    else:
        names = diagnostics.default_checks(case_tag)
    if not names:
        raise ConfigError("no checks to run")
    try:
        diagnostics.require_known_checks(names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return names


def cmd_verify(args) -> int:
    target = Path(args.target)
    traj = None
    try:
        if target.is_dir():
            traj, cfg = load_trajectory(target, seed=args.seed)
            rc = traj.config
            out = Path(args.out) if args.out else target
        else:
            cfg = resolve_config_paths(_load_json(target), target.parent)
            rc = build_run_config(cfg, target.parent, seed=args.seed)
            out = _default_out(target, cfg, args.out)
        names = _select_checks(args.checks, cfg, rc.background.case_tag)
    except ConfigError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 1
    if traj is None:
        traj = run(rc)
    reports = diagnostics.run_checks(traj, rc.background, rc.f, names)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "background_caveat": diagnostics.BACKGROUND_CAVEAT,
        "reports": [r.to_dict() for r in reports],
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    width = max((len(r.id) for r in reports), default=10)
    for r in reports:
        status = "PASS" if r.passed else ("INCONCLUSIVE" if r.passed is None else "FAIL")
        extra = f"  ({r.notes})" if r.notes else ""
        print(f"{r.id:<{width}}  {status}{extra}")
    failed = [r for r in reports if r.passed is False]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed or inconclusive;"
          f" report in {out / 'report.json'}")
    return 2 if failed else 0


def _sweep_worker(payload) -> tuple[str, str, str, int, float, float]:
    """Run one sweep member; its aggregate row (id, case, termination, exit,
    B_pred, B_fit)."""
    run_id, cfg, out_dir, seed = payload
    try:
        rc = build_run_config(cfg, Path(out_dir), seed=seed)
    except ConfigError as exc:
        return run_id, "invalid", f"config error: {exc}", 1, math.nan, math.nan
    traj = run(rc)
    write_outputs(traj, Path(out_dir), cfg)
    bg = rc.background
    b_pred = math.nan
    if bg.case_tag == "negative":
        b_pred, _c = diagnostics.predicted_decay_constants(bg, rc.f)
    return (run_id, bg.case_tag, traj.termination, 0 if traj.termination in _RUN_OK else 2,
            b_pred, diagnostics.fit_decay(traj).B_fit)


def _merge(base: dict, overrides: dict) -> dict:
    merged = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **val}
        else:
            merged[key] = val
    return merged


def cmd_sweep(args) -> int:
    plan_path = Path(args.plan)
    try:
        plan = _object(_load_json(plan_path), "a sweep plan")
        base = _object(plan.get("base", {}), "'base'")
        if "base_path" in plan:
            base = _merge(_object(_load_json(plan_path.parent / plan["base_path"]),
                                  "the base config"), base)
        runs = plan["runs"]
        if not isinstance(runs, list):
            raise ConfigError(f"'runs' must be a JSON list, got {runs!r}")
        ids = [_object(r, "each entry of 'runs'")["id"] for r in runs]
        for rid in ids:  # each id names its run's directory under the output root
            if not isinstance(rid, str) or rid in ("", ".", "..") or any(
                    sep in rid for sep in ("/", os.sep, os.altsep) if sep):
                raise ConfigError(f"run id {rid!r} must be a non-empty file name other"
                                  " than '.' or '..', without a path separator")
        if len(set(ids)) != len(ids):
            raise ConfigError("sweep run ids must be unique")
        jobs = args.jobs or _typed(plan.get("jobs", 1), int, "jobs")
        out_root = Path(args.out) if args.out else Path(
            plan.get("out", Path(os.environ.get("CONFLOW_OUT", "out")) / plan_path.stem))
        payloads = []
        for spec in runs:
            if "config" in spec:
                raise ConfigError(f"run {spec['id']!r}: 'config' is not a run key;"
                                  " name its changes to the base 'overrides'")
            overrides = _object(spec.get("overrides", {}), f"run {spec['id']!r}'s overrides")
            payloads.append((spec["id"], resolve_config_paths(_merge(base, overrides),
                                                              plan_path.parent),
                             str(out_root / spec["id"]), args.seed))
    except (ConfigError, KeyError, TypeError) as exc:  # TypeError: a non-string path
        print(f"sweep: {exc}", file=sys.stderr)
        return 1

    # no more workers than runs: the pool starts all of them at once
    workers = min(jobs, len(payloads))
    if workers <= 1:
        rows = [_sweep_worker(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, payloads))

    import csv

    out_root.mkdir(parents=True, exist_ok=True)
    with open(out_root / "aggregate.csv", "w", newline="") as fh:
        # minimal quoting: only a field with a comma (a config error) is quoted
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "case", "termination", "exit", "B_pred", "B_fit"))
        writer.writerows((rid, case, term, code, _fmt(bp), _fmt(bf))
                         for rid, case, term, code, bp, bf in rows)
    bad = [r for r in rows if r[3] != 0]
    print(f"sweep: {len(rows) - len(bad)}/{len(rows)} runs ok; table in {out_root / 'aggregate.csv'}")
    return 2 if bad else 0


SHIFT_TOL = 1e-10


def cmd_compare(args) -> int:
    """Shift mode compares two normalized runs record by record; rescale
    mode compares a normalized run_a with the rescaled non-normalized run_b.
    Both need the two runs on one grid."""
    kind_b = "normalized" if args.mode == "shift" else "non_normalized"
    try:
        traj_a, _ = load_trajectory(Path(args.run_a), seed=args.seed)
        traj_b, _ = load_trajectory(Path(args.run_b), seed=args.seed)
        grid_a, grid_b = traj_a.config.background.grid, traj_b.config.background.grid
        if grid_a != grid_b:
            raise ConfigError(f"the runs live on different grids: {grid_a} vs {grid_b}")
        for name, traj, kind in ("run_a", traj_a, "normalized"), ("run_b", traj_b, kind_b):
            if traj.kind != kind:
                raise ConfigError(f"{args.mode} mode needs a {kind} {name}, got a {traj.kind} run")
    except ConfigError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    if args.mode == "shift":
        if traj_a.n_records != traj_b.n_records:
            print(f"compare: record counts differ ({traj_a.n_records} vs {traj_b.n_records})")
            return 2
        tgap = float(np.abs(traj_a.times - traj_b.times).max())
        ugap = float(np.abs(traj_a.snapshots - traj_b.snapshots).max())
        print(f"shift compare: max time gap {tgap:.3g}, max u gap {ugap:.3g}"
              f" (tolerance {SHIFT_TOL:g})")
        return 0 if (tgap <= 1e-12 and ugap <= SHIFT_TOL) else 2
    try:
        rep = diagnostics.compare_rescaled(traj_a, traj_b)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    print(f"rescale compare: sup gap {rep.measured['sup_gap']:.3g} over"
          f" {rep.measured['matched_records']}/{traj_a.n_records} records"
          f" (tolerance {rep.tolerances['sup_tol']:g})")
    return 0 if rep.passed else 2


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="conflow",
        description="run, verify and compare conformal curvature flows",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the sampled monotonicity certification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a flow described by a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run theorem checks on a config or a run directory")
    p_ver.add_argument("target", help="config JSON or a previous run's output directory")
    p_ver.add_argument("--checks", default=None,
                       help=f"comma list from: {', '.join(diagnostics.CHECK_NAMES)}")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="run a plan of config variations")
    p_sw.add_argument("plan")
    p_sw.add_argument("--jobs", type=int, default=None)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare two runs (shift or rescale equivalence)")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--mode", choices=("shift", "rescale"), required=True)
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
