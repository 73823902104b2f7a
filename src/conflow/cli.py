"""Batch front-end: configure, run, verify, sweep, and compare flows.

A run is described by one JSON document with sections
{grid, background, u0, f, time, outputs, checks}; see configs/ for worked
examples.  Outputs per run: series.csv (the logged diagnostics), snapshot
files for the initial and final conformal factor, trajectory.npz (all
logged snapshots, for verification and comparison), and summary.json.

Exit codes: run returns 2 on blowup / positivity loss / f-domain violation
/ an exhausted step budget, verify when a non-inconclusive check fails,
sweep when a member does not exit 0 (a member with a bad config or
directory is its own exit-1 row), compare when the two runs disagree; else
0.  A command raises ConfigError for an input it refuses (a malformed
config or plan, an unreadable run, unknown check names or none, two runs it
cannot compare, an output directory that cannot be made) before any run or
check starts, and ``main`` prints it as one line and returns 1.  Identical
configs produce bit-identical CSV and summaries.
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

def _load_json(path: Path, what: str) -> dict:
    """The JSON object in ``path``, else a ConfigError naming ``what``."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return _object(value, f"{what} {path}")


def _object(value, what: str) -> dict:
    """``value`` itself if it is a JSON object, else a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _typed(value, kind: type, what: str):
    """``value`` if it is a JSON boolean (``kind`` bool) or integer (``kind``
    int), as a float if it is a JSON number (``kind`` float, integers too),
    else a ConfigError naming ``what``; a boolean is neither number."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or (kind is not bool and isinstance(value, bool)):
        must = {bool: "true or false", int: "an integer", float: "a number"}[kind]
        raise ConfigError(f"'{what}' must be {must}, got {value!r}")
    return float(value) if kind is float else value


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
    """The RunConfig of a config document, a ``time`` key it leaves unset at
    RunConfig's default; a malformed document (its ``outputs`` and
    ``checks`` too) or an unreadable field file raises ConfigError."""
    try:
        _stated_dir(_object(_object(cfg, "a config").get("outputs", {}), "'outputs'"),
                    "dir", "outputs.dir")
        checks = cfg.get("checks", [])
        if not (isinstance(checks, list) and all(isinstance(c, str) for c in checks)):
            raise ConfigError(f"'checks' must be a JSON list of strings, got {checks!r}")
        _require_known_checks(checks)
        gspec = _object(cfg["grid"], "'grid'")
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
        dt_cfg = _object(tcfg.get("dt", {}), "'time.dt'")
        settings = {key: _typed(tcfg[key], kind, f"time.{key}") for key, kind in (
            ("T_final", float), ("stop_tol", float), ("normalized", bool),
            ("log_cadence", int)) if key in tcfg}
        if "scheme" in tcfg:
            settings["scheme"] = tcfg["scheme"]
        mode = dt_cfg.get("policy", "adaptive")
        if mode == "fixed":
            settings["dt"] = _typed(dt_cfg.get("dt"), float, "time.dt.dt")
        elif mode != "adaptive":
            raise ConfigError(f"'time.dt.policy' must be 'fixed' or 'adaptive', got {mode!r}")
        elif "safety" in dt_cfg:
            settings["safety"] = _typed(dt_cfg["safety"], float, "time.dt.safety")
        rc = RunConfig(background=bg, f=f, u0=u0, **settings)
        # only a normalized run renormalizes: a stated renormalization restates the kind
        if tcfg.get("renormalize_volume", rc.normalized) is not rc.normalized:
            raise ConfigError(f"'time.renormalize_volume' must be {json.dumps(rc.normalized)},"
                              f" the run's 'time.normalized', got {tcfg['renormalize_volume']!r}")
        return rc
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _stated_dir(doc: dict, key: str, what: str) -> str | None:
    """The output directory ``doc[key]`` states, None for no key; one that is no
    non-empty string (``""`` is the working directory) raises ConfigError."""
    stated = doc.get(key)
    if key in doc and not (isinstance(stated, str) and stated):
        raise ConfigError(f"'{what}' must be a non-empty string, got {stated!r}")
    return stated


def _output_dir(flag: str | None, stated=None, source: Path | None = None) -> Path:
    """A command's output directory, made: ``flag`` (``--out``, a sweep
    member's directory), else the one its input states (``outputs.dir``, a
    plan's ``out``, the run directory), else ``$CONFLOW_OUT/<source stem>``.
    One that cannot be made (a file at or above it) raises ConfigError."""
    out = Path(flag or (Path(os.environ.get("CONFLOW_OUT", "out")) / source.stem
                        if stated is None else stated))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_series_csv(path: Path, traj: Trajectory):
    # one %-format per record of Python floats: ``_fmt``'s digits, at half the cost
    line = ",".join(["%.17g"] * len(RECORD_COLUMNS)) + "\n"
    cols = [traj.columns[k].tolist() for k in RECORD_COLUMNS]
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        fh.writelines(line % row for row in zip(*cols))


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
    trajectory.npz.  A trajectory.npz that cannot be read, or whose arrays
    a ``Trajectory`` refuses, raises ConfigError."""
    summary = _load_json(out / "summary.json", "the run summary")
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
    return traj, cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg_path = Path(args.config)
    cfg = resolve_config_paths(_load_json(cfg_path, "the config"), cfg_path.parent)
    rc = build_run_config(cfg, cfg_path.parent, seed=args.seed)
    out = _output_dir(args.out, cfg.get("outputs", {}).get("dir"), cfg_path)
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
    _require_known_checks(names)
    return names


def _require_known_checks(names: list[str]):
    try:
        diagnostics.require_known_checks(names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_verify(args) -> int:
    target = Path(args.target)
    traj = None
    if target.is_dir():
        traj, cfg = load_trajectory(target, seed=args.seed)
        rc, stated = traj.config, target
    else:
        cfg = resolve_config_paths(_load_json(target, "the config"), target.parent)
        rc = build_run_config(cfg, target.parent, seed=args.seed)
        stated = cfg.get("outputs", {}).get("dir")
    names = _select_checks(args.checks, cfg, rc.background.case_tag)
    out = _output_dir(args.out, stated, target)
    if traj is None:
        traj = run(rc)
    reports = diagnostics.run_checks(traj, rc.background, rc.f, names)
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
        out = _output_dir(out_dir)
    except ConfigError as exc:
        return run_id, "invalid", f"config error: {exc}", 1, math.nan, math.nan
    traj = run(rc)
    write_outputs(traj, out, cfg)
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
        plan = _load_json(plan_path, "the sweep plan")
        base = _object(plan.get("base", {}), "'base'")
        if "base_path" in plan:
            base = _merge(_load_json(plan_path.parent / plan["base_path"], "a base config"), base)
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
        configs = []
        for spec in runs:
            if "config" in spec:
                raise ConfigError(f"run {spec['id']!r}: 'config' is not a run key;"
                                  " name its changes to the base 'overrides'")
            overrides = _object(spec.get("overrides", {}), f"run {spec['id']!r}'s overrides")
            configs.append(resolve_config_paths(_merge(base, overrides), plan_path.parent))
        out_root = _output_dir(args.out, _stated_dir(plan, "out", "out"), plan_path)
    except (KeyError, TypeError) as exc:  # a missing key; TypeError: a non-string path
        raise ConfigError(str(exc)) from exc

    payloads = [(rid, cfg, str(out_root / rid), args.seed) for rid, cfg in zip(ids, configs)]
    # no more workers than runs: the pool starts all of them at once
    workers = min(jobs, len(payloads))
    if workers <= 1:
        rows = [_sweep_worker(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, payloads))

    import csv

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
    Both need the two runs on one grid, started from one state."""
    kind_b = "normalized" if args.mode == "shift" else "non_normalized"
    traj_a, _ = load_trajectory(Path(args.run_a), seed=args.seed)
    traj_b, _ = load_trajectory(Path(args.run_b), seed=args.seed)
    grid_a, grid_b = traj_a.config.background.grid, traj_b.config.background.grid
    if grid_a != grid_b:
        raise ConfigError(f"the runs live on different grids: {grid_a} vs {grid_b}")
    for name, traj, kind in ("run_a", traj_a, "normalized"), ("run_b", traj_b, kind_b):
        if traj.kind != kind:
            raise ConfigError(f"{args.mode} mode needs a {kind} {name}, got a {traj.kind} run")
    tol = SHIFT_TOL if args.mode == "shift" else diagnostics.RESCALE_TOL
    gap = float(np.abs(traj_b.snapshots[0] - traj_a.snapshots[0]).max())
    if not gap <= tol:
        raise ConfigError(f"the first states differ by {gap:.3g}, over the tolerance {tol:g}")
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
    except ValueError as exc:  # a run_b that cannot be rescaled
        raise ConfigError(str(exc)) from exc
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
    try:
        return args.func(args)
    except ConfigError as exc:  # every command's refused input: one line
        print(f"{'config error' if args.command == 'run' else args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
