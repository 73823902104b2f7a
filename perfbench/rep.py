"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py <spec.json>

The spec (written by run.py) names the workload's config or sweep plan, the
output directory, the mode and whether to trace.  Stages, each ended by a
perf_counter stamp (CLOCK_MONOTONIC, so run.py's spawn stamp is comparable):

    setup   import conflow, load the config, cli.build_run_config
            (a sweep loads its plan; its members are configured inside run)
    run     flow.run + cli.write_outputs, or the whole `conflow sweep` call
    verify  cli.load_trajectory + diagnostics.run_checks per output directory

Mode "verify" skips the run stage and verifies an existing output
directory, as `conflow verify <dir>` does; mode "setup" stops after setup;
mode "micro" runs the kernel microbench after setup.  The stamps, the verdict inputs (terminations, check results,
output digests) and the peak RSS go to the spec's result file as JSON.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_kb() -> int:
    # this process plus the largest of its waited-for children (sweep workers)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import conflow  # noqa: F401
    from conflow import cli, diagnostics, flow

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    stage = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    result = {"t_start": T_START, "rescale_tol": diagnostics.RESCALE_TOL}
    seed = spec["seed"]
    out = Path(spec["out"])

    with stage("stage.setup"):
        if spec["kind"] == "sweep":
            plan_path = Path(spec["plan"])
            plan = json.loads(plan_path.read_text())
        else:
            cfg_path = Path(spec["config"])
            cfg = cli.resolve_config_paths(json.loads(cfg_path.read_text()), cfg_path.parent)
            rc = cli.build_run_config(cfg, cfg_path.parent, seed=seed)
    result["t_setup"] = time.perf_counter()

    if spec["mode"] == "micro":
        import micro
        result["micro"] = micro.kernel_metrics(rc)
    if spec["mode"] in ("setup", "micro"):
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    full = spec["mode"] == "full"
    with stage("stage.run"):
        if spec["kind"] == "sweep":
            if full:
                with stage("cli.sweep"):
                    code = cli.main(["sweep", str(plan_path), "--jobs", str(spec["jobs"]),
                                     "--out", str(out)])
            dirs = {r["id"]: out / r["id"] for r in plan["runs"]}
        else:
            if full:
                traj = flow.run(rc)
                cli.write_outputs(traj, out, cfg)
            dirs = {"run": out}
    result["t_run"] = time.perf_counter()

    outputs = []
    with stage("stage.verify"):
        for label, d in dirs.items():
            traj, cfg_d = cli.load_trajectory(d)
            bg, f = traj.config.background, traj.config.f
            names = cfg_d["checks"] if "checks" in cfg_d else diagnostics.default_checks(bg.case_tag)
            if tracer is None:
                reports = diagnostics.run_checks(traj, bg, f, names)
            else:
                reports = []
                for name in names:
                    with stage(f"check.{name}"):
                        reports += diagnostics.run_checks(traj, bg, f, [name])
            outputs.append({
                "dir": label,
                "termination": traj.termination,
                "n_records": traj.n_records,
                "checks": [[r.id, r.passed, r.measured.get("sup_gap")] for r in reports],
            })
    result["t_verify"] = time.perf_counter()

    result["peak_rss_kb"] = _peak_rss_kb()
    for entry, d in zip(outputs, dirs.values()):
        entry["digests"] = {name: _digest(d / name) for name in ("series.csv", "summary.json")}
    result["outputs"] = outputs
    if spec["kind"] == "sweep" and full:
        rows = (out / "aggregate.csv").read_text().splitlines()[1:]
        result["sweep"] = {
            "exit": code,
            "aggregate": _digest(out / "aggregate.csv"),
            "rows": [row.split(",")[:4] for row in rows],
        }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["step_errors"] = spans.step_crosscheck(tracer)
        if spec.get("spans"):
            tracer.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
