"""conflow benchmark: times `conflow run`, `verify` and `sweep` end to end and,
in a separate traced pass, per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports the package from
./src and fails (exit 2, no result) when that is missing.  Every repetition
runs in a fresh interpreter (perfbench/rep.py), so interpreter start and
imports are part of the measured set-up, as for any CLI invocation.

--trace 0  Full repetitions (setup, run + write, load + checks) until
           --seconds have passed, each followed by verify-only repetitions
           (setup, load + checks) of its output, as `conflow verify <dir>`
           would make, for about VERIFY_SHARE of the full repetition's
           time.  Prints the end-to-end metrics of BENCHMARK.json as medians
           over the repetitions whose outputs passed the correctness gate.
--trace 1  One untraced and one traced repetition (a sweep traced with
           --jobs 1), a plain `python -m conflow run` of the same config, and
           the kernel microbench.  Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details (host metadata, the seed,
every repetition, the calibration loop's spread) go to
.perfbench_out/<workload>/, which also receives the traced run's spans.
The exit code is 0 when every output was correct, 1 otherwise.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Where verify is short next to run (negative_1d), verify_s and setup_s get
# more samples from verify-only repetitions taken in the same window; where
# verify dominates (rescale_positive) the share buys none.
VERIFY_SHARE = 0.25
REP_TIMEOUT_S = 100


class RepError(RuntimeError):
    pass


def spawn(spec: dict, work: Path, tag: str) -> tuple[dict, float]:
    """Run one repetition; returns its result and the perf_counter stamp
    taken just before the interpreter was started."""
    spec_path, result_path, log_path = (work / f"{tag}.{ext}" for ext in ("spec.json", "result.json", "log"))
    spec = {"src": str(ROOT / "src"), "result": str(result_path), **spec}
    spec_path.write_text(json.dumps(spec))
    with open(log_path, "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), str(spec_path)],
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RepError(f"{tag}: no result within {REP_TIMEOUT_S} s")
    if code != 0 or not result_path.exists():
        tail = log_path.read_text().strip().splitlines()[-1:]
        raise RepError(f"{tag}: exit code {code}: {' '.join(tail)}")
    return json.loads(result_path.read_text()), t_spawn


def calibrate_ms() -> float:
    """Fixed-work numpy loop beside every repetition; reported only, never
    used to rescale a metric."""
    a = np.linspace(-1.0, 1.0, 128)
    x = a
    t0 = time.perf_counter()
    for _ in range(2000):
        x = np.roll(x, 1) * 0.5 + a
    return 1e3 * (time.perf_counter() - t0)


def host_metadata() -> dict:
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((idx / k).read_text().strip() for k in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"n": len(values), "median": med, "iqr_over_median": (q[2] - q[0]) / med,
            "min": min(values), "max": max(values)}


class Run:
    """Bookkeeping of one benchmark invocation: ops attempted and failed."""

    def __init__(self, w: workloads.Workload, seed: int, work: Path, inputs: dict,
                 results: Path):
        self.w, self.seed, self.work, self.inputs = w, seed, work, inputs
        self.results = results
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.calibration = []
        self.reps = []
        self.verifies = []

    def spec(self, mode: str, tag: str, trace: bool = False, jobs: int | None = None,
             out: str | None = None) -> dict:
        kind = "single" if mode == "micro" else self.w.kind
        spec = {"mode": mode, "kind": kind, "seed": self.seed, "trace": trace,
                "jobs": self.w.jobs if jobs is None else jobs, "out": out or str(self.work / tag)}
        if mode == "micro":
            spec["config"] = str(self.inputs["micro"])
        elif kind == "sweep":
            spec["plan"] = str(self.inputs["plan"])
        else:
            spec["config"] = str(self.inputs["config"])
        if trace:
            spec["spans"] = str(self.results / "spans.csv")
        return spec

    def fail(self, message: str, row: dict | None = None):
        """Record a wrong output; an op counts as failed once."""
        self.errors.append(message)
        if row is None or row["ok"]:
            self.failed += 1
        if row is not None:
            row["ok"] = False

    def full(self, tag: str, trace: bool = False, jobs: int | None = None):
        """One full repetition, gated; returns (result, row) or None."""
        self.attempted += 1
        self.calibration.append(calibrate_ms())
        try:
            res, t_spawn = spawn(self.spec("full", tag, trace, jobs), self.work, tag)
        except RepError as exc:
            self.fail(str(exc))
            return None
        errors = workloads.gate(self.w, res)
        if errors:
            self.fail(f"{tag}: " + "; ".join(errors))
        row = {"tag": tag, "ok": not errors,
               "wall_s": res["t_verify"] - t_spawn, "setup_s": res["t_setup"] - t_spawn,
               "run_s": res["t_run"] - res["t_setup"], "verify_s": res["t_verify"] - res["t_run"],
               "peak_rss_mb": res["peak_rss_kb"] / 1024.0, "digests": workloads.digests(res)}
        self.reps.append(row)
        return (res, row) if not errors else None

    def same_outputs(self, row: dict, ref: dict, what: str):
        diff = sorted(k for k in row["digests"] if row["digests"][k] != ref["digests"].get(k))
        if diff:
            self.fail(f"{row['tag']}: {what}: outputs differ from {ref['tag']}: {diff}", row)

    def verify_only(self, tag: str, out: str):
        """Verify a full repetition's output in a fresh interpreter, gated."""
        self.attempted += 1
        try:
            res, t_spawn = spawn(self.spec("verify", tag, out=out), self.work, tag)
        except RepError as exc:
            self.fail(str(exc))
            return
        errors = workloads.gate(self.w, res)
        if errors:
            self.fail(f"{tag}: " + "; ".join(errors))
        self.verifies.append({"tag": tag, "ok": not errors, "setup_s": res["t_setup"] - t_spawn,
                              "verify_s": res["t_verify"] - res["t_run"]})


def measure(r: Run, seconds: float) -> dict:
    # fills the bytecode and file caches; not timed
    spawn(r.spec("setup", "warmup"), r.work, "warmup")
    begin = time.perf_counter()
    ref = None
    k = elapsed = 0
    # stop when the next repetition would end more than half a repetition
    # past the budget, so a run lasts about --seconds whatever the rep length
    while k == 0 or elapsed * (1.0 + 0.5 / k) < seconds:
        tag = f"rep{k}"
        got = r.full(tag)
        if got is not None:
            row = got[1]
            if ref is None:
                ref = row
            else:
                r.same_outputs(row, ref, "repetitions")
            for j in range(int(VERIFY_SHARE * row["wall_s"] / (row["setup_s"] + row["verify_s"]))):
                r.verify_only(f"{tag}v{j}", str(r.work / tag))
        shutil.rmtree(r.work / tag, ignore_errors=True)
        k += 1
        elapsed = time.perf_counter() - begin
    good = [row for row in r.reps if row["ok"]] or r.reps
    if not good:
        raise RepError("no repetition produced a result")
    both = good + ([row for row in r.verifies if row["ok"]] or r.verifies)
    metrics = {k: statistics.median(row[k] for row in good)
               for k in ("wall_s", "run_s", "peak_rss_mb")}
    for k in ("setup_s", "verify_s"):
        metrics[k] = statistics.median(row[k] for row in both)
    return metrics


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_matches(r: Run, untraced_dir: Path) -> None:
    """A plain `python -m conflow run` of the same config must write the same
    series.csv and summary.json as the benchmark's untraced repetition."""
    r.attempted += 1
    out = r.work / "cli"
    cmd = [sys.executable, "-m", "conflow", "--seed", str(r.seed), "run",
           str(r.inputs["config"]), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        r.fail(f"conflow run exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return
    differ = [name for name in ("series.csv", "summary.json")
              if _digest(out / name) != _digest(untraced_dir / name)]
    if differ:
        r.fail(f"conflow run: {differ} differ from the benchmark's repetition")


def trace(r: Run) -> dict:
    plain = r.full("untraced")
    jobs = 1 if r.w.kind == "sweep" else None
    traced = r.full("traced", trace=True, jobs=jobs)
    if plain is None or traced is None:
        raise RepError("; ".join(r.errors))
    (_, plain_row), (res, traced_row) = plain, traced
    what = "serial traced sweep vs --jobs 2" if jobs == 1 else "traced vs untraced"
    r.same_outputs(traced_row, plain_row, what)
    layers = res["layers"]
    errors = list(res["step_errors"])
    if r.w.steps is not None and layers["flow.run.steps"] != r.w.steps:
        errors.append(f"{layers['flow.run.steps']} steps, expected {r.w.steps}")
    if errors:
        r.fail("traced: " + "; ".join(errors), traced_row)
    if r.w.kind == "single":
        cli_matches(r, r.work / "untraced")
    micro, _ = spawn(r.spec("micro", "micro"), r.work, "micro")
    rows = res.get("sweep", {}).get("rows", [])
    return {**layers, **micro["micro"],
            "cli.sweep.runs_ok": sum(1 for row in rows if row[3] == "0"),
            "diagnostics.checks_inconclusive": sum(1 for o in res["outputs"] for c in o["checks"]
                                                   if c[1] is None),
            "trace.overhead_s": traced_row["wall_s"] - plain_row["wall_s"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "conflow" / "__init__.py").is_file():
        print(f"perfbench: no conflow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # seeded inputs are written with conflow.grid
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if args.trace else "end_to_end"]

    w = workloads.WORKLOADS[args.workload]
    meta = host_metadata()
    results = OUT / w.name
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        r = Run(w, args.seed, work, workloads.prepare(w, ROOT, work, args.seed), results)
        if args.trace:
            metrics = trace(r)
        else:
            metrics = measure(r, args.seconds)
    except RepError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        meta["loadavg_end"] = os.getloadavg()
        shutil.rmtree(work, ignore_errors=True)

    meta["calibration_ms"] = spread(r.calibration)
    report = {"workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": meta, "errors": r.errors, "repetitions": r.reps,
              "verify_repetitions": r.verifies, "metrics": metrics}
    (results / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")
    print(f"perfbench: {w.name} seed={args.seed} host={json.dumps(meta)}")
    for row in r.reps:
        print("  " + " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in row.items() if k != "digests"))
    for e in r.errors:
        print(f"  error: {e}")
    print(json.dumps({
        "correct": not r.errors,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if not r.errors else 1


if __name__ == "__main__":
    sys.exit(main())
