"""In-memory span tracer that wraps conflow's public entry points from outside.

A span is (name, parent, start, end).  ``install`` replaces each traced
function wherever a conflow module binds it, so calls made through module
globals are recorded: the grid kernels as ``flow``, ``diagnostics`` and
``conformal`` see them, ``flow.run`` and ``hamilton_rescale`` as ``cli`` and
``diagnostics`` see them, and the ``cli`` persistence helpers.  Response
functions are traced by wrapping ``fzoo.from_config``: every FSpec it returns
carries traced eval_f/eval_fp/eval_fpp callables.  No file of the package
changes.

Spans stay in memory until ``write`` is called at the end of a repetition.
A span's self time is its duration minus the durations of its child spans.
"""

import contextlib
import dataclasses
import functools
import time
from collections import Counter
from pathlib import Path

# (metric prefix, module, attribute) of every plain traced boundary.
TRACED = (
    ("grid.laplacian0_values", "grid", "laplacian0_values"),
    ("grid.power", "grid", "power"),
    ("grid.grad_inner_values", "grid", "grad_inner_values"),
    ("grid.read_field", "grid", "read_field"),
    ("conformal.scalar_curvature_values", "conformal", "scalar_curvature_values"),
    ("flow.run", "flow", "run"),
    ("flow.hamilton_rescale", "flow", "hamilton_rescale"),
    ("diagnostics.sup_deviation_on_times", "diagnostics", "sup_deviation_on_times"),
    ("cli.build_run_config", "cli", "build_run_config"),
    ("cli.write_outputs", "cli", "write_outputs"),
    ("cli.load_trajectory", "cli", "load_trajectory"),
)
F_CALLABLES = ("eval_f", "eval_fp", "eval_fpp")

# Checks reported as diagnostics.<check>.s even when a workload does not run
# them; rep.py times each check it runs in a span named check.<name>.
TIMED_CHECKS = ("minmax", "decay", "u_bounds", "identities", "stationary",
                "lnhalf", "positive_bounds", "sobolev_info", "rescale")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, start, end]
        self._stack = [-1]
        self.runs = []           # (flow.run span index, records, log cadence, snapshot bytes)
        self.rescale_records = 0
        self.write_bytes = 0

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1], 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, self._stack[-1], 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path):
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0!r},{t1!r}\n")


def install(tracer: Tracer):
    """Replace the traced boundaries in every conflow module namespace."""
    import conflow
    from conflow import cli, conformal, diagnostics, flow, fzoo, grid

    mods = {"grid": grid, "conformal": conformal, "fzoo": fzoo, "flow": flow,
            "diagnostics": diagnostics, "cli": cli}
    namespaces = (*mods.values(), conflow)

    def patch(original, wrapped):
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is original:
                    setattr(ns, attr, wrapped)

    def after_run(idx, args, traj):
        tracer.runs.append((idx, traj.n_records, args[0].log_cadence, traj.snapshots.nbytes))

    def after_rescale(idx, args, out):
        tracer.rescale_records += args[0].n_records

    def after_write(idx, args, out):
        tracer.write_bytes += sum(p.stat().st_size for p in Path(args[1]).iterdir() if p.is_file())

    after = {"flow.run": after_run, "flow.hamilton_rescale": after_rescale,
             "cli.write_outputs": after_write}
    for name, mod, attr in TRACED:
        original = getattr(mods[mod], attr)
        patch(original, tracer.wrap(name, original, after.get(name)))

    from_config = fzoo.from_config

    def traced_from_config(cfg, seed=None):
        f = from_config(cfg, seed=seed)
        return dataclasses.replace(f, **{k: tracer.wrap(f"fzoo.{k}", getattr(f, k))
                                         for k in F_CALLABLES})

    patch(from_config, tracer.wrap("fzoo.from_config", traced_from_config))


def _run_of(spans) -> list[int]:
    """Index of each span's enclosing flow.run span (itself for a flow.run
    span), or -1.  A parent is always recorded before its children."""
    run_of = []
    for i, (name, parent, _, _) in enumerate(spans):
        run_of.append(i if name == "flow.run" else (run_of[parent] if parent >= 0 else -1))
    return run_of


def _steps_of(spans, run_of) -> Counter:
    """Accepted steps per flow.run span: the adaptive dt control calls eval_fp
    once per step."""
    return Counter(run_of[i] for i, span in enumerate(spans)
                   if span[0] == "fzoo.eval_fp" and run_of[i] >= 0)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times from the recorded spans."""
    spans = tracer.spans
    run_of = _run_of(spans)
    steps_of = _steps_of(spans, run_of)
    child = [0.0] * len(spans)
    calls, total, self_s, in_run = Counter(), Counter(), Counter(), Counter()
    for i, (name, parent, t0, t1) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name, parent, t0, t1) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child[i]
        if run_of[i] >= 0 and name != "flow.run":
            in_run[name] += 1

    m = {}
    for name in ("grid.laplacian0_values", "grid.power", "grid.grad_inner_values",
                 "fzoo.eval_f", "fzoo.eval_fp", "fzoo.eval_fpp"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    lap = calls["grid.laplacian0_values"]
    m["grid.laplacian0_values.us_per_call"] = 1e6 * self_s["grid.laplacian0_values"] / lap if lap else 0.0
    m["grid.read_field.calls"] = calls["grid.read_field"]
    m["grid.read_field.s"] = total["grid.read_field"]
    m["conformal.scalar_curvature_values.calls"] = calls["conformal.scalar_curvature_values"]
    m["fzoo.from_config.calls"] = calls["fzoo.from_config"]
    m["fzoo.certify_s"] = total["fzoo.from_config"]

    steps = sum(steps_of.values())
    m["flow.run.calls"] = calls["flow.run"]
    m["flow.run.s"] = total["flow.run"]
    m["flow.run.steps"] = steps
    m["flow.run.records"] = sum(r[1] for r in tracer.runs)
    m["flow.run.us_per_step"] = 1e6 * total["flow.run"] / steps if steps else 0.0
    for key, name in (("lap", "grid.laplacian0_values"), ("f_evals", "fzoo.eval_f"),
                      ("power", "grid.power")):
        m[f"flow.run.{key}_per_step"] = in_run[name] / steps if steps else 0.0
    m["flow.snapshot_bytes"] = sum(r[3] for r in tracer.runs)
    m["flow.hamilton_rescale.calls"] = calls["flow.hamilton_rescale"]
    m["flow.hamilton_rescale.s"] = total["flow.hamilton_rescale"]
    m["flow.hamilton_rescale.records"] = tracer.rescale_records

    m["diagnostics.sup_deviation_on_times.calls"] = calls["diagnostics.sup_deviation_on_times"]
    m["diagnostics.sup_deviation_on_times.s"] = total["diagnostics.sup_deviation_on_times"]
    checks = set(TIMED_CHECKS) | {k[6:] for k in calls if k.startswith("check.")}
    for check in sorted(checks):
        m[f"diagnostics.{check}.s"] = total[f"check.{check}"]
    m["diagnostics.checks.s"] = sum(total[f"check.{c}"] for c in checks)

    m["cli.build_run_config.calls"] = calls["cli.build_run_config"]
    m["cli.build_run_config.s"] = total["cli.build_run_config"]
    m["cli.write_outputs.s"] = total["cli.write_outputs"]
    m["cli.write_outputs.bytes"] = tracer.write_bytes
    m["cli.load_trajectory.s"] = total["cli.load_trajectory"]
    m["cli.sweep.s"] = total["cli.sweep"]
    m["trace.spans"] = len(spans)
    return m


def step_crosscheck(tracer: Tracer) -> list[str]:
    """Each run's accepted steps (eval_fp calls under it) must fit its record
    count: (records - 2) * cadence < steps <= (records - 1) * cadence."""
    steps_of = _steps_of(tracer.spans, _run_of(tracer.spans))
    errors = []
    for idx, records, cadence, _ in tracer.runs:
        s = steps_of[idx]
        if not (records - 2) * cadence < s <= (records - 1) * cadence:
            errors.append(f"flow.run span {idx}: {s} steps do not fit {records} records"
                          f" at cadence {cadence}")
    return errors
