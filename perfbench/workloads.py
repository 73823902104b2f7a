"""The benchmark's workloads, their seeded inputs and their expected outcomes.

negative_1d and sweep_small use the repository's configs verbatim.
negative_2d and rescale_positive get a smooth, band-limited background
generated from the workload seed, written as a snapshot file and referenced
as a ``file:`` field, so the program sees only generated inputs.
"""

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                          # "single" or "sweep"
    termination: str                   # expected of every output directory
    records: int | None = None         # expected record count, when pinned
    steps: int | None = None           # expected accepted steps (traced run)
    jobs: int = 1                      # sweep worker processes


WORKLOADS = {
    w.name: w for w in (
        Workload("negative_1d",
                 "configs/negative.json verbatim: N=128 classical flow to stationarity;"
                 " per-step dispatch on small arrays dominates",
                 "single", "stationary", records=1320, steps=13188),
        Workload("negative_2d",
                 "seeded 64x64 negative background: same layers on 32x the nodes, so"
                 " array arithmetic and snapshot I/O weigh more",
                 "single", "time_reached"),
        Workload("rescale_positive",
                 "seeded N=128 positive background, f=-x^1.5: non-normalized path, every-step"
                 " snapshots and the rescale check dominate verify",
                 "single", "time_reached"),
        Workload("sweep_small",
                 "configs/sweep_small.json verbatim at 2 jobs: the process pool and the"
                 " sweep aggregate",
                 "sweep", "stationary", jobs=2),
    )
}


def smooth_field(rng: np.random.Generator, shape: tuple[int, ...], kmax: int,
                 lo: float, hi: float) -> np.ndarray:
    """Random sum of Fourier modes with |k| <= kmax, mapped affinely onto
    exactly [lo, hi], so the sign margin is fixed whatever the seed."""
    mesh = np.meshgrid(*[np.arange(n) * (TWO_PI / n) for n in shape], indexing="ij")
    g = np.zeros(shape)
    for ks in itertools.product(range(-kmax, kmax + 1), repeat=len(shape)):
        k = math.sqrt(sum(c * c for c in ks))
        if 0 < k <= kmax:
            phase = sum(c * x for c, x in zip(ks, mesh)) + rng.uniform(0.0, TWO_PI)
            g += rng.standard_normal() / (k * k) * np.cos(phase)
    g = (g - g.min()) / (g.max() - g.min())
    return lo + (hi - lo) * g


def _generated_config(work: Path, seed: int, shape, lo, hi, f, T_final, checks=None) -> Path:
    from conflow.grid import GridSpec, ScalarField, write_field

    grid = GridSpec(ambient_n=4, active_dims=len(shape), points=shape,
                    periods=(TWO_PI,) * len(shape))
    rng = np.random.default_rng(seed)
    write_field(work / "background.field",
                ScalarField(grid, smooth_field(rng, shape, 3, lo, hi)))
    cfg = {
        "grid": {"ambient_n": 4, "active_dims": len(shape), "points": list(shape),
                 "periods": [TWO_PI] * len(shape)},
        "background": "file:background.field",
        "u0": "constant:1",
        "f": f,
        "time": {"T_final": T_final, "dt": {"policy": "adaptive", "safety": 0.8},
                 "stop_tol": 1e-8, "scheme": "rk4", "log_cadence": 10,
                 "renormalize_volume": True},
        "seed": seed,
    }
    if checks is not None:
        cfg["checks"] = checks
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def prepare(w: Workload, root: Path, work: Path, seed: int) -> dict:
    """Inputs of one run: {"config": path} or {"plan": path}, plus the config
    the kernel microbench builds (the workload's own, or for the sweep its
    N=128 classical member, which is configs/negative.json's setup)."""
    if w.name == "negative_1d":
        cfg = root / "configs" / "negative.json"
        return {"config": cfg, "micro": cfg}
    if w.name == "sweep_small":
        return {"plan": root / "configs" / "sweep_small.json",
                "micro": root / "configs" / "negative.json"}
    if w.name == "negative_2d":
        cfg = _generated_config(work, seed, (64, 64), -1.9, -1.1,
                                {"name": "classical"}, T_final=1.2)
    else:
        # T_final keeps a repetition near 1.5 s: shorter than the spells in
        # which a shared host runs slow, so the median over ~35 repetitions
        # follows the host's typical speed rather than the spells it hit
        cfg = _generated_config(work, seed, (128,), 0.5, 1.5,
                                {"name": "power", "kappa": 1.5}, T_final=0.15,
                                checks=["minmax", "identities", "u_bounds", "lnhalf",
                                        "positive_bounds", "sobolev_info", "rescale"])
    return {"config": cfg, "micro": cfg}


def gate(w: Workload, result: dict) -> list[str]:
    """Correctness errors of one repetition's result (empty when correct)."""
    errors = []
    for out in result["outputs"]:
        where = out["dir"]
        if out["termination"] != w.termination:
            errors.append(f"{where}: termination {out['termination']}, expected {w.termination}")
        if w.records is not None and out["n_records"] != w.records:
            errors.append(f"{where}: {out['n_records']} records, expected {w.records}")
        checks = out["checks"]
        if not any(passed for _, passed, _ in checks):
            errors.append(f"{where}: no check passed")
        for cid, passed, gap in checks:
            if passed is False:
                errors.append(f"{where}: check {cid} failed")
            if cid == "rescale_equivalence" and (gap is None or gap > result["rescale_tol"]):
                errors.append(f"{where}: rescale sup gap {gap} over {result['rescale_tol']}")
    if w.name == "rescale_positive" and not any(
            cid == "rescale_equivalence" for cid, _, _ in result["outputs"][0]["checks"]):
        errors.append("rescale check did not run")
    if "sweep" in result:
        sweep = result["sweep"]
        rows = sweep["rows"]
        ok = sum(1 for r in rows if r[3] == "0")
        if sweep["exit"] != 0 or ok != 4 or len(rows) != 4:
            errors.append(f"sweep: {ok}/{len(rows)} runs at exit 0 (exit code {sweep['exit']})")
        if any(r[2] != w.termination for r in rows):
            errors.append(f"sweep: aggregate terminations {[r[2] for r in rows]}")
    return errors


def digests(result: dict) -> dict:
    """Output digests that must not change between repetitions."""
    d = {f"{o['dir']}/{name}": h for o in result["outputs"] for name, h in o["digests"].items()}
    if "sweep" in result:
        d["aggregate.csv"] = result["sweep"]["aggregate"]
    return d
