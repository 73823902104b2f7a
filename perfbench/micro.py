"""Kernel microbench at a workload's grid size, by direct calls.

Each kernel is called in batches of at least BATCH_S seconds; the figure is
the median per-call time over REPEATS batches.  ``bytes_per_call`` is
computed from array sizes: one read of each input array and one write of
each output array, temporaries excluded.  At the sizes benchmarked (128
nodes, 64x64 nodes) every array fits in L2, so no bandwidth ratio is derived
from these numbers.
"""

import statistics
import time

BATCH_S = 0.02
REPEATS = 7


def _per_call_us(fn) -> float:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


def kernel_metrics(rc) -> dict:
    """Direct-call microbench of the per-step kernels for one RunConfig."""
    from conflow import conformal, flow, grid
    from conflow.conformal import ConformalState

    bg, f = rc.background, rc.f
    u = rc.u0.values
    state = ConformalState(rc.u0)
    S = conformal.scalar_curvature_values(bg, u)
    dt = flow.stable_dt(bg, state, f, 0.8)
    arr = 8 * bg.grid.node_count
    cases = {
        "grid.laplacian0_values": (lambda: grid.laplacian0_values(bg.grid, u), 2 * arr),
        "conformal.scalar_curvature_values": (lambda: conformal.scalar_curvature_values(bg, u), 3 * arr),
        "flow.rhs_normalized": (lambda: flow.rhs_normalized(bg, state, f), 3 * arr),
        "flow.step": (lambda: flow.step(bg, state, f, dt, "rk4"), 3 * arr),
        "flow.stable_dt": (lambda: flow.stable_dt(bg, state, f, 0.8), 2 * arr),
        "fzoo.eval_f": (lambda: f.eval_f(S), 2 * arr),
    }
    out = {}
    for name, (fn, nbytes) in cases.items():
        out[f"{name}.direct_us_per_call"] = _per_call_us(fn)
        out[f"{name}.bytes_per_call"] = nbytes
    return out
