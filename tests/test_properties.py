"""Property tests: small random configs through the command line.

Each drawn config (N 8-64 per axis, n 3-6, one or two active axes, every
registry f, random sinusoidal background and u0, fixed or adaptive dt,
Euler or RK4, normalized or not) is run by ``cli.main(["run", ...])`` into
a temporary directory.  Whatever the config, the run ends in a documented
exit code with at most a one-line message, logs only finite states above
the positivity floor, ends with a documented termination tag, and a rerun
writes byte-identical ``series.csv`` and ``summary.json``.  The examples are
derandomized, so the suite draws the same configs on every machine.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conflow import cli, flow

TERMINATIONS = {"time_reached", "stationary", "blowup", "positivity_lost",
                "f_domain_violation", "step_budget"}
# keeps every example short: an adaptive run whose dt collapses ends
# `step_budget`, one of the documented tags, instead of running for minutes
STEP_BUDGET = 400


def _sinusoid(axes: int, mean, amp) -> st.SearchStrategy[str]:
    return st.builds(
        lambda m, a, axis, phase: f"sinusoidal:{m!r},{a!r},{axis},{phase!r}",
        mean, amp, st.integers(0, axes - 1), st.floats(-3.0, 3.0))


@st.composite
def _table(draw) -> dict:
    k = draw(st.integers(3, 5))
    x0 = draw(st.floats(-8.0, -1.0))
    xs = np.cumsum([x0] + draw(st.lists(st.floats(0.5, 4.0), min_size=k - 1, max_size=k - 1)))
    fs = np.cumsum([draw(st.floats(-5.0, 5.0))]
                   + [-d for d in draw(st.lists(st.floats(0.1, 3.0), min_size=k - 1,
                                                max_size=k - 1))])
    return {"name": "table", "x": xs.tolist(), "f": fs.tolist()}


RESPONSE_FUNCTIONS = st.one_of(
    st.just({"name": "classical"}),
    st.builds(lambda k: {"name": "power", "kappa": k}, st.floats(1.0, 3.0)),
    st.builds(lambda a, b: {"name": "reciprocal", "alpha": a, "exponent": b},
              st.floats(0.0, 4.0), st.floats(0.25, 3.0)),
    st.builds(lambda a: {"name": "expdecay", "alpha": a}, st.floats(0.1, 3.0)),
    _table(),
)


@st.composite
def configs(draw) -> dict:
    dims = draw(st.integers(1, 2))
    normalized = draw(st.booleans())
    dt = draw(st.one_of(
        st.builds(lambda dt: {"policy": "fixed", "dt": dt}, st.floats(1e-4, 1e-2)),
        st.builds(lambda s: {"policy": "adaptive", "safety": s}, st.floats(0.1, 1.0)),
    ))
    return {
        "grid": {"ambient_n": draw(st.integers(3, 6)), "active_dims": dims,
                 "points": draw(st.lists(st.integers(8, 64), min_size=dims, max_size=dims)),
                 "periods": draw(st.lists(st.floats(1.0, 10.0), min_size=dims,
                                          max_size=dims))},
        "background": draw(_sinusoid(dims, st.floats(-3.0, 3.0), st.floats(0.0, 2.0))),
        # amplitudes up to 1.2x the mean: some u0 are not positive
        "u0": draw(_sinusoid(dims, st.floats(0.2, 2.0), st.floats(0.0, 1.2))),
        "f": draw(RESPONSE_FUNCTIONS),
        "time": {"T_final": draw(st.floats(0.005, 0.1)), "dt": dt,
                 "scheme": draw(st.sampled_from(["euler", "rk4"])),
                 "normalized": normalized, "renormalize_volume": normalized,
                 "log_cadence": draw(st.integers(1, 10))},
    }


def _run(cfg_path: Path, out: Path, seed: int) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``conflow --seed <seed> run``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["--seed", str(seed), "run", str(cfg_path), "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


# a numpy warning would be one more line on stderr, so it fails the example
@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), seed=st.integers(0, 2 ** 16))
def test_random_configs_end_in_a_documented_way(cfg, seed):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(flow, "_MAX_STEPS", STEP_BUDGET):
        tmp = Path(tmp)
        cfg_path = tmp / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = _run(cfg_path, tmp / "a", seed)
        assert code in (0, 1, 2)
        if code == 1:
            event("config error")
            # a config error: one line, before any run
            assert err.startswith("config error:") and len(err.splitlines()) == 1, err
            assert not (tmp / "a").exists()
            return
        assert err == "" and len(out.splitlines()) == 1, (out, err)
        summary = json.loads((tmp / "a" / "summary.json").read_text())
        assert summary["termination"] in TERMINATIONS
        event(summary["termination"])
        assert code == (0 if summary["termination"] in ("time_reached", "stationary") else 2)
        with np.load(tmp / "a" / "trajectory.npz") as data:
            snaps = data["snapshots"]
        assert len(snaps) == summary["n_records"] >= 1
        assert np.isfinite(snaps).all() and snaps.min() > flow.POSITIVITY_FLOOR

        assert _run(cfg_path, tmp / "b", seed) == (code, out.replace(str(tmp / "a"),
                                                                     str(tmp / "b")), err)
        for name in ("series.csv", "summary.json"):
            assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes(), name
