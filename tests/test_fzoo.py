import math

import numpy as np
import pytest

from conflow.fzoo import (
    FSpec,
    Growth,
    Interval,
    classical,
    expdecay,
    from_config,
    from_table,
    homogeneity_check,
    power_law,
    reciprocal,
)

from reference import check_decreasing, normalize_at_zero, shift

ALL_BUILTINS = [classical(), power_law(1.5), power_law(1.0),
                reciprocal(0.0), reciprocal(3.0, 2.0), expdecay(1.0)]


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
def test_derivatives_consistent(f):
    # centered differences of f match f' (and f' matches f'') at O(eps^2)
    lo = f.domain.lo if math.isfinite(f.domain.lo) else -2.0
    xs = np.linspace(max(lo, -2.0) + 0.5, max(lo, -2.0) + 2.5, 11)
    for eps in (1e-4,):
        fd1 = (f.eval_f(xs + eps) - f.eval_f(xs - eps)) / (2 * eps)
        fd2 = (f.eval_fp(xs + eps) - f.eval_fp(xs - eps)) / (2 * eps)
        scale = np.abs(f.eval_fp(xs)).max() + 1.0
        assert np.abs(fd1 - f.eval_fp(xs)).max() < 1e-6 * scale
        assert np.abs(fd2 - f.eval_fpp(xs)).max() < 1e-5 * scale


def test_check_decreasing_classical():
    assert check_decreasing(classical(), -2.0, 2.0) == 1.0


def test_check_decreasing_expdecay():
    # analytic min of -f' = alpha*exp(-alpha*x) on [0, 2] sits at x = 2
    margin = check_decreasing(expdecay(1.0), 0.0, 2.0)
    assert abs(margin - np.exp(-2.0)) < 1e-12


def test_check_decreasing_domain_guard():
    with pytest.raises(ValueError, match="domain"):
        check_decreasing(power_law(1.5), -1.0, 1.0)
    # open endpoint at zero is outside the power-law domain
    with pytest.raises(ValueError, match="domain"):
        check_decreasing(power_law(1.5), 0.0, 1.0)


def test_increasing_candidate_flagged():
    # margin <= 0 for a non-decreasing candidate built without certification
    rogue = FSpec(
        name="rogue",
        eval_f=lambda x: np.asarray(x, dtype=float),
        eval_fp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        eval_fpp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    assert check_decreasing(rogue, -1.0, 1.0) <= 0.0


def test_table_rejects_increasing_data():
    with pytest.raises(ValueError, match="not strictly decreasing"):
        from_table([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("xs,fs,message", [
    ([0.0, 1.0], [1.0, 0.0], "at least 3 matching"),
    ([0.0, 2.0, 1.0], [2.0, 1.0, 0.0], "strictly increasing"),
], ids=["two_pairs", "x_not_increasing"])
def test_table_rejects_malformed_pairs(xs, fs, message):
    with pytest.raises(ValueError, match=message):
        from_table(xs, fs)


@pytest.mark.parametrize("xs,fs", [
    ([0.0, 1.0, 2.0], [0.0, -0.1, -10.0]),
    ([0.0, 1.0, 2.0, 3.0], [10.0, 9.9, 0.0, -0.1]),
], ids=["flat_at_the_low_end", "flat_at_both_ends"])
def test_table_rejects_a_zero_slope_at_a_closed_end(xs, fs):
    # the interpolant's end slope is 0 there, where its domain is closed:
    # the flow there would not be parabolic
    with pytest.raises(ValueError, match=r"derivative is >= 0 somewhere on \[0, "):
        from_table(xs, fs)


@pytest.mark.parametrize("mu,nu,kappa,message", [
    (-1.0, 0.0, 1.0, "nonnegative"),
    (1.0, -1.0, 1.0, "nonnegative"),
    (1.0, 0.0, 0.5, "kappa must be >= 1"),
], ids=["mu", "nu", "kappa"])
def test_growth_certificate_rejects_bad_constants(mu, nu, kappa, message):
    with pytest.raises(ValueError, match=message):
        Growth(mu, nu, kappa)


def test_homogeneity_check_needs_a_triple_inside_the_domain():
    # every sample triple has positive entries: a negative domain holds none
    f = from_table([-3.0, -2.0, -1.0], [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="no admissible homogeneity triples"):
        homogeneity_check(f, 1.0)


def test_table_accepts_decreasing_and_differentiates():
    xs = np.linspace(-2.0, 2.0, 25)
    f = from_table(xs, -xs**3 - 3.0 * xs, seed=1)
    assert f.domain.contains(0.0)
    assert float(f.eval_fp(0.5)) < 0.0
    margin = check_decreasing(f, -1.5, 1.5)
    assert margin > 0.0


@pytest.mark.parametrize("f,alpha", [
    (classical(), 1.0),
    (power_law(1.5), 1.5),
    (reciprocal(0.0), -1.0),
])
def test_homogeneity_of_homogeneous_builtins(f, alpha):
    assert homogeneity_check(f, alpha) < 1e-12


def test_expdecay_not_homogeneous():
    f = expdecay(1.0)
    for alpha in (-1.0, 0.3, 0.45, 0.5, 1.0, 1.5):
        assert homogeneity_check(f, alpha) > 0.1


def test_shift_preserves_derivatives():
    f = classical()
    g = shift(f, 5.0)
    xs = np.linspace(-3, 3, 7)
    assert np.array_equal(g.eval_fp(xs), f.eval_fp(xs))
    assert np.abs(g.eval_f(xs) - (f.eval_f(xs) + 5.0)).max() == 0.0
    assert g.alpha_homogeneous == f.alpha_homogeneous


def test_normalize_at_zero():
    g = normalize_at_zero(expdecay(1.0))
    assert abs(float(g.eval_f(0.0))) == 0.0
    shifted = shift(classical(), 5.0)
    back = normalize_at_zero(shifted)
    assert abs(float(back.eval_f(2.0)) + 2.0) < 1e-15


def test_normalize_requires_zero_in_domain():
    with pytest.raises(ValueError, match="0 not in"):
        normalize_at_zero(reciprocal(0.0))


@pytest.mark.parametrize("f", [f for f in ALL_BUILTINS if f.growth is not None],
                         ids=lambda f: f.name)
def test_growth_certificate_holds(f):
    lo = f.domain.lo
    xs = np.linspace(0.0 if f.domain.contains(0.0) else lo + 1e-9, 50.0, 2000)
    bound = f.growth.mu * xs**f.growth.kappa + f.growth.nu
    assert np.all(-f.eval_f(xs) <= bound + 1e-12)


def test_bounded_below_metadata():
    assert expdecay(1.0).bounded_below == 0.0
    assert reciprocal(2.0).bounded_below == 0.0
    assert classical().bounded_below is None
    xs = np.linspace(0.0, 60.0, 500)
    assert float(expdecay(1.0).eval_f(xs).min()) >= 0.0


def test_registry_rejects_bad_parameters():
    with pytest.raises(ValueError):
        power_law(0.5)
    with pytest.raises(ValueError):
        reciprocal(1.0, exponent=-1.0)
    with pytest.raises(ValueError):
        expdecay(0.0)


def test_from_config_and_spec_string():
    assert from_config({"name": "power", "kappa": 1.5}).name == "power:1.5"
    assert from_config({"name": "classical"}).name == "classical"
    assert from_config({"name": "expdecay", "alpha": 2.0}).name == "expdecay:2"
    assert reciprocal(3.0).name == "reciprocal:3"
    with pytest.raises(ValueError, match="unknown response function"):
        from_config({"name": "bogus"})


def test_from_config_table_with_seed():
    xs = [0.0, 1.0, 2.0, 3.0]
    f = from_config({"name": "table", "x": xs, "f": [3.0, 2.0, 1.5, 0.3]}, seed=42)
    assert f.domain == Interval(0.0, 3.0)


def test_interval_containment():
    iv = Interval(0.0, math.inf, closed_lo=False)
    assert not iv.contains(0.0)
    assert iv.contains(1e-9)
    assert Interval(-1.0, 1.0).contains_interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


DOMAINS = ([f.domain for f in ALL_BUILTINS]
           + [from_config({"name": "table", "x": [0, 1, 2], "f": [3, 2, 1]}).domain]
           + [Interval(-1.0, 2.0, closed_lo=lo, closed_hi=hi)
              for lo in (True, False) for hi in (True, False)])


@pytest.mark.parametrize("iv", DOMAINS, ids=str)
def test_interval_answers_an_array_as_each_element(iv):
    # at, inside and outside each finite endpoint, far out, +-inf and NaN
    ends = [e for e in (iv.lo, iv.hi) if math.isfinite(e)]
    xs = np.array([e + d for e in ends for d in (-0.5, 0.0, 0.5)]
                  + [np.nextafter(e, s) for e in ends for s in (-np.inf, np.inf)]
                  + [0.0, -1e300, 1e300, -np.inf, np.inf, np.nan])
    assert iv.contains(xs).tolist() == [iv.contains(x) for x in xs.tolist()]
    lo, hi = (a.ravel() for a in np.meshgrid(xs, xs))
    assert (iv.contains_interval(lo, hi).tolist()
            == [iv.contains_interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())])


def test_power_one_matches_classical_on_positives():
    f1, fk = classical(), power_law(1.0)
    xs = np.linspace(0.0, 10.0, 50)
    assert np.abs(f1.eval_f(xs) - fk.eval_f(xs)).max() == 0.0
