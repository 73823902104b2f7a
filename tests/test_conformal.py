import math

import numpy as np
import pytest

import conflow
from conflow.conformal import (
    Background,
    ConformalState,
    Constants,
    FDomainError,
    Records,
    conformal_laplacian_values,
    require_f_domain,
    scalar_curvature_values,
)
from conflow.grid import (
    PositivityError,
    ScalarField,
    field_from_spec,
    grad_inner_values,
    laplacian0_values,
)

from conftest import TWO_PI, grid1d, smooth_field
from reference import (
    average_f,
    einstein_hilbert,
    integrate_g,
    metric_laplacian,
    shift,
    sigma,
    volume,
)


def dense_laplacian_matrix(grid):
    """Independent dense assembly of the periodic three-point stencil."""
    N = grid.points[0]
    h2 = grid.spacing[0] ** 2
    D = np.zeros((N, N))
    for i in range(N):
        D[i, i] = -2.0 / h2
        D[i, (i - 1) % N] = 1.0 / h2
        D[i, (i + 1) % N] = 1.0 / h2
    return D


def test_constants():
    c3 = Constants.for_dimension(3)
    assert (c3.beta, c3.c_n) == (5.0, 8.0)
    c4 = Constants.for_dimension(4)
    assert (c4.beta, c4.c_n) == (3.0, 6.0)
    with pytest.raises(ValueError):
        Constants.for_dimension(2)


def test_case_tags(g128):
    assert Background(field_from_spec(g128, "constant:-1")).case_tag == "negative"
    assert Background(field_from_spec(g128, "constant:0")).case_tag == "flat"
    assert Background(field_from_spec(g128, "constant:2")).case_tag == "positive"
    mixed = Background(field_from_spec(g128, "sinusoidal:0.0,1.0,0"))
    assert mixed.case_tag == "mixed"


def test_state_requires_positive_u(g128):
    with pytest.raises(PositivityError):
        ConformalState(ScalarField(g128, np.linspace(-0.5, 1.0, 128)))


def test_conformal_laplacian_constant(g128):
    bg = Background(field_from_spec(g128, "constant:-1.5"))
    out = conformal_laplacian_values(bg, ScalarField.constant(g128, 1.0).values)
    assert np.abs(out + 1.5).max() < 1e-14


def test_conformal_laplacian_flat_cos(g256):
    # L(1 + 0.1 cos) = -6 * lap(0.1 cos) = 0.6 cos up to O(h^2)
    bg = Background(field_from_spec(g256, "constant:0"))
    x = g256.axis_coordinates(0)
    out = conformal_laplacian_values(bg, ScalarField(g256, 1.0 + 0.1 * np.cos(x)).values)
    assert np.abs(out - 0.6 * np.cos(x)).max() < 1e-4


def test_conformal_laplacian_linear(g128):
    bg = Background(field_from_spec(g128, "sinusoidal:-1.0,0.3,0"))
    rng = np.random.default_rng(0)
    u = ScalarField(g128, rng.normal(size=g128.shape))
    v = ScalarField(g128, rng.normal(size=g128.shape))
    a, b = 1.7, -0.4
    lhs = conformal_laplacian_values(bg, ScalarField(g128, a * u.values + b * v.values).values)
    rhs = (a * conformal_laplacian_values(bg, u.values)
           + b * conformal_laplacian_values(bg, v.values))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_scalar_curvature_identity_factor(g128):
    bg = Background(field_from_spec(g128, "constant:-2.0"))
    S = scalar_curvature_values(bg, ScalarField.constant(g128, 1.0).values)
    assert np.abs(S + 2.0).max() == 0.0


def test_scalar_curvature_constant_scaling(g128):
    # u = c: S = c^(-beta) * s0 * c = s0 * c^(-2) for n = 4
    bg = Background(field_from_spec(g128, "constant:3.0"))
    c = 1.7
    S = scalar_curvature_values(bg, ScalarField.constant(g128, c).values)
    assert np.abs(S - 3.0 * c**-2).max() < 1e-14


def test_scalar_curvature_dense_oracle(g256):
    bg = Background(field_from_spec(g256, "constant:0"))
    x = g256.axis_coordinates(0)
    u = 1.0 + 0.3 * np.cos(x)
    S = scalar_curvature_values(bg, ScalarField(g256, u).values)
    D = dense_laplacian_matrix(g256)
    S_oracle = (-6.0 * (D @ u)) / u**3
    assert np.abs(S - S_oracle).max() < 1e-10


def test_metric_laplacian_reduces_to_flat(g128):
    bg = Background(field_from_spec(g128, "sinusoidal:-1.0,0.2,0"))
    rng = np.random.default_rng(1)
    xi = ScalarField(g128, rng.normal(size=g128.shape))
    one = ConformalState(ScalarField.constant(g128, 1.0))
    assert np.array_equal(metric_laplacian(bg, one, xi).values, laplacian0_values(g128, xi.values))


def test_metric_laplacian_constant_xi(g128):
    bg = Background(field_from_spec(g128, "constant:0"))
    rng = np.random.default_rng(2)
    st = ConformalState(ScalarField(g128, 1.0 + 0.2 * smooth_field(g128, rng).values))
    out = metric_laplacian(bg, st, ScalarField.constant(g128, 9.0))
    assert np.abs(out.values).max() == 0.0


def test_metric_laplacian_formula_oracle(g128):
    # recompute the defining formula with the public stencils
    bg = Background(field_from_spec(g128, "constant:0"))
    x = g128.axis_coordinates(0)
    u = ScalarField(g128, 1.0 + 0.2 * np.cos(x))
    xi = ScalarField(g128, np.sin(x))
    out = metric_laplacian(bg, ConformalState(u), xi).values
    oracle = u.values ** -2.0 * (laplacian0_values(g128, xi.values)
                                 + 2.0 / u.values * grad_inner_values(g128, u.values, xi.values))
    assert np.abs(out - oracle).max() < 1e-12


def test_volume_values(g128):
    assert volume(ConformalState(ScalarField.constant(g128, 1.0))) == 1.0
    c = 1.21
    assert abs(volume(ConformalState(ScalarField.constant(g128, c))) - c**4) < 1e-12
    rng = np.random.default_rng(3)
    u = 1.0 + 0.5 * np.abs(smooth_field(g128, rng).values)
    got = volume(ConformalState(ScalarField(g128, u)))
    assert abs(got - np.mean(u**4)) < 1e-12


def test_average_f_constant_state(g128):
    bg = Background(field_from_spec(g128, "constant:-1.5"))
    st = ConformalState(ScalarField.constant(g128, 1.0))
    f = conflow.expdecay(1.0)
    assert abs(average_f(bg, st, f) - np.exp(1.5)) < 1e-12


def test_average_f_shift_linearity(g128):
    bg = Background(field_from_spec(g128, "sinusoidal:-1.5,0.4,0"))
    rng = np.random.default_rng(4)
    st = ConformalState(ScalarField(g128, 1.0 + 0.2 * smooth_field(g128, rng).values))
    f = conflow.classical()
    a1 = average_f(bg, st, f)
    a2 = average_f(bg, st, shift(f, 5.0))
    assert abs((a2 - a1) - 5.0) < 1e-12


def test_average_f_dense_oracle(g256):
    bg = Background(field_from_spec(g256, "constant:0"))
    x = g256.axis_coordinates(0)
    u = 1.0 + 0.3 * np.cos(x)
    st = ConformalState(ScalarField(g256, u))
    got = average_f(bg, st, conflow.classical())
    D = dense_laplacian_matrix(g256)
    S_oracle = (-6.0 * (D @ u)) / u**3
    w = u**4
    oracle = np.sum(-S_oracle * w) / np.sum(w)
    assert abs(got - oracle) < 1e-12


def test_average_f_bracketing(g128):
    # f(S_max) <= A <= f(S_min) for every registered decreasing f
    bg = Background(field_from_spec(g128, "sinusoidal:3.0,0.5,0"))
    rng = np.random.default_rng(5)
    fs = [conflow.classical(), conflow.power_law(1.5), conflow.expdecay(0.7),
          conflow.reciprocal(0.0)]
    for trial in range(5):
        # small perturbations keep S positive, inside every domain above
        st = ConformalState(ScalarField(g128, 1.0 + 0.02 * smooth_field(g128, rng).values))
        S = scalar_curvature_values(bg, st.u.values)
        for f in fs:
            A = average_f(bg, st, f)
            assert float(f.eval_f(S.max())) - 1e-12 <= A <= float(f.eval_f(S.min())) + 1e-12


def test_average_f_domain_violation(g128):
    bg = Background(field_from_spec(g128, "constant:-1.0"))
    st = ConformalState(ScalarField.constant(g128, 1.0))
    with pytest.raises(FDomainError, match="f-domain violation"):
        average_f(bg, st, conflow.power_law(1.5))


def test_sigma_and_einstein_hilbert_constant(g128):
    bg = Background(field_from_spec(g128, "constant:-1.5"))
    st = ConformalState(ScalarField.constant(g128, 1.0))
    assert abs(sigma(bg, st) + 1.5) < 1e-14
    assert abs(einstein_hilbert(bg, st) + 1.5) < 1e-14


def test_sigma_dirichlet_form_crosscheck(g128):
    # integral of S dVol equals the background mean of u * L(u), as u^beta S = L(u)
    bg = Background(field_from_spec(g128, "constant:0"))
    x = g128.axis_coordinates(0)
    u = ScalarField(g128, 1.0 + 0.3 * np.cos(x))
    st = ConformalState(u)
    direct = sigma(bg, st) * volume(st)
    via_L = float((u.values * conformal_laplacian_values(bg, u.values)).mean())
    assert abs(direct - via_L) < 1e-10


def test_einstein_hilbert_scale_invariant(g128):
    bg = Background(field_from_spec(g128, "sinusoidal:1.0,0.5,0"))
    x = g128.axis_coordinates(0)
    u = ScalarField(g128, 1.0 + 0.25 * np.sin(x))
    e1 = einstein_hilbert(bg, ConformalState(u))
    e2 = einstein_hilbert(bg, ConformalState(ScalarField(g128, 2.3 * u.values)))
    assert abs(e1 - e2) < 1e-10


def test_flat_integral_identity_state_level(g128):
    # integral of u^beta S dVol0 vanishes on a flat background
    bg = Background(field_from_spec(g128, "constant:0"))
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = ScalarField(g128, 1.0 + 0.4 * smooth_field(g128, rng).values)
        S = scalar_curvature_values(bg, u.values)
        val = float((u.values**3 * S).mean())
        assert abs(val) < 1e-10


def test_flat_sign_dichotomy(g128):
    bg = Background(field_from_spec(g128, "constant:0"))
    rng = np.random.default_rng(7)
    u = ScalarField(g128, 1.0 + 0.4 * smooth_field(g128, rng).values)
    S = scalar_curvature_values(bg, u.values)
    assert S.min() < 0.0 < S.max()


def test_background_takes_n_from_its_grid():
    for n in (3, 5):
        bg = Background(ScalarField.constant(grid1d(n=n), 1.0))
        assert bg.n == bg.grid.ambient_n == n
        assert bg.constants == Constants.for_dimension(n)


@pytest.mark.parametrize("smin,smax,error", [
    (-1.0, 2.0, None),
    (-4.0, 2.0, FDomainError),
    (-4.0, math.inf, FloatingPointError),
    (math.nan, math.nan, FloatingPointError),
    (-math.inf, 0.0, FloatingPointError),
])
def test_require_f_domain_is_the_one_range_verdict(smin, smax, error):
    # a non-finite range is a blowup, not a domain violation, even when it
    # also reaches outside the domain (-3, inf) of f
    f = conflow.reciprocal(3.0)
    if error is None:
        assert require_f_domain(f, smin, smax) is None
    else:
        with pytest.raises(error, match=r"S range \["):
            require_f_domain(f, smin, smax)


@pytest.mark.parametrize("grid", [
    conflow.GridSpec(4, 1, (32,), (TWO_PI,)),
    conflow.GridSpec(5, 2, (16, 12), (TWO_PI, 1.5 * TWO_PI)),
], ids=["1d", "2d"])
def test_records_match_the_single_record_formulas(grid):
    # a stack of five states on a negative background; record 3 has a
    # curvature range reaching below -3, outside the domain (-3, inf) of f
    f = conflow.reciprocal(3.0)
    bg = Background(field_from_spec(grid, "sinusoidal:-1.5,0.4,0"))
    x = grid.coordinate_mesh()[0]
    amps = [0.0, 0.02, 0.05, 0.5, 0.1]
    U = np.stack([np.broadcast_to(1.0 + a * np.cos(x + a), grid.shape) for a in amps])
    rec = Records(bg, f, U)
    assert rec.in_domain.tolist() == [True, True, True, False, True]
    ok = rec.in_domain
    fin = Records(bg, f, U[ok])
    for j, k in enumerate(np.flatnonzero(ok)):
        state = ConformalState(ScalarField(grid, U[k]))
        S = scalar_curvature_values(bg, U[k])
        assert np.array_equal(rec.S[k], S)
        assert (rec.Smin[k], rec.Smax[k]) == (S.min(), S.max())
        assert rec.vol[k] == volume(state)
        assert rec.integral(rec.S)[k] == integrate_g(ScalarField(grid, S), state.u)
        assert fin.A[j] == average_f(bg, state, f)
    # the out-of-domain record is named by f(S) of the whole stack
    S3 = scalar_curvature_values(bg, U[3])
    assert S3.min() < -3.0
    with pytest.raises(FDomainError, match=f"S range \\[{S3.min():g}, {S3.max():g}\\]"):
        rec.phi


@pytest.mark.parametrize("shape", [(6, 7), (5, 4, 3), (4, 3, 2, 5)], ids=["1d", "2d", "3d"])
def test_record_reductions_are_numpys_bit_for_bit(shape):
    # stacks of 1-, 2- and 3-D records, with NaN and +-inf in some of them;
    # grid.node_mean, the means, is tested in test_grid
    rng = np.random.default_rng(len(shape))
    U = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = U.reshape(len(U), -1)
    flat[1, 2] = np.nan
    flat[2, 0] = np.inf
    flat[3, 1] = -np.inf
    flat[3, 3] = np.inf
    lo, hi = Records.extremes(U)
    for got, want in ((lo, flat.min(axis=1)), (hi, flat.max(axis=1))):
        assert got.tobytes() == want.tobytes()
