import numpy as np
import pytest

from conflow.grid import (
    GridMismatchError,
    GridSpec,
    PositivityError,
    ScalarField,
    field_from_spec,
    grad_inner_values,
    laplacian0_values,
    read_field,
    node_mean,
    record_blocks,
    write_field,
)

from conftest import TWO_PI, grid1d
from reference import integrate_g, lp_norm_g


def cos_field(grid, k=1):
    x = grid.axis_coordinates(0)
    return ScalarField(grid, np.cos(k * x))


def sin_field(grid, k=1):
    x = grid.axis_coordinates(0)
    return ScalarField(grid, np.sin(k * x))


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def test_laplacian_of_constant_is_zero(g128):
    out = laplacian0_values(g128, ScalarField.constant(g128, 3.7).values)
    assert np.abs(out).max() == 0.0


def test_laplacian_cos_analytic(g256):
    # oracle: d^2/dx^2 cos = -cos
    out = laplacian0_values(g256, cos_field(g256).values)
    assert np.abs(out + np.cos(g256.axis_coordinates(0))).max() < 1e-3


def test_laplacian_richardson_order():
    errs = []
    for N in (128, 256):
        g = grid1d(N=N)
        out = laplacian0_values(g, cos_field(g).values)
        errs.append(np.abs(out + np.cos(g.axis_coordinates(0))).max())
    ratio = errs[0] / errs[1]
    assert 3.8 < ratio < 4.2


def test_laplacian_mean_is_zero(g128):
    rng = np.random.default_rng(0)
    f = ScalarField(g128, rng.normal(size=g128.shape))
    assert abs(laplacian0_values(g128, f.values).mean()) < 1e-12


def test_laplacian_max_principle_exact():
    # at a grid maximum the three-point stencil is nonpositive by structure
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = grid1d(N=64)
        f = ScalarField(g, rng.normal(size=g.shape))
        lap = laplacian0_values(g, f.values)
        assert lap[np.argmax(f.values)] <= 0.0
        assert lap[np.argmin(f.values)] >= 0.0


# ---------------------------------------------------------------------------
# Gradient inner product
# ---------------------------------------------------------------------------

def test_grad_inner_constant_left(g128):
    rng = np.random.default_rng(2)
    b = ScalarField(g128, rng.normal(size=g128.shape))
    out = grad_inner_values(g128, ScalarField.constant(g128, 4.0).values, b.values)
    assert np.abs(out).max() == 0.0


def test_grad_inner_sin_analytic(g256):
    # oracle: (d/dx sin)^2 = cos^2
    out = grad_inner_values(g256, sin_field(g256).values, sin_field(g256).values)
    x = g256.axis_coordinates(0)
    assert np.abs(out - np.cos(x) ** 2).max() < 1e-3


def test_grad_inner_order():
    errs = []
    for N in (128, 256):
        g = grid1d(N=N)
        out = grad_inner_values(g, sin_field(g).values, sin_field(g).values)
        errs.append(np.abs(out - np.cos(g.axis_coordinates(0)) ** 2).max())
    assert 3.8 < errs[0] / errs[1] < 4.2


def test_grad_inner_symmetric(g128):
    rng = np.random.default_rng(3)
    a = ScalarField(g128, rng.normal(size=g128.shape))
    b = ScalarField(g128, rng.normal(size=g128.shape))
    ab = grad_inner_values(g128, a.values, b.values)
    ba = grad_inner_values(g128, b.values, a.values)
    assert np.array_equal(ab, ba)


@pytest.mark.parametrize("seed", range(5))
def test_summation_by_parts_exact(seed):
    # mean(a * lap b) + mean(grad_inner(a, b)) vanishes to rounding even for
    # rough (white noise) fields
    g = grid1d(N=128)
    rng = np.random.default_rng(seed)
    a = ScalarField(g, rng.normal(size=g.shape))
    b = ScalarField(g, rng.normal(size=g.shape))
    resid = float((a.values * laplacian0_values(g, b.values)).mean()) \
        + float(grad_inner_values(g, a.values, b.values).mean())
    assert abs(resid) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_self_adjoint(seed):
    g = grid1d(N=128)
    rng = np.random.default_rng(100 + seed)
    a = ScalarField(g, rng.normal(size=g.shape))
    b = ScalarField(g, rng.normal(size=g.shape))
    lhs = float((laplacian0_values(g, a.values) * b.values).mean())
    rhs = float((a.values * laplacian0_values(g, b.values)).mean())
    scale = np.abs(a.values).max() * np.abs(b.values).max()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale) * 1e3  # rounding of 1/h^2 sums


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def test_integrate0_normalized(g128):
    assert ScalarField.constant(g128, 1.0).values.mean() == 1.0


def test_integrate0_sin_vanishes(g128):
    assert abs(sin_field(g128).values.mean()) < 1e-12


def test_integrate0_sin_squared(g256):
    # oracle: mean of sin^2 over a full period is 1/2
    f = ScalarField(g256, np.sin(g256.axis_coordinates(0)) ** 2)
    assert abs(f.values.mean() - 0.5) < 1e-10


def test_integrate_g_unit(g128):
    one = ScalarField.constant(g128, 1.0)
    assert integrate_g(one, one) == 1.0


def test_integrate_g_constant_factor(g128):
    # n = 4 so the volume density is u^4
    one = ScalarField.constant(g128, 1.0)
    u = ScalarField.constant(g128, 1.3)
    assert abs(integrate_g(one, u) - 1.3**4) < 1e-12


def test_integrate_g_rejects_nonpositive(g128):
    one = ScalarField.constant(g128, 1.0)
    u = ScalarField(g128, np.linspace(-0.1, 1.0, 128))
    with pytest.raises(PositivityError, match="positive cone"):
        integrate_g(one, u)


def test_lp_norm_constant(g128):
    u = ScalarField.constant(g128, 1.0)
    f = ScalarField.constant(g128, -2.5)
    for p in (1.0, 2.0, 3.5):
        assert abs(lp_norm_g(f, p, u) - 2.5) < 1e-12


def test_lp_norm_sin(g256):
    # oracle: (integral of sin^2 / 2pi)^(1/2) = sqrt(1/2)
    u = ScalarField.constant(g256, 1.0)
    assert abs(lp_norm_g(sin_field(g256), 2.0, u) - np.sqrt(0.5)) < 1e-10


def test_lp_norm_rejects_small_p(g128):
    u = ScalarField.constant(g128, 1.0)
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_norm_g(u, 0.5, u)


def test_field_min_max(g128):
    x = g128.axis_coordinates(0)
    f = ScalarField(g128, -np.abs(np.sin(x)))
    assert f.max() == 0.0  # attained at the node x = 0
    assert f.min() < -0.99


# ---------------------------------------------------------------------------
# 2D
# ---------------------------------------------------------------------------

def test_laplacian_2d():
    g = GridSpec(4, 2, (64, 64), (TWO_PI, TWO_PI))
    X, Y = np.meshgrid(g.axis_coordinates(0), g.axis_coordinates(1), indexing="ij")
    f = ScalarField(g, np.cos(X) * np.cos(Y))
    out = laplacian0_values(g, f.values)
    assert np.abs(out + 2.0 * f.values).max() < 1e-2
    assert ScalarField.constant(g, 1.0).values.mean() == 1.0


def test_summation_by_parts_2d():
    g = GridSpec(5, 2, (32, 32), (1.0, 2.0))
    rng = np.random.default_rng(11)
    a = ScalarField(g, rng.normal(size=g.shape))
    b = ScalarField(g, rng.normal(size=g.shape))
    resid = float((a.values * laplacian0_values(g, b.values)).mean()) \
        + float(grad_inner_values(g, a.values, b.values).mean())
    assert abs(resid) < 1e-9  # 1/h^2 here is ~1000, rounding scales with it


def _roll_laplacian(grid, v):
    out = np.zeros_like(v)
    for ax, h in enumerate(grid.spacing):
        out += (np.roll(v, -1, axis=ax) - 2.0 * v + np.roll(v, 1, axis=ax)) / (h * h)
    return out


def _roll_grad_inner(grid, a, b):
    out = np.zeros_like(a)
    for ax, h in enumerate(grid.spacing):
        dpa = (np.roll(a, -1, axis=ax) - a) / h
        dpb = (np.roll(b, -1, axis=ax) - b) / h
        out += 0.5 * (dpa * dpb + np.roll(dpa, 1, axis=ax) * np.roll(dpb, 1, axis=ax))
    return out


@pytest.mark.parametrize("grid", [
    GridSpec(4, 1, (128,), (TWO_PI,)),
    GridSpec(4, 1, (9,), (1.3,)),
    GridSpec(5, 2, (16, 24), (1.0, 2.7)),
    GridSpec(5, 3, (8, 10, 12), (1.0, 2.0, 3.0)),
])
def test_stencils_match_roll_reference_bitwise(grid):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.normal(size=grid.shape), rng.normal(size=grid.shape)
        assert np.array_equal(laplacian0_values(grid, a), _roll_laplacian(grid, a))
        assert np.array_equal(grad_inner_values(grid, a, b), _roll_grad_inner(grid, a, b))


BATCH_GRIDS = [
    GridSpec(4, 1, (128,), (TWO_PI,)),
    GridSpec(4, 1, (9,), (1.3,)),
    GridSpec(5, 2, (16, 24), (1.0, 2.7)),
    GridSpec(5, 3, (8, 10, 12), (1.0, 2.0, 3.0)),
]


@pytest.mark.parametrize("grid", BATCH_GRIDS)
def test_stencils_on_record_stacks_match_per_record_bitwise(grid):
    from conflow.conformal import Background, scalar_curvature_values

    rng = np.random.default_rng(11)
    K = 7
    a = rng.lognormal(sigma=0.5, size=(K, *grid.shape))
    b = rng.normal(size=(K, *grid.shape))
    bg = Background(ScalarField(grid, rng.normal(size=grid.shape)))
    lap = laplacian0_values(grid, a)
    gi = grad_inner_values(grid, a, b)
    S = scalar_curvature_values(bg, a)
    for k in range(K):
        assert np.array_equal(lap[k], laplacian0_values(grid, a[k]))
        assert np.array_equal(gi[k], grad_inner_values(grid, a[k], b[k]))
        assert np.array_equal(S[k], scalar_curvature_values(bg, a[k]))


@pytest.mark.parametrize("grid", [*BATCH_GRIDS, GridSpec(4, 1, (1000,), (TWO_PI,)),
                                  GridSpec(4, 2, (64, 64), (TWO_PI, TWO_PI))],
                         ids=["128", "9", "16x24", "8x10x12", "1000", "64x64"])
@np.errstate(invalid="ignore")  # inf - inf in the means
def test_node_mean_is_numpys_mean_bit_for_bit(grid):
    # one field gives v.mean(), a (K, *grid.shape) stack each v[k].mean()
    rng = np.random.default_rng(3)
    for v in rng.lognormal(sigma=2.0, size=(20, *grid.shape)):
        assert node_mean(grid, v) == v.mean()
    # signed values over seven decades, with NaN and +-inf in some records
    shape = (6, *grid.shape)
    U = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = U.reshape(len(U), -1)
    flat[1, 2] = np.nan
    flat[2, 0] = np.inf
    flat[3, 1] = -np.inf
    flat[3, 3] = np.inf
    means = node_mean(grid, U)
    assert means.shape == (6,)
    for want in (flat.mean(axis=1), np.array([u.mean() for u in U]),
                 np.array([node_mean(grid, u) for u in U])):
        assert means.tobytes() == want.tobytes()


def test_neighbour_tables_are_built_once_per_grid_and_read_only():
    grid = GridSpec(5, 2, (16, 24), (1.0, 2.7))
    tables = grid.neighbours
    assert grid.neighbours is tables
    for (nxt, prv, h, h2), N, spacing in zip(tables, grid.points, grid.spacing):
        assert nxt.tolist() == [(i + 1) % N for i in range(N)]
        assert prv.tolist() == [(i - 1) % N for i in range(N)]
        assert (h, h2) == (spacing, spacing * spacing)
        assert not (nxt.flags.writeable or prv.flags.writeable)
    # the cache is no field: equality and hashing see the grid alone
    twin = GridSpec(5, 2, (16, 24), (1.0, 2.7))
    assert twin == grid and hash(twin) == hash(grid)


@pytest.mark.parametrize("points, records, size", [
    ((128,), 130, 64), ((9,), 5, 910), ((100, 100), 3, 1),
])
def test_record_blocks_cover_records_in_order(points, records, size):
    grid = GridSpec(4, len(points), points, (1.0,) * len(points))
    blocks = record_blocks(grid, records)
    assert all(sl.stop - sl.start == size for sl in blocks[:-1])
    assert [k for sl in blocks for k in range(sl.start, sl.stop)] == list(range(records))


# ---------------------------------------------------------------------------
# Validation and construction
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(ValueError, match="ambient dimension must be >= 3"):
        GridSpec(2, 1, (64,), (1.0,))
    with pytest.raises(ValueError):
        GridSpec(4, 1, (4,), (1.0,))
    with pytest.raises(ValueError):
        GridSpec(4, 4, (8, 8, 8, 8), (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec(3, 1, (64,), (-1.0,))


def test_field_rejects_nonfinite(g128):
    vals = np.ones(g128.shape)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g128, vals)


def test_field_shape_mismatch(g128):
    with pytest.raises(ValueError, match="shape"):
        ScalarField(g128, np.ones(64))


def test_field_values_readonly(g128):
    f = ScalarField.constant(g128, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_field_from_spec(g128):
    c = field_from_spec(g128, "constant:2.5")
    assert np.all(c.values == 2.5)
    s = field_from_spec(g128, "sinusoidal:-1.5,0.4,0")
    assert abs(s.min() - (-1.9)) < 1e-12 and abs(s.max() - (-1.1)) < 1e-12
    cosine = field_from_spec(g128, f"sinusoidal:1.0,0.3,0,{np.pi/2}")
    assert abs(cosine.values[0] - 1.3) < 1e-12
    with pytest.raises(ValueError, match="unknown field spec"):
        field_from_spec(g128, "weird:1")
    with pytest.raises(ValueError):
        field_from_spec(g128, "sinusoidal:1.0,0.3,5")


def test_snapshot_roundtrip(tmp_path, g128):
    rng = np.random.default_rng(4)
    f = ScalarField(g128, rng.normal(size=g128.shape))
    path = tmp_path / "snap.field"
    write_field(path, f)
    back = read_field(path, g128)
    assert np.array_equal(back.values, f.values)
    # header line is self-describing ASCII
    with open(path, "rb") as fh:
        first = fh.readline().decode()
    assert first.startswith("conflow-field v1 n=4 dims=1 shape=128")


def test_snapshot_grid_mismatch(tmp_path, g128):
    f = ScalarField.constant(g128, 1.0)
    path = tmp_path / "snap.field"
    write_field(path, f)
    with pytest.raises(GridMismatchError):
        read_field(path, grid1d(N=64))


def test_snapshot_standalone_read(tmp_path):
    g = GridSpec(5, 2, (16, 8), (1.0, 3.0))
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.normal(size=g.shape))
    path = tmp_path / "snap.field"
    write_field(path, f)
    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
