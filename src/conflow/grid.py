"""Periodic uniform lattices, discrete differential operators, and quadrature.

Conventions used throughout the package:

* ``laplacian0_values`` is the discrete *negative* Laplacian (nonpositive
  spectrum): on ``cos(x)`` it returns ``-cos(x)`` up to O(h^2).  Per active
  axis it is the standard second-order three-point stencil.
* ``grad_inner_values(grid, a, b)`` approximates the flat inner product of
  the gradients.  Per axis it averages the forward and backward difference
  products,

      0.5 * (D+a D+b + D-a D-b),

  which is second-order accurate, symmetric in (a, b), and makes the
  summation-by-parts identity

      mean(a * laplacian0_values(g, b)) + mean(grad_inner_values(g, a, b)) == 0

  hold exactly (to rounding) on a periodic grid.  The three-point Laplacian
  also satisfies the discrete maximum principle exactly: at a node where a
  field attains its grid maximum, ``laplacian0_values`` is <= 0.
* Both stencils act on the trailing ``active_dims`` axes, so a
  ``(K, *grid.shape)`` stack of records gives each record's result.
* Quadrature weights are normalized so that the background integral of 1 is
  1: a background integral is ``node_mean``, the plain mean of the nodal
  values of one field or of each record of a stack, the background volume
  is pinned to one and suppressed ambient axes contribute a factor one each.
  The volume-weighted mean is ``conformal.weighted_mean``, built on it.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "GridMismatchError",
    "PositivityError",
    "laplacian0_values",
    "grad_inner_values",
    "chain_exponent",
    "power",
    "record_blocks",
    "node_mean",
    "field_from_spec",
    "write_field",
    "read_field",
]


class GridMismatchError(ValueError):
    """A snapshot file whose grid is not the one expected."""


class PositivityError(ValueError):
    """A conformal factor left the positive cone."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice.

    ``ambient_n`` is the ambient dimension and only enters through the
    conformal exponents; fields vary along the ``active_dims`` leading axes
    and are constant along the suppressed ones, for which the quadrature is
    exact.
    """

    ambient_n: int
    active_dims: int
    points: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        if self.ambient_n < 3:
            raise ValueError(f"ambient dimension must be >= 3, got {self.ambient_n}")
        if self.active_dims not in (1, 2, 3):
            raise ValueError(f"active_dims must be 1, 2 or 3, got {self.active_dims}")
        if self.active_dims > self.ambient_n:
            raise ValueError("active_dims cannot exceed ambient_n")
        object.__setattr__(self, "points", tuple(int(p) for p in self.points))
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        if len(self.points) != self.active_dims or len(self.periods) != self.active_dims:
            raise ValueError("points and periods must have one entry per active axis")
        if any(p < 8 for p in self.points):
            raise ValueError("need at least 8 points per active axis")
        if not all(math.isfinite(L) and L > 0 for L in self.periods):
            raise ValueError(f"periods must be finite and positive, got {self.periods}")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.periods, self.points))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @functools.cached_property
    def node_count(self) -> int:
        return int(np.prod(self.points))

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Node coordinates along one active axis, starting at 0."""
        N = self.points[axis]
        return np.arange(N) * (self.periods[axis] / N)

    def coordinate_mesh(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays (one per active axis)."""
        axes = [self.axis_coordinates(k) for k in range(self.active_dims)]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    @functools.cached_property
    def neighbours(self) -> tuple:
        """Per active axis: (index of the next node, index of the previous
        node, h, h*h), so the stencils gather neighbours with ``take``; the
        index arrays are shared by every caller and therefore read-only."""
        axes = []
        for N, h in zip(self.points, self.spacing):
            idx = np.arange(N)
            nxt, prv = (idx + 1) % N, (idx - 1) % N
            nxt.setflags(write=False)
            prv.setflags(write=False)
            axes.append((nxt, prv, h, h * h))
        return tuple(axes)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real nodal values on a grid.  Immutable; all values finite."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def laplacian0_values(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """Three-point periodic Laplacian on raw values (negative spectrum).

    The stencil acts on the trailing ``active_dims`` axes, so a
    ``(K, *grid.shape)`` stack of records gives each record's Laplacian."""
    out = None
    for ax, (nxt, prv, _, h2) in enumerate(grid.neighbours, -grid.active_dims):
        term = (v.take(nxt, axis=ax) - 2.0 * v + v.take(prv, axis=ax)) / h2
        out = term if out is None else np.add(out, term, out=out)
    return out


def grad_inner_values(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetrized forward/backward gradient product on raw values; like
    ``laplacian0_values`` it acts on the trailing ``active_dims`` axes."""
    out = np.zeros_like(a)
    for ax, (nxt, prv, h, _) in enumerate(grid.neighbours, -grid.active_dims):
        dpa = (a.take(nxt, axis=ax) - a) / h
        dpb = (b.take(nxt, axis=ax) - b) / h
        out += 0.5 * (dpa * dpb + dpa.take(prv, axis=ax) * dpb.take(prv, axis=ax))
    return out


# Node budget of one block of records: batched checks hold about this many
# nodes per temporary, so a long trajectory never becomes one large stack.
BLOCK_NODES = 8192


def record_blocks(grid: GridSpec, records: int):
    """Slices that cut ``records`` records into blocks of
    ``max(1, BLOCK_NODES // grid.node_count)``."""
    size = max(1, BLOCK_NODES // grid.node_count)
    return [slice(k, min(k + size, records)) for k in range(0, records, size)]


def node_mean(grid: GridSpec, v: np.ndarray):
    """Plain mean over the trailing grid axes: a scalar for one field, one
    value per record for a ``(K, *grid.shape)`` stack; bit for bit
    ``v.mean()`` of each, without numpy's Python-level mean wrapper."""
    return np.add.reduce(v, axis=(-1, -2, -3)[:grid.active_dims]) / grid.node_count


@functools.lru_cache(maxsize=64)
def chain_exponent(exponent: float) -> int | None:
    """k when ``power`` takes v ** exponent as a chain of |k| factors (an
    integer within 1e-13, |k| <= 8, a reciprocal for k < 0), else None."""
    k = round(exponent)
    return k if abs(exponent - k) < 1e-13 and abs(k) <= 8 else None


def power(v: np.ndarray, exponent: float) -> np.ndarray:
    """v ** exponent with a fast path for small integer exponents."""
    k = chain_exponent(exponent)
    if k is not None:
        if k == 0:
            return np.ones_like(v)
        out = v
        for _ in range(abs(k) - 1):
            out = out * v
        return out if k > 0 else 1.0 / out
    return np.power(v, exponent)


# ---------------------------------------------------------------------------
# Construction from config strings and snapshot files
# ---------------------------------------------------------------------------

def field_from_spec(grid: GridSpec, spec: str) -> ScalarField:
    """Build a field from ``constant:<v>``, ``sinusoidal:<mean>,<amp>,<axis>[,<phase>]``
    or ``file:<path>``.  The sinusoid is mean + amp * sin(2 pi x/L + phase)."""
    if not isinstance(spec, str):
        raise ValueError(f"field spec must be a string, got {spec!r}")
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "constant":
        return ScalarField.constant(grid, float(rest))
    if kind == "sinusoidal":
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) not in (3, 4):
            raise ValueError(f"sinusoidal spec needs mean,amplitude,axis[,phase]: {spec!r}")
        mean, amp = float(parts[0]), float(parts[1])
        axis = int(parts[2])
        phase = float(parts[3]) if len(parts) == 4 else 0.0
        if not 0 <= axis < grid.active_dims:
            raise ValueError(f"sinusoidal axis {axis} out of range")
        x = grid.coordinate_mesh()[axis]
        vals = mean + amp * np.sin(2.0 * math.pi * x / grid.periods[axis] + phase)
        return ScalarField(grid, np.broadcast_to(vals, grid.shape).copy())
    if kind == "file":
        return read_field(rest.strip(), grid)
    raise ValueError(f"unknown field spec kind {kind!r}")


_FIELD_MAGIC = "conflow-field v1"


def write_field(path, field: ScalarField):
    """Snapshot format: one ASCII header line, then little-endian float64
    in row-major order."""
    g = field.grid
    header = (
        f"{_FIELD_MAGIC} n={g.ambient_n} dims={g.active_dims}"
        f" shape={','.join(str(p) for p in g.points)}"
        f" period={','.join(f'{L:.17g}' for L in g.periods)}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path, grid: GridSpec | None = None) -> ScalarField:
    """Read a snapshot file.  If ``grid`` is given, the header must match it."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        payload = fh.read()
    if not header.startswith(_FIELD_MAGIC):
        raise ValueError(f"{path}: not a field snapshot (bad magic)")
    meta = dict(tok.split("=", 1) for tok in header[len(_FIELD_MAGIC):].split())
    file_grid = GridSpec(
        ambient_n=int(meta["n"]),
        active_dims=int(meta["dims"]),
        points=tuple(int(s) for s in meta["shape"].split(",")),
        periods=tuple(float(s) for s in meta["period"].split(",")),
    )
    if grid is not None and file_grid != grid:
        raise GridMismatchError(f"{path}: snapshot grid {file_grid} does not match {grid}")
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != file_grid.node_count:
        raise ValueError(f"{path}: payload has {values.size} values, expected {file_grid.node_count}")
    return ScalarField(file_grid, values.reshape(file_grid.shape))
