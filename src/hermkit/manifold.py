"""Charts with metric fields, the Levi-Civita connection, brackets and gradients.

A :class:`Chart` is a coordinate box plus a metric field.  The metric is either
supplied directly (intrinsic) or derived from an embedding ``psi`` into
Euclidean space as ``Dpsi^T Dpsi``.  Every operator here takes a (k, dim)
stack x of points, one per row (a point is its one-row stack), and returns
the stack of its values at the rows, each row as alone; a 1-D point raises
``WrongDimension``.  A ``metric_fn`` maps a stack of points to the
(k, dim, dim) stack of their metric matrices, an embedding's ``jacobian`` the
stack to the stack of D(psi) and a :class:`VectorField`'s ``fn`` the stack to
its (k, dim) vectors; :func:`numdiff.by_row` and :func:`numdiff.constant` make
one from a per-point rule or a constant.  :func:`christoffel` builds the
symbols from one metric stencil and inverts g by :func:`invert_metric`; a
caller that holds g at x, or at x and its stencil points (a structure or a map
jet), passes it instead of evaluating it again.  :func:`gram_metric` is the
embedded metric from a D(psi) a caller holds.  There are no atlases or
transition functions.

Nothing is cached by point: g(x), D(psi)(x) and the Christoffel symbols are
computed on the stack they are asked for, and a check passes the stacks it
holds instead of asking again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import DslError, EvaluationOutsideDomain, GeometryError, SingularMetric
from .numdiff import Array, DiffConfig, as_points, as_stack

#: Symmetry slack accepted from a user-supplied metric field.
METRIC_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned coordinate domain."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi length mismatch")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty box")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return bool(np.all(x >= lo + margin) and np.all(x <= hi - margin))


@dataclass(frozen=True)
class Embedding:
    """Parametrization of a chart inside Euclidean R^ambient_dim.

    ``jacobian`` is the analytic differential when available, as a stack function:
    (k, dim) points to the (k, ambient_dim, dim) stack of D(psi).  Otherwise D(psi)
    comes from one finite-difference stencil, with ``psi`` evaluated row by row.
    """

    ambient_dim: int
    psi: Callable[[Array], Array]
    jacobian: Callable[[Array], Array] | None = None

    def dpsi(self, x, cfg: DiffConfig) -> Array:
        """The stack of D(psi) at the rows of x."""
        x = as_points(x)
        if self.jacobian is not None:
            return as_stack(self.jacobian(x), x, (self.ambient_dim, x.shape[1]), "jacobian")
        return np.ascontiguousarray(np.swapaxes(
            numdiff.partial(numdiff.by_row(self.psi), x, cfg), 1, 2))


@dataclass(frozen=True)
class Chart:
    """A coordinate domain with a metric field.

    Exactly one of ``metric_fn`` (intrinsic) and ``embedding`` must be given.
    Charts are immutable; all evaluation is pure.
    """

    dim: int
    box: Box
    metric_fn: Callable[[Array], Array] | None = None
    embedding: Embedding | None = None
    predicate: Callable[[Array], bool] | None = None
    name: str = ""

    def __post_init__(self):
        if (self.metric_fn is None) == (self.embedding is None):
            raise ValueError("give exactly one of metric_fn or embedding")
        if self.box.dim != self.dim:
            raise ValueError("box dimension does not match chart dimension")

    def contains(self, x, margin: float = 0.0) -> bool:
        """Whether every row of x lies in the chart."""
        x = as_points(x)
        ok = self.box.contains(x, margin)
        if ok and self.predicate is not None:
            ok = all(bool(self.predicate(p)) for p in x)
        return ok

    def require_interior(self, x, cfg: DiffConfig, depth: float = 2.0) -> Array:
        """Check that a depth*step stencil around every row of x stays inside the
        chart; the error names the first row that fails alone."""
        x = as_points(x)
        margin = depth * cfg.step
        if not self.contains(x, margin):
            bad = next(r for r in range(len(x)) if not self.contains(x[r:r + 1], margin))
            raise EvaluationOutsideDomain(f"{self.name or 'chart'}: point {x[bad]!r} closer "
                                          f"than {depth}*step to the boundary")
        return x

    def metric(self, x, cfg: DiffConfig | None = None) -> Array:
        """The stack of metric matrices at the rows of x; for embedded charts
        this is Dpsi^T Dpsi."""
        x = as_points(x)
        if self.metric_fn is None:
            return gram_metric(self.dpsi(x, cfg))
        g = as_stack(self.metric_fn(x), x, (self.dim, self.dim),
                     f"chart {self.name or '(unnamed)'}: metric_fn")
        gt = np.swapaxes(g, 1, 2)
        bound = METRIC_SYMMETRY_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
        asymmetric = np.flatnonzero(np.max(np.abs(g - gt), axis=(1, 2)) > bound)
        if asymmetric.size:
            raise SingularMetric(f"metric at {x[asymmetric[0]]!r} is not symmetric")
        return 0.5 * (g + gt)

    def dpsi(self, x, cfg: DiffConfig | None = None) -> Array:
        """The stack of D(psi) at the rows of x for an embedded chart; the metric
        there is its Gram matrix."""
        return self.embedding.dpsi(x, cfg or DiffConfig())

    def metric_inverse(self, x, cfg: DiffConfig | None = None) -> Array:
        """The stack of inverse metrics at the rows of x, by :func:`invert_metric`."""
        x = as_points(x)
        return invert_metric(self.metric(x, cfg), x)


def gram_metric(dpsi: Array) -> Array:
    """The metric D(psi)^T D(psi) of an embedded chart from the stack of D(psi),
    symmetrized."""
    g = np.swapaxes(dpsi, -1, -2) @ dpsi
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def invert_metric(g: Array, x: Array) -> Array:
    """The inverse of each metric of a stack g at the rows of x (one batched
    ``inv`` and one batched ``eigvalsh``); raises ``SingularMetric`` where g is
    singular or not positive-definite, as the first bad row alone would."""
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        problem = "is singular"
    else:
        problem = None if np.min(np.linalg.eigvalsh(g)) > 0 else "is not positive-definite"
    if problem:
        for r in range(len(x)) if len(x) > 1 else ():  # name the first bad row
            invert_metric(g[r:r + 1], x[r:r + 1])
        raise SingularMetric(f"metric at {x[0]!r} {problem}")
    return inv


@dataclass(frozen=True)
class VectorField:
    """A chart-attached coordinate vector field; ``fn`` maps a (k, dim) stack of
    points to the (k, dim) stack of the field's vectors there."""

    chart: Chart
    fn: Callable[[Array], Array]

    def __call__(self, x) -> Array:
        x = as_points(x)
        return as_stack(self.fn(x), x, (self.chart.dim,),
                        f"vector field on {self.chart.name or '(unnamed)'}: fn")


def christoffel(chart: Chart, x, cfg: DiffConfig, metric: Array | None = None) -> Array:
    """Levi-Civita symbols Gamma^k_{ij} = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)
    at the rows r of x as the stack ``gamma[r, k, i, j]``, symmetric in (i, j):
    one metric stencil for all rows.  ``metric``, g held by the caller at x or at
    x and then its ``numdiff.stencil`` points, is not evaluated again; a caller
    that holds it at the stencil points has checked the interior.  On an error
    the rows are built alone, so the error raised is the first bad row's."""
    x, g = as_points(x), metric
    k, held = len(x), g is not None and len(g) > len(x)  # held: g at the stencil points too
    try:
        if not held:
            chart.require_interior(x, cfg)
        g_inv = chart.metric_inverse(x, cfg) if g is None else invert_metric(g[:k], x)
        dg = (numdiff.difference(g[k:], x, cfg) if held else
              numdiff.partial(lambda s: chart.metric(s, cfg), x, cfg, domain=chart.contains))
    except (GeometryError, DslError, ValueError):
        for r in range(k) if k > 1 else ():
            christoffel(chart, x[r:r + 1], cfg, None if g is None else np.concatenate(
                [g[r:r + 1], g[k:].reshape(k, -1, *g.shape[1:])[r]]))
        raise
    # combined[r, i, j, l] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}, from dg[r, i, j, l] = d_i g_{jl}
    combined = dg + np.transpose(dg, (0, 2, 1, 3)) - np.transpose(dg, (0, 2, 3, 1))
    gamma = 0.5 * np.einsum("rkl,rijl->rkij", g_inv, combined)
    return 0.5 * (gamma + np.swapaxes(gamma, 2, 3))


def covariant_derivative(x_field: VectorField, y_field: VectorField, x, cfg: DiffConfig) -> Array:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_{ij} X^i Y^j at the rows of x."""
    if x_field.chart is not y_field.chart:
        raise ValueError("fields live on different charts")
    gamma, xv, yv = christoffel(x_field.chart, x, cfg), x_field(x), y_field(x)
    dy = numdiff.partial(y_field, x, cfg)
    return (np.einsum("...i,...ik->...k", xv, dy)
            + np.einsum("...kij,...i,...j->...k", gamma, xv, yv))


def lie_bracket(x_field: VectorField, y_field: VectorField, x, cfg: DiffConfig) -> Array:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k at the rows of x."""
    if x_field.chart is not y_field.chart:
        raise ValueError("fields live on different charts")
    xv, yv = x_field(x), y_field(x)
    dy, dx = numdiff.partial(y_field, x, cfg), numdiff.partial(x_field, x, cfg)
    return np.einsum("...i,...ik->...k", xv, dy) - np.einsum("...i,...ik->...k", yv, dx)


def gradient(chart: Chart, f: Callable[[Array], Array], x, cfg: DiffConfig) -> Array:
    """(grad f)^k = g^{kl} d_l f at the rows of x; ``f`` maps a stack of points
    to the stack of its values, as for ``numdiff.partial``."""
    return (chart.metric_inverse(x, cfg) @ numdiff.partial(f, x, cfg)[..., None])[..., 0]


def sample_points(chart: Chart, seed: int, count: int, margin: float) -> Array:
    """Seeded interior samples, as a (count, dim) stack; reproducible for equal
    arguments.  Each round draws the missing points as one block (the numbers of
    one draw per point) and keeps, in draw order, the rows inside the box and the
    chart's predicate."""
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(chart.box.lo) + margin, np.asarray(chart.box.hi) - margin
    if np.any(lo >= hi):
        raise ValueError("margin leaves no interior to sample")
    pts, attempts = np.empty((0, chart.dim)), 0
    while len(pts) < count:
        block = rng.uniform(lo, hi, (count - len(pts), chart.dim))
        attempts += len(block)
        keep = np.all((block >= lo) & (block <= hi), axis=1)
        if chart.predicate is not None:
            keep[keep] = [bool(chart.predicate(p)) for p in block[keep]]
        pts = np.concatenate([pts, block[keep]])
        if attempts > 100 * count:
            raise EvaluationOutsideDomain(
                f"{chart.name or 'chart'}: could not draw {count} interior samples")
    return pts


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling recipe; identical plans reproduce identical point sets.

    ``margin`` defaults to 4*step of the active DiffConfig, which keeps every
    nested finite-difference stencil inside the chart.
    """

    seed: int = 0
    count: int = 20
    margin: float | None = None

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.margin is not None and self.margin <= 0:
            raise ValueError("margin must be positive")

    def points(self, chart: Chart, cfg: DiffConfig) -> Array:
        margin = self.margin if self.margin is not None else 4.0 * cfg.step
        return sample_points(chart, self.seed, self.count, margin)
