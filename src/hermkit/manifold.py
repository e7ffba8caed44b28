"""Charts with metric fields, the Levi-Civita connection, brackets and gradients.

A :class:`Chart` is a coordinate box plus a metric field.  The metric is either
supplied directly (intrinsic) or derived from an embedding ``psi`` into
Euclidean space, with its analytic Jacobian, as ``Dpsi^T Dpsi``; g, g^-1 and
D(psi) take no ``DiffConfig``, only the finite differences (d g, Gamma, brackets,
gradients) and the interior check do.  Every operator here takes a (k, dim)
stack x of points, one per row (a point is its one-row stack), and returns
the stack of its values at the rows, each row as alone; a 1-D point raises
``WrongDimension``.  A ``metric_fn`` maps a stack of points to the
(k, dim, dim) stack of their metric matrices, an embedding's ``jacobian`` the
stack to the stack of D(psi) and a :class:`VectorField`'s ``fn`` the stack to
its (k, dim) vectors; :func:`numdiff.by_row` and :func:`numdiff.constant` make
one from a per-point rule or a constant.  :func:`christoffel` is the
Levi-Civita formula alone, on g^-1 and d g (:func:`metric_derivative`) that a
``hermitian.StructureJet``, the one owner of g, g^-1, Gamma, J and d J at a
check's samples, holds.  :func:`gram_metric` is the embedded metric from a
D(psi) a caller holds.  There are no atlases or transition functions.

A chart's domain is its box, and there is one domain check:
:meth:`Chart.require_interior` accepts a row when it lies at least
``INTERIOR_DEPTH * step`` inside the box.  Every stencil is taken around rows it
has accepted, and no stencil offset exceeds ``INTERIOR_DEPTH * step`` (the
(2h, h) Richardson pair of ``numdiff.second_partial`` is the largest), so
every stencil point lies in the box and none is tested again.  This holds bit
for bit because :meth:`Box.contains` compares as a stencil computes, x - margin
against lo and x + margin against hi, and rounding is monotone in the offset.

Nothing is cached by point: g(x), D(psi)(x) and the Christoffel symbols are
computed on the stack they are asked for, and a check passes the stacks it
holds instead of asking again.

The contract checks (the interior, the finiteness and symmetry of g,
positive-definiteness in :func:`invert_metric`) decide a whole stack in a fixed
handful of NumPy calls and take the rows one by one only to name the first that
fails, so a stack raises what its first bad row raises alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numdiff
from .errors import DslError, EvaluationOutsideDomain, GeometryError, SingularMetric
from .numdiff import Array, DiffConfig, as_points, as_stack

#: Symmetry slack accepted from a user-supplied metric field.
METRIC_SYMMETRY_TOL = 1e-12
#: How many steps inside the box :meth:`Chart.require_interior` wants every row:
#: the largest stencil offset, ``numdiff.second_partial``'s Richardson 2h.
INTERIOR_DEPTH = 2.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned coordinate domain [lo, hi] with finite bounds; it keeps them as
    the (2, dim) array ``bounds`` = [lo, hi], which :meth:`contains` compares a
    whole stack with."""

    lo: tuple
    hi: tuple
    bounds: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi length mismatch")
        if not all(-math.inf < l < h < math.inf for l, h in zip(self.lo, self.hi)):
            if all(map(math.isfinite, (*self.lo, *self.hi))):
                raise ValueError("empty box")
            raise ValueError(f"box bounds must be finite, got {self.lo!r} and {self.hi!r}")
        object.__setattr__(self, "bounds", np.array([self.lo, self.hi], dtype=float))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x, margin: float = 0.0) -> bool:
        """Whether x - margin >= lo and x + margin <= hi at every coordinate of x, a
        point or a stack of them, compared as a stencil offset of at most margin
        computes its points; a NaN coordinate is outside."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.bounds
        return bool(((x - margin >= lo) & (x + margin <= hi)).all())


@dataclass(frozen=True)
class Embedding:
    """Parametrization of a chart inside Euclidean R^ambient_dim, with its analytic
    differential ``jacobian``, a stack function: (k, dim) points to the
    (k, ambient_dim, dim) stack of D(psi)."""

    ambient_dim: int
    psi: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]

    def dpsi(self, x) -> Array:
        """The stack of D(psi) at the rows of x; the metric there is its Gram matrix."""
        x = as_points(x)
        return as_stack(self.jacobian(x), x, (self.ambient_dim, x.shape[1]), "jacobian")


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
    name: str = ""

    def __post_init__(self):
        if (self.metric_fn is None) == (self.embedding is None):
            raise ValueError("give exactly one of metric_fn or embedding")
        if self.box.dim != self.dim:
            raise ValueError("box dimension does not match chart dimension")

    def contains(self, x, margin: float = 0.0) -> bool:
        """Whether every row of x lies in the chart's box, margin inside it."""
        return self.box.contains(as_points(x), margin)

    def require_interior(self, x, cfg: DiffConfig) -> Array:
        """x as a stack, when every row lies ``INTERIOR_DEPTH * step`` inside the box
        (the one domain check; see the module docstring); the error names the
        first row that fails alone."""
        x = as_points(x)
        margin = INTERIOR_DEPTH * cfg.step
        if not self.contains(x, margin):
            bad = next(r for r in range(len(x)) if not self.contains(x[r:r + 1], margin))
            raise EvaluationOutsideDomain(f"{self.name or 'chart'}: point {x[bad]!r} closer "
                                          f"than {INTERIOR_DEPTH}*step to the boundary")
        return x

    def metric(self, x) -> Array:
        """The stack of metric matrices at the rows of x; for embedded charts
        this is :func:`gram_metric` of D(psi) there, which a
        ``hermitian.structure_jet`` applies to the D(psi) it holds instead.

        A ``metric_fn``'s g must be finite and symmetric to within
        ``METRIC_SYMMETRY_TOL * max(1, max|g|)`` at each row; the stack passes at
        once when its largest asymmetry is within ``METRIC_SYMMETRY_TOL``, every
        row's smallest bound (a NaN or infinite entry makes it NaN or infinite),
        and only otherwise are the rows' bounds computed and the first row that
        is not finite or is past its bound named.  g is returned symmetrized."""
        x = as_points(x)
        if self.metric_fn is None:
            return gram_metric(self.embedding.dpsi(x))
        g = as_stack(self.metric_fn(x), x, (self.dim, self.dim),
                     f"chart {self.name or '(unnamed)'}: metric_fn")
        gt = np.swapaxes(g, 1, 2)
        with np.errstate(invalid="ignore"):  # inf - inf where an infinite entry meets its transpose
            asymmetry = g - gt
        if not asymmetry.max(initial=0.0) <= METRIC_SYMMETRY_TOL:  # antisymmetric: max = max |.|
            asymmetry, finite = np.abs(asymmetry), np.isfinite(g).all(axis=(1, 2))
            bound = METRIC_SYMMETRY_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
            bad = np.flatnonzero(~finite | (np.max(asymmetry, axis=(1, 2)) > bound))
            if bad.size:
                problem = "is not symmetric" if finite[bad[0]] else "is not finite"
                raise SingularMetric(f"metric at {x[bad[0]]!r} {problem}")
        return 0.5 * (g + gt)

    def metric_inverse(self, x) -> Array:
        """The stack of inverse metrics at the rows of x, by :func:`invert_metric`."""
        x = as_points(x)
        return invert_metric(self.metric(x), x)


def gram_metric(dpsi: Array) -> Array:
    """The metric D(psi)^T D(psi) of an embedded chart from the stack of D(psi),
    symmetrized."""
    g = np.swapaxes(dpsi, -1, -2) @ dpsi
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def invert_metric(g: Array, x: Array) -> Array:
    """The inverse of each metric of a stack g at the rows of x (one batched
    ``inv`` and one batched ``cholesky``, :func:`positive_definite`); raises
    ``SingularMetric`` where g is singular or not positive-definite, as the first
    bad row alone would."""
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        problem = "is singular"
    else:
        problem = None if positive_definite(g) else "is not positive-definite"
    if problem:
        for r in range(len(x)) if len(x) > 1 else ():  # name the first bad row
            invert_metric(g[r:r + 1], x[r:r + 1])
        raise SingularMetric(f"metric at {x[0]!r} {problem}")
    return inv


def positive_definite(g: Array) -> bool:
    """Whether every matrix of a stack g is positive-definite: one batched Cholesky
    factorization succeeds and the diagonal of its factor is finite and positive
    (NumPy factors a NaN matrix into NaN without raising, and a NaN fails both
    comparisons)."""
    try:
        diagonal = np.linalg.cholesky(g).diagonal(0, -2, -1)
    except np.linalg.LinAlgError:
        return False
    return bool(diagonal.min(initial=np.inf) > 0 and diagonal.max(initial=0.0) < np.inf)


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


def metric_derivative(chart: Chart, x, cfg: DiffConfig) -> Array:
    """d g at the rows r of x as ``dg[r, i, j, l]`` = d_i g_jl, from one metric call
    on the stencils of all rows; the caller checks the interior first
    (:meth:`Chart.require_interior`)."""
    return numdiff.partial(chart.metric, x, cfg)


def christoffel(g_inv: Array, dg: Array) -> Array:
    """Levi-Civita symbols Gamma^k_{ij} = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)
    at the rows r of stacks g^-1 and ``dg[r, i, j, l]`` = d_i g_jl, as the stack
    ``gamma[r, k, i, j]``, symmetric in (i, j)."""
    combined = dg + np.transpose(dg, (0, 2, 1, 3)) - np.transpose(dg, (0, 2, 3, 1))
    gamma = 0.5 * np.einsum("rkl,rijl->rkij", g_inv, combined)
    return 0.5 * (gamma + np.swapaxes(gamma, 2, 3))


def covariant_derivative(x_field: VectorField, y_field: VectorField, x, cfg: DiffConfig) -> Array:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_{ij} X^i Y^j at the rows of x, Gamma
    built as ``hermitian.StructureJet`` builds it: the interior checked, then g^-1,
    then d g; on an error there the rows are taken alone, so the error raised is
    the first bad row's."""
    if x_field.chart is not y_field.chart:
        raise ValueError("fields live on different charts")
    chart, x = x_field.chart, as_points(x)
    try:
        chart.require_interior(x, cfg)
        gamma = christoffel(chart.metric_inverse(x), metric_derivative(chart, x, cfg))
    except (GeometryError, DslError, ValueError):
        for r in range(len(x)) if len(x) > 1 else ():
            covariant_derivative(x_field, y_field, x[r:r + 1], cfg)
        raise
    xv, yv, dy = x_field(x), y_field(x), numdiff.partial(y_field, x, cfg)
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
    return (chart.metric_inverse(x) @ numdiff.partial(f, x, cfg)[..., None])[..., 0]


def sample_points(chart: Chart, seed: int, count: int, margin: float) -> Array:
    """Seeded interior samples, as a (count, dim) stack drawn uniformly in the box
    shrunk by margin on every side (one seeded block, the numbers of one draw per
    point); reproducible for equal arguments."""
    lo, hi = chart.box.bounds[0] + margin, chart.box.bounds[1] - margin
    if np.any(lo >= hi):
        raise ValueError("margin leaves no interior to sample")
    return np.random.default_rng(seed).uniform(lo, hi, (count, chart.dim))


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
