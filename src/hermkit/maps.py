"""Operations attached to a smooth map between charts: differential, holomorphy,
horizontal conformality and dilation, second fundamental form and tension,
fibre geometry, superminimality, and lifted almost Hermitian structures on the
total space of a conformal submersion with 2-dimensional fibres.

Points are (k, source dim) stacks, one point per row (a point is its one-row
stack), and a 1-D point raises ``WrongDimension``.  Every operator reads a
:class:`PointJet` (x, Dphi from one :func:`differential` stencil, the source
metric g and the one-SVD rank split of Dphi) at the rows of such a stack and
returns one value per row, each row as alone, bit for bit.  A map check builds
one with :func:`point_jet` for all its samples, and a check that differences on
their stencil points builds one jet over both: the sample jet and
``jet.stencil`` are its two row ranges.  A jet builds, when first read, and
shares with every reader ``jet.image``, phi(x), ``jet.target_metric`` and
``jet.target_j``, h and the target J there, ``jet.j``, the source J, and
``jet.split``, its :func:`conformality` data (an array per field), each on the
range that reads it; ``jet.lift``, its horizontal-lift matrices, once over both;
``jet.gamma``, the source Christoffel symbols, from the metrics at both; and
``jet.structure``, the source structure jet.  The third-order operators
(:func:`fibre_mean_curvature`, :func:`homothety_residual`,
:func:`lifted_structure_jet`, :func:`condition_ii_residual`) compute what they
read at both ranges once, over ``jet.both``; :func:`sff_tensor` and
:func:`tension` take one ``second_partial`` stencil for all its samples, and the
target Christoffel symbols from h at phi(x) and at its stencil points.

A :class:`MapSpec`'s ``fn`` maps a (k, source dim) stack of points to the
(k, target dim) stack of their images.  Nothing is cached by point: phi is
evaluated on the stack it is asked for, and a check passes the jet it holds
instead of asking again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import numdiff
from .errors import CriticalPoint, EvaluationOutsideDomain, FibreDimension, MissingStructure
from .hermitian import (AlmostComplexField, StructureJet, antiholomorphic_part, dj_stack,
                        g_norm, lee_vector, nabla_J, nabla_j_tensor, require_almost_hermitian,
                        stacked_hermitian_frame, unit_axes)
from .manifold import Chart, christoffel, invert_metric
from .numdiff import (Array, DiffConfig, as_points, as_stack, g_length, gram_schmidt,
                      orthonormalize, project_out)

#: A singular value of the differential counts as zero below sigma_max * RANK_FACTOR.
RANK_FACTOR = 1e-6
#: Samples whose smallest retained singular value is within this factor of the
#: rank threshold are near-critical and excluded from fibre-geometry checks.
NEAR_CRITICAL_FACTOR = 10.0

KIND_REGULAR = "regular"
KIND_CRITICAL = "critical"
KIND_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class MapSpec:
    """A chart-to-chart coordinate map with its differentiation configuration.

    The almost-complex structures are optional; holomorphy and tension-identity
    operations require them, metric-level operations do not.
    ``fibre_orientation`` maps a stack of points to the stack of the antisymmetric
    2-forms (as matrices) that orient 2-dimensional fibres for :func:`lift_structure`.
    An ``fn`` that returns anything but (k, target dim) for k rows raises
    ``WrongDimension``.
    """

    source: Chart
    target: Chart
    fn: Callable[[Array], Array]
    cfg: DiffConfig
    source_structure: AlmostComplexField | None = None
    target_structure: AlmostComplexField | None = None
    fibre_orientation: Callable[[Array], Array] | None = None
    name: str = ""

    def __call__(self, x) -> Array:
        """phi at each row of x."""
        x = as_points(x)
        return as_stack(self.fn(x), x, (self.target.dim,), f"map {self.name or '(unnamed)'}: fn")


def differential(spec: MapSpec, x) -> Array:
    """The stack of differentials, (target dim) x (source dim) arrays of partials,
    at the rows of x (one map call; errors are those of the first bad row)."""
    x = as_points(x)
    try:
        spec.source.require_interior(x, spec.cfg)
        d = numdiff.partial(spec, x, spec.cfg, domain=spec.source.contains)
    except EvaluationOutsideDomain:
        for r in range(len(x)) if len(x) > 1 else ():  # name the first row that fails alone
            differential(spec, x[r:r + 1])
        raise
    return np.ascontiguousarray(np.swapaxes(d, -1, -2))


#: The parts a jet over samples and their stencil points builds on each range apart.
_HALVED = ("image", "target_metric", "target_j", "j", "split")


@dataclass(frozen=True)
class PointJet:
    """The stacks of Dphi(x), g(x) and the SVD of Dphi, with ``rank`` an integer
    array, at the rows of x.

    Singular values at most sigma_max * RANK_FACTOR count as zero, so the rows
    ``vt[rank:]`` span ker dphi and ``vt[:rank]`` its Euclidean complement.
    The cached properties are built when first read and then kept; a jet made by
    :meth:`take` reads all but ``structure`` from the jet it was taken from.  A
    jet with ``samples`` holds them and then their stencil points, builds the
    ``_HALVED`` parts on its two ``halves`` apart and ``gamma`` at the samples.
    """

    spec: MapSpec
    x: Array
    differential: Array
    metric: Array
    singular_values: Array
    vt: Array
    rank: Array
    whole: tuple | None = field(default=None, repr=False)  # (jet, rows) for a taken jet
    samples: int | None = None

    def take(self, rows) -> PointJet:
        """The rows ``rows`` (an index array) of the jet; rows of a taken jet are
        taken from its jet."""
        if self.whole is not None:
            return self.whole[0].take(self.whole[1][rows])
        rows = np.asarray(rows, dtype=int)
        parts = (self.x, self.differential, self.metric, self.singular_values, self.vt, self.rank)
        return PointJet(self.spec, *(p[rows] for p in parts), whole=(self, rows))

    def _part(self, name: str, build: Callable) -> Array | ConformalityData:
        """``build(self)``; a taken jet reads its rows of its jet's part, from a half
        that holds them all if one does, and a jet with ``samples`` joins its halves'."""
        whole, rows = self.whole or (None, None)
        halved = name in _HALVED and (whole or self).samples is not None
        if whole is None:
            return _join(*(getattr(half, name) for half in self.halves)) if halved else build(self)
        for half, start in zip(whole.halves, (0, whole.samples)) if halved else ():
            if np.all((rows >= start) & (rows < start + len(half.x))):
                return getattr(half, name)[rows - start]
        return getattr(whole, name)[rows]

    @cached_property
    def halves(self) -> tuple[PointJet, PointJet]:
        """The jets at the samples and at their stencil points of a jet with ``samples``."""
        return tuple(PointJet(self.spec, self.x[cut], self.differential[cut], self.metric[cut],
                              self.singular_values[cut], self.vt[cut], self.rank[cut])
                     for cut in (slice(None, self.samples), slice(self.samples, None)))

    @cached_property
    def split(self) -> ConformalityData:
        """The :func:`conformality` data at the jet's rows."""
        return self._part("split", conformality)

    @cached_property
    def lift(self) -> Array:
        """The :func:`_lift_matrix` at the jet's rows (NaN at rows that are not
        regular), one build over all the rows of the jet it was taken from."""
        return self._part("lift", _lift_matrix)

    @cached_property
    def image(self) -> Array:
        """phi at the jet's rows."""
        return self._part("image", lambda jet: jet.spec(jet.x))

    @cached_property
    def target_metric(self) -> Array:
        """The target metric h at phi of the jet's rows."""
        return self._part("target_metric",
                          lambda jet: jet.spec.target.metric(jet.image, jet.spec.cfg))

    @cached_property
    def target_j(self) -> Array:
        """The target structure J at phi of the jet's rows."""
        return self._part("target_j", lambda jet: jet.spec.target_structure(jet.image))

    @cached_property
    def gamma(self) -> Array:
        """The source Christoffel symbols at the jet's rows (of a jet with
        ``samples``: at the samples), from the jet's g at its rows."""
        return self._part("gamma", lambda jet: christoffel(
            jet.spec.source, jet.x[:jet.samples], jet.spec.cfg, jet.metric))

    @cached_property
    def j(self) -> Array:
        """The source structure J at the jet's rows."""
        return self._part("j", lambda jet: jet.spec.source_structure(jet.x))

    @cached_property
    def metric_inverse(self) -> Array:
        """g^-1 at the jet's rows, by ``invert_metric`` (its own rows only: a sample
        jet does not invert its stencil rows)."""
        return invert_metric(self.metric, self.x)

    @cached_property
    def structure(self) -> StructureJet:
        """The source structure jet at the jet's rows, on its g, J and ``gamma``."""
        x, gamma, j = self.x, self.gamma, self.j
        dj = dj_stack(self.spec.source, self.spec.source_structure, x, self.spec.cfg)
        return StructureJet(x, self.metric, j, dj, gamma, nabla_j_tensor(gamma, j, dj))

    @cached_property
    def both(self) -> PointJet:
        """The jet at its rows and then at the ``numdiff.stencil`` points of each
        (one block of rows per row, in order): rows of the jet it was taken from
        when that holds them, else a jet built for them."""
        whole, rows = self.whole or (None, None)
        if whole is None or whole.samples is None:
            return point_jet(self.spec, self.x, stencil=True).both
        per = len(whole.x) // whole.samples - 1
        return whole.take(np.concatenate([rows, whole.samples + _blocks(rows, per)]))

    @cached_property
    def stencil(self) -> PointJet:
        """The jet at the stencil points of the jet's rows: ``both`` past them."""
        return self.both.take(np.arange(len(self.x), len(self.both.x)))


def _blocks(rows, per: int) -> Array:
    """The stencil rows of the rows ``rows``, counted from the first stencil row,
    when each row has a block of ``per``."""
    return (np.asarray(rows, dtype=int)[:, None] * per + np.arange(per)).ravel()


def _join(head, tail):
    """Two parts at consecutive row ranges as one."""
    if isinstance(head, ConformalityData):
        return ConformalityData(*map(_join, vars(head).values(), vars(tail).values()))
    return np.concatenate([head, tail])


def point_jet(spec: MapSpec, x, stencil: bool = False) -> PointJet:
    """Differentiate the map at each row of x once and split the differential by
    rank: one :func:`differential`, one source metric call and one batched SVD,
    the rank decided per row (phi and h at first read).  With ``stencil`` the
    rows are those of x and then its ``numdiff.stencil`` points, and the jet
    returned is the one at x's rows."""
    x = np.array(as_points(x))
    rows = (np.concatenate([x, numdiff.stencil(x, spec.cfg).reshape(-1, x.shape[1])])
            if stencil else x)
    d = differential(spec, rows)
    g = spec.source.metric(rows, spec.cfg)
    _, sv, vt = np.linalg.svd(d)
    smax = np.max(sv, axis=-1, initial=0.0)
    rank = np.where(smax > 0, np.sum(sv > (smax * RANK_FACTOR)[..., None], axis=-1), 0)
    jet = PointJet(spec, rows, d, g, sv, vt, rank, samples=len(x) if stencil else None)
    return jet.take(np.arange(len(x))) if stencil else jet


def holomorphy_residual(jet: PointJet) -> list[float]:
    """Frobenius norm of dphi J - J_target(phi(x)) dphi at each row; raises
    ``PreconditionFailed`` unless (g, J) is almost Hermitian at x and phi(x)
    (at the first row where it is not)."""
    spec = jet.spec
    if spec.source_structure is None or spec.target_structure is None:
        raise MissingStructure("holomorphy needs almost-complex structures on both charts")
    d, y, j_src, j_tgt = jet.differential, jet.image, jet.j, jet.target_j
    require_almost_hermitian(jet.metric, j_src, jet.x)
    require_almost_hermitian(jet.target_metric, j_tgt, y)
    return [float(np.linalg.norm(m)) for m in d @ j_src - j_tgt @ d]


@dataclass(frozen=True)
class ConformalityData:
    """Horizontal-conformality report, an array per field over the rows of a jet.

    A row is ``regular`` (full rank onto the target), ``critical`` (rank 0) or
    ``degenerate`` (intermediate rank, reported as conformality failure), as
    ``kind`` names it; ``dilation`` is positive and ``near_critical`` may hold only
    on regular rows.  The g-orthonormal bases of ker dphi and of its complement are
    ``vertical[r, :n - rank]`` and ``horizontal[r, :horizontal_count]``, padded
    with zero vectors.
    """

    rank: Array
    dilation: Array
    conformality_residual: Array
    near_critical: Array
    vertical: Array
    horizontal: Array
    horizontal_count: Array

    def __getitem__(self, rows) -> ConformalityData:
        return ConformalityData(*(part[rows] for part in vars(self).values()))

    @property
    def regular(self) -> Array:
        return self.rank == self.horizontal.shape[-2]

    @property
    def kind(self) -> Array:
        return np.where(self.rank == 0, KIND_CRITICAL,
                        np.where(self.regular, KIND_REGULAR, KIND_DEGENERATE))


def conformality(jet: PointJet) -> ConformalityData:
    """Split T_x into ker dphi and its g-orthogonal complement and measure how
    conformal dphi is on the horizontal part, at each row: rows of equal rank run
    as one stack (sub-stacks where Gram-Schmidt keeps different vectors), in the
    jet's target metric.  Readers take it from ``jet.split``, built once."""
    d, g, sv, vt = jet.differential, jet.metric, jet.singular_values, jet.vt
    k, t, n = d.shape
    out = ConformalityData(jet.rank, np.zeros(k), np.zeros(k), np.zeros(k, dtype=bool),
                           np.zeros((k, n, n)), np.zeros((k, t, n)), np.zeros(k, dtype=int))
    for rank in sorted(set(jet.rank.tolist())):
        rows = np.flatnonzero(jet.rank == rank)
        vertical = orthonormalize([vt[rows, i] for i in range(rank, n)], g[rows])
        out.vertical[rows, :n - rank] = np.stack(vertical, axis=1) if vertical else 0.0
        # Horizontal = g-orthogonal complement of the kernel: project each row-space
        # vector off the kernel first and the earlier horizontal vectors second.
        tol = numdiff.RANK_RTOL * np.maximum(1.0, sv[rows, 0])
        for part, horiz in gram_schmidt([vt[rows, i] for i in range(rank)], g[rows], tol,
                                        vertical):
            at, h = rows[part], len(horiz)
            img = (np.stack([(d[at] @ u[:, :, None])[:, :, 0] for u in horiz], axis=-1)
                   if horiz else np.zeros((len(at), t, 0)))
            gram = np.swapaxes(img, 1, 2) @ jet.target_metric[at] @ img
            lam_sq = np.diagonal(gram, axis1=1, axis2=2).sum(axis=1) / max(h, 1)
            padded = np.zeros((len(at), t, t))
            padded[:, :h, :h] = gram
            flat = (padded - lam_sq[:, None, None] * np.eye(t)).reshape(len(at), 1, t * t)
            out.conformality_residual[at] = np.sqrt(flat @ np.swapaxes(flat, 1, 2))[:, 0, 0]
            out.horizontal[at, :h] = np.stack(horiz, axis=1) if horiz else 0.0
            out.horizontal_count[at] = h
            if rank == t:
                out.dilation[at] = np.sqrt(np.maximum(lam_sq, 0.0))
                out.near_critical[at] = sv[at, rank - 1] <= NEAR_CRITICAL_FACTOR * (
                    sv[at, 0] * RANK_FACTOR)
    return out


def sff_tensor(jet: PointJet) -> Array:
    """All components of nabla dphi at the jet's rows, as (k, d, d, n)."""
    spec, x, d, fx, cfg = jet.spec, jet.x, jet.differential, jet.image, jet.spec.cfg
    spec.target.require_interior(fx, cfg)
    gamma_m, gamma_n = jet.gamma, christoffel(spec.target, fx, cfg, jet.target_metric)
    out = (numdiff.second_partial(spec, x, cfg, domain=spec.source.contains)
           - np.einsum("...kij,...gk->...ijg", gamma_m, d)
           + np.einsum("...gab,...ai,...bj->...ijg", gamma_n, d, d))
    i, j = np.tril_indices(spec.source.dim, -1)
    out[..., i, j, :] = out[..., j, i, :]  # the upper triangle mirrored: symmetric bit for bit
    return out


def tension(jet: PointJet) -> Array:
    """Tension field tau = g^{ij} (nabla dphi)_{ij} at the jet's rows."""
    sff = sff_tensor(jet)
    return np.einsum("...ij,...ijg->...g", jet.metric_inverse, sff)


def lee_pushforward(jet: PointJet) -> Array:
    """dphi(J div J) at the jet's rows, the push-forward of the source's Lee-type
    field; the tension identity reads tau = -dphi(J div J)."""
    spec = jet.spec
    if spec.source_structure is None:
        raise MissingStructure("the Lee push-forward needs an almost-complex structure "
                               "on the source")
    lee = lee_vector(jet.structure)
    return (jet.differential @ lee[..., None])[..., 0]


def _vertical_projector(jet: PointJet) -> Array:
    """g-orthogonal projector onto ker dphi at each row (basis independent, smooth)."""
    out = np.zeros(jet.metric.shape)
    for rank in sorted(set(jet.rank[jet.rank < out.shape[-1]].tolist())):
        rows = np.flatnonzero(jet.rank == rank)
        null_t, g = jet.vt[rows, rank:], jet.metric[rows]
        null = np.swapaxes(null_t, 1, 2)
        out[rows] = null @ np.linalg.solve(null_t @ g @ null, null_t @ g)
    return out


def vertical_frame_field(jet: PointJet, p_v: Array | None = None) -> Callable[..., Array]:
    """Smooth g-orthonormal vertical frame near each row of the jet: a function
    from the jet at nearby points (and, if held, their vertical projectors, as
    ``p_v`` at the jet's rows) to the frame at each point, as a matrix whose
    columns are the frame vectors (a 0-dimensional fibre has the empty frame).
    ``owner[i]`` is the row of ``jet`` that point i is near: by default, one
    block of points per row in order, as in ``jet.stencil``.

    Fixed coordinate axes (chosen per row of ``jet`` by largest vertical
    projection, ties broken by index) are pushed through the pointwise
    ker-dphi projector and orthonormalized in the metric; the construction is
    deterministic and smooth wherever the projections stay independent.
    Raises ``CriticalPoint`` at the first row of ``jet`` that is not regular.
    """
    spec = jet.spec
    bad = np.flatnonzero(jet.rank < spec.target.dim)
    if bad.size:
        raise CriticalPoint(f"no vertical frame at non-regular point {jet.x[bad[0]]!r}")
    n, k = spec.source.dim, spec.source.dim - spec.target.dim
    p_v = _vertical_projector(jet) if p_v is None else p_v
    g0, rows = jet.metric, np.arange(len(jet.x))
    axes, basis = np.zeros((len(rows), 0), dtype=int), []
    for _ in range(k):  # pivoted: each axis must stay independent of the earlier ones
        w = np.stack([project_out(p_v[:, :, i], basis, g0) for i in range(n)], axis=1)
        score = g_length(w, g0[:, None])[..., 0]
        score[rows[:, None], axes] = -1.0
        best = np.argmax(score, axis=1)
        if np.any(score[rows, best] <= numdiff.RANK_RTOL):
            raise CriticalPoint("vertical projections of the coordinate axes are degenerate")
        axes = np.column_stack([axes, best])
        basis.append(w[rows, best] / score[rows, best, None])

    def frame_at(at: PointJet, p: Array | None = None, owner: Array | None = None) -> Array:
        p = _vertical_projector(at) if p is None else p
        rows = np.arange(len(p))
        cols = np.repeat(axes, len(p) // len(axes), axis=0) if owner is None else axes[owner]
        frame = orthonormalize([p[rows, :, cols[:, a]] for a in range(k)], at.metric)
        return np.stack(frame, axis=-1) if k else np.zeros((len(p), n, 0))

    return frame_at


def fibre_mean_curvature(jet: PointJet) -> Array:
    """Horizontal part of sum_a nabla_{v_a} v_a over a vertical frame at each
    row; the zero vector exactly when the fibre is minimal there (0-dimensional
    fibres are).  The projectors and the frames are built once over ``jet.both``
    (a sample fixes the axes of its block of stencil rows), and the frames are
    differenced at its stencil rows."""
    both, k = jet.both, len(jet.x)
    p_v = _vertical_projector(both)
    owner = np.concatenate([np.arange(k), np.repeat(np.arange(k), len(both.x) // k - 1)])
    frames = vertical_frame_field(jet, p_v[:k])(both, p_v, owner)
    gamma, frame = jet.gamma, frames[:k]
    # dframe[r, i, :, a] is the i-th partial derivative of the a-th frame vector at row r.
    dframe = numdiff.difference(frames[k:], jet.x, jet.spec.cfg)
    total = np.zeros(jet.x.shape)
    for a in range(frame.shape[2]):
        v, dv = frame[:, :, a], dframe[..., a]
        total = total + np.einsum("ri,rik->rk", v, dv) + np.einsum("rkij,ri,rj->rk", gamma, v, v)
    return total - (p_v[:k] @ total[..., None])[..., 0]


def require_regular(jet: PointJet, what: str) -> None:
    """Raise ``CriticalPoint`` at the first row of the jet that is not regular."""
    bad = np.flatnonzero(~jet.split.regular)
    if bad.size:
        raise CriticalPoint(f"{what}, got {jet.split.kind[bad[0]]}")


def homothety_residual(jet: PointJet) -> list[float]:
    """|dphi(grad lambda^2)| in the target metric at each row, lambda^2 read at
    the jet's stencil rows and g^-1 from ``jet.metric_inverse``."""
    cfg, stencil = jet.spec.cfg, jet.stencil
    require_regular(jet, "homothety residual needs regular samples")
    bad = np.flatnonzero(~stencil.split.regular)
    if bad.size:
        raise CriticalPoint(f"dilation field hit a non-regular stencil point {stencil.x[bad[0]]!r}")
    lam_sq = np.float_power(stencil.split.dilation, 2)  # libm pow, as ** on a float
    grad = jet.metric_inverse @ numdiff.difference(lam_sq, jet.x, cfg)[..., None]
    return g_norm(jet.target_metric, (jet.differential @ grad)[..., 0]).tolist()


def superminimality_residual(jet: PointJet, structure: StructureJet) -> list[float]:
    """max over vertical frame vectors V and unit coordinate axes Y of
    |(nabla_V J) Y| at each row, from the map's jet and the source structure's
    jet at the same points."""
    require_regular(jet, "superminimality needs a regular point")
    g, k = structure.metric, jet.spec.source.dim - jet.spec.target.dim
    vertical = [np.ascontiguousarray(jet.split.vertical[:, a]) for a in range(k)]
    return np.max([np.zeros(len(jet.x)), *(g_norm(g, nabla_J(structure, v, y))
                                           for v in vertical for y in unit_axes(g))],
                  axis=0).tolist()


def _lift_matrix(jet: PointJet) -> Array:
    """Horizontal-lift operator L with dphi L = id and image H at each regular row
    of the jet, NaN at the others; readers take it from ``jet.lift``."""
    out = np.full(np.swapaxes(jet.differential, 1, 2).shape, np.nan)
    rows = np.flatnonzero(jet.split.regular)
    if rows.size:
        a = np.ascontiguousarray(np.swapaxes(jet.split.horizontal[rows], 1, 2))
        out[rows] = a @ np.linalg.inv(jet.differential[rows] @ a)
    return out


def _require_liftable(spec: MapSpec, orientation: int) -> None:
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    if spec.target_structure is None:
        raise MissingStructure("lift_structure needs an almost-complex structure on the target")
    if spec.fibre_orientation is None:
        raise MissingStructure("lift_structure needs a fibre orientation form on the map")


def lifted_j(jet: PointJet, orientation: int) -> Array:
    """The lifted J of :func:`lift_structure` at each row, from the jet's
    conformality data."""
    spec = jet.spec
    _require_liftable(spec, orientation)
    require_regular(jet, "horizontal lift needs a regular point")
    if spec.source.dim - spec.target.dim != 2:
        raise FibreDimension(f"lift needs 2-dimensional fibres, got "
                             f"{spec.source.dim - spec.target.dim}")
    v1, v2 = (np.ascontiguousarray(jet.split.vertical[:, a]) for a in (0, 1))
    omega = as_stack(spec.fibre_orientation(jet.x), jet.x, (spec.source.dim,) * 2,
                     f"map {spec.name or '(unnamed)'}: fibre_orientation")
    signed = (v1[:, None] @ omega @ v2[:, :, None])[:, 0, 0]
    if np.any(np.abs(signed) < 1e-12):
        raise ValueError("fibre orientation form is degenerate on the fibre")
    sigma = (orientation * np.sign(signed))[:, None, None]
    g_v1, g_v2 = ((jet.metric @ v[:, :, None])[:, :, 0] for v in (v1, v2))
    rot = sigma * (v2[:, :, None] * g_v1[:, None] - v1[:, :, None] * g_v2[:, None])
    return jet.lift @ jet.target_j @ jet.differential + rot


def lift_structure(spec: MapSpec, orientation: int) -> AlmostComplexField:
    """Lift the target structure through a horizontally conformal submersion with
    2-dimensional oriented fibres.

    On the horizontal space J = (dphi|_H)^{-1} J_target dphi|_H; on the fibre
    tangent it rotates by +90 degrees (orientation=+1) or -90 degrees in the
    metric, the sense fixed by the map's fibre orientation form (see :func:`lifted_j`).
    """
    _require_liftable(spec, orientation)
    return AlmostComplexField(spec.source, lambda stack: lifted_j(point_jet(spec, stack),
                                                                  orientation))


def lifted_structure_jet(jet: PointJet, orientation: int) -> StructureJet:
    """The structure jet of the lifted J at the rows of a map jet: J built
    once over ``jet.both``, d J differenced at its stencil rows, with the connection."""
    lifted, k, gamma = lifted_j(jet.both, orientation), len(jet.x), jet.gamma
    j, dj = lifted[:k], numdiff.difference(lifted[k:], jet.x, jet.spec.cfg)
    return StructureJet(jet.x, jet.metric, j, dj, gamma, nabla_j_tensor(gamma, j, dj))


def _lifts(lift: Array, zs: Array) -> Array:
    """[Re, Im] of the horizontal lifts of frames ``zs`` ([r, k, :]) by the
    lift matrices at the rows r, as [r, part, k, :]."""
    parts = np.stack([zs.real, zs.imag], axis=-3)
    return (lift[:, None, None] @ parts[..., None])[..., 0]


def condition_ii_residual(jet: PointJet, structure: StructureJet) -> list[float]:
    """max (0,1)-part norm of the vertical component of [Z, W] over pairs of
    horizontal (1,0) frame fields built by the horizontal-lift construction, at
    each row, from the map's jet and the source structure's jet at the same points.

    Each row's target Hermitian frame at phi(x) fixes the pivots of its frame
    field; the lifted frame fields are differenced at the jet's stencil rows.
    """
    spec, cfg = jet.spec, jet.spec.cfg
    if spec.target_structure is None:
        raise MissingStructure("condition (ii) needs the target structure")
    require_regular(jet, "condition (ii) needs regular samples")
    base = stacked_hermitian_frame(jet.target_metric, jet.target_j)
    if base.m < 2:
        return [0.0] * len(jet.x)
    stencil = jet.stencil
    zs = np.empty((len(stencil.x), base.m, spec.target.dim), dtype=complex)
    for pivots in dict.fromkeys(base.pivots):
        at = _blocks([r for r, row in enumerate(base.pivots) if row == pivots],
                     len(stencil.x) // len(jet.x))
        zs[at] = np.stack(stacked_hermitian_frame(
            stencil.target_metric[at], stencil.target_j[at], pivots).complex_frame, axis=1)
    require_regular(stencil, "horizontal lift needs a regular point")
    # dz[r, part, k, i, :] = d_i of that part of the lifted Z_k at row r; each (part, k)
    # slice of a row is C-contiguous, as in manifold.lie_bracket, so brackets match it
    dz = np.ascontiguousarray(np.moveaxis(
        numdiff.difference(_lifts(stencil.lift, zs), jet.x, cfg), 1, 3))
    at_x = _lifts(jet.lift, np.stack(base.complex_frame, axis=1))
    at_x, dz = np.moveaxis(at_x, 0, 2), np.moveaxis(dz, 0, 2)  # [part, k, r, ...]

    def bracket(a: tuple, b: tuple) -> Array:
        """[A, B] at every row of two real fields, each named by (part, k)."""
        return np.einsum("ri,rik->rk", at_x[a], dz[b]) - np.einsum("ri,rik->rk", at_x[b], dz[a])

    worst, p_v = np.zeros(len(jet.x)), _vertical_projector(jet)
    for k in range(base.m):
        for l in range(k + 1, base.m):
            zw = ((bracket((0, k), (0, l)) - bracket((1, k), (1, l)))
                  + 1j * (bracket((0, k), (1, l)) + bracket((1, k), (0, l))))
            part01 = antiholomorphic_part(structure.j, (p_v @ zw[..., None])[..., 0])
            worst = np.maximum(worst, g_norm(jet.metric, part01))
    return worst.tolist()
