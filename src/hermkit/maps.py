"""Operations attached to a smooth map between charts: differential, holomorphy,
horizontal conformality and dilation, second fundamental form and tension,
fibre geometry, superminimality, and lifted almost Hermitian structures on the
total space of a conformal submersion with 2-dimensional fibres.

Every pointwise operator reads a :class:`PointJet` (x, Dphi from one
:func:`differential` stencil, the source metric g and the one-SVD rank split
of Dphi), which :func:`point_jet` builds once per (map, point) for callers to
pass down.  Jets are also needed at every stencil point of the vertical frame
field, the dilation gradient and the lifted structure, so a jet holds only what
those read: h(phi(x)), Christoffel symbols, D^2 phi and phi(x) stay out.  Such
jets are built as one stack: :func:`point_jet`, :func:`differential` and
:func:`conformality` take a point or a (k, source dim) stack, a point being the
one-row case of the same code and each row equal to its point's bit for bit.
:func:`sff_tensor`, :func:`tension` and :func:`lee_pushforward` read such a
stacked jet too: one ``second_partial`` stencil and one stacked ``christoffel``
call on the source samples and one on their images serve all samples of a check.

A :class:`MapSpec`'s ``fn`` maps a (k, source dim) stack of points to the
(k, target dim) stack of their images; a single point is passed as one row, so
:func:`differential` and :func:`sff_tensor` each evaluate the map once, on one
stencil.  Each :class:`MapSpec` memoizes per point (per row: a stack computes
only its missing rows) phi(x), the parts of its :func:`point_jet`, its
:func:`conformality` data and its horizontal-lift matrix (see
``numdiff.memoized`` for the contract).  The jet's parts, not the jet, are
stored, because a jet refers to its map and would tie it into a reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import CriticalPoint, EvaluationOutsideDomain, FibreDimension, MissingStructure
from .hermitian import (AlmostComplexField, StructureJet, antiholomorphic_part, g_norm,
                        hermitian_frame, lee_vector, nabla_J, require_almost_hermitian,
                        structure_jet, unit_axes)
from .manifold import Chart, christoffel, gradient
from .numdiff import (Array, DiffConfig, as_stack, gram_schmidt, memoized, memoized_rows,
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
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, x) -> Array:
        """phi at a point, or at each row of a (k, source dim) stack."""
        return memoized_rows(self._memo, "phi", x, lambda stack: as_stack(
            self.fn(stack), stack, (self.target.dim,), f"map {self.name or '(unnamed)'}: fn"))


def differential(spec: MapSpec, x) -> Array:
    """The differential as a (target dim) x (source dim) array of partials, or their
    stack at the rows of a stack (one map call; errors are those of the first bad row)."""
    x = np.asarray(x, dtype=float)
    try:
        spec.source.require_interior(x, spec.cfg)
        d = numdiff.partial(spec, x, spec.cfg, domain=spec.source.contains)
    except EvaluationOutsideDomain:
        if x.ndim == 2:  # name the first row that fails alone
            for p in x:
                differential(spec, p)
        raise
    return np.ascontiguousarray(np.swapaxes(d, -1, -2))


@dataclass(frozen=True)
class PointJet:
    """Dphi(x), the source metric g(x) and the SVD of Dphi at one point, or
    their stacks (``rank`` an integer array) at the rows of a stack.

    Singular values at most sigma_max * RANK_FACTOR count as zero, so the rows
    ``vt[rank:]`` span ker dphi and ``vt[:rank]`` its Euclidean complement.
    """

    spec: MapSpec
    x: Array
    differential: Array
    metric: Array
    singular_values: Array
    vt: Array
    rank: int | Array


def point_jet(spec: MapSpec, x) -> PointJet:
    """Differentiate the map at x, or at each row of a stack x, once and split
    the differential by rank."""
    return PointJet(spec, *memoized_rows(spec._memo, "jet", x, lambda s: _jet_rows(spec, s),
                                         combine=lambda rows: map(np.stack, zip(*rows))))


def _jet_rows(spec: MapSpec, x: Array) -> tuple:
    """The jet parts at each row of a stack from one differential, one metric
    call and one batched SVD; the rank is decided per row."""
    x = np.array(x)
    d = differential(spec, x)
    g = spec.source.metric(x, spec.cfg)
    _, sv, vt = np.linalg.svd(d)
    smax = np.max(sv, axis=1, initial=0.0)
    rank = np.where(smax > 0, np.sum(sv > (smax * RANK_FACTOR)[:, None], axis=1), 0)
    return tuple(zip(x, d, g, sv, vt, rank.tolist()))


def _as_stack(jet: PointJet, rows=None) -> PointJet:
    """A point's jet as a one-row stack, or the rows ``rows`` of a stacked jet."""
    parts = (jet.x, jet.differential, jet.metric, jet.singular_values, jet.vt, jet.rank)
    return PointJet(jet.spec, *(np.asarray(p)[None] if rows is None else p[rows] for p in parts))


def _per_row(jet: PointJet, tag: str, compute: Callable[[PointJet], tuple], combine=np.stack):
    """A value memoized under ``(tag, x.tobytes())`` at the jet's point, or ``combine`` of
    them at its rows; ``compute`` maps a stacked jet of the rows not stored yet to theirs."""
    stack = _as_stack(jet) if jet.x.ndim == 1 else jet
    values = memoized(jet.spec._memo, [(tag, p.tobytes()) for p in stack.x],
                      lambda rows: compute(_as_stack(stack, rows)))
    return values[0] if jet.x.ndim == 1 else combine(values)


def holomorphy_residual(jet: PointJet) -> float:
    """Frobenius norm of dphi J - J_target(phi(x)) dphi; raises
    ``PreconditionFailed`` unless (g, J) is almost Hermitian at x and phi(x)."""
    spec = jet.spec
    if spec.source_structure is None or spec.target_structure is None:
        raise MissingStructure("holomorphy needs almost-complex structures on both charts")
    d, y = jet.differential, spec(jet.x)
    j_src = spec.source_structure(jet.x)
    j_tgt = spec.target_structure(y)
    require_almost_hermitian(jet.metric, j_src, jet.x)
    require_almost_hermitian(spec.target.metric(y, spec.cfg), j_tgt, y)
    return float(np.linalg.norm(d @ j_src - j_tgt @ d))


@dataclass(frozen=True)
class ConformalityData:
    """Pointwise horizontal-conformality report.

    ``kind`` is ``regular`` (full rank onto the target), ``critical`` (rank 0)
    or ``degenerate`` (intermediate rank, reported as conformality failure).
    ``dilation`` is positive exactly on regular points.
    """

    kind: str
    dilation: float
    conformality_residual: float
    vertical_basis: tuple
    horizontal_basis: tuple
    near_critical: bool = False

    @property
    def regular(self) -> bool:
        return self.kind == KIND_REGULAR


def conformality(jet: PointJet) -> ConformalityData | list[ConformalityData]:
    """Split T_x into ker dphi and its g-orthogonal complement and measure how
    conformal dphi is on the horizontal part; for a stacked jet, the list of
    the data at its rows."""
    return _per_row(jet, "conformality", _conformality, list)


def _conformality(jet: PointJet) -> tuple:
    """The split at the rows of a stacked jet: rows of equal rank run as one stack (sub-stacks
    where Gram-Schmidt keeps different vectors), with one target metric call for all."""
    spec, d, g, sv, vt = jet.spec, jet.differential, jet.metric, jet.singular_values, jet.vt
    n, out = d.shape[1], [None] * len(d)
    h_tgt, active = np.zeros((len(d), n, n)), jet.rank > 0
    if active.any():
        h_tgt[active] = spec.target.metric(spec(jet.x[active]), spec.cfg)
    for rank in sorted(set(jet.rank.tolist())):
        rows = np.flatnonzero(jet.rank == rank)
        kind = KIND_CRITICAL if rank == 0 else KIND_DEGENERATE if rank < n else KIND_REGULAR
        vertical = orthonormalize([vt[rows, i] for i in range(rank, vt.shape[1])], g[rows])
        # Horizontal = g-orthogonal complement of the kernel: project each row-space
        # vector off the kernel first and the earlier horizontal vectors second.
        tol = numdiff.RANK_RTOL * np.maximum(1.0, sv[rows, 0])
        for part, horiz in gram_schmidt([vt[rows, i] for i in range(rank)], g[rows], tol,
                                        vertical):
            at, h = rows[part], len(horiz)
            img = (np.stack([(d[at] @ u[:, :, None])[:, :, 0] for u in horiz], axis=-1)
                   if horiz else np.zeros((len(at), n, 0)))
            gram = np.swapaxes(img, 1, 2) @ h_tgt[at] @ img
            lam_sq = np.diagonal(gram, axis1=1, axis2=2).sum(axis=1) / max(h, 1)
            padded = np.zeros((len(at), n, n))
            padded[:, :h, :h] = gram
            flat = (padded - lam_sq[:, None, None] * np.eye(n)).reshape(len(at), 1, n * n)
            residual = np.sqrt(flat @ np.swapaxes(flat, 1, 2))[:, 0, 0].tolist()
            near = (sv[at, rank - 1] <= NEAR_CRITICAL_FACTOR * (sv[at, 0] * RANK_FACTOR)).tolist()
            lam = np.sqrt(np.maximum(lam_sq, 0.0)).tolist()
            for i, r in enumerate(at):
                regular = kind == KIND_REGULAR
                out[r] = ConformalityData(kind, lam[i] if regular else 0.0, residual[i],
                                          tuple(v[part[i]] for v in vertical),
                                          tuple(u[i] for u in horiz), regular and near[i])
    return tuple(out)


def sff_tensor(jet: PointJet) -> Array:
    """All components of nabla dphi at the jet's point, shape (d, d, n), or
    their stack at the rows of a stacked jet."""
    spec, x, d, cfg = jet.spec, jet.x, jet.differential, jet.spec.cfg
    fx = spec(x)
    spec.target.require_interior(fx, cfg)
    gamma_m = christoffel(spec.source, x, cfg)
    gamma_n = christoffel(spec.target, fx, cfg)
    out = (numdiff.second_partial(spec, x, cfg, domain=spec.source.contains)
           - np.einsum("...kij,...gk->...ijg", gamma_m, d)
           + np.einsum("...gab,...ai,...bj->...ijg", gamma_n, d, d))
    i, j = np.tril_indices(spec.source.dim, -1)
    out[..., i, j, :] = out[..., j, i, :]  # the upper triangle mirrored: symmetric bit for bit
    return out


def tension(jet: PointJet) -> Array:
    """Tension field tau = g^{ij} (nabla dphi)_{ij} at the jet's point, or its
    stack at the rows of a stacked jet."""
    g_inv = jet.spec.source.metric_inverse(jet.x, jet.spec.cfg)
    return np.einsum("...ij,...ijg->...g", g_inv, sff_tensor(jet))


def lee_pushforward(jet: PointJet) -> Array:
    """dphi(J div J) at the jet's point, the push-forward of the source's
    Lee-type field, or its stack at the rows of a stacked jet; the tension
    identity reads tau = -dphi(J div J)."""
    spec = jet.spec
    if spec.source_structure is None:
        raise MissingStructure("the Lee push-forward needs an almost-complex structure "
                               "on the source")
    lee = lee_vector(structure_jet(spec.source, spec.source_structure, jet.x, spec.cfg))
    return (jet.differential @ lee[..., None])[..., 0]


def _vertical_projector(jet: PointJet) -> Array:
    """g-orthogonal projector onto ker dphi at the jet's point, or at each row
    of a stacked jet (basis independent, smooth)."""
    stack = _as_stack(jet) if jet.x.ndim == 1 else jet
    out = np.zeros(stack.metric.shape)
    for rank in sorted(set(stack.rank[stack.rank < out.shape[-1]].tolist())):
        rows = np.flatnonzero(stack.rank == rank)
        null_t, g = stack.vt[rows, rank:], stack.metric[rows]
        null = np.swapaxes(null_t, 1, 2)
        out[rows] = null @ np.linalg.solve(null_t @ g @ null, null_t @ g)
    return out if jet.x.ndim == 2 else out[0]


def vertical_frame_field(jet: PointJet) -> Callable[[PointJet], Array]:
    """Smooth g-orthonormal vertical frame near the jet's point: a function
    from the jet at a nearby point to the frame there, as a matrix whose
    columns are the frame vectors.

    Fixed coordinate axes (chosen at the base point by largest vertical
    projection, ties broken by index) are pushed through the pointwise
    ker-dphi projector and orthonormalized in the metric; the construction is
    deterministic and smooth wherever the projections stay independent (a
    stacked jet gives the stack of frames; a 0-dimensional fibre, the empty
    frame).  Raises ``CriticalPoint`` when the base point is not regular.
    """
    spec = jet.spec
    if jet.rank < spec.target.dim:
        raise CriticalPoint(f"no vertical frame at non-regular point {jet.x!r}")
    k = spec.source.dim - spec.target.dim
    g0 = jet.metric
    p_v = _vertical_projector(jet)
    # Pivoted selection: each chosen axis must stay independent of the span of
    # the earlier ones, otherwise two axes with large but parallel vertical
    # projections would collapse the frame.
    axes: list[int] = []
    basis: list[Array] = []
    for _ in range(k):
        best, best_axis, best_vec = -1.0, -1, None
        for i in range(spec.source.dim):
            if i in axes:
                continue
            w = project_out(p_v[:, i], basis, g0)
            score = float(np.sqrt(max(w @ g0 @ w, 0.0)))
            if score > best:
                best, best_axis, best_vec = score, i, w
        if best <= numdiff.RANK_RTOL:
            raise CriticalPoint("vertical projections of the coordinate axes are degenerate")
        axes.append(best_axis)
        basis.append(best_vec / best)

    def frame_at(at: PointJet) -> Array:
        p = _vertical_projector(at)
        frame = orthonormalize([p[..., i] for i in axes], at.metric, required=k)
        return np.stack(frame, axis=-1) if k else np.zeros((*at.x.shape, 0))

    return frame_at


def fibre_mean_curvature(jet: PointJet) -> Array:
    """Horizontal part of sum_a nabla_{v_a} v_a over a vertical frame; the zero
    vector exactly when the fibre is minimal at the jet's point (0-dimensional
    fibres are)."""
    spec, x = jet.spec, jet.x
    cfg = spec.cfg
    dim = spec.source.dim
    frame_at = vertical_frame_field(jet)
    gamma = christoffel(spec.source, x, cfg)
    frame = frame_at(jet)
    # dframe[i, :, a] is the i-th partial derivative of the a-th frame vector.
    dframe = numdiff.partial(lambda stack: frame_at(point_jet(spec, stack)), x, cfg)
    total = np.zeros(dim)
    for a in range(frame.shape[1]):
        v, dv = frame[:, a], dframe[:, :, a]
        total = total + np.einsum("i,ik->k", v, dv) + np.einsum("kij,i,j->k", gamma, v, v)
    p_v = _vertical_projector(jet)
    return total - p_v @ total


def homothety_residual(jets: Sequence[PointJet]) -> float:
    """max over the samples of |dphi(grad lambda^2)| in the target metric."""
    worst = 0.0
    for jet in jets:
        conf = conformality(jet)
        if not conf.regular:
            raise CriticalPoint(f"homothety residual needs regular samples, got {conf.kind}")
        spec = jet.spec

        def lam_sq(stack: Array) -> Array:
            confs = conformality(point_jet(spec, stack))
            for p, c in zip(stack, confs):
                if not c.regular:
                    raise CriticalPoint(f"dilation field hit a non-regular stencil point {p!r}")
            return np.array([c.dilation**2 for c in confs])

        grad = gradient(spec.source, lam_sq, jet.x, spec.cfg)
        h = spec.target.metric(spec(jet.x), spec.cfg)
        worst = max(worst, g_norm(h, jet.differential @ grad))
    return worst


def superminimality_residual(jet: PointJet, structure: StructureJet) -> float:
    """max over vertical frame vectors V and unit coordinate axes Y of
    |(nabla_V J) Y|, from the map's jet and the source structure's jet at one
    point."""
    conf = conformality(jet)
    if not conf.regular:
        raise CriticalPoint(f"superminimality needs a regular point, got {conf.kind}")
    g, axes = structure.metric, unit_axes(structure.metric)
    return max([0.0, *(g_norm(g, nabla_J(structure, v, y))
                       for v in conf.vertical_basis for y in axes)])


def _lift_matrix(jet: PointJet) -> Array:
    """Horizontal-lift operator L with dphi L = id and image H, at the jet's
    point or at each row of a stacked jet."""
    def compute(stack: PointJet) -> Array:
        confs = conformality(stack)
        for conf in confs:
            if not conf.regular:
                raise CriticalPoint(f"horizontal lift needs a regular point, got {conf.kind}")
        a = np.stack([np.column_stack(conf.horizontal_basis) for conf in confs])
        return a @ np.linalg.inv(stack.differential @ a)

    return _per_row(jet, "lift", compute)


def lift_structure(spec: MapSpec, orientation: int) -> AlmostComplexField:
    """Lift the target structure through a horizontally conformal submersion with
    2-dimensional oriented fibres.

    On the horizontal space J = (dphi|_H)^{-1} J_target dphi|_H; on the fibre
    tangent it rotates by +90 degrees (orientation=+1) or -90 degrees in the
    metric, the sense fixed by the map's fibre orientation form.
    """
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    if spec.target_structure is None:
        raise MissingStructure("lift_structure needs an almost-complex structure on the target")
    if spec.fibre_orientation is None:
        raise MissingStructure("lift_structure needs a fibre orientation form on the map")

    def j_at(stack: Array) -> Array:
        """The lifted J at the rows of a stack, from their jets built as one stack."""
        jets = point_jet(spec, stack)
        lift = _lift_matrix(jets)
        confs = conformality(jets)
        dims = [len(conf.vertical_basis) for conf in confs if len(conf.vertical_basis) != 2]
        if dims:
            raise FibreDimension(f"lift needs 2-dimensional fibres, got {dims[0]}")
        v1, v2 = (np.stack(v) for v in zip(*(conf.vertical_basis for conf in confs)))
        omega = as_stack(spec.fibre_orientation(stack), stack, (spec.source.dim,) * 2,
                         f"map {spec.name or '(unnamed)'}: fibre_orientation")
        signed = (v1[:, None] @ omega @ v2[:, :, None])[:, 0, 0]
        if np.any(np.abs(signed) < 1e-12):
            raise ValueError("fibre orientation form is degenerate on the fibre")
        sigma = (orientation * np.sign(signed))[:, None, None]
        g_v1, g_v2 = ((jets.metric @ v[:, :, None])[:, :, 0] for v in (v1, v2))
        rot = sigma * (v2[:, :, None] * g_v1[:, None] - v1[:, :, None] * g_v2[:, None])
        j_tgt = spec.target_structure(spec(stack))
        return lift @ j_tgt @ jets.differential + rot

    return AlmostComplexField(spec.source, j_at, source="lifted")


def condition_ii_residual(samples: Sequence[tuple]) -> float:
    """max (0,1)-part norm of the vertical component of [Z, W] over pairs of
    horizontal (1,0) frame fields built by the horizontal-lift construction.

    ``samples`` holds (map jet, source structure jet) per point.
    """
    worst = 0.0
    for jet, structure in samples:
        spec, x, cfg = jet.spec, jet.x, jet.spec.cfg
        if spec.target_structure is None:
            raise MissingStructure("condition (ii) needs the target structure")
        conf = conformality(jet)
        if not conf.regular:
            raise CriticalPoint(f"condition (ii) needs regular samples, got {conf.kind}")
        base = hermitian_frame(spec.target, spec.target_structure, spec(x), cfg)
        m = base.m
        if m < 2:
            continue

        def lifts(lift: Array, zs: tuple) -> Array:
            """[Re, Im] of the horizontal lift of each Z_k, as [..., part, k, :]."""
            parts = np.stack([np.stack([f(z) for z in zs], -2) for f in (np.real, np.imag)], -3)
            return (lift[..., None, None, :, :] @ parts[..., None])[..., 0]

        def lifted_at(stack: Array) -> Array:
            """The lifts at the rows, smooth near phi(x) (the base frame's pivots)."""
            zs = hermitian_frame(spec.target, spec.target_structure, spec(stack), cfg,
                                 base.pivots).complex_frame
            return lifts(_lift_matrix(point_jet(spec, stack)), zs)

        # dz[part, k, i, :] = d_i of that part of the lifted Z_k, one stencil for all; each
        # (part, k) slice is C-contiguous, as in manifold.lie_bracket, so brackets match it
        dz = np.ascontiguousarray(np.moveaxis(numdiff.partial(lifted_at, x, cfg), 0, 2))
        at_x = lifts(_lift_matrix(jet), base.complex_frame)

        def bracket(a: tuple, b: tuple) -> Array:
            """[A, B] of two real fields, each named by (part, k)."""
            return (np.einsum("i,ik->k", at_x[a], dz[b])
                    - np.einsum("i,ik->k", at_x[b], dz[a]))

        p_v = _vertical_projector(jet)
        for k in range(m):
            for l in range(k + 1, m):
                zw = ((bracket((0, k), (0, l)) - bracket((1, k), (1, l)))
                      + 1j * (bracket((0, k), (1, l)) + bracket((1, k), (0, l))))
                part01 = antiholomorphic_part(structure.j, p_v @ zw)
                worst = max(worst, g_norm(jet.metric, part01))
    return worst
