"""Operations attached to a smooth map between charts: differential, holomorphy,
horizontal conformality and dilation, second fundamental form and tension,
fibre geometry, superminimality, and lifted almost Hermitian structures on the
total space of a conformal submersion with 2-dimensional fibres.

Every pointwise operator reads a :class:`PointJet` (x, Dphi from one
:func:`differential` stencil, the source metric g and the one-SVD rank split
of Dphi), which :func:`point_jet` builds once per (map, point) for callers to
pass down.  Jets are also built at the stencil points of the vertical frame
field, the dilation gradient and the lifted structure, so a jet holds only what
those read: h(phi(x)), Christoffel symbols, D^2 phi and phi(x) stay out.

A :class:`MapSpec`'s ``fn`` maps a (k, source dim) stack of points to the
(k, target dim) stack of their images; a single point is passed as one row, so
:func:`differential` and :func:`sff_tensor` each evaluate the map once, on one
stencil.  Each :class:`MapSpec` memoizes per point phi(x) (per row: a stack
evaluates only its missing rows), the parts of its :func:`point_jet`, its
:func:`conformality` data and its horizontal-lift matrix (see
``numdiff.memoized`` for the contract).  The jet's parts, not the jet, are
stored, because a jet refers to its map and would tie it into a reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import CriticalPoint, FibreDimension, MissingStructure
from .hermitian import (AlmostComplexField, StructureJet, antiholomorphic_part, g_norm,
                        hermitian_frame, lee_vector, nabla_J, require_almost_hermitian,
                        structure_jet, unit_axes)
from .manifold import Chart, christoffel, gradient
from .numdiff import (Array, DiffConfig, as_stack, memoized, memoized_rows, orthonormalize,
                      project_out)

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
    ``fibre_orientation`` supplies the antisymmetric 2-form (as a matrix field)
    that orients 2-dimensional fibres for :func:`lift_structure`.  An ``fn``
    that returns anything but (k, target dim) for k rows raises ``WrongDimension``.
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
    """The differential as a (target dim) x (source dim) array of partials."""
    x = spec.source.require_interior(x, spec.cfg)
    return np.ascontiguousarray(
        numdiff.partial(spec, x, spec.cfg, domain=spec.source.contains).T)


@dataclass(frozen=True)
class PointJet:
    """Dphi(x), the source metric g(x) and the SVD of Dphi at one point.

    Singular values at most sigma_max * RANK_FACTOR count as zero, so the rows
    ``vt[rank:]`` span ker dphi and ``vt[:rank]`` its Euclidean complement.
    """

    spec: MapSpec
    x: Array
    differential: Array
    metric: Array
    singular_values: Array
    vt: Array
    rank: int


def point_jet(spec: MapSpec, x) -> PointJet:
    """Differentiate the map at x once and split the differential by rank."""
    x = np.asarray(x, dtype=float)
    return PointJet(spec, *memoized(spec._memo, ("jet", x.tobytes()),
                                    lambda: _jet_parts(spec, x)))


def _jet_parts(spec: MapSpec, x: Array) -> tuple:
    d = differential(spec, x)
    g = spec.source.metric(x, spec.cfg)
    _, sv, vt = np.linalg.svd(d)
    smax = float(sv[0]) if len(sv) else 0.0
    rank = int(np.sum(sv > smax * RANK_FACTOR)) if smax > 0 else 0
    return x.copy(), d, g, sv, vt, rank


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


def conformality(jet: PointJet) -> ConformalityData:
    """Split T_x into ker dphi and its g-orthogonal complement and measure how
    conformal dphi is on the horizontal part."""
    return memoized(jet.spec._memo, ("conformality", jet.x.tobytes()),
                    lambda: _conformality(jet))


def _conformality(jet: PointJet) -> ConformalityData:
    spec, d, g, sv, vt, rank = (jet.spec, jet.differential, jet.metric,
                                jet.singular_values, jet.vt, jet.rank)
    n = d.shape[0]
    if rank == 0:
        return ConformalityData(KIND_CRITICAL, 0.0, 0.0, orthonormalize(list(vt), g), ())
    smax = float(sv[0])
    v_vectors = orthonormalize(list(vt[rank:]), g) if rank < len(vt) else ()
    # Horizontal = g-orthogonal complement of the kernel: project each row-space
    # vector off the kernel first and the earlier horizontal vectors second.
    horiz: list[Array] = []
    for w in vt[:rank]:
        u = project_out(w, v_vectors + tuple(horiz), g)
        nn = np.sqrt(max(u @ g @ u, 0.0))
        if nn > numdiff.RANK_RTOL * max(1.0, smax):
            horiz.append(u / nn)
    h_tgt = spec.target.metric(spec(jet.x), spec.cfg)
    img = np.column_stack([d @ u for u in horiz]) if horiz else np.zeros((n, 0))
    gram = img.T @ h_tgt @ img
    lam_sq = float(np.mean(np.diag(gram))) if gram.size else 0.0
    padded = np.zeros((n, n))
    padded[: gram.shape[0], : gram.shape[1]] = gram
    residual = float(np.linalg.norm(padded - lam_sq * np.eye(n)))
    if rank < n:
        return ConformalityData(KIND_DEGENERATE, 0.0, residual, v_vectors, tuple(horiz))
    near = bool(sv[rank - 1] <= NEAR_CRITICAL_FACTOR * (smax * RANK_FACTOR))
    lam = float(np.sqrt(max(lam_sq, 0.0)))
    return ConformalityData(KIND_REGULAR, lam, residual, v_vectors, tuple(horiz), near)


def sff_tensor(jet: PointJet) -> Array:
    """All components of nabla dphi at the jet's point, shape (d, d, n)."""
    spec, x, d, cfg = jet.spec, jet.x, jet.differential, jet.spec.cfg
    fx = spec(x)
    spec.target.require_interior(fx, cfg)
    gamma_m = christoffel(spec.source, x, cfg)
    gamma_n = christoffel(spec.target, fx, cfg)
    out = (numdiff.second_partial(spec, x, cfg, domain=spec.source.contains)
           - np.einsum("kij,gk->ijg", gamma_m, d) + np.einsum("gab,ai,bj->ijg", gamma_n, d, d))
    i, j = np.tril_indices(spec.source.dim, -1)
    out[i, j] = out[j, i]  # the upper triangle mirrored: symmetric bit for bit
    return out


def tension(jet: PointJet) -> Array:
    """Tension field tau = g^{ij} (nabla dphi)_{ij} at the jet's point."""
    g_inv = jet.spec.source.metric_inverse(jet.x, jet.spec.cfg)
    return np.einsum("ij,ijg->g", g_inv, sff_tensor(jet))


def lee_pushforward(jet: PointJet) -> Array:
    """dphi(J div J) at the jet's point, the push-forward of the source's
    Lee-type field; the tension identity reads tau = -dphi(J div J)."""
    spec = jet.spec
    if spec.source_structure is None:
        raise MissingStructure("the Lee push-forward needs an almost-complex structure "
                               "on the source")
    lee = lee_vector(structure_jet(spec.source, spec.source_structure, jet.x, spec.cfg))
    return jet.differential @ lee


def tension_in_frame(jet: PointJet, frame_vectors: Sequence[Array]) -> Array:
    """Tension summed explicitly over a g-orthonormal frame.

    The test oracle for :func:`tension` (frame independence of the trace);
    no scenario calls it.
    """
    sff = sff_tensor(jet)
    out = np.zeros(jet.spec.target.dim)
    for u in frame_vectors:
        out = out + np.einsum("i,j,ijg->g", u, u, sff)
    return out


def _vertical_projector(jet: PointJet) -> Array:
    """g-orthogonal projector onto ker dphi at the jet's point (basis
    independent, smooth)."""
    null = jet.vt[jet.rank:].T
    if null.shape[1] == 0:
        return np.zeros((jet.spec.source.dim, jet.spec.source.dim))
    g = jet.metric
    return null @ np.linalg.solve(null.T @ g @ null, null.T @ g)


def vertical_frame_field(jet: PointJet) -> Callable[[PointJet], Array]:
    """Smooth g-orthonormal vertical frame near the jet's point: a function
    from the jet at a nearby point to the frame there, as a matrix whose
    columns are the frame vectors.

    Fixed coordinate axes (chosen at the base point by largest vertical
    projection, ties broken by index) are pushed through the pointwise
    ker-dphi projector and orthonormalized in the metric; the construction is
    deterministic and smooth wherever the projections stay independent.
    Raises ``CriticalPoint`` when the base point is not a regular point.
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
        return np.column_stack(orthonormalize([p[:, i] for i in axes], at.metric, required=k))

    return frame_at


def fibre_mean_curvature(jet: PointJet) -> Array:
    """Horizontal part of sum_a nabla_{v_a} v_a over a vertical frame; the zero
    vector exactly when the fibre is minimal at the jet's point."""
    spec, x = jet.spec, jet.x
    cfg = spec.cfg
    dim = spec.source.dim
    frame_at = vertical_frame_field(jet)
    gamma = christoffel(spec.source, x, cfg)
    frame = frame_at(jet)
    # dframe[i, :, a] is the i-th partial derivative of the a-th frame vector.
    dframe = numdiff.partial(numdiff.by_row(lambda p: frame_at(point_jet(spec, p))), x, cfg)
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

        def lam_sq(p: Array) -> float:
            c = conformality(point_jet(spec, p))
            if not c.regular:
                raise CriticalPoint(f"dilation field hit a non-regular stencil point {p!r}")
            return c.dilation**2

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
    """Horizontal-lift operator L with dphi L = id and image H, at the jet's point."""
    def compute() -> Array:
        conf = conformality(jet)
        if not conf.regular:
            raise CriticalPoint(f"horizontal lift needs a regular point, got {conf.kind}")
        a = np.column_stack(conf.horizontal_basis)
        return a @ np.linalg.inv(jet.differential @ a)

    return memoized(jet.spec._memo, ("lift", jet.x.tobytes()), compute)


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

    def j_at(x: Array) -> Array:
        jet = point_jet(spec, x)
        lift = _lift_matrix(jet)
        v_basis, g = conformality(jet).vertical_basis, jet.metric
        if len(v_basis) != 2:
            raise FibreDimension(f"lift needs 2-dimensional fibres, got {len(v_basis)}")
        v1, v2 = v_basis
        omega = np.asarray(spec.fibre_orientation(jet.x), dtype=float)
        signed = float(v1 @ omega @ v2)
        if abs(signed) < 1e-12:
            raise ValueError("fibre orientation form is degenerate on the fibre")
        sigma = orientation * np.sign(signed)
        rot = sigma * (np.outer(v2, g @ v1) - np.outer(v1, g @ v2))
        j_tgt = spec.target_structure(spec(jet.x))
        return lift @ j_tgt @ jet.differential + rot

    return AlmostComplexField(spec.source, numdiff.by_row(j_at), source="lifted")


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
            """[Re, Im] of the horizontal lift of each Z_k, as [part, k, :]."""
            return np.array([[lift @ part(z) for z in zs] for part in (np.real, np.imag)])

        def lifted_at(stack: Array) -> Array:
            """The lifts at the rows, smooth near phi(x) (the base frame's pivots)."""
            zs = hermitian_frame(spec.target, spec.target_structure, spec(stack), cfg,
                                 base.pivots).complex_frame
            return np.stack([lifts(_lift_matrix(point_jet(spec, p)), [z[r] for z in zs])
                             for r, p in enumerate(stack)])

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
