"""Operations attached to a smooth map between charts: differential, holomorphy,
horizontal conformality and dilation, second fundamental form and tension,
fibre geometry, superminimality, and lifted almost Hermitian structures on the
total space of a conformal submersion with 2-dimensional fibres.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import (CriticalPoint, EvaluationOutsideDomain, FibreDimension,
                     MissingStructure)
from .hermitian import (AlmostComplexField, g_norm, hermitian_frame_field, lee_vector,
                        nabla_j_tensor)
from .manifold import Chart, christoffel, gradient
from .numdiff import Array, DiffConfig, orthonormalize, project_out

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
    that orients 2-dimensional fibres for :func:`lift_structure`.
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
        return np.atleast_1d(np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float))


def differential(spec: MapSpec, x) -> Array:
    """The differential as a (target dim) x (source dim) array of partials."""
    x = spec.source.require_interior(x, spec.cfg)
    cols = [numdiff.partial(spec, x, j, spec.cfg, domain=spec.source.domain_predicate())
            for j in range(spec.source.dim)]
    return np.column_stack(cols)


def holomorphy_residual(spec: MapSpec, x) -> float:
    """Frobenius norm of dphi J - J_target(phi(x)) dphi."""
    if spec.source_structure is None or spec.target_structure is None:
        raise MissingStructure("holomorphy needs almost-complex structures on both charts")
    x = np.asarray(x, dtype=float)
    d = differential(spec, x)
    j_src = spec.source_structure(x)
    j_tgt = spec.target_structure(spec(x))
    return float(np.linalg.norm(d @ j_src - j_tgt @ d))


@dataclass(frozen=True)
class ConformalityData:
    """Pointwise horizontal-conformality report.

    ``kind`` is ``regular`` (full rank onto the target), ``critical`` (rank 0)
    or ``degenerate`` (intermediate rank, reported as conformality failure).
    ``dilation`` is positive exactly on regular points.  ``differential`` is
    the differential the split was computed from.
    """

    kind: str
    dilation: float
    conformality_residual: float
    vertical_basis: tuple
    horizontal_basis: tuple
    singular_values: Array
    differential: Array
    near_critical: bool = False

    @property
    def regular(self) -> bool:
        return self.kind == KIND_REGULAR


def _rank_split(spec: MapSpec, x) -> tuple[Array, Array, Array, Array, int]:
    """The differential d at x, the source metric g, the singular values and
    right singular vectors (rows of vt) of d, and its rank.

    Singular values at most sigma_max * RANK_FACTOR count as zero, so the rows
    ``vt[rank:]`` span ker dphi and ``vt[:rank]`` its Euclidean complement.
    """
    x = np.asarray(x, dtype=float)
    d = differential(spec, x)
    g = spec.source.metric(x, spec.cfg)
    _, sv, vt = np.linalg.svd(d)
    smax = float(sv[0]) if len(sv) else 0.0
    rank = int(np.sum(sv > smax * RANK_FACTOR)) if smax > 0 else 0
    return d, g, sv, vt, rank


def conformality(spec: MapSpec, x) -> ConformalityData:
    """Split T_x into ker dphi and its g-orthogonal complement and measure how
    conformal dphi is on the horizontal part."""
    x = np.asarray(x, dtype=float)
    d, g, sv, vt, rank = _rank_split(spec, x)
    n = d.shape[0]
    if rank == 0:
        vertical = orthonormalize(list(vt), g)
        return ConformalityData(KIND_CRITICAL, 0.0, 0.0, vertical.vectors, (), sv, d)
    smax = float(sv[0])
    v_vectors = orthonormalize(list(vt[rank:]), g).vectors if rank < len(vt) else ()
    # Horizontal = g-orthogonal complement of the kernel: project each row-space
    # vector off the kernel first and the earlier horizontal vectors second.
    horiz: list[Array] = []
    for w in vt[:rank]:
        u = project_out(w, v_vectors + tuple(horiz), g)
        nn = np.sqrt(max(u @ g @ u, 0.0))
        if nn > numdiff.RANK_RTOL * max(1.0, smax):
            horiz.append(u / nn)
    h_tgt = spec.target.metric(spec(x), spec.cfg)
    img = np.column_stack([d @ u for u in horiz]) if horiz else np.zeros((n, 0))
    gram = img.T @ h_tgt @ img
    lam_sq = float(np.mean(np.diag(gram))) if gram.size else 0.0
    padded = np.zeros((n, n))
    padded[: gram.shape[0], : gram.shape[1]] = gram
    residual = float(np.linalg.norm(padded - lam_sq * np.eye(n)))
    if rank < n:
        return ConformalityData(KIND_DEGENERATE, 0.0, residual, v_vectors, tuple(horiz),
                                sv, d)
    near = bool(sv[rank - 1] <= NEAR_CRITICAL_FACTOR * (smax * RANK_FACTOR))
    lam = float(np.sqrt(max(lam_sq, 0.0)))
    return ConformalityData(KIND_REGULAR, lam, residual, v_vectors, tuple(horiz), sv, d,
                            near)


def sff_tensor(spec: MapSpec, x) -> Array:
    """All components of nabla dphi at x, shape (d, d, n)."""
    x = np.asarray(x, dtype=float)
    cfg = spec.cfg
    dim = spec.source.dim
    fx = spec(x)
    spec.target.require_interior(fx, cfg)
    d = differential(spec, x)
    gamma_m = christoffel(spec.source, x, cfg).symbols
    gamma_n = christoffel(spec.target, fx, cfg).symbols
    out = np.zeros((dim, dim, spec.target.dim))
    for i in range(dim):
        for j in range(i, dim):
            d2 = numdiff.second_partial(spec, x, i, j, cfg,
                                        domain=spec.source.domain_predicate())
            val = (d2 - np.einsum("k,gk->g", gamma_m[:, i, j], d)
                   + np.einsum("gab,a,b->g", gamma_n, d[:, i], d[:, j]))
            out[i, j] = val
            out[j, i] = val
    return out


def tension(spec: MapSpec, x) -> Array:
    """Tension field tau = g^{ij} (nabla dphi)_{ij} at x."""
    x = np.asarray(x, dtype=float)
    g_inv = spec.source.metric_inverse(x, spec.cfg)
    return np.einsum("ij,ijg->g", g_inv, sff_tensor(spec, x))


def lee_pushforward(spec: MapSpec, x) -> Array:
    """dphi(J div J) at x, the push-forward of the source's Lee-type field; the
    tension identity reads tau = -dphi(J div J)."""
    if spec.source_structure is None:
        raise MissingStructure("the Lee push-forward needs an almost-complex structure "
                               "on the source")
    x = np.asarray(x, dtype=float)
    lee = lee_vector(spec.source, spec.source_structure, x, spec.cfg)
    return differential(spec, x) @ lee


def tension_in_frame(spec: MapSpec, x, frame_vectors: Sequence[Array]) -> Array:
    """Tension summed explicitly over a g-orthonormal frame (frame-independence probe)."""
    x = np.asarray(x, dtype=float)
    sff = sff_tensor(spec, x)
    out = np.zeros(spec.target.dim)
    for u in frame_vectors:
        out = out + np.einsum("i,j,ijg->g", u, u, sff)
    return out


def _vertical_projector(spec: MapSpec, x, split=None) -> Array:
    """g-orthogonal projector onto ker dphi at x (basis independent, smooth).

    ``split`` reuses a :func:`_rank_split` already computed at x.
    """
    _, g, _, vt, rank = _rank_split(spec, x) if split is None else split
    null = vt[rank:].T
    if null.shape[1] == 0:
        return np.zeros((spec.source.dim, spec.source.dim))
    return null @ np.linalg.solve(null.T @ g @ null, null.T @ g)


def vertical_frame_field(spec: MapSpec, base_x) -> Callable[[Array], Array]:
    """Smooth g-orthonormal vertical frame near base_x, as a matrix field whose
    columns are the frame vectors.

    Fixed coordinate axes (chosen at the base point by largest vertical
    projection, ties broken by index) are pushed through the pointwise
    ker-dphi projector and orthonormalized in the metric; the construction is
    deterministic and smooth wherever the projections stay independent.
    Raises ``CriticalPoint`` when base_x is not a regular point.
    """
    base_x = np.asarray(base_x, dtype=float)
    split = _rank_split(spec, base_x)
    _, g0, _, _, rank = split
    if rank < spec.target.dim:
        raise CriticalPoint(f"no vertical frame at non-regular point {base_x!r}")
    k = spec.source.dim - spec.target.dim
    p_v = _vertical_projector(spec, base_x, split)
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

    def frame_at(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        split = _rank_split(spec, x)
        p = _vertical_projector(spec, x, split)
        return orthonormalize([p[:, i] for i in axes], split[1], required=k).matrix

    return frame_at


def fibre_mean_curvature(spec: MapSpec, x) -> Array:
    """Horizontal part of sum_a nabla_{v_a} v_a over a vertical frame; the zero
    vector exactly when the fibre is minimal at x."""
    x = np.asarray(x, dtype=float)
    cfg = spec.cfg
    dim = spec.source.dim
    field = vertical_frame_field(spec, x)
    gamma = christoffel(spec.source, x, cfg).symbols
    frame = field(x)
    # dframe[i, :, a] is the i-th partial derivative of the a-th frame vector.
    dframe = np.stack([numdiff.partial(field, x, i, cfg) for i in range(dim)])
    total = np.zeros(dim)
    for a in range(frame.shape[1]):
        v, dv = frame[:, a], dframe[:, :, a]
        total = total + np.einsum("i,ik->k", v, dv) + np.einsum("kij,i,j->k", gamma, v, v)
    p_v = _vertical_projector(spec, x)
    return total - p_v @ total


def homothety_residual(spec: MapSpec, points: Sequence[Array]) -> float:
    """max over the points of |dphi(grad lambda^2)| in the target metric."""
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        conf = conformality(spec, x)
        if not conf.regular:
            raise CriticalPoint(f"homothety residual needs regular samples, got {conf.kind}")

        def lam_sq(p: Array) -> float:
            c = conformality(spec, p)
            if not c.regular:
                raise CriticalPoint(f"dilation field hit a non-regular stencil point {p!r}")
            return c.dilation**2

        grad = gradient(spec.source, lam_sq, x, spec.cfg)
        h = spec.target.metric(spec(x), spec.cfg)
        worst = max(worst, g_norm(h, conf.differential @ grad))
    return worst


def superminimality_residual(spec: MapSpec, j_field: AlmostComplexField, x,
                             probes: Sequence[Array] | None = None) -> float:
    """max over vertical frame vectors V and probe vectors Y of |(nabla_V J) Y|."""
    x = np.asarray(x, dtype=float)
    conf = conformality(spec, x)
    if not conf.regular:
        raise CriticalPoint(f"superminimality needs a regular point, got {conf.kind}")
    g = spec.source.metric(x, spec.cfg)
    t = nabla_j_tensor(spec.source, j_field, x, spec.cfg)
    if probes is None:
        probes = []
        for i in range(spec.source.dim):
            e = np.zeros(spec.source.dim)
            e[i] = 1.0
            probes.append(e / np.sqrt(g[i, i]))
    worst = 0.0
    for v in conf.vertical_basis:
        for y in probes:
            val = np.einsum("ikj,i,j->k", t, v, y)
            worst = max(worst, g_norm(g, val))
    return worst


def _lift_matrix(spec: MapSpec, x) -> tuple[Array, Array, tuple, Array]:
    """Horizontal-lift operator L with dphi L = id and image H, plus split data."""
    conf = conformality(spec, x)
    if not conf.regular:
        raise CriticalPoint(f"horizontal lift needs a regular point, got {conf.kind}")
    d = conf.differential
    a = np.column_stack(conf.horizontal_basis)
    lift = a @ np.linalg.inv(d @ a)
    return lift, d, conf.vertical_basis, a


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
        x = np.asarray(x, dtype=float)
        g = spec.source.metric(x, spec.cfg)
        lift, d, v_basis, _ = _lift_matrix(spec, x)
        if len(v_basis) != 2:
            raise FibreDimension(f"lift needs 2-dimensional fibres, got {len(v_basis)}")
        v1, v2 = v_basis
        omega = np.asarray(spec.fibre_orientation(x), dtype=float)
        signed = float(v1 @ omega @ v2)
        if abs(signed) < 1e-12:
            raise ValueError("fibre orientation form is degenerate on the fibre")
        sigma = orientation * np.sign(signed)
        rot = sigma * (np.outer(v2, g @ v1) - np.outer(v1, g @ v2))
        j_tgt = spec.target_structure(spec(x))
        return lift @ j_tgt @ d + rot

    return AlmostComplexField(spec.source, j_at, source="lifted")


def condition_ii_residual(spec: MapSpec, j_field: AlmostComplexField,
                          points: Sequence[Array]) -> float:
    """max (0,1)-part norm of the vertical component of [Z, W] over pairs of
    horizontal (1,0) frame fields built by the horizontal-lift construction."""
    if spec.target_structure is None:
        raise MissingStructure("condition (ii) needs the target structure")
    from .manifold import lie_bracket
    from .hermitian import antiholomorphic_part
    from .manifold import VectorField

    cfg = spec.cfg
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        g = spec.source.metric(x, cfg)
        conf = conformality(spec, x)
        if not conf.regular:
            raise CriticalPoint(f"condition (ii) needs regular samples, got {conf.kind}")
        frame_at, base = hermitian_frame_field(spec.target, spec.target_structure, spec(x), cfg)
        m = base.m
        if m < 2:
            continue
        cache: dict = {}  # the four lifted fields share the split at each stencil point

        def split_at(p: Array):
            key = p.tobytes()
            if key not in cache:
                lift, _, _, _ = _lift_matrix(spec, p)
                cache[key] = (lift, frame_at(spec(p)).complex_frame)
            return cache[key]

        def lifted(p: Array, k: int, part: str) -> Array:
            p = np.asarray(p, dtype=float)
            lift, zs = split_at(p)
            comp = np.real(zs[k]) if part == "re" else np.imag(zs[k])
            return lift @ comp

        p_v = _vertical_projector(spec, x)
        for k in range(m):
            for l in range(k + 1, m):
                fields = {}
                for idx, part in ((k, "re"), (k, "im"), (l, "re"), (l, "im")):
                    fields[(idx, part)] = VectorField(
                        spec.source, lambda p, idx=idx, part=part: lifted(p, idx, part))
                ac = lie_bracket(fields[(k, "re")], fields[(l, "re")], x, cfg)
                bd = lie_bracket(fields[(k, "im")], fields[(l, "im")], x, cfg)
                ad = lie_bracket(fields[(k, "re")], fields[(l, "im")], x, cfg)
                bc = lie_bracket(fields[(k, "im")], fields[(l, "re")], x, cfg)
                bracket = (ac - bd) + 1j * (ad + bc)
                vert = p_v @ bracket
                part01 = antiholomorphic_part(j_field(x), vert)
                worst = max(worst, g_norm(g, part01))
    return worst
