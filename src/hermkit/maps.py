"""Operations attached to a smooth map between charts: differential, holomorphy,
horizontal conformality and dilation, second fundamental form and tension,
fibre geometry, superminimality, and lifted almost Hermitian structures on the
total space of a conformal submersion with 2-dimensional fibres.

Points are (k, source dim) stacks, one point per row (a point is its one-row
stack), and a 1-D point raises ``WrongDimension``.  Every operator reads a
:class:`PointJet` (x, Dphi from one :func:`differential` stencil, the source
metric g, and the singular values and rank of Dphi from one batched SVD) at
the rows of such a stack and returns one value per row, each row as alone, bit
for bit.  No basis of the fibre or of its complement is built: conformality, the
horizontal lift, the vertical projector, the lifted J and superminimality are
read from the co-metric Dphi g^-1 Dphi^T (Baird & Wood 2003).  A map check
builds one with :func:`point_jet` for all its samples at its ``DiffConfig``,
which the jet holds (``jet.cfg``) for every operator that differences; a check
that differences on their stencil points builds it with ``stencil=True``, which
runs the one differential, metric call and SVD on the samples and then their
stencil points and returns the jet at the samples holding the jet at the
stencil points, ``jet.stencil``.  Its other parts follow the ``numdiff.Jet`` convention: phi(x),
the :func:`conformality` data, the horizontal lift, the vertical projector and
one ``hermitian.StructureJet`` per side, ``jet.source`` at x (its Christoffel
symbols from the stencil jet's g when it holds one) and ``jet.target`` at
phi(x), on h there, the one owner of that side's g, J and their derivatives.
The third-order operators difference a part of ``jet.stencil``: the vertical
projector (:func:`fibre_mean_curvature`), lambda^2
(:func:`homothety_residual`), the lifted J or the lifted (1,0)-parts of the
target's unit axes (:func:`lifted_structure_jet`, :func:`condition_ii_residual`);
:func:`sff_tensor` and :func:`tension` take one ``second_partial`` stencil for
all its samples and the Christoffel symbols of both sides.

A :class:`MapSpec`'s ``fn`` maps a (k, source dim) stack of points to the
(k, target dim) stack of their images.  Nothing is cached by point: phi is
evaluated on the stack it is asked for, and a check passes the jet it holds
instead of asking again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable

import numpy as np

from . import numdiff
from .errors import CriticalPoint, FibreDimension, MissingStructure
from .hermitian import (SQRT2, AlmostComplexField, StructureJet, antiholomorphic_part,
                        apply_j, g_norm, lee_vector, require_almost_hermitian, unit_axes)
from .manifold import Chart, christoffel, invert_metric
from .numdiff import Array, DiffConfig, as_points, as_stack

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
    """A chart-to-chart coordinate map; a check's jets hold its ``DiffConfig``.

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
    source_structure: AlmostComplexField | None = None
    target_structure: AlmostComplexField | None = None
    fibre_orientation: Callable[[Array], Array] | None = None
    name: str = ""

    def __call__(self, x) -> Array:
        """phi at each row of x."""
        x = as_points(x)
        return as_stack(self.fn(x), x, (self.target.dim,), f"map {self.name or '(unnamed)'}: fn")


def differential(spec: MapSpec, x, cfg: DiffConfig) -> Array:
    """The stack of differentials, (target dim) x (source dim) arrays of partials,
    at the rows of x, from one map call once the source's interior check has
    accepted every row: a row outside raises before phi is evaluated at any."""
    d = numdiff.partial(spec, spec.source.require_interior(x, cfg), cfg)
    return np.ascontiguousarray(np.swapaxes(d, -1, -2))


@dataclass(frozen=True, eq=False)
class PointJet(numdiff.Jet):
    """A ``numdiff.Jet`` at the rows of x, differenced with ``cfg``: Dphi(x), g(x)
    and the singular values of Dphi, with ``rank`` an integer array, held; phi
    (``image``), the co-metric Dphi g^-1 Dphi^T (``cometric``), the
    :func:`conformality` data (``split``), the :func:`_lift_matrix` (``lift``, NaN
    at rows of rank below the target dimension), the :func:`_vertical_projector`
    (``projector``, differenced by the fibre mean curvature) and the structure
    jets of the two sides, ``source`` at x on the jet's g and ``target`` at phi(x)
    on h there, built from them.

    Singular values at most sigma_max * RANK_FACTOR count as zero.
    """

    spec: MapSpec
    x: Array
    cfg: DiffConfig

    differential = numdiff.part()
    metric = numdiff.part()
    singular_values = numdiff.part()
    rank = numdiff.part()
    cometric = numdiff.part(lambda jet: jet.differential @ jet.source.metric_inverse
                            @ np.swapaxes(jet.differential, 1, 2))
    # the builders are looked up when called, so a wrapper on the module function runs
    split = numdiff.part(lambda jet: conformality(jet))
    lift = numdiff.part(lambda jet: _lift_matrix(jet))
    projector = numdiff.part(lambda jet: _vertical_projector(jet))
    image = numdiff.part(lambda jet: jet.spec(jet.x))
    source = numdiff.part(lambda jet: _source_jet(jet))
    target = numdiff.part(lambda jet: StructureJet(
        jet.spec.target, jet.spec.target_structure, jet.image, jet.cfg,
        held={"metric": jet.spec.target.metric(jet.image)}))

    @cached_property
    def stencil(self) -> PointJet:
        """The jet at the ``numdiff.stencil`` points of the jet's rows (one block of
        points per row, in order): of a taken jet, its rows' blocks of its root's
        stencil jet; else the held one, or one built for them."""
        if self.whole is not None:
            root, rows = self.whole
            return root.stencil[_blocks(rows, len(root.stencil.x) // len(root.x))]
        return self.held.get("stencil") or point_jet(
            self.spec, numdiff.stencil(self.x, self.cfg).reshape(-1, self.x.shape[1]), self.cfg)


def _source_jet(jet: PointJet) -> StructureJet:
    """The source structure jet of a jet on its g; one that holds its stencil jet
    also holds g^-1 and the Christoffel symbols from its g and the stencil jet's."""
    spec, held = jet.spec, {"metric": jet.metric}
    if "stencil" in jet.held:
        g_inv = invert_metric(jet.metric, jet.x)
        dg = numdiff.difference(jet.stencil.metric, jet.x, jet.cfg)
        held.update(metric_inverse=g_inv, gamma=christoffel(g_inv, dg))
    return StructureJet(spec.source, spec.source_structure, jet.x, jet.cfg, held=held)


def _blocks(rows, per: int) -> Array:
    """The stencil rows of the rows ``rows`` when each row has a block of ``per``."""
    return (np.asarray(rows, dtype=int)[:, None] * per + np.arange(per)).ravel()


def point_jet(spec: MapSpec, x, cfg: DiffConfig, stencil: bool = False) -> PointJet:
    """Differentiate the map with ``cfg`` at each row of x once and split the
    differential by rank: one :func:`differential`, one source metric call and one
    batched SVD, the rank decided per row (phi and h at first read).  With
    ``stencil`` these run on the rows of x and then its ``numdiff.stencil``
    points, and the jet at x's rows holds the jet at the stencil points."""
    x = np.array(as_points(x))
    rows = (np.concatenate([x, numdiff.stencil(x, cfg).reshape(-1, x.shape[1])])
            if stencil else x)
    d = differential(spec, rows, cfg)
    g = spec.source.metric(rows)
    sv = np.linalg.svd(d, compute_uv=False)
    smax = np.max(sv, axis=-1, initial=0.0)
    rank = np.where(smax > 0, np.sum(sv > (smax * RANK_FACTOR)[..., None], axis=-1), 0)
    parts, k = dict(differential=d, metric=g, singular_values=sv, rank=rank), len(x)
    held = {name: p[:k] for name, p in parts.items()}
    if stencil:
        held["stencil"] = PointJet(spec, rows[k:], cfg,
                                   held={name: p[k:] for name, p in parts.items()})
    return PointJet(spec, rows[:k], cfg, held=held)


def holomorphy_residual(jet: PointJet) -> list[float]:
    """Frobenius norm of dphi J - J_target(phi(x)) dphi at each row; raises
    ``PreconditionFailed`` unless (g, J) is almost Hermitian at x and phi(x)
    (at the first row where it is not)."""
    spec = jet.spec
    if spec.source_structure is None or spec.target_structure is None:
        raise MissingStructure("holomorphy needs almost-complex structures on both charts")
    d, y, j_src, j_tgt = jet.differential, jet.image, jet.source.j, jet.target.j
    require_almost_hermitian(jet.metric, j_src, jet.x)
    require_almost_hermitian(jet.target.metric, j_tgt, y)
    m = d @ j_src - j_tgt @ d
    m = m.reshape(len(m), m.shape[1] * m.shape[2])
    return np.sqrt(np.vecdot(m, m)).tolist()  # one ddot per row, as np.linalg.norm makes


@dataclass(frozen=True)
class ConformalityData:
    """Horizontal-conformality report, an array per field over the rows of a jet.

    A row is ``regular`` (rank equal to the target dimension), ``critical``
    (rank 0) or ``degenerate`` (intermediate rank, reported as conformality
    failure), as ``kind`` names it; ``dilation_sq``, lambda^2 (``dilation`` is
    lambda), is positive and ``near_critical`` may hold only on regular rows.
    """

    rank: Array
    dilation_sq: Array
    conformality_residual: Array
    near_critical: Array
    regular: Array

    def __getitem__(self, rows) -> ConformalityData:
        return ConformalityData(*(part[rows] for part in vars(self).values()))

    @property
    def dilation(self) -> Array:
        return np.sqrt(self.dilation_sq)

    @property
    def kind(self) -> Array:
        return np.where(self.rank == 0, KIND_CRITICAL,
                        np.where(self.regular, KIND_REGULAR, KIND_DEGENERATE))


def conformality(jet: PointJet) -> ConformalityData:
    """How conformal dphi is on the g-orthogonal complement of its kernel, at
    each row, from the co-metric: M = ``jet.cometric`` h has the eigenvalues of
    the Gram matrix in h of dphi on a g-orthonormal horizontal basis, zeros
    included, so lambda^2 = tr M / max(rank, 1) and the residual, that Gram
    matrix less lambda^2 I in the Frobenius norm, is sqrt(tr (M - lambda^2 I)^2).
    h is not inverted.  Readers take it from ``jet.split``, built once."""
    d, sv, rank = jet.differential, jet.singular_values, jet.rank
    _, t, n = d.shape
    m = jet.cometric @ jet.target.metric
    lam_sq = np.trace(m, axis1=1, axis2=2) / np.maximum(rank, 1)
    dev = m - lam_sq[:, None, None] * np.eye(t)
    residual = np.sqrt(np.maximum(np.einsum("rij,rji->r", dev, dev), 0.0))
    regular = rank == t
    near = sv[:, min(t, n) - 1] <= NEAR_CRITICAL_FACTOR * (sv[:, 0] * RANK_FACTOR)
    return ConformalityData(rank, np.where(regular, np.maximum(lam_sq, 0.0), 0.0),
                            residual, regular & near, regular)


def sff_tensor(jet: PointJet) -> Array:
    """All components of nabla dphi at the jet's rows, as (k, d, d, n)."""
    spec, x, d, cfg = jet.spec, jet.x, jet.differential, jet.cfg
    gamma_m, gamma_n = jet.source.gamma, jet.target.gamma
    out = (numdiff.second_partial(spec, x, cfg)
           - np.einsum("...kij,...gk->...ijg", gamma_m, d)
           + np.einsum("...gab,...ai,...bj->...ijg", gamma_n, d, d))
    i, j = np.tril_indices(spec.source.dim, -1)
    out[..., i, j, :] = out[..., j, i, :]  # the upper triangle mirrored: symmetric bit for bit
    return out


def tension(jet: PointJet) -> Array:
    """Tension field tau = g^{ij} (nabla dphi)_{ij} at the jet's rows."""
    sff = sff_tensor(jet)
    return np.einsum("...ij,...ijg->...g", jet.source.metric_inverse, sff)


def lee_pushforward(jet: PointJet) -> Array:
    """dphi(J div J) at the jet's rows, the push-forward of the source's Lee-type
    field; the tension identity reads tau = -dphi(J div J)."""
    spec = jet.spec
    if spec.source_structure is None:
        raise MissingStructure("the Lee push-forward needs an almost-complex structure "
                               "on the source")
    lee = lee_vector(jet.source)
    return (jet.differential @ lee[..., None])[..., 0]


def _vertical_projector(jet: PointJet) -> Array:
    """g-orthogonal projector I - L Dphi onto ker dphi at each row, for the
    :func:`_lift_matrix` L (NaN where the rank is below the target dimension)."""
    return np.eye(jet.differential.shape[-1]) - jet.lift @ jet.differential


def fibre_mean_curvature(jet: PointJet) -> Array:
    """Mean curvature (I - P) tr_V(nabla P) of the fibre through each row, for the
    vertical projector P: H^k = (I - P)^k_m (d_i P^m_j + Gamma^m_ij) VV^ij with VV =
    P g^-1 (= sum_a v_a v_a^T over a g-orthonormal vertical frame), d P differenced
    at ``jet.stencil``; 0 exactly where the fibre is minimal (0-dimensional ones
    are).  Raises ``CriticalPoint`` at the first row of ``jet``, then of
    ``jet.stencil``, of rank below the target dimension."""
    for at in (jet, jet.stencil):
        bad = np.flatnonzero(at.rank < jet.spec.target.dim)
        if bad.size:
            raise CriticalPoint(f"fibre mean curvature at rank {at.rank[bad[0]]}: {at.x[bad[0]]!r}")
    p = jet.projector
    dp = numdiff.difference(jet.stencil.projector, jet.x, jet.cfg)  # [r, i, m, j]
    total = np.einsum("rimj,rij->rm", dp + np.moveaxis(jet.source.gamma, 1, 2),
                      p @ jet.source.metric_inverse)
    return total - (p @ total[..., None])[..., 0]


def require_regular(jet: PointJet, what: str) -> None:
    """Raise ``CriticalPoint`` at the first row of the jet that is not regular."""
    bad = np.flatnonzero(~jet.split.regular)
    if bad.size:
        raise CriticalPoint(f"{what}, got {jet.split.kind[bad[0]]}")


def homothety_residual(jet: PointJet) -> list[float]:
    """|dphi(grad lambda^2)| in the target metric at each row, lambda^2 read at
    the jet's stencil rows and g^-1 from ``jet.source``."""
    cfg, stencil = jet.cfg, jet.stencil
    require_regular(jet, "homothety residual needs regular samples")
    bad = np.flatnonzero(~stencil.split.regular)
    if bad.size:
        raise CriticalPoint(f"dilation field hit a non-regular stencil point {stencil.x[bad[0]]!r}")
    grad = (jet.source.metric_inverse
            @ numdiff.difference(stencil.split.dilation_sq, jet.x, cfg)[..., None])
    return g_norm(jet.target.metric, (jet.differential @ grad)[..., 0]).tolist()


def superminimality_residual(jet: PointJet, structure: StructureJet) -> list[float]:
    """max over unit coordinate axes Y of the RMS of |(nabla_V J) Y| over a
    g-orthonormal basis V of the fibre at each row, sqrt(tr(X^T g X P g^-1) / k)
    for X = (nabla_. J) Y P, the vertical projector P and the fibre dimension k,
    from the map's jet and the source structure's jet at the same points; for
    Y = e_b / sqrt(g_bb), X is ``nabla[r, :, :, b]`` P / sqrt(g_bb)."""
    require_regular(jet, "superminimality needs a regular point")
    g, p = structure.metric, jet.projector
    xs = np.einsum("rikb,rim->rbkm", structure.nabla, p)
    sq = np.sum(xs * (g[:, None] @ xs @ (p @ structure.metric_inverse)[:, None]), axis=(-2, -1))
    sq = np.maximum(sq / np.diagonal(g, axis1=1, axis2=2), 0.0)
    return np.sqrt(np.max(sq, axis=1) / max(jet.spec.source.dim - jet.spec.target.dim, 1)).tolist()


def _lift_matrix(jet: PointJet) -> Array:
    """Horizontal-lift operator L = g^-1 Dphi^T (Dphi g^-1 Dphi^T)^-1, with
    dphi L = id and image H, at each row of the jet whose rank is the target
    dimension, NaN at the others; readers take it from ``jet.lift``."""
    d = jet.differential
    out = np.full(np.swapaxes(d, 1, 2).shape, np.nan)
    rows = np.flatnonzero(jet.rank == d.shape[1])
    if rows.size:
        out[rows] = (jet.source.metric_inverse[rows] @ np.swapaxes(d[rows], 1, 2)
                     @ np.linalg.inv(jet.cometric[rows]))
    return out


def _require_liftable(spec: MapSpec, orientation: int) -> None:
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    if spec.target_structure is None:
        raise MissingStructure("lift_structure needs an almost-complex structure on the target")
    if spec.fibre_orientation is None:
        raise MissingStructure("lift_structure needs a fibre orientation form on the map")


def lifted_j(jet: PointJet, orientation: int) -> Array:
    """The lifted J of :func:`lift_structure` at each row: L J_target dphi on the
    horizontal space, for the jet's lift L, and on the fibre the rotation
    -orientation W / s, for W = g^-1 P^T omega P by the jet's vertical projector P
    and the map's fibre orientation form omega, and s = sqrt(-tr(W^2) / 2), which
    is |omega(v1, v2)| on any g-orthonormal basis v1, v2 of the fibre."""
    spec = jet.spec
    _require_liftable(spec, orientation)
    require_regular(jet, "horizontal lift needs a regular point")
    if spec.source.dim - spec.target.dim != 2:
        raise FibreDimension(f"lift needs 2-dimensional fibres, got "
                             f"{spec.source.dim - spec.target.dim}")
    omega = as_stack(spec.fibre_orientation(jet.x), jet.x, (spec.source.dim,) * 2,
                     f"map {spec.name or '(unnamed)'}: fibre_orientation")
    p = jet.projector
    w = jet.source.metric_inverse @ np.swapaxes(p, 1, 2) @ omega @ p
    s = np.sqrt(np.maximum(-0.5 * np.einsum("rij,rji->r", w, w), 0.0))
    if np.any(s < 1e-12):
        raise ValueError("fibre orientation form is degenerate on the fibre")
    return jet.lift @ jet.target.j @ jet.differential - orientation * w / s[:, None, None]


def lift_structure(spec: MapSpec, orientation: int, cfg: DiffConfig) -> AlmostComplexField:
    """Lift the target structure through a horizontally conformal submersion with
    2-dimensional oriented fibres.

    On the horizontal space J = (dphi|_H)^{-1} J_target dphi|_H; on the fibre
    tangent it rotates by +90 degrees (orientation=+1) or -90 degrees in the
    metric, the sense fixed by the map's fibre orientation form (see :func:`lifted_j`);
    the differential of the map is taken with ``cfg``.
    """
    _require_liftable(spec, orientation)
    return AlmostComplexField(spec.source, lambda stack: lifted_j(point_jet(spec, stack, cfg),
                                                                  orientation))


def lifted_structure_jet(jet: PointJet, orientation: int) -> StructureJet:
    """The source structure jet of a map jet with the lifted J in place of J: J at
    the jet's rows, d J differenced at ``jet.stencil``, g, g^-1 and Gamma the
    source jet's."""
    j = lifted_j(jet, orientation)
    dj = numdiff.difference(lifted_j(jet.stencil, orientation), jet.x, jet.cfg)
    source = jet.source
    return StructureJet(source.chart, None, source.x, source.cfg, held={
        "metric": source.metric, "metric_inverse": source.metric_inverse,
        "gamma": source.gamma, "j": j, "dj": dj})


def _lifted_axes(jet: PointJet) -> Array:
    """[Re, Im] of the horizontal lifts of the (1,0)-parts (e_a - i J e_a)/sqrt(2)
    of the h-unit coordinate axes e_a at phi(x), by the lift matrices at the jet's
    rows r, as [r, part, a, :]."""
    e = np.stack(unit_axes(jet.target.metric))  # [a, r, :]
    z = (e - 1j * apply_j(jet.target, e)) / SQRT2
    parts = np.moveaxis(np.stack([z.real, z.imag]), 2, 0)  # [r, part, a, :]
    return (jet.lift[:, None, None] @ parts[..., None])[..., 0]


def condition_ii_residual(jet: PointJet, structure: StructureJet) -> list[float]:
    """max (0,1)-part norm of the vertical component of [Z, W] over the pairs of
    fields :func:`_lifted_axes`, differenced at the jet's stencil rows, at each
    row, from the map's jet and the source structure's jet at the same points.
    The condition is C^inf-linear in Z and W (VZ = 0), so any spanning set of
    horizontal (1,0) fields gives its verdict: no Hermitian frame is built.
    Raises ``PreconditionFailed`` unless (h, J) is almost Hermitian at phi(x) and, for
    a target of dimension 4 or more, at the stencil images; below 4 it reads 0."""
    spec, cfg = jet.spec, jet.cfg
    if spec.target_structure is None:
        raise MissingStructure("condition (ii) needs the target structure")
    require_regular(jet, "condition (ii) needs regular samples")
    require_almost_hermitian(jet.target.metric, jet.target.j, jet.image)
    if spec.target.dim < 4:
        return [0.0] * len(jet.x)
    stencil = jet.stencil
    require_regular(stencil, "horizontal lift needs a regular point")
    require_almost_hermitian(stencil.target.metric, stencil.target.j, stencil.image)
    # dz[r, part, a, i, :] = d_i of that part of the lifted Z_a at row r; each (part, a)
    # slice of a row is C-contiguous, as in manifold.lie_bracket, so brackets match it
    dz = np.ascontiguousarray(np.moveaxis(
        numdiff.difference(_lifted_axes(stencil), jet.x, cfg), 1, 3))
    at_x, dz = np.moveaxis(_lifted_axes(jet), 0, 2), np.moveaxis(dz, 0, 2)  # [part, a, r, ...]

    def bracket(a: tuple, b: tuple) -> Array:
        """[A, B] at every row of two real fields, each named by (part, a)."""
        return np.einsum("ri,rik->rk", at_x[a], dz[b]) - np.einsum("ri,rik->rk", at_x[b], dz[a])

    worst, p_v = np.zeros(len(jet.x)), jet.projector
    for k, l in combinations(range(spec.target.dim), 2):
        zw = ((bracket((0, k), (0, l)) - bracket((1, k), (1, l)))
              + 1j * (bracket((0, k), (1, l)) + bracket((1, k), (0, l))))
        part01 = antiholomorphic_part(structure.j, (p_v @ zw[..., None])[..., 0])
        worst = np.maximum(worst, g_norm(jet.metric, part01))
    return worst.tolist()
