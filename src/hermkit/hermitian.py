"""Almost-complex structure fields: Hermitian frames, nabla J, div J, Lee field,
Nijenhuis tensor and the Kaehler / (1,2)-symplectic / cosymplectic / integrable
classification.

Complex tangent vectors are numpy complex arrays over chart coordinates; all
field machinery (metrics, connections, brackets) stays real-valued and the
complex-bilinear / Hermitian extensions of the metric are applied explicitly.

Every operator here takes a (k, dim) stack x of points, one per row (a point is
its one-row stack), and returns the stack of its values at the rows, each row as
alone; a 1-D point raises ``WrongDimension``.  The structure operators (nabla J,
div J, the Lee field, the Nijenhuis tensor) read a :class:`StructureJet`: g, J,
d J and, unless built with ``connection=False`` (all the Nijenhuis tensor
needs), the Christoffel symbols and nabla J.  :func:`structure_jet` builds it
for all the samples of a check from one metric and one J call on the samples and
then their ``numdiff.stencil`` points (a map check's ``maps.PointJet.structure``
reuses its g and Christoffel symbols); :func:`pair_norms` evaluates an operator
at every pair of vectors in one call.  :func:`classify_structure` decides every
class from the real form of nabla J at the samples' Hermitian frames (Gray &
Hervella 1980).  Nothing is cached by point: a check passes down the jet it
holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from . import numdiff
from .errors import DslError, GeometryError, PreconditionFailed, RankDeficient
from .manifold import Chart, SamplePlan, christoffel
from .numdiff import Array, DiffConfig, as_points, as_stack, g_length, project_out

#: Bound on max|J^2 + I| and max|J^T g J - g| within which a (g, J) pair counts
#: as almost Hermitian (scaled by max(1, max|g|) where g enters).
J_SQUARE_TOL = 1e-9
SQRT2 = np.sqrt(2.0)
#: The classes :func:`classify_structure` decides, in the order of its residuals.
CLASSES = ("kahler", "one_two_symplectic", "cosymplectic", "integrable")


@dataclass(frozen=True)
class AlmostComplexField:
    """A field of endomorphisms J with J^2 = -I, compatible with the metric.

    ``fn`` maps a (k, dim) stack of points to the (k, dim, dim) stack of J
    there, so :func:`structure_jet` evaluates it once for all its rows.
    """

    chart: Chart
    fn: Callable[[Array], Array]

    def __call__(self, x) -> Array:
        """The stack of J at the rows of x."""
        x, d = as_points(x), self.chart.dim
        return as_stack(self.fn(x), x, (d, d), f"structure on {self.chart.name or '(unnamed)'}: fn")


def invariant_residuals(g: Array, j: Array) -> tuple[Array, Array]:
    """max|J^2 + I| and max|J^T g J - g| at each row of stacks g and J."""
    return (np.max(np.abs(j @ j + np.eye(j.shape[-1])), axis=(-2, -1)),
            np.max(np.abs(np.swapaxes(j, -1, -2) @ g @ j - g), axis=(-2, -1)))


def require_almost_hermitian(g: Array, j: Array, x: Array) -> None:
    """Raise ``PreconditionFailed`` unless (g, J) is almost Hermitian at every row
    of stacks g, J and x; the error names the first row that is not."""
    square, compat = invariant_residuals(g, j)
    bound = J_SQUARE_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
    bad = np.flatnonzero(np.maximum(square, compat) > bound)
    if bad.size:
        r = bad[0]
        raise PreconditionFailed(
            "almost Hermitian", f"J^2 + I residual {square[r]:.3g}, g(J., J.) - g "
            f"residual {compat[r]:.3g} at {x[r].tolist()}")


def unit_axes(g: Array) -> list[Array]:
    """The coordinate axes scaled to unit length in each metric of a stack g, as (k, d) stacks."""
    d = g.shape[-1]
    return [np.eye(d)[i] / np.sqrt(g[..., i, i])[..., None] for i in range(d)]


def g_norm(g: Array, v: Array) -> Array:
    """Norm of each real or complex vector of a stack in (the extension of) the
    metric of its row (vectors with any leading axes before the rows)."""
    norm = np.sqrt(np.maximum(np.real(v[..., None, :] @ g @ np.conj(v)[..., None]), 0.0))
    return norm[..., 0, 0]


def antiholomorphic_part(j: Array, w: Array) -> Array:
    """(0,1)-part (w + i J w) / 2 of each (possibly complex) vector of a stack."""
    return 0.5 * (w + 1j * (j @ w[..., None])[..., 0])


@dataclass(frozen=True)
class HermitianFrame:
    """Orthonormal frame {e_1..e_m, Je_1..Je_m} with Z_k = (e_k - i Je_k)/sqrt(2).

    ``pivots`` records which candidate vectors seeded each e_k; re-running the
    construction with the same pivots at nearby points yields a smooth frame
    field.
    """

    real_frame: tuple  # e_1..e_m, Je_1..Je_m
    complex_frame: tuple  # m complex arrays Z_k; the conjugates span T^{0,1}
    pivots: tuple

    @property
    def m(self) -> int:
        return len(self.complex_frame)


def hermitian_frame(chart: Chart, j_field: AlmostComplexField, x, cfg: DiffConfig,
                    pivots: tuple | None = None) -> HermitianFrame:
    """:func:`stacked_hermitian_frame` of g and J at the rows of x (``chart`` must
    be the chart of ``j_field``)."""
    return stacked_hermitian_frame(chart.metric(x, cfg), j_field(x), pivots)


def stacked_hermitian_frame(g: Array, j: Array, pivots: tuple | None = None) -> HermitianFrame:
    """Greedy Hermitian frames at (k, dim, dim) stacks g and J, pick a unit e_k,
    append Je_k, project, repeat: each frame vector a (k, dim) stack whose rows
    equal the frames at those rows alone bit for bit, ``pivots`` the tuple of
    each row's pivots.  Candidates are the coordinate axes in order; with
    ``pivots`` given, exactly those candidate indices are used: the pivots of
    the frame at a base point give a frame field that is smooth near it."""
    d = g.shape[-1]
    if d % 2 != 0:
        raise RankDeficient("almost complex structures need an even-dimensional chart")
    chol_t = np.swapaxes(np.linalg.cholesky(g), 1, 2)  # its 2-norm sets each row's rank scale
    tol = np.linalg.norm(chol_t, ord=2, axis=(1, 2))[:, None] * numdiff.RANK_RTOL
    frame, used = np.empty((d, len(g), d)), [()] * len(g)
    _greedy_frame(g, j, tol, pivots is not None, tuple(range(d) if pivots is None else pivots),
                  np.arange(len(g)), frame, used)
    e_list, je_list = list(frame[0::2]), list(frame[1::2])
    complex_frame = tuple((e - 1j * je) / SQRT2 for e, je in zip(e_list, je_list))
    return HermitianFrame(tuple(e_list + je_list), complex_frame, tuple(used))


def _greedy_frame(g: Array, j: Array, tol: Array, fixed: bool, candidates: tuple, rows: Array,
                  frame: Array, used: list, basis: tuple = (), picked: tuple = ()) -> None:
    """Write e_1, Je_1, ... at stacks g and J, from the axes ``candidates`` after ``basis``
    (from the axes ``picked``), into ``frame[:, rows]`` and the pivots into ``used``; rows
    that skip different axes go on as sub-stacks (with ``fixed`` none may skip)."""
    d = g.shape[-1]
    for pos, idx in enumerate(candidates):
        if len(basis) == d:
            break
        e = np.zeros(g.shape[:-1])
        e[:, idx] = 1.0
        w = project_out(e, basis, g)
        n = g_length(w, g)
        skip = (n <= tol)[:, 0]
        if skip.any() and fixed:
            raise RankDeficient(f"recorded pivot {idx} became dependent")
        if skip.all():
            continue
        if skip.any():  # the rows disagree: each part goes on from this candidate alone
            for part in (~skip, skip):
                _greedy_frame(g[part], j[part], tol[part], fixed, candidates[pos:], rows[part],
                              frame, used, tuple(b[part] for b in basis), picked)
            return
        ek = w / n
        jek = project_out((j @ ek[..., None])[..., 0], basis + (ek,), g)
        njk = g_length(jek, g)
        if np.any(njk <= tol):
            raise RankDeficient("J e_k collapsed onto the accepted span; J or g is broken")
        basis, picked = basis + (ek, jek / njk), picked + (idx,)
    if len(basis) != d:
        raise RankDeficient("could not complete a Hermitian frame from coordinate axes")
    frame[:, rows] = basis
    for r in rows:
        used[r] = picked


def dj_stack(chart: Chart, j_field: AlmostComplexField, x, cfg: DiffConfig) -> Array:
    """Plain coordinate derivatives d_i J at the rows r of x, as [r, i, k, j],
    from one stencil."""
    return numdiff.partial(j_field, x, cfg, domain=chart.contains)


def nabla_j_tensor(gamma: Array, j: Array, dj: Array) -> Array:
    """Covariant derivative of J as the stack T[r, i, k, j] = (nabla_i J)^k_j at
    rows r, from the stacks of the Christoffel symbols, J and d_i J there.

    (nabla_i J)^k_j = d_i J^k_j + Gamma^k_{il} J^l_j - Gamma^l_{ij} J^k_l.
    """
    return (dj + np.einsum("...kil,...lj->...ikj", gamma, j)
            - np.einsum("...lij,...kl->...ikj", gamma, j))


@dataclass(frozen=True)
class StructureJet:
    """The stacks of g, J and d J (``dj[r, i, k, j]`` = d_i J^k_j) at the rows r of
    x, with those of the Christoffel symbols and ``nabla[r, i, k, j]`` =
    (nabla_i J)^k_j, or ``None`` for both when built without the connection."""

    x: Array
    metric: Array
    j: Array
    dj: Array
    gamma: Array | None
    nabla: Array | None


def structure_jet(chart: Chart, j_field: AlmostComplexField, x, cfg: DiffConfig,
                  connection: bool = True) -> StructureJet:
    """The jet at the rows of x from g and J evaluated once on the rows and then
    their ``numdiff.stencil`` points (g at the rows alone without ``connection``),
    d J and Gamma from the stencil rows; on an error the rows are built alone, so
    the error raised is the first bad row's."""
    x = as_points(x)
    k = len(x)
    try:
        if connection:
            chart.require_interior(x, cfg)
        rows = np.concatenate([x, numdiff.stencil(x, cfg, chart.contains).reshape(-1, x.shape[1])])
        j = j_field(rows)  # J first, then g: only copies of their sample rows are kept
        j, dj = j[:k].copy(), numdiff.difference(j[k:], x, cfg)
        g = chart.metric(rows if connection else x, cfg)
        gamma = christoffel(chart, x, cfg, g) if connection else None
    except (GeometryError, DslError, ValueError):
        for r in range(k) if k > 1 else ():
            structure_jet(chart, j_field, x[r:r + 1], cfg, connection)
        raise
    return StructureJet(x, g[:k].copy(), j, dj, gamma, gamma if gamma is None else
                        nabla_j_tensor(gamma, j, dj))


def apply_j(jet: StructureJet, v) -> Array:
    """J v row by row, for a stack of vectors (any leading axes before the rows)."""
    return (jet.j @ np.asarray(v, dtype=float)[..., None])[..., 0]


def nabla_J(jet: StructureJet, x_vec, y_vec) -> Array:
    """(nabla_X J) Y at the jet's rows; extension-independent in X and Y."""
    return np.einsum("...ikj,...i,...j->...k", jet.nabla, np.asarray(x_vec, dtype=float),
                     np.asarray(y_vec, dtype=float))


def divergence_J(jet: StructureJet) -> Array:
    """div J = trace of nabla J over any g-orthonormal frame, as g^{ij}(nabla_i J)^k_j.

    The jet's Christoffel build has already checked that g is invertible.
    """
    return np.einsum("...ij,...ikj->...k", np.linalg.inv(jet.metric), jet.nabla)


def lee_vector(jet: StructureJet) -> Array:
    """The Lee-type vector field J(div J) at the jet's rows."""
    return apply_j(jet, divergence_J(jet))


def nijenhuis(jet: StructureJet, x_vec, y_vec) -> Array:
    """Nijenhuis tensor N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y].

    Evaluated on the constant-component extensions of X and Y, for which the
    bracket of the J-transformed fields contracts against d_i J directly.
    """
    xv, yv, d = np.asarray(x_vec, dtype=float), np.asarray(y_vec, dtype=float), jet.dj
    a1 = np.einsum("...i,...ikj,...j->...k", apply_j(jet, xv), d, yv)  # (JX)^i (d_i J) Y
    a2 = np.einsum("...i,...ikj,...j->...k", apply_j(jet, yv), d, xv)  # (JY)^i (d_i J) X
    a3 = apply_j(jet, np.einsum("...i,...ikj,...j->...k", yv, d, xv))  # -J[JX, Y]
    a4 = apply_j(jet, np.einsum("...i,...ikj,...j->...k", xv, d, yv))  # -J[X, JY]
    return a1 - a2 + a3 - a4


def pair_norms(op: Callable, jet: StructureJet, pairs: Iterable[tuple]) -> Array:
    """|op(jet, X, Y)| in g at each row of a jet for every pair (X, Y) of constant
    vectors or (k, dim) stacks of them, as (pairs, k): one ``op`` call, the pairs a
    leading axis."""
    xs, ys = (np.stack([np.broadcast_to(v, jet.x.shape) for v in vs]) for vs in zip(*pairs))
    return g_norm(jet.metric, op(jet, xs, ys))


@dataclass(frozen=True)
class StructureReport:
    """Residuals and verdicts of the pointwise structure classification, each
    residual the maximum of its real-form condition on nabla J over the
    samples (see :func:`classify_structure`)."""

    residual_kahler: float
    residual_12sympl: float
    residual_cosympl: float
    residual_integrable: float
    verdicts: dict
    samples: tuple
    tolerance: float
    scale: float

    @property
    def residuals(self) -> dict:
        """The residuals by class name (:data:`CLASSES`)."""
        return dict(zip(CLASSES, (self.residual_kahler, self.residual_12sympl,
                                  self.residual_cosympl, self.residual_integrable)))

    def to_dict(self) -> dict:
        return {
            "residuals": self.residuals,
            "verdicts": dict(self.verdicts),
            "tolerance": self.tolerance,
            "scale": self.scale,
            "samples": [list(map(float, p)) for p in self.samples],
        }


def classify_structure(chart: Chart, j_field: AlmostComplexField, plan: SamplePlan,
                       cfg: DiffConfig,
                       points: Array | None = None) -> StructureReport:
    """Classify (chart, J) at the plan's sample points.

    Residuals are maxima over samples, and over X, Y in each sample's
    Hermitian frame, of the real-form conditions on nabla J (Gray & Hervella
    1980): Kaehler ``|(nabla_X J) Y|``; (1,2)-symplectic
    ``|(nabla_X J) Y + (nabla_JX J) J Y|``; cosymplectic ``|div J|``;
    integrable ``|N(X, Y)|``.  ``points``, a (k, dim) stack, overrides the
    plan's samples (used when a map pushes samples onto this chart).
    Raises ``PreconditionFailed`` (:func:`require_almost_hermitian`) at a
    sample where (g, J) is not almost Hermitian: such a pair has no
    classification.  The structure jet and the Hermitian frames of all samples
    are built first, each as one stack, and every residual is one stacked pass
    (the Nijenhuis one over all frame pairs, by :func:`pair_norms`).
    """
    stack = plan.points(chart, cfg) if points is None else as_points(points)
    jets = structure_jet(chart, j_field, stack, cfg)
    g, j, t = jets.metric, jets.j, jets.nabla
    scale = max(1.0, float(np.max(1.0 + np.max(np.abs(jets.gamma), axis=(1, 2, 3))
                                  * (1.0 + np.max(np.abs(j), axis=(1, 2))))))
    frame = stacked_hermitian_frame(g, j)
    require_almost_hermitian(g, j, stack)
    u = np.stack(frame.real_frame, axis=-1)  # u[r, :, a] is the a-th frame vector at row r
    ju = j @ u
    nab = np.einsum("rikj,ria,rjb->rkab", t, u, u)
    nab_j = np.einsum("rikj,ria,rjb->rkab", t, ju, ju)
    s12 = nab + nab_j
    r_kahler, r_12 = (float(np.max(np.sqrt(np.maximum(
        np.einsum("rkab,rkl,rlab->rab", a, g, a), 0.0)), initial=0.0)) for a in (nab, s12))
    r_cosympl = float(np.max(g_norm(g, divergence_J(jets)), initial=0.0))
    r_nij = float(np.max(pair_norms(nijenhuis, jets, combinations(frame.real_frame, 2))))
    tol = cfg.tolerance(scale)
    residuals = (r_kahler, r_12, r_cosympl, r_nij)
    return StructureReport(*residuals, dict(zip(CLASSES, (bool(r <= tol) for r in residuals))),
                           tuple(stack), tol, scale)
