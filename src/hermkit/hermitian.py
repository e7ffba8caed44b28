"""Almost-complex structure fields: nabla J, div J, Lee field, Nijenhuis tensor
and the Kaehler / (1,2)-symplectic / cosymplectic / integrable classification.

Complex tangent vectors are numpy complex arrays over chart coordinates; all
field machinery (metrics, connections, brackets) stays real-valued and the
complex-bilinear / Hermitian extensions of the metric are applied explicitly.

Every operator here takes a (k, dim) stack x of points, one per row (a point is
its one-row stack), and returns the stack of its values at the rows, each row as
alone; a 1-D point raises ``WrongDimension``.  A :class:`StructureJet`, a
``numdiff.Jet``, is the one owner of a chart's g, g^-1, Christoffel symbols, J,
d J and nabla J at a stack; :func:`structure_jet` builds it for a check's samples
from one g and one J call on the samples and their ``numdiff.stencil`` points
(on an embedded chart both read one D(psi) there), and a map jet holds one per
side (``maps.PointJet.source``, ``target``).  The structure operators (nabla J,
div J, the Lee field, the Nijenhuis tensor) and :func:`classify_structure` read
a jet.  The residuals
take the g-unit coordinate axes u_a = e_a / s_a, s_a = sqrt(g_aa): the axes are
diagonal, so a tensor's value on a pair of them is its component divided by
s_a s_b (:func:`unit_pair_max`), with no contraction against the axes.  The
conditions are tensors, so any basis gives the same verdicts (Gray & Hervella
1980): :func:`hermitian_frame` is only the oracle of that.  Nothing is cached
by point: a check passes down the jet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import DslError, GeometryError, PreconditionFailed, RankDeficient
from .manifold import Chart, christoffel, gram_metric, invert_metric, metric_derivative
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
    there, so :func:`structure_jet` evaluates it once for all its rows.  On an
    embedded chart ``of_dpsi``, when given, is the same J from the points and the
    chart's D(psi) at them, and ``fn`` builds that D(psi) itself.
    """

    chart: Chart
    fn: Callable[[Array], Array]
    of_dpsi: Callable[[Array, Array], Array] | None = None

    def __call__(self, x, dpsi: Array | None = None) -> Array:
        """The stack of J at the rows of x, read off ``dpsi``, the chart's D(psi)
        there, when the field has ``of_dpsi`` and the caller holds it."""
        x, d = as_points(x), self.chart.dim
        if dpsi is None or self.of_dpsi is None:
            j, owner = self.fn(x), "fn"
        else:
            j, owner = self.of_dpsi(x, dpsi), "of_dpsi"
        return as_stack(j, x, (d, d), f"structure on {self.chart.name or '(unnamed)'}: {owner}")


def _invariant_errors(g: Array, j: Array) -> tuple[Array, Array]:
    """|J^2 + I| and |J^T g J - g|, entry by entry, at each row of stacks g and J."""
    return (np.abs(j @ j + np.eye(j.shape[-1])), np.abs(np.swapaxes(j, -1, -2) @ g @ j - g))


def invariant_residuals(g: Array, j: Array) -> tuple[Array, Array]:
    """max|J^2 + I| and max|J^T g J - g| at each row of stacks g and J."""
    square, compat = _invariant_errors(g, j)
    return np.max(square, axis=(-2, -1)), np.max(compat, axis=(-2, -1))


def require_almost_hermitian(g: Array, j: Array, x: Array) -> None:
    """Raise ``PreconditionFailed`` unless (g, J) is almost Hermitian at every row
    of stacks g, J and x; the error names the first row that is not.

    A row is almost Hermitian when max|J^2 + I| is within ``J_SQUARE_TOL`` and
    max|J^T g J - g| within ``J_SQUARE_TOL * max(1, max|g|)``; a residual that is
    not within its bound, NaN among them, fails.  The stack passes at once when
    both residuals of every row are within ``J_SQUARE_TOL``, every row's smallest
    bound; only otherwise are the rows' bounds computed."""
    square, compat = _invariant_errors(g, j)
    if square.max(initial=0.0) <= J_SQUARE_TOL and compat.max(initial=0.0) <= J_SQUARE_TOL:
        return
    square, compat = np.max(square, axis=(1, 2)), np.max(compat, axis=(1, 2))
    bound = J_SQUARE_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
    bad = np.flatnonzero(~((square <= J_SQUARE_TOL) & (compat <= bound)))
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


def column_norms_sq(g: Array, t: Array) -> Array:
    """Squared g[r]-norm of each column of each matrix of a stack t[r, ..., :, c]."""
    g = g.reshape(g.shape[:1] + (1,) * (t.ndim - 3) + g.shape[1:])
    return np.sum(t * (g @ t), axis=-2)


def unit_pair_max(g: Array, t: Array) -> float:
    """max over rows r and axes a, b of |t[r, a, :, b]| in g / (s_a s_b): the largest
    norm of a vector-valued form with axis components t on pairs of g-unit axes."""
    gd = np.diagonal(g, axis1=1, axis2=2)
    sq = column_norms_sq(g, t) / (gd[:, :, None] * gd[:, None, :])
    return float(np.sqrt(np.max(sq, initial=0.0)))


def antiholomorphic_part(j: Array, w: Array) -> Array:
    """(0,1)-part (w + i J w) / 2 of each (possibly complex) vector of a stack."""
    return 0.5 * (w + 1j * (j @ w[..., None])[..., 0])


@dataclass(frozen=True)
class HermitianFrame:
    """Orthonormal frame {e_1..e_m, Je_1..Je_m} with Z_k = (e_k - i Je_k)/sqrt(2)."""

    real_frame: tuple  # e_1..e_m, Je_1..Je_m
    complex_frame: tuple  # m complex arrays Z_k; the conjugates span T^{0,1}

    @property
    def m(self) -> int:
        return len(self.complex_frame)


def hermitian_frame(chart: Chart, j_field: AlmostComplexField, x) -> HermitianFrame:
    """Greedy Hermitian frames of g and J at the rows of x (``chart`` must be the
    chart of ``j_field``), one pass per row: the first coordinate axis not in the
    span so far, projected and made unit, is e_k, then J e_k projected; each frame
    vector is a (k, dim) stack.  No check reads it: the structure residuals take
    unit axes, and a frame is the oracle that they do not depend on the basis."""
    g, j = chart.metric(x), j_field(x)
    d, rows = g.shape[-1], []
    for g_r, j_r in zip(g[:, None], j[:, None]):  # each row a one-row stack
        tol = np.linalg.norm(np.linalg.cholesky(g_r[0]), ord=2) * numdiff.RANK_RTOL
        basis: tuple = ()
        for e in np.eye(d)[:, None]:
            if len(basis) == d:
                break
            w = project_out(e, basis, g_r)
            n = g_length(w, g_r)
            if n[0, 0] <= tol:
                continue
            ek = w / n
            jek = project_out((j_r @ ek[..., None])[..., 0], basis + (ek,), g_r)
            njk = g_length(jek, g_r)
            if njk[0, 0] <= tol:
                raise RankDeficient("J e_k collapsed onto the accepted span; J or g is broken")
            basis += (ek, jek / njk)
        if len(basis) != d:
            raise RankDeficient("could not complete a Hermitian frame from coordinate axes")
        rows.append(basis)
    frame = [np.concatenate(vs) for vs in zip(*rows)]
    e_list, je_list = frame[0::2], frame[1::2]
    complex_frame = tuple((e - 1j * je) / SQRT2 for e, je in zip(e_list, je_list))
    return HermitianFrame(tuple(e_list + je_list), complex_frame)


def dj_stack(chart: Chart, j_field: AlmostComplexField, x, cfg: DiffConfig) -> Array:
    """Plain coordinate derivatives d_i J at the rows r of x, as [r, i, k, j],
    from one stencil around rows the chart's interior check accepts; on an error
    the rows are differenced alone, so the error raised is the first bad row's."""
    x = as_points(x)
    try:
        return numdiff.partial(j_field, chart.require_interior(x, cfg), cfg)
    except (GeometryError, DslError, ValueError):
        for r in range(len(x)) if len(x) > 1 else ():
            dj_stack(chart, j_field, x[r:r + 1], cfg)
        raise


def nabla_j_tensor(gamma: Array, j: Array, dj: Array) -> Array:
    """Covariant derivative of J as the stack T[r, i, k, j] = (nabla_i J)^k_j at
    rows r, from the stacks of the Christoffel symbols, J and d_i J there.

    (nabla_i J)^k_j = d_i J^k_j + Gamma^k_{il} J^l_j - Gamma^l_{ij} J^k_l.
    """
    return (dj + np.einsum("...kil,...lj->...ikj", gamma, j)
            - np.einsum("...lij,...kl->...ikj", gamma, j))


def _christoffel(jet: StructureJet) -> Array:
    """The Christoffel symbols of a jet: the interior checked, then g^-1, then d g by
    ``manifold.metric_derivative``; on an error the rows are built alone, so the
    error raised is the first bad row's."""
    chart, x, cfg = jet.chart, jet.x, jet.cfg
    try:
        chart.require_interior(x, cfg)
        return christoffel(jet.metric_inverse, metric_derivative(chart, x, cfg))
    except (GeometryError, DslError, ValueError):
        for r in range(len(x)) if len(x) > 1 else ():
            _christoffel(StructureJet(chart, None, x[r:r + 1], cfg,
                                      held={"metric": jet.metric[r:r + 1]}))
        raise


@dataclass(frozen=True, eq=False)
class StructureJet(numdiff.Jet):
    """g, g^-1, the Christoffel symbols ``gamma[r, k, i, j]``, J, d J (``dj[r, i, k, j]``
    = d_i J^k_j) and ``nabla[r, i, k, j]`` = (nabla_i J)^k_j at the rows r of x, each
    a ``numdiff.part``: g is held; g^-1 is built by ``invert_metric``, Gamma by
    :func:`_christoffel`, J by ``j_field`` and d J by :func:`dj_stack`."""

    chart: Chart
    j_field: AlmostComplexField | None
    x: Array
    cfg: DiffConfig

    metric = numdiff.part()
    metric_inverse = numdiff.part(lambda jet: invert_metric(jet.metric, jet.x))
    gamma = numdiff.part(_christoffel)
    j = numdiff.part(lambda jet: jet.j_field(jet.x))
    dj = numdiff.part(lambda jet: dj_stack(jet.chart, jet.j_field, jet.x, jet.cfg))
    nabla = numdiff.part(lambda jet: nabla_j_tensor(jet.gamma, jet.j, jet.dj))


def structure_jet(chart: Chart, j_field: AlmostComplexField, x, cfg: DiffConfig) -> StructureJet:
    """The jet at the rows of x holding g^-1, Gamma, J and d J, from g and J
    evaluated once on the rows and then their ``numdiff.stencil`` points: d J and
    Gamma from the stencil rows.  On an embedded chart D(psi) is evaluated once on
    those rows, g is its ``gram_metric`` and J reads it (``AlmostComplexField``);
    on an error the rows are built alone, so the error raised is the first bad
    row's."""
    x = as_points(x)
    k = len(x)
    try:
        chart.require_interior(x, cfg)
        rows = np.concatenate([x, numdiff.stencil(x, cfg).reshape(-1, x.shape[1])])
        dpsi = None if chart.embedding is None else chart.embedding.dpsi(rows)
        j = j_field(rows, dpsi)  # J first, then g: only copies of their sample rows are kept
        j, dj = j[:k].copy(), numdiff.difference(j[k:], x, cfg)
        g = chart.metric(rows) if dpsi is None else gram_metric(dpsi)
        g_inv = invert_metric(g[:k], x)
    except (GeometryError, DslError, ValueError):
        for r in range(k) if k > 1 else ():
            structure_jet(chart, j_field, x[r:r + 1], cfg)
        raise
    gamma = christoffel(g_inv, numdiff.difference(g[k:], x, cfg))
    return StructureJet(chart, j_field, x, cfg, held={
        "metric": g[:k].copy(), "metric_inverse": g_inv, "gamma": gamma, "j": j, "dj": dj})


def apply_j(jet: StructureJet, v) -> Array:
    """J v row by row, for a stack of vectors (any leading axes before the rows)."""
    return (jet.j @ np.asarray(v, dtype=float)[..., None])[..., 0]


def nabla_J(jet: StructureJet, x_vec, y_vec) -> Array:
    """(nabla_X J) Y at the jet's rows; extension-independent in X and Y."""
    return np.einsum("...ikj,...i,...j->...k", jet.nabla, np.asarray(x_vec, dtype=float),
                     np.asarray(y_vec, dtype=float))


def divergence_J(jet: StructureJet) -> Array:
    """div J = trace of nabla J over any g-orthonormal frame, as g^{ij}(nabla_i J)^k_j."""
    return np.einsum("...ij,...ikj->...k", jet.metric_inverse, jet.nabla)


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


def nijenhuis_residual(jet: StructureJet) -> float:
    """max |N(X, Y)| in g over pairs of g-unit axes and rows: N(e_a, e_b) = A[a, :, b] -
    A[b, :, a], A[a, :, b] = J^i_a d_i J e_b - J d_a J e_b (:func:`nijenhuis`'s terms)."""
    j, dj = jet.j, jet.dj
    a = np.einsum("ria,rikb->rakb", j, dj) - j[:, None] @ dj
    return unit_pair_max(jet.metric, a - np.swapaxes(a, 1, 3))


def classify_structure(jet: StructureJet) -> StructureReport:
    """Classify the chart and J of a structure jet at its rows.

    Residuals are maxima over the rows, and over X, Y among each row's g-unit
    coordinate axes, of the real-form conditions on nabla J (Gray & Hervella
    1980), read off components (:func:`unit_pair_max`): Kaehler
    ``|(nabla_X J) Y|``, the components ``nabla[r, a, :, b]``; (1,2)-symplectic
    ``|(nabla_X J) Y + (nabla_JX J) J Y|``, which adds J^i_a (nabla_i J J)^k_b;
    cosymplectic ``|div J|``; integrable ``|N(X, Y)|``
    (:func:`nijenhuis_residual`).  Raises ``PreconditionFailed``
    (:func:`require_almost_hermitian`) at a row where (g, J) is not almost
    Hermitian: such a pair has no classification.
    """
    g, j, nabla = jet.metric, jet.j, jet.nabla
    require_almost_hermitian(g, j, jet.x)
    scale = max(1.0, float(np.max(1.0 + np.max(np.abs(jet.gamma), axis=(1, 2, 3))
                                  * (1.0 + np.max(np.abs(j), axis=(1, 2))))))
    s12 = nabla + np.einsum("ria,rikb->rakb", j, nabla @ j[:, None])
    residuals = (unit_pair_max(g, nabla), unit_pair_max(g, s12),
                 float(np.max(g_norm(g, divergence_J(jet)), initial=0.0)), nijenhuis_residual(jet))
    tol = jet.cfg.tolerance(scale)
    return StructureReport(*residuals, dict(zip(CLASSES, (bool(r <= tol) for r in residuals))),
                           tuple(jet.x), tol, scale)
