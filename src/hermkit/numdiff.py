"""Deterministic finite-difference differentiation and metric-aware orthonormalization.

Everything downstream (connections, tension fields, structure tensors) is built
on the two stencil routines and the Gram-Schmidt step in this module, so the
error behaviour of the whole package is pinned down here: central differences
are second order in ``step``, and the optional Richardson extrapolation removes
the leading error term.

Points are (k, n) stacks, one point per row, here and in ``manifold``, ``maps``
and ``hermitian``; a single point is the one-row stack x[None], and
:func:`as_points` rejects anything else with ``WrongDimension``.  Every row is
computed as it would be alone, bit for bit.  Each stencil routine differentiates
every row along every axis at once, calling its function once on one stack of
all the stencil points; :func:`by_row` makes such a function from a per-point
one and :func:`constant` one that is the same at every row.  :func:`partial` is
:func:`difference` of the values at the points of :func:`stencil`, so a caller
that already holds those values (a map's jets at the stencil points of all the
samples of a check) differences them alone.  :func:`project_out` is the
package's only Gram-Schmidt step; :func:`gram_schmidt`, :func:`orthonormalize`
and every frame construction in ``hermitian`` and ``maps`` are built on it.

Nothing is cached by point: a check builds each stack it needs once and passes
it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationOutsideDomain, RankDeficient, WrongDimension

Array = np.ndarray

#: Relative rank rule: a vector is dropped when its post-projection norm falls
#: below (largest singular value) * RANK_RTOL.
RANK_RTOL = 1e-9
#: Weight of the ``step**2 * scale`` truncation term in :meth:`DiffConfig.tolerance`.
TOLERANCE_FACTOR = 50.0


@dataclass(frozen=True)
class DiffConfig:
    """Stencil step, extrapolation switch and the residual-tolerance floor.

    A check passes when its residual is at most
    ``tolerance_abs + TOLERANCE_FACTOR * step**2 * scale`` where ``scale`` is
    the magnitude of the inputs feeding the residual; truncation errors of the
    second-order stencils grow like ``step**2``, so the bound tracks them.
    ``step`` and ``tolerance_abs`` must be positive and finite.
    """

    step: float = 1e-4
    richardson: bool = True
    tolerance_abs: float = 1e-6

    def __post_init__(self):
        for name in ("step", "tolerance_abs"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def tolerance(self, scale: float = 1.0) -> float:
        """Scale-aware residual bound for inputs of the given magnitude."""
        return self.tolerance_abs + TOLERANCE_FACTOR * self.step**2 * abs(scale)


def as_stack(values, points: Array, row_shape: tuple, owner: str) -> Array:
    """What a stack function returned on ``points``, as a new C-contiguous float
    array of shape (len(points), *row_shape) (its layout decides the last bits of
    the products read from it); any other shape raises ``WrongDimension`` naming
    ``owner``."""
    out, expected = np.array(values, dtype=float, order="C"), (len(points), *row_shape)
    if out.shape != expected:
        raise WrongDimension(f"{owner} returned {out.shape} for a stack of shape "
                             f"{points.shape}, expected {expected}")
    return out


def as_points(x) -> Array:
    """``x`` as a float (k, n) stack of points; any other shape, a single point
    among them, raises ``WrongDimension`` naming it."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise WrongDimension(f"expected a (k, n) stack of points, got shape {x.shape}")
    return x


def by_row(f: Callable[[Array], Array | float]) -> Callable[[Array], Array]:
    """The stack function of a per-point ``f``: ``f`` at each row, stacked."""
    return lambda points: np.stack([np.asarray(f(p)) for p in points])


def constant(value) -> Callable[[Array], Array]:
    """The stack function with ``value`` at every row."""
    value = np.asarray(value, dtype=float)
    return lambda points: np.broadcast_to(value, (len(points), *value.shape))


def _require_resolved(x: Array, offset: float, step: float) -> None:
    """Raise ``ValueError`` when x + offset or x - offset rounds back to x in
    some coordinate of a row of x: the stencil would difference f at x against
    itself."""
    size = np.abs(x)
    unresolved = size + offset == size  # where x + offset or x - offset equals x
    if unresolved.any():
        point = x[unresolved.any(axis=1)][0]
        raise ValueError(f"step {step!r} is below the resolution of the coordinates at "
                         f"{point.tolist()}: x +- {offset!r} rounds back to x")


def _require_domain(points: Array, domain) -> None:
    """One ``domain`` call on the whole (k, n) stack of stencil points; only when
    that fails are the rows walked, as one-row stacks, to name the first one outside."""
    if domain is not None and not domain(points):
        for r in range(len(points)):
            if not domain(points[r:r + 1]):
                raise EvaluationOutsideDomain(f"stencil point {points[r]!r} outside domain")


def stencil(x, cfg: DiffConfig, domain: Callable[[Array], bool] | None = None) -> Array:
    """The points at which :func:`partial` evaluates its function, (k, m, n) at
    the rows of x, each row's m points ordered [step, sign, axis i] (x + s e_i,
    then x - s e_i, which is x + (-s) e_i bit for bit).

    ``domain``, when given, is called once on the stack of all the points and
    must hold for every one.  Raises ``ValueError`` when the smallest offset
    does not move some coordinate of ``x``.
    """
    x = as_points(x)
    eye = np.eye(x.shape[1])
    steps = [cfg.step, cfg.step / 2.0] if cfg.richardson else [cfg.step]
    _require_resolved(x, steps[-1], cfg.step)
    points = x[:, None, :] + np.concatenate([s * eye for h in steps for s in (h, -h)])
    _require_domain(points.reshape(-1, x.shape[1]), domain)
    return points


def difference(values, x, cfg: DiffConfig) -> Array:
    """Every first partial derivative at the rows r of ``x``, as ``[r, i, ...]``,
    from ``values``, the stack of the values at the :func:`stencil` points of
    ``x`` in order.

    Central difference with step ``cfg.step``; with ``cfg.richardson`` the
    fourth-order combination of the step-h and step-h/2 estimates.
    """
    x, v = as_points(x), np.asarray(values)
    steps = [cfg.step, cfg.step / 2.0] if cfg.richardson else [cfg.step]
    v = v.reshape(len(x), len(steps), 2, x.shape[1], *v.shape[1:])
    d = [(v[:, k, 0] - v[:, k, 1]) / (2.0 * s) for k, s in enumerate(steps)]
    return (4.0 * d[1] - d[0]) / 3.0 if cfg.richardson else d[0]


def partial(f: Callable[[Array], Array], x, cfg: DiffConfig,
            domain: Callable[[Array], bool] | None = None) -> Array:
    """Every first partial derivative of ``f`` at the rows r of ``x``, as
    ``[r, i, ...]``: :func:`difference` of ``f`` on the :func:`stencil` points.

    ``f`` maps a (k, n) stack of points to the stack of its k values; it is
    called once, on the stencils of all axes (and rows) together.
    """
    points = stencil(x, cfg, domain)
    return difference(f(points.reshape(-1, points.shape[-1])), x, cfg)


def second_partial(f: Callable[[Array], Array], x, cfg: DiffConfig,
                   domain: Callable[[Array], bool] | None = None) -> Array:
    """Every second partial derivative of ``f`` at the rows r of ``x``, as the
    array ``[r, i, j, ...]``, symmetric in (i, j).

    ``f`` maps a stack of points to the stack of its values and is called
    once, on one stack holding, row after row: the centre x (shared by every
    diagonal stencil), the three-point stencils on the diagonal and the four
    corner points of each pair i < j; ``domain`` is called once, on exactly
    those points.  The Richardson pair here is (2h, h) rather than (h, h/2):
    second-difference roundoff grows like 1/h**2, so halving the step would
    amplify it 4x.  Raises ``ValueError`` when the step does not move some
    coordinate of ``x``.
    """
    x = as_points(x)
    n, eye = x.shape[1], np.eye(x.shape[1])
    steps = [2.0 * cfg.step, cfg.step] if cfg.richardson else [cfg.step]
    _require_resolved(x, cfg.step, cfg.step)
    i, j = np.triu_indices(n, 1)
    ei, ej = eye[i], eye[j]
    # offsets: [step, sign, axis] on the diagonal, then [step, corner, pair]; each
    # coordinate moves by at most one nonzero term, so x + offset is x + s e_i + s e_j
    # bit for bit
    offsets = np.concatenate([s * e for s in steps for e in (eye, -eye)]
                             + [s * a + s * b for s in steps
                                for a, b in ((ei, ej), (ei, -ej), (-ei, ej), (-ei, -ej))])
    points = np.concatenate([x[:, None], x[:, None] + offsets], axis=1)
    _require_domain(points.reshape(-1, n), domain)
    v = np.asarray(f(points.reshape(-1, n)))
    v = v.reshape(len(x), 1 + len(offsets), *v.shape[1:])
    centre, vd = v[:, :1], v[:, 1:1 + 2 * len(steps) * n].reshape(
        len(x), len(steps), 2, n, *v.shape[2:])
    vc = v[:, 1 + 2 * len(steps) * n:].reshape(len(x), len(steps), 4, len(i), *v.shape[2:])
    d = []
    for k, s in enumerate(steps):
        h = np.empty((len(x), n, n, *v.shape[2:]))
        h[:, range(n), range(n)] = (vd[:, k, 0] - 2.0 * centre + vd[:, k, 1]) / s**2
        h[:, i, j] = h[:, j, i] = (vc[:, k, 0] - vc[:, k, 1] - vc[:, k, 2]
                                   + vc[:, k, 3]) / (4.0 * s**2)
        d.append(h)
    return (4.0 * d[1] - d[0]) / 3.0 if cfg.richardson else d[0]


def g_length(v: Array, g: Array) -> Array:
    """The g-length of each vector of a stack (any leading axes), with a trailing
    axis of 1, as in :func:`project_out`."""
    return np.sqrt(np.maximum((v[..., None, :] @ g @ v[..., :, None])[..., 0], 0.0))


def project_out(v: Array, basis: Sequence[Array], g: Array) -> Array:
    """``v`` minus its g-components along a g-orthonormal ``basis``, row by row
    for a (k, d) stack in a (k, d, d) stack of metrics.

    Modified Gram-Schmidt over ``basis`` in order, run twice: the second pass
    keeps the Gram residual near 1e-15 ("twice is enough").
    """
    w = np.array(v, dtype=float)
    for _ in range(2):
        for b in basis:
            w = w - (w[..., None, :] @ g @ b[..., :, None])[..., 0] * b
    return w


def gram_schmidt(vectors: Sequence[Array], g: Array, tol: Array,
                 basis: tuple = ()) -> list[tuple[Array, tuple]]:
    """Modified Gram-Schmidt of (k, d) stacks of vectors in a (k, d, d) stack of
    metrics, each row bit for bit as alone: in order, each vector is projected
    off ``basis`` (g-orthonormal (k, d) stacks, not returned) and the vectors
    kept before it, and kept, normalized, where its g-length exceeds ``tol``
    (one per row).  Rows that keep different vectors part into sub-stacks: the
    result is a list of groups (positions of their rows, kept (k, d) stacks).
    """
    kept: tuple = ()
    for v in vectors:
        w = project_out(v, basis + kept, g)
        n = g_length(w, g)
        keep = n[:, 0] > tol
        if keep.all():
            kept += (w / n,)
        elif keep.any():  # the rows disagree: each part starts again on its own
            return [(np.flatnonzero(part)[rows], vs) for part in (keep, ~keep)
                    for rows, vs in gram_schmidt([u[part] for u in vectors], g[part],
                                                 tol[part], tuple(b[part] for b in basis))]
    return [(np.arange(len(g)), kept)]


def orthonormalize(vectors: Sequence[Array], g: Array) -> tuple:
    """Modified Gram-Schmidt of (k, d) stacks of vectors in a (k, d, d) stack of
    metrics, in the given order: the g-orthonormal (k, d) stacks, as a tuple.

    A vector whose residual after projection falls below the relative rank
    tolerance at some row raises ``RankDeficient``: every row keeps all.
    """
    g = np.asarray(g, dtype=float)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        return ()
    # Largest singular value of the g-weighted collection sets each row's rank scale.
    chol_t = np.swapaxes(np.linalg.cholesky(g), 1, 2)
    smax = np.linalg.norm(chol_t @ np.stack(vecs, axis=-1), ord=2, axis=(1, 2))
    # the group of the first row that keeps too few, if any
    _, kept = min(gram_schmidt(vecs, g, smax * RANK_RTOL),
                  key=lambda group: (len(group[1]) == len(vecs), group[0][0]))
    if len(kept) < len(vecs):
        raise RankDeficient(f"requested {len(vecs)} independent vectors, got {len(kept)}")
    return kept
