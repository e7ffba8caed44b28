"""Deterministic finite-difference differentiation and metric-aware orthonormalization.

Everything downstream (connections, tension fields, structure tensors) is built
on the two stencil routines in this module, so the error behaviour of the
whole package is pinned down here: central differences are second order in
``step``, and the optional Richardson extrapolation removes the leading error
term.

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
package's only Gram-Schmidt step; :func:`orthonormalize` and the frames of
``hermitian`` use it.

A :class:`Jet` holds arrays at the rows of a stack ``x``, each a :func:`part`:
built once, when first read, unless the jet's builder holds it (``held``, by
part name).  ``jet[rows]`` is the jet at some of its rows; it holds no part
and reads its rows of its root jet's parts, built there on all the root's rows.
Nothing is cached by point: a check builds each stack it needs once and passes
down the jet.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import RankDeficient, WrongDimension

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


def part(build: Callable | None = None) -> cached_property:
    """A part of a :class:`Jet`, kept once read: the array its builder holds under
    the part's name, else a taken jet's rows of its root jet's part, else
    ``build(jet)`` (a part without ``build`` must be held)."""
    def read(jet: Jet):
        name = prop.attrname
        if name in jet.held or jet.whole is None and build is None:
            return jet.held[name]  # KeyError when a part without build is not held
        if jet.whole is not None:
            root, rows = jet.whole
            return getattr(root, name)[rows]
        return build(jet)
    prop = cached_property(read)
    return prop


@dataclass(frozen=True, eq=False)
class Jet:
    """The base of a jet: arrays at the rows of a stack ``x`` (a subclass's field),
    each a :func:`part`; ``held`` and ``whole`` are keyword-only, so a subclass
    declares its own fields positionally."""

    held: dict = field(default_factory=dict, kw_only=True, repr=False)
    whole: tuple | None = field(default=None, kw_only=True, repr=False)  # (root jet, rows)

    def __getitem__(self, rows) -> Jet:
        """The jet at the rows ``rows`` (an index array) of this one, taken from its root."""
        if self.whole is not None:
            root, at = self.whole
            return root[at[rows]]
        rows = np.asarray(rows)
        return replace(self, x=self.x[rows], held={}, whole=(self, rows))


def by_row(f: Callable[[Array], Array | float]) -> Callable[[Array], Array]:
    """The stack function of a per-point ``f``: ``f`` at each row, stacked."""
    return lambda points: np.stack([np.asarray(f(p)) for p in points])


def constant(value) -> Callable[[Array], Array]:
    """The stack function with ``value`` at every row."""
    value = np.asarray(value, dtype=float)
    return lambda points: np.broadcast_to(value, (len(points), *value.shape))


#: The two signs of a stencil offset, and the signs along (e_i, e_j) of the four
#: corners of a mixed second difference, as (4, 1, 1) columns.
_SIGNS = np.array([1.0, -1.0])
_CORNERS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[:, :, None, None]


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


def stencil(x, cfg: DiffConfig) -> Array:
    """The points at which :func:`partial` evaluates its function, (k, m, n) at
    the rows of x, each row's m points ordered [step, sign, axis i] (x + s e_i,
    then x - s e_i, which is x + (-s) e_i bit for bit).  The offsets are one
    product of the signed steps with the identity, so an offset of -s on one axis
    is -0.0 on the others, and x + offset keeps the signed zeros of
    x + (-s) e_i.

    Raises ``ValueError`` when the smallest offset does not move some coordinate
    of ``x``.
    """
    x = as_points(x)
    n = x.shape[1]
    steps = [cfg.step, cfg.step / 2.0] if cfg.richardson else [cfg.step]
    _require_resolved(x, steps[-1], cfg.step)
    offsets = np.multiply.outer(steps, _SIGNS)[..., None, None] * np.eye(n)
    return x[:, None, :] + offsets.reshape(-1, n)


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


def partial(f: Callable[[Array], Array], x, cfg: DiffConfig) -> Array:
    """Every first partial derivative of ``f`` at the rows r of ``x``, as
    ``[r, i, ...]``: :func:`difference` of ``f`` on the :func:`stencil` points.

    ``f`` maps a (k, n) stack of points to the stack of its k values; it is
    called once, on the stencils of all axes (and rows) together.
    """
    points = stencil(x, cfg)
    return difference(f(points.reshape(-1, points.shape[-1])), x, cfg)


def second_partial(f: Callable[[Array], Array], x, cfg: DiffConfig) -> Array:
    """Every second partial derivative of ``f`` at the rows r of ``x``, as the
    array ``[r, i, j, ...]``, symmetric in (i, j).

    ``f`` maps a stack of points to the stack of its values and is called
    once, on one stack holding, row after row: the centre x (shared by every
    diagonal stencil), the three-point stencils on the diagonal and the four
    corner points of each pair i < j.  The Richardson pair here is (2h, h) rather than (h, h/2):
    second-difference roundoff grows like 1/h**2, so halving the step would
    amplify it 4x.  Raises ``ValueError`` when the step does not move some
    coordinate of ``x``.
    """
    x = as_points(x)
    n, eye = x.shape[1], np.eye(x.shape[1])
    steps = [2.0 * cfg.step, cfg.step] if cfg.richardson else [cfg.step]
    _require_resolved(x, cfg.step, cfg.step)
    i, j = np.triu_indices(n, 1)
    # offsets: [step, sign, axis] on the diagonal, then [step, corner, pair], the
    # corners (+-s) e_i + (+-s) e_j in the order ++, +-, -+, --; each coordinate
    # moves by at most one nonzero term, so x + offset is x + s e_i + s e_j bit for
    # bit, and a coordinate that neither moves is -0.0 only in the -- corner
    s = np.asarray(steps)[:, None, None, None]
    offsets = np.concatenate([(s * _SIGNS[:, None, None] * eye).reshape(-1, n),
                              (s * _CORNERS[0] * eye[i] + s * _CORNERS[1] * eye[j]).reshape(-1, n)])
    points = np.concatenate([x[:, None], x[:, None] + offsets], axis=1)
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
    tol = np.linalg.norm(chol_t @ np.stack(vecs, axis=-1), ord=2, axis=(1, 2)) * RANK_RTOL
    kept: tuple = ()
    for i, v in enumerate(vecs):
        w = project_out(v, kept, g)
        n = g_length(w, g)
        if not np.all(n[:, 0] > tol):
            raise RankDeficient(f"requested {len(vecs)} independent vectors, vector {i + 1} "
                                f"depends on the ones before it")
        kept += (w / n,)
    return kept
