"""Deterministic finite-difference differentiation and metric-aware orthonormalization.

Everything downstream (connections, tension fields, structure tensors) is built
on the two stencil routines and the Gram-Schmidt step in this module, so the
error behaviour of the whole package is pinned down here: central differences
are second order in ``step``, and the optional Richardson extrapolation removes
the leading error term.  :func:`project_out` is the package's only
Gram-Schmidt step; :func:`orthonormalize` and every frame construction in
``hermitian`` and ``maps`` are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationOutsideDomain, RankDeficient

Array = np.ndarray

#: Relative rank rule: a vector is dropped when its post-projection norm falls
#: below (largest singular value) * RANK_RTOL.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class DiffConfig:
    """Stencil step, extrapolation switch and the residual-tolerance model.

    A check passes when its residual is at most
    ``tolerance_abs + tolerance_factor * step**2 * scale`` where ``scale`` is
    the magnitude of the inputs feeding the residual; truncation errors of the
    second-order stencils grow like ``step**2``, so the bound tracks them.
    """

    step: float = 1e-4
    richardson: bool = True
    tolerance_abs: float = 1e-6
    tolerance_factor: float = 50.0

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.tolerance_abs > 0:
            raise ValueError("tolerance_abs must be positive")
        if not self.tolerance_factor > 0:
            raise ValueError("tolerance_factor must be positive")

    def tolerance(self, scale: float = 1.0) -> float:
        """Scale-aware residual bound for inputs of the given magnitude."""
        return self.tolerance_abs + self.tolerance_factor * self.step**2 * abs(scale)


def read_only(a) -> Array:
    """A float copy of ``a`` that cannot be written to: the form in which a
    memo stores and hands out a value, so no caller can change it for the next."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _check_domain(domain, points) -> None:
    """Check the whole stencil in one ``domain`` call; only when it fails, walk
    the points to name the first one outside."""
    if domain is None or domain(np.stack(points)):
        return
    for p in points:
        if not domain(p):
            raise EvaluationOutsideDomain(f"stencil point {p!r} outside domain")


def _central(f, x: Array, i: int, h: float):
    e = np.zeros_like(x)
    e[i] = h
    return (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)


def partial(f: Callable[[Array], Array | float], x, i: int, cfg: DiffConfig,
            domain: Callable[[Array], bool] | None = None):
    """First partial derivative of ``f`` along axis ``i`` at ``x``.

    Central difference with step ``cfg.step``; with ``cfg.richardson`` the
    fourth-order combination of the step-h and step-h/2 estimates is returned.
    ``domain``, when given, is called once on the stack of stencil points and
    must hold for every row.
    """
    x = np.asarray(x, dtype=float)
    h = cfg.step
    offsets = [h, -h] + ([h / 2, -h / 2] if cfg.richardson else [])
    stencil = []
    for off in offsets:
        e = np.zeros_like(x)
        e[i] = off
        stencil.append(x + e)
    _check_domain(domain, stencil)
    d_h = _central(f, x, i, h)
    if not cfg.richardson:
        return d_h
    d_h2 = _central(f, x, i, h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def _second_same(f, x: Array, i: int, h: float):
    e = np.zeros_like(x)
    e[i] = h
    return (np.asarray(f(x + e)) - 2.0 * np.asarray(f(x)) + np.asarray(f(x - e))) / h**2


def _second_mixed(f, x: Array, i: int, j: int, h: float):
    ei = np.zeros_like(x)
    ej = np.zeros_like(x)
    ei[i] = h
    ej[j] = h
    return (np.asarray(f(x + ei + ej)) - np.asarray(f(x + ei - ej))
            - np.asarray(f(x - ei + ej)) + np.asarray(f(x - ei - ej))) / (4.0 * h**2)


def second_partial(f: Callable[[Array], Array | float], x, i: int, j: int, cfg: DiffConfig,
                   domain: Callable[[Array], bool] | None = None):
    """Second partial derivative along axes ``i`` and ``j``; symmetric in (i, j).

    Three-point stencil on the diagonal, the four corner points off it.  The
    Richardson pair here is (2h, h) rather than (h, h/2): second-difference
    roundoff grows like 1/h**2, so halving the step would amplify it 4x.
    """
    x = np.asarray(x, dtype=float)
    i, j = (i, j) if i <= j else (j, i)
    h = cfg.step
    steps = [2.0 * h, h] if cfg.richardson else [h]
    probe = []
    for s in steps:
        ei = np.zeros_like(x)
        ej = np.zeros_like(x)
        ei[i] = s
        ej[j] = s
        probe += [x + ei + ej, x - ei - ej, x + ei - ej, x - ei + ej]
    _check_domain(domain, probe)
    if i == j:
        vals = [_second_same(f, x, i, s) for s in steps]
    else:
        vals = [_second_mixed(f, x, i, j, s) for s in steps]
    if not cfg.richardson:
        return vals[0]
    d_2h, d_h = vals
    return (4.0 * d_h - d_2h) / 3.0


@dataclass(frozen=True)
class FrameBasis:
    """A g-orthonormal list of coordinate vectors at one point.

    ``dropped`` records the input indices discarded by pivoting.
    """

    vectors: tuple
    metric_at_point: Array
    dropped: tuple = ()

    @property
    def matrix(self) -> Array:
        """Vectors as columns, shape (d, k)."""
        return np.column_stack(self.vectors)

    def gram_residual(self) -> float:
        """Max deviation of v_i^T g v_j from the identity."""
        u = self.matrix
        gram = u.T @ self.metric_at_point @ u
        return float(np.max(np.abs(gram - np.eye(u.shape[1]))))


def _g_norm(v: Array, g: Array) -> float:
    return float(np.sqrt(max(v @ g @ v, 0.0)))


def project_out(v: Array, basis: Sequence[Array], g: Array) -> Array:
    """``v`` minus its g-components along a g-orthonormal ``basis``.

    Modified Gram-Schmidt over ``basis`` in order, run twice: the second pass
    keeps the Gram residual near 1e-15 ("twice is enough").
    """
    w = np.array(v, dtype=float)
    for _ in range(2):
        for b in basis:
            w = w - (w @ g @ b) * b
    return w


def orthonormalize(vectors: Sequence[Array], g: Array, required: int | None = None) -> FrameBasis:
    """Modified Gram-Schmidt in the g-inner product, in the given order.

    Vectors whose residual after projection falls below the relative rank
    tolerance are dropped and reported in ``FrameBasis.dropped``.  Raises
    ``RankDeficient`` when fewer than ``required`` (default: all) survive.
    """
    g = np.asarray(g, dtype=float)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if required is None:
        required = len(vecs)
    if not vecs:
        if required > 0:
            raise RankDeficient("no input vectors")
        return FrameBasis((), g)
    # Largest singular value of the g-weighted collection sets the rank scale.
    chol = np.linalg.cholesky(g)
    smax = np.linalg.norm(chol.T @ np.column_stack(vecs), ord=2)
    tol = smax * RANK_RTOL
    basis: list[Array] = []
    dropped: list[int] = []
    for idx, v in enumerate(vecs):
        w = project_out(v, basis, g)
        n = _g_norm(w, g)
        if n <= tol:
            dropped.append(idx)
            continue
        basis.append(w / n)
    if len(basis) < required:
        raise RankDeficient(f"requested {required} independent vectors, got {len(basis)}")
    return FrameBasis(tuple(basis), g, tuple(dropped))
