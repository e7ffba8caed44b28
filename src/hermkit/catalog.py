"""Built-in charts, structures and maps: flat tori, products of odd spheres with
their standard almost Hermitian structure, complex projective spaces with the
Fubini-Study metric (normalized as the quotient of the unit sphere), Hopf-type
projections, and a few auxiliary fixtures used by the verification scenarios.

All sphere charts use products of angular coordinates on dense open sets; the
boxes keep samples well away from coordinate degeneracies and, for Hopf-type
maps, keep the first complex coordinate bounded away from zero.  Angular
coordinates are orthogonal, so their metric D(psi)^T D(psi) is diagonal and
chart components divide by it (:func:`_chart_components`), with no solve.

The Fubini-Study metrics, the embeddings' Jacobians, the ambient J, its fibre
orientation form and the closed-form divergence take a (k, n) stack in one
call, each row bit for bit its point's (see :func:`fs_metric` for how the
metric keeps that).  The Calabi-Eckmann J is one function of the points and
D(psi) there (:func:`odd_sphere_product_structure`): a structure jet evaluates
D(psi) once on its stack and reads both g and J from it.

Every embedding carries its analytic Jacobian, so an entry is pointwise geometry
only: nothing here takes a ``DiffConfig``, and one entry serves every config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateParameters
from .hermitian import AlmostComplexField
from .manifold import Box, Chart, Embedding
from .maps import MapSpec
from .numdiff import Array, constant


def to_complex(v: Array) -> Array:
    """Real coordinates (x0, y0, x1, y1, ...) along the last axis as complex ones."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def to_real(w: Array) -> Array:
    """Inverse of :func:`to_complex`."""
    w = np.asarray(w, dtype=complex)
    out = np.empty((*w.shape[:-1], 2 * w.shape[-1]))
    out[..., 0::2] = np.real(w)
    out[..., 1::2] = np.imag(w)
    return out


def _i_times(v: Array) -> Array:
    """Multiplication by i in real coordinates on each column of a matrix or of a
    stack of them: ``to_real(1j * to_complex(v))`` without the complex round trip."""
    out = np.empty_like(v)
    out[..., 0::2, :] = -v[..., 1::2, :]
    out[..., 1::2, :] = v[..., 0::2, :]
    return out


def multiplication_by_i(m: int) -> Array:
    """The standard complex structure on R^{2m}: z -> iz in real coordinates."""
    j = np.zeros((2 * m, 2 * m))
    for k in range(m):
        j[2 * k, 2 * k + 1] = -1.0
        j[2 * k + 1, 2 * k] = 1.0
    return j


# ---------------------------------------------------------------------------
# sphere parametrizations
# ---------------------------------------------------------------------------

def sphere_psi(theta: Array) -> Array:
    """Angular parametrization of the unit sphere S^n, theta in R^n (the last axis)."""
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    prefix = np.cumprod(np.sin(theta), axis=-1)
    return np.concatenate([c[..., :1], prefix[..., :-1] * c[..., 1:], prefix[..., -1:]], axis=-1)


def sphere_jacobian(theta: Array) -> Array:
    """Analytic differential of :func:`sphere_psi` at the rows of a (k, n) stack: (k, n+1, n)."""
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[1]
    s, c = np.sin(theta), np.cos(theta)
    jac = np.zeros((len(theta), n + 1, n))
    for i in range(n):
        p = np.ones(len(theta))  # product over j < k of c[j] (j == i) or s[j], kept across k
        for k in range(n):
            if k >= i:
                jac[:, k, i] = -p * s[:, k] if i == k else p * c[:, k]
            p = p * (c[:, k] if k == i else s[:, k])
        jac[:, n, i] = p
    return jac


def sphere_embedding(n: int) -> Embedding:
    return Embedding(n + 1, sphere_psi, sphere_jacobian)


def product_embedding(e1: Embedding, d1: int, e2: Embedding) -> Embedding:
    """Block embedding of a product chart; the metric comes out block diagonal."""

    def psi(x: Array) -> Array:
        return np.concatenate([e1.psi(x[..., :d1]), e2.psi(x[..., d1:])], axis=-1)

    def jac(x: Array) -> Array:
        out = np.zeros((len(x), e1.ambient_dim + e2.ambient_dim, x.shape[1]))
        out[:, :e1.ambient_dim, :d1] = e1.dpsi(x[:, :d1])
        out[:, e1.ambient_dim:, d1:] = e2.dpsi(x[:, d1:])
        return out

    return Embedding(e1.ambient_dim + e2.ambient_dim, psi, jac)


SPHERE_ANGLE_LO = 0.3
SPHERE_ANGLE_HI = 1.2


def sphere_chart(n: int, name: str = "") -> Chart:
    """Angular chart of S^n on a box clear of coordinate degeneracies."""
    box = Box((SPHERE_ANGLE_LO,) * n, (SPHERE_ANGLE_HI,) * n)
    return Chart(dim=n, box=box, embedding=sphere_embedding(n), name=name or f"s{n}")


def product_sphere_chart(n1: int, n2: int, name: str = "") -> Chart:
    box = Box((SPHERE_ANGLE_LO,) * (n1 + n2), (SPHERE_ANGLE_HI,) * (n1 + n2))
    emb = product_embedding(sphere_embedding(n1), n1, sphere_embedding(n2))
    return Chart(dim=n1 + n2, box=box, embedding=emb, name=name or f"s{n1}xs{n2}")


# ---------------------------------------------------------------------------
# flat charts and projective space
# ---------------------------------------------------------------------------

def flat_chart(dim: int, lo: float, hi: float, scale: float = 1.0, name: str = "flat") -> Chart:
    return Chart(dim=dim, box=Box((lo,) * dim, (hi,) * dim),
                 metric_fn=constant(scale**2 * np.eye(dim)), name=name)


def fs_metric(n: int) -> Callable[[Array], Array]:
    """Fubini-Study metric on the affine chart of CP^n in real coordinates, as a
    stack function: (k, 2n) points to their (k, 2n, 2n) metrics.

    Normalized so the projection from the unit sphere is a Riemannian
    submersion (holomorphic sectional curvature 4).  Each row equals the metric
    of its point alone bit for bit: |w|^2 is one ``np.vecdot`` over the rows,
    which makes one BLAS ``zdotc`` per row as ``np.vdot`` does (a broadcast sum
    rounds differently in the last bit for n >= 2), and the denominator is
    squared by ``np.float_power``, libm pow as ``**`` on a float (``d * d``
    differs from it in the last bit).
    """
    basis = np.zeros((n, 2 * n), dtype=complex)
    for k in range(n):
        basis[k, 2 * k], basis[k, 2 * k + 1] = 1.0, 1j
    a = (basis.T.conj() @ basis).conj()  # hermitian pairings of the real basis vectors

    def metric(x: Array) -> Array:
        w = to_complex(x)
        denom = 1.0 + np.vecdot(w, w).real
        u = np.conj(w) @ basis  # u[r, a] = <E_a, w_r>
        herm = denom[:, None, None] * a - u[:, :, None] * np.conj(u)[:, None]
        return np.real(herm) / np.float_power(denom, 2)[:, None, None]

    return metric


def fs_chart(n: int, half_width: float = 6.0, name: str = "") -> Chart:
    box = Box((-half_width,) * (2 * n), (half_width,) * (2 * n))
    return Chart(dim=2 * n, box=box, metric_fn=fs_metric(n), name=name or f"cp{n}")


def product_fs_metric(r: int, s: int, scale: float = 1.0) -> Callable[[Array], Array]:
    m1 = fs_metric(r) if r > 0 else None
    m2 = fs_metric(s) if s > 0 else None

    def metric(x: Array) -> Array:
        d = x.shape[1]
        out = np.zeros((len(x), d, d))
        if m1 is not None:
            out[:, : 2 * r, : 2 * r] = m1(x[:, : 2 * r])
        if m2 is not None:
            out[:, 2 * r:, 2 * r:] = m2(x[:, 2 * r:])
        return scale**2 * out

    return metric


def product_fs_chart(r: int, s: int, scale: float = 1.0, half_width: float = 6.0,
                     name: str = "") -> Chart:
    d = 2 * (r + s)
    box = Box((-half_width,) * d, (half_width,) * d)
    return Chart(dim=d, box=box, metric_fn=product_fs_metric(r, s, scale),
                 name=name or f"cp{r}xcp{s}")


def constant_structure(chart: Chart, j: Array) -> AlmostComplexField:
    return AlmostComplexField(chart, constant(j))


# ---------------------------------------------------------------------------
# products of odd spheres with the standard almost Hermitian structure
# ---------------------------------------------------------------------------

def _ambient_j_product(r: int, s: int, p: Array, w: Array) -> Array:
    """The standard structure on S^{2r+1} x S^{2s+1} at each row of a stack of
    ambient points ``p``, applied to each column of that row of ``w``: horizontal
    parts rotate by i, the two unit normals' rotations trade places with a sign."""
    a1 = 2 * r + 2
    p1, p2 = p[:, :a1, None], p[:, a1:, None]
    w1, w2 = w[:, :a1], w[:, a1:]
    ip1, ip2 = _i_times(p1), _i_times(p2)
    a = np.vecdot(w1, ip1, axis=-2)[:, None]
    b = np.vecdot(w2, ip2, axis=-2)[:, None]
    out1 = _i_times(w1) + a * p1 - b * ip1
    out2 = _i_times(w2) + b * p2 + a * ip2
    return np.concatenate([out1, out2], axis=1)


def _chart_components(dpsi: Array, ambient: Array) -> Array:
    """Chart components g^{-1} D(psi)^T v = (D(psi)^T v)_i / |d_i psi|^2 of the columns v
    of ``ambient`` at each row of a stack of D(psi), for orthogonal coordinates."""
    return (np.swapaxes(dpsi, -1, -2) @ ambient) / np.sum(dpsi * dpsi, axis=-2)[..., None]


def odd_sphere_product_structure(chart: Chart, r: int, s: int) -> AlmostComplexField:
    """The standard J of S^{2r+1} x S^{2s+1} on an angular product chart, read off
    D(psi): a ``structure_jet`` passes the D(psi) it holds, a call builds it."""
    def j_at(x: Array, dpsi: Array) -> Array:
        return _chart_components(dpsi, _ambient_j_product(r, s, chart.embedding.psi(x), dpsi))

    return AlmostComplexField(chart, lambda x: j_at(x, chart.embedding.dpsi(x)), j_at)


def odd_sphere_product_divergence(chart: Chart, r: int, s: int, x) -> Array:
    """Chart components of the closed-form divergence -2(r J1 n1 + s J2 n2) at the rows of x."""
    x = np.asarray(x, dtype=float)
    a1, ip = 2 * r + 2, _i_times(chart.embedding.psi(x)[..., None])
    ambient = -2.0 * np.concatenate([r * ip[..., :a1, :], s * ip[..., a1:, :]], axis=-2)
    return _chart_components(chart.embedding.dpsi(x), ambient)[..., 0]


# ---------------------------------------------------------------------------
# Hopf-type projections
# ---------------------------------------------------------------------------

def _affine_coords(z_real: Array) -> Array:
    """Affine chart coordinates z_k / z_0 of each row of a stack in C^{k+1} - {0}."""
    z = to_complex(z_real)
    return to_real(z[:, 1:] / z[:, :1])


def _product_hopf_fn(chart: Chart, r: int, s: int) -> Callable[[Array], Array]:
    a1 = 2 * r + 2

    def fn(x: Array) -> Array:
        p = chart.embedding.psi(x)
        parts = []
        if r > 0:
            parts.append(_affine_coords(p[:, :a1]))
        if s > 0:
            parts.append(_affine_coords(p[:, a1:]))
        return np.concatenate(parts, axis=1)

    return fn


def _fibre_orientation_from_ambient(chart: Chart, r: int) -> Callable[[Array], Array]:
    """Orientation 2-form of the Hopf-fibre tangents span{J1 n1, J2 n2}: a stack function."""
    a1 = 2 * r + 2

    def omega(x: Array) -> Array:
        ip = _i_times(chart.embedding.psi(x)[..., None])
        dpsi_t = np.swapaxes(chart.embedding.dpsi(x), 1, 2)
        ga, gb = dpsi_t[..., :a1] @ ip[:, :a1], dpsi_t[..., a1:] @ ip[:, a1:]  # g(J_k n_k, .)
        return ga * np.swapaxes(gb, 1, 2) - gb * np.swapaxes(ga, 1, 2)

    return omega


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A named bundle of charts, structures and maps with known analytic facts."""

    id: str
    description: str
    charts: dict
    structures: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)


def complex_plane() -> CatalogEntry:
    """The flat complex line; its constant structure on the flat metric is Kaehler."""
    chart = flat_chart(2, -8.0, 8.0, name="plane")
    return CatalogEntry(
        id="complex-plane",
        description="flat complex line, standard structure",
        charts={"plane": chart},
        structures={"J": constant_structure(chart, multiplication_by_i(1))},
    )


def flat_torus() -> CatalogEntry:
    """The flat 2-torus chart with its constant structure, whose divergence
    vanishes identically, and maps from it into the plane."""
    torus = flat_chart(2, 0.2, 1.7, name="torus")
    plane = complex_plane().charts["plane"]
    j_t = constant_structure(torus, multiplication_by_i(1))
    j_p = constant_structure(plane, multiplication_by_i(1))

    # np.float_power squares by libm pow, as ``**`` on a float64 scalar does; ``**`` on
    # an array multiplies, which can differ in the last bit (times 1/step**2 in D^2).
    def square(x):
        u, v = x[:, 0], x[:, 1]
        return np.stack([np.float_power(u, 2) - np.float_power(v, 2), 2.0 * u * v], axis=1)

    def conjugation(x):
        return np.stack([x[:, 0], -x[:, 1]], axis=1)

    def nonconformal(x):
        u, v = x[:, 0], x[:, 1]
        return np.stack([np.float_power(u, 2) + 0.5 * v, u - 0.3 * np.float_power(v, 2)],
                        axis=1)

    maps = {
        "identity": MapSpec(torus, torus, lambda x: np.array(x, dtype=float),
                            source_structure=j_t, target_structure=j_t, name="identity"),
        "square": MapSpec(torus, plane, square,
                          source_structure=j_t, target_structure=j_p, name="square"),
        "conjugation": MapSpec(torus, plane, conjugation,
                               source_structure=j_t, target_structure=j_p, name="conjugation"),
        "nonconformal": MapSpec(torus, plane, nonconformal,
                                source_structure=j_t, target_structure=j_p, name="nonconformal"),
    }
    return CatalogEntry(
        id="flat-torus",
        description="flat 2-torus chart with the constant complex structure",
        charts={"torus": torus, "plane": plane},
        structures={"J": j_t},
        maps=maps,
    )


def flat_t4() -> CatalogEntry:
    t4 = flat_chart(4, 0.2, 1.7, name="t4")
    torus = flat_chart(2, 0.2, 1.7, name="torus")
    j4 = constant_structure(t4, multiplication_by_i(2))
    j2 = constant_structure(torus, multiplication_by_i(1))
    omega = np.zeros((4, 4))
    omega[2, 3], omega[3, 2] = 1.0, -1.0
    projection = MapSpec(t4, torus, lambda x: x[:, :2],
                         source_structure=j4, target_structure=j2,
                         fibre_orientation=constant(omega), name="projection")
    return CatalogEntry(
        id="flat-t4",
        description="flat 4-torus chart, product structure, coordinate projection",
        charts={"t4": t4, "torus": torus},
        structures={"J": j4},
        maps={"projection": projection},
    )


def complex_projective(n: int) -> CatalogEntry:
    """The affine chart of CP^n: Fubini-Study is Kaehler, and its connection
    coefficients vanish at 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    chart = fs_chart(n)
    return CatalogEntry(
        id=f"cp-{n}",
        description=f"affine chart of CP^{n} with the Fubini-Study metric "
                    "(unit-sphere quotient normalization)",
        charts={"cp": chart},
        structures={"J": constant_structure(chart, multiplication_by_i(n))},
    )


def calabi_eckmann(r: int, s: int) -> CatalogEntry:
    """S^{2r+1} x S^{2s+1} with its standard structure, cosymplectic exactly when
    r = s = 0; div J is -2(r J1 n1 + s J2 n2) in ambient terms
    (:func:`odd_sphere_product_divergence`)."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    chart = product_sphere_chart(2 * r + 1, 2 * s + 1, name=f"ce-{r}-{s}")
    j = odd_sphere_product_structure(chart, r, s)
    return CatalogEntry(
        id=f"ce-{r}-{s}",
        description=f"S^{2*r+1} x S^{2*s+1} in angular coordinates with the "
                    "standard almost Hermitian structure",
        charts={"ce": chart},
        structures={"J": j},
    )


def hopf_map(r: int) -> CatalogEntry:
    """Hopf projection of S^{2r+1} onto CP^r, carried on the S^{2r+1} x S^1
    product chart so that holomorphy is a well-posed check."""
    if r < 1:
        raise ValueError("r must be >= 1")
    base = calabi_eckmann(r, 0)
    source = base.charts["ce"]
    j_src = base.structures["J"]
    target = fs_chart(r)
    j_tgt = constant_structure(target, multiplication_by_i(r))
    spec = MapSpec(source, target, _product_hopf_fn(source, r, 0),
                   source_structure=j_src, target_structure=j_tgt,
                   fibre_orientation=_fibre_orientation_from_ambient(source, r),
                   name=f"hopf-s{2 * r + 1}")
    return CatalogEntry(
        id=f"hopf-s{2 * r + 1}",
        description=f"Hopf projection S^{2*r+1} -> CP^{r} (on the product chart "
                    f"with S^1), a Riemannian submersion with geodesic fibres",
        charts={"source": source, "target": target},
        structures={"source": j_src, "target": j_tgt},
        maps={"hopf": spec},
    )


def product_hopf(r: int, s: int, target_scale: float = 1.0) -> CatalogEntry:
    if r < 1 or s < 1:
        raise ValueError("degenerate factors collapse to points; use hopf_map for s = 0")
    base = calabi_eckmann(r, s)
    source = base.charts["ce"]
    j_src = base.structures["J"]
    target = product_fs_chart(r, s, scale=target_scale)
    j_tgt = constant_structure(target, multiplication_by_i(r + s))
    spec = MapSpec(source, target, _product_hopf_fn(source, r, s),
                   source_structure=j_src, target_structure=j_tgt,
                   name=f"product-hopf-{r}-{s}")
    suffix = "" if target_scale == 1.0 else "-rescaled"
    return CatalogEntry(
        id=f"product-hopf-{r}-{s}{suffix}",
        description=f"product of Hopf projections S^{2*r+1} x S^{2*s+1} -> "
                    f"CP^{r} x CP^{s}",
        charts={"source": source, "target": target},
        structures={"source": j_src, "target": j_tgt},
        maps={"hopf": spec},
    )


def punctured_hopf(n: int, perturbed: bool = False) -> CatalogEntry:
    """The projection of C^{n+1} - {0} onto the affine chart of CP^n, with dilation
    1/|z| at the point z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 2 * n + 2
    lo = (1.0,) + (-0.7,) * (d - 1)
    hi = (2.5,) + (0.7,) * (d - 1)
    source = Chart(dim=d, box=Box(lo, hi), metric_fn=constant(np.eye(d)),
                   name=f"punctured-c{n + 1}")
    j_std = constant_structure(source, multiplication_by_i(n + 1))
    base_metric = fs_metric(n)
    if perturbed:
        def metric(x):
            return np.exp(0.5 * x[:, 0])[:, None, None] * base_metric(x)
        target = Chart(dim=2 * n, box=Box((-6.0,) * 2 * n, (6.0,) * 2 * n),
                       metric_fn=metric, name=f"cp{n}-conformal")
    else:
        target = fs_chart(n)
    j_tgt = constant_structure(target, multiplication_by_i(n))
    j0 = multiplication_by_i(n + 1)

    def omega(x: Array) -> Array:
        a = np.asarray(x, dtype=float)
        b = (j0 @ a[:, :, None])[:, :, 0]
        return a[:, :, None] * b[:, None] - b[:, :, None] * a[:, None]

    spec = MapSpec(source, target, _affine_coords, source_structure=j_std,
                   target_structure=j_tgt, fibre_orientation=omega, name=f"punctured-hopf-{n}")
    suffix = "-perturbed" if perturbed else ""
    return CatalogEntry(
        id=f"punctured-hopf-{n}{suffix}",
        description=f"C^{n + 1} minus the origin projected to the affine chart of "
                    f"CP^{n}; dilation 1/|z|, complex lines as fibres"
                    + (", target metric conformally stretched" if perturbed else ""),
        charts={"source": source, "target": target},
        structures={"source": j_std, "target": j_tgt},
        maps={"hopf": spec},
    )


def hopf_surface_coords() -> CatalogEntry:
    """A local holomorphic coordinate map from the S^3 x S^1 chart to the plane
    whose tension and Lee push-forward are both nonzero."""
    base = calabi_eckmann(1, 0)
    source = base.charts["ce"]
    j_src = base.structures["J"]
    plane = complex_plane()
    target = plane.charts["plane"]
    j_tgt = plane.structures["J"]

    def fn(x: Array) -> Array:
        p = source.embedding.psi(x)
        scale = np.exp(-x[:, 3])
        return np.stack([scale * p[:, 0], scale * p[:, 1]], axis=1)

    spec = MapSpec(source, target, fn, source_structure=j_src,
                   target_structure=j_tgt, name="hopf-surface-coords")
    return CatalogEntry(
        id="hopf-surface-coords",
        description="first local holomorphic coordinate of the S^3 x S^1 chart, "
                    "a holomorphic map to the plane with nonzero tension",
        charts={"source": source, "target": target},
        structures={"source": j_src, "target": j_tgt},
        maps={"coords": spec},
    )


def annulus_radial(target_scale: float = 1.0) -> CatalogEntry:
    """Flat annulus projected along rays onto a circle; fibres are straight
    radial segments, so their mean curvature vanishes while the dilation is
    the non-constant 1/r."""

    def psi(x: Array) -> Array:
        rr, th = x[..., 0], x[..., 1]
        return np.stack([rr * np.cos(th), rr * np.sin(th)], axis=-1)

    def jac(x: Array) -> Array:
        rr, c, s = x[:, 0], np.cos(x[:, 1]), np.sin(x[:, 1])
        return np.stack([np.stack([c, -rr * s], axis=1), np.stack([s, rr * c], axis=1)], axis=1)

    source = Chart(dim=2, box=Box((1.2, 0.2), (1.8, 1.0)),
                   embedding=Embedding(2, psi, jac), name="annulus")
    circle = Chart(dim=1, box=Box((0.0,), (1.2,)), metric_fn=constant([[target_scale**2]]),
                   name="circle")
    spec = MapSpec(source, circle, lambda x: x[:, 1:], name="radial")
    suffix = "" if target_scale == 1.0 else "-rescaled"
    return CatalogEntry(
        id=f"annulus-radial{suffix}",
        description="flat annulus collapsed along rays onto a circle",
        charts={"source": source, "target": circle},
        maps={"radial": spec},
    )


def hopf_fibre_inclusion() -> CatalogEntry:
    """Arc-length inclusion of one Hopf circle into the angular chart of S^3."""
    target = sphere_chart(3, name="s3")
    base_angles = np.array([0.7, 0.8, 0.9])
    z0 = sphere_psi(base_angles)

    def curve(t: Array) -> Array:
        return to_real(np.exp(1j * t)[..., None] * to_complex(z0))

    def psi(x: Array) -> Array:
        return curve(np.asarray(x, dtype=float)[..., 0])

    def jac(x: Array) -> Array:
        return to_real(1j * np.exp(1j * x[:, :1]) * to_complex(z0))[..., None]

    source = Chart(dim=1, box=Box((-0.25,), (0.25,)),
                   embedding=Embedding(4, psi, jac), name="fibre")

    def angles(x: Array) -> Array:
        p = curve(x[:, 0])
        th1 = np.arccos(np.clip(p[:, 0], -1.0, 1.0))
        th2 = np.arccos(np.clip(p[:, 1] / np.sin(th1), -1.0, 1.0))
        th3 = np.arctan2(p[:, 3], p[:, 2])
        return np.stack([th1, th2, th3], axis=1)

    spec = MapSpec(source, target, angles, name="fibre-inclusion")
    return CatalogEntry(
        id="hopf-fibre-inclusion",
        description="isometric inclusion of a Hopf great circle into S^3",
        charts={"source": source, "target": target},
        maps={"inclusion": spec},
    )


def mobius_postcompose(entry: CatalogEntry, params: tuple, map_name: str = "hopf",
                       suffix: str = "mobius") -> CatalogEntry:
    """Post-compose a map into a 1-complex-dimensional chart with the fractional
    linear transformation w -> (a w + b) / (c w + d)."""
    a, b, c, d = (complex(v) for v in params)
    if abs(a * d - b * c) < 1e-12:
        raise DegenerateParameters(f"ad - bc = {a * d - b * c} is (near) zero")
    base = entry.maps[map_name]
    if base.target.dim != 2:
        raise DegenerateParameters("fractional-linear reparametrization needs a "
                                   "1-complex-dimensional target")

    def fn(x: Array) -> Array:
        w = to_complex(base(x))[:, 0]
        denom = c * w + d
        poles = np.flatnonzero(np.abs(denom) < 1e-12)
        if poles.size:
            raise DegenerateParameters(
                f"pole of the fractional-linear map hit at {x[poles[0]]!r}")
        return to_real(((a * w + b) / denom)[:, None])

    spec = MapSpec(base.source, base.target, fn,
                   source_structure=base.source_structure,
                   target_structure=base.target_structure,
                   fibre_orientation=base.fibre_orientation,
                   name=f"{base.name}-{suffix}")
    return CatalogEntry(
        id=f"{entry.id}-{suffix}",
        description=f"{entry.description}; target reparametrized by a "
                    "fractional-linear map",
        charts=entry.charts,
        structures=entry.structures,
        maps={map_name: spec},
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# Factories are looked up when called, so a wrapper on the module attribute runs.
_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {
    "flat-torus": lambda: flat_torus(),
    "complex-plane": lambda: complex_plane(),
    "flat-t4": lambda: flat_t4(),
    "cp-1": lambda: complex_projective(1),
    "cp-2": lambda: complex_projective(2),
    "ce-1-0": lambda: calabi_eckmann(1, 0),
    "ce-0-1": lambda: calabi_eckmann(0, 1),
    "ce-1-1": lambda: calabi_eckmann(1, 1),
    "ce-2-1": lambda: calabi_eckmann(2, 1),
    "hopf-s3": lambda: hopf_map(1),
    "hopf-s3-mobius-scale": lambda: mobius_postcompose(
        hopf_map(1), (2.0, 0.0, 0.0, 1.0), suffix="mobius-scale"),
    "hopf-s3-mobius-generic": lambda: mobius_postcompose(
        hopf_map(1), (1.0, 0.3, 0.1, 1.0), suffix="mobius-generic"),
    "product-hopf-1-1": lambda: product_hopf(1, 1),
    "product-hopf-1-1-rescaled": lambda: product_hopf(1, 1, target_scale=1.5),
    "punctured-hopf-1": lambda: punctured_hopf(1),
    "punctured-hopf-2": lambda: punctured_hopf(2),
    "punctured-hopf-2-perturbed": lambda: punctured_hopf(2, perturbed=True),
    "hopf-surface-coords": lambda: hopf_surface_coords(),
    "annulus-radial": lambda: annulus_radial(),
    "annulus-radial-rescaled": lambda: annulus_radial(target_scale=1.7),
    "hopf-fibre-inclusion": lambda: hopf_fibre_inclusion(),
}


def entry_ids() -> list[str]:
    return sorted(_BUILDERS)


def get_entry(entry_id: str) -> CatalogEntry:
    """Build the named entry: pointwise geometry only, so one entry serves every
    ``DiffConfig`` a check differentiates it with."""
    try:
        builder = _BUILDERS[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog entry {entry_id!r}") from None
    return builder()
