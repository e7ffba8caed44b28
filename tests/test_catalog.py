import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

from hermkit import catalog
from hermkit.errors import DegenerateParameters
from hermkit.hermitian import classify_structure, invariant_residuals
from hermkit.manifold import Embedding, SamplePlan
from hermkit.numdiff import DiffConfig


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sphere_jacobian_matches_finite_differences(n, cfg, rng):
    fd_embedding = Embedding(n + 1, catalog.sphere_psi)
    for _ in range(3):
        theta = rng.uniform(0.35, 1.15, size=n)
        analytic = catalog.sphere_jacobian(theta[None])[0]
        numeric = fd_embedding.dpsi(theta[None], cfg)[0]
        npt.assert_allclose(analytic, numeric, atol=1e-9)


def sphere_jacobian_rowwise(theta):
    """The differential of ``sphere_psi``, each entry's product formed afresh."""
    n = len(theta)
    s, c = np.sin(theta), np.cos(theta)
    jac = np.zeros((n + 1, n))
    for i in range(n):
        for k in range(i, n):
            p = 1.0
            for j in range(k):
                p *= c[j] if j == i else s[j]
            jac[k, i] = -p * s[k] if i == k else p * c[k]
        p = 1.0
        for j in range(n):
            p *= c[j] if j == i else s[j]
        jac[n, i] = p
    return jac


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sphere_jacobian_running_products_are_exact(n, rng):
    """On a stack, each row equals the products formed afresh at that point."""
    stack = rng.uniform(0.35, 1.15, size=(7, n))
    jac = catalog.sphere_jacobian(stack)
    assert jac.shape == (7, n + 1, n)
    for theta, row in zip(stack, jac):
        assert np.array_equal(row, sphere_jacobian_rowwise(theta))


@pytest.mark.parametrize("entry_id", ["ce-2-1", "ce-1-0", "annulus-radial",
                                      "hopf-fibre-inclusion"])
def test_stacked_jacobian_equals_each_row(entry_id, cfg):
    """The analytic Jacobian of a sphere product, of the annulus and of the fibre
    inclusion on a stack (and on strided columns of one) equals each row alone."""
    for chart in catalog.get_entry(entry_id, cfg).charts.values():
        if chart.embedding is None:
            continue
        stack = np.array(SamplePlan(seed=4, count=9).points(chart, cfg))
        jac = chart.embedding.jacobian
        rows = [jac(stack[i:i + 1])[0] for i in range(len(stack))]
        assert np.array_equal(jac(stack), rows), chart.name
        wide = np.repeat(stack, 2, axis=1)[:, ::2]  # the same rows, not contiguous
        assert np.array_equal(jac(wide), rows), chart.name
        assert np.array_equal(chart.embedding.dpsi(stack, cfg), rows), chart.name


def ambient_j_column(r, s, p, w):
    """The standard structure on S^{2r+1} x S^{2s+1} applied to one vector w,
    through complex coordinates."""
    a1 = 2 * r + 2
    p1, p2 = p[:a1], p[a1:]
    w1, w2 = w[:a1], w[a1:]
    ip1 = catalog.to_real(1j * catalog.to_complex(p1))
    ip2 = catalog.to_real(1j * catalog.to_complex(p2))
    a = float(w1 @ ip1)
    b = float(w2 @ ip2)
    out1 = catalog.to_real(1j * catalog.to_complex(w1)) + a * p1 - b * ip1
    out2 = catalog.to_real(1j * catalog.to_complex(w2)) + b * p2 + a * ip2
    return np.concatenate([out1, out2])


@pytest.mark.parametrize("r, s", [(1, 0), (0, 1), (1, 1), (2, 1)])
def test_ambient_j_on_a_column_block_matches_each_column(r, s, cfg):
    chart = catalog.calabi_eckmann(r, s, cfg).charts["ce"]
    stack = np.array(SamplePlan(seed=2, count=3).points(chart, cfg))
    blocks = catalog._ambient_j_product(r, s, chart.embedding.psi(stack),
                                        chart.embedding.dpsi(stack, cfg))
    for x, block in zip(stack, blocks):
        (dpsi,) = chart.embedding.dpsi(x[None], cfg)
        p = chart.embedding.psi(x)
        columns = np.column_stack([ambient_j_column(r, s, p, dpsi[:, k])
                                   for k in range(chart.dim)])
        assert np.array_equal(block, columns)


@pytest.mark.parametrize("r, s", [(1, 0), (0, 1), (1, 1), (2, 1)])
def test_ambient_j_divergence_and_orientation_on_a_stack_equal_each_row(r, s, cfg):
    """J, the closed-form divergence and the fibre orientation form on a stack
    equal, bit for bit, each row computed alone."""
    entry = catalog.calabi_eckmann(r, s, cfg)
    chart, j_fn = entry.charts["ce"], entry.structures["J"].fn
    omega = catalog._fibre_orientation_from_ambient(chart, r, cfg)
    stack = np.array(SamplePlan(seed=3, count=6).points(chart, cfg))
    stacked = (j_fn(stack), catalog.odd_sphere_product_divergence(chart, r, s, stack, cfg),
               omega(stack))
    for i, x in enumerate(stack):
        assert np.array_equal(stacked[0][i], j_fn(x[None])[0])
        assert np.array_equal(stacked[1][i],
                              catalog.odd_sphere_product_divergence(chart, r, s, x[None], cfg)[0])
        assert np.array_equal(stacked[2][i], omega(x[None])[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_points_on_unit_sphere(n, rng):
    for _ in range(3):
        theta = rng.uniform(0.35, 1.15, size=n)
        npt.assert_allclose(np.linalg.norm(catalog.sphere_psi(theta)), 1.0, atol=1e-14)


def test_real_complex_round_trip(rng):
    v = rng.normal(size=6)
    npt.assert_allclose(catalog.to_real(catalog.to_complex(v)), v)
    j = catalog.multiplication_by_i(3)
    npt.assert_allclose(j @ v, catalog.to_real(1j * catalog.to_complex(v)))
    npt.assert_array_equal(catalog._i_times(v[:, None])[:, 0],
                           catalog.to_real(1j * catalog.to_complex(v)))
    npt.assert_allclose(j @ j, -np.eye(6))


def test_fs_metric_known_values():
    """At w = 0 the metric is Euclidean.  On the line (n = 1) it is conformal,
    ds^2 = |dw|^2 / (1+|w|^2)^2; for n = 2 the direction complex-orthogonal to
    w only contracts by one power of 1+|w|^2."""
    origin, w = catalog.fs_metric(1)(np.array([[0.0, 0.0], [0.7, 0.0]]))
    npt.assert_allclose(origin, np.eye(2), atol=1e-14)
    npt.assert_allclose(w, np.eye(2) / (1.0 + 0.49) ** 2, atol=1e-12)
    (gw,) = catalog.fs_metric(2)(np.array([[0.7, 0.0, 0.0, 0.0]]))
    npt.assert_allclose(gw[0, 0], 1.0 / (1.0 + 0.49) ** 2, atol=1e-12)
    npt.assert_allclose(gw[2, 2], 1.0 / (1.0 + 0.49), atol=1e-12)
    npt.assert_allclose(gw[3, 3], 1.0 / (1.0 + 0.49), atol=1e-12)


def fs_metric_at_a_point(n):
    """The Fubini-Study metric of one point, as the chart evaluated it row by row."""
    basis = np.zeros((n, 2 * n), dtype=complex)
    for k in range(n):
        basis[k, 2 * k] = 1.0
        basis[k, 2 * k + 1] = 1j

    def metric(x):
        w = catalog.to_complex(x)
        denom = 1.0 + float(np.real(np.vdot(w, w)))
        a = basis.T.conj() @ basis
        u = basis.T @ np.conj(w)
        herm = denom * a.conj() - np.outer(u, np.conj(u))
        return np.real(herm) / denom**2

    return metric


def product_fs_metric_at_a_point(r, s, scale):
    m1, m2 = (fs_metric_at_a_point(k) if k > 0 else None for k in (r, s))

    def metric(x):
        out = np.zeros((len(x), len(x)))
        if m1 is not None:
            out[: 2 * r, : 2 * r] = m1(x[: 2 * r])
        if m2 is not None:
            out[2 * r:, 2 * r:] = m2(x[2 * r:])
        return scale**2 * out

    return metric


def conformal_fs_metric_at_a_point(n):
    return lambda x: np.exp(0.5 * x[0]) * fs_metric_at_a_point(n)(x)


@pytest.mark.parametrize("stacked,at_point,dim", [
    *((catalog.fs_metric(n), fs_metric_at_a_point(n), 2 * n) for n in (1, 2, 3)),
    *((catalog.product_fs_metric(r, s, scale), product_fs_metric_at_a_point(r, s, scale),
       2 * (r + s)) for r, s, scale in ((1, 1, 1.0), (1, 0, 1.5), (2, 1, 1.5), (0, 2, 1.0))),
    *((catalog.punctured_hopf(n, perturbed=True).charts["target"].metric_fn,
       conformal_fs_metric_at_a_point(n), 2 * n) for n in (1, 2))])
def test_stacked_fs_metrics_equal_the_point_formula_bit_for_bit(stacked, at_point, dim):
    """Each row of a stacked Fubini-Study metric, plain, product or conformally
    stretched, is its point's metric by the per-point formula, sign bits included."""
    x = np.random.default_rng(dim).uniform(-6.0, 6.0, (1500, dim))
    got, want = stacked(x), np.stack([at_point(p) for p in x])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("entry_id", catalog.entry_ids())
def test_entry_objects_satisfy_invariants(entry_id, cfg):
    """Charts are positive-definite, structures satisfy J^2 = -I and metric
    compatibility, and maps land inside their target box at 20 seeded points."""
    entry = catalog.get_entry(entry_id)
    plan = SamplePlan(seed=13, count=20)
    for chart in entry.charts.values():
        g = chart.metric(plan.points(chart, cfg), cfg)
        assert np.min(np.linalg.eigvalsh(g)) > 0
    for structure in entry.structures.values():
        points = plan.points(structure.chart, cfg)
        square, compat = invariant_residuals(structure.chart.metric(points, cfg),
                                             structure(points))
        assert np.max(square) <= 1e-9
        assert np.max(compat) <= 1e-9
    for spec in entry.maps.values():
        points = plan.points(spec.source, cfg)
        for x, y in zip(points, spec(points)):
            assert spec.target.contains(y[None], 4 * cfg.step), (entry_id, spec.name, x, y)


def test_product_metric_matches_ambient_lengths(cfg):
    """The product-sphere chart metric is the ambient restriction: pairings of
    coordinate vectors equal the Euclidean pairings of their images."""
    entry = catalog.calabi_eckmann(1, 1)
    chart = entry.charts["ce"]
    fd_embedding = Embedding(chart.embedding.ambient_dim, chart.embedding.psi)
    points = SamplePlan(seed=3, count=5).points(chart, cfg)
    g, d = chart.metric(points, cfg), fd_embedding.dpsi(points, cfg)
    npt.assert_allclose(g, np.swapaxes(d, 1, 2) @ d, atol=1e-9)


def test_affine_chart_coordinates_of_hopf_image(cfg):
    """The projection composed with the embedding divides out the first
    complex coordinate."""
    entry = catalog.hopf_map(1)
    spec = entry.maps["hopf"]
    x = np.array([[0.5, 0.7, 0.9, 1.1]])
    (p,) = spec.source.embedding.psi(x)
    z = catalog.to_complex(p[:4])
    npt.assert_allclose(spec(x), [catalog.to_real(z[1:] / z[0])], atol=1e-14)


def test_mobius_identity_parameters_reproduce_map(cfg):
    base = catalog.hopf_map(1)
    composed = catalog.mobius_postcompose(base, (1.0, 0.0, 0.0, 1.0))
    x = np.array([[0.5, 0.7, 0.9, 1.1]])
    npt.assert_allclose(composed.maps["hopf"](x), base.maps["hopf"](x), atol=1e-14)


def test_mobius_degenerate_parameters_rejected():
    with pytest.raises(DegenerateParameters):
        catalog.mobius_postcompose(catalog.hopf_map(1), (1.0, 2.0, 0.5, 1.0))
    with pytest.raises(DegenerateParameters):
        catalog.mobius_postcompose(catalog.punctured_hopf(2), (1.0, 0.0, 0.0, 1.0))


def test_registry_roundtrip():
    assert "hopf-s3" in catalog.entry_ids()
    with pytest.raises(KeyError):
        catalog.get_entry("no-such-entry")


def test_get_entry_passes_config_to_maps():
    entry = catalog.get_entry("hopf-s3", DiffConfig(step=1e-3))
    assert entry.maps["hopf"].cfg.step == 1e-3


def test_perturbed_target_is_conformally_stretched(cfg):
    flat = catalog.punctured_hopf(2)
    bent = catalog.punctured_hopf(2, perturbed=True)
    w = np.array([[0.4, -0.2, 0.1, 0.3]])
    g0 = flat.charts["target"].metric(w, cfg)
    g1 = bent.charts["target"].metric(w, cfg)
    npt.assert_allclose(g1, np.exp(0.5 * w[0, 0]) * g0, atol=1e-12)


@pytest.mark.parametrize("entry_id", catalog.entry_ids())
def test_closures_evaluate_a_stack_as_its_rows(entry_id, cfg):
    """Every map's fn, every embedding's psi, every chart's metric and every
    structure's J give on a stack bit for bit what they give on each row alone."""
    entry = catalog.get_entry(entry_id, cfg)
    plan = SamplePlan(seed=5, count=12)
    for spec in entry.maps.values():
        stack = np.array(plan.points(spec.source, cfg))
        rows = np.concatenate([spec.fn(stack[i:i + 1]) for i in range(len(stack))])
        assert np.array_equal(spec.fn(stack), rows), spec.name
    for chart in entry.charts.values():
        stack = np.array(plan.points(chart, cfg))
        if chart.embedding is not None:
            rows = np.array([chart.embedding.psi(p) for p in stack])
            assert np.array_equal(chart.embedding.psi(stack), rows), chart.name
        rows = np.concatenate([dataclasses.replace(chart).metric(stack[i:i + 1], cfg)
                               for i in range(len(stack))])
        assert np.array_equal(dataclasses.replace(chart).metric(stack, cfg), rows), chart.name
    for name, structure in entry.structures.items():
        stack = np.array(plan.points(structure.chart, cfg))
        rows = np.concatenate([structure.fn(stack[i:i + 1]) for i in range(len(stack))])
        assert np.array_equal(structure.fn(stack), rows), name


def test_mobius_pole_names_the_offending_row(cfg):
    base = catalog.hopf_map(1, cfg)
    spec = base.maps["hopf"]
    stack = np.array(SamplePlan(seed=5, count=3).points(spec.source, cfg))
    w = complex(*spec(stack[1:2])[0])
    composed = catalog.mobius_postcompose(base, (1.0, 0.0, 1.0, -w)).maps["hopf"]
    with pytest.raises(DegenerateParameters, match=re.escape(repr(stack[1]))):
        composed.fn(stack)


def test_odd_sphere_structure_reads_dpsi_from_the_chart(monkeypatch, cfg):
    """J and the closed-form divergence take g from the D(psi) they hold
    (``manifold.gram_metric``) instead of asking the chart again, classify
    builds its frames from the structure jet's g and J, and the structure jet
    evaluates g and J once each on the samples and their stencil points: classify
    at 2 samples differentiates the embedding in 2 calls on those 2 + 2 * 24 rows,
    and the divergence in 1 call on the 2 samples, 102 rows in all (104 in 6 calls
    when the jet asked for g at the samples twice and for g and J on the stencil
    apart, 156 when J and the divergence asked the chart for g, 162 when the frames
    evaluated g and J again, 214 when J asked twice)."""
    entry = catalog.calabi_eckmann(1, 1, cfg)
    chart = entry.charts["ce"]
    rows = []
    dpsi = Embedding.dpsi

    def recording(self, x, cfg):
        if self is chart.embedding:
            rows.append(len(x))
        return dpsi(self, x, cfg)

    monkeypatch.setattr(Embedding, "dpsi", recording)
    plan = SamplePlan(count=2)
    classify_structure(chart, entry.structures["J"], plan, cfg)
    catalog.odd_sphere_product_divergence(chart, 1, 1, np.array(plan.points(chart, cfg)), cfg)
    assert rows == [50, 50, 2]
