import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from hermkit import catalog
from hermkit.errors import EvaluationOutsideDomain, SingularMetric, WrongDimension
from hermkit.manifold import (Box, Chart, Embedding, SamplePlan, VectorField,
                              christoffel, covariant_derivative, gradient, lie_bracket,
                              sample_points)
from hermkit.numdiff import DiffConfig, by_row, constant, partial


def constant_field(chart, v) -> VectorField:
    """The field with the components ``v`` at every point."""
    return VectorField(chart, constant(v))


def flat2():
    return Chart(dim=2, box=Box((-2.0, -2.0), (2.0, 2.0)),
                 metric_fn=constant(np.eye(2)), name="flat2")


def sphere2():
    return catalog.sphere_chart(2)


def test_box_contains_margin():
    box = Box((0.0,), (1.0,))
    assert box.contains([0.5])
    assert not box.contains([0.05], margin=0.1)
    with pytest.raises(ValueError):
        Box((1.0,), (0.0,))


def test_chart_contains_applies_the_predicate_to_every_row():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(np.eye(2)),
                  predicate=lambda p: float(p @ p) > 0.01)
    assert chart.contains([[0.5, 0.5], [-0.5, 0.2]])
    assert not chart.contains([[0.5, 0.5], [0.0, 0.05]])
    assert not chart.contains([[0.5, 0.5], [1.5, 0.5]])
    assert chart.contains([[0.5, 0.5]])
    assert not chart.contains([[0.0, 0.05]])


def test_chart_requires_exactly_one_metric_source():
    with pytest.raises(ValueError):
        Chart(dim=1, box=Box((0.0,), (1.0,)))


def test_metric_rejects_asymmetry():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)),
                  metric_fn=constant([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(SingularMetric):
        chart.metric(np.zeros((1, 2)))


def test_christoffel_evaluates_the_metric_once_per_stencil(cfg):
    """metric_fn runs once at the row and once on all 4 * dim stencil rows."""
    shapes = []

    def metric_fn(stack):
        shapes.append(stack.shape)
        return by_row(lambda p: np.diag([1.0, 1.0 + p[0] ** 2]))(stack)

    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=metric_fn)
    gamma = christoffel(chart, np.array([[0.3, 0.4]]), cfg)
    assert shapes == [(1, 2), (8, 2)]
    npt.assert_allclose(gamma[0, 1, 0, 1], 0.3 / (1.0 + 0.3 ** 2), rtol=1e-9)


def diagonal_chart():
    """g = diag(1, x1) on (-1, 1)^2: singular on x1 = 0, indefinite left of it."""
    return Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), name="diagonal",
                 metric_fn=lambda p: np.stack([np.diag([1.0, v]) for v in p[:, 0]]))


GOOD = [[0.5, 0.1], [0.3, -0.2]]
BAD = {"outside": [0.9999, 0.1], "singular": [0.0, 0.1], "indefinite": [-0.5, 0.1]}


def raised(call):
    """The type and message of what ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


def metric_inverse(chart, x, cfg):
    return chart.metric_inverse(x, cfg)


def require_interior(chart, x, cfg):
    return chart.require_interior(x, cfg)


@pytest.mark.parametrize("operator", [christoffel, metric_inverse, require_interior])
@pytest.mark.parametrize("order", list(itertools.permutations(BAD)))
def test_stacked_geometry_raises_what_its_first_bad_row_raises(operator, order, cfg):
    """A stack with an out-of-domain row, a singular-metric row and a row whose
    metric is not positive-definite, in any order after good rows, raises the
    error (type and message) that its first bad row raises alone, as a one-row stack."""
    stack = np.array([*GOOD, *(BAD[name] for name in order)])
    alone = [raised(lambda: operator(diagonal_chart(), stack[r:r + 1], cfg))
             for r in range(len(stack))]
    expected = next(e for e in alone if e is not None)
    assert expected[0] in (EvaluationOutsideDomain, SingularMetric)
    assert raised(lambda: operator(diagonal_chart(), stack, cfg)) == expected


@pytest.mark.parametrize("entry_id, key", [("hopf-s3", "source"), ("hopf-s3", "target"),
                                           ("product-hopf-1-1", "source"), ("ce-2-1", "ce")])
def test_stacked_christoffel_and_inverse_metric_equal_point_calls(entry_id, key, cfg):
    """Row by row, bit for bit, each row its one-row stack's."""
    chart = catalog.get_entry(entry_id, cfg).charts[key]
    points = SamplePlan(seed=3, count=3).points(chart, cfg)
    gammas, g_inv = christoffel(chart, points, cfg), chart.metric_inverse(points, cfg)
    assert gammas.shape == (3, chart.dim, chart.dim, chart.dim)
    for r in range(len(points)):
        assert np.array_equal(gammas[r], christoffel(chart, points[r:r + 1], cfg)[0])
        assert np.array_equal(g_inv[r], chart.metric_inverse(points[r:r + 1], cfg)[0])


def test_metric_fn_must_return_a_stack():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=lambda x: np.eye(2),
                  name="per-point")
    with pytest.raises(WrongDimension, match=r"per-point.*\(2, 2\).*\(1, 2\).*\(1, 2, 2\)"):
        chart.metric(np.zeros((1, 2)))


def test_christoffel_flat_is_zero(cfg):
    gamma = christoffel(flat2(), np.array([[0.3, 0.4]]), cfg)
    npt.assert_allclose(gamma, 0.0, atol=1e-12)


def test_christoffel_round_sphere_closed_form(cfg):
    """Round-sphere chart: Gamma^th_{ph ph} = -sin th cos th and
    Gamma^ph_{th ph} = cot th."""
    (gamma,) = christoffel(sphere2(), np.array([[1.0, 0.8]]), cfg)
    npt.assert_allclose(gamma[0, 1, 1], -math.sin(1.0) * math.cos(1.0), atol=1e-9)
    npt.assert_allclose(gamma[1, 0, 1], 1.0 / math.tan(1.0), atol=1e-9)
    npt.assert_allclose(gamma[0, 0, 0], 0.0, atol=1e-9)


def test_christoffel_fubini_study_origin(cfg):
    """The projective-space metric is Euclidean to second order at w = 0."""
    chart = catalog.fs_chart(1)
    gamma = christoffel(chart, np.zeros((1, 2)), cfg)
    npt.assert_allclose(gamma, 0.0, atol=1e-9)


def test_christoffel_lower_symmetry_exact(cfg):
    gamma = christoffel(sphere2(), np.array([[0.9, 0.7]]), cfg)
    npt.assert_allclose(gamma, np.swapaxes(gamma, 2, 3), rtol=0, atol=0)


def test_christoffel_outside_domain(cfg):
    with pytest.raises(EvaluationOutsideDomain):
        christoffel(sphere2(), np.array([[0.3, 0.7]]), cfg)  # on the box edge


def test_covariant_derivative_flat_constants(cfg):
    chart = flat2()
    x_field = constant_field(chart, [1.0, 2.0])
    y_field = constant_field(chart, [0.5, -1.0])
    val = covariant_derivative(x_field, y_field, np.array([[0.1, 0.2]]), cfg)
    npt.assert_allclose(val, 0.0, atol=1e-12)


def test_covariant_derivative_meridians_are_geodesics(cfg):
    chart = sphere2()
    theta = constant_field(chart, [1.0, 0.0])
    val = covariant_derivative(theta, theta, np.array([[1.0, 0.8]]), cfg)
    npt.assert_allclose(val, 0.0, atol=1e-9)


@pytest.mark.parametrize("entry_id,chart_key", [("ce-1-0", "ce"), ("cp-1", "cp")])
def test_metric_compatibility_probe(entry_id, chart_key, cfg, plan):
    """d_X g(Y, Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z), the defining property."""
    entry = catalog.get_entry(entry_id)
    chart = entry.charts[chart_key]
    d = chart.dim
    x_field = constant_field(chart, np.arange(1.0, d + 1.0) / d)
    y_field = VectorField(chart, lambda p: np.sin(p) + 1.5)
    z_field = VectorField(chart, lambda p: np.cos(p) * 0.5 + 1.0)
    x = plan.points(chart, cfg)

    def pair(u, g, v):
        return np.einsum("ri,rij,rj->r", u, g, v)

    d_inner = partial(lambda p: pair(y_field(p), chart.metric(p, cfg), z_field(p)), x, cfg)
    lhs = np.einsum("ri,ri->r", x_field(x), d_inner)
    g = chart.metric(x, cfg)
    rhs = (pair(covariant_derivative(x_field, y_field, x, cfg), g, z_field(x))
           + pair(y_field(x), g, covariant_derivative(x_field, z_field, x, cfg)))
    assert np.max(np.abs(lhs - rhs)) <= cfg.tolerance(10.0)


def test_lie_bracket_coordinate_fields_commute(cfg):
    chart = flat2()
    val = lie_bracket(constant_field(chart, [1.0, 0.0]), constant_field(chart, [0.0, 1.0]),
                      np.array([[0.1, -0.4]]), cfg)
    npt.assert_allclose(val, 0.0, atol=1e-12)


def test_lie_bracket_rotation_field(cfg):
    # [(-y, x), (1, 0)] = (0, -1) by expanding X^i d_i Y - Y^i d_i X
    chart = flat2()
    rot = VectorField(chart, lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1))
    ex = constant_field(chart, [1.0, 0.0])
    val = lie_bracket(rot, ex, np.array([[0.3, 0.5]]), cfg)
    npt.assert_allclose(val, [[0.0, -1.0]], atol=1e-10)


def test_lie_bracket_antisymmetry(cfg, rng):
    chart = flat2()
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    x_field = VectorField(chart, lambda p: np.sin(p) @ a.T)
    y_field = VectorField(chart, lambda p: np.cos(p) @ b.T)
    x = np.array([[0.2, 0.6]])
    fwd = lie_bracket(x_field, y_field, x, cfg)
    bwd = lie_bracket(y_field, x_field, x, cfg)
    npt.assert_allclose(fwd, -bwd, atol=1e-9)


def test_lie_bracket_jacobi_identity(cfg):
    """Cyclic sum of nested brackets vanishes; nested differencing loosens the
    attainable tolerance to ~1e-5."""
    chart = flat2()
    x_field = VectorField(chart, by_row(lambda p: np.array([math.sin(p[1]), p[0] ** 2])))
    y_field = VectorField(chart, by_row(lambda p: np.array([p[0] * p[1], math.cos(p[0])])))
    z_field = VectorField(chart, by_row(lambda p: np.array([p[1] ** 2, p[0] + p[1]])))
    x = np.array([[0.4, 0.3]])
    total = np.zeros((1, 2))
    for a, b, c in ((x_field, y_field, z_field), (y_field, z_field, x_field),
                    (z_field, x_field, y_field)):
        inner = VectorField(chart, lambda p, b=b, c=c: lie_bracket(b, c, p, cfg))
        total = total + lie_bracket(a, inner, x, cfg)
    npt.assert_allclose(total, 0.0, atol=1e-5)


def test_gradient_flat_linear(cfg):
    val = gradient(flat2(), lambda p: p[:, 0], np.array([[0.3, 0.1]]), cfg)
    npt.assert_allclose(val, [[1.0, 0.0]], atol=1e-10)


def test_gradient_sphere_polar_angle(cfg):
    # g^{th th} = 1 on the round sphere, so grad(theta) = d/d theta
    val = gradient(sphere2(), lambda p: p[:, 0], np.array([[1.0, 0.8]]), cfg)
    npt.assert_allclose(val, [[1.0, 0.0]], atol=1e-9)


def test_gradient_constant(cfg):
    val = gradient(sphere2(), constant(2.5), np.array([[1.0, 0.8]]), cfg)
    npt.assert_allclose(val, 0.0, atol=1e-12)


@pytest.mark.parametrize("count", [4, 3])
def test_gradient_on_a_stack_equals_each_point_bit_for_bit(count, cfg):
    """On fs_chart(2) (dim 4), a stack of as many rows as the dimension and one
    of fewer rows: the (k, n) stack of gradients, each row its one-row stack's."""
    chart = catalog.fs_chart(2)
    points = SamplePlan(seed=2, count=count).points(chart, cfg)

    def f(p):
        return np.sin(p[:, 0]) * p[:, 1] + p[:, 2] ** 2 - np.cos(p[:, 3])

    stack = gradient(chart, f, points, cfg)
    assert stack.shape == (count, 4)
    for r in range(count):
        assert np.array_equal(stack[r], gradient(chart, f, points[r:r + 1], cfg)[0])


def embedded_chart(emb, dim):
    return Chart(dim=dim, box=Box((-2.0,) * dim, (2.0,) * dim), embedding=emb)


def test_embedded_pullbacks_identity(cfg):
    """The metric pulled back by the identity embedding, and the projection
    (Dpsi^T Dpsi)^{-1} Dpsi^T built from it, are the identity."""
    emb = Embedding(2, lambda x: np.array(x, dtype=float))
    x = np.array([[0.3, 0.4]])
    (g,), (d,) = embedded_chart(emb, 2).metric(x, cfg), emb.dpsi(x, cfg)
    npt.assert_allclose(g, np.eye(2), atol=1e-10)
    npt.assert_allclose(np.linalg.solve(g, d.T), np.eye(2), atol=1e-10)


def test_embedded_pullbacks_unit_circle(cfg):
    emb = Embedding(2, lambda t: np.array([math.cos(t[0]), math.sin(t[0])]))
    g = embedded_chart(emb, 1).metric(np.array([[0.7]]), cfg)
    npt.assert_allclose(g, [[[1.0]]], atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_projection_left_inverse_of_embedding(n, cfg):
    """The projection built from the chart's pulled-back metric is a left
    inverse of Dpsi, so tangent ambient vectors map back to chart components."""
    emb = catalog.sphere_embedding(n)
    x = np.linspace(0.4, 1.1, n)[None]
    (d,) = emb.dpsi(x, cfg)
    proj = np.linalg.solve(embedded_chart(emb, n).metric(x, cfg)[0], d.T)
    npt.assert_allclose(proj @ d, np.eye(n), atol=1e-9)


def test_sample_plan_reproducible():
    chart = sphere2()
    cfg = DiffConfig()
    plan = SamplePlan(seed=3, count=8)
    a = plan.points(chart, cfg)
    b = plan.points(chart, cfg)
    assert a.shape == (8, 2) and np.array_equal(a, b)
    assert chart.contains(a, 4 * cfg.step)


def per_point_samples(chart, seed, count, margin):
    """The sampler drawing, box-testing and ``Chart.contains``-testing one point
    at a time: the reference that ``sample_points`` equals."""
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(chart.box.lo) + margin, np.asarray(chart.box.hi) - margin
    pts, attempts = [], 0
    while len(pts) < count:
        p = rng.uniform(lo, hi)
        attempts += 1
        if chart.contains(p[None], margin):
            pts.append(p)
        if attempts > 100 * count:
            raise EvaluationOutsideDomain(
                f"{chart.name or 'chart'}: could not draw {count} interior samples")
    return pts


def away_from_origin(chart, radius):
    """``chart`` with a predicate that rejects the points within ``radius`` of 0."""
    return dataclasses.replace(chart, predicate=lambda p: float(p @ p) > radius ** 2,
                               name=f"{chart.name}-{radius}")


SAMPLED_CHARTS = {
    "flat2": flat2(),
    "s2": sphere2(),
    **{f"punctured-c{n + 1}": catalog.punctured_hopf(n).charts["source"] for n in (1, 2)},
    **{f"punctured-c{n + 1}-ball": away_from_origin(
        catalog.punctured_hopf(n).charts["source"], 2.0) for n in (1, 2)},
}


@pytest.mark.parametrize("margin", [1e-3, 0.05, 0.3])
@pytest.mark.parametrize("key", SAMPLED_CHARTS)
def test_block_sampler_equals_the_per_point_draws(key, margin):
    """One block draw per round gives the per-point draws bit for bit, in draw
    order, over seeds and counts; the -ball charts reject some draws."""
    chart = SAMPLED_CHARTS[key]
    for seed, count in itertools.product(range(5), (1, 2, 5, 16)):
        got, ref = sample_points(chart, seed, count, margin), per_point_samples(chart, seed,
                                                                                 count, margin)
        assert got.shape == (count, chart.dim) and len(ref) == count
        assert got.tobytes() == np.stack(ref).tobytes()


def test_sampler_that_finds_no_interior_point_names_the_chart():
    chart = away_from_origin(flat2(), 10.0)
    for count in (1, 3):
        with pytest.raises(EvaluationOutsideDomain) as ref:
            per_point_samples(chart, 0, count, 0.01)
        with pytest.raises(EvaluationOutsideDomain) as got:
            sample_points(chart, 0, count, 0.01)
        assert str(got.value) == str(ref.value) == (
            f"flat2-10.0: could not draw {count} interior samples")
    with pytest.raises(ValueError, match="margin leaves no interior"):
        sample_points(chart, 0, 2, 2.0)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(margin=-0.1)
