import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from hermkit import catalog, numdiff
from hermkit.hermitian import AlmostComplexField, StructureJet, classify_structure, structure_jet
from hermkit.errors import EvaluationOutsideDomain, SingularMetric, WrongDimension
from hermkit.manifold import (INTERIOR_DEPTH, Box, Chart, Embedding, SamplePlan, VectorField,
                              christoffel, covariant_derivative, gradient, invert_metric,
                              lie_bracket, metric_derivative, positive_definite, sample_points)
from hermkit.numdiff import DiffConfig, by_row, constant, partial, second_partial


def constant_field(chart, v) -> VectorField:
    """The field with the components ``v`` at every point."""
    return VectorField(chart, constant(v))


def chart_gamma(chart, x, cfg):
    """The chart's Christoffel symbols at the rows of x: the interior checked,
    then ``christoffel`` of g^-1 there and of d g from one metric stencil."""
    chart.require_interior(x, cfg)
    return christoffel(chart.metric_inverse(x), metric_derivative(chart, x, cfg))


def flat2():
    return Chart(dim=2, box=Box((-2.0, -2.0), (2.0, 2.0)),
                 metric_fn=constant(np.eye(2)), name="flat2")


def sphere2():
    return catalog.sphere_chart(2)


def test_box_contains_margin():
    box, twin = Box((0.0,), (1.0,)), Box((0.0,), (1.0,))
    assert box.contains([0.5])
    assert not box.contains([0.05], margin=0.1)
    with pytest.raises(ValueError):
        Box((1.0,), (0.0,))
    # the bounds array is not compared, hashed or shown
    assert box == twin and hash(box) == hash(twin) and box != Box((0.0,), (2.0,))
    assert repr(box) == repr(twin) == "Box(lo=(0.0,), hi=(1.0,))"


def test_box_contains_checks_both_faces_of_every_row():
    """A stack is inside only when every row clears both faces by the margin; a
    NaN coordinate is outside."""
    box = Box((0.0, -1.0), (1.0, 1.0))
    inside = np.array([[0.5, 0.0], [0.0, -1.0], [1.0, 1.0]])
    assert box.contains(inside)
    assert not box.contains(inside, margin=1e-9)
    assert box.contains(inside[:1], margin=0.5) and not box.contains(inside[:1], margin=0.51)
    for bad in ([-1e-300, 0.0], [0.5, 1.0 + 2e-16], [np.nan, 0.0], [0.5, -np.inf]):
        assert not box.contains(np.vstack([inside, bad]))
    assert box.contains(inside[0]) and not box.contains([0.5, np.nan])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_box_rejects_non_finite_bounds(side, bad):
    """A NaN or infinite bound on either side is rejected (``l >= h`` is False for
    NaN, so the empty-box test alone let it through)."""
    bounds = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    bounds[side][0] = bad
    with pytest.raises(ValueError, match="box bounds must be finite"):
        Box(tuple(bounds["lo"]), tuple(bounds["hi"]))


def test_chart_contains_is_its_box_test():
    """A chart's domain is its box: ``Chart.contains`` is ``Box.contains`` on every
    row of a stack, with or without a margin, and a 1-D point is no stack."""
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(np.eye(2)))
    stacks = [[[0.5, 0.5], [-0.5, 0.2]], [[0.5, 0.5], [0.0, 0.05]], [[0.5, 0.5], [1.5, 0.5]],
              [[0.5, 0.5]], [[0.0, 0.05]], [[0.95, 0.0]], [[np.nan, 0.0]]]
    for stack, margin in itertools.product(stacks, (0.0, 0.1)):
        assert chart.contains(stack, margin) == chart.box.contains(stack, margin)
    assert chart.contains(stacks[1]) and not chart.contains(stacks[2])
    assert chart.contains(stacks[5]) and not chart.contains(stacks[5], 0.1)
    with pytest.raises(WrongDimension):
        chart.contains([0.5, 0.5])


#: A lower bound and a step at which lo + 2*step rounds so that x - 2*step < lo.
ROUNDING_LO, ROUNDING_STEP = 0.0008576047895108019, 3e-4


def interior_rows(chart, cfg):
    """Rows that ``require_interior`` accepts, each coordinate within a few ulps of
    lo + 2*step or hi - 2*step (taken as the float sums): every combination of
    the accepted ones on the two axes."""
    margin = INTERIOR_DEPTH * cfg.step
    near = []
    for lo, hi in chart.box.bounds.T:
        values = []
        for start, toward in ((lo + margin, np.inf), (hi - margin, -np.inf)):
            for _ in range(4):
                values.append(start)
                start = np.nextafter(start, toward)
        near.append(values)
    rows = np.array(list(itertools.product(*near)))
    accepted = []
    for row in rows:
        try:
            accepted.append(chart.require_interior(row[None], cfg)[0])
        except EvaluationOutsideDomain:
            pass
    return rows, np.array(accepted)


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("step", [1e-3, ROUNDING_STEP, 1e-4, 1e-5])
@pytest.mark.parametrize("lo, hi", [(ROUNDING_LO, 1.0), (0.2, 1.7), (-0.7, 0.7), (1.0, 2.5)])
def test_interior_rows_keep_every_stencil_point_in_the_box(lo, hi, step, richardson):
    """The guarantee that lets ``require_interior`` be the one domain check: at
    rows it accepts, also at lo + 2*step and hi - 2*step exactly, every point of
    ``numdiff.stencil`` and of ``second_partial``'s evaluation stack lies in the
    box.  ``Box.contains`` compares x - margin with lo, as the stencil computes
    x - 2*step; comparing x with lo + margin accepts x = lo + 2*step at
    (ROUNDING_LO, ROUNDING_STEP), whose x - 2*step rounds below lo."""
    cfg = DiffConfig(step=step, richardson=richardson)
    chart = Chart(dim=2, box=Box((lo, -hi), (hi, -lo)), metric_fn=constant(np.eye(2)))
    rows, accepted = interior_rows(chart, cfg)
    exact = [(chart.box.bounds[0] + INTERIOR_DEPTH * step)[0],
             (chart.box.bounds[1] - INTERIOR_DEPTH * step)[0]]
    assert len(accepted) >= len(rows) // 4 and np.isin(exact, accepted[:, 0]).any()
    seen = []
    second_partial(lambda p: seen.append(p.copy()) or p[:, 0], accepted, cfg)
    for points in (numdiff.stencil(accepted, cfg).reshape(-1, 2), seen[0]):
        for point in points:
            assert chart.box.contains(point), (point, chart.box)


def test_chart_requires_exactly_one_metric_source():
    with pytest.raises(ValueError):
        Chart(dim=1, box=Box((0.0,), (1.0,)))


def test_metric_rejects_asymmetry():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)),
                  metric_fn=constant([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(SingularMetric):
        chart.metric(np.zeros((1, 2)))


def test_metric_symmetry_bound_scales_with_the_metric():
    """Asymmetry is held to ``METRIC_SYMMETRY_TOL * max(1, max|g|)`` at each row: an
    asymmetry of 1e-8 passes at |g| = 1e6 (bound 1e-6) although it is above the
    unscaled bound, and fails at |g| = 1; the error names the only bad row, the last."""
    def chart(rows):
        return Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)),
                     metric_fn=lambda p: np.array(rows, dtype=float))

    x = np.array([[0.1, 0.2], [0.3, 0.4]])
    big = [[1e6, 0.0], [1e-8, 1e6]]
    npt.assert_array_equal(chart([np.eye(2), big]).metric(x)[1], [[1e6, 5e-9], [5e-9, 1e6]])
    with pytest.raises(SingularMetric, match=r"metric at array\(\[0.3, 0.4\]\) is not symmetric"):
        chart([big, [[1.0, 0.0], [1e-8, 1.0]]]).metric(x)


def non_finite_beyond_half(value=np.nan, entries=((0, 0), (0, 1), (1, 0), (1, 1))):
    """A flat chart whose ``metric_fn`` puts ``value`` at ``entries`` of g (at every
    entry by default) where x1 > 0.5."""
    def metric_fn(x):
        g = np.tile(np.eye(2), (len(x), 1, 1))
        for i, j in entries:
            g[x[:, 0] > 0.5, i, j] = value
        return g

    return Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=metric_fn)


def test_metric_rejects_a_non_finite_row(cfg):
    """A NaN metric, an infinite diagonal entry (g - g^T is inf - inf there) and an
    infinite entry equal to its transpose raise ``SingularMetric`` naming the first
    such row, with no numeric warning, also at a stencil point: d g (and a
    classification, whose structure jet differences g there) is not built from it
    (for NaN both read NaN rows, and classify called the structure integrable,
    before)."""
    x = np.array([[0.5, 0.0]])
    stack = np.array([[0.1, 0.0], [0.2, 0.0], [0.7, 0.0], [0.9, 0.0]])
    first = re.escape(f"metric at {numdiff.stencil(x, cfg)[0, 0]!r} is not finite")
    for chart in (non_finite_beyond_half(), non_finite_beyond_half(np.inf, [(0, 0)]),
                  non_finite_beyond_half(-np.inf, [(1, 1)]),
                  non_finite_beyond_half(np.inf, [(0, 1), (1, 0)])):
        j_field = AlmostComplexField(chart, constant([[0.0, -1.0], [1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMetric,
                               match=re.escape(f"metric at {stack[2]!r} is not finite")):
                chart.metric(stack)
            with pytest.raises(SingularMetric, match=first):
                metric_derivative(chart, x, cfg)
            with pytest.raises(SingularMetric, match=first):
                classify_structure(structure_jet(chart, j_field, x, cfg))


def diagonal_stack(*diagonals):
    """The stack of the diagonal metrics with the given diagonals."""
    return np.stack([np.diag(np.asarray(d, dtype=float)) for d in diagonals])


@pytest.mark.parametrize("diagonals, bad, problem", [
    ([(1, 2), (3, 4), (5, -6)], 2, "is not positive-definite"),
    ([(1, 2), (3, -4), (5, 6), (7, -8)], 1, "is not positive-definite"),
    ([(1, 2), (3, 4), (5, 0)], 2, "is singular"),
    ([(1, 2), (np.nan, 4), (5, 6)], 1, "is not positive-definite"),
    ([(1, 2), (3, 4), (np.inf, 6)], 2, "is not positive-definite")])
def test_invert_metric_names_the_first_bad_row(diagonals, bad, problem):
    """One batched Cholesky tests positive-definiteness; the error names the first
    row that is indefinite, singular, NaN or infinite, with no numeric warning."""
    x = np.arange(2.0 * len(diagonals)).reshape(-1, 2) / 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetric) as err:
            invert_metric(diagonal_stack(*diagonals), x)
    assert str(err.value) == f"metric at {x[bad]!r} {problem}"


def test_invert_metric_inverts_a_positive_definite_stack():
    g = diagonal_stack((1, 2), (4, 8))
    npt.assert_array_equal(invert_metric(g, np.zeros((2, 2))), np.linalg.inv(g))
    assert positive_definite(g) and not positive_definite(diagonal_stack((1, 2), (1, -1e-300)))


def test_christoffel_evaluates_the_metric_once_per_stencil(cfg):
    """metric_fn runs once at the row (for g^-1) and once on all 4 * dim stencil
    rows (``metric_derivative``)."""
    shapes = []

    def metric_fn(stack):
        shapes.append(stack.shape)
        return by_row(lambda p: np.diag([1.0, 1.0 + p[0] ** 2]))(stack)

    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=metric_fn)
    gamma = chart_gamma(chart, np.array([[0.3, 0.4]]), cfg)
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
    return chart.metric_inverse(x)


def require_interior(chart, x, cfg):
    return chart.require_interior(x, cfg)


def lazy_jet(chart, j_field, x, cfg) -> StructureJet:
    """The structure jet on g at the rows alone, every other part built when first
    read, as each side of a map jet is."""
    return StructureJet(chart, j_field, x, cfg, held={"metric": chart.metric(x)})


def lazy_gamma(chart, x, cfg):
    return lazy_jet(chart, None, x, cfg).gamma


def covariant(chart, x, cfg):
    return covariant_derivative(constant_field(chart, [1.0, 0.0]),
                                constant_field(chart, [0.0, 1.0]), x, cfg)


@pytest.mark.parametrize("operator", [pytest.param(lazy_gamma, id="christoffel"),
                                      metric_inverse, require_interior, covariant])
@pytest.mark.parametrize("order", list(itertools.permutations(BAD)))
def test_stacked_geometry_raises_what_its_first_bad_row_raises(operator, order, cfg):
    """A stack with an out-of-domain row, a singular-metric row and a row whose
    metric is not positive-definite, in any order after good rows, raises the
    error (type and message) that its first bad row raises alone, as a one-row
    stack: the Christoffel symbols of a structure jet (g^-1 and ``metric_derivative``),
    g^-1, the interior check and ``covariant_derivative``."""
    stack = np.array([*GOOD, *(BAD[name] for name in order)])
    alone = [raised(lambda: operator(diagonal_chart(), stack[r:r + 1], cfg))
             for r in range(len(stack))]
    expected = next(e for e in alone if e is not None)
    assert expected[0] in (EvaluationOutsideDomain, SingularMetric)
    assert raised(lambda: operator(diagonal_chart(), stack, cfg)) == expected


@pytest.mark.parametrize("operator", [pytest.param(lazy_gamma, id="christoffel"), covariant])
def test_christoffel_checks_the_interior_then_g_then_the_stencil(operator, cfg):
    """At a row with two faults the Christoffel build raises the first it checks:
    the interior before a singular g (g = diag(1, x1) is singular on x1 = 0), and
    a singular g before a metric that has no value at a stencil point only."""
    def metric_fn(p):
        if np.any(p[:, 1] > 0.5):
            raise ValueError("metric undefined past x2 = 0.5")
        return diagonal_chart().metric_fn(p)

    with pytest.raises(EvaluationOutsideDomain):
        operator(diagonal_chart(), np.array([[0.0, 0.9999]]), cfg)
    with pytest.raises(SingularMetric):
        operator(dataclasses.replace(diagonal_chart(), metric_fn=metric_fn),
                 np.array([[0.0, 0.49996]]), cfg)


@pytest.mark.parametrize("entry_id, key", [("hopf-s3", "source"), ("hopf-s3", "target"),
                                           ("product-hopf-1-1", "source"), ("ce-2-1", "ce")])
def test_stacked_christoffel_and_inverse_metric_equal_point_calls(entry_id, key, cfg):
    """Row by row, bit for bit, each row its one-row stack's."""
    chart = catalog.get_entry(entry_id).charts[key]
    points = SamplePlan(seed=3, count=3).points(chart, cfg)
    gammas, g_inv = chart_gamma(chart, points, cfg), chart.metric_inverse(points)
    assert gammas.shape == (3, chart.dim, chart.dim, chart.dim)
    for r in range(len(points)):
        assert np.array_equal(gammas[r], chart_gamma(chart, points[r:r + 1], cfg)[0])
        assert np.array_equal(g_inv[r], chart.metric_inverse(points[r:r + 1])[0])


def test_metric_fn_must_return_a_stack():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=lambda x: np.eye(2),
                  name="per-point")
    with pytest.raises(WrongDimension, match=r"per-point.*\(2, 2\).*\(1, 2\).*\(1, 2, 2\)"):
        chart.metric(np.zeros((1, 2)))


def test_christoffel_flat_is_zero(cfg):
    gamma = chart_gamma(flat2(), np.array([[0.3, 0.4]]), cfg)
    npt.assert_allclose(gamma, 0.0, atol=1e-12)


def test_christoffel_round_sphere_closed_form(cfg):
    """Round-sphere chart: Gamma^th_{ph ph} = -sin th cos th and
    Gamma^ph_{th ph} = cot th."""
    (gamma,) = chart_gamma(sphere2(), np.array([[1.0, 0.8]]), cfg)
    npt.assert_allclose(gamma[0, 1, 1], -math.sin(1.0) * math.cos(1.0), atol=1e-9)
    npt.assert_allclose(gamma[1, 0, 1], 1.0 / math.tan(1.0), atol=1e-9)
    npt.assert_allclose(gamma[0, 0, 0], 0.0, atol=1e-9)


def test_christoffel_fubini_study_origin(cfg):
    """The projective-space metric is Euclidean to second order at w = 0."""
    chart = catalog.fs_chart(1)
    gamma = chart_gamma(chart, np.zeros((1, 2)), cfg)
    npt.assert_allclose(gamma, 0.0, atol=1e-9)


def test_christoffel_lower_symmetry_exact(cfg):
    gamma = chart_gamma(sphere2(), np.array([[0.9, 0.7]]), cfg)
    npt.assert_allclose(gamma, np.swapaxes(gamma, 2, 3), rtol=0, atol=0)


def test_christoffel_outside_domain(cfg):
    with pytest.raises(EvaluationOutsideDomain):
        chart_gamma(sphere2(), np.array([[0.3, 0.7]]), cfg)  # on the box edge


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

    d_inner = partial(lambda p: pair(y_field(p), chart.metric(p), z_field(p)), x, cfg)
    lhs = np.einsum("ri,ri->r", x_field(x), d_inner)
    g = chart.metric(x)
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


def test_embedded_pullbacks_identity():
    """The metric pulled back by the identity embedding, and the projection
    (Dpsi^T Dpsi)^{-1} Dpsi^T built from it, are the identity."""
    emb = Embedding(2, lambda x: np.array(x, dtype=float), constant(np.eye(2)))
    x = np.array([[0.3, 0.4]])
    (g,), (d,) = embedded_chart(emb, 2).metric(x), emb.dpsi(x)
    assert np.array_equal(g, np.eye(2))
    assert np.array_equal(np.linalg.solve(g, d.T), np.eye(2))


def test_embedded_pullbacks_unit_circle():
    """The arc-length circle t -> (cos t, sin t) pulls back g = sin^2 + cos^2 = 1."""
    emb = Embedding(2, lambda t: np.stack([np.cos(t[:, 0]), np.sin(t[:, 0])], axis=1),
                    lambda t: np.stack([-np.sin(t), np.cos(t)], axis=1))
    g = embedded_chart(emb, 1).metric(np.array([[0.7]]))
    npt.assert_allclose(g, [[[1.0]]], rtol=0.0, atol=2e-16)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_projection_left_inverse_of_embedding(n):
    """The projection built from the chart's pulled-back metric is a left
    inverse of Dpsi, so tangent ambient vectors map back to chart components."""
    emb = catalog.sphere_embedding(n)
    x = np.linspace(0.4, 1.1, n)[None]
    (d,) = emb.dpsi(x)
    proj = np.linalg.solve(embedded_chart(emb, n).metric(x)[0], d.T)
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
    """The sampler drawing one point at a time in the box shrunk by the margin:
    the reference that ``sample_points`` equals."""
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(chart.box.lo) + margin, np.asarray(chart.box.hi) - margin
    return [rng.uniform(lo, hi) for _ in range(count)]


SAMPLED_CHARTS = {
    "flat2": flat2(),
    "s2": sphere2(),
    **{f"punctured-c{n + 1}": catalog.punctured_hopf(n).charts["source"] for n in (1, 2)},
}


@pytest.mark.parametrize("margin", [1e-3, 0.05, 0.3])
@pytest.mark.parametrize("key", SAMPLED_CHARTS)
def test_block_sampler_equals_the_per_point_draws(key, margin):
    """One block draw gives the per-point draws bit for bit, in draw order, over
    seeds and counts, and every sample lies margin inside the box."""
    chart = SAMPLED_CHARTS[key]
    for seed, count in itertools.product(range(5), (1, 2, 5, 16)):
        got, ref = sample_points(chart, seed, count, margin), per_point_samples(chart, seed,
                                                                                 count, margin)
        assert got.shape == (count, chart.dim) and len(ref) == count
        assert got.tobytes() == np.stack(ref).tobytes()
        assert np.all((got >= chart.box.bounds[0] + margin) & (got <= chart.box.bounds[1] - margin))


def test_sampler_margin_that_leaves_no_interior_raises():
    """A margin at least half the box's width on some axis leaves nothing to draw."""
    for margin in (2.0, 3.0):
        with pytest.raises(ValueError, match="margin leaves no interior"):
            sample_points(flat2(), 0, 2, margin)
    chart = Chart(dim=2, box=Box((0.0, -1.0), (5e-4, 1.0)), metric_fn=constant(np.eye(2)))
    with pytest.raises(ValueError, match="margin leaves no interior"):
        SamplePlan(count=6).points(chart, DiffConfig())


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(margin=-0.1)
