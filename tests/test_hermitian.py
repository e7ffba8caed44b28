import dataclasses
import itertools
import json

import numpy as np
import numpy.testing as npt
import pytest

from hermkit import catalog, hermitian, numdiff, scenarios
from hermkit import geodsl
from hermkit.errors import PreconditionFailed
from hermkit.hermitian import (AlmostComplexField, HermitianFrame, antiholomorphic_part,
                               classify_structure, divergence_J, g_norm,
                               hermitian_frame, lee_vector, nabla_J, nijenhuis, structure_jet)
from hermkit.manifold import (Box, Chart, Embedding, SamplePlan, VectorField, christoffel,
                              covariant_derivative, lie_bracket)
from hermkit.numdiff import constant, orthonormalize
from test_manifold import chart_gamma, constant_field, lazy_jet


def bilinear(g, z, w) -> complex:
    """Complex-bilinear extension of g (no conjugation)."""
    return complex(z @ g @ w)


def frame_residual(frame, g) -> float:
    """Max deviation of <Z_k, conj(Z_l)> = delta_kl and <Z_k, Z_l> = 0."""
    worst = 0.0
    for k, zk in enumerate(frame.complex_frame):
        for l, zl in enumerate(frame.complex_frame):
            herm = bilinear(g, zk, np.conj(zl)) - (1.0 if k == l else 0.0)
            iso = bilinear(g, zk, zl)
            worst = max(worst, abs(herm), abs(iso))
    return worst


def frame_row(frame, r) -> HermitianFrame:
    """The frame at row r of a stacked frame, its vectors 1-D."""
    return HermitianFrame(tuple(v[r] for v in frame.real_frame),
                          tuple(v[r] for v in frame.complex_frame))


def classify(chart, j_field, plan, cfg):
    """``classify_structure`` of the structure jet at the plan's samples, as the CLI
    and ``scenarios.check_structure_verdicts`` build it."""
    return classify_structure(structure_jet(chart, j_field, plan.points(chart, cfg), cfg))


def cov_complex(direction, re_field, im_field, x, cfg):
    """Complex-bilinear covariant derivative of the field re + i im along a
    complex direction at the rows of x, from four real covariant derivatives."""
    a, b = (constant_field(re_field.chart, part(direction)) for part in (np.real, np.imag))
    cov = lambda v, w: covariant_derivative(v, w, x, cfg)
    out = cov(a, re_field) + 1j * cov(a, im_field)
    return out + 1j * (cov(b, re_field) + 1j * cov(b, im_field))


def complex_form_residuals(chart, j_field, points, cfg) -> tuple:
    """The (1,2)-symplectic and cosymplectic Hermitian-frame residuals, with
    every frame field a separate real and imaginary vector field and each
    nabla_{conj Z_k} Z_l built by :func:`cov_complex`, one sample at a time."""
    r_12_c = r_cos_c = 0.0
    for x in np.asarray(points)[:, None]:  # each sample as a one-row stack
        frame = frame_row(hermitian_frame(chart, j_field, x), 0)
        g, j = chart.metric(x), j_field(x)

        def z_part(l, part):  # the greedy frame field, which picks the sample's axes near it
            return VectorField(chart, lambda p: part(hermitian_frame(
                chart, j_field, p).complex_frame[l]))

        cosym_sum = np.zeros((1, chart.dim), dtype=complex)
        for k, zk in enumerate(frame.complex_frame):
            for l in range(frame.m):
                cov = cov_complex(np.conj(zk), z_part(l, np.real), z_part(l, np.imag), x, cfg)
                if l == k:
                    cosym_sum = cosym_sum + cov
                r_12_c = max(r_12_c, float(g_norm(g, antiholomorphic_part(j, cov))[0]))
        r_cos_c = max(r_cos_c, float(g_norm(g, antiholomorphic_part(j, cosym_sum))[0]))
    return r_12_c, r_cos_c


@pytest.fixture(scope="module")
def torus():
    entry = catalog.flat_torus()
    return entry.charts["torus"], entry.structures["J"]


@pytest.fixture(scope="module")
def ce10():
    entry = catalog.calabi_eckmann(1, 0)
    return entry.charts["ce"], entry.structures["J"]


@pytest.fixture(scope="module")
def cp1():
    entry = catalog.complex_projective(1)
    return entry.charts["cp"], entry.structures["J"]


def test_frame_flat_torus(torus):
    chart, j_field = torus
    frame = hermitian_frame(chart, j_field, np.array([[0.5, 0.9]]))
    assert frame.m == 1
    npt.assert_allclose(frame.real_frame, [[[1.0, 0.0]], [[0.0, 1.0]]])  # e_1, J e_1
    assert len(frame.complex_frame) == 1


def test_frame_hermitian_property_on_product_sphere(ce10, cfg):
    """<Z_k, conj Z_l> = delta_kl and <Z_k, Z_l> = 0 in the bilinear extension."""
    chart, j_field = ce10
    points = SamplePlan(seed=5, count=10).points(chart, cfg)
    frames, gs = hermitian_frame(chart, j_field, points), chart.metric(points)
    for r, g in enumerate(gs):
        frame = frame_row(frames, r)
        assert frame_residual(frame, g) <= 1e-10
        u = np.column_stack(frame.real_frame)
        assert np.max(np.abs(u.T @ g @ u - np.eye(4))) <= 1e-10


def test_nabla_j_constant_structure(torus, cfg):
    chart, j_field = torus
    t = structure_jet(chart, j_field, np.array([[0.6, 1.0]]), cfg).nabla
    npt.assert_allclose(t, 0.0, atol=1e-12)


def test_nabla_j_kaehler_metric(cp1, cfg, plan):
    chart, j_field = cp1
    t = structure_jet(chart, j_field, plan.points(chart, cfg), cfg).nabla
    assert np.max(np.abs(t)) <= cfg.tolerance(1.0)


def test_nabla_j_nonzero_on_product_sphere(ce10, cfg):
    chart, j_field = ce10
    jet = structure_jet(chart, j_field, np.array([[0.5, 0.7, 0.9, 1.1]]), cfg)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            e_i = np.eye(4)[i]
            e_j = np.eye(4)[j]
            worst = max(worst, float(np.linalg.norm(nabla_J(jet, e_i, e_j))))
    assert worst > 10.0 * cfg.tolerance(1.0)


def test_divergence_flat_structures(torus, cfg):
    chart, j_field = torus
    npt.assert_allclose(divergence_J(structure_jet(chart, j_field, np.array([[0.6, 0.9]]), cfg)),
                        0.0, atol=1e-12)


def test_divergence_kaehler_is_zero(cp1, cfg):
    chart, j_field = cp1
    val = divergence_J(structure_jet(chart, j_field, np.array([[0.4, -0.7]]), cfg))
    npt.assert_allclose(val, 0.0, atol=1e-8)


@pytest.mark.parametrize("r,s", [(1, 0), (0, 1), (1, 1)])
def test_divergence_matches_closed_form(r, s, cfg):
    entry = catalog.calabi_eckmann(r, s)
    chart = entry.charts["ce"]
    j_field = entry.structures["J"]
    points = SamplePlan(seed=2, count=3).points(chart, cfg)
    num = divergence_J(structure_jet(chart, j_field, points, cfg))
    ana = catalog.odd_sphere_product_divergence(chart, r, s, points)
    npt.assert_allclose(num, ana, atol=1e-7)


def divergence_J_frame(jet, frame_vectors):
    """div J summed explicitly over a supplied g-orthonormal frame: the oracle
    for :func:`divergence_J` (frame independence of the trace)."""
    out = np.zeros(jet.x.shape)
    for u in frame_vectors:
        out = out + nabla_J(jet, u, u)
    return out


def test_divergence_frame_independent(ce10, cfg, rng):
    """Tracing over a random g-orthonormal frame gives the same vector."""
    chart, j_field = ce10
    x = np.array([[0.6, 0.8, 1.0, 0.5]])
    g = chart.metric(x)
    frame = orthonormalize([rng.normal(size=(1, 4)) for _ in range(4)], g)
    jet = structure_jet(chart, j_field, x, cfg)
    via_frame = divergence_J_frame(jet, frame)
    via_trace = divergence_J(jet)
    npt.assert_allclose(via_frame, via_trace, atol=10.0 * cfg.tolerance(1.0))


def test_lee_vector_norm_preserved(ce10, cfg):
    """|J div J| = |div J| since J is isometric; the product-sphere value is 2."""
    chart, j_field = ce10
    x = np.array([[0.5, 0.7, 0.9, 1.1]])
    jet = structure_jet(chart, j_field, x, cfg)
    g = jet.metric
    delta = divergence_J(jet)
    lee = lee_vector(jet)
    npt.assert_allclose(g_norm(g, lee), g_norm(g, delta), atol=1e-9)
    npt.assert_allclose(g_norm(g, delta), 2.0, atol=1e-8)


def test_lee_vector_flat(torus, cfg):
    chart, j_field = torus
    npt.assert_allclose(lee_vector(structure_jet(chart, j_field, np.array([[0.5, 0.5]]), cfg)),
                        0.0, atol=1e-12)


def test_nijenhuis_flat_and_projective(torus, cp1, cfg):
    for chart, j_field, x in [(torus[0], torus[1], np.array([[0.5, 0.8]])),
                              (cp1[0], cp1[1], np.array([[0.4, -0.6]]))]:
        jet = structure_jet(chart, j_field, x, cfg)
        val = nijenhuis(jet, np.eye(chart.dim)[0], np.eye(chart.dim)[1])
        npt.assert_allclose(val, 0.0, atol=1e-10)


def test_nijenhuis_integrable_product_sphere(ce10, cfg):
    chart, j_field = ce10
    jet = structure_jet(chart, j_field, np.array([[0.5, 0.7, 0.9, 1.1]]), cfg)
    for a in range(4):
        for b in range(a + 1, 4):
            val = nijenhuis(jet, np.eye(4)[a], np.eye(4)[b])
            assert np.max(np.abs(val)) <= cfg.tolerance(1.0)


def test_nijenhuis_antisymmetric(ce10, cfg, rng):
    chart, j_field = ce10
    jet = structure_jet(chart, j_field, np.array([[0.6, 0.9, 0.7, 1.0]]), cfg)
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    npt.assert_allclose(nijenhuis(jet, u, v), -nijenhuis(jet, v, u), atol=1e-9)


def test_nijenhuis_scaling_tensorial(ce10, cfg, rng):
    chart, j_field = ce10
    jet = structure_jet(chart, j_field, np.array([[0.6, 0.9, 0.7, 1.0]]), cfg)
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    npt.assert_allclose(nijenhuis(jet, 2.5 * u, v), 2.5 * nijenhuis(jet, u, v), atol=1e-9)


def nijenhuis_bracket_route(chart, j_field, x, xv, yv, cfg):
    """Literal bracket evaluation of N(X, Y) on constant-component X and Y at a
    one-row stack x: the slow oracle for :func:`nijenhuis`."""
    (j_at,) = j_field(x)
    xf, yf = constant_field(chart, xv), constant_field(chart, yv)
    jxf = VectorField(chart, lambda p: j_field(p) @ xv)
    jyf = VectorField(chart, lambda p: j_field(p) @ yv)
    bracket = lambda a, b: lie_bracket(a, b, x, cfg)[0]
    return (bracket(jxf, jyf) - j_at @ bracket(jxf, yf) - j_at @ bracket(xf, jyf)
            - bracket(xf, yf))


def test_nijenhuis_two_routes_agree(ce10, cfg, rng):
    """The derivative-stack contraction equals the literal bracket evaluation."""
    chart, j_field = ce10
    x = np.array([[0.5, 0.8, 1.0, 0.6]])
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    (fast,) = nijenhuis(structure_jet(chart, j_field, x, cfg), u, v)
    slow = nijenhuis_bracket_route(chart, j_field, x, u, v, cfg)
    npt.assert_allclose(fast, slow, atol=1e-7)


def test_type_projectors(ce10, rng):
    """X = X^{1,0} + X^{0,1} and J X^{1,0} = i X^{1,0}; for a real X the
    (1,0)-part is the conjugate of the (0,1)-part."""
    chart, j_field = ce10
    (j,) = j_field(np.array([[0.5, 0.7, 0.9, 1.1]]))
    v = rng.normal(size=4)
    anti = antiholomorphic_part(j, v)
    hol = np.conj(anti)
    npt.assert_allclose(hol + anti, v, atol=1e-12)
    npt.assert_allclose(j @ hol, 1j * hol, atol=1e-12)
    npt.assert_allclose(j @ anti, -1j * anti, atol=1e-12)


def test_bilinear_extension_is_complex_bilinear(rng):
    g = np.diag([2.0, 3.0, 1.0, 1.5])
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    npt.assert_allclose(bilinear(g, 1j * z, w), 1j * bilinear(g, z, w))
    npt.assert_allclose(bilinear(g, z, 1j * w), 1j * bilinear(g, z, w))


def test_classify_flat_torus_all_true(torus, cfg, plan):
    chart, j_field = torus
    report = classify(chart, j_field, plan, cfg)
    assert all(report.verdicts.values())
    assert report.residual_kahler <= 1e-10
    r_12_c, r_cos_c = complex_form_residuals(chart, j_field, report.samples, cfg)
    assert r_12_c <= 1e-8
    assert r_cos_c <= 1e-8


def test_classify_projective_all_true(cp1, cfg, plan):
    report = classify(cp1[0], cp1[1], plan, cfg)
    assert all(report.verdicts.values())


def test_classify_product_sphere_pattern(ce10, cfg, plan):
    report = classify(ce10[0], ce10[1], plan, cfg)
    assert report.verdicts == {"kahler": False, "one_two_symplectic": False,
                               "cosymplectic": False, "integrable": True}
    # the Hermitian-frame forms detect the same failures
    r_12_c, r_cos_c = complex_form_residuals(ce10[0], ce10[1], report.samples, cfg)
    assert r_12_c > 10 * report.tolerance
    assert r_cos_c > 10 * report.tolerance


def kodaira_thurston(pairs):
    """A chart of the Kodaira-Thurston nilmanifold with coframe dx, dy, dz - x dy,
    dt, orthonormal frame E1 = d_x, E2 = d_y + x d_z, E3 = d_z, E4 = d_t, and the
    left-invariant J with J E_a = E_b for each (a, b) in ``pairs`` (0-based)."""
    def metric(p):  # dx^2 + dy^2 + (dz - x dy)^2 + dt^2
        g = np.tile(np.eye(4), (len(p), 1, 1))
        g[:, 1, 1] = 1.0 + p[:, 0] ** 2
        g[:, 1, 2] = g[:, 2, 1] = -p[:, 0]
        return g

    in_frame = np.zeros((4, 4))
    for a, b in pairs:
        in_frame[b, a], in_frame[a, b] = 1.0, -1.0

    def j(p):
        frame = np.tile(np.eye(4), (len(p), 1, 1))
        frame[:, 2, 1] = p[:, 0]
        return frame @ in_frame @ np.linalg.inv(frame)

    chart = Chart(dim=4, box=Box((-1.0,) * 4, (1.0,) * 4), metric_fn=metric,
                  name="kodaira-thurston")
    return chart, AlmostComplexField(chart, j)


@pytest.mark.parametrize("pairs, expected", [
    (((0, 2), (1, 3)), {"kahler": False, "one_two_symplectic": True,
                        "cosymplectic": True, "integrable": False}),
    (((0, 1), (2, 3)), {"kahler": False, "one_two_symplectic": False,
                        "cosymplectic": False, "integrable": True}),
])
def test_classify_separates_one_two_symplectic_from_kahler(pairs, expected, cfg):
    """On the Kodaira-Thurston chart, J E1 = E3, J E2 = E4 is (1,2)-symplectic
    and cosymplectic but neither Kaehler nor integrable, and J E1 = E2,
    J E3 = E4 is integrable only: the (1,2)-symplectic residual is not the
    Kaehler one."""
    report = classify(*kodaira_thurston(pairs), SamplePlan(0, 3), cfg)
    assert report.verdicts == expected
    assert report.residual_kahler > 0.4
    for name, holds in expected.items():
        if not holds:
            assert report.to_dict()["residuals"][name] > 0.4, name


def test_classify_deterministic(torus, cfg, plan):
    chart, j_field = torus
    a = classify(chart, j_field, plan, cfg).to_dict()
    b = classify(chart, j_field, plan, cfg).to_dict()
    assert a == b


def test_classify_builds_no_hermitian_frame(monkeypatch, cfg):
    """classify reads its residuals at the unit axes of the g rows the structure
    jet holds: no Hermitian frame is built and no vector is projected, at the
    samples or at a stencil, and the report is the one built unpatched."""
    entry = catalog.calabi_eckmann(1, 1)
    chart, j_field, plan = entry.charts["ce"], entry.structures["J"], SamplePlan(count=5)
    expected = classify(chart, j_field, plan, cfg).to_dict()
    monkeypatch.setattr(hermitian, "hermitian_frame", None)
    monkeypatch.setattr(hermitian, "project_out", None)
    monkeypatch.setattr(numdiff, "project_out", None)
    assert classify(chart, j_field, plan, cfg).to_dict() == expected


def test_classify_metric_builds_do_not_grow_with_the_samples(monkeypatch, cfg):
    """Stencils ask the embedding for stacks of D(psi), whose Gram matrices are the
    metrics: classify on an embedded chart builds D(psi) on as many stacks at 3
    samples as at 2, one, holding its rows for all the samples and their stencil
    points (two when the metric and J each built their own)."""
    rows = {2: [], 3: []}
    build = Embedding.dpsi
    for count, seen in rows.items():
        entry = catalog.calabi_eckmann(1, 1)
        whole = entry.charts["ce"].embedding  # not its factors' embeddings
        monkeypatch.setattr(Embedding, "dpsi", lambda self, x, whole=whole:
                            (self is whole and seen.append(len(x))) or build(self, x))
        classify(entry.charts["ce"], entry.structures["J"], SamplePlan(count=count), cfg)
    assert rows == {2: [50], 3: [75]}


def test_classify_builds_one_stacked_structure_jet(monkeypatch, cfg):
    """All samples of a classification share one stack, the 3 samples and then
    their 3 * 24 stencil points: D(psi) is evaluated once on it and g (its Gram
    matrix) and J are read off it, with no metric call (one metric call and a
    second D(psi) inside J before), the Christoffel symbols are built once, at the
    samples, from g^-1 there and d g differenced from that g, J is never
    differenced through ``dj_stack``, and the chart checks its domain once, at
    the samples' interior (twice when the stencil points were tested too, three
    times when the Christoffel build and ``dj_stack`` checked apart)."""
    calls = {"metric": [], "dpsi": [], "j": [], "dj_stack": [], "christoffel": [],
             "contains": []}
    contains = Chart.contains
    monkeypatch.setattr(Chart, "contains", lambda self, x, margin=0.0:
                        calls["contains"].append(np.shape(x)) or contains(self, x, margin))
    metric, dpsi, j_call = Chart.metric, Embedding.dpsi, AlmostComplexField.__call__
    monkeypatch.setattr(Chart, "metric", lambda self, x:
                        calls["metric"].append(x.shape) or metric(self, x))
    monkeypatch.setattr(AlmostComplexField, "__call__", lambda self, x, d=None:
                        calls["j"].append(np.shape(x)) or j_call(self, x, d))
    monkeypatch.setattr(hermitian, "dj_stack", lambda *args: calls["dj_stack"].append(args))
    christoffel = hermitian.christoffel
    monkeypatch.setattr(hermitian, "christoffel", lambda g_inv, dg: calls[
        "christoffel"].append((g_inv.shape, dg.shape)) or christoffel(g_inv, dg))
    entry = catalog.calabi_eckmann(1, 1)
    monkeypatch.setattr(Embedding, "dpsi", lambda self, x: (
        self is entry.charts["ce"].embedding and calls["dpsi"].append(x.shape))
        or dpsi(self, x))
    classify(entry.charts["ce"], entry.structures["J"], SamplePlan(count=3), cfg)
    assert calls == {"metric": [], "dpsi": [(75, 6)], "j": [(75, 6)], "dj_stack": [],
                     "christoffel": [((3, 6, 6), (3, 6, 6, 6))], "contains": [(3, 6)]}


def test_dj_stack_evaluates_j_once_per_stencil(cfg):
    shapes = []

    def j_fn(stack):
        shapes.append(stack.shape)
        return constant([[0.0, -1.0], [1.0, 0.0]])(stack)

    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(np.eye(2)))
    dj = hermitian.dj_stack(chart, AlmostComplexField(chart, j_fn), np.array([[0.2, 0.1]]), cfg)
    assert shapes == [(8, 2)]
    assert np.array_equal(dj, np.zeros((1, 2, 2, 2)))


@pytest.mark.parametrize("name", [*(sid for sid in scenarios.scenario_ids()
                                    if sid.endswith("-classify")), "conformal-dsl"])
def test_classify_real_form_and_complex_form_pass_or_fail_together(name, cfg):
    """The (1,2)-symplectic and cosymplectic residuals of the real form agree
    with the Hermitian-frame form of the same conditions under the scenarios'
    biconditional coupling, on the chart of every ``*-classify`` scenario and
    on the conformally flat config."""
    chart, j_field = chart_and_structure(name)
    report = classify(chart, j_field, SamplePlan(seed=3, count=3), cfg)
    r_12_c, r_cos_c = complex_form_residuals(chart, j_field, report.samples, cfg)
    for real, complex_form in ((report.residual_12sympl, r_12_c),
                               (report.residual_cosympl, r_cos_c)):
        assert scenarios.biconditional_check("real-vs-complex-form", real, complex_form,
                                             report.tolerance, len(report.samples)).verdict


def test_classify_rejects_incompatible_structure(cfg):
    """The standard J is not compatible with g = diag(1, 4): J^T g J = diag(4, 1).
    J = I on the flat chart has J^2 + I = 2 I: neither is classified."""
    for metric, j in ((np.diag([1.0, 4.0]), [[0.0, -1.0], [1.0, 0.0]]), (np.eye(2), np.eye(2))):
        chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(metric))
        j_field = AlmostComplexField(chart, constant(np.asarray(j, dtype=float)))
        with pytest.raises(PreconditionFailed) as err:
            classify(chart, j_field, SamplePlan(count=3), cfg)
        assert err.value.precondition == "almost Hermitian"


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("entry, bad", [((1, "j", (0, 0)), 1), ((1, "j", (1, 0)), 1),
                                        ((2, "g", (1, 1)), 2), ((0, "g", (0, 1)), 0)],
                         ids=["J00", "J10", "g11", "g01"])
def test_a_nan_in_g_or_j_is_not_almost_hermitian(entry, bad):
    """A NaN residual is not within its bound: the row holding the NaN is named."""
    row, name, (a, b) = entry
    g, j = np.stack([np.eye(2)] * 3), np.stack([ROTATION] * 3)
    {"g": g, "j": j}[name][row, a, b] = np.nan
    x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    with pytest.raises(PreconditionFailed, match=rf"residual nan at \[{x[bad, 0]}, {x[bad, 1]}\]"):
        hermitian.require_almost_hermitian(g, j, x)


def test_the_only_bad_row_of_a_stack_is_named_when_it_is_the_last():
    g, j = np.stack([np.eye(2)] * 4), np.stack([ROTATION] * 4)
    j[3] = [[0.0, -1.0], [1.001, 0.0]]
    x = np.arange(8.0).reshape(4, 2)
    with pytest.raises(PreconditionFailed, match=r"J\^2 \+ I residual 0.001, .* at \[6.0, 7.0\]"):
        hermitian.require_almost_hermitian(g, j, x)


def test_compatibility_bound_scales_per_row_with_the_metric():
    """Under g = diag(1e4, 1e4 + 1e-6), J^T g J - g = 1e-6 lies between the unscaled
    bound ``J_SQUARE_TOL`` and the row's bound 1e4 * ``J_SQUARE_TOL``: the row passes;
    the same residual on a row with |g| = 1 fails."""
    j = np.stack([ROTATION] * 2)
    hermitian.require_almost_hermitian(np.stack([np.eye(2), np.diag([1e4, 1e4 + 1e-6])]), j,
                                       np.zeros((2, 2)))
    with pytest.raises(PreconditionFailed, match=r"g\(J., J.\) - g residual 1e-06"):
        hermitian.require_almost_hermitian(np.stack([np.diag([1e4, 1e4 + 1e-6]),
                                                     np.diag([1.0, 1.0 + 1e-6])]), j,
                                           np.zeros((2, 2)))


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_square_residual_bound_does_not_scale_with_the_metric(scale):
    """max|J^2 + I| is held to ``J_SQUARE_TOL`` itself, as geodsl validates it:
    a J rotated by pi/2 + 1e-7 (J^2 + I = 2e-7, J^T g J = g) is rejected under
    g = I and under g = 1e4 I alike."""
    angle = np.pi / 2 + 1e-7
    j = np.array([[[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]])
    with pytest.raises(PreconditionFailed, match=r"J\^2 \+ I residual 2e-07"):
        hermitian.require_almost_hermitian(scale * np.eye(2)[None], j, np.zeros((1, 2)))

CONFORMAL_SRC = """
dim = 4
domain x1 = [-1.0, 1.0]
domain x2 = [-1.0, 1.0]
domain x3 = [-1.0, 1.0]
domain x4 = [-1.0, 1.0]
g[1][1] = exp(2*(0.3*sin(0.8*x1 + 1.2*x3) + 0.25*cos(1.1*x2 - 0.7*x4)))
g[2][2] = exp(2*(0.3*sin(0.8*x1 + 1.2*x3) + 0.25*cos(1.1*x2 - 0.7*x4)))
g[3][3] = exp(2*(0.3*sin(0.8*x1 + 1.2*x3) + 0.25*cos(1.1*x2 - 0.7*x4)))
g[4][4] = exp(2*(0.3*sin(0.8*x1 + 1.2*x3) + 0.25*cos(1.1*x2 - 0.7*x4)))
J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
"""


def chart_and_structure(name):
    """The (chart, J) of a catalog entry (J on its chart), the chart of a
    scenario row, or the conformally flat config."""
    if name == "conformal-dsl":
        return geodsl.to_chart(geodsl.parse(CONFORMAL_SRC))
    if name in scenarios.SCENARIOS:
        _, _, entry_id, key, _ = scenarios.SCENARIOS[name]
        entry = catalog.get_entry(entry_id)
        return entry.charts[key], entry.structures["J"]
    j_field = catalog.get_entry(name).structures["J"]
    return j_field.chart, j_field


def stencil_stack(x, cfg):
    """The points of one Richardson first-derivative stencil around x."""
    eye = np.eye(len(x))
    return np.concatenate([x + s * eye for h in (cfg.step, cfg.step / 2) for s in (h, -h)])


@pytest.mark.parametrize("name", ["cp-2", "ce-1-1", "ce-2-1", "conformal-dsl"])
def test_stacked_frame_equals_frames_at_points(name, cfg):
    """One frame build on a stencil stack gives, row by row, the frames built
    at each point's one-row stack, under ``np.array_equal``, each complete."""
    chart, j_field = chart_and_structure(name)
    for x in SamplePlan(seed=3, count=2).points(chart, cfg):
        stack = stencil_stack(x, cfg)
        stacked = hermitian_frame(chart, j_field, stack)
        assert stacked.m == chart.dim // 2
        for r in range(len(stack)):
            at_p = hermitian_frame(chart, j_field, stack[r:r + 1])
            for a, b in zip(stacked.real_frame + stacked.complex_frame,
                            at_p.real_frame + at_p.complex_frame):
                assert a.shape == (len(stack), chart.dim)
                assert np.array_equal(a[r], b[0])


def test_stacked_greedy_frame_parts_rows_that_pick_different_pivots(cfg):
    """Each row picks its own axes: under the standard J (J e_1 = e_2) the
    frame is e_1, e_3, J e_1 ~ e_2, J e_3 ~ e_4; under J e_1 = e_3 it is
    e_1, e_2, J e_1 ~ e_3, J e_2 ~ e_4.  Each row equals the frame built at
    its one-row stack, under ``np.array_equal``."""
    crossed = np.zeros((4, 4))
    crossed[[2, 0, 3, 1], [0, 2, 1, 3]] = [1.0, -1.0, 1.0, -1.0]

    chart = Chart(dim=4, box=Box((-1.0,) * 4, (1.0,) * 4),
                  metric_fn=numdiff.by_row(lambda p: (1.0 + p @ p) * np.eye(4)))
    j_field = AlmostComplexField(chart, numdiff.by_row(
        lambda p: catalog.multiplication_by_i(2) if p[0] < 0.0 else crossed))
    stack = SamplePlan(seed=2, count=8).points(chart, cfg)
    stack[:, 0] = np.abs(stack[:, 0]) * np.tile([-1.0, 1.0], 4)
    frame = hermitian_frame(chart, j_field, stack)
    axes = np.stack([np.argmax(np.abs(v), axis=1) for v in frame.real_frame], axis=1)
    assert axes.tolist() == [[0, 2, 1, 3], [0, 1, 2, 3]] * 4
    for r in range(len(stack)):
        alone = hermitian_frame(chart, j_field, stack[r:r + 1])
        for a, b in zip(frame.real_frame + frame.complex_frame,
                        alone.real_frame + alone.complex_frame):
            assert np.array_equal(a[r], b[0])


def structure_cases(name):
    """(chart, J) pairs: the source and the target of a map entry, or the one
    chart of ``chart_and_structure``."""
    if name in ("hopf-s3", "product-hopf-1-1"):
        entry = catalog.get_entry(name)
        return [(entry.charts[k], entry.structures[k]) for k in ("source", "target")]
    return [chart_and_structure(name)]


@pytest.mark.parametrize("name", ["hopf-s3", "product-hopf-1-1", "ce-2-1", "conformal-dsl"])
def test_stacked_structure_jet_equals_one_point_calls_bit_for_bit(name, cfg):
    """Every part of a stacked structure jet, its div J and its Lee field equal
    the one-row stacks' row by row."""
    for chart, j_field in structure_cases(name):
        points = SamplePlan(seed=3, count=3).points(chart, cfg)
        jets = structure_jet(chart, j_field, points, cfg)
        delta, lee = divergence_J(jets), lee_vector(jets)
        for r in range(len(points)):
            jet = structure_jet(chart, j_field, points[r:r + 1], cfg)
            for part in ("x", "metric", "j", "dj", "gamma", "nabla"):
                assert getattr(jets, part).shape == (3, *getattr(jet, part).shape[1:])
                assert np.array_equal(getattr(jets, part)[r], getattr(jet, part)[0]), (r, part)
            assert np.array_equal(delta[r], divergence_J(jet)[0])
            assert np.array_equal(lee[r], lee_vector(jet)[0])


@pytest.mark.parametrize("name", ["cp-2", "ce-1-1", "ce-2-1", "conformal-dsl"])
def test_stacked_nijenhuis_and_nabla_j_equal_each_row(name, cfg):
    """N(X, Y), (nabla_X J) Y and their g-norms on a stacked jet with stacks of
    vectors equal, under ``np.array_equal``, each row's on the one-row jet with
    that row's vectors: the frame vectors, the coordinate axes (broadcast) and
    div J."""
    chart, j_field = chart_and_structure(name)
    points = SamplePlan(seed=6, count=5).points(chart, cfg)
    jets = structure_jet(chart, j_field, points, cfg)
    frame = hermitian_frame(chart, j_field, points)
    axes = [np.broadcast_to(e, points.shape) for e in np.eye(chart.dim)]
    vectors = [*frame.real_frame, *axes[:2], divergence_J(jets)]
    pairs = [(u, v) for a, u in enumerate(vectors) for v in vectors[a + 1:]]
    stacked = [(f(jets, u, v), g_norm(jets.metric, f(jets, u, v)))
               for u, v in pairs for f in (nijenhuis, nabla_J)]
    for r in range(len(points)):
        jet, at = structure_jet(chart, j_field, points[r:r + 1], cfg), slice(r, r + 1)
        alone = [(f(jet, u[at], v[at]), g_norm(jet.metric, f(jet, u[at], v[at])))
                 for u, v in pairs for f in (nijenhuis, nabla_J)]
        for (vec, norm), (vec_r, norm_r) in zip(stacked, alone):
            assert np.array_equal(vec[r], vec_r[0])
            assert norm[r] == norm_r[0]


def structure_chart(name):
    """``chart_and_structure``, or the Kodaira-Thurston chart with its almost
    Kaehler (``kt-almost-kahler``) or its integrable (``kt-integrable``) J."""
    pairs = {"kt-almost-kahler": ((0, 2), (1, 3)), "kt-integrable": ((0, 1), (2, 3))}
    return kodaira_thurston(pairs[name]) if name in pairs else chart_and_structure(name)


#: The parts of a structure jet beyond g.
PARTS = ("metric_inverse", "gamma", "j", "dj", "nabla")


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["ce-1-1", "ce-2-1", "cp-1", "cp-2", "conformal-dsl"])
@pytest.mark.parametrize("held", [True, False])
def test_structure_jet_equals_the_separate_calls_bit_for_bit(name, held, cfg):
    """The jet reads g and J at the samples and their stencil points from one
    stack and holds every part (``structure_jet``), or builds each part when
    first read (``lazy_jet``, which holds no part before it is read, so an unread
    connection is never built); every part equals, sign bits
    included, what the chart and the field give apart: ``chart.metric``,
    ``chart.metric_inverse`` and J at the samples, ``dj_stack``, the Christoffel
    symbols from ``metric_derivative`` and nabla J from those; at a stack and at
    a one-row stack."""
    chart, j_field = structure_chart(name)
    points = SamplePlan(seed=4, count=3).points(chart, cfg)
    for x in (points, points[1:2]):
        jet = (structure_jet if held else lazy_jet)(chart, j_field, x, cfg)
        assert set(jet.held) == ({"metric", *PARTS} - {"nabla"} if held else {"metric"})
        assert not set(vars(jet)) & set(PARTS)  # no part read yet
        g, j, dj = chart.metric(x), j_field(x), hermitian.dj_stack(chart, j_field, x, cfg)
        gamma = chart_gamma(chart, x, cfg)
        nabla = hermitian.nabla_j_tensor(gamma, j, dj)
        for part, value in {"x": x, "metric": g, "metric_inverse": chart.metric_inverse(x),
                            "j": j, "dj": dj, "gamma": gamma, "nabla": nabla}.items():
            assert same_bits(getattr(jet, part), value), (part, len(x))


def pairwise_max(op, jet, pairs) -> float:
    """The largest |op(jet, X, Y)| in g over the pairs and rows, one ``op`` call
    per pair: the loop that the residuals read off tensor components replaced."""
    return max([0.0, *(float(np.max(g_norm(jet.metric, op(jet, u, v)))) for u, v in pairs)])


def roundoff(jet, *parts) -> float:
    """4 eps times 1 + the product of the largest entries of the given jet parts
    and of sqrt(max|g|): a few roundoffs of a g-norm of their product."""
    size = np.prod([float(np.max(np.abs(p))) for p in parts])
    return 4.0 * np.finfo(float).eps * (1.0 + size * np.sqrt(float(np.max(np.abs(jet.metric)))))


@pytest.mark.parametrize("name", ["torus-classify", "cp-2", "ce-1-0", "ce-1-1",
                                  "conformal-dsl", "kt-almost-kahler", "kt-integrable"])
def test_stacked_pair_maxima_equal_the_pairwise_loops_bit_for_bit(name, cfg):
    """The Kaehler, (1,2)-symplectic and Nijenhuis residuals over the pairs of unit
    axes, which classify reports, and, in complex dimension 2, the Gauduchon
    maxima over 8 probes in the directions div J and J div J, are read off
    tensor components (divided by s_a s_b or s_a) and equal the one-call-per-pair
    loops of ``nabla_J`` and ``nijenhuis`` to a few roundoffs of the jet's
    magnitudes (the arithmetic order differs, so not bit for bit); the reported
    Nijenhuis residual is ``nijenhuis_residual``'s bit for bit."""
    chart, j_field = structure_chart(name)
    plan = SamplePlan(seed=2, count=4)
    report = classify(chart, j_field, plan, cfg)
    jets = structure_jet(chart, j_field, np.array(report.samples), cfg)
    axes = hermitian.unit_axes(jets.metric)
    axis_pairs = [(u, v) for a, u in enumerate(axes) for v in axes[a + 1:]]
    all_pairs = [(u, v) for u in axes for v in axes]
    assert report.residual_integrable == hermitian.nijenhuis_residual(jets)

    def one_two(jet, u, v):  # (nabla_X J) Y + (nabla_JX J) J Y
        return nabla_J(jet, u, v) + nabla_J(jet, *(hermitian.apply_j(jet, w) for w in (u, v)))

    for residual, loop, bound in (
            (report.residual_integrable, pairwise_max(nijenhuis, jets, axis_pairs),
             roundoff(jets, jets.dj, jets.j)),
            (report.residual_kahler, pairwise_max(nabla_J, jets, all_pairs),
             roundoff(jets, jets.nabla)),
            (report.residual_12sympl, pairwise_max(one_two, jets, all_pairs),
             roundoff(jets, jets.nabla, 1.0 + np.abs(jets.j), 1.0 + np.abs(jets.j)))):
        assert abs(residual - loop) <= bound, (residual, loop, bound)
    if name == "kt-almost-kahler":
        assert report.residual_integrable > 0.4
    if chart.dim == 4:
        gauduchon = scenarios.check_gauduchon(chart, j_field, plan, cfg)
        delta = divergence_J(jets)
        probes = [p for e in hermitian.unit_axes(jets.metric)
                  for p in (e, hermitian.apply_j(jets, e))]
        for c, v in zip(gauduchon.checks, (delta, hermitian.apply_j(jets, delta))):
            loop = pairwise_max(nabla_J, jets, [(v, y) for y in probes])
            bound = roundoff(jets, jets.nabla, v, 1.0 + np.abs(jets.j))
            assert abs(c.residual - loop) <= bound, c.name


def frame_route(jet) -> dict:
    """The four residuals of ``classify_structure`` with X and Y over each row's
    Hermitian frame (``hermitian_frame``) in place of its unit axes."""
    frame = hermitian_frame(jet.chart, jet.j_field, jet.x).real_frame
    u = np.stack(frame, axis=-1)  # u[r, :, a] is the a-th frame vector at row r
    nab = np.einsum("rikj,ria,rjb->rkab", jet.nabla, u, u)
    s12 = nab + np.einsum("rikj,ria,rjb->rkab", jet.nabla, jet.j @ u, jet.j @ u)
    kahler, one_two = (float(np.max(g_norm(jet.metric, np.moveaxis(a, (2, 3), (0, 1)))))
                       for a in (nab, s12))
    cosympl = float(np.max(g_norm(jet.metric, divergence_J(jet))))
    pairs = [(u, v) for a, u in enumerate(frame) for v in frame[a + 1:]]
    return dict(zip(hermitian.CLASSES, (kahler, one_two, cosympl,
                                        pairwise_max(nijenhuis, jet, pairs))))


@pytest.mark.parametrize("name", ["flat-torus", "cp-1", "cp-2", "ce-1-0", "ce-0-1", "ce-1-1",
                                  "ce-2-1", "flat-t4", "kt-almost-kahler", "kt-integrable"])
def test_classify_on_unit_axes_agrees_with_the_hermitian_frames(name, cfg):
    """Every condition is a tensor, so it vanishes on the unit axes exactly when
    it vanishes on a Hermitian frame (Gray & Hervella 1980): on every catalog
    structure and both Kodaira-Thurston J's, classify gives the four verdicts of
    the frame route, and a residual the frames read above 10 tol reads above
    10 tol on the axes."""
    chart, j_field = structure_chart(name)
    jet = structure_jet(chart, j_field, SamplePlan(seed=1, count=6).points(chart, cfg), cfg)
    report, framed = classify_structure(jet), frame_route(jet)
    assert report.verdicts == {c: r <= report.tolerance for c, r in framed.items()}
    for c, r in framed.items():
        if r > 10.0 * report.tolerance:
            assert report.residuals[c] > 10.0 * report.tolerance, c


def diagonal_structure():
    """g = diag(1, x1) on (-1, 1)^2, singular on x1 = 0 and indefinite left of it,
    with a J that has no value past x2 = 0.5."""
    def j_fn(p):
        if np.any(p[:, 1] > 0.5):
            raise ValueError(f"J undefined at {p[p[:, 1] > 0.5][0].tolist()}")
        return constant([[0.0, -1.0], [1.0, 0.0]])(p)

    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), name="diagonal",
                  metric_fn=lambda p: np.stack([np.diag([1.0, v]) for v in p[:, 0]]))
    return chart, AlmostComplexField(chart, j_fn)


def raised(call):
    """The type and message of what ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


#: Rows that fail alone: outside the interior, a singular and an indefinite
#: metric, and J undefined at a stencil point only.
BAD_ROWS = {"outside": [0.9999, 0.1], "singular": [0.0, 0.1], "indefinite": [-0.5, 0.1],
            "stencil": [0.3, 0.49996]}


@pytest.mark.parametrize("order", list(itertools.permutations(BAD_ROWS)))
def test_stacked_structure_jet_raises_what_its_first_bad_row_raises(order, cfg):
    """A stack with bad rows after good ones raises the error, type and message,
    that its first bad row raises alone, as a one-row stack: ``structure_jet``,
    and on a jet that builds each part when first read, its Christoffel symbols
    and, apart, its J and d J (all the Nijenhuis tensor reads).  That is also
    what the separate Christoffel and ``dj_stack`` calls raise first, except when
    the first bad row is the one whose J fails at a stencil point only: those
    calls raise a later row's metric error before ``dj_stack`` evaluates J."""
    chart, j_field = diagonal_structure()
    stack = np.array([[0.5, 0.1], [0.3, -0.2], *(BAD_ROWS[name] for name in order)])
    for build in (structure_jet, lambda *a: lazy_jet(*a).gamma,
                  lambda *a: (lambda jet: (jet.j, jet.dj))(lazy_jet(*a))):
        alone = [raised(lambda: build(chart, j_field, stack[r:r + 1], cfg))
                 for r in range(len(stack))]
        expected = next(e for e in alone if e is not None)
        assert raised(lambda: build(chart, j_field, stack, cfg)) == expected
    separate = raised(lambda: (lazy_jet(chart, j_field, stack, cfg).gamma,
                               hermitian.dj_stack(chart, j_field, stack, cfg)))
    assert (separate == raised(lambda: structure_jet(chart, j_field, stack, cfg))) == (
        order[0] != "stencil")


def test_classify_verdicts_are_python_bools(torus, cfg, plan):
    """A tolerance that is a NumPy float makes ``r <= tol`` a ``numpy.bool_``;
    the verdicts are cast, so the report still encodes as JSON."""
    chart, j_field = torus
    numpy_cfg = dataclasses.replace(cfg, tolerance_abs=np.float64(cfg.tolerance_abs))
    assert isinstance(numpy_cfg.tolerance(1.0), np.floating)
    report = classify(chart, j_field, plan, numpy_cfg)
    assert all(type(v) is bool for v in report.verdicts.values())
    assert json.loads(json.dumps(report.to_dict()))["verdicts"] == report.verdicts
