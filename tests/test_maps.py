import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from hermkit import catalog, geodsl, hermitian, maps, numdiff, scenarios
from hermkit.errors import (CriticalPoint, EvaluationOutsideDomain, FibreDimension,
                            MissingStructure, PreconditionFailed, SingularMetric,
                            WrongDimension)
from hermkit.hermitian import antiholomorphic_part, g_norm, invariant_residuals, structure_jet
from hermkit.manifold import Box, Chart, SamplePlan, VectorField, lie_bracket
from hermkit.maps import (KIND_CRITICAL, KIND_DEGENERATE, MapSpec, _vertical_projector,
                          conformality, condition_ii_residual, differential,
                          fibre_mean_curvature, holomorphy_residual,
                          homothety_residual, lee_pushforward, lift_structure,
                          point_jet, sff_tensor, superminimality_residual, tension)
from hermkit.numdiff import DiffConfig, constant, orthonormalize
from test_manifold import chart_gamma


@pytest.fixture(scope="module")
def hopf():
    return catalog.hopf_map(1).maps["hopf"]


@pytest.fixture(scope="module")
def punctured1():
    return catalog.punctured_hopf(1).maps["hopf"]


@pytest.fixture(scope="module")
def torus_entry():
    return catalog.flat_torus()


@pytest.fixture(scope="module")
def punctured2():
    return catalog.punctured_hopf(2).maps["hopf"]


CFG = DiffConfig()
CE_POINT = np.array([[0.5, 0.7, 0.9, 1.1]])
PUNCTURED2_POINT = np.array([[1.4, 0.2, -0.3, 0.5, 0.1, -0.2]])


def flat_map(fn, source_dim=2, target_dim=2, lo=-2.0, hi=2.0):
    src = Chart(dim=source_dim, box=Box((lo,) * source_dim, (hi,) * source_dim),
                metric_fn=constant(np.eye(source_dim)))
    tgt = Chart(dim=target_dim, box=Box((-1e3,) * target_dim, (1e3,) * target_dim),
                metric_fn=constant(np.eye(target_dim)))
    return MapSpec(src, tgt, fn)


def test_differential_identity(torus_entry):
    spec = torus_entry.maps["identity"]
    d = differential(spec, np.array([[0.8, 0.9]]), CFG)
    npt.assert_allclose(d, [np.eye(2)], atol=1e-11)


def test_differential_constant():
    spec = flat_map(lambda x: np.tile([1.0, 2.0], (len(x), 1)))
    d = differential(spec, np.array([[0.1, 0.2]]), CFG)
    npt.assert_allclose(d, 0.0, atol=1e-12)


def test_differential_hopf_rank(hopf):
    d = differential(hopf, CE_POINT, CFG)
    assert d.shape == (1, 2, 4)
    assert np.linalg.matrix_rank(d[0], tol=1e-8) == 2


def jet_of(spec, x):
    return point_jet(spec, np.asarray(x, dtype=float), CFG)


@pytest.mark.parametrize("entry_id", [e for e in catalog.entry_ids() if catalog.get_entry(e).maps])
def test_row_norms_equal_the_per_row_norm_loop_bit_for_bit(entry_id, cfg):
    """``scenarios._map_scale`` and :func:`holomorphy_residual` take each row's
    Frobenius norm from one ``np.vecdot`` over the rows flattened: bit for bit the
    per-row ``np.linalg.norm`` loops they replace, on every catalog map."""
    for spec in catalog.get_entry(entry_id).maps.values():
        stack = jet_of(spec, SamplePlan(seed=3, count=12).points(spec.source, cfg))
        d = stack.differential
        assert scenarios._map_scale(stack) == (1.0 + max(float(np.linalg.norm(m)) for m in d)) ** 2
        if spec.source_structure is not None and spec.target_structure is not None:
            loop = [float(np.linalg.norm(m)) for m in d @ stack.source.j - stack.target.j @ d]
            assert holomorphy_residual(stack) == loop


def test_holomorphy_identity(torus_entry):
    (val,) = holomorphy_residual(jet_of(torus_entry.maps["identity"], [[0.8, 0.9]]))
    assert val <= 1e-12


def test_holomorphy_conjugation_value(torus_entry):
    # direct 2x2 arithmetic: |d J - J' d|_F = 2 sqrt(2) for (x, y) -> (x, -y)
    val = holomorphy_residual(jet_of(torus_entry.maps["conjugation"], [[0.8, 0.9]]))
    npt.assert_allclose(val, [2.0 * np.sqrt(2.0)], atol=1e-10)


def test_holomorphy_missing_structure():
    spec = flat_map(lambda x: np.array(x))
    with pytest.raises(MissingStructure):
        holomorphy_residual(jet_of(spec, [[0.1, 0.1]]))


def test_conformality_hopf_submersion(hopf):
    c = conformality(jet_of(hopf, CE_POINT))[0]
    assert c.regular
    npt.assert_allclose(c.dilation, 1.0, atol=1e-9)
    assert c.conformality_residual <= 1e-9
    assert hopf.source.dim - c.rank == 2
    # the lift's image, H, is g-orthogonal to the projector's, ker dphi
    jet = jet_of(hopf, CE_POINT)
    npt.assert_allclose(jet.lift[0].T @ jet.metric[0] @ jet.projector[0], 0.0, atol=1e-9)


def test_conformality_punctured_dilation(punctured1):
    z = np.array([[1.0, 0.25, 0.3, 0.15]])
    z = 2.0 * z / np.linalg.norm(z)
    c = conformality(jet_of(punctured1, z))
    npt.assert_allclose(c.dilation, [0.5], atol=1e-9)


def test_conformality_critical_constant():
    spec = flat_map(lambda x: np.ones((len(x), 2)))
    c = conformality(jet_of(spec, [[0.3, 0.4]]))[0]
    assert c.kind == KIND_CRITICAL
    assert c.dilation == 0.0


def test_conformality_partial_rank_degenerate():
    spec = flat_map(lambda x: x * [1.0, 0.0])
    c = conformality(jet_of(spec, [[0.3, 0.4]]))[0]
    assert c.kind == KIND_DEGENERATE
    assert c.dilation == 0.0
    assert c.conformality_residual > 0.1


def test_conformality_of_a_map_into_a_larger_target():
    """The Hopf fibre inclusion, a great circle in S^3 (n = 1, t = 3), has rank 1
    and no regular row: degenerate with residual sqrt(2), and near_critical reads
    the one singular value there is, not a column t - 1."""
    spec = catalog.get_entry("hopf-fibre-inclusion").maps["inclusion"]
    points = SamplePlan(seed=0, count=3).points(spec.source, CFG)
    c = conformality(point_jet(spec, points, CFG))
    assert c.kind.tolist() == [KIND_DEGENERATE] * 3
    npt.assert_allclose(c.conformality_residual, np.sqrt(2.0), atol=1e-8)
    assert not c.near_critical.any()


def test_conformality_needs_a_positive_definite_source_metric():
    """A source metric diag(1, -1) raises ``SingularMetric`` from g^-1, not a
    numpy error."""
    src = Chart(dim=2, box=Box((-2.0, -2.0), (2.0, 2.0)),
                metric_fn=constant(np.diag([1.0, -1.0])))
    spec = dataclasses.replace(flat_map(lambda x: x[:, :1] + x[:, 1:] ** 2, target_dim=1),
                               source=src)
    with pytest.raises(SingularMetric, match="not positive-definite"):
        conformality(jet_of(spec, [[0.3, 0.4]]))


def test_conformality_reads_an_indefinite_target_metric():
    """The identity into h = diag(1, -1) is regular with lambda^2 = tr h / 2 = 0
    and residual |h|_F = sqrt(2); h is not inverted, so nothing raises."""
    tgt = Chart(dim=2, box=Box((-1e3, -1e3), (1e3, 1e3)),
                metric_fn=constant(np.diag([1.0, -1.0])))
    spec = dataclasses.replace(flat_map(lambda x: np.array(x)), target=tgt)
    c = conformality(jet_of(spec, [[0.3, 0.4]]))[0]
    assert c.regular and c.dilation == 0.0
    npt.assert_allclose(c.conformality_residual, np.sqrt(2.0), rtol=1e-12)


@pytest.mark.parametrize("operator", [conformality, _vertical_projector])
def test_rank_split_takes_one_svd(hopf, monkeypatch, operator):
    """Building the jet takes the one SVD; the operators that read it take none."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    jet = jet_of(hopf, CE_POINT)
    assert calls == [{"compute_uv": False}]
    operator(jet)
    assert len(calls) == 1


@pytest.mark.parametrize("spec_name, point", [("hopf", CE_POINT),
                                              ("punctured2", PUNCTURED2_POINT)])
def test_vertical_projector_matches_split(request, spec_name, point):
    """P is the g-orthogonal projector onto ker dphi: dphi P = 0, g P is
    symmetric, P^2 = P and tr P = n - t."""
    spec = request.getfixturevalue(spec_name)
    jet = jet_of(spec, point)
    assert conformality(jet)[0].regular
    (p_v,), (d,), (g,) = _vertical_projector(jet), jet.differential, jet.metric
    npt.assert_allclose(d @ p_v, 0.0, atol=1e-10)
    npt.assert_allclose(g @ p_v, (g @ p_v).T, atol=1e-10)
    npt.assert_allclose(p_v @ p_v, p_v, atol=1e-10)
    npt.assert_allclose(np.trace(p_v), spec.source.dim - spec.target.dim, atol=1e-10)


def test_sff_identity_and_linear(torus_entry):
    spec = torus_entry.maps["identity"]
    npt.assert_allclose(sff_tensor(jet_of(spec, [[0.8, 0.9]]))[0, 0, 1], 0.0, atol=1e-9)
    linear = flat_map(lambda x: x @ np.array([[2.0, -1.0], [1.0, 1.0]]))
    npt.assert_allclose(sff_tensor(jet_of(linear, [[0.2, 0.1]]))[0, 0, 0], 0.0, atol=1e-9)


def test_sff_symmetry_bitwise(hopf):
    sff = sff_tensor(jet_of(hopf, CE_POINT))
    assert np.array_equal(sff, np.swapaxes(sff, 1, 2))


def test_fibre_inclusion_is_geodesic():
    """The great-circle fibre of the Hopf projection has vanishing tension as a
    curve in the 3-sphere (trace of the second fundamental form)."""
    entry = catalog.hopf_fibre_inclusion()
    spec = entry.maps["inclusion"]
    tau = tension(jet_of(spec, [[0.05]]))
    h = spec.target.metric(spec(np.array([[0.05]])))
    assert g_norm(h, tau)[0] <= 1e-6


def test_tension_identity_flat(torus_entry):
    tau = tension(jet_of(torus_entry.maps["identity"], [[0.8, 0.9]]))
    npt.assert_allclose(tau, 0.0, atol=1e-9)


def test_tension_square_map_harmonic(torus_entry):
    spec = torus_entry.maps["square"]
    x = np.array([[0.8, 0.9]])
    jet = jet_of(spec, x)
    tau = tension(jet)
    npt.assert_allclose(tau, 0.0, atol=1e-7)
    h = spec.target.metric(spec(x))
    assert g_norm(h, tau + lee_pushforward(jet))[0] <= 1e-7


def test_tension_computes_no_lee_field(hopf, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("tension must not build the Lee field")

    monkeypatch.setattr(hermitian, "lee_vector", fail)
    monkeypatch.setattr(maps, "lee_vector", fail)
    assert tension(jet_of(hopf, CE_POINT)).shape == (1, 2)


def test_lee_pushforward_needs_source_structure():
    spec = flat_map(lambda x: x[:, :2])
    with pytest.raises(MissingStructure):
        lee_pushforward(jet_of(spec, [[0.1, 0.2]]))


def tension_in_frame(jet, frame_vectors):
    """Tension summed explicitly over a g-orthonormal frame at a one-row jet: the
    oracle for :func:`tension` (frame independence of the trace)."""
    (sff,) = sff_tensor(jet)
    out = np.zeros(jet.spec.target.dim)
    for u in frame_vectors:
        out = out + np.einsum("i,j,ijg->g", u, u, sff)
    return out


def test_tension_frame_independent(hopf, rng):
    g = hopf.source.metric(CE_POINT)
    frame = orthonormalize([rng.normal(size=(1, 4)) for _ in range(4)], g)
    jet = jet_of(hopf, CE_POINT)
    via_frame = tension_in_frame(jet, [u[0] for u in frame])
    (direct,) = tension(jet)
    npt.assert_allclose(via_frame, direct, atol=1e-5)


def test_fibre_mean_curvature_hopf(hopf):
    val = fibre_mean_curvature(jet_of(hopf, CE_POINT))
    g = hopf.source.metric(CE_POINT)
    assert g_norm(g, val)[0] <= 1e-6


def test_fibre_mean_curvature_needs_regular():
    for fn in (lambda x: np.ones((len(x), 2)), lambda x: x * [1.0, 0.0]):  # rank 0, rank 1
        with pytest.raises(CriticalPoint):
            fibre_mean_curvature(jet_of(flat_map(fn), [[0.3, 0.4]]))


def test_fibre_mean_curvature_raises_at_a_critical_stencil_point():
    """x1^2 is regular at x1 = 1e-4, but its stencil point (0, 0.3) is critical,
    where the vertical projector is no fibre's, so it is not differenced."""
    spec = flat_map(lambda x: x[:, :1] ** 2, target_dim=1)
    with pytest.raises(CriticalPoint, match=r"rank 0: array\(\[0\. *, 0\.3\]\)"):
        fibre_mean_curvature(point_jet(spec, [[1e-4, 0.3]], CFG, stencil=True))


@pytest.mark.parametrize("point", [[0.9, 1.1], [0.9, 1.1, 1.2]], ids=["n=2", "n=3"])
def test_fibre_mean_curvature_of_the_spheres_of_the_radius(point):
    """The fibres of |x| are round spheres, whose mean curvature -(n - 1) x / |x|^2
    points to the origin."""
    x, n = np.array([point]), len(point)
    spec = flat_map(lambda y: np.linalg.norm(y, axis=1, keepdims=True), n, 1, 0.5, 1.5)
    npt.assert_allclose(fibre_mean_curvature(jet_of(spec, x)), -(n - 1) * x / np.sum(x ** 2),
                        atol=1e-6)


def test_annulus_fibres_straight_and_dilation_scales():
    """Radial fibres are straight lines in the flat metric; rescaling the
    target multiplies the dilation but not the fibre curvature."""
    x = np.array([[1.5, 0.6]])
    for scale in (1.0, 1.7):
        entry = catalog.annulus_radial(target_scale=scale)
        spec = entry.maps["radial"]
        jet = jet_of(spec, x)
        mc = fibre_mean_curvature(jet)
        assert np.linalg.norm(mc) <= 1e-7
        c = conformality(jet)
        npt.assert_allclose(c.dilation, scale / x[:, 0], atol=1e-9)


def test_homothety_hopf_and_punctured(hopf, punctured1):
    assert homothety_residual(jet_of(hopf, CE_POINT))[0] <= 1e-6
    # grad(lambda^2) is proportional to the position vector, which is vertical
    z = np.array([[1.4, 0.2, -0.3, 0.5]])
    assert homothety_residual(jet_of(punctured1, z))[0] <= 1e-5


def test_homothety_mobius_composite_nonzero():
    entry = catalog.mobius_postcompose(catalog.hopf_map(1), (1.0, 0.3, 0.1, 1.0))
    spec = entry.maps["hopf"]
    assert homothety_residual(jet_of(spec, CE_POINT))[0] > 1e-3


def test_superminimality_constant_structure():
    entry = catalog.flat_t4()
    spec = entry.maps["projection"]
    x = np.array([[0.8, 0.9, 1.0, 1.1]])
    structure = structure_jet(spec.source, entry.structures["J"], x, CFG)
    assert superminimality_residual(jet_of(spec, x), structure)[0] <= 1e-10


def hopf_surface_coords_samples():
    """The ``coords`` map of ``hopf-surface-coords``, its source structure jet and
    its map jet at three samples."""
    entry = catalog.get_entry("hopf-surface-coords")
    spec = entry.maps["coords"]
    points = SamplePlan(seed=0, count=3).points(spec.source, CFG)
    structure = structure_jet(spec.source, entry.structures["source"], points, CFG)
    return spec, structure, point_jet(spec, points, CFG)


def test_superminimality_nonzero_on_hopf_surface_coords():
    _, structure, jet = hopf_surface_coords_samples()
    npt.assert_allclose(superminimality_residual(jet, structure),
                        [0.91826, 0.634567, 0.763915], atol=1e-6)


def test_superminimality_is_the_rms_over_a_vertical_basis(rng):
    """The residual is max over unit axes Y of sqrt(mean_a |(nabla_{v_a} J) Y|^2)
    for any g-orthonormal basis v_a of the fibre, here one orthonormalized from the
    projections of random vectors."""
    spec, structure, jet = hopf_surface_coords_samples()
    g, k = structure.metric, spec.source.dim - spec.target.dim
    vectors = [(jet.projector @ rng.normal(size=(3, spec.source.dim, 1)))[..., 0]
               for _ in range(k)]
    basis = orthonormalize(vectors, g)
    rms = [np.sqrt(np.mean([g_norm(g, hermitian.nabla_J(structure, v, y)) ** 2
                            for v in basis], axis=0)) for y in hermitian.unit_axes(g)]
    npt.assert_allclose(superminimality_residual(jet, structure), np.max(rms, axis=0),
                        rtol=1e-12)


def test_lifted_j_rejects_an_orientation_form_that_vanishes_on_the_fibre(punctured1):
    """omega = Dphi^T A Dphi, for A antisymmetric on the target, is nonzero but
    vanishes on ker dphi, so the fibre has no orientation."""
    def omega(x):
        d = differential(punctured1, x, CFG)
        return np.swapaxes(d, 1, 2) @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ d

    spec = dataclasses.replace(punctured1, fibre_orientation=omega)
    with pytest.raises(ValueError, match="degenerate on the fibre"):
        maps.lifted_j(point_jet(spec, [[1.4, 0.2, -0.3, 0.5]], CFG), +1)


def test_lift_plus_reproduces_standard_structure(punctured1):
    lifted = lift_structure(punctured1, +1, CFG)
    x = np.array([[1.4, 0.2, -0.3, 0.5]])
    npt.assert_allclose(lifted(x), [catalog.multiplication_by_i(2)], atol=1e-10)
    t = structure_jet(punctured1.source, lifted, x, CFG).nabla
    assert np.max(np.abs(t)) <= 1e-7


def test_lift_minus_valid_but_not_parallel(punctured1):
    lifted = lift_structure(punctured1, -1, CFG)
    x = np.array([[1.4, 0.2, -0.3, 0.5]])
    square, compat = invariant_residuals(punctured1.source.metric(x), lifted(x))
    assert square[0] <= 1e-9
    assert compat[0] <= 1e-9
    t = structure_jet(punctured1.source, lifted, x, CFG).nabla
    assert np.max(np.abs(t)) >= 1e-3


@pytest.mark.parametrize("orientation", [+1, -1])
def test_lift_makes_map_holomorphic(punctured1, orientation):
    """dphi J = J_target dphi holds by construction for either orientation."""
    lifted = lift_structure(punctured1, orientation, CFG)
    spec = MapSpec(punctured1.source, punctured1.target, punctured1.fn, source_structure=lifted,
                   target_structure=punctured1.target_structure)
    assert holomorphy_residual(jet_of(spec, [[1.4, 0.2, -0.3, 0.5]]))[0] <= 1e-8


def test_lift_requires_two_dimensional_fibres():
    src = Chart(dim=3, box=Box((-1.0,) * 3, (1.0,) * 3), metric_fn=constant(np.eye(3)))
    tgt = catalog.flat_chart(2, -2.0, 2.0)
    j_tgt = catalog.constant_structure(tgt, catalog.multiplication_by_i(1))
    omega = np.zeros((3, 3))
    omega[1, 2], omega[2, 1] = 1.0, -1.0
    spec = MapSpec(src, tgt, lambda x: x[:, :2],
                   target_structure=j_tgt, fibre_orientation=lambda x: omega)
    with pytest.raises(FibreDimension):
        lift_structure(spec, +1, CFG)(np.zeros((1, 3)))


def test_lift_requires_orientation_and_target_structure(hopf):
    bare = MapSpec(hopf.source, hopf.target, hopf.fn)
    with pytest.raises(MissingStructure):
        lift_structure(bare, +1, CFG)
    no_orientation = MapSpec(hopf.source, hopf.target, hopf.fn,
                             target_structure=hopf.target_structure)
    with pytest.raises(MissingStructure):
        lift_structure(no_orientation, +1, CFG)


def condition_ii_at(spec, orientation, x):
    """The condition (ii) residual at a one-row stack x."""
    lifted = lift_structure(spec, orientation, CFG)
    jet = jet_of(spec, x)
    structure = structure_jet(spec.source, lifted, x, CFG)
    (residual,) = condition_ii_residual(jet, structure)
    return residual


def test_condition_ii_product_projection():
    spec = catalog.flat_t4().maps["projection"]
    assert condition_ii_at(spec, +1, np.array([[0.8, 0.9, 1.0, 1.1]])) <= 1e-9


def test_condition_ii_complex_line_target_trivial(punctured1):
    assert condition_ii_at(punctured1, +1, np.array([[1.4, 0.2, -0.3, 0.5]])) == 0.0


def test_condition_ii_punctured_two(punctured2):
    assert condition_ii_at(punctured2, +1, PUNCTURED2_POINT) <= 1e-6


@pytest.mark.parametrize("name, x", [("punctured1", [[1.4, 0.2, -0.3, 0.5]]),
                                     ("punctured2", PUNCTURED2_POINT)])
def test_condition_ii_rejects_a_target_j_that_is_not_almost_hermitian(name, x, request):
    """J = 2 J_std at phi(x) has J^2 + I = -3 I: condition (ii) raises
    ``PreconditionFailed`` on a complex-line target as on C^2, and reads no
    residual."""
    spec = request.getfixturevalue(name)
    m = spec.target.dim // 2
    spec = dataclasses.replace(spec, target_structure=catalog.constant_structure(
        spec.target, 2.0 * catalog.multiplication_by_i(m)))
    with pytest.raises(PreconditionFailed) as err:
        condition_ii_residual(jet_of(spec, x), None)
    assert err.value.precondition == "almost Hermitian"


def test_condition_ii_rejects_a_target_j_that_is_almost_hermitian_only_at_the_image(punctured2):
    """J = J_std at rows equal to phi(x) and 2 J_std at every other row: (h, J)
    passes at phi(x), but condition (ii) differences J at the stencil images and
    raises ``PreconditionFailed`` there."""
    image = punctured2(PUNCTURED2_POINT)
    j_std = catalog.multiplication_by_i(punctured2.target.dim // 2)

    def j(y):
        at_image = (y == image).all(axis=1)[:, None, None]
        return np.where(at_image, j_std, 2.0 * j_std)
    spec = dataclasses.replace(punctured2, target_structure=hermitian.AlmostComplexField(
        punctured2.target, j))
    with pytest.raises(PreconditionFailed) as err:
        condition_ii_at(spec, +1, PUNCTURED2_POINT)
    assert err.value.precondition == "almost Hermitian"
    assert "J^2 + I residual 3" in str(err.value)


def lifted_axis(spec, a, part):
    """One part of the horizontal lift of Z_a = (e_a - i J e_a)/sqrt(2), for the
    a-th h-unit coordinate axis e_a at the image, as a field on the source."""
    def at(p):
        y = spec(p)
        e = hermitian.unit_axes(spec.target.metric(y))[a]
        z = (e - 1j * (spec.target_structure(y) @ e[..., None])[..., 0]) / np.sqrt(2.0)
        return (point_jet(spec, p, CFG).lift @ part(z)[..., None])[..., 0]
    return VectorField(spec.source, at)


def condition_ii_bracket_route(samples):
    """Condition (ii) through four ``lie_bracket`` calls per pair a < b of target
    axes, each differentiating its own two lifted fields: the reference for
    :func:`condition_ii_residual`, at one-row jets."""
    worst = 0.0
    for jet, structure in samples:
        spec, x, cfg = jet.spec, jet.x, jet.cfg
        p_v = _vertical_projector(jet)
        for k in range(spec.target.dim):
            for l in range(k + 1, spec.target.dim):
                zr, zi = (lifted_axis(spec, k, part) for part in (np.real, np.imag))
                wr, wi = (lifted_axis(spec, l, part) for part in (np.real, np.imag))
                bracket = ((lie_bracket(zr, wr, x, cfg) - lie_bracket(zi, wi, x, cfg))
                           + 1j * (lie_bracket(zr, wi, x, cfg) + lie_bracket(zi, wr, x, cfg)))
                part01 = antiholomorphic_part(structure.j, (p_v @ bracket[..., None])[..., 0])
                worst = max(worst, float(g_norm(jet.metric, part01)[0]))
    return worst


def condition_ii_samples(spec, orientation, points):
    lifted = lift_structure(spec, orientation, CFG)
    return [(jet_of(spec, points[r:r + 1]),
             structure_jet(spec.source, lifted, points[r:r + 1], CFG))
            for r in range(len(points))]


@pytest.mark.parametrize("orientation", [+1, -1])
def test_condition_ii_matches_the_bracket_route(orientation):
    """One stencil for all lifted axis fields of all samples gives bit for bit
    the residual of four Lie brackets per pair of target axes at each sample."""
    spec = catalog.punctured_hopf(2).maps["hopf"]
    points = np.array(SamplePlan(seed=3, count=3).points(spec.source, CFG))
    structure = structure_jet(spec.source, lift_structure(spec, orientation, CFG), points, CFG)
    residual = max(condition_ii_residual(point_jet(spec, points, CFG), structure))
    oracle = condition_ii_bracket_route(condition_ii_samples(spec, orientation, points))
    assert residual == oracle
    assert oracle > 0.0


def ragged_map():
    """(x, y) -> (x^2, y^2) with g = diag(1, s): rank 2 off the axes, 1 on them and
    0 at the origin; s = 1e-24 below y = -0.5, where g^-1 is 1e24 along y, so the
    rank-1 row (0, -0.7) reads its true, huge conformality residual, 1.96e24."""
    def metric(x):
        s = np.where(x[:, 1] < -0.5, 1e-24, 1.0)
        return np.stack([np.diag([1.0, v]) for v in s])

    src = Chart(dim=2, box=Box((-2.0, -2.0), (2.0, 2.0)), metric_fn=metric)
    tgt = Chart(dim=2, box=Box((-1e3, -1e3), (1e3, 1e3)), metric_fn=constant(np.eye(2)))
    return MapSpec(src, tgt, lambda x: x**2)


RAGGED_ROWS = np.array([[0.5, 0.7], [0.0, 0.0], [0.0, 0.7], [0.0, -0.7], [0.6, 2e-6],
                        [-0.4, 0.3], [0.7, 0.0]])


def test_stacked_jet_and_conformality_equal_one_point_calls_bit_for_bit():
    """Every part of a stacked jet and every array of its conformality data equals
    the one-row stack's at that row, on a stack that mixes regular, near-critical,
    critical and degenerate rows and a row whose source metric is 1e-24 along an
    axis."""
    spec = ragged_map()
    stack = point_jet(spec, RAGGED_ROWS, CFG)
    confs = conformality(stack)
    assert confs.kind.tolist() == ["regular", "critical", "degenerate", "degenerate", "regular",
                                   "regular", "degenerate"]
    assert confs.near_critical.tolist() == [False] * 4 + [True] + [False] * 2
    assert (2 - confs.rank).tolist() == [0, 2, 1, 1, 0, 0, 1]
    npt.assert_allclose(confs.conformality_residual[3], 1.96e24, rtol=1e-12)
    for r in range(len(RAGGED_ROWS)):
        jet = point_jet(spec, RAGGED_ROWS[r:r + 1], CFG)
        for part in ("x", "differential", "metric", "singular_values", "rank", "cometric"):
            assert np.array_equal(getattr(stack, part)[r], getattr(jet, part)[0]), (r, part)
        one = conformality(jet)[0]
        for part in [f.name for f in dataclasses.fields(one)] + ["kind", "dilation"]:
            assert np.array_equal(getattr(one, part), getattr(confs, part)[r]), (r, part)


def test_stacked_frames_and_lifts_equal_one_point_calls_bit_for_bit(punctured2):
    """The horizontal lift and the vertical projector read from a stacked jet
    equal the one-row stacks' row by row."""
    stack = PUNCTURED2_POINT + 1e-3 * np.vstack([np.eye(6), -np.eye(6)])
    jets = point_jet(punctured2, stack, CFG)
    lifts, projectors = jets.lift, _vertical_projector(jets)
    for r in range(len(stack)):
        jet = point_jet(punctured2, stack[r:r + 1], CFG)
        assert np.array_equal(lifts[r], jet.lift[0])
        assert np.array_equal(projectors[r], _vertical_projector(jet)[0])


@pytest.mark.parametrize("name, key", [("hopf-s3", "hopf"), ("punctured-hopf-2", "hopf"),
                                       ("annulus-radial", "radial")])
def test_joint_jet_equals_the_sample_and_stencil_jets_bit_for_bit(name, key):
    """Every part of a jet built with its stencil jet equals that of the sample
    jet and of the stencil jet built apart: the fields, every conformality array
    and the lift at both, Gamma against the chart's and the fibre mean curvature,
    which also equals each point's one-row stack's on a 3-point plan."""
    spec = catalog.get_entry(name).maps[key]
    points = SamplePlan(seed=3, count=3).points(spec.source, CFG)
    joint, samples = point_jet(spec, points, CFG, stencil=True), point_jet(spec, points, CFG)
    stencil = point_jet(spec, numdiff.stencil(points, CFG).reshape(-1, spec.source.dim), CFG)
    for jet, alone in ((joint, samples), (joint.stencil, stencil)):
        for part in ("x", "differential", "metric", "singular_values", "rank", "cometric",
                     "lift"):
            assert np.array_equal(getattr(jet, part), getattr(alone, part)), part
        for part in dataclasses.fields(alone.split):
            assert np.array_equal(getattr(jet.split, part.name), getattr(alone.split, part.name))
    assert np.array_equal(joint.source.gamma, chart_gamma(spec.source, points, CFG))
    curvature = fibre_mean_curvature(joint)
    assert np.array_equal(curvature, fibre_mean_curvature(samples))
    for r in range(len(points)):
        alone = fibre_mean_curvature(point_jet(spec, points[r:r + 1], CFG))
        assert np.array_equal(curvature[r], alone[0])


def test_map_that_does_not_broadcast_is_rejected():
    """A per-point fn returns the wrong shape for a stack: the map names itself
    and both shapes, and no check classifies it."""
    spec = dataclasses.replace(flat_map(lambda x: np.array([x[0], x[1]])), name="per-point")
    with pytest.raises(WrongDimension, match=r"per-point.*\(2, 2\).*\(3, 2\).*\(3, 2\)"):
        spec(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
    with pytest.raises(WrongDimension, match="per-point"):
        scenarios.check_harmonic_morphism(spec, SamplePlan(count=2), CFG)


DSL_MAP_SRC = """\
dim = 4
domain x1 = [0.5, 1.5]
domain x2 = [-0.5, 0.5]
domain x3 = [0.5, 1.5]
domain x4 = [-0.5, 0.5]
g[1][1] = exp(0.3*sin(x1 + x3) + 0.2*x2*x4)
g[2][2] = exp(0.3*sin(x1 + x3) + 0.2*x2*x4)
g[3][3] = exp(0.3*sin(x1 + x3) + 0.2*x2*x4)
g[4][4] = exp(0.3*sin(x1 + x3) + 0.2*x2*x4)
J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
map product -> 2 = [x1*x3 - x2*x4, x1*x4 + x2*x3]
"""


def map_named(name):
    """A catalog map entry's map or the DSL map."""
    if name == "dsl":
        return geodsl.to_map(geodsl.parse(DSL_MAP_SRC), "product")
    return catalog.get_entry(name).maps["hopf"]


@pytest.mark.parametrize("name", ["hopf-s3", "product-hopf-1-1", "dsl"])
def test_stacked_tension_equals_one_point_calls_bit_for_bit(name):
    """nabla dphi, the tension and the Lee push-forward read from a stacked jet
    equal the one-row stacks' row by row."""
    spec = map_named(name)
    points = SamplePlan(seed=3, count=3).points(spec.source, CFG)
    stack = point_jet(spec, points, CFG)
    sff, tau, push = sff_tensor(stack), tension(stack), lee_pushforward(stack)
    assert tau.shape == (3, spec.target.dim)
    for r in range(len(points)):
        jet = point_jet(spec, points[r:r + 1], CFG)
        assert np.array_equal(sff[r], sff_tensor(jet)[0])
        assert np.array_equal(tau[r], tension(jet)[0])
        assert np.array_equal(push[r], lee_pushforward(jet)[0])


def test_harmonic_morphism_check_takes_one_second_partial(monkeypatch):
    """The tension of every sample of a check comes from one stencil."""
    shapes = []
    original = numdiff.second_partial
    monkeypatch.setattr(numdiff, "second_partial", lambda f, x, *args, **kwargs:
                        shapes.append(np.shape(x)) or original(f, x, *args, **kwargs))
    scenarios.check_harmonic_morphism(map_named("dsl"), SamplePlan(count=4), CFG)
    assert shapes == [(4, 4)]


def test_stacked_operators_equal_one_point_calls_bit_for_bit():
    """Holomorphy, fibre mean curvature, homothety, superminimality, condition (ii)
    and the lifted structure jet read from one stacked jet (and its one stencil
    jet) equal the one-row stacks' row by row."""
    spec = catalog.punctured_hopf(2).maps["hopf"]
    points = SamplePlan(seed=3, count=3).points(spec.source, CFG)
    stack = point_jet(spec, points, CFG)
    lifted = maps.lifted_structure_jet(stack, +1)
    source = structure_jet(spec.source, spec.source_structure, points, CFG)
    rows = {"holomorphy": holomorphy_residual(stack), "fibre": fibre_mean_curvature(stack),
            "homothety": homothety_residual(stack),
            "superminimality": superminimality_residual(stack, source),
            "condition (ii)": condition_ii_residual(stack, lifted)}
    for r in range(len(points)):
        x = points[r:r + 1]
        jet = point_jet(spec, x, CFG)
        lifted_at = structure_jet(spec.source, lift_structure(spec, +1, CFG), x, CFG)
        for part in ("j", "dj", "nabla"):
            assert np.array_equal(getattr(lifted, part)[r], getattr(lifted_at, part)[0]), part
        alone = {"holomorphy": holomorphy_residual(jet), "fibre": fibre_mean_curvature(jet),
                 "homothety": homothety_residual(jet),
                 "superminimality": superminimality_residual(
                     jet, structure_jet(spec.source, spec.source_structure, x, CFG)),
                 "condition (ii)": condition_ii_residual(jet, lifted_at)}
        for name, value in alone.items():
            assert np.array_equal(rows[name][r], value[0]), name
    assert max(rows["condition (ii)"]) > 0.0


def source_structure_jet(jet):
    spec = jet.spec
    return structure_jet(spec.source, spec.source_structure, jet.x, CFG)


@pytest.mark.parametrize("operator", [
    fibre_mean_curvature, homothety_residual,
    lambda jet: maps.lifted_structure_jet(jet, -1),
    lambda jet: condition_ii_residual(jet, source_structure_jet(jet))])
def test_stack_whose_stencil_leaves_the_chart_raises_what_that_sample_raises(operator):
    """The stencil jet of a later sample leaves the chart (its own jet does not):
    the stack raises the class and the message of that sample alone."""
    spec = catalog.punctured_hopf(2).maps["hopf"]
    bad = np.array(spec.source.box.lo) + 2.5 * CFG.step
    with pytest.raises(EvaluationOutsideDomain) as alone:
        operator(point_jet(spec, bad[None], CFG))
    stack = point_jet(spec, np.concatenate([PUNCTURED2_POINT, PUNCTURED2_POINT + 0.01, bad[None]]),
                      CFG)
    with pytest.raises(EvaluationOutsideDomain) as stacked:
        operator(stack)
    assert "closer than" in str(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_differential_checks_every_rows_interior_before_phi():
    """The interior check is the differential's precondition on the whole stack:
    a later row outside raises before phi runs, so an earlier row at which phi
    fails does not (it fails alone)."""
    chart, calls = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(
        np.eye(2)), name="square"), []

    def fn(x):
        calls.append(len(x))
        if np.any(x[:, 1] > 0.5):
            raise ValueError("phi undefined past x2 = 0.5")
        return x

    spec = MapSpec(chart, chart, fn)
    with pytest.raises(ValueError, match="phi undefined"):
        maps.differential(spec, np.array([[0.1, 0.6]]), CFG)
    calls.clear()
    with pytest.raises(EvaluationOutsideDomain, match=r"square: point array\(\[0.99999, 0"):
        maps.differential(spec, np.array([[0.1, 0.6], [0.99999, 0.0]]), CFG)
    assert calls == []


def test_a_taken_jet_reads_its_rows_of_both_structure_jets(punctured2):
    """A structure-jet part first read on a taken jet is built once, on every row
    of the jet it was taken from, and the taken jet reads its rows of it."""
    calls, j = [], punctured2.target_structure
    spec = dataclasses.replace(punctured2, target_structure=hermitian.AlmostComplexField(
        j.chart, lambda y: calls.append(len(y)) or j.fn(y)))
    jet = point_jet(spec, np.concatenate([PUNCTURED2_POINT, PUNCTURED2_POINT + 0.01,
                                          PUNCTURED2_POINT - 0.01]), CFG)
    taken, rows = jet[np.array([2, 0])], [2, 0]
    for side in ("source", "target"):
        for part in ("metric_inverse", "gamma"):
            assert np.array_equal(getattr(getattr(taken, side), part),
                                  getattr(getattr(jet, side), part)[rows]), (side, part)
    assert np.array_equal(taken.target.j, jet.target.j[rows])
    assert calls == [3]


def test_tension_builds_the_source_christoffel_symbols_before_the_target_ones():
    """At a sample with two faults, a singular source metric (g = diag(1, x1) at
    x1 = 0) and an image closer than 2 steps to the target's boundary, the tension
    raises the source's error: the source Christoffel symbols are built first, then
    the target's, whose build checks the interior at phi(x)."""
    box = Box((-1.0, -1.0), (1.0, 1.0))
    src = Chart(dim=2, box=box, metric_fn=lambda p: np.stack([np.diag([1.0, v]) for v in p[:, 0]]))
    tgt = Chart(dim=2, box=box, metric_fn=constant(np.eye(2)))
    edge = 1.0 - 1.5 * CFG.step
    jet = point_jet(MapSpec(src, tgt, lambda x: x + [0.0, edge]), np.zeros((1, 2)), CFG)
    with pytest.raises(SingularMetric):
        tension(jet)


def test_condition_ii_with_a_non_regular_later_sample_raises_what_it_raises():
    """A critical sample after a regular one: the stack raises that sample's error."""
    spec = flat_map(lambda x: np.stack([x[:, 0] * x[:, 1], x[:, 2] * x[:, 3]], axis=1),
                    source_dim=4, target_dim=2)
    spec = dataclasses.replace(spec, target_structure=catalog.constant_structure(
        spec.target, catalog.multiplication_by_i(1)))
    critical = np.zeros(4)
    with pytest.raises(CriticalPoint) as alone:
        condition_ii_residual(point_jet(spec, critical[None], CFG), None)
    with pytest.raises(CriticalPoint) as stacked:
        condition_ii_residual(point_jet(spec, np.array([[0.5, 0.6, 0.7, 0.8], critical]), CFG),
                              None)
    assert str(stacked.value) == str(alone.value)


#: Operators called on the Hopf map's source: each takes a (k, 4) stack.
STACK_OPERATORS = {
    "partial": lambda spec, x: numdiff.partial(spec, x, CFG),
    "second_partial": lambda spec, x: numdiff.second_partial(spec, x, CFG),
    "christoffel": lambda spec, x: chart_gamma(spec.source, x, CFG),
    "differential": lambda spec, x: differential(spec, x, CFG),
    "point_jet": lambda spec, x: point_jet(spec, x, CFG),
    "structure_jet": lambda spec, x: structure_jet(spec.source, spec.source_structure, x, CFG),
    "Chart.metric": lambda spec, x: spec.source.metric(x),
    "MapSpec.__call__": lambda spec, x: spec(x),
    "AlmostComplexField.__call__": lambda spec, x: spec.source_structure(x),
}


@pytest.mark.parametrize("name", STACK_OPERATORS)
def test_a_one_dimensional_point_raises_wrong_dimension(name, hopf):
    """A 1-D point is not read as a one-row stack: it raises ``WrongDimension``
    naming its shape, and the one-row stack of the same point is accepted."""
    operator = STACK_OPERATORS[name]
    with pytest.raises(WrongDimension,
                       match=r"^expected a \(k, n\) stack of points, got shape \(4,\)$"):
        operator(hopf, CE_POINT[0])
    operator(hopf, CE_POINT)
