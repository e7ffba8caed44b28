import math

import numpy as np
import numpy.testing as npt
import pytest

from hermkit.errors import EvaluationOutsideDomain, RankDeficient
from hermkit.numdiff import DiffConfig, orthonormalize, partial, second_partial


def test_config_validation():
    with pytest.raises(ValueError):
        DiffConfig(step=0.0)
    with pytest.raises(ValueError):
        DiffConfig(tolerance_abs=-1.0)


def test_tolerance_is_scale_aware():
    cfg = DiffConfig(step=1e-2, tolerance_abs=1e-6, tolerance_factor=50.0)
    assert cfg.tolerance(0.0) == 1e-6
    npt.assert_allclose(cfg.tolerance(2.0), 1e-6 + 50.0 * 1e-4 * 2.0)


def test_partial_quadratic_exact(cfg):
    # central differences differentiate polynomials of degree <= 2 exactly
    val = partial(lambda x: x[0] ** 2, np.array([1.0]), 0, cfg)
    npt.assert_allclose(val, 2.0, rtol=0, atol=1e-11)


def test_partial_sin_against_analytic(cfg):
    val = partial(lambda x: math.sin(x[0]), np.array([0.0]), 0, cfg)
    assert abs(val - 1.0) <= cfg.step**2 / 6.0


def test_partial_constant_is_zero(cfg):
    assert partial(lambda x: 4.25, np.array([0.3, 0.4]), 1, cfg) == 0.0


def test_partial_vector_valued(cfg):
    f = lambda x: np.array([x[0] * x[1], x[1] ** 2])
    val = partial(f, np.array([2.0, 3.0]), 1, cfg)
    npt.assert_allclose(val, [2.0, 6.0], atol=1e-10)


def test_second_partial_bilinear_exact(cfg):
    val = second_partial(lambda x: x[0] * x[1], np.array([0.7, -0.2]), 0, 1, cfg)
    npt.assert_allclose(val, 1.0, atol=1e-9)


def test_second_partial_diagonal_quadratic(cfg):
    val = second_partial(lambda x: x[0] ** 2 + x[1] ** 2, np.array([0.3, 0.4]), 0, 0, cfg)
    npt.assert_allclose(val, 2.0, atol=1e-7)


def test_second_partial_mixed_analytic(cfg):
    # d^2/dxdy sin(x)cos(y) = -cos(x)sin(y) = 0 at the origin
    f = lambda x: math.sin(x[0]) * math.cos(x[1])
    val = second_partial(f, np.array([0.0, 0.0]), 0, 1, cfg)
    assert abs(val) <= 1e-8


def test_second_partial_symmetric_by_construction(cfg):
    f = lambda x: math.exp(x[0]) * math.sin(2 * x[1])
    x = np.array([0.2, 0.5])
    a = second_partial(f, x, 0, 1, cfg)
    b = second_partial(f, x, 1, 0, cfg)
    assert a == b  # bitwise: the stencil is identical


@pytest.mark.parametrize("richardson,lo,hi", [(False, 3.5, 4.5), (True, 14.0, 18.0)])
def test_convergence_order_on_exp(richardson, lo, hi):
    """Halving the step shrinks the first-derivative error by ~4 (plain
    central) or ~16 (extrapolated), measured where truncation dominates."""
    x = np.array([0.3])
    exact = math.exp(0.3)
    errors = []
    for step in (0.05, 0.025):
        est = partial(lambda p: math.exp(p[0]), x, 0,
                      DiffConfig(step=step, richardson=richardson))
        errors.append(abs(est - exact))
    ratio = errors[0] / errors[1]
    assert lo <= ratio <= hi


def test_partial_domain_guard(cfg):
    domain = lambda p: bool(np.all(np.abs(p) <= 1.0))
    partial(lambda x: x[0] ** 2, np.array([0.5]), 0, cfg, domain=domain)
    with pytest.raises(EvaluationOutsideDomain):
        partial(lambda x: x[0] ** 2, np.array([1.0]), 0, cfg, domain=domain)


def test_second_partial_checks_the_points_it_evaluates(cfg):
    """The diagonal stencil reaches x +- 2h, not the corners x +- 4h."""
    domain = lambda p: bool(np.all(np.atleast_2d(p)[:, 0] <= 1.0))
    f = lambda p: p[0] ** 2
    val = second_partial(f, np.array([1.0 - 3e-4, 0.5]), 0, 0, cfg, domain=domain)
    npt.assert_allclose(val, 2.0, atol=1e-7)
    with pytest.raises(EvaluationOutsideDomain):
        second_partial(f, np.array([1.0 - 1e-4, 0.5]), 0, 0, cfg, domain=domain)


def test_stencil_domain_checked_in_one_call(cfg):
    stacks = []

    def domain(p):
        stacks.append(np.shape(p))
        return bool(np.all(np.abs(p) <= 1.0))

    partial(lambda x: x[0] ** 2, np.array([0.5]), 0, cfg, domain=domain)
    assert stacks == [(4, 1)]
    stacks.clear()
    with pytest.raises(EvaluationOutsideDomain, match=r"array\(\[1.0001\]\)"):
        partial(lambda x: x[0] ** 2, np.array([1.0]), 0, cfg, domain=domain)
    assert stacks[0] == (4, 1)


def test_determinism_bitwise(cfg):
    f = lambda x: math.sin(x[0] * 1.7) + x[1] ** 3
    x = np.array([0.31, 0.77])
    a = partial(f, x, 0, cfg)
    b = partial(f, x, 0, cfg)
    assert a == b
    c = second_partial(f, x, 0, 1, cfg)
    d = second_partial(f, x, 0, 1, cfg)
    assert c == d


def test_orthonormalize_identity_basis():
    basis = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.eye(2))
    npt.assert_allclose(np.column_stack(basis), np.eye(2))


def test_orthonormalize_classical_gram_schmidt():
    basis = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])], np.eye(2))
    npt.assert_allclose(basis[0], [1.0, 0.0], atol=1e-14)
    npt.assert_allclose(basis[1], [0.0, 1.0], atol=1e-14)


def test_orthonormalize_scales_by_metric():
    # hand-computed g-norms: |e1|_g = 2, |e2|_g = 3
    g = np.diag([4.0, 9.0])
    basis = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])], g)
    npt.assert_allclose(basis[0], [0.5, 0.0])
    npt.assert_allclose(basis[1], [0.0, 1.0 / 3.0])


def test_orthonormalize_drops_dependent_vectors():
    vecs = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0])]
    basis = orthonormalize(vecs, np.eye(2), required=2)
    npt.assert_allclose(np.column_stack(basis), np.eye(2))


def test_orthonormalize_rank_deficient():
    with pytest.raises(RankDeficient):
        orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0])], np.eye(2))


def test_orthonormalize_gram_residual_modest_condition(rng):
    """v_i^T g v_j = delta_ij to 1e-10 for conditions up to 1e6."""
    for cond in (1.0, 1e3, 1e6):
        d = 4
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = np.geomspace(1.0, cond, d)
        g = q @ np.diag(eigs) @ q.T
        vecs = [rng.normal(size=d) for _ in range(d)]
        u = np.column_stack(orthonormalize(vecs, g))
        assert np.max(np.abs(u.T @ g @ u - np.eye(d))) <= 1e-10
