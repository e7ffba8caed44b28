import math

import numpy as np
import numpy.testing as npt
import pytest

from hermkit.errors import EvaluationOutsideDomain, RankDeficient
from hermkit.numdiff import (RANK_RTOL, TOLERANCE_FACTOR, DiffConfig, by_row, difference,
                             gram_schmidt, orthonormalize, partial, project_out,
                             second_partial, stencil)


def partial_axis(f, x, i, cfg, domain=None):
    """The first partial along one axis, one per-point ``f`` call per stencil
    point: the reference the stacked :func:`partial` must equal bit for bit."""
    x = np.asarray(x, dtype=float)
    e = np.eye(len(x))[i]
    steps = [cfg.step, cfg.step / 2.0] if cfg.richardson else [cfg.step]
    points = [p for s in steps for p in (x + s * e, x - s * e)]
    if domain is not None and not all(domain(p) for p in points):
        raise EvaluationOutsideDomain("stencil point outside domain")
    v = [np.asarray(f(p)) for p in points]
    d = [(v[2 * k] - v[2 * k + 1]) / (2.0 * s) for k, s in enumerate(steps)]
    return (4.0 * d[1] - d[0]) / 3.0 if cfg.richardson else d[0]


def second_partial_axes(f, x, i, j, cfg):
    """The second partial along one pair of axes, per point: the reference for
    the stacked :func:`second_partial`."""
    x = np.asarray(x, dtype=float)
    i, j = (i, j) if i <= j else (j, i)
    ei, ej = np.eye(len(x))[[i, j]]
    steps = [2.0 * cfg.step, cfg.step] if cfg.richardson else [cfg.step]
    if i == j:
        v = [np.asarray(f(p)) for s in steps for p in (x + s * ei, x, x - s * ei)]
        d = [(v[3 * k] - 2.0 * v[3 * k + 1] + v[3 * k + 2]) / s**2
             for k, s in enumerate(steps)]
    else:
        v = [np.asarray(f(p)) for s in steps for p in (x + s * ei + s * ej, x + s * ei - s * ej,
                                                        x - s * ei + s * ej, x - s * ei - s * ej)]
        d = [(v[4 * k] - v[4 * k + 1] - v[4 * k + 2] + v[4 * k + 3]) / (4.0 * s**2)
             for k, s in enumerate(steps)]
    return (4.0 * d[1] - d[0]) / 3.0 if cfg.richardson else d[0]


def test_config_validation():
    with pytest.raises(ValueError):
        DiffConfig(step=0.0)
    with pytest.raises(ValueError):
        DiffConfig(tolerance_abs=-1.0)


@pytest.mark.parametrize("field", ["step", "tolerance_abs"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_values(field, value):
    """An infinite tolerance would pass every ``le`` check and fail every
    rejection check; an infinite step leaves every stencil undefined."""
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {value!r}$"):
        DiffConfig(**{field: value})


def test_tolerance_is_scale_aware():
    cfg = DiffConfig(step=1e-2, tolerance_abs=1e-6)
    assert TOLERANCE_FACTOR == 50.0
    assert cfg.tolerance(0.0) == 1e-6
    npt.assert_allclose(cfg.tolerance(2.0), 1e-6 + 50.0 * 1e-4 * 2.0)


@pytest.mark.parametrize("richardson", [True, False])
def test_stencils_reject_a_step_the_coordinates_cannot_resolve(richardson):
    """x +- the smallest offset must move every coordinate, or every difference
    reads 0: the smallest offset is step/2 for extrapolated first partials and
    step for second partials."""
    f = by_row(lambda p: math.exp(p[0] + p[1]))
    x = np.array([[0.25, 0.9]])
    # 1e-16 moves 0.9 (its half ulp is 5.6e-17) but 5e-17 does not
    unresolved = [(partial, 1e-16 if richardson else 1e-17), (second_partial, 1e-17)]
    for stencil, step in unresolved:
        cfg = DiffConfig(step=step, richardson=richardson)
        with pytest.raises(ValueError, match=rf"^step {step!r} .* at \[0.25, 0.9\]"):
            stencil(f, x, cfg)
    cfg = DiffConfig(step=1e-16, richardson=False)
    assert second_partial(f, x, cfg).shape == (1, 2, 2) and partial(f, x, cfg).shape == (1, 2)
    with pytest.raises(ValueError, match=r"at \[0.25, 0.9\]"):  # the first bad row of a stack
        partial(f, np.array([[1e-3, 1e-3], [0.25, 0.9], [1e-3, 1e-3]]), DiffConfig(step=1e-17))


def test_partial_quadratic_exact(cfg):
    # central differences differentiate polynomials of degree <= 2 exactly
    val = partial(by_row(lambda x: x[0] ** 2), np.array([[1.0]]), cfg)[0, 0]
    npt.assert_allclose(val, 2.0, rtol=0, atol=1e-11)


def test_partial_sin_against_analytic(cfg):
    val = partial(by_row(lambda x: math.sin(x[0])), np.array([[0.0]]), cfg)[0, 0]
    assert abs(val - 1.0) <= cfg.step**2 / 6.0


def test_partial_constant_is_zero(cfg):
    assert partial(by_row(lambda x: 4.25), np.array([[0.3, 0.4]]), cfg)[0, 1] == 0.0


def test_partial_vector_valued(cfg):
    f = lambda x: np.array([x[0] * x[1], x[1] ** 2])
    val = partial(by_row(f), np.array([[2.0, 3.0]]), cfg)[0, 1]
    npt.assert_allclose(val, [2.0, 6.0], atol=1e-10)


def test_second_partial_bilinear_exact(cfg):
    val = second_partial(by_row(lambda x: x[0] * x[1]), np.array([[0.7, -0.2]]), cfg)[0, 0, 1]
    npt.assert_allclose(val, 1.0, atol=1e-9)


def test_second_partial_diagonal_quadratic(cfg):
    val = second_partial(by_row(lambda x: x[0] ** 2 + x[1] ** 2), np.array([[0.3, 0.4]]),
                         cfg)[0, 0, 0]
    npt.assert_allclose(val, 2.0, atol=1e-7)


def test_second_partial_mixed_analytic(cfg):
    # d^2/dxdy sin(x)cos(y) = -cos(x)sin(y) = 0 at the origin
    f = lambda x: math.sin(x[0]) * math.cos(x[1])
    val = second_partial(by_row(f), np.array([[0.0, 0.0]]), cfg)[0, 0, 1]
    assert abs(val) <= 1e-8


def test_second_partial_symmetric_by_construction(cfg):
    f = lambda x: math.exp(x[0]) * math.sin(2 * x[1])
    x = np.array([[0.2, 0.5]])
    hessian = second_partial(by_row(f), x, cfg)[0]
    assert hessian[0, 1] == hessian[1, 0]  # bitwise: the stencil is identical


@pytest.mark.parametrize("richardson,lo,hi", [(False, 3.5, 4.5), (True, 14.0, 18.0)])
def test_convergence_order_on_exp(richardson, lo, hi):
    """Halving the step shrinks the first-derivative error by ~4 (plain
    central) or ~16 (extrapolated), measured where truncation dominates."""
    x = np.array([[0.3]])
    exact = math.exp(0.3)
    errors = []
    for step in (0.05, 0.025):
        est = partial(by_row(lambda p: math.exp(p[0])), x,
                      DiffConfig(step=step, richardson=richardson))[0, 0]
        errors.append(abs(est - exact))
    ratio = errors[0] / errors[1]
    assert lo <= ratio <= hi


def test_partial_domain_guard(cfg):
    domain = lambda p: bool(np.all(np.abs(p) <= 1.0))
    partial(by_row(lambda x: x[0] ** 2), np.array([[0.5]]), cfg, domain=domain)
    with pytest.raises(EvaluationOutsideDomain):
        partial(by_row(lambda x: x[0] ** 2), np.array([[1.0]]), cfg, domain=domain)


def test_second_partial_checks_the_points_it_evaluates(cfg):
    """The diagonal stencil reaches x +- 2h, not the corners x +- 4h."""
    domain = lambda p: bool(np.all(p[:, 0] <= 1.0))
    f = by_row(lambda p: p[0] ** 2)
    val = second_partial(f, np.array([[1.0 - 3e-4, 0.5]]), cfg, domain=domain)[0, 0, 0]
    npt.assert_allclose(val, 2.0, atol=1e-7)
    with pytest.raises(EvaluationOutsideDomain):
        second_partial(f, np.array([[1.0 - 1e-4, 0.5]]), cfg, domain=domain)


def test_stencil_domain_checked_in_one_call(cfg):
    stacks = []

    def domain(p):
        stacks.append(np.shape(p))
        return bool(np.all(np.abs(p) <= 1.0))

    partial(by_row(lambda x: x[0] ** 2), np.array([[0.5]]), cfg, domain=domain)
    assert stacks == [(4, 1)]
    stacks.clear()
    with pytest.raises(EvaluationOutsideDomain, match=r"array\(\[1.0001\]\)"):
        partial(by_row(lambda x: x[0] ** 2), np.array([[1.0]]), cfg, domain=domain)
    assert stacks == [(4, 1), (1, 1)]  # the stack, then its rows as one-row stacks


def vector_field(x):
    """A vector-valued function of three coordinates, per point."""
    return np.array([math.sin(x[0] * 1.7) * x[2], math.exp(x[1] - x[0]), x[0] * x[1] ** 3,
                     math.cos(x[2]) / (2.0 + x[1])])


@pytest.mark.parametrize("richardson", [True, False])
def test_stacked_stencils_equal_the_per_axis_reference(richardson):
    cfg = DiffConfig(richardson=richardson)
    x = np.array([0.31, -0.77, 1.2])
    first = partial(by_row(vector_field), x[None], cfg)
    second = second_partial(by_row(vector_field), x[None], cfg)
    assert first.shape == (1, 3, 4) and second.shape == (1, 3, 3, 4)
    for i in range(3):
        assert np.array_equal(first[0, i], partial_axis(vector_field, x, i, cfg))
        for j in range(3):
            assert np.array_equal(second[0, i, j],
                                  second_partial_axes(vector_field, x, i, j, cfg))


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("shape", [(1, 3), (5, 3)])
def test_partial_is_the_difference_of_the_values_on_the_stencil(richardson, shape):
    """At a one-row stack and at a stack: the stencil's shape, and partial equal
    to difference of the function's values on the flattened stencil, bit for bit."""
    cfg = DiffConfig(richardson=richardson)
    x = np.linspace(-0.8, 1.3, math.prod(shape)).reshape(shape)
    points = stencil(x, cfg)
    m = (4 if richardson else 2) * 3
    assert points.shape == shape[:-1] + (m, 3)
    values = by_row(vector_field)(points.reshape(-1, 3))
    assert np.array_equal(partial(by_row(vector_field), x, cfg), difference(values, x, cfg))


@pytest.mark.parametrize("stencil, rows", [(partial, 4 * 3), (second_partial, 1 + 4 * 3 + 8 * 3)])
def test_one_domain_call_and_one_function_call_per_stencil(stencil, rows, cfg):
    domains, calls = [], []

    def domain(p):
        domains.append(np.shape(p))
        return True

    def f(points):
        calls.append(np.shape(points))
        return by_row(vector_field)(points)

    stencil(f, np.array([[0.31, -0.77, 1.2]]), cfg, domain=domain)
    assert domains == [(rows, 3)]
    assert calls == [(rows, 3)]


@pytest.mark.parametrize("richardson", [True, False])
def test_stacked_second_partial_equals_each_row_alone(richardson):
    """A (k, n) stack takes one domain call and one function call, on the
    stencils of all its rows, and each row equals its one-row stack bit for bit."""
    cfg = DiffConfig(richardson=richardson)
    stack = np.array([[0.31, -0.77, 1.2], [0.0, 0.5, -0.25], [-1.1, 0.2, 0.4]])
    domains, calls = [], []

    def domain(p):
        domains.append(np.shape(p))
        return True

    def f(points):
        calls.append(np.shape(points))
        return by_row(vector_field)(points)

    out = second_partial(f, stack, cfg, domain=domain)
    per_row = 1 + 4 * 3 + 8 * 3 if richardson else 1 + 2 * 3 + 4 * 3
    assert domains == calls == [(3 * per_row, 3)]
    assert out.shape == (3, 3, 3, 4)
    for r in range(len(stack)):
        assert np.array_equal(out[r], second_partial(by_row(vector_field), stack[r:r + 1],
                                                     cfg)[0])


def test_stacked_second_partial_names_the_first_row_outside(cfg):
    domain = lambda p: bool(np.all(p[:, 0] <= 1.0))
    f = by_row(lambda p: p[0] ** 2)
    stack = np.array([[0.5, 0.5], [1.0 - 1e-4, 0.5], [1.0 - 5e-5, 0.5]])
    with pytest.raises(EvaluationOutsideDomain) as alone:
        second_partial(f, stack[1:2], cfg, domain=domain)
    with pytest.raises(EvaluationOutsideDomain) as stacked:
        second_partial(f, stack, cfg, domain=domain)
    assert str(stacked.value) == str(alone.value)


def test_hessian_centre_evaluated_once(cfg):
    seen = []

    def f(points):
        seen.extend(p.tobytes() for p in points)
        return by_row(vector_field)(points)

    x = np.array([0.31, -0.77, 1.2])
    second_partial(f, x[None], cfg)
    assert seen.count(x.tobytes()) == 1
    assert len(seen) == len(set(seen))


def test_determinism_bitwise(cfg):
    f = by_row(lambda x: math.sin(x[0] * 1.7) + x[1] ** 3)
    x = np.array([[0.31, 0.77]])
    a = partial(f, x, cfg)[0, 0]
    b = partial(f, x, cfg)[0, 0]
    assert a == b
    c = second_partial(f, x, cfg)[0, 0, 1]
    d = second_partial(f, x, cfg)[0, 0, 1]
    assert c == d


def rows(*vectors):
    """Each vector as a one-row stack."""
    return [np.array([v], dtype=float) for v in vectors]


def test_orthonormalize_identity_basis():
    basis = orthonormalize(rows([1.0, 0.0], [0.0, 1.0]), np.eye(2)[None])
    npt.assert_allclose(np.column_stack([b[0] for b in basis]), np.eye(2))


def test_orthonormalize_classical_gram_schmidt():
    basis = orthonormalize(rows([1.0, 0.0], [1.0, 1.0]), np.eye(2)[None])
    npt.assert_allclose(basis[0], [[1.0, 0.0]], atol=1e-14)
    npt.assert_allclose(basis[1], [[0.0, 1.0]], atol=1e-14)


def test_orthonormalize_scales_by_metric():
    # hand-computed g-norms: |e1|_g = 2, |e2|_g = 3
    g = np.diag([4.0, 9.0])[None]
    basis = orthonormalize(rows([1.0, 0.0], [0.0, 1.0]), g)
    npt.assert_allclose(basis[0], [[0.5, 0.0]])
    npt.assert_allclose(basis[1], [[0.0, 1.0 / 3.0]])


def test_gram_schmidt_drops_dependent_vectors():
    """Gram-Schmidt drops a dependent vector; orthonormalize, whose stacks keep
    every vector, raises on it instead."""
    vecs = rows([1.0, 0.0], [2.0, 0.0], [0.0, 1.0])
    ((kept_rows, basis),) = gram_schmidt(vecs, np.eye(2)[None], np.array([RANK_RTOL]))
    assert kept_rows.tolist() == [0]
    npt.assert_allclose(np.column_stack([b[0] for b in basis]), np.eye(2))
    with pytest.raises(RankDeficient, match="^requested 3 independent vectors, got 2$"):
        orthonormalize(vecs, np.eye(2)[None])


def test_orthonormalize_rank_deficient():
    with pytest.raises(RankDeficient):
        orthonormalize(rows([1.0, 0.0], [2.0, 0.0]), np.eye(2)[None])


def test_orthonormalize_gram_residual_modest_condition(rng):
    """v_i^T g v_j = delta_ij to 1e-10 for conditions up to 1e6."""
    for cond in (1.0, 1e3, 1e6):
        d = 4
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = np.geomspace(1.0, cond, d)
        g = q @ np.diag(eigs) @ q.T
        vecs = rows(*(rng.normal(size=d) for _ in range(d)))
        u = np.column_stack([b[0] for b in orthonormalize(vecs, g[None])])
        assert np.max(np.abs(u.T @ g @ u - np.eye(d))) <= 1e-10


def project_out_oracle(v, basis, g):
    """The one-vector Gram-Schmidt step with the coefficient written as
    ``w @ g @ b``: the formula the stacked step must reproduce bit for bit."""
    w = np.array(v, dtype=float)
    for _ in range(2):
        for b in basis:
            w = w - (w @ g @ b) * b
    return w


@pytest.mark.parametrize("d", range(2, 9))
def test_project_out_stack_equals_rows_bit_for_bit(d, rng):
    """A (k, d) stack with a (k, d, d) stack of metrics projects each row as its
    one-row stack, and that as the ``w @ g @ b`` formula, under ``np.array_equal``."""
    for _ in range(20):
        k, m = int(rng.integers(1, 13)), int(rng.integers(0, d + 1))
        a = rng.normal(size=(k, d, d))
        g = a @ np.swapaxes(a, 1, 2) + np.eye(d)
        v = rng.normal(size=(k, d))
        basis = [rng.normal(size=(k, d)) for _ in range(m)]
        stacked = project_out(v, basis, g)
        assert stacked.shape == (k, d)
        for r in range(k):
            row = project_out(v[r:r + 1], [b[r:r + 1] for b in basis], g[r:r + 1])[0]
            assert np.array_equal(stacked[r], row)
            assert np.array_equal(row, project_out_oracle(v[r], [b[r] for b in basis], g[r]))
