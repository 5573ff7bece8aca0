import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, expm

from hjblab.hilbert import (
    DiscreteOperator,
    BOperatorSpec,
    SpaceSpec,
    b_norm,
    check_b_condition,
    check_positivity_preserving,
    delay_space,
    h_inner,
    h_norm,
    interval_space,
    make_delay_generator,
    make_dirichlet_laplacian,
    make_zero_operator,
    semigroup_apply,
    semigroup_matrix,
)
from hjblab.models import build_reaction_diffusion, build_sdde_lift


# ---------------------------------------------------------------------------
# oracles


def laplacian_eigenvalues(n, length, kappa):
    """Closed-form spectrum of the tridiagonal Dirichlet stencil."""
    h = length / (n + 1)
    k = np.arange(1, n + 1)
    return -(4.0 * kappa / h**2) * np.sin(k * np.pi / (2 * (n + 1))) ** 2


def laplacian_eigenvector(n, k):
    j = np.arange(1, n + 1)
    v = np.sin(j * k * np.pi / (n + 1))
    return v / np.linalg.norm(v)


def delay_characteristics(x0, past_profile, boundary_decay, s, xi):
    """Exact delay semigroup on the past block by characteristics.

    Values move from the xi = 0 boundary toward -d; a point xi at time s saw
    the initial profile if xi + s <= 0, else the boundary trace, which is
    the decayed present channel value x0 * exp(-(s + xi)).
    """
    if xi + s <= 0:
        return past_profile(xi + s)
    return boundary_decay(s + xi) * x0


# ---------------------------------------------------------------------------
# spaces


def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        SpaceSpec(3, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        SpaceSpec(3, np.ones(2))


def test_interval_space_weights():
    sp = interval_space(3, 4.0)
    assert np.allclose(sp.weights, 1.0)  # h = 4 / 4
    sp2 = interval_space(9, 1.0)
    assert np.allclose(sp2.weights, 0.1)


def test_h_norm_quadrature():
    # sum_j sin^2(j pi / (n+1)) = (n+1)/2 exactly, so the rectangle rule
    # reproduces ||sin(pi .)||_{L^2(0,1)} = sqrt(1/2) at every resolution
    for n in (5, 50, 500):
        sp = interval_space(n, 1.0)
        nodes = np.arange(1, n + 1) / (n + 1)
        assert h_norm(sp, np.sin(np.pi * nodes)) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_h_inner_batched():
    sp = interval_space(4, 5.0)
    xs = np.arange(12.0).reshape(3, 4)
    vals = h_inner(sp, xs, xs)
    for i in range(3):
        assert vals[i] == pytest.approx(np.sum(sp.weights * xs[i] ** 2))


# ---------------------------------------------------------------------------
# dirichlet laplacian


def test_laplacian_3x3_stencil():
    op = make_dirichlet_laplacian(3, 4.0, 1.0)  # h = 1
    expected = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    assert np.array_equal(op.matrix, expected)
    assert op.kind == "dirichlet_laplacian_fd"


def test_laplacian_1x1():
    op = make_dirichlet_laplacian(1, 2.0, 1.0)
    assert np.array_equal(op.matrix, np.array([[-2.0]]))


@pytest.mark.parametrize("n,length,kappa", [(3, 4.0, 1.0), (16, 1.0, 0.05), (31, 2.0, 0.7)])
def test_laplacian_spectrum_closed_form(n, length, kappa):
    op = make_dirichlet_laplacian(n, length, kappa)
    got = np.sort(np.linalg.eigvalsh(op.matrix))
    want = np.sort(laplacian_eigenvalues(n, length, kappa))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_semigroup_decays_eigenvector():
    n, length, kappa = 16, 1.0, 0.05
    op = make_dirichlet_laplacian(n, length, kappa)
    lam = laplacian_eigenvalues(n, length, kappa)
    for k in (1, 3):
        v = laplacian_eigenvector(n, k)
        out = semigroup_apply(op, 0.01, v)
        assert np.allclose(out, np.exp(0.01 * lam[k - 1]) * v, atol=1e-12)


def test_laplacian_validation():
    with pytest.raises(ValueError):
        make_dirichlet_laplacian(0, 1.0)
    with pytest.raises(ValueError):
        make_dirichlet_laplacian(4, -1.0)


# ---------------------------------------------------------------------------
# delay generator


def test_delay_3x3_stencil():
    op = make_delay_generator(1, 1.0, 2)
    expected = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 2.0], [2.0, 0.0, -2.0]])
    assert np.array_equal(op.matrix, expected)


def test_delay_constant_state():
    # constant state satisfies the boundary constraint; transport part vanishes
    op = make_delay_generator(1, 1.0, 8)
    c = 3.7
    x = np.full(9, c)
    out = op.matrix @ x
    assert out[0] == pytest.approx(-c)
    assert np.allclose(out[1:], 0.0, atol=1e-12)


def test_delay_generator_vector_components():
    op1 = make_delay_generator(1, 2.0, 4)
    op2 = make_delay_generator(3, 2.0, 4)
    assert np.array_equal(op2.matrix, np.kron(op1.matrix, np.eye(3)))


def test_delay_dissipative_in_weighted_inner_product():
    n, d, n_past = 1, 1.5, 20
    op = make_delay_generator(n, d, n_past)
    sp = delay_space(n, d, n_past)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.standard_normal(op.dim)
        assert h_inner(sp, op.matrix @ x, x) <= 1e-12


def test_delay_semigroup_matches_characteristics():
    """First-order transport: error at fixed s shrinks ~ h under refinement."""
    d = 1.0
    x0 = 1.0
    # profile e^{-xi} is C^1-compatible with the decaying boundary trace
    # (value and slope match at xi = 0), so the exact solution e^{-(xi+s)}
    # is smooth and upwind converges at full first order
    profile = lambda xi: np.exp(-xi)
    decay = lambda tau: np.exp(-tau)
    s = 0.3
    errs = []
    for n_past in (40, 80, 160):
        h = d / n_past
        nodes = -d + np.arange(n_past) * h
        state = np.concatenate([[x0], profile(nodes)])
        op = make_delay_generator(1, d, n_past)
        out = semigroup_apply(op, s, state)
        exact_past = np.array(
            [delay_characteristics(x0, profile, decay, s, xi) for xi in nodes]
        )
        errs.append(np.max(np.abs(out[1:] - exact_past)))
        # present channel is exactly exponential decay
        assert out[0] == pytest.approx(x0 * np.exp(-s), rel=1e-10)
    errs = np.array(errs)
    assert errs[0] < 0.1
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 1.6)  # ~2 for first order


# ---------------------------------------------------------------------------
# semigroup basics


def test_zero_operator_identity():
    op = make_zero_operator(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(semigroup_apply(op, 0.37, x), x)
    assert np.array_equal(semigroup_apply(op, 0.0, x), x)


def test_dt_zero_identity_any_operator():
    op = make_dirichlet_laplacian(5, 1.0)
    x = np.linspace(0, 1, 5)
    assert np.array_equal(semigroup_apply(op, 0.0, x), x)


def test_negative_dt_rejected():
    op = make_zero_operator(2)
    with pytest.raises(ValueError):
        semigroup_matrix(op, -0.1)


def test_semigroup_cache_returns_same_object():
    op = make_dirichlet_laplacian(6, 1.0)
    a = semigroup_matrix(op, 0.01)
    b = semigroup_matrix(op, 0.01)
    assert a is b
    assert not a.flags.writeable


def test_semigroup_property():
    op = make_dirichlet_laplacian(8, 1.0, 0.3)
    e1 = semigroup_matrix(op, 0.02)
    e2 = semigroup_matrix(op, 0.05)
    e3 = semigroup_matrix(op, 0.07)
    assert np.allclose(e1 @ e2, e3, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_heat_semigroup_is_contraction(seed):
    op = make_dirichlet_laplacian(12, 1.0, 0.2)
    sp = interval_space(12, 1.0)
    x = np.random.default_rng(seed).standard_normal(12)
    assert h_norm(sp, semigroup_apply(op, 0.05, x)) <= h_norm(sp, x) * (1 + 1e-12)


def test_delay_semigroup_is_contraction():
    op = make_delay_generator(1, 1.0, 16)
    sp = delay_space(1, 1.0, 16)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(op.dim)
        assert h_norm(sp, semigroup_apply(op, 0.1, x)) <= h_norm(sp, x) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the numpy exponential against scipy.linalg.expm


# the step sizes of the default CLI config, 0.5 / M for M in its step
# counts, and two steps large enough that the exponential must square
EXPM_DTS = [0.5 / m for m in (60, 100, 120, 150, 200)] + [0.5, 5.0]
EXPM_OPERATORS = {
    # the reaction-diffusion model's Laplacian (diffusivity 0.05)
    **{f"laplacian{n}": make_dirichlet_laplacian(n, 1.0, 0.05) for n in (8, 16, 64)},
    # the delay lift's generator (n = 1, delay 1)
    **{f"delay{n_past}": make_delay_generator(1, 1.0, n_past) for n_past in (5, 20)},
    # the non-normal matrix of the negative positivity control
    "nonnormal": DiscreteOperator([[-1.0, -0.9], [0.0, -1.0]], kind="custom"),
}


# every operator and step but the 64-point Laplacian at dt = 5 (norm 4225),
# where scipy.linalg.expm is itself 1.2e-12 from the exact exponential (30
# digits) and this one 2.3e-13; the spectral test below covers that case
@pytest.mark.parametrize("name, dt", [
    (name, dt) for name in sorted(EXPM_OPERATORS) for dt in EXPM_DTS
    if (name, dt) != ("laplacian64", 5.0)])
def test_semigroup_matches_scipy_expm(name, dt):
    op = EXPM_OPERATORS[name]
    ref = expm(dt * op.matrix)
    err = np.abs(semigroup_matrix(op, dt) - ref).max() / np.abs(ref).max()
    assert err <= 1e-13


@pytest.mark.parametrize("dt", EXPM_DTS)
@pytest.mark.parametrize("n", [8, 16, 64])
def test_laplacian_semigroup_matches_its_spectral_form(n, dt):
    # exp(dt A) = V diag(exp(dt lambda)) V^T with the stencil's closed-form
    # eigenpairs; exp at a normal matrix has relative condition number
    # ||dt A||, so a backward-stable exponential errs by about eps ||dt A||
    op = EXPM_OPERATORS[f"laplacian{n}"]
    j = np.arange(1, n + 1)
    v = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
    exact = (v * np.exp(dt * laplacian_eigenvalues(n, 1.0, 0.05))) @ v.T
    err = np.abs(semigroup_matrix(op, dt) - exact).max() / np.abs(exact).max()
    assert err <= max(1e-13, np.finfo(float).eps * np.linalg.norm(dt * op.matrix, 1))


def test_semigroup_of_zero_is_exactly_the_identity():
    # a zero matrix built as a custom operator goes through the exponential
    # itself, not the zero operator's shortcut
    zero = DiscreteOperator(np.zeros((3, 3)), kind="custom")
    assert np.array_equal(semigroup_matrix(zero, 0.3), np.eye(3))
    assert np.array_equal(semigroup_matrix(make_dirichlet_laplacian(5, 1.0), 0.0),
                          np.eye(5))


# ---------------------------------------------------------------------------
# B operators


def test_b_norm_identity_matches_h_norm():
    sp = interval_space(6, 1.0)
    b = BOperatorSpec(np.eye(6), c0=1.0, mode="strong", space=sp)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((10, 6))
    assert np.allclose(b_norm(b, xs), h_norm(sp, xs), atol=1e-14)


def test_b_spec_rejects_asymmetric():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        BOperatorSpec(m, c0=0.0, mode="weak")


def test_b_spec_rejects_indefinite():
    m = np.diag([1.0, -0.5])
    with pytest.raises(ValueError):
        BOperatorSpec(m, c0=0.0, mode="weak")


def test_strong_condition_zero_operator():
    # A = 0, B = I, c0 = 1: the form is exactly zero
    op = make_zero_operator(4)
    b = BOperatorSpec(np.eye(4), c0=1.0, mode="strong")
    rep = check_b_condition(op, b)
    assert rep.verdict == "pass"
    assert abs(rep.constants["min_eigenvalue"]) <= 1e-12


def test_strong_condition_minus_identity():
    # A = -I, B = I, c0 = 0: -A*B = I, the strong form is again zero
    op = DiscreteOperator(-np.eye(3), kind="custom")
    b = BOperatorSpec(np.eye(3), c0=0.0, mode="strong")
    rep = check_b_condition(op, b)
    assert rep.verdict == "pass"
    assert abs(rep.constants["min_eigenvalue"]) <= 1e-12


def test_strong_condition_laplacian():
    op = make_dirichlet_laplacian(10, 1.0, 0.1)
    sp = interval_space(10, 1.0)
    b = BOperatorSpec(np.eye(10), c0=1.0, mode="strong", space=sp)
    rep = check_b_condition(op, b)
    assert rep.verdict == "pass"
    assert rep.constants["min_eigenvalue"] >= -1e-8


def test_strong_condition_fails_when_c0_too_small():
    # A = +I expands; B = I, c0 = 0 strong needs -A >= I which is false
    op = DiscreteOperator(np.eye(3), kind="custom")
    b = BOperatorSpec(np.eye(3), c0=0.0, mode="strong")
    rep = check_b_condition(op, b)
    assert rep.verdict == "fail"
    assert rep.constants["min_eigenvalue"] == pytest.approx(-2.0, abs=1e-10)


@pytest.mark.parametrize("build", [build_reaction_diffusion, build_sdde_lift],
                         ids=["heat_strong", "delay_weak"])
def test_b_condition_matches_scipy_generalized_eigh(build):
    problem = build()
    op, b = problem.op, problem.b_op
    w = b.space.weights
    form = -op.matrix.T @ (w[:, None] * b.matrix) + b.c0 * (w[:, None] * b.matrix)
    if b.mode == "strong":
        form -= np.diag(w)
    ref = eigh(0.5 * (form + form.T), np.diag(w), eigvals_only=True)[0]
    lam = check_b_condition(op, b).constants["min_eigenvalue"]
    assert lam == pytest.approx(ref, rel=1e-12, abs=1e-12)


def delay_weak_pair(n, d, n_past):
    op = make_delay_generator(n, d, n_past)
    sp = delay_space(n, d, n_past)
    ainv = np.linalg.inv(op.matrix)
    w = sp.weights
    # adjoint in the weighted inner product: M* = W^{-1} M^T W
    ainv_star = (ainv.T * w[None, :]) / w[:, None]
    b = BOperatorSpec(ainv_star @ ainv, c0=0.0, mode="weak", space=sp)
    return op, sp, b


def test_delay_weak_condition():
    op, _, b = delay_weak_pair(1, 1.0, 10)
    rep = check_b_condition(op, b)
    assert rep.verdict == "pass"
    assert rep.constants["min_eigenvalue"] >= -1e-12


def test_delay_b_norm_is_inverse_image_norm():
    op, sp, b = delay_weak_pair(1, 1.0, 12)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.standard_normal(op.dim)
        y = np.linalg.solve(op.matrix, x)  # independent route
        assert b_norm(b, x) == pytest.approx(h_norm(sp, y), abs=1e-10)


def test_delay_present_channel_bounded_by_weak_norm():
    # |x_0| <= ||x||_B holds exactly for this pair
    op, sp, b = delay_weak_pair(1, 1.0, 12)
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((1000, op.dim))
    assert np.all(np.abs(xs[:, 0]) <= b_norm(b, xs) * (1 + 1e-10))


# ---------------------------------------------------------------------------
# positivity


def test_heat_exponential_entrywise_nonnegative():
    op = make_dirichlet_laplacian(12, 1.0, 0.3)
    for dt in (1e-3, 1e-2, 1e-1):
        assert semigroup_matrix(op, dt).min() >= 0.0


def test_positivity_check_passes_for_heat():
    op = make_dirichlet_laplacian(12, 1.0, 0.3)
    rep = check_positivity_preserving(op, [1e-3, 1e-2, 1e-1], n_samples=50, seed=1)
    assert rep.verdict == "pass"


@pytest.mark.parametrize("steps", [list, lambda dts: (dt for dt in dts)],
                         ids=["list", "generator"])
def test_positivity_check_counts_the_samples_of_every_step(steps):
    op = make_dirichlet_laplacian(8, 1.0, 0.3)
    rep = check_positivity_preserving(op, steps([1e-3, 1e-2]), n_samples=10)
    assert rep.samples_used == 20


def test_positivity_check_fails_for_negative_offdiagonal():
    m = np.array([[-1.0, -0.9], [0.0, -1.0]])
    op = DiscreteOperator(m, kind="custom")
    rep = check_positivity_preserving(op, [0.1], n_samples=50, seed=1)
    assert rep.verdict == "fail"
    assert rep.witness["dt"] == 0.1
    # the sign structure is certified by the dense exponential itself
    assert expm(0.1 * m).min() < 0


def test_positivity_check_rejects_no_steps():
    # with no step nothing is audited, and a pass would certify an operator
    # that fails at dt = 0.1
    op = DiscreteOperator(np.array([[-1.0, -1.0], [0.0, -1.0]]), kind="custom")
    assert check_positivity_preserving(op, [0.1]).verdict == "fail"
    with pytest.raises(ValueError, match="at least one step"):
        check_positivity_preserving(op, [])


def test_delay_semigroup_positivity():
    op = make_delay_generator(1, 1.0, 10)
    rep = check_positivity_preserving(op, [1e-2, 1e-1, 0.5], n_samples=50, seed=3)
    assert rep.verdict == "pass"
