"""Problem builders and the Riccati layer.

Closed-form oracles live at the top; numbers derived from them are frozen
into the assertions below.
"""

import dataclasses

import numpy as np
import pytest

from hjblab.hilbert import b_norm, check_b_condition, h_norm
from hjblab.models import (
    ControlSpec,
    CostStructure,
    ReactionSpec,
    RiccatiBlowupError,
    RiccatiOracle,
    build_lq_benchmark,
    build_reaction_diffusion,
    build_sdde_lift,
    riccati_solve,
)
from hjblab.seeds import stream


# --- oracles ---------------------------------------------------------------


def riccati_tanh(oracle, t):
    """Closed form for the scalar Riccati coefficient when q_state > 0.

    With beta = alpha^2/r and omega = sqrt(a^2 + beta q), the backward flow
    from P(T) = q_T is P(t) = (a + omega * tanh(atanh(psi_T) + omega (T-t))) / beta
    where psi_T = (beta q_T - a) / omega. Requires |psi_T| < 1.
    """
    a, al, r, q = oracle.a_lin, oracle.alpha, oracle.r_control, oracle.q_state
    beta = al * al / r
    omega = np.sqrt(a * a + beta * q)
    psi_t = (beta * oracle.q_terminal - a) / omega
    assert abs(psi_t) < 1, "tanh branch requires the stable regime"
    return (a + omega * np.tanh(np.arctanh(psi_t) + omega * (oracle.horizon - t))) / beta


def riccati_offset_quadrature(oracle, t, n=200_001):
    """sigma0^2 * integral_t^T P(s) ds by dense trapezoid on the closed form."""
    s = np.linspace(t, oracle.horizon, n)
    return oracle.sigma0**2 * np.trapezoid(riccati_tanh(oracle, s), s)


# --- linear-quadratic builder ----------------------------------------------


def test_lq_builder_shapes_and_cost_consistency():
    problem, oracle = build_lq_benchmark()
    assert problem.dim == 1
    assert problem.noise_dim == 1
    x = np.array([[1.5], [-2.0]])
    a = np.array([[0.3], [0.0]])
    np.testing.assert_allclose(
        problem.running_cost(x, a),
        problem.cost_structure.l1(x) + problem.cost_structure.l2(a),
        rtol=0,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        problem.drift(x, a), oracle.a_lin * x + oracle.alpha * a, atol=1e-15
    )


def test_lq_drift_is_affine_along_segments():
    problem, _ = build_lq_benchmark()
    rng = stream(7, "affine", 0)
    for _ in range(50):
        x0, x1 = rng.normal(size=(2, 1))
        a0, a1 = rng.normal(size=(2, 1))
        lam = rng.uniform()
        mid = problem.drift(
            (1 - lam) * x0 + lam * x1, (1 - lam) * a0 + lam * a1
        )
        chord = (1 - lam) * problem.drift(x0, a0) + lam * problem.drift(x1, a1)
        np.testing.assert_allclose(mid, chord, atol=1e-12)


def test_lq_running_cost_jointly_convex_on_samples():
    problem, _ = build_lq_benchmark()
    rng = stream(7, "convex", 0)
    for _ in range(100):
        x0, x1 = rng.normal(size=(2, 1)) * 3
        a0, a1 = rng.normal(size=(2, 1)) * 3
        lam = rng.uniform()
        mid = problem.running_cost(
            ((1 - lam) * x0 + lam * x1)[None, :], ((1 - lam) * a0 + lam * a1)[None, :]
        )[0]
        chord = (1 - lam) * problem.running_cost(x0[None, :], a0[None, :])[0] + (
            lam
        ) * problem.running_cost(x1[None, :], a1[None, :])[0]
        assert mid <= chord + 1e-12


# --- riccati sweep ----------------------------------------------------------


def test_riccati_matches_tanh_closed_form():
    oracle = RiccatiOracle(
        a_lin=0.3, alpha=1.0, sigma0=0.4, q_state=1.0, r_control=1.0,
        q_terminal=0.5, horizon=1.0,
    )
    grid = np.linspace(0.0, 1.0, 2001)
    sol = riccati_solve(oracle, grid)
    for t in (0.0, 0.25, 0.5, 0.8, 1.0):
        assert abs(sol.p_at(t) - riccati_tanh(oracle, t)) < 1e-8
    assert abs(sol.offset_at(0.0) - riccati_offset_quadrature(oracle, 0.0)) < 1e-7
    assert sol.offset_at(1.0) == 0.0


def test_riccati_pure_terminal_case_half():
    # a=0, alpha=1, r=1, q=0, q_T=1, T=1: P(t) = 1/(1 + (T-t)), so P(0) = 1/2
    oracle = RiccatiOracle(
        a_lin=0.0, alpha=1.0, sigma0=0.0, q_state=0.0, r_control=1.0,
        q_terminal=1.0, horizon=1.0,
    )
    sol = riccati_solve(oracle, np.linspace(0, 1, 2001))
    assert abs(sol.p_at(0.0) - 0.5) < 1e-10
    assert np.all(sol.offset == 0.0)


def test_riccati_gain_and_value_fields():
    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, oracle.horizon, 501))
    np.testing.assert_allclose(sol.gain, -(oracle.alpha / oracle.r_control) * sol.p)
    x = np.array([2.0])
    t = 0.3
    assert abs(sol.value(t, x) - (sol.p_at(t) * 4.0 + sol.offset_at(t))) < 1e-12
    np.testing.assert_allclose(sol.gradient(t, x), 2 * sol.p_at(t) * x)
    np.testing.assert_allclose(sol.feedback(t, x), sol.gain_at(t) * x)


def test_riccati_sigma_only_moves_the_offset():
    base = dict(a_lin=0.4, alpha=1.0, q_state=1.0, r_control=2.0,
                q_terminal=1.0, horizon=1.0)
    grid = np.linspace(0, 1, 801)
    lo = riccati_solve(RiccatiOracle(sigma0=0.2, **base), grid)
    hi = riccati_solve(RiccatiOracle(sigma0=0.6, **base), grid)
    np.testing.assert_array_equal(lo.p, hi.p)
    np.testing.assert_array_equal(lo.gain, hi.gain)
    # offset is linear in sigma0^2
    np.testing.assert_allclose(hi.offset, lo.offset * (0.6 / 0.2) ** 2, rtol=1e-12)


def test_riccati_blowup_raises():
    # alpha = 0 removes the stabilizing quadratic term; with a > 0 the sweep
    # grows like e^{2 a tau} and must hit the trust region on a long horizon
    oracle = RiccatiOracle(
        a_lin=1.0, alpha=0.0, sigma0=0.1, q_state=1.0, r_control=1.0,
        q_terminal=1.0, horizon=20.0,
    )
    with pytest.raises(RiccatiBlowupError):
        riccati_solve(oracle, np.linspace(0, 20, 2001))


def test_riccati_grid_validation():
    oracle = RiccatiOracle(
        a_lin=0.0, alpha=1.0, sigma0=0.0, q_state=1.0, r_control=1.0,
        q_terminal=1.0, horizon=1.0,
    )
    with pytest.raises(ValueError):
        riccati_solve(oracle, np.linspace(0, 0.9, 100))  # does not end at T
    with pytest.raises(ValueError):
        riccati_solve(oracle, np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        riccati_solve(oracle, np.array([1.0]))


def test_riccati_oracle_rejects_bad_weights():
    with pytest.raises(ValueError):
        RiccatiOracle(a_lin=0, alpha=1, sigma0=0, q_state=1, r_control=0.0,
                      q_terminal=1, horizon=1)
    with pytest.raises(ValueError):
        RiccatiOracle(a_lin=0, alpha=1, sigma0=0, q_state=-1, r_control=1,
                      q_terminal=1, horizon=1)


# --- separated cost structure ----------------------------------------------


@pytest.mark.parametrize("maker", [
    lambda: build_lq_benchmark()[0],
    lambda: build_reaction_diffusion(n_grid=8),
    lambda: build_sdde_lift(n_past=8),
])
def test_dl2_inverse_inverts_dl2(maker):
    problem = maker()
    q = problem.control_spec.dim
    rng = stream(11, "inv", 0)
    a = rng.normal(size=(40, q)) * 2
    cs = problem.cost_structure
    np.testing.assert_allclose(cs.dl2_inverse(cs.dl2(a)), a, atol=1e-8)


def test_cost_structure_rejects_bad_matrix():
    with pytest.raises(ValueError):
        CostStructure(
            l1=lambda x: x, l2=lambda a: a, dl2=lambda a: a,
            dl2_inverse=lambda v: v, control_matrix=np.ones(3),
        )


def test_control_matrix_shape_must_match_problem():
    problem = build_reaction_diffusion(n_grid=16)
    wide = dataclasses.replace(problem.cost_structure,
                               control_matrix=np.ones((16, 3)))
    with pytest.raises(ValueError, match=r"\(16, 3\).*\(16, 16\)"):
        dataclasses.replace(problem, cost_structure=wide)


def test_running_cost_is_derived_from_cost_structure():
    problem = build_reaction_diffusion(n_grid=8)
    derived = dataclasses.replace(problem, running_cost=None)
    x = stream(3, "derived", 0).normal(size=(5, 8))
    a = stream(3, "derived", 1).normal(size=(5, 8))
    cs = problem.cost_structure
    assert derived.running_cost(x, a).tobytes() == (cs.l1(x) + cs.l2(a)).tobytes()
    with pytest.raises(ValueError, match="running_cost or cost_structure"):
        dataclasses.replace(problem, running_cost=None, cost_structure=None)


def test_control_spec_validation():
    with pytest.raises(ValueError):
        ControlSpec(dim=1, p_integrability=2.0)
    with pytest.raises(ValueError):
        ControlSpec(dim=2, box=(np.array([0.0, 0.0]), np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        ControlSpec(dim=2, weights=np.array([1.0, -1.0]))
    spec = ControlSpec(dim=2, box=(-1.0, 1.0))
    assert spec.box[0].shape == (2,)


# --- reaction-diffusion builder ----------------------------------------------


def test_rd_reject_bare_callable_reaction():
    with pytest.raises(TypeError):
        build_reaction_diffusion(reaction=lambda r: r)


def test_rd_reject_wrong_slope_bound():
    bad = ReactionSpec(fn=lambda r: 3.0 * r, lipschitz=1.0, name="bad")
    with pytest.raises(ValueError):
        build_reaction_diffusion(reaction=bad)


def test_rd_reaction_commutes_with_permutations():
    problem = build_reaction_diffusion(n_grid=12)
    rng = stream(3, "perm", 0)
    x = rng.normal(size=12)
    perm = rng.permutation(12)
    fn = problem.reaction.fn
    np.testing.assert_allclose(fn(x[perm]), np.asarray(fn(x))[perm], atol=1e-14)


def test_rd_default_reaction_is_concave_and_decreasing_slope_bounded():
    problem = build_reaction_diffusion(n_grid=8)
    fn = problem.reaction.fn
    rng = stream(3, "concave", 0)
    r0 = rng.normal(size=200) * 4
    r1 = rng.normal(size=200) * 4
    mid = fn(0.5 * (r0 + r1))
    assert np.all(mid >= 0.5 * (np.asarray(fn(r0)) + np.asarray(fn(r1))) - 1e-12)
    # softplus slope sits in (-1, 0)
    grid = np.linspace(-6, 6, 4001)
    slopes = np.diff(fn(grid)) / np.diff(grid)
    assert np.all(slopes <= 1e-12) and np.all(slopes >= -1.0 - 1e-9)


def test_rd_drift_and_costs_shapes():
    problem = build_reaction_diffusion(n_grid=10, noise_modes=2)
    x = stream(5, "x", 0).normal(size=(7, 10))
    a = stream(5, "a", 0).normal(size=(7, 10))
    assert problem.drift(x, a).shape == (7, 10)
    assert problem.running_cost(x, a).shape == (7,)
    assert problem.terminal_cost(x).shape == (7,)
    assert problem.noise.shape == (10, 2)
    # noise columns are H-normalized sine profiles scaled by the amplitude
    np.testing.assert_allclose(
        h_norm(problem.space, problem.noise[:, 0]), 0.05, rtol=1e-12
    )


def test_rd_strong_b_condition_holds():
    problem = build_reaction_diffusion(n_grid=10)
    report = check_b_condition(problem.op, problem.b_op)
    assert report.passed


def test_rd_noise_modes_validation():
    with pytest.raises(ValueError):
        build_reaction_diffusion(n_grid=4, noise_modes=9)
    assert build_reaction_diffusion(n_grid=4, noise_modes=0).noise_dim == 0


def test_rd_unknown_names_rejected():
    with pytest.raises(ValueError):
        build_reaction_diffusion(reaction="nope")
    with pytest.raises(ValueError):
        build_reaction_diffusion(l1="nope")


# --- delay lift builder -------------------------------------------------------


def test_sdde_rejects_kernel_with_nonzero_edge():
    with pytest.raises(ValueError):
        build_sdde_lift(kernel=lambda xi: np.exp(xi))  # e^{-d} != 0 at xi = -d


def test_sdde_present_channel_odes_correctly():
    # with beta_z = 0 the present channel is a scalar linear ODE; the +y
    # compensation in the drift must cancel the stencil's own -y term
    problem = build_sdde_lift(beta_y=-0.7, beta_z=0.0, sigma0=0.0, n_past=40)
    from hjblab.engine import simulate_ensemble
    from hjblab.controls import zero_signal

    x0 = np.zeros(problem.dim)
    x0[0] = 1.0
    run = simulate_ensemble(problem, 0.0, x0, zero_signal(1), 1, n_steps=400,
                            seed=1)
    assert abs(run.states[0, -1, 0] - np.exp(-0.7)) < 5e-3


def test_sdde_weak_norm_dominates_present_value():
    problem = build_sdde_lift(n_past=20)
    rng = stream(9, "states", 0)
    x = rng.normal(size=(1000, problem.dim)) * 3
    weak = b_norm(problem.b_op, x)
    assert np.all(np.abs(x[:, 0]) <= weak + 1e-10)


def test_sdde_weak_b_condition_holds():
    problem = build_sdde_lift(n_past=12)
    report = check_b_condition(problem.op, problem.b_op)
    assert report.passed
    assert problem.b_op.mode == "weak"


def test_sdde_memory_functional_bounded_by_weak_norm():
    # the kernel vanishes at -d, so the memory integral is controlled by the
    # weak norm; the constant is estimated on one sample cloud and must keep
    # working on a fresh one
    problem = build_sdde_lift(n_past=20)
    kq = problem.meta["kernel_quadrature"]

    def ratios(label, n):
        x = stream(13, label, 0).normal(size=(n, problem.dim)) * 2
        z = np.abs(np.sum(kq * x[:, 1:], axis=-1))
        weak = b_norm(problem.b_op, x)
        return z / np.maximum(weak, 1e-300)

    c_est = float(np.max(ratios("fit", 500)))
    fresh = ratios("check", 1000)
    assert np.all(fresh <= c_est * 1.05 + 1e-12)
    # the constant itself is modest: kernel integral never defeats the norm
    assert c_est < 2.0


def test_sdde_noise_hits_present_only():
    problem = build_sdde_lift(n_past=6)
    assert problem.noise.shape == (7, 1)
    assert problem.noise[0, 0] == 0.3
    assert np.all(problem.noise[1:] == 0.0)


def test_sdde_drift_lipschitz_declared_bound_holds_in_h_norm():
    problem = build_sdde_lift(n_past=16, beta_y=-0.5, beta_z=0.8, c_nl=0.3)
    lip = problem.drift_lipschitz
    rng = stream(21, "lip", 0)
    a = np.zeros((1, 1))
    worst = 0.0
    for _ in range(300):
        x = rng.normal(size=(1, problem.dim)) * 2
        y = rng.normal(size=(1, problem.dim)) * 2
        # compare the genuine drift difference, net of the +y compensation
        # term that belongs to the generator split
        dx = problem.drift(x, a) - problem.drift(y, a)
        dx[..., 0] -= x[0, 0] - y[0, 0]
        num = h_norm(problem.space, dx[0])
        den = h_norm(problem.space, (x - y)[0])
        worst = max(worst, num / den)
    assert worst <= lip + 1e-9


def test_problem_validation():
    problem, _ = build_lq_benchmark()
    with pytest.raises(ValueError):
        build_lq_benchmark(horizon=-1.0)
    assert problem.additive_noise
    assert problem.noise_at(np.zeros((2, 1))).shape == (1, 1)
