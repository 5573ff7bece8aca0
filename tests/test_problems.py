"""Problem builders and the Riccati layer.

Closed-form oracles live at the top; numbers derived from them are frozen
into the assertions below.
"""

import dataclasses

import numpy as np
import pytest

from hjblab.cli import _BUILDERS
from hjblab.hilbert import b_norm, check_b_condition, h_norm
from hjblab.models import (
    REACTIONS,
    SCALAR_COSTS,
    ControlSpec,
    CostStructure,
    ReactionSpec,
    RiccatiBlowupError,
    RiccatiOracle,
    build_lq_benchmark,
    build_reaction_diffusion,
    build_sdde_lift,
    default_delay_kernel,
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
    # the gradient of l2 in the control metric, by central differences:
    # exact for these quadratic l2 up to rounding
    h = 1e-4
    e = h * np.eye(q)
    w = problem.control_spec.weights
    dl2 = (cs.l2(a[:, None] + e) - cs.l2(a[:, None] - e)) / (2 * h) / w
    np.testing.assert_allclose(cs.dl2_inverse(dl2), a, atol=1e-8)


def test_cost_structure_rejects_bad_matrix():
    with pytest.raises(ValueError):
        CostStructure(
            l1=lambda x: x, l2=lambda a: a,
            dl2_inverse=lambda v: v, control_matrix=np.ones(3),
        )


def test_control_matrix_shape_must_match_problem():
    problem = build_reaction_diffusion(n_grid=16)
    wide = dataclasses.replace(problem.cost_structure,
                               control_matrix=np.ones((16, 3)))
    with pytest.raises(ValueError, match=r"\(16, 3\).*\(16, 16\)"):
        dataclasses.replace(problem, cost_structure=wide)


# a (replace fields, message) per invalid channel on the 21-dim delay lift
BAD_CHANNELS = {
    "empty": (lambda p: {"channel": slice(0, 0)}, "nonempty block"),
    "past_dim": (lambda p: {"channel": slice(20, 22)}, "nonempty block"),
    "negative": (lambda p: {"channel": slice(-1, 1)}, "nonempty block"),
    "stepped": (lambda p: {"channel": slice(0, 4, 2)}, "unit step"),
    "noise_off_channel": (
        lambda p: {"noise": np.where(np.arange(p.dim)[:, None] == 3, 0.1, p.noise)},
        "noise has a nonzero row"),
    "control_off_channel": (
        lambda p: {"cost_structure": dataclasses.replace(
            p.cost_structure,
            control_matrix=np.where(np.arange(p.dim)[:, None] == 2, 1.0,
                                    p.cost_structure.control_matrix))},
        "control_matrix has a nonzero row"),
    "callable_noise": (
        lambda p: {"noise": lambda x: np.zeros(x.shape + (1,))},
        "callable noise needs the full channel"),
}


@pytest.mark.parametrize("case", list(BAD_CHANNELS))
def test_problem_rejects_an_invalid_channel(case):
    problem = build_sdde_lift()
    fields, message = BAD_CHANNELS[case]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(problem, **fields(problem))


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_channel_covers_noise_and_control_rows_and_drift_is_its_width(kind):
    built = _BUILDERS[kind]()
    problem = built[0] if isinstance(built, tuple) else built
    block = problem.block
    off = np.ones(problem.dim, dtype=bool)
    off[block] = False
    assert not np.any(problem.noise[off])
    assert not np.any(problem.cost_structure.control_matrix[off])
    x = stream(4, "x", 0).normal(size=(5, problem.dim))
    a = stream(4, "a", 0).normal(size=(5, problem.control_spec.dim))
    assert problem.drift(x, a).shape == (5, block.stop - block.start)
    assert (kind == "sdde") == (problem.channel == slice(0, 1))


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


def old_softplus_dec(r):
    """The softplus reaction as one expression: the reference for its bits."""
    return -np.log1p(np.exp(-np.abs(r))) - np.maximum(r, 0.0)


def test_softplus_reaction_has_the_bits_of_its_expression():
    # the reaction works in one buffer; negation is exact, so it must keep
    # the bits of the expression, at the edges of exp and log1p too
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0])
    rng = stream(8, "softplus", 0)
    r = np.concatenate([edges, rng.normal(0.0, 3.0, 50_000),
                        rng.uniform(-750.0, 750.0, 50_000)])
    assert REACTIONS["softplus_dec"].fn(r).tobytes() == old_softplus_dec(r).tobytes()


@pytest.mark.parametrize("reaction", sorted(REACTIONS))
def test_rd_drift_leaves_the_state_alone(reaction):
    # the drift subtracts the control from the reaction's result in place,
    # which must be a new array and not the state itself
    problem = build_reaction_diffusion(reaction=reaction)
    rng = stream(6, "drift", 0)
    x = rng.normal(0.0, 2.0, (997, problem.dim))
    x[:6, 0] = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0]
    a = rng.normal(0.0, 2.0, (997, problem.dim))
    before = x.copy()
    fn = old_softplus_dec if reaction == "softplus_dec" else problem.reaction.fn
    want = fn(before) - a
    assert problem.drift(x, a).tobytes() == want.tobytes()
    assert x.tobytes() == before.tobytes()


def _rounding_only(got, terms, coeff=1.0):
    # einsum sums in another order than np.sum: allow rounding relative to
    # the sum of the terms' magnitudes, which bounds a reordering's error
    want = coeff * np.sum(terms, axis=-1)
    scale = abs(coeff) * np.sum(np.abs(terms), axis=-1)
    return bool(np.all(np.abs(got - want) <= 1e-13 * scale))


@pytest.mark.parametrize("integrand", sorted(SCALAR_COSTS))
def test_rd_cost_contractions_round_like_the_weighted_sums(integrand):
    problem = build_reaction_diffusion(l1=integrand, g=integrand, nu=0.7)
    w, f = problem.space.weights, SCALAR_COSTS[integrand]
    rng = stream(7, "contract", 0)
    x = rng.normal(0.0, 2.0, (997, problem.dim))
    a = rng.normal(0.0, 3.0, (997, problem.dim))
    cost = problem.cost_structure
    assert _rounding_only(cost.l1(x), w * f(x))
    assert _rounding_only(problem.terminal_cost(x), w * f(x))
    assert _rounding_only(cost.l2(a), w * a * a, coeff=0.7)


def test_sdde_memory_contraction_rounds_like_the_weighted_sum():
    # with beta_y = c_nl = 0, a zero present value and a zero control the
    # drift is the memory term beta_z * z exactly
    problem = build_sdde_lift(beta_y=0.0, beta_z=1.0, c_nl=0.0)
    h = 1.0 / 20
    kq = h * default_delay_kernel(1.0)(-1.0 + h * np.arange(20))
    x = stream(7, "memory", 0).normal(0.0, 2.0, (997, problem.dim))
    x[:, 0] = 0.0
    z = problem.drift(x, np.zeros((997, 1)))[:, 0]
    assert _rounding_only(z, kq * x[:, 1:])


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
    h = 1.0 / 20  # default delay 1 over n_past nodes at -1, ..., -h
    kq = h * default_delay_kernel(1.0)(-1.0 + h * np.arange(20))

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

    def full_drift(x):
        # drift returns the channel; embed it in the full space, zero off it
        out = np.zeros_like(x)
        out[..., problem.block] = problem.drift(x, a)
        return out

    worst = 0.0
    for _ in range(300):
        x = rng.normal(size=(1, problem.dim)) * 2
        y = rng.normal(size=(1, problem.dim)) * 2
        # compare the genuine drift difference, net of the +y compensation
        # term that belongs to the generator split
        dx = full_drift(x) - full_drift(y)
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
