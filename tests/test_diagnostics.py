"""Regularity scans, coupled-trajectory audits, order preservation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab import diagnostics as dg
from hjblab.controls import ConstantSignal, zero_signal
from hjblab.hilbert import h_norm, interval_space, make_custom_operator, make_zero_operator
from hjblab.models import (
    ControlProblem,
    ControlSpec,
    build_lq_benchmark,
    build_reaction_diffusion,
    build_sdde_lift,
    riccati_solve,
)
from hjblab.seeds import stream
from hjblab.synthesis import make_riccati_policy, zero_policy
from hjblab.value import make_exact_evaluator, make_policy_evaluator, gradient_fd


SP3 = interval_space(3, 1.0)


def quad_evaluator(space, coeffs):
    """v(x) = sum_i w_i c_i x_i^2, whose defect ratio in the weighted norm
    is exactly max_i c_i."""
    c = np.asarray(coeffs, dtype=float)
    return make_exact_evaluator(
        lambda t, x: float(np.sum(space.weights * c * x * x)))


def quad_gradient(space, coeffs):
    c = np.asarray(coeffs, dtype=float)

    def gev(t, x, seed):
        return 2.0 * c * np.asarray(x, float), np.zeros_like(c)

    return gev


def lq_policy_evaluator(n_paths=1200, n_steps=100):
    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    pol = make_riccati_policy(problem, sol)
    return problem, sol, make_policy_evaluator(problem, pol,
                                               n_paths=n_paths,
                                               n_steps=n_steps)


# --- lipschitz ratios -------------------------------------------------------


def test_lipschitz_constant_field_has_zero_ratio():
    ev = make_exact_evaluator(lambda t, x: 7.5)
    pairs = [(0.0, np.ones(3), -np.ones(3)), (0.0, np.zeros(3), np.ones(3))]
    rep = dg.lipschitz_estimate(ev, pairs, SP3, seed=0)
    assert rep.passed
    assert rep.constants["c_hat"] == 0.0


def test_lipschitz_linear_field_attains_norm_bound():
    c = np.array([1.2, -0.7, 0.4])
    ev = make_exact_evaluator(lambda t, x: float(np.sum(SP3.weights * c * x)))
    bound = float(h_norm(SP3, c))
    rng = stream(4, "pairs", 0)
    pairs = [(0.0, rng.normal(size=3), rng.normal(size=3)) for _ in range(12)]
    pairs.append((0.0, np.zeros(3), c))  # aligned pair attains the bound
    rep = dg.lipschitz_estimate(ev, pairs, SP3, seed=0, declared_bound=bound)
    assert rep.passed
    assert abs(rep.constants["c_hat"] - bound) < 1e-12


def test_lipschitz_lq_within_gradient_bound():
    problem, sol, ev = lq_policy_evaluator(n_paths=1500, n_steps=120)
    pairs = [(0.0, np.array([1.5]), np.array([-0.5])),
             (0.0, np.array([0.3]), np.array([2.0]))]
    # quadratic value: |V(x)-V(y)| <= P (|x|+|y|) |x-y| on these pairs
    bound = float(sol.p_at(0.0)) * 4.0
    rep = dg.lipschitz_estimate(ev, pairs, problem.space, seed=3,
                                declared_bound=bound)
    assert rep.passed
    assert 0.0 < rep.constants["c_hat"] < bound


def test_lipschitz_fails_tiny_declared_bound():
    problem, sol, ev = lq_policy_evaluator(n_paths=600, n_steps=60)
    pairs = [(0.0, np.array([1.5]), np.array([-0.5]))]
    rep = dg.lipschitz_estimate(ev, pairs, problem.space, seed=3,
                                declared_bound=1e-4)
    assert not rep.passed


def test_lipschitz_validation_and_degenerate_pairs():
    ev = make_exact_evaluator(lambda t, x: float(x[0]))
    with pytest.raises(ValueError):
        dg.lipschitz_estimate(ev, [], SP3)
    with pytest.raises(ValueError):
        dg.lipschitz_estimate(ev, [(0.0, np.ones(3), np.zeros(3)),
                                   (0.5, np.ones(3), np.zeros(3))], SP3)
    rep = dg.lipschitz_estimate(ev, [(0.0, np.ones(3), np.ones(3)),
                                     (0.0, np.ones(3), np.zeros(3))], SP3)
    assert rep.constants["skipped_pairs"] == 1
    assert rep.constants["n_pairs"] == 1


def test_lipschitz_delay_model_reported_in_both_norms():
    sdde = build_sdde_lift(n_past=12, horizon=0.6)
    ev = make_policy_evaluator(sdde, zero_policy(sdde), n_paths=400,
                               n_steps=60)
    rng = stream(3, "dpairs", 0)
    pairs = [(0.0, rng.normal(size=13) * 0.5, rng.normal(size=13) * 0.5)
             for _ in range(4)]
    rep_h = dg.lipschitz_estimate(ev, pairs, sdde.space, norm_tag="H", seed=2)
    rep_w = dg.lipschitz_estimate(ev, pairs, sdde.space, norm_tag="minus1",
                                  b_op=sdde.b_op, seed=2)
    assert rep_h.passed and rep_w.passed
    assert rep_h.constants["c_hat"] > 0
    assert rep_w.constants["c_hat"] > 0
    # same value differences, different denominators
    assert rep_h.constants["c_hat"] != rep_w.constants["c_hat"]


# --- convexity defects ------------------------------------------------------


def test_defect_quadratic_identity():
    ev = quad_evaluator(SP3, np.ones(3))
    x, xp = np.array([1.0, -0.5, 2.0]), np.array([0.0, 1.5, -1.0])
    lams = (0.3, 0.5, 0.9)
    defects = dg._defect_samples(ev, 0.0, x, xp, lams, seed=0)
    for lam, d in zip(lams, defects):
        q = lam * (1 - lam) * float(h_norm(SP3, x - xp)) ** 2
        assert abs(float(d.mean()) - q) < 1e-12


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 2**20))
def test_defect_sign_symmetry(lam, seed):
    rng = stream(seed, "defect_pts", 0)
    x, xp = rng.normal(size=3), rng.normal(size=3)
    ev_pos = quad_evaluator(SP3, np.array([1.0, -2.0, 0.5]))
    ev_neg = quad_evaluator(SP3, np.array([-1.0, 2.0, -0.5]))
    d_pos = dg._defect_samples(ev_pos, 0.0, x, xp, [lam], seed)
    d_neg = dg._defect_samples(ev_neg, 0.0, x, xp, [lam], seed)
    np.testing.assert_array_equal(d_pos, -d_neg)


# --- semiconcavity -----------------------------------------------------------


def test_semiconcavity_quadratic_constant_is_one():
    rep = dg.semiconcavity_scan(quad_evaluator(SP3, np.ones(3)), 0.0, SP3,
                                dg.ScanConfig(n_pairs=6), seed=1)
    assert rep.passed
    assert abs(rep.constants["c_hat"] - 1.0) < 1e-9
    assert rep.constants["rel_change"] < 1e-9


def test_semiconcavity_lq_tracks_riccati_coefficient():
    problem, sol, ev = lq_policy_evaluator()
    rep = dg.semiconcavity_scan(ev, 0.0, problem.space,
                                dg.ScanConfig(n_pairs=8, radius=1.2), seed=9)
    assert rep.passed
    target = float(sol.p_at(0.0))
    assert abs(rep.constants["c_hat"] - target) < 0.05 * target


def test_semiconcavity_inconclusive_when_noise_swamps():
    # sample sets at the three points are permutations of one pool, so every
    # defect has mean exactly zero but positive spread
    pool = stream(0, "pool", 0).normal(size=300)

    def noisy(t, xs, seed):
        return np.stack([
            pool[stream(seed, f"p{float(np.sum(x)):.9f}", 0).permutation(300)]
            for x in xs])

    rep = dg.semiconcavity_scan(noisy, 0.0, SP3, dg.ScanConfig(n_pairs=4),
                                seed=2)
    assert rep.verdict == "inconclusive"


def test_semiconcavity_fails_on_unstable_constant():
    # exponential field: the max ratio rides the largest sampled coordinate,
    # which moves a lot between the half and full clouds at this seed
    ev = make_exact_evaluator(lambda t, x: float(np.exp(2.5 * x[0])))
    rep = dg.semiconcavity_scan(ev, 0.0, SP3, dg.ScanConfig(n_pairs=10),
                                seed=0)
    assert not rep.passed
    assert rep.constants["rel_change"] > 0.2


def test_scan_config_validation():
    with pytest.raises(ValueError):
        dg.ScanConfig(n_pairs=1)


# --- semiconvexity and the nu threshold -------------------------------------


def test_semiconvexity_convex_field_passes():
    rep = dg.semiconvexity_scan(quad_evaluator(SP3, np.ones(3)), 0.0, SP3,
                                dg.ScanConfig(n_pairs=6), seed=1)
    assert rep.passed
    assert abs(rep.constants["c_hat_flipped"] + 1.0) < 1e-9


def test_semiconvexity_concave_terminal_fails_with_witness():
    # value of a zero-dynamics problem with concave terminal cost: the scan
    # must reject convexity and hand back the offending triple
    rep = dg.semiconvexity_scan(quad_evaluator(SP3, -np.ones(3)), 0.0, SP3,
                                dg.ScanConfig(n_pairs=6), seed=1)
    assert not rep.passed
    assert rep.witness is not None
    assert 0.0 < rep.witness["lambda"] < 1.0


def test_semiconvexity_saddle_passes_with_constant():
    saddle = quad_evaluator(SP3, np.array([1.0, -1.0, 0.0]))
    rep = dg.semiconvexity_scan(saddle, 0.0, SP3, dg.ScanConfig(n_pairs=6),
                                seed=1, c_bound=1.0)
    assert rep.passed
    # random pairs rarely align with the concave axis, so the measured
    # constant sits below the true coefficient but stays positive
    assert 0.5 < rep.constants["c_hat_flipped"] <= 1.0 + 1e-9


def test_two_sided_constants_bound_gradient_modulus():
    # saddle field: semiconcavity 1, semiconvexity 1, gradient ratio 2;
    # the two-sided rule 2 max(c_sc,0) + 2 max(c_sv,0) must cover it
    coeffs = np.array([1.0, -1.0, 0.0])
    saddle = quad_evaluator(SP3, coeffs)
    sc = dg.semiconcavity_scan(saddle, 0.0, SP3, dg.ScanConfig(n_pairs=6),
                               seed=1)
    sv = dg.semiconvexity_scan(saddle, 0.0, SP3, dg.ScanConfig(n_pairs=6),
                               seed=1, c_bound=1.0)
    pairs = [(0.0, np.array([1.0, 0.0, 0.0]), np.zeros(3)),
             (0.0, np.array([0.0, 1.0, 0.0]), np.zeros(3))]
    rep = dg.c11_modulus(saddle, quad_gradient(SP3, coeffs), pairs, SP3,
                         seed=1,
                         c_semiconcave=sc.constants["c_hat"],
                         c_semiconvex=sv.constants["c_hat_flipped"])
    assert rep.passed
    assert abs(rep.constants["c_hat"] - 2.0) < 1e-9
    assert rep.constants["two_sided_bound"] >= rep.constants["c_hat"]


# --- gradient modulus --------------------------------------------------------


def test_c11_exact_quadratic_modulus():
    coeffs = np.array([1.5, 0.25, 0.8])
    ev = quad_evaluator(SP3, coeffs)
    rng = stream(8, "c11", 0)
    pairs = [(0.0, rng.normal(size=3), rng.normal(size=3)) for _ in range(10)]
    pairs.append((0.0, np.array([1.0, 0.0, 0.0]), np.zeros(3)))
    rep = dg.c11_modulus(ev, quad_gradient(SP3, coeffs), pairs, SP3, seed=0)
    assert rep.passed
    assert abs(rep.constants["c_hat"] - 3.0) < 1e-9  # 2 * max coeff


def test_c11_derives_gradients_from_values_when_missing():
    coeffs = np.array([1.5, 0.25, 0.8])
    ev = quad_evaluator(SP3, coeffs)
    pairs = [(0.0, np.array([1.0, 0.0, 0.0]), np.zeros(3))]
    rep = dg.c11_modulus(ev, None, pairs, SP3, seed=0)
    assert abs(rep.constants["c_hat"] - 3.0) < 1e-6


def test_c11_lq_tracks_twice_riccati():
    problem, sol, ev = lq_policy_evaluator(n_paths=1500, n_steps=120)

    def gev(t, x, seed):
        return gradient_fd(ev, t, x, seed=seed)

    rng = stream(7, "c11lq", 0)
    pairs = [(0.0, rng.normal(size=1) * 1.5, rng.normal(size=1) * 1.5)
             for _ in range(5)]
    rep = dg.c11_modulus(ev, gev, pairs, problem.space, seed=5)
    target = 2.0 * float(sol.p_at(0.0))
    assert abs(rep.constants["c_hat"] - target) < 0.1 * target


def test_c11_fails_undersized_bound_and_skips_degenerates():
    coeffs = np.array([1.0, 1.0, 1.0])
    ev = quad_evaluator(SP3, coeffs)
    pairs = [(0.0, np.ones(3), np.ones(3)),
             (0.0, np.ones(3), np.zeros(3))]
    rep = dg.c11_modulus(ev, quad_gradient(SP3, coeffs), pairs, SP3,
                         c_semiconcave=0.01, c_semiconvex=0.0)
    assert not rep.passed
    assert rep.constants["skipped_pairs"] == 1


# --- trajectory stability ----------------------------------------------------


def test_stability_state_variant_slope_one():
    rd = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.4)
    grid = np.arange(1, 9) / 9.0
    x0 = 0.3 * np.sin(np.pi * grid)
    x1 = x0 + 0.5 * np.cos(np.pi * grid)
    rep = dg.trajectory_stability_check(rd, 0.0, [(x0, x1)], n_paths=150,
                                        n_steps=60, seed=2)
    assert rep.passed
    assert abs(rep.constants["slopes"][0] - 1.0) < 0.1


def test_stability_control_variant_slope_one():
    rd = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.4)
    x0 = 0.3 * np.sin(np.pi * np.arange(1, 9) / 9.0)
    pair = (x0, zero_signal(8), ConstantSignal(0.8 * np.ones(8)))
    rep = dg.trajectory_stability_check(rd, 0.0, [pair], variant="control",
                                        n_paths=150, n_steps=60, seed=2)
    assert rep.passed
    assert abs(rep.constants["slopes"][0] - 1.0) < 0.1


def test_stability_weak_norm_on_delay_model():
    sdde = build_sdde_lift(n_past=12, horizon=0.6)
    rng = stream(5, "sdde_pairs", 0)
    prs = [(rng.normal(size=13) * 0.4, rng.normal(size=13) * 0.4)
           for _ in range(2)]
    rep = dg.trajectory_stability_check(sdde, 0.0, prs, n_paths=120,
                                        n_steps=60, seed=3,
                                        norm_tag="minus1")
    assert rep.passed
    assert all(abs(s - 1.0) < 0.1 for s in rep.constants["slopes"])


def test_stability_identical_pair_is_exact_zero():
    rd = build_reaction_diffusion(n_grid=6, noise_modes=1, horizon=0.3)
    x0 = 0.2 * np.ones(6)
    rep = dg.trajectory_stability_check(rd, 0.0, [(x0, x0.copy())],
                                        n_paths=40, n_steps=30, seed=1)
    assert rep.verdict == "inconclusive"
    assert rep.constants["exact_zero_pairs"] == 1

    mixed = dg.trajectory_stability_check(
        rd, 0.0, [(x0, x0.copy()), (x0, x0 + 0.3)], n_paths=60, n_steps=30,
        seed=1)
    assert mixed.passed
    assert mixed.constants["exact_zero_pairs"] == 1


def test_stability_catches_cubic_control_response():
    sp1 = interval_space(1, 1.0)
    cubic = ControlProblem(
        name="cubic_ctl", space=sp1, op=make_zero_operator(1), b_op=None,
        drift=lambda x, a: -x + a**3, noise=np.array([[0.1]]), noise_dim=1,
        running_cost=lambda x, a: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_spec=ControlSpec(dim=1), horizon=1.0,
    )
    pair = (np.array([0.5]), zero_signal(1), ConstantSignal(np.array([1.0])))
    rep = dg.trajectory_stability_check(cubic, 0.0, [pair], variant="control",
                                        n_paths=80, n_steps=50, seed=1)
    assert not rep.passed
    assert abs(rep.witness["slope"] - 3.0) < 0.01


def test_stability_validation():
    rd = build_reaction_diffusion(n_grid=4, noise_modes=1)
    with pytest.raises(ValueError):
        dg.trajectory_stability_check(rd, 0.0, [], variant="drift")


# --- midpoint gap ------------------------------------------------------------


def test_midpoint_quadratic_scaling_on_reaction_model():
    rd = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.4)
    grid = np.arange(1, 9) / 9.0
    x0 = 0.3 * np.sin(np.pi * grid)
    u = np.cos(np.pi * grid)
    z = zero_signal(8)
    probes = [dg.MidpointProbe(x0 - r * u, x0 + r * u, 0.5, z, z)
              for r in (0.8, 0.4, 0.2, 0.1)]
    probes += [dg.MidpointProbe(x0, x0 + 0.5 * u, lam, z, z)
               for lam in (0.0, 1.0, 0.3)]
    rep = dg.midpoint_trajectory_check(rd, 0.0, probes, n_paths=150,
                                       n_steps=60, seed=4)
    assert rep.passed
    assert rep.constants["k_hat"] > 0
    assert len(rep.constants["group_slopes"]) == 1
    assert abs(rep.constants["group_slopes"][0] - 2.0) < 0.2


def test_midpoint_affine_dynamics_hit_rounding_floor():
    lq, _ = build_lq_benchmark()
    z = zero_signal(1)
    probes = [dg.MidpointProbe(np.array([-1.0]), np.array([2.0]), lam, z, z)
              for lam in (0.5, 0.25)]
    rep = dg.midpoint_trajectory_check(lq, 0.0, probes, n_paths=100,
                                       n_steps=50, seed=4)
    assert rep.passed
    assert rep.constants["k_hat"] < 1e-8
    assert "floor" in rep.notes


def test_midpoint_weak_norm_on_delay_model():
    sdde = build_sdde_lift(n_past=12, horizon=0.6, c_nl=0.6)
    rng = stream(11, "mid_sdde", 0)
    x0 = rng.normal(size=13) * 0.4
    u = rng.normal(size=13)
    z = zero_signal(1)
    probes = [dg.MidpointProbe(x0 - r * u, x0 + r * u, 0.5, z, z)
              for r in (0.4, 0.2, 0.1, 0.05)]
    rep = dg.midpoint_trajectory_check(sdde, 0.0, probes, n_paths=150,
                                       n_steps=60, seed=6, norm_tag="minus1")
    assert rep.passed
    assert abs(rep.constants["group_slopes"][0] - 2.0) < 0.2


def test_midpoint_probe_validation_and_fields():
    z = zero_signal(2)
    with pytest.raises(ValueError):
        dg.MidpointProbe(np.zeros(2), np.ones(2), 1.5, z, z)
    pr = dg.MidpointProbe(np.zeros(2), np.ones(2), 0.25, z, z)
    np.testing.assert_array_equal(pr.x_mid, 0.25 * np.ones(2))
    np.testing.assert_array_equal(pr.a_mid.value, np.zeros(2))


# --- order preservation ------------------------------------------------------


def test_comparison_heat_equation_preserves_bump_order():
    heat = build_reaction_diffusion(n_grid=10, reaction="zero",
                                    noise_modes=2, horizon=0.3)
    bump = np.zeros(10)
    bump[4:7] = 0.2
    rep = dg.comparison_check(heat, bump, np.zeros(10), None, None,
                              n_paths=200, n_steps=80, seed=5)
    assert rep.passed
    assert rep.constants["min_margin"] >= -rep.constants["tol"]


def test_comparison_reflexive_pass_is_exact():
    rd = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.3)
    x = 0.1 * np.ones(8)
    f = 0.2 * np.ones(8)
    rep = dg.comparison_check(rd, x, x.copy(), f, f.copy(), n_paths=100,
                              n_steps=50, seed=7)
    assert rep.passed
    assert rep.constants["min_margin"] == 0.0


def test_comparison_monotone_in_forcing_gap():
    rd = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.3)
    x2 = np.zeros(8)
    x1 = x2 + 0.1
    base = dg.comparison_check(rd, x1, x2, None, None, n_paths=150,
                               n_steps=60, seed=9)
    pushed = dg.comparison_check(rd, x1, x2, 0.3 * np.ones(8), None,
                                 n_paths=150, n_steps=60, seed=9)
    assert base.passed and pushed.passed
    assert pushed.constants["min_margin"] >= base.constants["min_margin"]


def test_comparison_replays_bitwise():
    rd = build_reaction_diffusion(n_grid=6, noise_modes=1, horizon=0.3)
    args = (rd, 0.1 * np.ones(6), np.zeros(6), 0.4 * np.ones(6), None)
    a = dg.comparison_check(*args, n_paths=80, n_steps=40, seed=3)
    b = dg.comparison_check(*args, n_paths=80, n_steps=40, seed=3)
    assert a.verdict == b.verdict
    assert a.constants == b.constants
    assert a.witness == b.witness


def order_breaker_problem():
    sp = interval_space(2, 1.0)
    A = np.array([[0.0, -3.0], [-3.0, 0.0]])
    return ControlProblem(
        name="order_breaker", space=sp, op=make_custom_operator(A),
        b_op=None, drift=lambda x, a: np.zeros_like(x),
        noise=0.05 * np.eye(2), noise_dim=2,
        running_cost=lambda x, a: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_spec=ControlSpec(dim=2), horizon=0.3,
    )


def test_comparison_non_metzler_operator_breaks_order():
    prob = order_breaker_problem()
    x1 = np.array([0.0, 0.4])
    rep = dg.comparison_check(prob, x1, np.zeros(2), None, None, n_paths=50,
                              n_steps=40, seed=5, strict=False)
    assert not rep.passed
    assert rep.constants["min_margin"] < -0.1
    assert rep.witness["component"] == 0  # coupling pushes the other entry down
    assert "not enforced" in rep.notes


def test_comparison_strict_mode_rejects_bad_hypotheses():
    prob = order_breaker_problem()
    with pytest.raises(ValueError, match="order preserving"):
        dg.comparison_check(prob, np.array([0.0, 0.4]), np.zeros(2), None,
                            None, strict=True)
    heat = build_reaction_diffusion(n_grid=6, reaction="zero", noise_modes=1)
    with pytest.raises(ValueError, match="not ordered"):
        dg.comparison_check(heat, np.zeros(6), 0.1 * np.ones(6), None, None)
    with pytest.raises(ValueError, match="not ordered"):
        dg.comparison_check(heat, 0.1 * np.ones(6), np.zeros(6),
                            None, 0.5 * np.ones(6))
    # a control channel of -2I: the forcing would not enter as a = -f
    cost = dataclasses.replace(heat.cost_structure,
                               control_matrix=-2.0 * np.eye(6))
    doubled = dataclasses.replace(
        heat, cost_structure=cost, drift=lambda x, a: heat.reaction.fn(x) - 2.0 * a)
    with pytest.raises(ValueError, match="control channel of -I"):
        dg.comparison_check(doubled, 0.1 * np.ones(6), np.zeros(6), None, None)
    # no path would leave no margin to test, in either mode
    with pytest.raises(ValueError, match="at least one path"):
        dg.comparison_check(heat, 0.1 * np.ones(6), np.zeros(6), None, None,
                            n_paths=0, strict=False)


def test_comparison_step_beyond_slope_bound_breaks_order():
    # dt * L = 0.05 * 60 = 3: x + dt r(x) decreases wherever r' < -1/dt, so
    # the larger start overshoots below the smaller one in a single step
    hot = build_reaction_diffusion(n_grid=8, reaction_gain=60)
    x1, x2 = np.zeros(8), np.zeros(8)
    x1[2:5] = 0.2
    bad = dg.comparison_check(hot, x1, x2, None, None, n_paths=200,
                              n_steps=10, seed=3, strict=False)
    assert not bad.passed
    assert bad.constants["dt_lipschitz"] == pytest.approx(3.0)
    assert bad.constants["min_margin"] < -0.05
    good = dg.comparison_check(hot, x1, x2, None, None, n_paths=200,
                               n_steps=40, seed=3)
    assert good.passed
    assert good.constants["dt_lipschitz"] == pytest.approx(0.75)
    with pytest.raises(ValueError, match="dt \\* L = 3 exceeds 1"):
        dg.comparison_check(hot, x1, x2, None, None, n_paths=200, n_steps=10)


# --- report plumbing ---------------------------------------------------------


def test_reports_serialize_to_json():
    rep = dg.semiconcavity_scan(quad_evaluator(SP3, np.ones(3)), 0.0, SP3,
                                dg.ScanConfig(n_pairs=4), seed=1)
    blob = json.dumps(rep.to_dict())
    parsed = json.loads(blob)
    assert parsed["verdict"] == "pass"
    assert parsed["name"] == "semiconcavity_H"
