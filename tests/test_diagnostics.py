"""Regularity scans, coupled-trajectory audits, order preservation."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab import diagnostics as dg
from hjblab import engine
from hjblab.controls import ConstantSignal
from hjblab.hilbert import DiscreteOperator, h_norm, interval_space, make_zero_operator
from hjblab.models import (
    ControlProblem,
    ControlSpec,
    build_lq_benchmark,
    build_reaction_diffusion,
    build_sdde_lift,
    riccati_solve,
)
from hjblab.seeds import derive_seed, stream
from hjblab.synthesis import make_riccati_policy, zero_policy
from hjblab.value import make_policy_evaluator, gradient_fd

from fakes import make_exact_evaluator


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
    pairs = [(np.ones(3), -np.ones(3)), (np.zeros(3), np.ones(3))]
    rep = dg.lipschitz_estimate(ev, 0.0, pairs, SP3, seed=0)
    assert rep.passed
    assert rep.constants["c_hat"] == 0.0


def test_lipschitz_linear_field_attains_norm_bound():
    c = np.array([1.2, -0.7, 0.4])
    ev = make_exact_evaluator(lambda t, x: float(np.sum(SP3.weights * c * x)))
    bound = float(h_norm(SP3, c))
    rng = stream(4, "pairs", 0)
    pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(12)]
    pairs.append((np.zeros(3), c))  # aligned pair attains the bound
    rep = dg.lipschitz_estimate(ev, 0.0, pairs, SP3, seed=0,
                                declared_bound=bound)
    assert rep.passed
    assert abs(rep.constants["c_hat"] - bound) < 1e-12


def test_lipschitz_lq_within_gradient_bound():
    problem, sol, ev = lq_policy_evaluator(n_paths=1500, n_steps=120)
    pairs = [(np.array([1.5]), np.array([-0.5])),
             (np.array([0.3]), np.array([2.0]))]
    # quadratic value: |V(x)-V(y)| <= P (|x|+|y|) |x-y| on these pairs
    bound = float(sol.p_at(0.0)) * 4.0
    rep = dg.lipschitz_estimate(ev, 0.0, pairs, problem.space, seed=3,
                                declared_bound=bound)
    assert rep.passed
    assert 0.0 < rep.constants["c_hat"] < bound


def test_lipschitz_fails_tiny_declared_bound():
    problem, sol, ev = lq_policy_evaluator(n_paths=600, n_steps=60)
    pairs = [(np.array([1.5]), np.array([-0.5]))]
    rep = dg.lipschitz_estimate(ev, 0.0, pairs, problem.space, seed=3,
                                declared_bound=1e-4)
    assert not rep.passed


def test_lipschitz_validation_and_degenerate_pairs():
    ev = make_exact_evaluator(lambda t, x: float(x[0]))
    with pytest.raises(ValueError):
        dg.lipschitz_estimate(ev, 0.0, [], SP3)
    rep = dg.lipschitz_estimate(ev, 0.0, [(np.ones(3), np.ones(3)),
                                          (np.ones(3), np.zeros(3))], SP3)
    assert rep.constants["skipped_pairs"] == 1
    assert rep.constants["n_pairs"] == 1


def test_lipschitz_pairs_go_in_one_call_with_their_own_bits():
    # every pair with x != y goes to the evaluator in one call; the
    # evaluator's contestants are row-wise, so each pair's ratio keeps the
    # bits of a call on that pair alone
    rd = build_reaction_diffusion()
    ev = make_policy_evaluator(rd, zero_policy(rd), n_paths=200, n_steps=40)
    calls = []

    def counted(t, xs, seed):
        calls.append(len(xs))
        return ev(t, xs, seed)
    rng = stream(5, "lpairs", 0)
    pairs = [(0.3 * rng.normal(size=16), 0.3 * rng.normal(size=16))
             for _ in range(4)]
    pairs.insert(2, (pairs[0][0], pairs[0][0].copy()))
    rep = dg.lipschitz_estimate(counted, 0.0, pairs, rd.space, seed=3)
    assert calls == [8]
    assert rep.constants["skipped_pairs"] == 1
    alone = [dg.lipschitz_estimate(ev, 0.0, [pair], rd.space, seed=3)
             for i, pair in enumerate(pairs) if i != 2]
    best = max(alone, key=lambda r: r.constants["c_hat"])
    for key in ("c_hat", "c_hat_se"):
        assert rep.constants[key] == best.constants[key]
    assert rep.witness == best.witness


def test_lipschitz_delay_model_reported_in_both_norms():
    sdde = build_sdde_lift(n_past=12, horizon=0.6)
    ev = make_policy_evaluator(sdde, zero_policy(sdde), n_paths=400,
                               n_steps=60)
    rng = stream(3, "dpairs", 0)
    pairs = [(rng.normal(size=13) * 0.5, rng.normal(size=13) * 0.5)
             for _ in range(4)]
    rep_h = dg.lipschitz_estimate(ev, 0.0, pairs, sdde.space, norm_tag="H",
                                  seed=2)
    rep_w = dg.lipschitz_estimate(ev, 0.0, pairs, sdde.space,
                                  norm_tag="minus1", b_op=sdde.b_op, seed=2)
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
    pairs = [(np.array([1.0, 0.0, 0.0]), np.zeros(3)),
             (np.array([0.0, 1.0, 0.0]), np.zeros(3))]
    rep = dg.c11_modulus(saddle, quad_gradient(SP3, coeffs), 0.0, pairs, SP3,
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
    pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(10)]
    pairs.append((np.array([1.0, 0.0, 0.0]), np.zeros(3)))
    rep = dg.c11_modulus(ev, quad_gradient(SP3, coeffs), 0.0, pairs, SP3,
                         seed=0)
    assert rep.passed
    assert abs(rep.constants["c_hat"] - 3.0) < 1e-9  # 2 * max coeff


def test_c11_derives_gradients_from_values_when_missing():
    coeffs = np.array([1.5, 0.25, 0.8])
    ev = quad_evaluator(SP3, coeffs)
    pairs = [(np.array([1.0, 0.0, 0.0]), np.zeros(3))]
    rep = dg.c11_modulus(ev, None, 0.0, pairs, SP3, seed=0)
    assert abs(rep.constants["c_hat"] - 3.0) < 1e-6


def test_c11_lq_tracks_twice_riccati():
    problem, sol, ev = lq_policy_evaluator(n_paths=1500, n_steps=120)

    def gev(t, x, seed):
        return gradient_fd(ev, t, x, seed=seed)

    rng = stream(7, "c11lq", 0)
    pairs = [(rng.normal(size=1) * 1.5, rng.normal(size=1) * 1.5)
             for _ in range(5)]
    rep = dg.c11_modulus(ev, gev, 0.0, pairs, problem.space, seed=5)
    target = 2.0 * float(sol.p_at(0.0))
    assert abs(rep.constants["c_hat"] - target) < 0.1 * target


def test_c11_fails_undersized_bound_and_skips_degenerates():
    coeffs = np.array([1.0, 1.0, 1.0])
    ev = quad_evaluator(SP3, coeffs)
    pairs = [(np.ones(3), np.ones(3)), (np.ones(3), np.zeros(3))]
    rep = dg.c11_modulus(ev, quad_gradient(SP3, coeffs), 0.0, pairs, SP3,
                         c_semiconcave=0.01, c_semiconvex=0.0)
    assert not rep.passed
    assert rep.constants["skipped_pairs"] == 1


def test_c11_counts_gradient_calls_below_the_noise_floor():
    # a call counts when any component's standard error exceeds the
    # component (value.below_noise_floor, gradient_fd's warning rule): here
    # the calls at points with a negative first coordinate
    coeffs = np.array([1.0, 0.5, 0.25])
    exact = quad_gradient(SP3, coeffs)

    def gev(t, x, seed):
        grad, se = exact(t, x, seed)
        return grad, np.where(np.arange(3) == 2, 10.0 * (x[0] < 0), se)

    pairs = [(np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.0, 1.0])),
             (np.array([-2.0, 1.0, 1.0]), np.array([-1.0, 1.0, 1.0])),
             (np.ones(3), np.ones(3)),
             (np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))]
    rep = dg.c11_modulus(quad_evaluator(SP3, coeffs), gev, 0.0, pairs, SP3)
    assert rep.constants["noise_floor_gradients"] == 3
    assert rep.constants["skipped_pairs"] == 1
    clean = dg.c11_modulus(quad_evaluator(SP3, coeffs), exact, 0.0, pairs, SP3)
    assert clean.constants["noise_floor_gradients"] == 0
    assert clean.constants["c_hat"] == rep.constants["c_hat"]


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


def scalar_stability_problem(drift):
    """Zero generator, noise 0.3 and no cost: the flow is the drift's."""
    return ControlProblem(
        name="scalar_flow", space=interval_space(1, 1.0),
        op=make_zero_operator(1), b_op=None, drift=drift,
        noise=np.array([[0.3]]), noise_dim=1,
        running_cost=lambda x, a: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_spec=ControlSpec(dim=1), horizon=1.0,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stability_catches_discontinuous_drift(seed):
    # 2 sign(x) is not Lipschitz at 0: the base leg starts on the jump,
    # where the drift is 0, and every perturbed leg past it, where the drift
    # is 2, so the gap after one step is of order dt whatever eps is and the
    # mean-square gap hardly falls with eps^2. The linear flow keeps slope
    # one on the same pair and seed.
    pair = [(np.array([0.0]), np.array([0.5]))]
    jump = scalar_stability_problem(lambda x, a: 2.0 * np.sign(x) + a)
    rep = dg.trajectory_stability_check(jump, 0.0, pair, n_paths=150,
                                        n_steps=60, seed=seed)
    assert rep.verdict == "fail"
    assert rep.witness["slope"] < 0.5

    linear = scalar_stability_problem(lambda x, a: -x + a)
    rep = dg.trajectory_stability_check(linear, 0.0, pair, n_paths=150,
                                        n_steps=60, seed=seed)
    assert rep.passed
    assert abs(rep.constants["slopes"][0] - 1.0) < 0.01


def test_stability_validation():
    rd = build_reaction_diffusion(n_grid=4, noise_modes=1)
    with pytest.raises(ValueError, match="need at least one point pair"):
        dg.trajectory_stability_check(rd, 0.0, [])


# --- midpoint gap ------------------------------------------------------------


def test_midpoint_quadratic_scaling_on_reaction_model():
    rd = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.4)
    grid = np.arange(1, 9) / 9.0
    x0 = 0.3 * np.sin(np.pi * grid)
    u = np.cos(np.pi * grid)
    rep = dg.midpoint_trajectory_check(rd, 0.0, x0, u, (0.8, 0.4, 0.2, 0.1),
                                       n_paths=150, n_steps=60, seed=4)
    assert rep.passed
    assert rep.constants["k_hat"] > 0
    assert len(rep.constants["group_slopes"]) == 1
    assert abs(rep.constants["group_slopes"][0] - 2.0) < 0.2


def test_midpoint_affine_dynamics_hit_rounding_floor():
    lq, _ = build_lq_benchmark()
    # the segment [-1, 2]
    rep = dg.midpoint_trajectory_check(lq, 0.0, np.array([0.5]), np.ones(1),
                                       (1.5,), n_paths=100, n_steps=50, seed=4)
    assert rep.passed
    assert rep.constants["k_hat"] < 1e-8
    assert "floor" in rep.notes


def test_midpoint_weak_norm_on_delay_model():
    sdde = build_sdde_lift(n_past=12, horizon=0.6, c_nl=0.6)
    rng = stream(11, "mid_sdde", 0)
    x0 = rng.normal(size=13) * 0.4
    u = rng.normal(size=13)
    rep = dg.midpoint_trajectory_check(sdde, 0.0, x0, u, (0.4, 0.2, 0.1, 0.05),
                                       n_paths=150, n_steps=60, seed=6,
                                       norm_tag="minus1")
    assert rep.passed
    assert abs(rep.constants["group_slopes"][0] - 2.0) < 0.2


def test_midpoint_rejects_empty_and_degenerate_segments():
    lq, _ = build_lq_benchmark()
    with pytest.raises(ValueError, match="at least one radius"):
        dg.midpoint_trajectory_check(lq, 0.0, np.ones(1), np.ones(1), ())
    for direction, radii in ((np.ones(1), (1.0, 0.0)), (np.zeros(1), (1.0,))):
        with pytest.raises(ValueError, match="degenerate"):
            dg.midpoint_trajectory_check(lq, 0.0, np.ones(1), direction,
                                         radii, n_paths=10, n_steps=5)


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


def recorded_comparison(problem, x1, x2, f1, f2, n_paths, n_steps, seed):
    """comparison_check's min_margin, witness and sup_scale from recorded
    states: per chunk (the audit's rows and seeds) both contestants'
    (P, M+1, N) states, the first minimum of X1 - X2 in (path, step,
    component) order by np.argmin, kept only when strictly below the
    chunks before it, and the largest |X|."""
    dim = problem.dim
    rows = max(1, dg._COMPARISON_CHUNK_BYTES // (2 * (n_steps + 1) * dim * 8))
    n_chunks = -(-n_paths // rows)
    bounds = [n_paths * j // n_chunks for j in range(n_chunks + 1)]
    controls = [ConstantSignal(-np.asarray(f, float)) for f in (f1, f2)]
    margin, witness, scale = math.inf, None, 1.0
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        a, b = engine.simulate_ensemble(
            problem, 0.0, [x1, x2], controls, hi - lo, n_steps,
            derive_seed(seed, "comparison", j), "comparison")
        for states in (a.states, b.states):
            scale = max(scale, float(states.max()), -float(states.min()))
        gap = a.states - b.states
        flat = int(np.argmin(gap))
        if gap.flat[flat] < margin:
            path, step, component = np.unravel_index(flat, gap.shape)
            margin = float(gap.flat[flat])
            witness = {"step": int(step), "time": float(a.time_grid[step]),
                       "path": lo + int(path), "component": int(component),
                       "seed": seed}
    return margin, witness, scale


def bits(value):
    return np.float64(value).tobytes()


def assert_recorded_comparison(rep, *args):
    # the margin keeps a zero's sign, and the time the bits of the engine's
    # time grid point
    margin, witness, scale = recorded_comparison(*args)
    assert bits(rep.constants["min_margin"]) == bits(margin)
    assert rep.witness == witness
    assert bits(rep.witness["time"]) == bits(witness["time"])
    assert rep.constants["sup_scale"] == scale


@pytest.mark.parametrize("case", ["heat_pass", "breaker_fail", "steep_fail"])
def test_comparison_matches_the_recorded_states(monkeypatch, case):
    # the running maximum gives the margin, witness and scale that the
    # recorded states give, bit for bit, over three chunks
    if case == "heat_pass":
        problem = build_reaction_diffusion(n_grid=10, reaction="zero",
                                           noise_modes=2, horizon=0.3)
        x1, x2, f1 = 0.1 * np.ones(10), np.zeros(10), 0.2 * np.ones(10)
        n_steps = 40
    elif case == "breaker_fail":
        problem = order_breaker_problem()
        x1, x2, f1 = np.array([0.0, 0.4]), np.zeros(2), np.zeros(2)
        n_steps = 40
    else:
        problem = build_reaction_diffusion(n_grid=8, reaction_gain=60)
        x1, x2, f1 = np.zeros(8), np.zeros(8), np.zeros(8)
        x1[2:5] = 0.2
        n_steps = 10
    f2 = np.zeros(problem.dim)
    n_paths = 150
    monkeypatch.setattr(dg, "_COMPARISON_CHUNK_BYTES",
                        2 * 60 * (n_steps + 1) * problem.dim * 8)
    args = (problem, x1, x2, f1, f2, n_paths, n_steps, 11)
    rep = dg.comparison_check(*args[:6], n_steps=n_steps, seed=11, strict=False)
    assert rep.passed == (case == "heat_pass")
    assert_recorded_comparison(rep, *args)


def tie_problem(dim=3):
    """Deterministic dX = -a 1{X > -1} ds on a zero generator: at dt = 0.25 a
    control of 1 or 2 walks a component down by exact quarters or halves to
    -1, where it stays; the noise matrix is zero, so every path ties."""
    return ControlProblem(
        name="ties", space=interval_space(dim, 1.0),
        op=make_zero_operator(dim), b_op=None,
        drift=lambda x, a: -a * (x > -1.0),
        noise=np.zeros((dim, 1)), noise_dim=1,
        running_cost=lambda x, a: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_spec=ControlSpec(dim=dim), horizon=1.0,
    )


def test_comparison_ties_keep_the_first_minimum_and_its_zero(monkeypatch):
    # ties everywhere: all paths equal, so path 0 holds the minimum; -1 is
    # reached by component 1 at step 2 and by component 0 at step 4, so the
    # earliest step wins over the smallest component; and the three chunks
    # tie too, so the first chunk's witness stays
    problem = tie_problem()
    monkeypatch.setattr(dg, "_COMPARISON_CHUNK_BYTES", 2 * 10 * 5 * 3 * 8)
    x = np.zeros(3)
    f1 = np.array([-1.0, -2.0, 0.0])
    args = (problem, x, x.copy(), f1, np.zeros(3), 30, 4, 2)
    rep = dg.comparison_check(*args[:6], n_steps=4, seed=2, strict=False)
    assert rep.constants["min_margin"] == -1.0
    assert rep.witness == {"step": 2, "time": 0.5, "path": 0, "component": 1,
                           "seed": 2}
    assert_recorded_comparison(rep, *args)
    # a margin of zero keeps the sign of its first occurrence: -0.0 at step
    # 0, component 0, where X1 starts at -0.0 and X2 at +0.0; later zeros
    # of that component are +0.0
    x1 = np.array([-0.0, 0.1, 0.2])
    args = (problem, x1, np.zeros(3), np.zeros(3), np.zeros(3), 30, 4, 2)
    rep = dg.comparison_check(*args[:6], n_steps=4, seed=2, strict=False)
    assert rep.passed
    assert math.copysign(1.0, rep.constants["min_margin"]) == -1.0
    assert rep.witness == {"step": 0, "time": 0.0, "path": 0, "component": 0,
                           "seed": 2}
    assert_recorded_comparison(rep, *args)


AUDIT_STEPS = (50, 800)


@pytest.mark.parametrize("audit", ["comparison", "stability", "midpoint"])
def test_pathwise_audits_hold_no_state_path(monkeypatch, audit):
    # each audit reads a per-path sup over time that the engine keeps as it
    # steps, so 16 times the steps add to its peak only what grows with the
    # steps anyway: the noise block the memo holds, and a signal's values
    # per step. A recorded state path of one contestant over the added steps
    # is 14.4 MB here; the audit may add a quarter of that at most. One
    # process: a forked run allocates its outputs in shared memory, which
    # tracemalloc does not see
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    rd = build_reaction_diffusion()
    n, n_paths = rd.dim, 150
    x0 = 0.3 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    u = np.ones(n) / np.sqrt(n)
    run = {
        "comparison": lambda m: dg.comparison_check(
            rd, 0.1 * np.ones(n), np.zeros(n), None, None, n_paths=n_paths,
            n_steps=m, seed=4),
        "stability": lambda m: dg.trajectory_stability_check(
            rd, 0.0, [(x0, x0 + 0.8 * u)], n_paths=n_paths, n_steps=m, seed=4),
        "midpoint": lambda m: dg.midpoint_trajectory_check(
            rd, 0.0, x0, u, (0.8, 0.4), n_paths=n_paths, n_steps=m, seed=4),
    }[audit]
    held = []
    for m in AUDIT_STEPS:
        engine.gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        tracemalloc.start()
        try:
            assert run(m).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(peak - engine.increment_memo.block.nbytes)
    path_bytes = n_paths * (AUDIT_STEPS[1] - AUDIT_STEPS[0]) * n * 8
    assert held[1] - held[0] < 0.25 * path_bytes, (held[1] - held[0]) / path_bytes


def order_breaker_problem():
    sp = interval_space(2, 1.0)
    A = np.array([[0.0, -3.0], [-3.0, 0.0]])
    return ControlProblem(
        name="order_breaker", space=sp, op=DiscreteOperator(A, kind="custom"),
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
