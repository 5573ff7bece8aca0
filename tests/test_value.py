"""Cost evaluation, family values, truncation scan, FD gradients, policy
iteration. Closed-form oracles sit at the top; Monte Carlo assertions use
3 standard errors plus an explicit discretization allowance where the
scheme bias is not negligible.
"""

import dataclasses
import hashlib
import os
import warnings

import numpy as np
import pytest

from hjblab.controls import (
    ConstantSignal,
    PiecewiseConstantSignal,
    project_ball,
)
from hjblab.diagnostics import (
    midpoint_trajectory_check,
    trajectory_stability_check,
)
from hjblab import engine, value
from hjblab.engine import (
    gaussian_increments,
    increment_memo,
    simulate_costs_batch,
)
from hjblab.models import (
    build_lq_benchmark,
    build_reaction_diffusion,
    riccati_solve,
)
from hjblab.synthesis import feynman_kac_value, verify_optimality, zero_policy
from hjblab.value import (
    ControlFamily,
    MCEstimate,
    PolicyIterationConfig,
    ValueField,
    cost_samples,
    estimate_value_family,
    gradient_fd,
    make_policy_evaluator,
    policy_iteration,
    truncation_scan,
)
from hjblab.seeds import stream

from fakes import make_exact_evaluator


# --- oracles ---------------------------------------------------------------


def piecewise_linear_lq_cost(x0, knots, values, q, r, q_term, alpha):
    """Exact cost for dx = alpha*u, quadratic integrands, piecewise-const u.

    On each segment the state is linear in s, so the running integrand is a
    quadratic polynomial integrated in closed form.
    """
    x = float(x0)
    total = 0.0
    for j in range(len(values)):
        d = knots[j + 1] - knots[j]
        u = float(values[j][0])
        v = alpha * u
        total += q * (x * x * d + x * v * d * d + v * v * d**3 / 3.0)
        total += r * u * u * d
        x += v * d
    return total + q_term * x * x


def lq_constant_control_cost(oracle, t, x0, u):
    """Expected cost of a constant control on the scalar linear SDE, by
    dense quadrature over the mean/variance closed forms."""
    a, al, s2 = oracle.a_lin, oracle.alpha, oracle.sigma0**2
    tau = np.linspace(0.0, oracle.horizon - t, 40_001)
    growth = np.exp(a * tau)
    mean = growth * x0 + (al * u / a) * (growth - 1.0) if a != 0 else x0 + al * u * tau
    var = s2 * (np.exp(2 * a * tau) - 1.0) / (2 * a) if a != 0 else s2 * tau
    run = oracle.q_state * (mean**2 + var) + oracle.r_control * u**2
    return float(
        np.trapezoid(run, tau)
        + oracle.q_terminal * (mean[-1] ** 2 + var[-1])
    )


# --- MCEstimate ---------------------------------------------------------------


def test_mc_estimate_matches_formulas():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    est = MCEstimate.from_samples(s)
    assert est.mean == 2.5
    assert est.std_error == pytest.approx(s.std(ddof=1) / 2.0)
    assert est.n_paths == 4


def test_mc_estimate_single_sample():
    est = MCEstimate.from_samples(np.array([3.0]))
    assert est.std_error == 0.0


# --- feynman_kac_value -----------------------------------------------------------


def test_deterministic_piecewise_cost_matches_exact_integration():
    # pure integrator: the per-step map is exact for piecewise-constant u
    # whose knots align with the grid, so only the trapezoid quadrature
    # error remains, which is O(dt^2)
    problem, _ = build_lq_benchmark(a_lin=0.0, alpha=1.0, sigma0=0.0,
                                    q_state=1.0, r_control=0.5, q_terminal=2.0)
    knots = np.linspace(0.0, 1.0, 5)
    values = np.array([[1.0], [-0.5], [0.25], [2.0]])
    sig = PiecewiseConstantSignal(knots, values)
    est = feynman_kac_value(problem, sig, 0.0, np.array([0.7]), n_paths=1,
                            n_steps=4000, seed=0)
    exact = piecewise_linear_lq_cost(0.7, knots, values, 1.0, 0.5, 2.0, 1.0)
    assert est.std_error == 0.0
    assert abs(est.mean - exact) < 1e-6


def test_stochastic_constant_control_cost_within_three_se():
    problem, oracle = build_lq_benchmark()
    u = 0.3
    est = feynman_kac_value(problem, ConstantSignal(np.array([u])), 0.0,
                            np.array([1.0]), n_paths=10_000, n_steps=400,
                            seed=17)
    exact = lq_constant_control_cost(oracle, 0.0, 1.0, u)
    # 0.02 covers the O(dt) scheme bias at 400 steps
    assert abs(est.mean - exact) < 3 * est.std_error + 0.02


# --- family estimation ---------------------------------------------------------


def test_singleton_family_equals_direct_evaluation():
    problem, _ = build_lq_benchmark()
    sig = ConstantSignal(np.array([0.2]))
    fam = ControlFamily(base_candidates=(sig,), include_zero=False)
    fv = estimate_value_family(problem, 0.0, np.array([1.0]), fam,
                               n_candidates=0, paths_per_candidate=500, seed=9)
    direct = feynman_kac_value(problem, sig, 0.0, np.array([1.0]),
                               n_paths=500, n_steps=200, seed=9,
                               stream_label="family_paths")
    assert fv.estimate == direct
    assert fv.argmin_label == "base0"


def test_family_value_monotone_in_candidate_count():
    problem, _ = build_lq_benchmark()
    fam = ControlFamily(m_truncation=4.0)
    means = [
        estimate_value_family(problem, 0.0, np.array([1.5]), fam,
                              n_candidates=n, paths_per_candidate=400,
                              n_steps=100, seed=23).estimate.mean
        for n in (2, 6, 12)
    ]
    assert means[0] >= means[1] >= means[2]


def test_family_with_feedback_candidate_beats_open_loop():
    # with noise on, the best open-loop signal cannot reach the value; a
    # feedback candidate closes that gap, so enriching the family must help
    from hjblab.synthesis import make_riccati_policy

    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    policy = make_riccati_policy(problem, sol)
    open_fam = ControlFamily(m_truncation=4.0)
    rich_fam = ControlFamily(m_truncation=4.0, base_candidates=(policy,))
    kw = dict(n_candidates=10, paths_per_candidate=2000, n_steps=150, seed=31)
    v_open = estimate_value_family(problem, 0.0, np.array([1.5]), open_fam, **kw)
    v_rich = estimate_value_family(problem, 0.0, np.array([1.5]), rich_fam, **kw)
    gap = v_open.estimate.mean - v_rich.estimate.mean
    assert v_rich.argmin_label == "base0"
    assert gap > 3 * (v_open.estimate.std_error + v_rich.estimate.std_error)


def test_family_tie_breaks_to_lowest_index():
    problem, _ = build_lq_benchmark()
    sig = ConstantSignal(np.array([0.1]))
    fam = ControlFamily(base_candidates=(sig, sig), include_zero=False)
    fv = estimate_value_family(problem, 0.0, np.array([1.0]), fam,
                               n_candidates=0, paths_per_candidate=300, seed=2)
    assert fv.argmin_index == 0


def test_family_draw_determinism_and_admissibility():
    problem, _ = build_lq_benchmark(control_bound=1.5)
    fam = ControlFamily(n_segments=3, m_truncation=2.0)
    a = fam.sampled(problem, 0.0, 4, seed=5)
    b = fam.sampled(problem, 0.0, 4, seed=5)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.all(np.abs(a.values) <= 1.5 + 1e-12)
    norms = np.sqrt(np.sum(a.values**2, axis=-1))
    assert np.all(norms <= 2.0 + 1e-12)


def test_family_validation():
    with pytest.raises(ValueError):
        ControlFamily(n_segments=0)
    with pytest.raises(ValueError):
        ControlFamily(m_truncation=0.0)


# --- truncation scan -------------------------------------------------------------


def test_truncation_scan_flattens_at_oracle_amplitude():
    from hjblab.synthesis import make_riccati_policy

    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    policy = make_riccati_policy(problem, sol)
    fam = ControlFamily(base_candidates=(policy,), draw_scale=1.0)
    report = truncation_scan(problem, 0.0, np.array([1.5]),
                             m_list=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                             family=fam, n_candidates=6,
                             paths_per_candidate=800, n_steps=100, seed=3)
    assert report.passed
    values = report.constants["values"]
    assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))
    # oracle feedback magnitude at (0, 1.5) is |gain(0)| * 1.5, about 1.3;
    # the scan must not need radii far beyond it and must see the small
    # radii as binding
    assert 0.5 <= report.constants["m_bar"] <= 4.0


def test_truncation_scan_fails_when_still_improving():
    # at x = 3 the oracle wants |u| well above 1, so radii up to 0.6 are all
    # binding and the value is still dropping at the last level
    problem, _ = build_lq_benchmark()
    report = truncation_scan(problem, 0.0, np.array([3.0]),
                             m_list=[0.1, 0.3, 0.6], n_candidates=6,
                             paths_per_candidate=600, n_steps=80, seed=3)
    assert not report.passed
    assert report.witness is not None
    values = report.constants["values"]
    assert values[0] - values[-1] > 1.0


def test_single_candidate_scan_equals_direct_evaluation_per_level():
    # each level's projection is evaluated on the "family_paths" block that a
    # direct call with the same seed and label receives
    problem, _ = build_lq_benchmark()
    sig = ConstantSignal(np.array([1.5]))
    fam = ControlFamily(base_candidates=(sig,), include_zero=False)
    m_list = [0.5, 1.0, 2.0]
    report = truncation_scan(problem, 0.0, np.array([1.0]), m_list=m_list,
                             family=fam, n_candidates=0,
                             paths_per_candidate=300, n_steps=60, seed=9)
    direct = [
        feynman_kac_value(problem,
                          ConstantSignal(project_ball(
                              sig.value, m, problem.control_spec.weights)),
                          0.0, np.array([1.0]), n_paths=300, n_steps=60,
                          seed=9, stream_label="family_paths").mean
        for m in m_list
    ]
    assert report.constants["level_values"] == direct


@pytest.fixture
def contestants_run(monkeypatch):
    """The number of contestants of each engine run made while it is live."""
    counts = []

    def counted(*args):
        prepared = prepare(*args)
        counts.append(len(prepared.inits))
        return prepared

    prepare = engine._prepare
    monkeypatch.setattr(engine, "_prepare", counted)
    return counts


def test_truncation_scan_runs_unchanged_projections_once(contestants_run):
    # every draw and base lies inside the smallest ball, so no projection
    # moves after the first level and each candidate runs exactly once
    problem, _ = build_lq_benchmark()
    fam = ControlFamily(draw_scale=1e-3,
                        base_candidates=(ConstantSignal(np.array([0.2])),))
    raw = fam.candidates(problem, 0.0, 3, 902, m=2.0)
    truncation_scan(problem, 0.0, np.array([1.0]), m_list=[0.5, 1.0, 2.0],
                    family=fam, n_candidates=3, paths_per_candidate=50,
                    n_steps=20, seed=902)
    assert sum(contestants_run) == len(raw)


def test_truncation_scan_reruns_feedback_candidates_every_level(contestants_run):
    problem, _ = build_lq_benchmark()
    fam = ControlFamily(base_candidates=(zero_policy(problem),),
                        include_zero=False)
    m_list = [0.5, 1.0, 2.0, 4.0]
    truncation_scan(problem, 0.0, np.array([1.0]), m_list=m_list, family=fam,
                    n_candidates=0, paths_per_candidate=50, n_steps=20,
                    seed=903)
    assert sum(contestants_run) == len(m_list)


def test_truncation_scan_with_reuse_equals_direct_evaluation_per_level(
        contestants_run):
    from hjblab.synthesis import make_riccati_policy

    problem, oracle = build_lq_benchmark()
    policy = make_riccati_policy(problem,
                                 riccati_solve(oracle, np.linspace(0, 1, 201)))
    fam = ControlFamily(draw_scale=0.6, base_candidates=(policy,))
    m_list = [0.3, 0.8, 1.5, 3.0]
    x = np.array([1.2])
    kwargs = dict(paths_per_candidate=200, n_steps=40, seed=904)
    report = truncation_scan(problem, 0.0, x, m_list=m_list, family=fam,
                             n_candidates=6, **kwargs)
    runs = sum(contestants_run)

    raw = fam.candidates(problem, 0.0, 6, 904, m=m_list[-1])
    assert runs < len(raw) * len(m_list)  # some level was reused
    w = problem.control_spec.weights
    level_values, level_ses = [], []
    for m in m_list:
        ests = []
        for _, cand in raw:
            if hasattr(cand, "feedback"):
                c_m = dataclasses.replace(
                    cand, feedback=lambda s, xb, f=cand.feedback, m=m:
                    project_ball(f(s, xb), m, w))
            elif isinstance(cand, ConstantSignal):
                c_m = ConstantSignal(project_ball(cand.value, m, w))
            else:
                c_m = PiecewiseConstantSignal(cand.knots,
                                              project_ball(cand.values, m, w))
            ests.append(feynman_kac_value(
                problem, c_m, 0.0, x, n_paths=kwargs["paths_per_candidate"],
                n_steps=kwargs["n_steps"], seed=kwargs["seed"],
                stream_label="family_paths"))
        best = int(np.argmin([e.mean for e in ests]))
        level_values.append(ests[best].mean)
        level_ses.append(ests[best].std_error)
    assert report.constants["level_values"] == level_values
    running = np.minimum.accumulate(level_values)
    assert report.constants["values"] == running.tolist()
    # the running minimum keeps the SE of the level that first reached it
    ses = [level_ses[level_values.index(v)] for v in running]
    assert report.constants["std_errors"] == ses


def test_truncation_scan_validates_radii():
    problem, _ = build_lq_benchmark()
    with pytest.raises(ValueError):
        truncation_scan(problem, 0.0, np.array([1.0]), m_list=[1.0, 0.5, 2.0])
    with pytest.raises(ValueError):
        truncation_scan(problem, 0.0, np.array([1.0]), m_list=[1.0, 2.0])


# --- finite-difference gradients ---------------------------------------------------


def test_gradient_fd_exact_on_quadratic():
    ev = make_exact_evaluator(lambda t, x: 3.0 * x[0] ** 2 + 2.0 * x[0] + 1.0)
    grad, se = gradient_fd(ev, 0.0, np.array([0.7]), seed=0)
    assert abs(grad[0] - (6.0 * 0.7 + 2.0)) < 1e-8
    assert se[0] == 0.0


def test_gradient_fd_weighted_coordinates():
    # value <x, c>_H = sum w c x has weighted gradient c regardless of w
    w = np.array([0.25, 2.0])
    c = np.array([1.3, -0.4])
    ev = make_exact_evaluator(lambda t, x: float(np.sum(w * c * x)))
    grad, _ = gradient_fd(ev, 0.0, np.array([0.5, -1.0]), seed=0, weights=w)
    np.testing.assert_allclose(grad, c, atol=1e-8)


def test_gradient_fd_matches_riccati_slope():
    from hjblab.synthesis import make_riccati_policy

    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    ev = make_policy_evaluator(problem, make_riccati_policy(problem, sol),
                               n_paths=3000, n_steps=150)
    x = np.array([1.5])
    grad, se = gradient_fd(ev, 0.0, x, seed=6)
    target = 2.0 * sol.p_at(0.0) * 1.5
    assert abs(grad[0] - target) <= max(0.05 * abs(target), 3 * se[0])


def test_gradient_fd_halving_step_is_stable():
    from hjblab.synthesis import make_riccati_policy

    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    ev = make_policy_evaluator(problem, make_riccati_policy(problem, sol),
                               n_paths=2000, n_steps=120)
    g1, _ = gradient_fd(ev, 0.0, np.array([1.5]), h=2e-3, seed=6)
    g2, _ = gradient_fd(ev, 0.0, np.array([1.5]), h=1e-3, seed=6)
    assert abs(g1[0] - g2[0]) < 0.05 * abs(g1[0])


def test_gradient_fd_warns_when_noise_dominates():
    # sample sets at x+h and x-h share the same values in different orders,
    # so the difference has mean exactly zero but positive spread
    base = stream(3, "noise", 0).normal(size=400)

    def noisy(t, xs, seed):
        return np.stack([
            base[stream(seed, f"perm{float(x[0]):.9f}", 0).permutation(400)]
            for x in xs])

    with pytest.warns(UserWarning, match="noise floor"):
        gradient_fd(noisy, 0.0, np.array([1.0]), seed=3)


# --- value field -------------------------------------------------------------------


def test_value_field_validation():
    with pytest.raises(ValueError):
        ValueField(points=[(0.0, np.array([1.0]))], estimates=[])
    vf = ValueField(
        points=[(0.0, np.array([1.0])), (0.5, np.array([2.0]))],
        estimates=[MCEstimate(1.5, 0.1, 100), MCEstimate(2.5, 0.2, 100)],
    )
    assert [e.mean for e in vf.estimates] == [1.5, 2.5]


# --- policy iteration ---------------------------------------------------------------


def test_policy_iteration_reaches_riccati_value_on_lq():
    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    t_grid = np.array([0.0, 0.25, 0.5, 0.75])
    x_grid = np.linspace(-3.0, 3.0, 7)
    cfg = PolicyIterationConfig(paths_per_point=1200, n_steps=100,
                                tol_abs=0.05, tol_rel=0.01)
    res = policy_iteration(problem, t_grid, x_grid, n_rounds=5, cfg=cfg, seed=10)
    assert res.rounds_run <= 5
    # compare at (t=0, x=1.0): grid point index 4 of row 0
    idx = 0 * 7 + 4
    t0, x0 = res.value_field.points[idx]
    assert t0 == 0.0 and x0[0] == 1.0
    est = res.value_field.estimates[idx]
    target = sol.value(0.0, np.array([1.0]))
    assert abs(est.mean - target) <= max(0.05 * abs(target), 3 * est.std_error)
    assert res.policy.provenance == "policy_iteration"


def test_policy_iteration_rounds_improve_within_noise():
    problem, _ = build_lq_benchmark()
    cfg = PolicyIterationConfig(paths_per_point=800, n_steps=80,
                                tol_abs=0.0, tol_rel=0.0)
    res = policy_iteration(problem, np.array([0.0, 0.4]),
                           np.array([-2.0, 1.0, 2.5]), n_rounds=3, cfg=cfg,
                           seed=12)
    # every round makes the same noise request per time row, so these are
    # paired comparisons; allow a small slack for residual fd noise
    for k in range(len(res.round_values) - 1):
        assert np.all(res.round_values[k + 1] <= res.round_values[k] + 0.15)


def test_policy_iteration_zero_cost_is_immediately_stationary():
    problem, _ = build_lq_benchmark(q_state=0.0, q_terminal=0.0)
    cfg = PolicyIterationConfig(paths_per_point=200, n_steps=40)
    res = policy_iteration(problem, np.array([0.0]), np.array([1.0]),
                           n_rounds=4, cfg=cfg, seed=1)
    assert res.converged
    assert res.rounds_run == 2  # the second sweep certifies the first
    assert np.all(np.abs(res.round_values[-1]) < 1e-12)
    out = res.policy.feedback(0.0, np.array([[1.0]]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_policy_iteration_reports_non_convergence():
    problem, _ = build_lq_benchmark()
    cfg = PolicyIterationConfig(paths_per_point=300, n_steps=60,
                                tol_abs=0.0, tol_rel=0.0)
    res = policy_iteration(problem, np.array([0.0]), np.array([1.5]),
                           n_rounds=2, cfg=cfg, seed=4)
    assert not res.converged
    assert len(res.round_changes) == 1
    assert res.round_changes[0] > 0.0


def test_policy_iteration_validates_times():
    problem, _ = build_lq_benchmark()
    with pytest.raises(ValueError):
        policy_iteration(problem, np.array([0.0, 1.0]), np.array([1.0]))


def test_policy_iteration_rejects_zero_rounds(contestants_run):
    problem, _ = build_lq_benchmark()
    with pytest.raises(ValueError, match="n_rounds"):
        policy_iteration(problem, np.array([0.0]), np.array([1.0]), n_rounds=0)
    assert contestants_run == []


def test_policy_iteration_rejects_a_single_path_per_point():
    # one path gives std_error 0.0, which would pass any SE-based check
    with pytest.raises(ValueError, match="paths_per_point"):
        PolicyIterationConfig(paths_per_point=1)


def test_policy_iteration_points_own_disjoint_rows_of_one_row_request(
        monkeypatch):
    # round 1 runs the zero policy; point j's paths must be rows
    # [j P, (j+1) P) of its time row's one request
    requests = []

    def spy(problem, batch):
        for t, x, control, n_paths, n_steps, seed, stream_label in batch:
            requests.append((t, n_paths, n_steps, seed, stream_label))
        return simulate_costs_batch(problem, batch)

    monkeypatch.setattr(value, "simulate_costs_batch", spy)
    problem, _ = build_lq_benchmark()
    n_paths, x_grid = 60, np.array([[-1.0], [0.5]])
    res = policy_iteration(problem, (0.3,), x_grid, n_rounds=1, seed=5,
                           cfg=PolicyIterationConfig(paths_per_point=n_paths,
                                                     n_steps=20))
    (t, n_all, n_steps, seed, label), = requests
    assert (t, n_all) == (0.3, 2 * n_paths)
    assert (seed, label) == (5, "policy_iteration")
    for j, x in enumerate(x_grid):
        direct = cost_samples(problem, t, x, zero_policy(problem), n_all,
                              n_steps, seed, label)
        rows = direct[j * n_paths:(j + 1) * n_paths]
        assert res.value_field.estimates[j] == MCEstimate.from_samples(rows)


PI_BITS_T = (0.0, 0.3, 0.6)
PI_BITS_ROUNDS = 3


def _pi_three_rows():
    problem, _ = build_lq_benchmark()
    cfg = PolicyIterationConfig(paths_per_point=40, n_steps=20,
                                tol_abs=0.0, tol_rel=0.0)
    return policy_iteration(problem, PI_BITS_T, np.array([[-1.0], [0.5], [1.5]]),
                            n_rounds=PI_BITS_ROUNDS, cfg=cfg, seed=23)


def _pi_digest(res):
    h = hashlib.sha256()
    for vals in res.round_values:
        h.update(np.ascontiguousarray(vals, dtype=float).tobytes())
    for est in res.value_field.estimates:
        h.update(np.array([est.mean, est.std_error]).tobytes())
    xb = np.linspace(-2.0, 2.0, 9)[:, None]
    for t in PI_BITS_T:
        h.update(np.ascontiguousarray(res.policy.feedback(t, xb)).tobytes())
    return h.hexdigest()


PI_DIGEST = "75abda67dc47b613e70d9c5fb25f324744d72ed97fc89fac3874e11a1a47f1a2"


def test_policy_iteration_output_bits_are_pinned():
    # pinned so that a change of the order PI prices its rows in, or of how
    # it gets their noise, that moves any output bit breaks loudly
    res = _pi_three_rows()
    assert res.rounds_run == PI_BITS_ROUNDS
    assert _pi_digest(res) == PI_DIGEST


def count_forks(monkeypatch):
    """A list that gains one entry per os.fork call of this process."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_policy_iteration_rows_as_fan_out_items_keep_the_pinned_bits(
        monkeypatch):
    # each round's three rows are consecutive requests on one noise request
    # of 120 paths, one 64-row slab: one piece of the fan-out, which no
    # process count cuts, so every round runs here, on the block of the
    # serial loop
    _pi_three_rows()
    serial_last = increment_memo.request
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(engine, "_FORK_MIN_WORK", 1)
    for processes in (2, 3):
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the memo moves on
        monkeypatch.setattr(engine, "_PROCESSES", processes)
        forks.clear()
        res = _pi_three_rows()
        assert res.rounds_run == PI_BITS_ROUNDS
        assert _pi_digest(res) == PI_DIGEST
        assert increment_memo.request == serial_last
        assert not forks


def test_policy_iteration_rows_cut_across_processes_keep_the_serial_bits(
        monkeypatch):
    # a round's rows are one unit on one block of 200 paths, three 64-row
    # slabs: two processes cut it once and three twice, every round
    problem, _ = build_lq_benchmark()
    cfg = PolicyIterationConfig(paths_per_point=100, n_steps=20,
                                tol_abs=0.0, tol_rel=0.0)

    def run():
        return policy_iteration(problem, PI_BITS_T, np.array([[-1.0], [1.5]]),
                                n_rounds=PI_BITS_ROUNDS, cfg=cfg, seed=29)

    monkeypatch.setattr(engine, "_PROCESSES", 1)
    serial = _pi_digest(run())
    serial_last = increment_memo.request
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(engine, "_FORK_MIN_WORK", 1)
    for processes in (2, 3):
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the memo moves on
        monkeypatch.setattr(engine, "_PROCESSES", processes)
        forks.clear()
        assert _pi_digest(run()) == serial
        assert increment_memo.request == serial_last
        assert len(forks) == PI_BITS_ROUNDS * (processes - 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_policy_iteration_rounds_start_on_the_held_block():
    # every row of every round makes one noise request, so the first row of
    # the first round draws the block and every later row reads it
    gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
    hits, misses = increment_memo.hits, increment_memo.misses
    res = _pi_three_rows()
    assert increment_memo.misses - misses == 1
    assert increment_memo.hits - hits == len(PI_BITS_T) * res.rounds_run - 1


def test_policy_iteration_at_benchmark_sizes_draws_one_block_at_any_process_count(
        monkeypatch):
    # the oracle_lq benchmark's policy iteration: one increment miss per
    # call and the same output bits serially and with every round cut
    # across two and three processes
    problem, _ = build_lq_benchmark()
    cfg = PolicyIterationConfig(paths_per_point=1000, n_steps=120)
    x_grid = np.array([[-2.0], [-1.5], [0.5], [1.0], [2.0]])
    forks, digests = count_forks(monkeypatch), []
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    for processes in (1, 2, 3):
        if processes > 1:
            monkeypatch.setattr(engine, "_FORK_MIN_WORK", 1)
            monkeypatch.setattr(engine, "_PROCESSES", processes)
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        misses = increment_memo.misses
        forks.clear()
        res = policy_iteration(problem, (0.0, 0.4, 0.8), x_grid, n_rounds=6,
                               cfg=cfg, seed=5)
        assert increment_memo.misses - misses == 1
        assert len(forks) == res.rounds_run * (processes - 1)
        digests.append(_pi_digest(res))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert digests[1] == digests[2] == digests[0]


# --- shared increments -------------------------------------------------------------

# Contestants are paired by running on the same increment block, so one
# contestant loop must generate exactly one block, whatever it runs.

def _family_loop(problem, x):
    estimate_value_family(problem, 0.0, x, ControlFamily(), n_candidates=3,
                          paths_per_candidate=50, n_steps=20, seed=901)


def _truncation_loop(problem, x):
    truncation_scan(problem, 0.0, x, m_list=[0.5, 1.0, 2.0], n_candidates=2,
                    paths_per_candidate=50, n_steps=20, seed=902)


def _tournament_loop(problem, x):
    verify_optimality(problem, zero_policy(problem), 0.0, x, n_challengers=2,
                      n_paths=50, n_steps=20, seed=903)


def _coupled_loop(problem, x):
    # one pair: its base leg and five perturbed legs
    trajectory_stability_check(problem, 0.0, [(x, 2.0 * x)], n_paths=50,
                               n_steps=20, seed=904)


def _midpoint_loop(problem, x):
    # one radius: both endpoint legs and the midpoint leg
    midpoint_trajectory_check(problem, 0.0, 0.0 * x, x, (1.0,), n_paths=50,
                              n_steps=20, seed=905)


# contestants each loop runs: zero and 3 draws; the truncation scan's zero
# and 2 draws, then the 2 draws again at each later level, since their
# projections move; the policy and 2 + 2 challengers; 6 legs; 3 legs
LOOP_CONTESTANTS = {"_family_loop": 4, "_truncation_loop": 7,
                    "_tournament_loop": 5, "_coupled_loop": 6,
                    "_midpoint_loop": 3}


@pytest.mark.parametrize("loop", [_family_loop, _truncation_loop,
                                  _tournament_loop, _coupled_loop,
                                  _midpoint_loop])
def test_contestant_loop_generates_one_block(loop, contestants_run):
    problem, _ = build_lq_benchmark()
    gaussian_increments(0, "unrelated", 1, 1, 1)  # a fresh request next
    misses = increment_memo.misses
    loop(problem, np.array([1.0]))
    assert increment_memo.misses == misses + 1
    assert sum(contestants_run) == LOOP_CONTESTANTS[loop.__name__]


# Contestants that share a request advance together in one engine call, so a
# shared-noise group asks for its block once, not once per contestant.

def _family_of_14():
    problem, _ = build_lq_benchmark()
    estimate_value_family(problem, 0.0, np.array([1.0]), ControlFamily(),
                          n_candidates=13, paths_per_candidate=50,
                          n_steps=20, seed=911)
    return 1


def _full_tournament():
    problem, _ = build_lq_benchmark()
    verify_optimality(problem, zero_policy(problem), 0.0, np.array([1.0]),
                      n_paths=50, n_steps=20, seed=912)
    return 1


def _gradient_in_16_dimensions():
    rd = build_reaction_diffusion()
    ev = make_policy_evaluator(rd, zero_policy(rd), n_paths=150, n_steps=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gradient_fd(ev, 0.0, np.full(rd.dim, 0.3), seed=913)
    return 1


def _policy_iteration_round():
    problem, _ = build_lq_benchmark()
    t_grid, x_grid = (0.0, 0.4), np.array([[-1.0], [0.5]])
    policy_iteration(problem, t_grid, x_grid, n_rounds=1, seed=914,
                     cfg=PolicyIterationConfig(paths_per_point=50, n_steps=20))
    # one request per time row: its grid points own disjoint paths of it
    return len(t_grid)


@pytest.mark.parametrize("group", [_family_of_14, _full_tournament,
                                   _gradient_in_16_dimensions,
                                   _policy_iteration_round])
def test_shared_noise_group_makes_one_request(group):
    requests = increment_memo.hits + increment_memo.misses
    expected = group()
    assert increment_memo.hits + increment_memo.misses - requests == expected
