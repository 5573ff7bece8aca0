"""Simulation engine: exactness, distributional checks, coupling, audits.

Closed-form oracles first; the frozen constants in the moment tests were
produced by the calibration path of moment_bound_check on the stated seeds
and then pinned.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from hjblab import engine
from hjblab.controls import (
    ConstantSignal,
    PiecewiseConstantSignal,
    TraceSignal,
    zero_signal,
)
from hjblab.engine import (
    SimulationDivergenceError,
    gaussian_increments,
    increment_memo,
    moment_bound_check,
    simulate_costs,
    simulate_ensemble,
    write_ensemble_csv,
)
from hjblab.hilbert import (
    BOperatorSpec,
    SpaceSpec,
    h_norm,
    make_custom_operator,
    make_zero_operator,
)
from hjblab.models import (
    ControlProblem,
    ControlSpec,
    CostStructure,
    build_lq_benchmark,
    build_reaction_diffusion,
    build_sdde_lift,
    riccati_solve,
)
from hjblab.seeds import stream
from hjblab.synthesis import (
    make_gamma_policy,
    make_riccati_policy,
    scale_policy,
    zero_policy,
)
from hjblab.value import ControlFamily, PolicyIterationConfig, policy_iteration


# --- oracles ---------------------------------------------------------------


def ou_variance(elapsed):
    """Stationary-free OU variance: Var X(t+h) = (1 - e^{-2h}) / 2 from a point."""
    return (1.0 - np.exp(-2.0 * elapsed)) / 2.0


def scalar_problem(drift, sigma0, horizon=1.0, generator=None, control_dim=1):
    space = SpaceSpec(dim=1, weights=np.ones(1))
    op = make_zero_operator(1) if generator is None else generator
    return ControlProblem(
        name="scalar_test",
        space=space,
        op=op,
        b_op=BOperatorSpec(np.eye(1), c0=1.0, mode="strong", space=space),
        drift=drift,
        noise=np.array([[sigma0]]),
        noise_dim=1,
        running_cost=lambda x, a: x[..., 0] ** 2,
        terminal_cost=lambda x: x[..., 0] ** 2,
        control_spec=ControlSpec(dim=control_dim),
        horizon=horizon,
    )


# --- grid and exactness -----------------------------------------------------


def test_initial_state_is_stored_exactly():
    problem = scalar_problem(lambda x, a: -x, 0.5)
    x0 = np.array([0.123456789123456789])
    run = simulate_ensemble(problem, 0.0, x0, zero_signal(1), 1, n_steps=7,
                            seed=3)
    assert run.states[0, 0, 0] == x0[0]
    assert run.time_grid[0] == 0.0
    assert abs(run.time_grid[-1] - 1.0) < 1e-12
    assert len(run.time_grid) == 8


def test_constant_drift_integrates_exactly():
    problem = scalar_problem(lambda x, a: np.full_like(x, 0.75), 0.0)
    run = simulate_ensemble(problem, 0.0, np.array([1.0]), zero_signal(1), 1,
                            n_steps=160, seed=0)
    assert abs(run.states[0, -1, 0] - 1.75) < 1e-13


def test_zero_noise_runs_are_seed_independent():
    problem = scalar_problem(lambda x, a: np.sin(x), 0.0)
    a = simulate_ensemble(problem, 0.0, np.array([0.3]), zero_signal(1), 1,
                          seed=1)
    b = simulate_ensemble(problem, 0.0, np.array([0.3]), zero_signal(1), 1,
                          seed=2)
    np.testing.assert_array_equal(a.states, b.states)


def test_single_path_equals_ensemble_member_bitwise():
    problem = scalar_problem(lambda x, a: -x + a, 0.4)
    sig = ConstantSignal(np.array([0.2]))
    solo = simulate_ensemble(problem, 0.0, np.array([1.0]), sig, 1,
                             n_steps=50, seed=11)
    ens = simulate_ensemble(problem, 0.0, np.array([1.0]), sig, n_paths=4,
                            n_steps=50, seed=11)
    np.testing.assert_array_equal(solo.states[0], ens.states[0])


def test_costs_and_states_come_back_in_one_record():
    # both entry points run the one loop and return its record unchanged
    problem = scalar_problem(lambda x, a: -x + a, 0.4)
    sig = ConstantSignal(np.array([0.2]))
    ens = simulate_ensemble(problem, 0.0, np.array([1.0]), sig, n_paths=5,
                            n_steps=30, seed=12)
    run = simulate_costs(problem, 0.0, np.array([1.0]), sig, n_paths=5,
                         n_steps=30, seed=12)
    assert type(run) is type(ens)
    assert run.terminal_states.tobytes() == ens.states[:, -1].tobytes()
    np.testing.assert_array_equal(run.time_grid, ens.time_grid)
    assert ens.costs is None and run.states is None
    assert run.control_traces is None and run.sup_norm is None


def test_paths_do_not_depend_on_ensemble_size():
    problem = scalar_problem(lambda x, a: -x, 0.4)
    small = simulate_ensemble(problem, 0.0, np.array([1.0]), zero_signal(1),
                              n_paths=3, n_steps=40, seed=5)
    large = simulate_ensemble(problem, 0.0, np.array([1.0]), zero_signal(1),
                              n_paths=8, n_steps=40, seed=5)
    np.testing.assert_array_equal(small.states, large.states[:3])


def test_refinement_is_first_order_on_smooth_deterministic_instance():
    problem = build_reaction_diffusion(n_grid=10, noise_amp=0.0, reaction="tanh")
    x0 = np.sin(np.pi * np.arange(1, 11) / 11)
    sig = zero_signal(10)
    ref = simulate_ensemble(problem, 0.0, x0, sig, 1, n_steps=1600,
                            seed=0).states[0, -1]
    errs = []
    for m in (100, 200, 400):
        xm = simulate_ensemble(problem, 0.0, x0, sig, 1, n_steps=m,
                               seed=0).states[0, -1]
        errs.append(h_norm(problem.space, xm - ref))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 0.9)


# --- distributional checks ---------------------------------------------------


def test_ou_terminal_mean_and_variance():
    # OU via the generator path: A = -I handled by the semigroup, drift 0
    gen = make_custom_operator(-np.eye(1))
    problem = scalar_problem(lambda x, a: np.zeros_like(x), 1.0, generator=gen)
    x0 = np.array([1.5])
    ens = simulate_ensemble(problem, 0.0, x0, zero_signal(1), n_paths=10_000,
                            n_steps=200, seed=42)
    terminal = ens.states[:, -1, 0]
    var = terminal.var(ddof=1)
    se_mean = terminal.std(ddof=1) / 100.0
    se_var = var * np.sqrt(2.0 / 9999)
    assert abs(terminal.mean() - 1.5 * np.exp(-1.0)) < 3 * se_mean
    assert abs(var - ou_variance(1.0)) < 3 * se_var


def test_ou_drift_form_matches_generator_form_in_law():
    # same OU once through the drift, once through the generator; the two
    # discretizations differ at O(dt), so compare distributions loosely
    gen = make_custom_operator(-np.eye(1))
    p_gen = scalar_problem(lambda x, a: np.zeros_like(x), 1.0, generator=gen)
    p_drift = scalar_problem(lambda x, a: -x, 1.0)
    e1 = simulate_ensemble(p_gen, 0.0, np.array([0.0]), zero_signal(1),
                           n_paths=4000, n_steps=200, seed=7)
    e2 = simulate_ensemble(p_drift, 0.0, np.array([0.0]), zero_signal(1),
                           n_paths=4000, n_steps=200, seed=8)
    v1 = e1.states[:, -1, 0].var(ddof=1)
    v2 = e2.states[:, -1, 0].var(ddof=1)
    assert abs(v1 - v2) < 4 * v1 * np.sqrt(2.0 / 3999)


# --- coupling ----------------------------------------------------------------


def test_coupled_identical_inputs_are_bitwise_identical():
    problem = scalar_problem(lambda x, a: -x + a, 0.6)
    sig = ConstantSignal(np.array([0.1]))
    t1, t2 = (simulate_ensemble(problem, 0.0, np.array([1.0]), c, 1,
                                n_steps=30, seed=9, stream_label="coupled")
              for c in (sig, sig))
    np.testing.assert_array_equal(t1.states, t2.states)


def test_coupled_zero_noise_matches_independent_runs():
    problem = scalar_problem(lambda x, a: np.cos(x), 0.0)
    sig = zero_signal(1)
    t1, t2 = (simulate_ensemble(problem, 0.0, x0, sig, 1, n_steps=25, seed=1,
                                stream_label="coupled")
              for x0 in (np.array([0.2]), np.array([0.9])))
    s1 = simulate_ensemble(problem, 0.0, np.array([0.2]), sig, 1, n_steps=25,
                           seed=77)
    s2 = simulate_ensemble(problem, 0.0, np.array([0.9]), sig, 1, n_steps=25,
                           seed=78)
    np.testing.assert_array_equal(t1.states, s1.states)
    np.testing.assert_array_equal(t2.states, s2.states)


def test_coupled_gap_scales_linearly_with_initial_offset():
    problem = build_reaction_diffusion(n_grid=8, reaction="tanh", noise_amp=0.08,
                                       noise_modes=2)
    base = 0.4 * np.sin(np.pi * np.arange(1, 9) / 9)
    direction = np.cos(np.pi * np.arange(1, 9) / 9)
    eps = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    sig = zero_signal(8)
    gaps = []
    for e in eps:
        ens = [simulate_ensemble(problem, 0.0, x0, sig, 200, n_steps=60,
                                 seed=3, stream_label="coupled")
               for x0 in (base, base + e * direction)]
        diff = ens[1].states - ens[0].states
        sup = np.max(h_norm(problem.space, diff), axis=1)
        gaps.append(np.mean(sup**2))
    slope = np.polyfit(np.log(eps**2), np.log(gaps), 1)[0]
    assert abs(slope - 1.0) < 0.1


# --- control plumbing ---------------------------------------------------------


def test_piecewise_signal_is_applied_on_the_right_steps():
    problem = scalar_problem(lambda x, a: a, 0.0)
    sig = PiecewiseConstantSignal(
        knots=np.array([0.0, 0.5, 1.0]),
        values=np.array([[1.0], [-1.0]]),
    )
    run = simulate_ensemble(problem, 0.0, np.array([0.0]), sig, 1,
                            n_steps=100, seed=0)
    # integral of the signal is 0.5 - 0.5 = 0
    assert abs(run.states[0, -1, 0]) < 1e-12
    assert abs(run.states[0, 50, 0] - 0.5) < 1e-12
    trace = simulate_costs(problem, 0.0, np.array([0.0]), sig, 1, n_steps=100,
                           seed=0, record_controls=True).control_traces[0]
    np.testing.assert_array_equal(trace[:50], 1.0)
    np.testing.assert_array_equal(trace[50:], -1.0)


def test_trace_replay_reproduces_costs_bitwise():
    problem = scalar_problem(lambda x, a: -x + a, 0.5)
    sig = ConstantSignal(np.array([0.3]))
    run = simulate_costs(problem, 0.0, np.array([1.0]), sig, n_paths=32,
                         n_steps=40, seed=13, record_controls=True)
    from hjblab.controls import TraceSignal

    replay = TraceSignal(run.time_grid[:-1], run.control_traces)
    run2 = simulate_costs(problem, 0.0, np.array([1.0]), replay, n_paths=32,
                          n_steps=40, seed=13)
    np.testing.assert_array_equal(run.costs, run2.costs)


def test_control_dimension_mismatch_rejected():
    problem = scalar_problem(lambda x, a: a, 0.0)
    with pytest.raises(ValueError):
        simulate_ensemble(problem, 0.0, np.array([0.0]), zero_signal(2), 1,
                          seed=0)


def test_per_path_trace_path_count_must_match():
    problem = scalar_problem(lambda x, a: a, 0.0)
    grid = np.linspace(0, 1, 11)
    from hjblab.controls import TraceSignal

    trace = TraceSignal(grid[:-1], np.zeros((4, 10, 1)))
    with pytest.raises(ValueError):
        simulate_ensemble(problem, 0.0, np.array([0.0]), trace, n_paths=3,
                          n_steps=10, seed=0)


# --- cost accumulation ---------------------------------------------------------


def test_trapezoid_cost_on_deterministic_linear_instance():
    # dx = -x, l = x^2, g = x^2: J = int_0^1 e^{-2s} ds + e^{-2}
    #   = (1 - e^{-2})/2 + e^{-2}
    # the drift sits outside the generator, so the trajectory itself carries
    # an O(dt) Euler error; the tolerance reflects that, not the quadrature
    problem = scalar_problem(lambda x, a: -x, 0.0)
    run = simulate_costs(problem, 0.0, np.array([1.0]), zero_signal(1),
                         n_paths=1, n_steps=4000, seed=0)
    target = (1 - np.exp(-2)) / 2 + np.exp(-2)
    assert abs(run.costs[0] - target) < 2e-4


def test_partial_cost_sweep_excludes_terminal():
    problem = scalar_problem(lambda x, a: -x, 0.0)
    full = simulate_costs(problem, 0.0, np.array([1.0]), zero_signal(1),
                          n_paths=1, n_steps=100, seed=0, t_end=0.5,
                          include_terminal=False)
    # running cost over [0, 0.5] only: int e^{-2s} = (1 - e^{-1})/2
    assert abs(full.costs[0] - (1 - np.exp(-1)) / 2) < 5e-3
    assert abs(full.terminal_states[0, 0] - np.exp(-0.5)) < 5e-3


class _Counted:
    """A callback that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.mark.parametrize("n_steps", [1, 7])
def test_separated_cost_evaluates_l1_per_state_and_l2_per_step(n_steps):
    l1 = _Counted(lambda x: x[..., 0] ** 2)
    l2 = _Counted(lambda a: a[..., 0] ** 2)
    cost = CostStructure(l1=l1, l2=l2, dl2=lambda a: 2.0 * a,
                         dl2_inverse=lambda v: v / 2.0,
                         control_matrix=np.eye(1))
    problem = dataclasses.replace(scalar_problem(lambda x, a: a, 0.3),
                                  cost_structure=cost)
    simulate_costs(problem, 0.0, np.array([1.0]), ConstantSignal(np.array([0.5])),
                   n_paths=5, n_steps=n_steps, seed=1)
    assert (l1.calls, l2.calls) == (n_steps + 1, n_steps)


@pytest.mark.parametrize("n_steps", [1, 7])
def test_unseparated_cost_evaluates_running_cost_twice_per_step(n_steps):
    running = _Counted(lambda x, a: x[..., 0] ** 2 + a[..., 0] ** 2)
    problem = dataclasses.replace(scalar_problem(lambda x, a: a, 0.3),
                                  running_cost=running)
    simulate_costs(problem, 0.0, np.array([1.0]), ConstantSignal(np.array([0.5])),
                   n_paths=5, n_steps=n_steps, seed=1)
    assert running.calls == 2 * n_steps


@pytest.mark.parametrize("builder", [
    lambda: build_lq_benchmark()[0],
    build_reaction_diffusion,
    build_sdde_lift,
])
def test_separated_cost_path_matches_running_cost_path_bitwise(builder):
    # the separated path sums l1 and l2 exactly as running_cost does, so
    # dropping the structure must not move a bit of any path's cost
    problem = builder()
    plain = dataclasses.replace(problem, cost_structure=None)
    x = np.full(problem.dim, 0.7)
    signal = ControlFamily(draw_scale=1.0).sampled(problem, 0.0, 0, seed=5)
    policy = make_gamma_policy(problem, lambda s, xb: xb)
    for control in (signal, policy):
        runs = [simulate_costs(p, 0.0, x, control, n_paths=64, n_steps=30,
                               seed=11).costs for p in (problem, plain)]
        assert runs[0].tobytes() == runs[1].tobytes()


# --- path tiles -----------------------------------------------------------------

TILE_PATHS = 997
TILE_STEPS = 25


def tile_budget(problem, rows):
    """A tile byte budget that gives `problem` tiles of at most `rows` rows."""
    return 8 * problem.dim * rows


def run_all_outputs(problem, x, control, seed=17):
    """One run asked for every output, with its increment-memo counts."""
    gaussian_increments(0, "unrelated", 1, 1, 1, 1.0)  # the next request misses
    hits, misses = increment_memo.hits, increment_memo.misses
    run = engine._run(problem, 0.0, x, control, TILE_PATHS, TILE_STEPS, seed,
                      "paths", record_states=True, record_controls=True,
                      accumulate_costs=True, track_sup_norm=True)
    assert (increment_memo.hits, increment_memo.misses) == (hits, misses + 1)
    return run


def tile_controls(problem, case):
    """(initial state, control) for one tiling case."""
    rng = np.random.default_rng(23)
    q, n = problem.control_spec.dim, problem.dim
    x = np.full(n, 0.7)
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    if case == "gamma_box":
        return x, gamma
    if case == "per_path_states":
        return rng.normal(0.0, 0.5, (TILE_PATHS, n)), gamma
    if case == "piecewise":
        knots = np.linspace(0.0, problem.horizon, 5)
        return x, PiecewiseConstantSignal(knots, rng.normal(0.0, 1.0, (4, q)))
    step_times = (problem.horizon / TILE_STEPS) * np.arange(TILE_STEPS)
    values = rng.normal(0.0, 1.0, (TILE_PATHS, TILE_STEPS, q))
    return x, TraceSignal(step_times, values)


def multiplicative_reaction_diffusion():
    """reaction_diffusion with state-dependent noise, so noise_at is a callback."""
    problem = build_reaction_diffusion()
    sigma = problem.noise
    return dataclasses.replace(
        problem, noise=lambda x: sigma * (1.0 + 0.1 * np.tanh(x))[..., :, None])


@pytest.mark.parametrize("case", ["gamma_box", "per_path_states", "piecewise",
                                  "per_path_trace"])
@pytest.mark.parametrize("builder", [
    lambda: build_lq_benchmark(control_bound=0.6)[0],
    build_reaction_diffusion,
    multiplicative_reaction_diffusion,
    lambda: build_sdde_lift(control_bound=0.4),
], ids=["lq", "reaction_diffusion", "rd_multiplicative", "sdde"])
def test_tiled_run_matches_one_pass_bitwise(monkeypatch, builder, case):
    problem = builder()
    x, control = tile_controls(problem, case)
    assert len(engine._tile_bounds(TILE_PATHS, problem.dim)) == 1
    one_pass = run_all_outputs(problem, x, control)
    monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 256))
    bounds = engine._tile_bounds(TILE_PATHS, problem.dim)
    assert [lo for lo, _ in bounds] == [0, 256, 512, 768]
    tiled = run_all_outputs(problem, x, control)
    for field in ("costs", "terminal_states", "states", "control_traces",
                  "sup_norm"):
        assert getattr(tiled, field).tobytes() == getattr(one_pass, field).tobytes()
    assert tiled.clip_fraction == one_pass.clip_fraction
    if case == "gamma_box":
        assert tiled.clip_fraction > 0.0


@pytest.mark.parametrize("n_paths, max_rows, sizes", [
    (997, 256, [256, 256, 256, 229]),
    (1025, 1024, [576, 449]),      # balanced: no 1-row tail tile
    (200, 64, [64, 64, 64, 8]),
    (1536, 1536, [1536]),
])
def test_tiles_are_balanced_multiples_of_64(monkeypatch, n_paths, max_rows, sizes):
    monkeypatch.setattr(engine, "_TILE_BYTES", 8 * 3 * max_rows)
    bounds = engine._tile_bounds(n_paths, 3)
    assert [hi - lo for lo, hi in bounds] == sizes
    assert bounds[0][0] == 0 and bounds[-1][1] == n_paths
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_tile_budget_gives_the_documented_rows():
    assert len(engine._tile_bounds(1536, build_sdde_lift().dim)) == 1
    assert len(engine._tile_bounds(1537, build_sdde_lift().dim)) == 2
    assert len(engine._tile_bounds(2048, build_reaction_diffusion().dim)) == 1
    assert len(engine._tile_bounds(2049, build_reaction_diffusion().dim)) == 2


@pytest.mark.parametrize("blowup", ["overflow", "nan"])
def test_tiled_divergence_reports_the_one_pass_error(monkeypatch, blowup):
    # tile 0 diverges late; a path in the last tile diverges much earlier,
    # and the error must name that step and the magnitude over all paths
    if blowup == "overflow":
        drift, early, late = (lambda x, a: 5.0 * x), 1e7, 1e6
    else:
        def drift(x, a):
            return np.where(np.abs(x) > 1e3, np.nan, 5.0 * x)
        early, late = 500.0, 20.0
    problem = scalar_problem(drift, 0.0)
    x = np.full((TILE_PATHS, 1), late)
    x[-3] = early
    errors = []
    for budget in (engine._TILE_BYTES, tile_budget(problem, 256)):
        monkeypatch.setattr(engine, "_TILE_BYTES", budget)
        with pytest.raises(SimulationDivergenceError) as info:
            simulate_costs(problem, 0.0, x, zero_signal(1), TILE_PATHS,
                           n_steps=100, seed=0)
        errors.append(info.value)
    one_pass, tiled = errors
    assert 0 < tiled.step < 60
    assert (tiled.step, tiled.time) == (one_pass.step, one_pass.time)
    if blowup == "nan":
        assert math.isnan(tiled.magnitude) and math.isnan(one_pass.magnitude)
    else:
        assert tiled.magnitude == one_pass.magnitude


# --- the row-wise contract ------------------------------------------------------


ROW_CUTS = [0, 64, 320, 512, 997]  # 64-row-aligned slices of a 997-row batch


def pipeline_policies(kind, problem):
    """The policies the pipeline makes for a problem kind, by name."""
    if kind == "lq":
        _, oracle = build_lq_benchmark()
        sol = riccati_solve(oracle, np.linspace(0.0, problem.horizon, 801))
        base = make_riccati_policy(problem, sol)
        x_grid = np.array([[-1.0], [0.5], [1.5]])
    else:
        base = make_gamma_policy(problem, lambda s, xb: 8.0 * xb)
        x_grid = np.stack([np.full(problem.dim, 0.2), np.full(problem.dim, -0.4)])
    iterated = policy_iteration(
        problem, (0.0, 0.2), x_grid, n_rounds=1, seed=4,
        cfg=PolicyIterationConfig(paths_per_point=40, n_steps=8)).policy
    return {"riccati_or_gamma": base, "zero": zero_policy(problem),
            "scaled": scale_policy(base, 0.5), "policy_iteration": iterated}


@pytest.mark.parametrize("kind, builder", [
    ("lq", lambda: build_lq_benchmark(control_bound=0.6)[0]),
    ("reaction_diffusion", build_reaction_diffusion),
    ("reaction_diffusion", multiplicative_reaction_diffusion),
    ("sdde", lambda: build_sdde_lift(control_bound=0.4)),
], ids=["lq", "reaction_diffusion", "rd_multiplicative", "sdde"])
def test_callbacks_are_row_wise_on_aligned_slices(kind, builder):
    # the engine advances large ensembles in 64-row-aligned path tiles, which
    # is exact only if each callback gives a row the same bits in any batch
    problem = builder()
    rng = np.random.default_rng(31)
    x = rng.normal(0.0, 0.8, (ROW_CUTS[-1], problem.dim))
    a = rng.normal(0.0, 2.0, (ROW_CUTS[-1], problem.control_spec.dim))
    cost = problem.cost_structure
    calls = {
        "drift": lambda lo, hi: problem.drift(x[lo:hi], a[lo:hi]),
        "l1": lambda lo, hi: cost.l1(x[lo:hi]),
        "l2": lambda lo, hi: cost.l2(a[lo:hi]),
        "terminal_cost": lambda lo, hi: problem.terminal_cost(x[lo:hi]),
    }
    if not problem.additive_noise:
        calls["noise_at"] = lambda lo, hi: problem.noise_at(x[lo:hi])
    for name, policy in pipeline_policies(kind, problem).items():
        calls[name] = (lambda lo, hi, f=policy.feedback:
                       np.asarray(f(0.1, x[lo:hi]), dtype=float))
    for name, call in calls.items():
        whole = call(0, ROW_CUTS[-1])
        pieces = np.concatenate([call(lo, hi)
                                 for lo, hi in zip(ROW_CUTS, ROW_CUTS[1:])])
        assert whole.shape[0] == ROW_CUTS[-1], name
        assert pieces.tobytes() == whole.tobytes(), name


# --- guards -------------------------------------------------------------------


def test_divergence_error_names_the_step():
    problem = scalar_problem(lambda x, a: 5.0 * x, 0.0)
    with pytest.raises(SimulationDivergenceError) as info:
        simulate_ensemble(problem, 0.0, np.array([1e7]), zero_signal(1), 1,
                          n_steps=100, seed=0)
    assert info.value.step > 0
    assert "step" in str(info.value)


def test_time_window_validation():
    problem = scalar_problem(lambda x, a: x, 0.0)
    with pytest.raises(ValueError):
        simulate_ensemble(problem, 1.0, np.array([0.0]), zero_signal(1), 1,
                          seed=0)
    with pytest.raises(ValueError):
        simulate_costs(problem, 0.5, np.array([0.0]), zero_signal(1),
                       n_paths=1, seed=0, t_end=0.4)


# --- moment audit ---------------------------------------------------------------


def test_moment_bound_calibrated_passes_on_ou():
    gen = make_custom_operator(-np.eye(1))
    problem = scalar_problem(lambda x, a: np.zeros_like(x), 1.0, generator=gen)
    report = moment_bound_check(problem, 0.0, np.array([1.0]), zero_signal(1),
                                p=4.0, n_paths=2000, n_steps=100, seed=0)
    assert report.passed
    assert report.constants["calibrated"]
    assert report.constants["ratio"] <= 1.0


def test_moment_bound_estimate_stable_across_seeds():
    gen = make_custom_operator(-np.eye(1))
    problem = scalar_problem(lambda x, a: np.zeros_like(x), 1.0, generator=gen)
    reports = [
        moment_bound_check(problem, 0.0, np.array([1.0]), zero_signal(1),
                           p=4.0, n_paths=4000, n_steps=100, seed=s)
        for s in (0, 99)
    ]
    e0 = reports[0].constants["estimate"]
    e1 = reports[1].constants["estimate"]
    assert abs(e0 - e1) / e0 < 0.1


def test_moment_bound_scaling_in_initial_state():
    problem = scalar_problem(lambda x, a: 0.3 * x, 0.2)
    est = {}
    for scale in (1.0, 2.0):
        rep = moment_bound_check(problem, 0.0, np.array([5.0 * scale]),
                                 zero_signal(1), p=4.0, n_paths=1000,
                                 n_steps=80, seed=4)
        est[scale] = rep.constants["estimate"]
    assert est[2.0] <= 2.0**4 * 1.2 * est[1.0]


def test_moment_bound_frozen_constant_holds_across_seeds():
    # c_p frozen from the calibration path on seed 0 (x2 headroom built in)
    gen = make_custom_operator(-np.eye(1))
    problem = scalar_problem(lambda x, a: np.zeros_like(x), 1.0, generator=gen)
    c_frozen = 4.854115183642038
    for s in (1, 2, 3):
        rep = moment_bound_check(problem, 0.0, np.array([1.0]), zero_signal(1),
                                 p=4.0, n_paths=2000, n_steps=100, seed=s,
                                 c_p=c_frozen)
        assert rep.passed, rep.constants


def test_moment_audit_reduces_the_control_trace_in_place():
    # the (P, M, q) trace is the audit's largest array; squaring and
    # weighting it must not allocate further arrays of its size
    problem = build_reaction_diffusion()
    q = problem.control_spec.dim
    trace_bytes = 2000 * 100 * q * 8
    x0 = 0.3 * np.sin(np.pi * np.arange(1, q + 1) / (q + 1))
    tracemalloc.start()
    try:
        moment_bound_check(problem, 0.0, x0, ConstantSignal(np.full(q, 0.5)),
                           n_paths=2000, n_steps=100, seed=6, c_p=10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * trace_bytes, peak / trace_bytes


def test_moment_bound_rejects_small_p():
    problem = scalar_problem(lambda x, a: -x, 0.1)
    with pytest.raises(ValueError):
        moment_bound_check(problem, 0.0, np.array([1.0]), zero_signal(1), p=2.0)


# --- increments and CSV -----------------------------------------------------------


def test_gaussian_increments_variance_scaling():
    dw1 = gaussian_increments(5, "w", 4, 10, 2, dt=0.25)
    dw2 = gaussian_increments(5, "w", 4, 10, 2, dt=1.0)
    np.testing.assert_allclose(dw1, 0.5 * dw2, atol=1e-15)


def reference_increments(master_seed, label, n_paths, n_steps, n_w, dt):
    """The noise contract spelled out: one fresh stream per path, scaled by sqrt(dt)."""
    return np.stack([
        stream(master_seed, label, k).standard_normal((n_steps, n_w)) * math.sqrt(dt)
        for k in range(n_paths)
    ])


@pytest.mark.parametrize("master_seed", [5, 2**40 + 7])
@pytest.mark.parametrize("n_w", [1, 3])
def test_increment_path_k_is_stream_k(master_seed, n_w):
    dw = gaussian_increments(master_seed, "contract", 4, 6, n_w, 0.037)
    ref = reference_increments(master_seed, "contract", 4, 6, n_w, 0.037)
    assert dw.tobytes() == ref.tobytes()


def test_increment_paths_do_not_depend_on_path_count():
    small = gaussian_increments(3, "prefix", 4, 7, 2, 0.1).tobytes()
    big = gaussian_increments(3, "prefix", 4 + 5, 7, 2, 0.1)
    assert big[:4].tobytes() == small


def test_increment_block_frozen_digest():
    # pinned so a change of the noise path that moves any bit breaks loudly
    dw = gaussian_increments(42, "paths", 3, 5, 2, 1.0)
    assert hashlib.sha256(dw.tobytes()).hexdigest() == (
        "8fcc05c1ddea08f7558a7117a44cb8b28d737ceb2f7332988226de72fb95bc37"
    )


def test_repeated_request_returns_held_block_read_only():
    first = gaussian_increments(8, "memo", 3, 4, 2, 0.25)
    hits, misses = increment_memo.hits, increment_memo.misses
    again = gaussian_increments(8, "memo", 3, 4, 2, 0.25)
    assert again is first
    assert (increment_memo.hits, increment_memo.misses) == (hits + 1, misses)
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[0, 0, 0] = 1.0


@pytest.mark.parametrize("field, value", [
    ("master_seed", 9), ("label", "memo_other"), ("n_paths", 4),
    ("n_steps", 5), ("n_w", 1), ("dt", 0.5),
])
def test_request_differing_in_one_field_misses(field, value):
    base = dict(master_seed=8, label="memo", n_paths=3, n_steps=4, n_w=2, dt=0.25)
    gaussian_increments(**base)
    hits, misses = increment_memo.hits, increment_memo.misses
    request = dict(base, **{field: value})
    dw = gaussian_increments(**request)
    assert (increment_memo.hits, increment_memo.misses) == (hits, misses + 1)
    assert dw.tobytes() == reference_increments(**request).tobytes()


def test_interleaved_requests_return_first_bits_again():
    a_bits = gaussian_increments(8, "A", 3, 4, 2, 0.25).tobytes()
    misses = increment_memo.misses
    b = gaussian_increments(8, "B", 3, 4, 2, 0.25)
    assert increment_memo.block is b  # only the latest block is held
    again = gaussian_increments(8, "A", 3, 4, 2, 0.25)
    assert again.tobytes() == a_bits
    assert increment_memo.misses == misses + 2


def test_ensemble_csv_needs_a_record_with_states(tmp_path):
    problem = scalar_problem(lambda x, a: -x, 0.3)
    run = simulate_costs(problem, 0.0, np.array([1.0]), zero_signal(1),
                         n_paths=3, n_steps=5, seed=21)
    with pytest.raises(ValueError, match="no states"):
        write_ensemble_csv(tmp_path / "paths.csv", run)


def test_ensemble_csv_round_trip(tmp_path):
    problem = scalar_problem(lambda x, a: -x, 0.3)
    ens = simulate_ensemble(problem, 0.0, np.array([1.0]), zero_signal(1),
                            n_paths=3, n_steps=5, seed=21)
    out = tmp_path / "paths.csv"
    write_ensemble_csv(out, ens)
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert len(data) == 3 * 6
    recovered = data["x0"].reshape(3, 6)
    np.testing.assert_array_equal(recovered, ens.states[:, :, 0])
    np.testing.assert_array_equal(data["time"].reshape(3, 6)[0], ens.time_grid)
