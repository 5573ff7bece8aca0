"""Simulation engine: exactness, distributional checks, coupling, audits.

Closed-form oracles first; the frozen constants in the moment tests were
produced by the calibration path of moment_bound_check on the stated seeds
and then pinned.
"""

import dataclasses
import fractions
import hashlib
import itertools
import math
import mmap
import os
import signal
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab import engine
from hjblab.controls import (
    ConstantSignal,
    PiecewiseConstantSignal,
    zero_signal,
)
from hjblab.engine import (
    SimulationDivergenceError,
    gaussian_increments,
    increment_memo,
    moment_bound_check,
    simulate_costs,
    simulate_costs_batch,
    simulate_ensemble,
    simulate_sup,
    write_ensemble_csv,
)
from hjblab.hilbert import (
    DiscreteOperator,
    BOperatorSpec,
    SpaceSpec,
    h_norm,
    make_zero_operator,
    semigroup_matrix,
    space_norm,
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
    Policy,
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
    # both entry points run the one loop and return its record unchanged,
    # holding only the fields they were asked for: terminal states too
    problem = scalar_problem(lambda x, a: -x + a, 0.4)
    sig = ConstantSignal(np.array([0.2]))
    ens = simulate_ensemble(problem, 0.0, np.array([1.0]), sig, n_paths=5,
                            n_steps=30, seed=12)
    run = simulate_costs(problem, 0.0, np.array([1.0]), sig, n_paths=5,
                         n_steps=30, seed=12, terminal_states=True)
    plain = simulate_costs(problem, 0.0, np.array([1.0]), sig, n_paths=5,
                           n_steps=30, seed=12)
    assert type(run) is type(ens) is type(plain)
    assert run.terminal_states.tobytes() == ens.states[:, -1].tobytes()
    assert plain.costs.tobytes() == run.costs.tobytes()
    np.testing.assert_array_equal(run.time_grid, ens.time_grid)
    assert ens.costs is None and run.states is None
    assert ens.terminal_states is None and plain.terminal_states is None


def test_record_shapes_name_the_path_ensemble_fields():
    # the step loop and the records read the stacked outputs by these keys
    problem = scalar_problem(lambda x, a: -x + a, 0.4)
    request = engine._prepare(problem, 0.0, np.array([1.0]), zero_signal(1),
                              4, 3, 0, "shapes")
    names = [f.name for f in dataclasses.fields(engine.PathEnsemble)]
    assert list(engine._record_shapes(problem, request, ())) == names[1:]


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
    gen = DiscreteOperator(-np.eye(1), kind="custom")
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
    gen = DiscreteOperator(-np.eye(1), kind="custom")
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
    # with drift a and no noise, each step moves the state by dt * a_k
    applied = np.diff(run.states[0, :, 0]) / 0.01
    np.testing.assert_allclose(applied[:50], 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(applied[50:], -1.0, rtol=0, atol=1e-9)


def test_constant_feedback_equals_its_signal_bitwise():
    # the engine's two control kinds, a feedback map and a signal, fill the
    # step's controls by different code; on the same values inside the box
    # they give the same bits, run alone and as contestants of one call
    problem = build_reaction_diffusion()
    q = problem.control_spec.dim
    value = np.linspace(-2.0, 3.0, q)
    policy = Policy(feedback=lambda s, xb: np.broadcast_to(value, (len(xb), q)),
                    provenance="oracle")
    signal = ConstantSignal(value)
    x = np.full(problem.dim, 0.7)
    alone = [engine_run(problem, [(x, c)], 97, 30, 13)[0] for c in (policy, signal)]
    together = engine_run(problem, [(x, policy), (x, signal)], 97, 30, 13)
    for run in alone[1:] + together:
        for field in ALL_FIELDS:
            assert (getattr(run, field).tobytes()
                    == getattr(alone[0], field).tobytes()), field
    assert np.all(applied_controls(problem, alone[0], policy) == value)


def test_control_dimension_mismatch_rejected():
    problem = scalar_problem(lambda x, a: a, 0.0)
    with pytest.raises(ValueError):
        simulate_ensemble(problem, 0.0, np.array([0.0]), zero_signal(2), 1,
                          seed=0)


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
    # a shorter sweep is a run of the problem cut at 0.5 with no terminal cost
    problem = dataclasses.replace(
        scalar_problem(lambda x, a: -x, 0.0), horizon=0.5,
        terminal_cost=lambda x: np.zeros(x.shape[:-1]))
    full = simulate_costs(problem, 0.0, np.array([1.0]), zero_signal(1),
                          n_paths=1, n_steps=100, seed=0, terminal_states=True)
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
    # l2 once per step on a feedback map's controls, and once per run on a
    # signal's distinct rows, which the steps read; the costs agree
    costs = []
    for control, l2_calls in ((Policy(feedback=lambda s, xb: np.full((len(xb), 1), 0.5),
                                      provenance="oracle"), n_steps),
                              (ConstantSignal(np.array([0.5])), 1)):
        l1 = _Counted(lambda x: x[..., 0] ** 2)
        l2 = _Counted(lambda a: a[..., 0] ** 2)
        cost = CostStructure(l1=l1, l2=l2, dl2_inverse=lambda v: v / 2.0,
                             control_matrix=np.eye(1))
        problem = dataclasses.replace(scalar_problem(lambda x, a: a, 0.3),
                                      cost_structure=cost)
        costs.append(simulate_costs(problem, 0.0, np.array([1.0]), control,
                                    n_paths=5, n_steps=n_steps, seed=1).costs)
        assert (l1.calls, l2.calls) == (n_steps + 1, l2_calls)
    assert costs[0].tobytes() == costs[1].tobytes()


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


def fan_out(monkeypatch, processes):
    """Let every later run use up to `processes` processes, whatever its size."""
    monkeypatch.setattr(engine, "_PROCESSES", processes)
    monkeypatch.setattr(engine, "_FORK_MIN_WORK", 1)


def stream_every_block(monkeypatch):
    """Stream every later block that a call reads through one request."""
    monkeypatch.setattr(engine, "_HOLD_BYTES", 0)


def count_forks(monkeypatch):
    """A list that gains one entry per os.fork call of this process."""
    forks, real_fork, parent = [], os.fork, os.getpid()

    def fork():
        if os.getpid() == parent:
            forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_children():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


ALL_FIELDS = ("terminal_states", "states", "costs")


def engine_run(problem, contestants, n_paths, n_steps, seed, fields=ALL_FIELDS,
               reductions=()):
    """One request of (x, control) contestants from t = 0 through the
    engine's one entry into the step loop; a record per contestant, and
    with reductions their outputs."""
    xs, controls = (list(c) for c in zip(*contestants))
    return engine._simulate(problem, [(0.0, xs, controls, n_paths, n_steps, seed,
                                       "paths")], fields, reductions)[0]


def running_max(fn, width):
    """The reductions of a running maximum of fn, (rows, width)."""
    return (engine._Reduction("max", fn, width),)


def applied_controls(problem, record, control):
    """The (P, M, q) controls a run applied, rebuilt from its recorded
    states and time grid: a feedback map at each step's left state,
    clipped into the box, or a signal's values."""
    grid, states = record.time_grid[:-1], record.states
    if not hasattr(control, "feedback"):
        values = control.values_on(grid)
        return np.broadcast_to(values, (len(states),) + values.shape)
    a = np.stack([np.asarray(control.feedback(s, states[:, k]), dtype=float)
                  for k, s in enumerate(grid)], axis=1)
    box = problem.control_spec.box
    return a if box is None else np.clip(a, box[0], box[1])


def run_all_outputs(problem, x, control, seed=17):
    """One run asked for every output, with its increment-memo counts."""
    gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
    hits, misses = increment_memo.hits, increment_memo.misses
    run, = engine_run(problem, [(x, control)], TILE_PATHS, TILE_STEPS, seed)
    assert (increment_memo.hits, increment_memo.misses) == (hits, misses + 1)
    return run


def on_box(problem, traces):
    """Whether some applied control entry sits on the problem's box."""
    lo, hi = problem.control_spec.box
    return bool(np.any((traces <= lo) | (traces >= hi)))


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
    knots = np.linspace(0.0, problem.horizon, 5)
    return x, PiecewiseConstantSignal(knots, rng.normal(0.0, 1.0, (4, q)))


def multiplicative_reaction_diffusion():
    """reaction_diffusion with state-dependent noise, so noise_at is a callback."""
    problem = build_reaction_diffusion()
    sigma = problem.noise
    return dataclasses.replace(
        problem, noise=lambda x: sigma * (1.0 + 0.1 * np.tanh(x))[..., :, None])


@pytest.mark.parametrize("case", ["gamma_box", "per_path_states", "piecewise"])
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
    for field in ALL_FIELDS:
        assert getattr(tiled, field).tobytes() == getattr(one_pass, field).tobytes()
    if case == "gamma_box":
        assert on_box(problem, applied_controls(problem, tiled, control))


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
    # and the error must name that step and the magnitude over all paths,
    # in one process or across 2 or 3, where tile 0 is this process's and
    # the last tile a child's
    if blowup == "overflow":
        drift, early, late = (lambda x, a: 5.0 * x), 1e7, 1e6
    else:
        def drift(x, a):
            return np.where(np.abs(x) > 1e3, np.nan, 5.0 * x)
        early, late = 500.0, 20.0
    problem = scalar_problem(drift, 0.0)
    x = np.full((TILE_PATHS, 1), late)
    x[-3] = early
    forks = count_forks(monkeypatch)
    errors = []
    for budget, processes in ((engine._TILE_BYTES, 1),
                              *((tile_budget(problem, 256), p) for p in (1, 2, 3))):
        monkeypatch.setattr(engine, "_TILE_BYTES", budget)
        fan_out(monkeypatch, processes)
        forks.clear()
        with pytest.raises(SimulationDivergenceError) as info:
            simulate_costs(problem, 0.0, x, zero_signal(1), TILE_PATHS,
                           n_steps=100, seed=0)
        errors.append(info.value)
        assert len(forks) == processes - 1
        assert_no_children()
    one_pass = errors[0]
    for tiled in errors[1:]:
        assert 0 < tiled.step < 60
        assert str(tiled) == str(one_pass)
        assert (tiled.step, tiled.time) == (one_pass.step, one_pass.time)
        if blowup == "nan":
            assert math.isnan(tiled.magnitude) and math.isnan(one_pass.magnitude)
        else:
            assert tiled.magnitude == one_pass.magnitude


# --- contestant groups ----------------------------------------------------------


def group_contestants(problem, n_paths, controls="mixed"):
    """(initial state, control) contestants of every kind for one request;
    with controls="shared", one policy object drives four of the five, three
    of them adjacent, from different starting states."""
    rng = np.random.default_rng(29)
    q, n = problem.control_spec.dim, problem.dim
    x = np.full(n, 0.7)
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    per_path = rng.normal(0.0, 0.5, (n_paths, n))
    if controls == "shared":
        return [(x, gamma), (-x, gamma), (per_path, gamma),
                (0.3 * x, scale_policy(gamma, 0.5)), (0.5 * x, gamma)]
    knots = np.linspace(0.0, problem.horizon, 5)
    return [
        (x, gamma),
        (x, zero_signal(q)),
        (-x, PiecewiseConstantSignal(knots, rng.normal(0.0, 1.0, (4, q)))),
        (per_path, scale_policy(gamma, 0.5)),
    ]


def run_contestants(problem, contestants, n_paths):
    return engine_run(problem, contestants, n_paths, TILE_STEPS, 17)


GROUP_SIZES = {
    "default": None,
    "pairs": 2,           # a group holds two contestants
    "tiled": 1,           # each contestant alone, in 64-row tiles
}
# the shared-policy contestants at two of those budgets
SHARED_BUDGETS = {"shared_default": "default", "shared_tiled": "tiled"}


@pytest.mark.parametrize("budget", list(GROUP_SIZES) + list(SHARED_BUDGETS))
@pytest.mark.parametrize("n_paths", [150, 997])
@pytest.mark.parametrize("builder", [
    lambda: build_lq_benchmark(control_bound=0.6)[0],
    build_reaction_diffusion,
    multiplicative_reaction_diffusion,
    lambda: build_sdde_lift(control_bound=0.4),
], ids=["lq", "reaction_diffusion", "rd_multiplicative", "sdde"])
def test_grouped_contestants_match_their_own_runs_bitwise(
        monkeypatch, builder, n_paths, budget):
    problem = builder()
    controls = "shared" if budget in SHARED_BUDGETS else "mixed"
    budget = SHARED_BUDGETS.get(budget, budget)
    contestants = group_contestants(problem, n_paths, controls)
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    alone = [run_contestants(problem, [c], n_paths)[0] for c in contestants]
    state_bytes = 8 * problem.dim * n_paths
    if budget == "pairs":
        monkeypatch.setattr(engine, "_TILE_BYTES", 4 * state_bytes)
    elif budget == "tiled":
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 64))
        assert len(engine._tile_bounds(n_paths, problem.dim)) > 1
    groups = engine._group_bounds(len(contestants), n_paths, problem.dim)
    if GROUP_SIZES[budget] is not None:
        size = GROUP_SIZES[budget]
        assert [g1 - g0 for g0, g1 in groups] == [size] * (len(contestants) // size)
    elif n_paths == 150:
        assert groups == [(0, len(contestants))]
    # in one process, then across 2 and 3: the request, whose block the
    # memo holds, in shares of equal rows cut at 64-aligned paths, each
    # process running every group on its rows
    forks = count_forks(monkeypatch)
    slabs = max(1, n_paths // 64)
    for processes in (1, 2, 3):
        fan_out(monkeypatch, processes)
        forks.clear()
        shares = engine._deal(n_paths, processes)
        assert len(shares) == min(processes, slabs)
        assert_dealt(n_paths, shares)
        together = run_contestants(problem, contestants, n_paths)
        assert len(forks) == len(shares) - 1
        assert_no_children()
        assert len(together) == len(contestants)
        for one, mine in zip(alone, together):
            for field in ALL_FIELDS:
                assert (getattr(mine, field).tobytes()
                        == getattr(one, field).tobytes()), (processes, field)
        assert on_box(problem, applied_controls(problem, together[0],
                                                contestants[0][1]))


@pytest.mark.parametrize("n_contestants, per_group, sizes", [
    (13, 27, [13]),
    (12, 6, [6, 6]),
    (7, 6, [3, 4]),            # balanced: no lone tail contestant
    (3, 1, [1, 1, 1]),
    (0, 4, []),
])
def test_groups_are_balanced_within_half_a_tile(monkeypatch, n_contestants,
                                                per_group, sizes):
    n_paths, n = 100, 2
    monkeypatch.setattr(engine, "_TILE_BYTES", 2 * 8 * n * n_paths * per_group)
    groups = engine._group_bounds(n_contestants, n_paths, n)
    assert [g1 - g0 for g0, g1 in groups] == sizes
    # contiguous ranges from 0 to n_contestants
    assert [0] + [g1 for _, g1 in groups] == [g0 for g0, _ in groups] + [n_contestants]


class _CountingPolicy:
    """A zero feedback map that records the rows of each call."""

    def __init__(self):
        self.rows = []

    def feedback(self, s, x_batch):
        self.rows.append(x_batch.shape[0])
        return np.zeros((x_batch.shape[0], 1))


@pytest.mark.parametrize("n_paths, tile_rows, groups, tiles", [
    (150, None, [4], 1),
    (150, 600, [2, 2], 1),
    (997, 256, [1] * 4, 4),     # each contestant alone
], ids=["one_group", "two_groups", "four_tiles"])
def test_shared_policy_is_called_once_per_step_per_group_and_tile(
        monkeypatch, n_paths, tile_rows, groups, tiles):
    problem = build_lq_benchmark(control_bound=0.6)[0]
    if tile_rows is not None:
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, tile_rows))
    assert [g1 - g0 for g0, g1 in engine._group_bounds(4, n_paths, 1)] == groups
    assert len(engine._tile_bounds(n_paths, 1)) == tiles
    policy = _CountingPolicy()
    starts = [np.array([s]) for s in (-1.0, 0.0, 0.5, 2.0)]
    engine_run(problem, [(x, policy) for x in starts], n_paths, TILE_STEPS, 3,
               ("costs",))
    assert len(policy.rows) == len(groups) * tiles * TILE_STEPS
    assert sum(policy.rows) == 4 * n_paths * TILE_STEPS


def test_shared_policy_call_spans_adjacent_contestants_only():
    problem = build_lq_benchmark(control_bound=0.6)[0]
    policy = _CountingPolicy()
    x = np.array([1.0])
    contestants = [(x, policy), (x, policy), (x, zero_signal(1)), (x, policy)]
    engine_run(problem, contestants, 150, TILE_STEPS, 3, ("costs",))
    assert policy.rows == [300, 150] * TILE_STEPS


@pytest.mark.parametrize("blowup, statistic", [
    (blowup, statistic) for statistic in ((), running_max(lambda X: X.max(axis=0), 1))
    for blowup in ("overflow", "nan")],
    ids=["overflow", "nan", "overflow-statistic", "nan-statistic"])
def test_grouped_divergence_reports_that_contestants_own_error(monkeypatch,
                                                               blowup, statistic):
    # contestant 2 of 4 diverges, on one path of the last 64-row tile;
    # contestant 4 diverges earlier, on every path, but the error must be
    # contestant 2's, as in a run of each contestant in turn, in one process
    # or across 2 or 3, where the group's one tile is cut in halves. So too
    # in 64-row tiles, where each contestant is a group of its own and
    # contestant 4 diverges in the first tile, and on a streamed block,
    # drawn tile by tile, as is every block of several tiles. A running
    # statistic, which puts every contestant in one group, changes none of it
    if blowup == "overflow":
        drift, starts = (lambda x, a: 5.0 * x), (1.0, 1e7, 1.0, 5e7)
    else:
        def drift(x, a):
            return np.where(np.abs(x) > 1e3, np.nan, 5.0 * x)
        starts = (1.0, 20.0, 1.0, 500.0)
    problem = scalar_problem(drift, 0.2)
    contestants = [(np.array([s]), zero_signal(1)) for s in starts]
    late = np.full((150, 1), 1.0)
    late[140] = starts[1]
    contestants[1] = (late, zero_signal(1))
    assert engine._group_bounds(4, 150, 1) == [(0, 4)]

    forks = count_forks(monkeypatch)

    def error_of(group, processes=1, statistic=()):
        fan_out(monkeypatch, processes)
        forks.clear()
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        with pytest.raises(SimulationDivergenceError) as info:
            engine_run(problem, group, 150, 100, 0, ("costs",), statistic)
        assert len(forks) == (processes > 1)
        assert_no_children()
        return info.value

    own, first = error_of([contestants[1]]), error_of([contestants[3]])
    assert first.step < own.step
    assert str(error_of([contestants[3]], statistic=statistic)) == str(first)
    budgets = engine._TILE_BYTES, engine._HOLD_BYTES
    for tiled, streamed in itertools.product((False, True), repeat=2):
        monkeypatch.setattr(engine, "_TILE_BYTES", budgets[0])
        monkeypatch.setattr(engine, "_HOLD_BYTES", budgets[1])
        if tiled:
            monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 64))
            assert engine._group_bounds(4, 150, 1) == [(c, c + 1) for c in range(4)]
            assert engine._tile_bounds(150, 1)[-1] == (128, 150)
        if streamed:
            stream_every_block(monkeypatch)
        for processes in (1, 2, 3):
            grouped = error_of(contestants, processes, statistic)
            assert str(grouped) == str(own)
            assert (grouped.step, grouped.time) == (own.step, own.time)
            if blowup == "nan":
                assert math.isnan(grouped.magnitude) and math.isnan(own.magnitude)
            else:
                assert grouped.magnitude == own.magnitude
            assert (increment_memo.request is None) == (streamed or tiled)


# --- running statistic ----------------------------------------------------------


def gap_statistic(norm):
    """The stacked states' statistic of the pathwise audits: each
    contestant's gap norm to contestant 0, then -(X[0] - X[1]) per
    component, the comparison audit's flipped order gap."""
    def statistic(X):
        return np.concatenate([norm(X[1:] - X[0]).T, -(X[0] - X[1])], axis=1)
    return statistic


def recorded_gap_statistic(norm, runs):
    """gap_statistic reduced from recorded states the way the audits reduced
    them: the norms of whole (P, M+1, N) differences and the (P, M+1, N)
    order gap; per path and column the first step at the maximum over
    steps, and the value there."""
    base = runs[0].states
    values = np.concatenate(
        [np.stack([norm(r.states - base) for r in runs[1:]], axis=-1),
         -(base - runs[1].states)], axis=-1)
    first = np.argmax(values, axis=1)
    return np.take_along_axis(values, first[:, None], axis=1)[:, 0], first


@pytest.mark.parametrize("norm_tag", ["H", "minus1"])
@pytest.mark.parametrize("mode", ["serial", "forked", "tiled"])
@pytest.mark.parametrize("builder", [build_reaction_diffusion, build_sdde_lift],
                         ids=["reaction_diffusion", "sdde"])
def test_running_max_is_the_recorded_reduction_bitwise(monkeypatch, builder,
                                                       mode, norm_tag):
    # the engine's per-path maximum over steps 0..M of a statistic, and the
    # first step that reaches it, against the states simulate_ensemble
    # records reduced afterwards, bit for bit: in one pass, across two
    # processes, and in tiles of the stacked (C, rows, N) state. Contestant
    # 1 repeats contestant 0, so its gap norm is 0 at every step and its
    # first step is 0; the minus1 norm is one gemm on (rows, N) per step in
    # place of one on the whole (P, M+1, N) difference, with the same bits
    problem = builder()
    n, n_paths, n_steps = problem.dim, 300, 30
    norm = space_norm(problem.space, problem.b_op, norm_tag)
    x0 = 0.3 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    u = np.cos(np.arange(n)) / np.linalg.norm(np.cos(np.arange(n)))
    xs = [x0, x0.copy(), x0 + 0.5 * u, x0 - 0.25 * u]
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    controls = [gamma, gamma, zero_signal(problem.control_spec.dim), gamma]
    args = (problem, 0.0, xs, controls, n_paths, n_steps, 8, "stat")
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    want, want_step = recorded_gap_statistic(norm, simulate_ensemble(*args))
    forks = count_forks(monkeypatch)
    if mode == "forked":
        fan_out(monkeypatch, 2)
    elif mode == "tiled":
        monkeypatch.setattr(engine, "_TILE_BYTES", 8 * len(xs) * n * 64)
        assert len(engine._tile_bounds(n_paths, len(xs) * n)) > 1
    peak, step = simulate_sup(*args, gap_statistic(norm), len(xs) - 1 + n)
    assert len(forks) == (mode == "forked")
    assert_no_children()
    assert peak.shape == step.shape == (n_paths, len(xs) - 1 + n)
    assert step.dtype == np.int64
    assert peak.tobytes() == want.tobytes()
    assert step.tobytes() == want_step.tobytes()
    assert np.all(peak[:, 0] == 0.0) and np.all(step[:, 0] == 0)
    assert np.any(step[:, 1:] > 0) and np.any(step[:, 1:] < n_steps)


def test_statistic_of_the_wrong_shape_is_refused():
    problem = scalar_problem(lambda x, a: -x, 0.1)
    with pytest.raises(ValueError, match="statistic gave shape"):
        simulate_sup(problem, 0.0, np.array([1.0]), zero_signal(1), 10, 5, 0,
                     "stat", lambda X: X[0], 2)


def step_statistic(X, A, X_next):
    """A sum reduction's map of the stacked arrays: per contestant
    ||a_k||^2 and <X_k, X_{k+1}>, (rows, 2C)."""
    return np.concatenate([np.sum(A * A, axis=-1).T,
                           np.sum(X * X_next, axis=-1).T], axis=1)


def recorded_step_sums(problem, records, controls):
    """step_statistic summed over steps 0..M-1, step by step, on recorded
    states and the controls rebuilt from them."""
    applied = [applied_controls(problem, r, c) for r, c in zip(records, controls)]
    total = np.zeros((len(records[0].states), 2 * len(records)))
    for k in range(len(records[0].time_grid) - 1):
        total += np.stack(
            [np.sum(a[:, k] * a[:, k], axis=-1) for a in applied]
            + [np.sum(r.states[:, k] * r.states[:, k + 1], axis=-1) for r in records],
            axis=1)
    return total


@pytest.mark.parametrize("mode", ["serial", "forked_2", "forked_3", "tiled"])
@pytest.mark.parametrize("builder", [build_reaction_diffusion, build_sdde_lift],
                         ids=["reaction_diffusion", "sdde"])
def test_running_sum_is_the_recorded_reduction(monkeypatch, builder, mode):
    # the engine's per-path sum over steps 0..M-1 of fn(X_k, A_k, X_{k+1})
    # against the recorded states and the controls rebuilt from them and
    # the policy, within 1e-12 relative: in one pass, across two and three
    # processes, and in tiles of the stacked (C, rows, N) state
    problem = builder()
    n, n_paths, n_steps = problem.dim, 300, 30
    x0 = 0.3 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    signal = PiecewiseConstantSignal(
        np.linspace(0.0, problem.horizon, 4),
        np.random.default_rng(5).normal(0.0, 1.0, (3, problem.control_spec.dim)))
    contestants = [(x0, gamma), (-x0, signal), (0.5 * x0, scale_policy(gamma, 0.5))]
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    records = engine_run(problem, contestants, n_paths, n_steps, 8, ("states",))
    want = recorded_step_sums(problem, records, [c for _, c in contestants])
    forks, processes = count_forks(monkeypatch), 1
    if mode.startswith("forked"):
        processes = int(mode[-1])
        fan_out(monkeypatch, processes)
    elif mode == "tiled":
        monkeypatch.setattr(engine, "_TILE_BYTES", 8 * len(contestants) * n * 64)
        assert len(engine._tile_bounds(n_paths, len(contestants) * n)) > 1
    width = 2 * len(contestants)
    runs, total = engine_run(problem, contestants, n_paths, n_steps, 8, (),
                             (engine._Reduction("sum", step_statistic, width),))
    assert len(forks) == processes - 1
    assert_no_children()
    assert all(r.states is None and r.costs is None for r in runs)
    assert total.shape == (n_paths, width)
    np.testing.assert_allclose(total, want, rtol=1e-12, atol=0)
    assert np.all(want[:, :len(contestants)] > 0)


@pytest.mark.parametrize("mode", ["serial", "forked_2", "forked_3", "tiled"])
def test_terminal_states_are_recorded_on_request(monkeypatch, mode):
    # simulate_costs records no state unless asked for the terminal ones,
    # and those are the last states simulate_ensemble records, bit for bit,
    # in one pass, across two and three processes, and in 64-row tiles
    problem = build_sdde_lift(control_bound=0.4)
    xs, controls = (list(c) for c in zip(*group_contestants(problem, 300)))
    args = (problem, 0.0, xs, controls, 300, TILE_STEPS, 17)
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    recorded = simulate_ensemble(*args)
    forks, processes = count_forks(monkeypatch), 1
    if mode.startswith("forked"):
        processes = int(mode[-1])
        fan_out(monkeypatch, processes)
    elif mode == "tiled":
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 64))
        assert len(engine._tile_bounds(300, problem.dim)) > 1
    asked = simulate_costs(*args, terminal_states=True)
    plain = simulate_costs(*args)
    assert len(forks) == 2 * (processes - 1)
    assert_no_children()
    for ens, run, bare in zip(recorded, asked, plain):
        assert run.terminal_states.tobytes() == ens.states[:, -1].tobytes()
        assert run.costs.tobytes() == bare.costs.tobytes()
        assert bare.terminal_states is None and bare.states is None
        assert ens.terminal_states is None and run.states is None


# --- processes ------------------------------------------------------------------


def count_all_forks(monkeypatch):
    """A one-entry counter in shared memory that every os.fork call adds 1
    to, in this process or in any process it forks."""
    count, real_fork = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64), os.fork

    def fork():
        count[0] += 1
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return count


def refusing_drift(x, a):
    """-x, except that it refuses a batch holding a state beyond 5."""
    bad = np.abs(x[:, 0]) > 5.0
    if bad.any():
        raise ValueError(f"drift refuses {int(bad.sum())} rows at "
                         f"{float(x[bad][0, 0]):.6g}")
    return -x


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("row", [900, 10], ids=["child", "parent"])
def test_callback_error_in_one_share_reports_the_serial_error(
        monkeypatch, row, processes):
    # four 256-row tiles: tile 0 is this process's, the last a child's; a
    # callback that raises on one path's rows raises the serial run's error
    # wherever that path runs, and no child is left behind
    problem = scalar_problem(refusing_drift, 0.1)
    monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 256))
    x = np.full((TILE_PATHS, 1), 0.5)
    x[row] = 9.0
    forks = count_forks(monkeypatch)
    errors = []
    for procs in (1, processes):
        fan_out(monkeypatch, procs)
        with pytest.raises(ValueError) as info:
            simulate_costs(problem, 0.0, x, zero_signal(1), TILE_PATHS,
                           n_steps=TILE_STEPS, seed=0)
        errors.append(info.value)
        assert_no_children()
    assert len(forks) == processes - 1
    serial, fanned = errors
    assert type(fanned) is type(serial) and str(fanned) == str(serial)


def test_a_child_killed_by_a_signal_reruns_serially(monkeypatch):
    parent = os.getpid()

    def drift(x, a):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return -x

    problem = scalar_problem(drift, 0.3)
    monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 256))
    forks = count_forks(monkeypatch)
    runs = []
    for procs in (1, 2):
        fan_out(monkeypatch, procs)
        runs.append(simulate_costs(problem, 0.0, np.array([0.5]),
                                   zero_signal(1), TILE_PATHS,
                                   n_steps=TILE_STEPS, seed=0,
                                   terminal_states=True))
        assert_no_children()
    assert len(forks) == 1
    serial, rerun = runs
    assert rerun.costs.tobytes() == serial.costs.tobytes()
    assert rerun.terminal_states.tobytes() == serial.terminal_states.tobytes()


def test_runs_below_the_fork_threshold_never_fork(monkeypatch):
    problem = build_reaction_diffusion()
    contestants = group_contestants(problem, 150)
    assert 150 * TILE_STEPS * (5 * problem.dim + problem.noise_dim) < engine._FORK_MIN_WORK
    monkeypatch.setattr(engine, "_PROCESSES", 2)
    refused = []

    def no_fork():
        refused.append(1)
        raise OSError("fork refused")
    monkeypatch.setattr(os, "fork", no_fork)
    small = run_contestants(problem, contestants, 150)
    assert not refused
    # past the threshold the run forks; a refused fork runs it serially
    monkeypatch.setattr(engine, "_FORK_MIN_WORK", 1)
    fallback = run_contestants(problem, contestants, 150)
    assert refused == [1]
    for want, got in zip(small, fallback):
        for field in ALL_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def assert_dealt(n_paths, shares):
    """The shares of engine._deal(n_paths, len(shares)) cover rows 0:n_paths
    once, in order; the rows are 64-row slabs, the last taking their rest,
    and each cut lies at the slab boundary nearest its even split, the lower
    one on a tie, among those that leave every share a slab or more."""
    assert [lo for lo, _ in shares] == [0] + [hi for _, hi in shares[:-1]]
    assert shares[-1][1] == n_paths
    boundaries = [64 * k for k in range(max(1, n_paths // 64))] + [n_paths]
    for s, (lo, cut) in enumerate(shares[:-1], 1):
        split = fractions.Fraction(n_paths * s, len(shares))
        allowed = [b for b in boundaries[:len(boundaries) - len(shares) + s] if b > lo]
        assert cut == min(allowed, key=lambda b: (abs(b - split), b))


@given(n_paths=st.integers(1, 30000), processes=st.integers(2, 8))
@settings(max_examples=300, deadline=None)
def test_deal_cuts_equal_shares_at_64_aligned_rows(n_paths, processes):
    shares = engine._deal(n_paths, processes)
    assert len(shares) == min(processes, max(1, n_paths // 64))
    assert_dealt(n_paths, shares)


@pytest.mark.parametrize("rows, sizes", [
    (127, None),          # too few rows for two 64-aligned halves
    (128, [64, 64]),
    (150, [64, 86]),
    (997, [512, 485]),
    (5000, [2496, 2504]),
    (5000, [1664, 1664, 1672]),
    (20000, [9984, 10016]),
])
def test_a_lone_item_is_cut_in_64_aligned_halves(rows, sizes):
    # the rows of one noise request, cut for as many processes as sizes
    # has shares, or for two
    shares = engine._deal(rows, len(sizes or [0, 0]))
    if sizes is None:
        assert shares == [(0, rows)]
    else:
        assert [hi - lo for lo, hi in shares] == sizes
        assert_dealt(rows, shares)


def test_contestant_lists_must_pair_states_with_controls():
    problem = scalar_problem(lambda x, a: -x, 0.1)
    with pytest.raises(ValueError, match="one per control"):
        simulate_costs(problem, 0.0, np.array([1.0]), [zero_signal(1)] * 2,
                       n_paths=3, n_steps=5, seed=0)
    with pytest.raises(ValueError, match="one per control"):
        simulate_ensemble(problem, 0.0, [np.array([1.0])], [zero_signal(1)] * 2,
                          n_paths=3, n_steps=5, seed=0)


# --- the step on the channel ----------------------------------------------------


def full_width_run(problem, x, control, n_paths, seed=17, t=0.0):
    """A reference step loop on the full state for one contestant from t,
    one pass: the increments formed up front as the block's standard normals
    times sqrt(dt), the channel drift embedded in zeros(N), the full noise
    product, then X + dt*b + sigma dW and the semigroup. Returns costs,
    terminal states and states."""
    n, q = problem.dim, problem.control_spec.dim
    cost = problem.cost_structure
    lo, hi = problem.control_spec.box
    dt = (problem.horizon - t) / TILE_STEPS
    grid = t + dt * np.arange(TILE_STEPS + 1)
    dw = gaussian_increments(seed, "paths", n_paths, TILE_STEPS,
                             problem.noise_dim) * math.sqrt(dt)
    E = semigroup_matrix(problem.op, dt)
    values = (None if hasattr(control, "feedback")
              else control.values_on(grid[:-1]))
    X = np.empty((n_paths, n))
    X[...] = x
    states = [X]
    c1, acc = cost.l1(X), np.zeros(n_paths)
    for k in range(TILE_STEPS):
        if values is None:
            a = np.clip(control.feedback(grid[k], X), lo, hi)
        else:
            a = np.broadcast_to(values[k], (n_paths, q))
        b = np.zeros((n_paths, n))
        b[:, problem.block] = problem.drift(X, a)
        c2 = cost.l2(a)
        l_left = c1 + c2
        X = (X + dt * b + dw[:, k] @ problem.noise.T) @ E.T
        c1 = cost.l1(X)
        acc += 0.5 * dt * (l_left + (c1 + c2))
        states.append(X)
    acc += problem.terminal_cost(X)
    return {"costs": acc, "terminal_states": X,
            "states": np.stack(states, axis=1)}


@pytest.mark.parametrize("layout, n_paths", [
    ("one_tile", 997), ("four_tiles", 997), ("grouped", 150)])
def test_channel_step_matches_a_full_width_reference_bitwise(
        monkeypatch, layout, n_paths):
    # the delay lift steps its present channel alone; off it the drift and
    # noise are zero, so the full-width step gives the same bits
    problem = build_sdde_lift(control_bound=0.4, c_nl=0.3)
    assert problem.channel == slice(0, 1)
    contestants = group_contestants(problem, n_paths)
    if layout == "four_tiles":
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 256))
    tiles = engine._tile_bounds(n_paths, problem.dim)
    groups = engine._group_bounds(len(contestants), n_paths, problem.dim)
    assert len(tiles) == (4 if layout == "four_tiles" else 1)
    assert (len(groups) < len(contestants)) == (layout == "grouped")
    runs = run_contestants(problem, contestants, n_paths)
    for (x, control), run in zip(contestants, runs):
        reference = full_width_run(problem, x, control, n_paths)
        for field, want in reference.items():
            assert getattr(run, field).tobytes() == want.tobytes(), field


def test_runs_from_three_start_times_share_one_block_with_their_own_bits(
        monkeypatch):
    # a block holds standard normals, so runs from t = 0, 0.4 and 0.8 on one
    # (seed, label, paths, steps) request draw it once; each reads it times
    # its own sqrt(dt) and gets the bits of its run on a fresh memo and of a
    # reference that forms normals * sqrt(dt) up front
    problem = build_sdde_lift(control_bound=0.4, c_nl=0.3)
    x = np.full(problem.dim, 0.7)
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    times = (0.0, 0.4, 0.8)
    gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
    hits, misses = increment_memo.hits, increment_memo.misses
    shared = [simulate_costs(problem, t, x, gamma, 150, TILE_STEPS, seed=17,
                             terminal_states=True)
              for t in times]
    assert (increment_memo.hits, increment_memo.misses) == (hits + 2, misses + 1)
    assert increment_memo.request == (17, "paths", 150, TILE_STEPS, 1)
    for t, run in zip(times, shared):
        monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
        fresh = simulate_costs(problem, t, x, gamma, 150, TILE_STEPS, seed=17,
                               terminal_states=True)
        assert engine.increment_memo.misses == 1
        reference = full_width_run(problem, x, gamma, 150, t=t)
        for field in ("costs", "terminal_states"):
            want = getattr(fresh, field).tobytes()
            assert getattr(run, field).tobytes() == want, (t, field)
            assert reference[field].tobytes() == want, (t, field)


def test_run_rejects_fewer_than_one_path():
    problem = build_sdde_lift()
    x = np.zeros(problem.dim)
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match="n_paths"):
            simulate_costs(problem, 0.0, x, zero_policy(problem), n_paths,
                           n_steps=10)


# --- the row-wise contract ------------------------------------------------------


ROW_CUTS = [0, 64, 320, 512, 997]  # 64-row-aligned slices of a 997-row batch
ANY_CUTS = [0, 1, 37, 600, 997]    # slices at offsets off the 64-row grid
GROUP_CUTS = [*range(0, 997, 150), 997]  # 150-path contestants, stacked
ALONE_CUTS = list(range(998))      # every row a batch of its own


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
    # is exact only if each callback gives a row the same bits in any batch;
    # model callbacks see contestants stacked at row offsets c * P, and so
    # does a feedback map that several contestants share, so every callback
    # must be row-wise at any offset. A gemv reduction (x @ v) gives some
    # rows other bits in a batch than alone, which the contestant and
    # one-row cuts catch where the others may not
    problem = builder()
    rng = np.random.default_rng(31)
    x = rng.normal(0.0, 0.8, (ROW_CUTS[-1], problem.dim))
    a = rng.normal(0.0, 2.0, (ROW_CUTS[-1], problem.control_spec.dim))
    cost = problem.cost_structure
    model_calls = {
        "drift": lambda lo, hi: problem.drift(x[lo:hi], a[lo:hi]),
        "l1": lambda lo, hi: cost.l1(x[lo:hi]),
        "l2": lambda lo, hi: cost.l2(a[lo:hi]),
        "terminal_cost": lambda lo, hi: problem.terminal_cost(x[lo:hi]),
    }
    if not problem.additive_noise:
        model_calls["noise_at"] = lambda lo, hi: problem.noise_at(x[lo:hi])
    feedback_calls = {
        name: (lambda lo, hi, f=policy.feedback:
               np.asarray(f(0.1, x[lo:hi]), dtype=float))
        for name, policy in pipeline_policies(kind, problem).items()}
    for calls, cuts in itertools.product(
            (model_calls, feedback_calls),
            (ROW_CUTS, ANY_CUTS, GROUP_CUTS, ALONE_CUTS)):
        for name, call in calls.items():
            whole = call(0, cuts[-1])
            pieces = np.concatenate([call(lo, hi)
                                     for lo, hi in zip(cuts, cuts[1:])])
            assert whole.shape[0] == cuts[-1], name
            assert pieces.tobytes() == whole.tobytes(), (name, cuts)


# --- guards -------------------------------------------------------------------


def test_divergence_error_names_the_step():
    problem = scalar_problem(lambda x, a: 5.0 * x, 0.0)
    with pytest.raises(SimulationDivergenceError) as info:
        simulate_ensemble(problem, 0.0, np.array([1e7]), zero_signal(1), 1,
                          n_steps=100, seed=0)
    assert info.value.step > 0
    assert "step" in str(info.value)


def max_abs_divergence(drift, x0, n_steps):
    """The (step, time, magnitude) that a check of max |X| after each step
    reports for a noiseless scalar run of x' = drift(x) on [0, 1] from the
    per-path states x0, or None if it never diverges."""
    dt = 1.0 / n_steps
    grid = dt * np.arange(n_steps + 1)
    X = np.array(x0, dtype=float)
    for k in range(n_steps):
        X = X + dt * drift(X, None)
        worst = float(np.max(np.abs(X)))
        if not np.isfinite(worst) or worst > 1e8:
            return k + 1, grid[k + 1], worst
    return None


@pytest.mark.parametrize("blowup", ["nan", "inf", "negative"])
def test_divergence_check_reports_what_max_abs_reports(blowup):
    # max(max X, -min X) is max |X|: a path that turns NaN, one that reaches
    # +inf beside finite negative paths, and paths that pass -1e8 with none
    # positive each raise the step, time and magnitude max |X| gives
    if blowup == "nan":
        def drift(x, a):
            return np.where(np.abs(x) > 1e3, np.nan, 5.0 * x)
        x0 = [[-2.0], [300.0], [1.0]]
    elif blowup == "inf":
        def drift(x, a):
            return np.where(x > 1e3, np.inf, 5.0 * x)
        x0 = [[-800.0], [300.0]]
    else:
        def drift(x, a):
            return 5.0 * x
        x0 = [[-1e7], [-3e6], [-5.0]]
    step, time, magnitude = max_abs_divergence(drift, x0, 100)
    problem = scalar_problem(drift, 0.0)
    with pytest.raises(SimulationDivergenceError) as info:
        simulate_costs(problem, 0.0, np.array(x0), zero_signal(1), len(x0),
                       n_steps=100, seed=0)
    assert 0 < step < 100
    assert (info.value.step, info.value.time) == (step, time)
    if blowup == "nan":
        assert math.isnan(info.value.magnitude) and math.isnan(magnitude)
    else:
        assert info.value.magnitude == magnitude
        assert magnitude == math.inf if blowup == "inf" else magnitude > 1e8


def test_time_window_validation():
    problem = scalar_problem(lambda x, a: x, 0.0)
    with pytest.raises(ValueError):
        simulate_ensemble(problem, 1.0, np.array([0.0]), zero_signal(1), 1,
                          seed=0)
    with pytest.raises(ValueError):
        simulate_costs(dataclasses.replace(problem, horizon=0.4), 0.5,
                       np.array([0.0]), zero_signal(1), n_paths=1, seed=0)


# --- moment audit ---------------------------------------------------------------


def test_moment_bound_calibrated_passes_on_ou():
    gen = DiscreteOperator(-np.eye(1), kind="custom")
    problem = scalar_problem(lambda x, a: np.zeros_like(x), 1.0, generator=gen)
    report = moment_bound_check(problem, 0.0, np.array([1.0]), zero_signal(1),
                                p=4.0, n_paths=2000, n_steps=100, seed=0)
    assert report.passed
    assert report.constants["calibrated"]
    assert report.constants["ratio"] <= 1.0


def test_moment_bound_estimate_stable_across_seeds():
    gen = DiscreteOperator(-np.eye(1), kind="custom")
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
    gen = DiscreteOperator(-np.eye(1), kind="custom")
    problem = scalar_problem(lambda x, a: np.zeros_like(x), 1.0, generator=gen)
    c_frozen = 4.854115183642038
    for s in (1, 2, 3):
        rep = moment_bound_check(problem, 0.0, np.array([1.0]), zero_signal(1),
                                 p=4.0, n_paths=2000, n_steps=100, seed=s,
                                 c_p=c_frozen)
        assert rep.passed, rep.constants


@pytest.mark.parametrize("control", ["gamma_box", "piecewise"])
@pytest.mark.parametrize("n_paths, forked", [(300, False), (2000, True)])
def test_control_sq_norms_are_the_reduced_trace_bitwise(
        monkeypatch, control, n_paths, forked):
    # the controls rebuilt from the recorded states and the control, squared,
    # weighted and summed over q, raised to p/2 and added step by step, and
    # the sup of ||X||_H over the recorded states: the moment audit's
    # estimate and denominator have their bits, and the denominator lies
    # within 1e-12 of the pairwise np.sum over steps; 2000 x 100 on
    # reaction_diffusion is past the fork threshold, 300 paths are not
    problem = build_reaction_diffusion()
    q, n_steps, seed, p = problem.control_spec.dim, 100, 6, 4.0
    x0 = 0.3 * np.sin(np.pi * np.arange(1, q + 1) / (q + 1))
    if control == "gamma_box":
        ctl = make_gamma_policy(problem, lambda s, xb: 40.0 * xb)
    else:
        ctl = PiecewiseConstantSignal(
            np.linspace(0.0, problem.horizon, 5),
            np.random.default_rng(31).normal(0.0, 1.0, (4, q)))
    monkeypatch.setattr(engine, "_PROCESSES", 2)
    forks = count_forks(monkeypatch)
    run = simulate_ensemble(problem, 0.0, x0, ctl, n_paths, n_steps, seed)
    assert len(forks) == forked
    applied = applied_controls(problem, run, ctl)
    sq = np.sum(np.square(applied) * problem.control_spec.weights, axis=-1)
    if control == "gamma_box":
        assert on_box(problem, applied)
    assert np.all(sq > 0)

    rep = moment_bound_check(problem, 0.0, x0, ctl, p=p, n_paths=n_paths,
                             n_steps=n_steps, seed=seed, c_p=10.0)
    assert len(forks) == 2 * forked
    dt = problem.horizon / n_steps
    in_steps = np.zeros(n_paths)
    for k in range(n_steps):
        in_steps += sq[:, k] ** (p / 2.0)
    base = 1.0 + h_norm(problem.space, x0) ** p
    sup_norm = np.max(h_norm(problem.space, run.states), axis=-1)
    assert rep.constants["estimate"] == float(np.mean(sup_norm ** p))
    assert rep.constants["denominator"] == base + float(np.mean(in_steps * dt))
    pairwise = base + float(np.mean(np.sum(sq ** (p / 2.0), axis=-1) * dt))
    assert abs(rep.constants["denominator"] - pairwise) <= 1e-12 * pairwise


def test_moment_audit_peaks_below_its_control_trace(monkeypatch):
    # the audit reads one squared norm per path and step, so it never holds
    # an array of the (P, M, q) trace's size. One process: a forked run
    # allocates its outputs in shared memory, which tracemalloc does not see
    monkeypatch.setattr(engine, "_PROCESSES", 1)
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
    assert peak < trace_bytes, peak / trace_bytes


def test_moment_bound_rejects_small_p():
    problem = scalar_problem(lambda x, a: -x, 0.1)
    with pytest.raises(ValueError):
        moment_bound_check(problem, 0.0, np.array([1.0]), zero_signal(1), p=2.0)


# --- increments and CSV -----------------------------------------------------------


def test_gaussian_increments_variance_scaling():
    # a block holds standard normals and a run reads them times sqrt(dt):
    # with no drift and no generator, a run of step 0.25 moves half as far
    # as one of step 1.0 on the same request
    dw = gaussian_increments(5, "w", 4, 10, 1)
    assert dw.tobytes() == reference_increments(5, "w", 4, 10, 1).tobytes()
    runs = [simulate_ensemble(scalar_problem(lambda x, a: 0.0 * x, 0.3,
                                             horizon=10 * dt),
                              0.0, np.array([0.0]), zero_signal(1), 4,
                              n_steps=10, seed=5, stream_label="w")
            for dt in (0.25, 1.0)]
    np.testing.assert_allclose(runs[0].states, 0.5 * runs[1].states, atol=1e-15)
    np.testing.assert_allclose(np.diff(runs[1].states[..., 0], axis=1),
                               0.3 * dw[..., 0], atol=1e-15)


def reference_increments(master_seed, label, n_paths, n_steps, n_w):
    """The noise contract spelled out: one fresh stream of standard normals
    per path."""
    return np.stack([
        stream(master_seed, label, k).standard_normal((n_steps, n_w))
        for k in range(n_paths)
    ])


@pytest.mark.parametrize("master_seed", [5, 2**40 + 7])
@pytest.mark.parametrize("n_w", [1, 3])
def test_increment_path_k_is_stream_k(master_seed, n_w):
    dw = gaussian_increments(master_seed, "contract", 4, 6, n_w)
    ref = reference_increments(master_seed, "contract", 4, 6, n_w)
    assert dw.tobytes() == ref.tobytes()


def test_increment_paths_do_not_depend_on_path_count():
    small = gaussian_increments(3, "prefix", 4, 7, 2).tobytes()
    big = gaussian_increments(3, "prefix", 4 + 5, 7, 2)
    assert big[:4].tobytes() == small


BLOCK_DIGEST = "8fcc05c1ddea08f7558a7117a44cb8b28d737ceb2f7332988226de72fb95bc37"


def test_increment_block_frozen_digest(monkeypatch):
    # pinned so a change of the noise path that moves any bit breaks loudly:
    # the block gaussian_increments draws, and the first paths of the block
    # that a 200-path run draws in this process, then across two and three
    dw = gaussian_increments(42, "paths", 3, 5, 2)
    assert hashlib.sha256(dw.tobytes()).hexdigest() == BLOCK_DIGEST
    problem = dataclasses.replace(scalar_problem(lambda x, a: -x, 0.3, horizon=5.0),
                                  noise=np.array([[0.3, 0.1]]), noise_dim=2)
    forks = count_forks(monkeypatch)
    for processes in (1, 2, 3):
        fan_out(monkeypatch, processes)
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        simulate_costs(problem, 0.0, np.array([0.5]), zero_signal(1), 200,
                       n_steps=5, seed=42)
        assert increment_memo.request == (42, "paths", 200, 5, 2)
        dw = increment_memo.block[:3]
        assert hashlib.sha256(dw.tobytes()).hexdigest() == BLOCK_DIGEST
        assert_no_children()
    assert len(forks) == 0 + 1 + 2


# a problem with n_w noise dimensions for each block shape drawn below
NOISE_BUILDERS = {1: lambda: scalar_problem(lambda x, a: -x, 0.3),
                  3: build_reaction_diffusion}


def draw_requests(monkeypatch, n_paths, n_steps, n_w):
    """On a fresh memo, three runs of a problem with n_w noise dimensions:
    one that draws its block, one that differs in n_steps alone and draws
    another, and a repeat of it. The block held after each, and the memo's
    (hits, misses)."""
    monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
    problem = NOISE_BUILDERS[n_w]()
    x, control = np.full(problem.dim, 0.5), zero_signal(problem.control_spec.dim)
    blocks = []
    for m in (n_steps, n_steps + 1, n_steps + 1):
        simulate_costs(problem, 0.0, x, control, n_paths, n_steps=m, seed=11,
                       stream_label="fan")
        blocks.append(engine.increment_memo.block)
    return blocks, (engine.increment_memo.hits, engine.increment_memo.misses)


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 40, 1), (997, 25, 1), (10, 6, 3)],
                         ids=["one_path", "prime_paths", "three_noise_dims"])
def test_increments_drawn_across_processes_equal_the_serial_block(
        monkeypatch, shape, processes):
    # each process of a run draws its rows of the block, from keys derived
    # here; the memo counts as in the serial loop
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    serial, serial_counts = draw_requests(monkeypatch, *shape)
    assert serial[0].tobytes() == reference_increments(11, "fan", *shape).tobytes()
    forks = count_forks(monkeypatch)
    fan_out(monkeypatch, processes)
    fanned, counts = draw_requests(monkeypatch, *shape)
    assert_no_children()
    # each of the three runs forks a child per process beyond this one, and
    # never more processes than 64-row slabs
    assert len(forks) == 3 * (min(processes, max(1, shape[0] // 64)) - 1)
    assert counts == serial_counts == (1, 2)
    assert fanned[2] is fanned[1]
    for want, got in zip(serial, fanned):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1.0


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("failure", ["child_killed", "fork_raises"])
def test_a_failed_increment_fan_out_draws_the_serial_block(
        monkeypatch, failure, processes):
    # a child killed while it draws, or a refused fork: the runs go to the
    # serial loop, with the serial bits and counts
    shape = (997, 25, 1)
    serial, serial_counts = draw_requests(monkeypatch, *shape)
    forks = count_forks(monkeypatch)
    if failure == "fork_raises":
        def fork():
            raise OSError("fork refused")
        monkeypatch.setattr(os, "fork", fork)
    else:
        parent, streams = os.getpid(), engine.path_streams

        def path_streams(keys):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return streams(keys)
        monkeypatch.setattr(engine, "path_streams", path_streams)
    fan_out(monkeypatch, processes)
    fanned, counts = draw_requests(monkeypatch, *shape)
    assert_no_children()
    # the three runs fork, and the two misses fail; a refused fork forks
    # nothing
    assert len(forks) == (3 * (processes - 1) if failure == "child_killed" else 0)
    assert counts == serial_counts
    for want, got in zip(serial, fanned):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_increment_blocks_below_the_fork_threshold_never_fork(monkeypatch):
    # gaussian_increments draws in this process alone, whatever the block:
    # the largest of policy iteration on lq (5000 x 120) and of run-all on
    # reaction_diffusion (2000 x 100 x 3) among them. A run's draws count
    # toward its work when it draws its block: 200 paths of 10 steps on the
    # scalar problem hold 200 x 10 x (1 + 1) = 4000, and fork from that
    # threshold on
    fan_out(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    for shape in [(5000, 120, 1), (2000, 100, 3)]:
        gaussian_increments(11, "below", *shape)
    assert not forks
    problem = scalar_problem(lambda x, a: -x, 0.3)
    for threshold, n_forks in ((4001, 0), (4000, 1)):
        monkeypatch.setattr(engine, "_FORK_MIN_WORK", threshold)
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        simulate_costs(problem, 0.0, np.array([0.5]), zero_signal(1), 200,
                       n_steps=10, seed=11)
        assert len(forks) == n_forks
    assert_no_children()


def test_the_fork_decision_weighs_draws_only_when_the_block_is_drawn(monkeypatch):
    # a threshold above a run's element-steps and within its element-steps
    # plus draws: the run forks when it draws its block, and the same run on
    # the block the memo then holds does not, with the same bits
    problem = scalar_problem(lambda x, a: -x, 0.3)
    n_paths, contestants = 300, 2
    steps = n_paths * TILE_STEPS * contestants * problem.dim
    assert problem.noise_dim >= 1
    fan_out(monkeypatch, 2)
    monkeypatch.setattr(engine, "_FORK_MIN_WORK", steps + 1)
    forks = count_forks(monkeypatch)
    gaussian_increments(0, "unrelated", 1, 1, 1)  # the first run misses
    runs = []
    for n_forks in (1, 0):
        forks.clear()
        runs.append(simulate_costs(problem, 0.0, [np.array([0.5]), np.array([-0.5])],
                                   [zero_signal(1)] * contestants, n_paths,
                                   n_steps=TILE_STEPS, seed=3))
        assert len(forks) == n_forks
        assert_no_children()
    assert cost_bits(runs[1]) == cost_bits(runs[0])


@pytest.mark.parametrize("processes", [2, 3])
def test_zero_width_noise_is_never_drawn_across_processes(monkeypatch, processes):
    # a block of no draws stays out of shared memory, where a zero-byte
    # mapping raises OSError
    problem = build_reaction_diffusion(noise_modes=0)
    assert problem.noise_dim == 0
    q = problem.control_spec.dim
    runs = []
    for procs in (1, processes):
        fan_out(monkeypatch, procs)
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        runs.append(simulate_costs(problem, 0.0, np.full(problem.dim, 0.3),
                                   zero_signal(q), TILE_PATHS,
                                   n_steps=TILE_STEPS, seed=3,
                                   terminal_states=True))
        assert_no_children()
    serial, fanned = runs
    assert fanned.costs.tobytes() == serial.costs.tobytes()
    assert fanned.terminal_states.tobytes() == serial.terminal_states.tobytes()


def test_repeated_request_returns_held_block_read_only():
    first = gaussian_increments(8, "memo", 3, 4, 2)
    hits, misses = increment_memo.hits, increment_memo.misses
    again = gaussian_increments(8, "memo", 3, 4, 2)
    assert again is first
    assert (increment_memo.hits, increment_memo.misses) == (hits + 1, misses)
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[0, 0, 0] = 1.0


@pytest.mark.parametrize("field, value", [
    ("master_seed", 9), ("label", "memo_other"), ("n_paths", 4),
    ("n_steps", 5), ("n_w", 1),
])
def test_request_differing_in_one_field_misses(field, value):
    base = dict(master_seed=8, label="memo", n_paths=3, n_steps=4, n_w=2)
    gaussian_increments(**base)
    hits, misses = increment_memo.hits, increment_memo.misses
    request = dict(base, **{field: value})
    dw = gaussian_increments(**request)
    assert (increment_memo.hits, increment_memo.misses) == (hits, misses + 1)
    assert dw.tobytes() == reference_increments(**request).tobytes()


def test_request_differing_in_dt_alone_hits():
    # runs from two start times make one request: the second gets the
    # block the first drew, standard normals that each run scales by its
    # own sqrt(dt)
    problem = scalar_problem(lambda x, a: -x, 0.3)
    gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
    simulate_costs(problem, 0.0, np.array([0.5]), zero_signal(1), 3, n_steps=4,
                   seed=8, stream_label="memo")
    block = increment_memo.block
    hits, misses = increment_memo.hits, increment_memo.misses
    simulate_costs(problem, 0.5, np.array([0.5]), zero_signal(1), 3, n_steps=4,
                   seed=8, stream_label="memo")
    assert (increment_memo.hits, increment_memo.misses) == (hits + 1, misses)
    assert increment_memo.block is block
    assert block.tobytes() == reference_increments(8, "memo", 3, 4, 1).tobytes()


def test_interleaved_requests_return_first_bits_again():
    a_bits = gaussian_increments(8, "A", 3, 4, 2).tobytes()
    misses = increment_memo.misses
    b = gaussian_increments(8, "B", 3, 4, 2)
    assert increment_memo.block is b  # only the latest block is held
    again = gaussian_increments(8, "A", 3, 4, 2)
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


# --- batches of requests --------------------------------------------------------


def batch_requests(problem):
    """Three independent simulate_costs requests: contestants, a lone control
    and per-path starting states, on their own times, seeds and labels."""
    rng = np.random.default_rng(31)
    q, n = problem.control_spec.dim, problem.dim
    x = np.full(n, 0.7)
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    return [
        (0.0, [x, -x], [gamma, zero_signal(q)], 150, TILE_STEPS, 3, "paths"),
        (0.2, x, gamma, 300, TILE_STEPS, 4, "paths"),
        (0.1, rng.normal(0.0, 0.5, (150, n)), zero_signal(q), 150, 10, 5,
         "other"),
    ]


def cost_bits(runs):
    """The bytes of each record's time grid, terminal states (None when not
    recorded) and costs."""
    records = [r for run in runs for r in (run if isinstance(run, list) else [run])]
    return [(r.time_grid.tobytes(),
             None if r.terminal_states is None else r.terminal_states.tobytes(),
             r.costs.tobytes())
            for r in records]


def pi_row_requests(problem):
    """Three requests shaped like policy-iteration time rows: two grid points
    of 100 paths each, every point and its two difference legs a per-path
    (J P, N) start, all under one policy, on their own times and, unlike
    policy iteration's rows, their own seeds, so each is a block of its own."""
    n, paths = problem.dim, 100
    points = np.random.default_rng(37).normal(0.0, 0.5, (2, n))
    step = 0.05 * np.eye(n)[0]
    starts = [np.repeat(points + d, paths, axis=0) for d in (0.0, step, -step)]
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    return [(t, starts, [gamma] * 3, 2 * paths, TILE_STEPS, 7 + k, "paths")
            for k, t in enumerate((0.0, 0.1, 0.2))]


def spy_deal(monkeypatch):
    """A list that gains the rows, the process count and the shares of every
    engine._deal call of this process."""
    dealt, deal = [], engine._deal

    def spy(n_paths, n_procs):
        dealt.append((n_paths, n_procs, deal(n_paths, n_procs)))
        return dealt[-1][2]
    monkeypatch.setattr(engine, "_deal", spy)
    return dealt


def check_batch_against_serial(monkeypatch, problem, case, processes):
    """Every request forks on its own; a batch of requests on noise requests
    of their own forks for each in turn, cut by its own rows, and no process
    forks further; each request's records come back whole with their serial
    bits."""
    requests = (batch_requests if case == "mixed" else pi_row_requests)(problem)
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    serial = [simulate_costs(problem, *r) for r in requests]
    serial_last = increment_memo.request
    serial_block = increment_memo.block.tobytes()
    forks = count_all_forks(monkeypatch)
    fan_out(monkeypatch, processes)
    for r in requests:
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        forks[0] = 0
        simulate_costs(problem, *r)
        assert forks[0] >= 1
    if case == "mixed":
        gaussian_increments(0, "unrelated", 1, 1, 1)
    else:
        # the first row's block is held, as in every policy-iteration round
        # after the first: that row reads it and draws nothing
        simulate_costs(problem, *requests[0])
    forks[0] = 0
    dealt = spy_deal(monkeypatch)
    batch = simulate_costs_batch(problem, requests)
    assert_no_children()
    # one fan-out per request, in order, each cut into as many shares of its
    # rows as the processes and its 64-row slabs allow
    assert [(n, procs) for n, procs, _ in dealt] == [(r[3], processes) for r in requests]
    assert [len(shares) for _, _, shares in dealt] == [
        min(processes, r[3] // 64) for r in requests]
    assert forks[0] == sum(len(shares) - 1 for _, _, shares in dealt)
    assert [isinstance(run, list) for run in batch] == (
        [True, False, False] if case == "mixed" else [True] * 3)
    assert cost_bits(batch) == cost_bits(serial)
    # the memo holds the last block, with its serial bits, whichever
    # processes drew it
    assert increment_memo.request == serial_last
    assert increment_memo.block.tobytes() == serial_block


BATCH_BUILDERS = pytest.mark.parametrize("builder", [
    lambda: build_lq_benchmark(control_bound=0.6)[0],
    build_reaction_diffusion,
], ids=["lq", "reaction_diffusion"])


@pytest.mark.parametrize("processes", [2, 3])
@BATCH_BUILDERS
def test_batch_runs_whole_requests_with_their_serial_bits(monkeypatch, builder,
                                                          processes):
    # contestants, a lone control and per-path starts: each request is cut
    # by its rows, and its records still come back whole
    check_batch_against_serial(monkeypatch, builder(), "mixed", processes)


@pytest.mark.parametrize("processes", [2, 3])
@BATCH_BUILDERS
def test_batch_cuts_policy_iteration_rows_with_their_serial_bits(
        monkeypatch, builder, processes):
    # three rows, the first one's block held: every row is cut by its rows,
    # the first drawing nothing
    check_batch_against_serial(monkeypatch, builder(), "pi_rows", processes)


def test_a_partial_draw_holds_no_other_block(monkeypatch):
    # a batch's noise requests run in turn and this process holds one block
    # at a time: when it draws its rows of a request's block, every block
    # before it, which it read, is gone; a held request's block is read,
    # and nothing is drawn
    problem = build_lq_benchmark(control_bound=0.6)[0]
    requests = pi_row_requests(problem)
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    serial = [simulate_costs(problem, *r) for r in requests]
    # partial draws of this process and of the child, and the earlier
    # blocks still alive at each partial draw of this process
    seen = np.frombuffer(mmap.mmap(-1, 24), dtype=np.int64)
    parent, draw, blocks = os.getpid(), engine._draw, []

    def spy(out, keys, lo, hi):
        if hi - lo < len(keys):
            seen[int(os.getpid() != parent)] += 1
            if os.getpid() == parent:
                seen[2] += sum(b() is not None for b in blocks)
                blocks.append(weakref.ref(out))
        return draw(out, keys, lo, hi)
    monkeypatch.setattr(engine, "_draw", spy)
    fan_out(monkeypatch, 2)
    simulate_costs(problem, *requests[0])  # the first request's block is held
    blocks.append(weakref.ref(increment_memo.block))
    seen[:] = 0
    batch = simulate_costs_batch(problem, requests)
    # the first request reads the held block; each process draws its rows
    # of the second's block and then of the third's
    assert seen.tolist() == [2, 2, 0]
    assert cost_bits(batch) == cost_bits(serial)
    # the last request, held, cut in two: no draw
    last = simulate_costs_batch(problem, requests[-1:])
    assert seen.tolist() == [2, 2, 0]
    assert cost_bits(last) == cost_bits(serial[-1:])
    # the first, not held, cut in two: each process draws its rows, and this
    # one then holds the block both drew, as after its serial run
    first = simulate_costs_batch(problem, requests[:1])
    assert seen.tolist() == [3, 3, 0]
    assert cost_bits(first) == cost_bits(serial[:1])
    _, _, _, n_paths, n_steps, seed, label = requests[0]
    dw = reference_increments(seed, label, n_paths, n_steps, 1)
    assert increment_memo.request == (seed, label, n_paths, n_steps, 1)
    assert increment_memo.block.tobytes() == dw.tobytes()
    assert not increment_memo.block.flags.writeable
    assert_no_children()


def test_a_cut_last_request_held_in_one_process_leaves_its_whole_block(
        monkeypatch):
    # two requests on one noise request, the last with three contestants:
    # they share one block, cut between two processes, each of which draws
    # its rows once and runs both requests on them. The block this process
    # then holds has every path's serial bits, and a later run on it gives
    # the serial bits too
    problem = build_lq_benchmark(control_bound=0.6)[0]
    x = np.full(problem.dim, 0.7)
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    requests = [(0.0, x, gamma, 300, TILE_STEPS, 3, "paths"),
                (0.0, [x, -x, 0.5 * x], [gamma] * 3, 300, TILE_STEPS, 3, "paths")]
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    serial = [simulate_costs(problem, *r) for r in requests]
    later = simulate_costs(problem, 0.0, -x, gamma, 300, TILE_STEPS, 3, "paths")
    dw = reference_increments(3, "paths", 300, TILE_STEPS, problem.noise_dim)
    draws = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
    parent, draw = os.getpid(), engine._draw

    def spy(out, keys, lo, hi):
        draws[int(os.getpid() != parent)] += 1
        return draw(out, keys, lo, hi)
    monkeypatch.setattr(engine, "_draw", spy)
    fan_out(monkeypatch, 2)
    gaussian_increments(0, "unrelated", 1, 1, 1)  # no request is held
    hits, misses = increment_memo.hits, increment_memo.misses
    draws[:] = 0
    dealt = spy_deal(monkeypatch)
    batch = simulate_costs_batch(problem, requests)
    assert_no_children()
    # one fan-out, its 300 rows cut at the slab boundary nearest 150
    assert dealt == [(300, 2, [(0, 128), (128, 300)])]
    assert draws.tolist() == [1, 1]
    assert (increment_memo.hits, increment_memo.misses) == (hits + 1, misses + 1)
    assert cost_bits(batch) == cost_bits(serial)
    assert increment_memo.request == (3, "paths", 300, TILE_STEPS,
                                      problem.noise_dim)
    assert increment_memo.block.tobytes() == dw.tobytes()
    hits = increment_memo.hits
    again = simulate_costs(problem, 0.0, -x, gamma, 300, TILE_STEPS, 3, "paths")
    assert increment_memo.hits == hits + 1
    assert cost_bits([again]) == cost_bits([later])


def counted_call(case):
    """Run one case on the engine: policy iteration at the oracle_lq
    benchmark's sizes on seed 101, a 20 000-path delay-lift run whose 32 MB
    block is missed and streamed, or a batch of two identical requests. The
    output bytes."""
    if case == "policy_iteration":
        problem, _ = build_lq_benchmark()
        res = policy_iteration(problem, (0.0, 0.4, 0.8),
                               np.array([[-2.0], [-1.5], [0.5], [1.0], [2.0]]),
                               n_rounds=6, seed=101,
                               cfg=PolicyIterationConfig(paths_per_point=1000,
                                                         n_steps=120))
        return [np.asarray(v).tobytes() for v in res.round_values] + [
            np.array([e.mean, e.std_error]).tobytes()
            for e in res.value_field.estimates]
    if case == "sdde_block":
        problem = build_sdde_lift()
        policy = make_gamma_policy(problem, lambda s, xb: 2.0 * xb)
        return cost_bits([simulate_costs(problem, 0.0, 0.3 * np.ones(problem.dim),
                                         policy, 20_000, n_steps=200, seed=5)])
    problem = build_lq_benchmark(control_bound=0.6)[0]
    request = pi_row_requests(problem)[0]
    return cost_bits(simulate_costs_batch(problem, [request, request]))


@pytest.mark.parametrize("case", ["policy_iteration", "sdde_block",
                                  "identical_batch"])
def test_fanned_calls_count_as_the_serial_loop(monkeypatch, case):
    # the memo's counts, the request it holds and its block's bits after a
    # call forced across two processes are those of the serial loop, as are
    # the call's output bits; each count is made in this process, before
    # the fork. The delay-lift block, over the budget and read by one
    # request, is streamed: a miss, and no block is held after it
    forks, results = count_forks(monkeypatch), []
    for processes in (1, 2):
        fan_out(monkeypatch, processes)
        monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
        bits = counted_call(case)
        memo = engine.increment_memo
        if case == "sdde_block":
            assert memo.request is None and memo.block is None
            results.append((bits, memo.hits, memo.misses))
        else:
            results.append((bits, memo.hits, memo.misses, memo.request,
                             memo.block.tobytes()))
        assert_no_children()
    assert forks
    assert results[1] == results[0]
    if case == "sdde_block":
        assert results[0][1:] == (0, 1)


def failing_problem(kind):
    """A problem and three starts on it: one that fails, one that does not,
    and one that fails otherwise, with another error, or diverges earlier."""
    if kind == "raises":
        return scalar_problem(refusing_drift, 0.1), (9.0, 0.5, 7.0)
    return scalar_problem(lambda x, a: 5.0 * x, 0.0), (1e7, 1.0, 5e7)


def one_noise_requests(starts, n_paths):
    """Requests of n_paths paths from starts, a number or per-path states
    each, all on one noise request."""
    return [(0.0, x if np.ndim(x) else np.array([x]), zero_signal(1), n_paths,
             100, 0, "paths") for x in starts]


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("kind", ["raises", "diverges"])
def test_batch_failure_in_a_childs_share_raises_the_serial_error(
        monkeypatch, kind, processes):
    # the serial loop raises the first failing request's error, and so must
    # a batch of requests on one noise request, which forks though no
    # request would on its own: first where every path of the first request
    # fails, then where one of five 200-path requests fails only on the rows
    # of this process's share, or only on those of the last child's. The
    # memo counts as the serial loop, whether the block was drawn or held
    error = ValueError if kind == "raises" else SimulationDivergenceError
    problem, (worse, good, other) = failing_problem(kind)
    cases = [(one_noise_requests((worse, good, other), 150), None)]
    for bad in (slice(0, 64), slice(128, 200)):
        x = np.full((200, 1), good)
        x[bad] = worse
        cases.append((one_noise_requests([good, good, x, good, good], 200), bad))
    forks, dealt = count_forks(monkeypatch), spy_deal(monkeypatch)

    def failure(call):
        """The error call raises, and the memo's (hits, misses) it made."""
        hits, misses = increment_memo.hits, increment_memo.misses
        with pytest.raises(error) as info:
            call()
        return info.value, (increment_memo.hits - hits, increment_memo.misses - misses)

    for requests, bad in cases:
        monkeypatch.setattr(engine, "_PROCESSES", 1)
        gaussian_increments(0, "unrelated", 1, 1, 1)  # no request is held
        serial, drawn = failure(lambda: [simulate_costs(problem, *r) for r in requests])
        _, held = failure(lambda: [simulate_costs(problem, *r) for r in requests])
        gaussian_increments(0, "unrelated", 1, 1, 1)
        monkeypatch.setattr(engine, "_PROCESSES", processes)
        # just above one request's work, its element-steps and its draws
        n_paths = requests[0][3]
        monkeypatch.setattr(engine, "_FORK_MIN_WORK", 2 * n_paths * 100 + 1)
        # the block drawn across the processes, then held from the serial
        # rerun on
        for counts in (drawn, held):
            forks.clear()
            dealt.clear()
            batch, batch_counts = failure(lambda: simulate_costs_batch(problem, requests))
            (_, _, shares), = dealt
            assert len(forks) == len(shares) - 1 >= 1
            assert_no_children()
            if bad is not None:
                assert len(shares) == processes
                # the failing rows lie in this process's share or the last one
                where = [lo <= bad.start and bad.stop <= hi for lo, hi in shares]
                assert where.index(True) == (0 if bad.start == 0 else processes - 1)
            assert batch_counts == counts
            assert str(batch) == str(serial)
            if kind == "diverges":
                assert (batch.step, batch.magnitude) == (serial.step, serial.magnitude)


def test_fan_out_pins_blas_to_one_thread_and_restores_it(monkeypatch):
    # the threads BLAS uses in each process while a run is split across
    # two, whatever this process had set before
    get_threads, set_threads = engine._BLAS_THREADS
    seen = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
    parent = os.getpid()

    def drift(x, a):
        seen[int(os.getpid() != parent)] = get_threads()
        return -x

    problem = scalar_problem(drift, 0.3)
    monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 256))
    before = get_threads()
    runs = []
    try:
        set_threads(2)
        for procs in (1, 2):
            fan_out(monkeypatch, procs)
            seen[:] = 0
            runs.append(simulate_costs(problem, 0.0, np.array([0.5]),
                                       zero_signal(1), TILE_PATHS,
                                       n_steps=TILE_STEPS, seed=0,
                                       terminal_states=True))
            assert get_threads() == 2
            assert list(seen) == ([2, 0] if procs == 1 else [1, 1])
    finally:
        set_threads(before)
    assert_no_children()
    serial, fanned = runs
    assert fanned.costs.tobytes() == serial.costs.tobytes()
    assert fanned.terminal_states.tobytes() == serial.terminal_states.tobytes()


def test_no_fan_out_where_blas_threads_cannot_be_pinned(monkeypatch):
    problem = build_lq_benchmark(control_bound=0.6)[0]
    requests = batch_requests(problem)
    fan_out(monkeypatch, 2)
    monkeypatch.setattr(engine, "_BLAS_THREADS", None)
    forks = count_forks(monkeypatch)
    gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
    runs = [simulate_costs(problem, *r) for r in requests]
    batch = simulate_costs_batch(problem, requests)
    assert not forks
    assert cost_bits(batch) == cost_bits(runs)


# --- streamed noise blocks ------------------------------------------------------


def count_draws(monkeypatch, path):
    """A function giving the engine._draw calls made since it was last
    called, in this process or in any process it forks. Each call appends
    a byte to path: an append is atomic, where two processes adding to one
    counter in shared memory can lose a count."""
    draw = engine._draw

    def spy(out, keys, lo, hi):
        with open(path, "ab") as fh:
            fh.write(b"1")
        return draw(out, keys, lo, hi)
    monkeypatch.setattr(engine, "_draw", spy)

    def taken():
        count = path.stat().st_size if path.exists() else 0
        path.write_bytes(b"")
        return count
    return taken


def run_outputs(run):
    """The bytes of every output of an engine_run: each record's fields,
    and the running maximum and its first steps when there are any."""
    records, *peaks = run if isinstance(run, tuple) else (run,)
    return ([getattr(r, f).tobytes() for r in records for f in ALL_FIELDS]
            + [a.tobytes() for a in peaks])


@pytest.mark.parametrize("with_statistic", [False, True], ids=["plain", "statistic"])
@pytest.mark.parametrize("layout", ["one_tile", "tiles"])
@pytest.mark.parametrize("builder", [
    lambda: build_lq_benchmark(control_bound=0.6)[0],
    build_reaction_diffusion,
    lambda: build_sdde_lift(control_bound=0.4),
], ids=["lq", "reaction_diffusion", "sdde"])
def test_streamed_block_gives_the_held_bits(monkeypatch, tmp_path, builder,
                                             layout, with_statistic):
    # four contestants of every control kind on one request whose block is
    # streamed: every output, and the running maximum and its first steps,
    # has the bits of the run on the held block, in one process and across
    # 2 and 3; each process draws each of its tiles once, whatever the
    # groups, and the request is a miss that leaves the memo empty
    problem = builder()
    n_paths, n = 997, problem.dim
    contestants = group_contestants(problem, n_paths)
    statistic = ()
    if with_statistic:
        norm = space_norm(problem.space, problem.b_op, "H")
        statistic = running_max(gap_statistic(norm), len(contestants) - 1 + n)
    tile_dim = len(contestants) * n if with_statistic else n
    if layout == "tiles":
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_budget(problem, 256))
        assert len(engine._tile_bounds(n_paths, tile_dim)) > 1
    if layout == "tiles" and not with_statistic:
        assert len(engine._group_bounds(len(contestants), n_paths, n)) > 1

    def run():
        return engine_run(problem, contestants, n_paths, TILE_STEPS, 17,
                          reductions=statistic)

    monkeypatch.setattr(engine, "_PROCESSES", 1)
    monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
    # the run on the block the memo holds, a hit whatever the tiles
    gaussian_increments(17, "paths", n_paths, TILE_STEPS, problem.noise_dim)
    held = run_outputs(run())
    assert (engine.increment_memo.hits, engine.increment_memo.misses) == (1, 1)
    assert engine.increment_memo.block is not None
    stream_every_block(monkeypatch)
    draws = count_draws(monkeypatch, tmp_path / "draws")
    for processes in (1, 2, 3):
        fan_out(monkeypatch, processes)
        monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
        gaussian_increments(0, "unrelated", 1, 1, 1)
        draws()
        streamed = run_outputs(run())
        assert_no_children()
        assert streamed == held, processes
        memo = engine.increment_memo
        assert (memo.hits, memo.misses) == (0, 2)
        assert memo.request is None and memo.block is None
        assert draws() == sum(len(engine._tile_bounds(hi - lo, tile_dim))
                               for lo, hi in engine._deal(n_paths, processes))


def test_a_call_of_several_requests_holds_its_block_over_the_budget(monkeypatch):
    # a batch of two requests on one noise request reads its block twice,
    # so it is held whatever its size, as after the serial loop, in one
    # process or across two; a lone request on that block then hits it and
    # reads it, and the memo keeps it
    problem = build_lq_benchmark(control_bound=0.6)[0]
    x = np.full(problem.dim, 0.7)
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    requests = [(0.0, x, gamma, 300, TILE_STEPS, 3, "paths"),
                (0.0, [x, -x], [gamma] * 2, 300, TILE_STEPS, 3, "paths")]
    dw = reference_increments(3, "paths", 300, TILE_STEPS, problem.noise_dim)
    stream_every_block(monkeypatch)
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    alone = [simulate_costs(problem, *r) for r in requests]
    assert increment_memo.request is None
    forks, results = count_forks(monkeypatch), []
    for processes in (1, 2):
        fan_out(monkeypatch, processes)
        monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
        batch = simulate_costs_batch(problem, requests)
        memo = engine.increment_memo
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.request == (3, "paths", 300, TILE_STEPS, problem.noise_dim)
        assert memo.block.tobytes() == dw.tobytes()
        block = memo.block
        again = simulate_costs(problem, *requests[0])
        assert (memo.hits, memo.misses) == (2, 1) and memo.block is block
        assert_no_children()
        results.append(cost_bits(batch + [again]))
    assert forks
    assert results[0] == results[1] == cost_bits(alone + alone[:1])


def test_a_read_once_block_of_several_tiles_is_streamed(monkeypatch):
    # a delay-lift request of two tiles, its block well within the budget,
    # read by one request: streamed, a miss that leaves the memo empty, with
    # the bits of the run on the held block, and the same counts in one
    # process and across two. A call of several such requests holds it
    problem = build_sdde_lift(control_bound=0.4)
    n_paths = 2000
    assert len(engine._tile_bounds(n_paths, problem.dim)) == 2
    assert 8 * n_paths * TILE_STEPS * problem.noise_dim < engine._HOLD_BYTES
    gamma = make_gamma_policy(problem, lambda s, xb: 10.0 * xb)
    request = (0.0, np.full(problem.dim, 0.3), gamma, n_paths, TILE_STEPS, 5, "paths")
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
    gaussian_increments(5, "paths", n_paths, TILE_STEPS, problem.noise_dim)
    held = simulate_costs(problem, *request, terminal_states=True)
    assert engine.increment_memo.block is not None
    forks, counts = count_forks(monkeypatch), []
    for processes in (1, 2):
        fan_out(monkeypatch, processes)
        forks.clear()
        monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
        streamed = simulate_costs(problem, *request, terminal_states=True)
        assert len(forks) == processes - 1
        assert_no_children()
        memo = engine.increment_memo
        assert memo.request is None and memo.block is None
        counts.append((memo.hits, memo.misses))
        assert cost_bits([streamed]) == cost_bits([held])
    assert counts == [(0, 1), (0, 1)]
    monkeypatch.setattr(engine, "increment_memo", engine._LastBlock())
    batch = simulate_costs_batch(problem, [request, request])
    memo = engine.increment_memo
    assert (memo.hits, memo.misses) == (1, 1)
    assert memo.request == (5, "paths", n_paths, TILE_STEPS, problem.noise_dim)
    assert [r.costs.tobytes() for r in batch] == [held.costs.tobytes()] * 2


def test_a_read_once_block_of_several_tiles_peaks_below_half_its_bytes(
        monkeypatch):
    # a serial delay-lift run of one request over four tiles, its 4.9 MB
    # block within the budget: streamed, one tile's normals at a time, its
    # peak stays below half the block, which holding it whole would pass.
    # One process: a forked run allocates its outputs in shared memory,
    # which tracemalloc does not see
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    problem = build_sdde_lift()
    n_paths, n_steps = 6144, 100
    block_bytes = 8 * n_paths * n_steps * problem.noise_dim
    assert block_bytes < engine._HOLD_BYTES
    assert len(engine._tile_bounds(n_paths, problem.dim)) == 4
    gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
    tracemalloc.start()
    try:
        simulate_costs(problem, 0.0, 0.3 * np.ones(problem.dim), zero_signal(1),
                       n_paths, n_steps=n_steps, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * block_bytes, peak / block_bytes
    assert increment_memo.block is None


def test_streamed_run_memory_does_not_grow_with_its_block(monkeypatch):
    # a delay-lift run whose block is over the budget at P = 3072 paths and
    # at 4P: its peak at 4P may exceed the one at P by less than the tile
    # buffer of its normals, where a block built whole adds 3P x M x 8
    # bytes, 29.5 MB. One process: a forked run allocates its outputs in
    # shared memory, which tracemalloc does not see
    monkeypatch.setattr(engine, "_PROCESSES", 1)
    problem = build_sdde_lift()
    n_paths, n_steps = 3072, 400
    assert 8 * n_paths * n_steps > engine._HOLD_BYTES
    peaks = []
    for paths in (n_paths, 4 * n_paths):
        gaussian_increments(0, "unrelated", 1, 1, 1)  # the next request misses
        tracemalloc.start()
        try:
            simulate_costs(problem, 0.0, 0.3 * np.ones(problem.dim), zero_signal(1),
                           paths, n_steps=n_steps, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        assert increment_memo.block is None
    lo, hi = engine._tile_bounds(4 * n_paths, problem.dim)[0]
    buffer_bytes = (hi - lo) * n_steps * 8
    assert peaks[1] - peaks[0] < buffer_bytes, (peaks[1] - peaks[0]) / buffer_bytes
