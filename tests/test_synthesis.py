"""Hamiltonian minimization, gamma feedback, closed loops, verification.

The numerical Hamiltonian minimizer lives here, not in the package: it is
the reference that the closed form gamma_separated is checked against.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from hjblab.controls import clip_box, control_norm, project_ball, zero_signal
from hjblab.engine import simulate_costs, simulate_ensemble
from hjblab.models import (
    ControlSpec,
    CostStructure,
    build_lq_benchmark,
    build_reaction_diffusion,
    riccati_solve,
)
from hjblab.seeds import stream
from hjblab.synthesis import (
    DppConfig,
    Policy,
    _control_adjoint_times,
    dpp_check,
    feynman_kac_value,
    gamma_separated,
    make_gamma_policy,
    make_riccati_policy,
    scale_policy,
    verify_optimality,
    zero_policy,
)
from hjblab.value import MCEstimate


# --- oracles ---------------------------------------------------------------


def controlled_mean(oracle, solution, t, x0):
    """Mean of the closed-loop state under feedback gain(s) x: the ODE
    m' = (a + alpha * gain(s)) m, integrated with fine fourth-order steps."""
    n = 4000
    h = (oracle.horizon - t) / n
    m = float(x0)
    for k in range(n):
        s = t + h * k

        def rate(sv, mv):
            return (oracle.a_lin + oracle.alpha * solution.gain_at(sv)) * mv

        k1 = rate(s, m)
        k2 = rate(s + h / 2, m + h * k1 / 2)
        k3 = rate(s + h / 2, m + h * k2 / 2)
        k4 = rate(s + h, m + h * k3)
        m += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return m


def lq_setup():
    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    return problem, oracle, sol


# --- hamiltonian probes -------------------------------------------------------


@dataclass
class HamiltonianProbe:
    x: np.ndarray
    p: np.ndarray
    argmin: np.ndarray
    value: float
    converged: bool = True
    notes: str = ""


def hamiltonian_value(problem, x, p, a):
    """F(x, p, a) = <p, b(x, a)>_H + l(x, a) for a batch of controls.

    b vanishes off the problem's channel, so the pairing sums the channel.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    x_b = np.broadcast_to(np.asarray(x, dtype=float), (a.shape[0], problem.dim))
    J = problem.block
    w = problem.space.weights[J]
    drift = problem.drift(x_b, a)
    pairing = np.sum(w * drift * np.asarray(p, dtype=float)[..., J], axis=-1)
    return pairing + problem.running_cost(x_b, a)


def _project_feasible(a, m, box, weights):
    # with a symmetric box containing the origin, clipping then radial
    # scaling lands inside the intersection; this is a retraction, not the
    # exact metric projection, which is fine for a descent method
    return project_ball(clip_box(a, box), m, weights)


def _hamiltonian_gradient(problem, x, p, a, weights):
    cs = problem.cost_structure
    if cs is not None:
        return _control_adjoint_times(problem, p) + cs.dl2(a)
    h = 1e-6 * (1.0 + float(control_norm(a, weights)))
    g = np.empty_like(a)
    for i in range(a.shape[0]):
        e = np.zeros_like(a)
        e[i] = h
        fp = hamiltonian_value(problem, x, p, a + e)[0]
        fm = hamiltonian_value(problem, x, p, a - e)[0]
        g[i] = (fp - fm) / (2 * h) / weights[i]
    return g


def hamiltonian_min(problem, x, p, m) -> HamiltonianProbe:
    """Constrained Hamiltonian minimum by multi-start projected descent.

    Six starts, all deterministic: the origin, the separated closed form when
    available, then random points on seed 0. Each descent takes at most 400
    steps from a unit step length and stops once a step is shorter than
    1e-10. Ties within 1e-9 of the best value keep the first argmin found and
    are noted on the probe.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    spec = problem.control_spec
    box, weights = spec.box, spec.weights

    starts = [np.zeros(spec.dim)]
    if problem.cost_structure is not None:
        starts.append(_project_feasible(gamma_separated(problem, p), m, box, weights))
    for k in range(max(0, 6 - len(starts))):
        draw = stream(0, "hmin_starts", k).normal(size=spec.dim) * (m / 2.0)
        starts.append(_project_feasible(draw, m, box, weights))

    def objective(a):
        return float(hamiltonian_value(problem, x, p, a[None, :])[0])

    best_a, best_v = None, np.inf
    notes = []
    converged = True
    for a0 in starts:
        a = a0.copy()
        v = objective(a)
        for _ in range(400):
            g = _hamiltonian_gradient(problem, x, p, a, weights)
            eta = 1.0
            moved = False
            while eta > 1e-14:
                trial = _project_feasible(a - eta * g, m, box, weights)
                tv = objective(trial)
                gap = float(np.sum(weights * g * (a - trial)))
                if tv <= v - 1e-4 * max(gap, 0.0) and tv < v + 1e-18:
                    step_len = float(control_norm(trial - a, weights))
                    a, v = trial, tv
                    moved = True
                    break
                eta *= 0.5
            if not moved or step_len < 1e-10:
                break
        else:
            converged = False
        if v < best_v - 1e-9:
            best_a, best_v = a, v
        elif abs(v - best_v) <= 1e-9 and best_a is not None:
            if control_norm(a - best_a, weights) > 1e-6:
                notes.append("tie: first argmin kept")
    return HamiltonianProbe(
        x=x, p=p, argmin=best_a, value=best_v, converged=converged,
        notes="; ".join(sorted(set(notes))),
    )


def test_hamiltonian_interior_minimum_is_closed_form():
    problem, _, _ = lq_setup()
    probe = hamiltonian_min(problem, np.array([1.0]), np.array([2.0]), m=10.0)
    # F = p(ax + alpha u) + q x^2 + r u^2: dF/du = alpha p + 2 r u
    assert abs(probe.argmin[0] - (-1.0)) < 1e-6
    assert probe.converged
    # probe value is the objective at the argmin, not a separate estimate
    recomputed = hamiltonian_value(problem, probe.x, probe.p, probe.argmin[None, :])[0]
    assert abs(probe.value - recomputed) < 1e-12


def test_hamiltonian_boundary_activation():
    problem, _, _ = lq_setup()
    probe = hamiltonian_min(problem, np.array([0.0]), np.array([50.0]), m=2.0)
    assert abs(abs(probe.argmin[0]) - 2.0) < 1e-6
    assert probe.argmin[0] < 0  # descends against the costate


def test_hamiltonian_beats_random_candidates():
    problem = build_reaction_diffusion(n_grid=6, noise_modes=1)
    x = stream(2, "hx", 0).normal(size=6)
    p = stream(2, "hp", 0).normal(size=6)
    m = 2.0
    probe = hamiltonian_min(problem, x, p, m)
    rng = stream(2, "hrand", 0)
    cands = rng.normal(size=(100, 6)) * m
    cands = project_ball(clip_box(cands, problem.control_spec.box), m,
                         problem.control_spec.weights)
    vals = hamiltonian_value(problem, x, p, cands)
    assert probe.value <= float(vals.min()) + 1e-9


def test_hamiltonian_truncation_stable_once_interior():
    problem, _, _ = lq_setup()
    a = hamiltonian_min(problem, np.array([0.5]), np.array([1.2]), m=5.0)
    b = hamiltonian_min(problem, np.array([0.5]), np.array([1.2]), m=50.0)
    assert abs(a.argmin[0] - b.argmin[0]) < 1e-8
    assert abs(a.value - b.value) < 1e-8


def test_hamiltonian_scales_with_cost_scaling():
    kappa = 2.5
    base = build_reaction_diffusion(n_grid=6, noise_modes=1)
    scaled = build_reaction_diffusion(n_grid=6, noise_modes=1,
                                      l1_coeff=kappa, nu=0.5 * kappa,
                                      g_coeff=kappa)
    x = stream(4, "sx", 0).normal(size=6) * 0.5
    p = stream(4, "sp", 0).normal(size=6) * 0.5
    a = hamiltonian_min(base, x, p, m=3.0)
    b = hamiltonian_min(scaled, x, kappa * p, m=3.0)
    assert abs(b.value - kappa * a.value) < 1e-8 * max(1.0, abs(a.value))
    np.testing.assert_allclose(b.argmin, a.argmin, atol=1e-6)


def test_hamiltonian_respects_box():
    problem, _ = build_lq_benchmark(control_bound=0.4)
    probe = hamiltonian_min(problem, np.array([0.0]), np.array([10.0]), m=5.0)
    assert abs(probe.argmin[0] + 0.4) < 1e-8


# --- gamma feedback -------------------------------------------------------------


def test_gamma_agrees_with_hamiltonian_min():
    problem, _, _ = lq_setup()
    rng = stream(6, "gp", 0)
    for _ in range(10):
        p = rng.normal(size=(1,)) * 2
        probe = hamiltonian_min(problem, np.array([0.3]), p, m=20.0)
        g = gamma_separated(problem, p)
        assert abs(g[0] - probe.argmin[0]) < 1e-4


def test_gamma_agrees_with_hamiltonian_min_distributed():
    problem = build_reaction_diffusion(n_grid=5, noise_modes=1)
    x = stream(6, "gx", 0).normal(size=5) * 0.5
    p = stream(6, "gp2", 0).normal(size=5) * 0.5
    probe = hamiltonian_min(problem, x, p, m=10.0)
    g = gamma_separated(problem, p)
    assert np.max(np.abs(g - probe.argmin)) < 1e-4


def test_gamma_lipschitz_constant():
    nu = 0.5
    problem = build_reaction_diffusion(n_grid=8, nu=nu)
    w = problem.control_spec.weights
    rng = stream(6, "lip", 0)
    for _ in range(50):
        p1 = rng.normal(size=(1, 8)) * 3
        p2 = rng.normal(size=(1, 8)) * 3
        num = np.sqrt(np.sum(w * (gamma_separated(problem, p1)
                                  - gamma_separated(problem, p2)) ** 2))
        den = np.sqrt(np.sum(w * (p1 - p2) ** 2))
        assert num <= den / (2 * nu) + 1e-9


def dense_channel_problem():
    """An 8-point state whose 3 weighted controls enter coordinates 2..6
    through a dense, non-diagonal G; noise acts on that channel alone."""
    base = build_reaction_diffusion(n_grid=8, noise_modes=1)
    block = slice(2, 7)
    g = np.zeros((8, 3))
    g[block] = stream(6, "dense_g", 0).normal(size=(5, 3))
    noise = np.zeros_like(base.noise)
    noise[block] = base.noise[block]
    w = np.array([0.5, 1.0, 2.0])
    cost = CostStructure(
        l1=base.cost_structure.l1,
        l2=lambda a: 0.5 * np.einsum("...j,...j,j->...", a, a, w),
        dl2=lambda a: a,
        dl2_inverse=lambda v: v,
        control_matrix=g,
    )
    return dataclasses.replace(
        base, channel=block, noise=noise, cost_structure=cost,
        control_spec=ControlSpec(dim=3, box=(-2.0, 2.0), weights=w),
        running_cost=None)


def test_gamma_map_is_row_wise_on_a_dense_channel_matrix():
    # each row computed alone has the bits of its row in a large batch,
    # whatever its offset: the contract every callback keeps
    problem = dense_channel_problem()
    p = stream(6, "dense_p", 0).normal(size=(997, 8)) * 2
    batch = gamma_separated(problem, p)
    assert np.any(np.abs(batch) < 2.0) and np.any(np.abs(batch) == 2.0)
    for k in range(len(p)):
        assert gamma_separated(problem, p[k:k + 1]).tobytes() == batch[k:k + 1].tobytes()
        assert gamma_separated(problem, p[k]).tobytes() == batch[k].tobytes()


def test_gamma_requires_cost_structure():
    problem, _, _ = lq_setup()
    stripped = type(problem)(**{**problem.__dict__, "cost_structure": None})
    with pytest.raises(ValueError):
        gamma_separated(stripped, np.array([1.0]))


def test_policy_provenance_validated():
    with pytest.raises(ValueError):
        Policy(feedback=lambda s, x: x, provenance="guess")


# --- closed loops -----------------------------------------------------------------


def test_zero_policy_matches_zero_signal_bitwise():
    problem, _, _ = lq_setup()
    pol = zero_policy(problem)
    a = simulate_ensemble(problem, 0.0, np.array([1.0]), pol, 1, n_steps=60,
                          seed=5)
    b = simulate_ensemble(problem, 0.0, np.array([1.0]), zero_signal(1), 1,
                          n_steps=60, seed=5)
    np.testing.assert_array_equal(a.states, b.states)


def test_closed_loop_mean_matches_gain_ode():
    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    ens = simulate_ensemble(problem, 0.0, np.array([1.5]), policy,
                            n_paths=4000, n_steps=200, seed=14)
    terminal = ens.states[:, -1, 0]
    target = controlled_mean(oracle, sol, 0.0, 1.5)
    se = terminal.std(ddof=1) / np.sqrt(4000)
    assert abs(terminal.mean() - target) < 3 * se + 0.01


def test_clip_fraction_reported_under_tight_box():
    problem, oracle = build_lq_benchmark(control_bound=0.2)
    sol = riccati_solve(oracle, np.linspace(0, 1, 801))
    policy = make_riccati_policy(problem, sol)
    # the raw feedback at |x| ~ 1.5 wants |u| ~ 1.2, far beyond the box
    run = simulate_costs(problem, 0.0, np.array([1.5]), policy, 1,
                         n_steps=80, seed=3, record_controls=True)
    # the share of path-steps whose control sits on the box
    at_box = np.any(np.abs(run.control_traces) == 0.2, axis=-1)
    assert at_box.mean() > 0.3
    assert np.all(np.abs(run.control_traces) <= 0.2 + 1e-12)


def test_feynman_kac_matches_riccati_value():
    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    x = np.array([1.5])
    est = feynman_kac_value(problem, policy, 0.0, x, n_paths=4000,
                            n_steps=300, seed=8)
    target = sol.value(0.0, x)
    assert abs(est.mean - target) < 3 * est.std_error + 0.02


def test_feynman_kac_trace_replay_is_bitwise():
    from hjblab.controls import TraceSignal

    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    run = simulate_costs(problem, 0.0, np.array([1.0]), policy, n_paths=64,
                         n_steps=50, seed=19, record_controls=True)
    replay = TraceSignal(run.time_grid[:-1], run.control_traces)
    est = feynman_kac_value(problem, replay, 0.0, np.array([1.0]), n_paths=64,
                            n_steps=50, seed=19)
    assert est == MCEstimate.from_samples(run.costs)


# --- verification -----------------------------------------------------------------


def test_verify_optimality_oracle_never_loses():
    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    for master in (1, 2, 3, 4, 5):
        rep = verify_optimality(problem, policy, 0.0, np.array([1.5]),
                                n_challengers=6, n_paths=1200, n_steps=120,
                                seed=master)
        assert rep.passed, (master, rep.witness)


def test_verify_optimality_flags_corrupted_gain():
    problem, oracle, sol = lq_setup()
    policy = scale_policy(make_riccati_policy(problem, sol), 2.0)
    rep = verify_optimality(problem, policy, 0.0, np.array([1.5]),
                            n_challengers=6, n_paths=1200, n_steps=120, seed=1)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.constants["min_margin"] < 0


def test_verify_reports_minimum_margin():
    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    rep = verify_optimality(problem, policy, 0.0, np.array([1.0]),
                            n_challengers=4, n_paths=600, n_steps=80, seed=9)
    assert rep.constants["n_challengers"] == 8
    assert np.isfinite(rep.constants["min_margin"])


def test_verify_policy_value_equals_direct_evaluation():
    # the tournament's base run is the "verify" block a direct call receives
    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    rep = verify_optimality(problem, policy, 0.0, np.array([1.0]),
                            n_challengers=2, n_paths=300, n_steps=60, seed=13)
    direct = feynman_kac_value(problem, policy, 0.0, np.array([1.0]),
                               n_paths=300, n_steps=60, seed=13,
                               stream_label="verify")
    assert rep.constants["policy_value"] == direct.mean


def test_verify_rejects_single_path():
    # one path has no paired standard error, and a NaN one would make every
    # loss test false: even a 3x gain would pass
    problem, oracle, sol = lq_setup()
    policy = scale_policy(make_riccati_policy(problem, sol), 3.0)
    with pytest.raises(ValueError, match="n_paths"):
        verify_optimality(problem, policy, 0.0, np.array([1.5]),
                          n_challengers=4, n_paths=1, n_steps=50, seed=3)


# --- dynamic programming consistency ------------------------------------------------


@pytest.mark.parametrize("field, value", [("n_paths", 1), ("n_outer", 1),
                                          ("n_inner", 0)])
def test_dpp_config_rejects_degenerate_sizes(field, value):
    # one path or one first leg gives a zero standard error, no inner
    # continuation leaves the nested side empty
    with pytest.raises(ValueError, match=field):
        DppConfig(**{field: value})


def test_dpp_degenerate_split_is_exact():
    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    rep = dpp_check(problem, policy, 0.0, np.array([1.0]), 0.0,
                    cfg=DppConfig(n_paths=400, n_steps=60), seed=3)
    assert rep.passed
    assert rep.constants["gap"] == 0.0


def test_dpp_holds_on_lq_midpoint():
    problem, oracle, sol = lq_setup()
    policy = make_riccati_policy(problem, sol)
    rep = dpp_check(problem, policy, 0.0, np.array([1.5]), 0.5,
                    cfg=DppConfig(n_paths=3000, n_outer=400, n_inner=16,
                                  n_steps=150), seed=21)
    assert rep.passed, rep.constants


def test_dpp_holds_for_any_fixed_policy():
    # the two-stage identity is a property of conditional expectations, so
    # it holds for suboptimal policies too
    problem = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.4)
    rep = dpp_check(problem, zero_policy(problem), 0.0,
                    0.3 * np.sin(np.pi * np.arange(1, 9) / 9), 0.2,
                    cfg=DppConfig(n_paths=1500, n_outer=250, n_inner=12,
                                  n_steps=80), seed=6)
    assert rep.passed, rep.constants


def test_dpp_validates_split_point():
    problem, oracle, sol = lq_setup()
    with pytest.raises(ValueError):
        dpp_check(problem, make_riccati_policy(problem, sol), 0.2,
                  np.array([1.0]), 0.1)
