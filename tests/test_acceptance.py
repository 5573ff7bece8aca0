"""End-to-end acceptance gates.

Each test covers one shipping criterion and prints a single verdict line
(visible with -s or on failure). Budgets are desk scale: the whole module
runs in about a minute on one core.
"""

import hashlib
import os
import time
import warnings
from pathlib import Path

import numpy as np

from hjblab import diagnostics as dg
from hjblab.cli import default_config, run_experiment
from hjblab.controls import zero_signal
from hjblab.hilbert import (
    BOperatorSpec,
    check_b_condition,
    check_positivity_preserving,
    interval_space,
    make_custom_operator,
    make_dirichlet_laplacian,
    make_zero_operator,
)
from hjblab.models import (
    ControlProblem,
    ControlSpec,
    build_lq_benchmark,
    build_reaction_diffusion,
    build_sdde_lift,
    riccati_solve,
)
from hjblab.seeds import stream
from hjblab.synthesis import (
    DppConfig,
    dpp_check,
    feynman_kac_value,
    make_gamma_policy,
    make_riccati_policy,
    scale_policy,
    verify_optimality,
    zero_policy,
)
from hjblab.value import (
    ControlFamily,
    PolicyIterationConfig,
    estimate_value_family,
    gradient_fd,
    make_policy_evaluator,
    policy_iteration,
    truncation_scan,
)


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def lq_setup():
    problem, oracle = build_lq_benchmark()
    sol = riccati_solve(oracle, np.linspace(0.0, problem.horizon, 801))
    return problem, sol, make_riccati_policy(problem, sol)


NINE_POINTS = [(t, x) for t in (0.0, 0.4, 0.8) for x in (-1.5, 0.5, 1.0)]


def test_c1_lq_oracle_equivalence():
    start = time.time()
    problem, sol, pol = lq_setup()
    family = ControlFamily(base_candidates=(pol,))
    worst = 0.0

    for (t, x) in NINE_POINTS:
        fv = estimate_value_family(
            problem, t, np.array([x]), family, n_candidates=12,
            paths_per_candidate=10_000 // 12, n_steps=200, seed=11)
        truth = sol.value(t, np.array([x]))
        tol = max(0.05 * abs(truth), 3 * fv.estimate.std_error)
        worst = max(worst, abs(fv.estimate.mean - truth) / tol)

    res = policy_iteration(
        problem, (0.0, 0.4, 0.8), np.linspace(-2, 2, 9)[:, None], n_rounds=6,
        cfg=PolicyIterationConfig(paths_per_point=3000, n_steps=120), seed=3)
    tested = 0
    for (t, x), est in zip(res.value_field.points, res.value_field.estimates):
        xv = float(np.atleast_1d(x)[0])
        if xv not in (-1.5, 0.5, 1.0):
            continue
        truth = sol.value(t, np.atleast_1d(x))
        tol = max(0.05 * abs(truth), 3 * est.std_error)
        worst = max(worst, abs(est.mean - truth) / tol)
        tested += 1

    ev = make_policy_evaluator(problem, pol, n_paths=4000, n_steps=150)
    for (t, x) in NINE_POINTS:
        grad, se = gradient_fd(ev, t, np.array([x]), seed=13)
        truth = sol.gradient(t, np.array([x]))[0]
        tol = max(0.05 * abs(truth), 3 * se[0])
        worst = max(worst, abs(grad[0] - truth) / tol)

    elapsed = time.time() - start
    ok = worst <= 1.0 and tested == 9 and res.converged and elapsed < 120
    assert _verdict(
        "c1", ok,
        f"family, policy iteration and FD gradient vs Riccati at 9 points, "
        f"worst err/tol {worst:.2f}, {elapsed:.0f}s")


def _rd_linear_cost():
    """Zero-reaction heat equation with linear state costs: the value is
    linear in x, its gradient is the adjoint state psi(t), and the optimal
    feedback psi(t)/(2 nu) is open loop and exactly computable."""
    rd = build_reaction_diffusion(
        n_grid=6, reaction="zero", noise_modes=2, noise_amp=0.05,
        l1="linear", l1_coeff=1.0, g="linear", g_coeff=1.0, nu=0.5,
        control_bound=5.0, horizon=0.5, name="rd_linear_cost")
    dim, T = rd.dim, rd.horizon
    ones = np.ones(dim)
    n_fine = 2000
    ts = np.linspace(0.0, T, n_fine + 1)
    dt = ts[1] - ts[0]
    A = rd.op.matrix  # symmetric, so it is its own weighted adjoint here
    psi = np.empty((n_fine + 1, dim))
    psi[-1] = ones
    for k in range(n_fine, 0, -1):
        p = psi[k]
        k1 = A.T @ p + ones
        k2 = A.T @ (p + 0.5 * dt * k1) + ones
        k3 = A.T @ (p + 0.5 * dt * k2) + ones
        k4 = A.T @ (p + dt * k3) + ones
        psi[k - 1] = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def psi_at(s):
        return np.array([np.interp(s, ts, psi[:, i]) for i in range(dim)])

    policy = make_gamma_policy(
        rd, lambda s, xb: np.broadcast_to(psi_at(s), xb.shape),
        label="adjoint_feedback")
    return rd, policy


def test_c2_synthesis_optimality():
    start = time.time()
    problem, sol, pol = lq_setup()
    checks = []

    for (t, x, seed) in ((0.0, 1.5, 7), (0.4, -1.0, 8), (0.8, 0.5, 9)):
        rep = verify_optimality(problem, pol, t, np.array([x]),
                                n_challengers=25, n_paths=1500, n_steps=150,
                                seed=seed)
        checks.append(rep.passed and rep.constants["n_challengers"] == 50)
    bad = verify_optimality(problem, scale_policy(pol, 2.0), 0.0,
                            np.array([1.5]), n_challengers=25, n_paths=1500,
                            n_steps=150, seed=7)
    checks.append(not bad.passed)

    rd, adj = _rd_linear_cost()
    probe = 0.3 * np.sin(np.pi * np.arange(1, 7) / 7.0)
    for (t, x, seed) in ((0.0, probe, 5), (0.2, -0.5 * probe, 6)):
        rep = verify_optimality(rd, adj, t, x, n_challengers=25,
                                n_paths=1500, n_steps=150, seed=seed)
        checks.append(rep.passed and rep.constants["n_challengers"] == 50)
    rd_bad = verify_optimality(rd, scale_policy(adj, 2.0), 0.0, probe,
                               n_challengers=25, n_paths=1500, n_steps=150,
                               seed=5)
    checks.append(not rd_bad.passed)
    checks.append(rd_bad.witness["challenger"] == "scaled_0.5")

    elapsed = time.time() - start
    ok = all(checks) and elapsed < 300
    assert _verdict(
        "c2", ok,
        f"gamma feedback beats 50 challengers on LQ and linear-cost heat, "
        f"corrupted gain fails, {elapsed:.0f}s")


def test_c3_feynman_kac_and_dpp():
    problem, sol, pol = lq_setup()
    checks = []

    for (t, x, seed) in ((0.0, 1.0, 31), (0.5, -1.2, 32)):
        est = feynman_kac_value(problem, pol, t, np.array([x]),
                                n_paths=10_000, n_steps=400, seed=seed)
        truth = sol.value(t, np.array([x]))
        checks.append(abs(est.mean - truth) <= 3 * est.std_error)

    rd = build_reaction_diffusion(n_grid=8, noise_modes=2, horizon=0.4)
    zp = zero_policy(rd)
    probe = 0.3 * np.sin(np.pi * np.arange(1, 9) / 9.0)
    fk = feynman_kac_value(rd, zp, 0.0, probe, n_paths=6000, n_steps=200,
                           seed=41)
    pt = feynman_kac_value(rd, zp, 0.0, probe, n_paths=6000, n_steps=200,
                           seed=77, stream_label="family_paths")
    comb = np.hypot(fk.std_error, pt.std_error)
    checks.append(abs(fk.mean - pt.mean) <= 3 * comb)

    for s_mid, seed in ((0.3, 21), (0.6, 22)):
        rep = dpp_check(problem, pol, 0.0, np.array([1.0]), s_mid,
                        cfg=DppConfig(n_paths=3000, n_outer=400, n_inner=16,
                                      n_steps=150), seed=seed)
        checks.append(rep.passed)
    for s_mid, seed in ((0.1, 23), (0.2, 24)):
        rep = dpp_check(rd, zp, 0.0, probe, s_mid,
                        cfg=DppConfig(n_paths=2000, n_outer=300, n_inner=12,
                                      n_steps=100), seed=seed)
        checks.append(rep.passed)

    assert _verdict(
        "c3", all(checks),
        "Feynman-Kac matches value estimates and the two-stage identity "
        "holds at two split times on LQ and reaction-diffusion")


def test_c4_comparison_ordering():
    heat = build_reaction_diffusion(n_grid=10, reaction="softplus_dec",
                                    noise_modes=2, horizon=0.5)
    x2 = np.zeros(10)
    x1 = x2.copy()
    x1[3:7] = 0.2
    rep = dg.comparison_check(heat, x1, x2, 0.3 * np.ones(10), None,
                              n_paths=1000, n_steps=200, seed=51)
    scale_ok = rep.constants["min_margin"] >= -rep.constants["tol"]

    sp = interval_space(2, 1.0)
    breaker = ControlProblem(
        name="order_breaker", space=sp,
        op=make_custom_operator(np.array([[0.0, -3.0], [-3.0, 0.0]])),
        b_op=None, drift=lambda x, a: np.zeros_like(x),
        noise=0.05 * np.eye(2), noise_dim=2,
        running_cost=lambda x, a: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_spec=ControlSpec(dim=2), horizon=0.3)
    bad = dg.comparison_check(breaker, np.array([0.0, 0.4]), np.zeros(2),
                              None, None, n_paths=50, n_steps=40, seed=5,
                              strict=False)

    ok = rep.passed and scale_ok and not bad.passed
    assert _verdict(
        "c4", ok,
        f"ordered data stays ordered on the Lipschitz heat equation "
        f"(worst margin {rep.constants['min_margin']:.1e}), non-Metzler "
        f"coupling breaks it ({bad.constants['min_margin']:.2f})")


def test_c5_regularity_scans():
    checks = []

    # linear dynamics with convex costs: the policy value is convex, so the
    # flipped defect must stay nonpositive at every sampled triple
    rdz = build_reaction_diffusion(n_grid=8, reaction="zero", noise_modes=2,
                                   horizon=0.4, name="linear_convex")
    probe = 0.3 * np.sin(np.pi * np.arange(1, 9) / 9.0)
    evz = make_policy_evaluator(rdz, zero_policy(rdz), n_paths=300,
                                n_steps=60)
    sv = dg.semiconvexity_scan(evz, 0.0, rdz.space,
                               dg.ScanConfig(n_pairs=23, radius=0.8,
                                             center=probe),
                               seed=61, c_bound=0.0)
    checks.append(sv.passed and sv.constants["n_triples"] >= 200)

    problem, sol, pol = lq_setup()
    evq = make_policy_evaluator(problem, pol, n_paths=1200, n_steps=100)
    sc = dg.semiconcavity_scan(evq, 0.0, problem.space,
                               dg.ScanConfig(n_pairs=8, radius=1.2), seed=9)
    checks.append(sc.passed and sc.constants["rel_change"] <= 0.2)

    evt = make_policy_evaluator(problem, pol, n_paths=1500, n_steps=120)

    def gev(tt, x, s):
        # pairs drawn near the origin sit below the FD noise floor by
        # construction; the pooled modulus estimate is what is under test
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*noise floor.*")
            return gradient_fd(evt, tt, x, seed=s)

    worst_rel = 0.0
    for t, seed in ((0.0, 5), (0.5, 6), (0.99, 7)):
        rng = np.random.default_rng(7)
        pairs = [(t, rng.normal(size=1) * 1.5, rng.normal(size=1) * 1.5)
                 for _ in range(5)]
        rep = dg.c11_modulus(evt, gev, pairs, problem.space, seed=seed)
        target = 2.0 * sol.p_at(t)
        worst_rel = max(worst_rel,
                        abs(rep.constants["c_hat"] - target) / target)
    checks.append(worst_rel <= 0.10)

    assert _verdict(
        "c5", all(checks),
        f"semiconvexity clean at {sv.constants['n_triples']} triples, "
        f"semiconcavity stable (rel {sc.constants['rel_change']:.1e}), "
        f"gradient modulus within {worst_rel:.1%} of 2P(t)")


def test_c6_trajectory_scaling_both_norms():
    checks = []
    sdde = build_sdde_lift(n_past=12, horizon=0.6)
    rng = stream(5, "c6_pairs", 0)
    prs = [(rng.normal(size=13) * 0.4, rng.normal(size=13) * 0.4)
           for _ in range(2)]
    slopes = {}
    for tag in ("H", "minus1"):
        rep = dg.trajectory_stability_check(sdde, 0.0, prs, n_paths=150,
                                            n_steps=80, seed=3, norm_tag=tag)
        slopes[tag] = rep.constants["slopes"]
        checks.append(rep.passed)
        checks.append(all(abs(s - 1.0) <= 0.1 for s in rep.constants["slopes"]))

    sd_nl = build_sdde_lift(n_past=12, horizon=0.6, c_nl=0.6)
    rng = stream(11, "c6_mid", 0)
    x0 = rng.normal(size=13) * 0.4
    u = rng.normal(size=13)
    z = zero_signal(1)
    probes = [dg.MidpointProbe(x0 - r * u, x0 + r * u, 0.5, z, z)
              for r in (0.4, 0.2, 0.1, 0.05)]
    mid_slopes = {}
    for tag in ("H", "minus1"):
        rep = dg.midpoint_trajectory_check(sd_nl, 0.0, probes, n_paths=200,
                                           n_steps=80, seed=6, norm_tag=tag)
        mid_slopes[tag] = rep.constants["group_slopes"]
        checks.append(rep.passed)
        checks.append(all(abs(s - 2.0) <= 0.2
                          for s in rep.constants["group_slopes"]))
        checks.append(len(rep.constants["group_slopes"]) == 1)

    assert _verdict(
        "c6", all(checks),
        f"delay-lift slopes: stability {slopes['H'][0]:.3f}/H "
        f"{slopes['minus1'][0]:.3f}/weak, midpoint "
        f"{mid_slopes['H'][0]:.3f}/H {mid_slopes['minus1'][0]:.3f}/weak")


def test_c7_truncation_stabilizes_at_feedback_amplitude():
    problem, sol, pol = lq_setup()
    x = np.array([1.5])
    rep = truncation_scan(problem, 0.0, x, (0.5, 1.0, 2.0, 4.0, 8.0),
                          family=ControlFamily(), n_candidates=12,
                          paths_per_candidate=1500, n_steps=150, seed=17)
    values = np.array(rep.constants["values"])
    ses = np.array(rep.constants["std_errors"])
    m_bar = rep.constants["m_bar"]
    j = rep.constants["m_bar_index"]

    monotone = bool(np.all(np.diff(values) <= 0))
    flat = bool(np.all(values[j] - values[j:]
                       <= 2.0 * np.sqrt(ses[j:] ** 2 + ses[j] ** 2)))
    amp = abs(sol.feedback(0.0, x)[0])
    consistent = 0.5 * amp <= m_bar <= 2.0 * amp

    ok = rep.passed and monotone and flat and consistent
    assert _verdict(
        "c7", ok,
        f"value flat beyond m_bar={m_bar:g} (oracle feedback amplitude "
        f"{amp:.2f}), curve monotone nonincreasing")


def test_c8_structural_and_replay():
    checks = []

    space1 = interval_space(1, 1.0)
    flat = check_b_condition(
        make_zero_operator(1),
        BOperatorSpec(matrix=np.eye(1), c0=1.0, mode="strong", space=space1))
    checks.append(flat.passed)

    sdde = build_sdde_lift(n_past=12, horizon=0.6)
    weak = check_b_condition(sdde.op, sdde.b_op)
    checks.append(weak.passed and sdde.b_op.mode == "weak")

    lap = make_dirichlet_laplacian(12, 1.0, 0.05)
    pos = check_positivity_preserving(lap, (1e-3, 1e-2, 1e-1), seed=1)
    checks.append(pos.passed)

    # full-run bitwise reproducibility across two identical runs
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "replay")
        cfg = default_config("lq")
        cfg.simulation.update(n_paths=400, n_steps=50)
        cfg.value.update(family_size=4)
        cfg.diagnostics.update(scans=("structural", "stability", "midpoint"),
                               eval_paths=150, eval_steps=40, probe_paths=80,
                               n_pairs=4)
        cfg.output["directory"] = out

        def digest():
            return {
                f: hashlib.sha256(Path(out, f).read_bytes()).hexdigest()
                for f in sorted(os.listdir(out))
            }

        code1 = run_experiment(cfg, echo=lambda *_: None)
        first = digest()
        code2 = run_experiment(cfg, echo=lambda *_: None)
        checks.append(code1 == 0 and code2 == 0)
        checks.append(digest() == first)

    assert _verdict(
        "c8", all(checks),
        "operator inequalities hold (strong flat pair, weak delay pair), "
        "semigroup preserves positivity across dt decades, full run "
        "replays bitwise across two identical runs")
