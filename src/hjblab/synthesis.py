"""Feedback synthesis and optimality verification.

The pointwise Hamiltonian at (x, p) over the truncated admissible set is

    H_m(x, p) = inf { <p, b(x, a)>_H + l(x, a) : a in box, ||a|| <= m }

For separated costs l = l1 + l2 with strictly convex quadratic-like l2 the
unconstrained minimizer is closed-form: a* = dl2_inverse(-G* p) with G the
drift's control coupling and G* its adjoint between the weighted spaces.
gamma_separated evaluates that map; hamiltonian_min solves the constrained
problem numerically and is the reference the closed form is audited against.

A Policy wraps a feedback map plus provenance. verify_optimality puts a
policy up against random open-loop signals and scaled variants of itself on
common random numbers: a policy claiming optimality must not lose to any
challenger by more than Monte Carlo noise.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .controls import clip_box, control_norm, project_ball
from .engine import simulate_costs
from .report import PASS, FAIL, DiagnosticReport
from .seeds import stream
from .value import MCEstimate, ControlFamily, cost_samples

__all__ = [
    "Policy",
    "HamiltonianProbe",
    "hamiltonian_value",
    "hamiltonian_min",
    "gamma_separated",
    "make_gamma_policy",
    "make_riccati_policy",
    "scale_policy",
    "zero_policy",
    "feynman_kac_value",
    "verify_optimality",
    "DppConfig",
    "dpp_check",
]

_PROVENANCES = ("closed_form_gamma", "policy_iteration", "oracle")


@dataclass(frozen=True)
class Policy:
    """Feedback map (s, state batch) -> control batch, with provenance and a
    report label; a gamma policy's gradient field lives in its closure.

    feedback is row-wise: row k of the control batch depends on s and state
    row k alone, with the same bits whatever rows share the batch and at
    whatever offset, since the engine calls it once per path tile on the
    stacked rows of the adjacent contestants that share this policy.
    """

    feedback: Callable
    provenance: str
    label: str = ""

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(
                f"provenance must be one of {_PROVENANCES}, got '{self.provenance}'"
            )


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


def _control_adjoint_times(problem, p):
    """G* p = W_control^{-1} G^T W_state p, batched over the last axis of p.

    G's rows vanish off the problem's channel, so only the channel enters.
    The sum over the channel is an einsum, not @, so that it is row-wise
    (see models.ControlProblem).
    """
    J = problem.block
    g = problem.cost_structure.control_matrix[J]
    wh = problem.space.weights[J]
    wl = problem.control_spec.weights
    return np.einsum("...j,jc->...c", np.asarray(p, dtype=float)[..., J] * wh, g) / wl


def gamma_separated(problem, p):
    """Pointwise minimizer dl2_inverse(-G* p), clipped into the box.

    With separated costs the minimizer depends on the gradient alone.
    """
    if problem.cost_structure is None:
        raise ValueError("gamma_separated needs a separated cost structure")
    raw = problem.cost_structure.dl2_inverse(-_control_adjoint_times(problem, p))
    return clip_box(raw, problem.control_spec.box)


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
    Kept public as the reference that tests check gamma_separated against.
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


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


def make_gamma_policy(problem, gradient_fn, provenance="closed_form_gamma",
                      label="") -> Policy:
    """Feedback x -> gamma(DV(t, x)) from a supplied gradient field.

    gradient_fn(t, x_batch) must return the spatial gradient (in the
    weighted inner product) at each state row.
    """

    def feedback(s, x_batch):
        xb = np.atleast_2d(np.asarray(x_batch, dtype=float))
        return gamma_separated(problem, gradient_fn(s, xb))

    return Policy(feedback=feedback, provenance=provenance, label=label)


def make_riccati_policy(problem, solution) -> Policy:
    return make_gamma_policy(
        problem, lambda s, xb: solution.gradient(s, xb),
        provenance="oracle", label="riccati",
    )


def scale_policy(policy: Policy, factor: float, label=None) -> Policy:
    inner = policy.feedback
    return Policy(
        feedback=lambda s, xb: factor * inner(s, xb),
        provenance=policy.provenance,
        label=label if label is not None else f"{policy.label}*{factor:g}",
    )


def zero_policy(problem) -> Policy:
    q = problem.control_spec.dim
    return Policy(
        feedback=lambda s, xb: np.zeros((np.atleast_2d(xb).shape[0], q)),
        provenance="closed_form_gamma",
        label="zero",
    )


def feynman_kac_value(problem, policy, t, x, n_paths=2000, n_steps=200,
                      seed=42, stream_label="paths") -> MCEstimate:
    """Expected cost along the closed loop: the probabilistic reading of the
    value the policy actually achieves. Kept public for acceptance test c3
    and the oneshot_sdde benchmark."""
    return MCEstimate.from_samples(
        cost_samples(problem, t, x, policy, n_paths, n_steps, seed,
                     stream_label=stream_label)
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

_PERTURB_FACTORS = (0.5, 2.0, 0.8, 1.25, 0.65, 1.6, 0.9, 1.1)
_TOURNAMENT_SE_MULT = 3.0


def verify_optimality(
    problem,
    policy,
    t,
    x,
    n_challengers=12,
    n_paths=2000,
    n_steps=150,
    seed=42,
) -> DiagnosticReport:
    """Paired tournament: the policy against random open-loop signals and
    scaled variants of itself.

    Every contestant runs in one engine call on the same Brownian increments
    (seed, stream "verify", n_paths, n_steps), so each margin
    mean(J_challenger - J_policy) carries the standard error of a paired
    difference. The open-loop signals are draws of the default ControlFamily.
    Pass iff no challenger wins by more than _TOURNAMENT_SE_MULT (three) of
    its own margin errors. The minimum margin and its challenger are reported
    either way; a corrupted policy fails here because its unscaled parent is
    among the challengers.
    """
    if n_paths < 2:
        raise ValueError("verify_optimality needs n_paths >= 2: a margin's "
                         "standard error is undefined on one path")
    family = ControlFamily()
    challengers = [(f"open_loop_{j}", family.sampled(problem, t, j, seed))
                   for j in range(n_challengers)]
    for j in range(n_challengers):
        f = _PERTURB_FACTORS[j % len(_PERTURB_FACTORS)]
        # repeated factors get a deterministic jitter so variants differ
        if j >= len(_PERTURB_FACTORS):
            f *= 1.0 + 0.05 * (j // len(_PERTURB_FACTORS))
        challengers.append((f"scaled_{f:g}", scale_policy(policy, f)))

    base, *runs = cost_samples(problem, t, [x] * (len(challengers) + 1),
                               [policy] + [c for _, c in challengers],
                               n_paths, n_steps, seed, stream_label="verify")
    diffs = [MCEstimate.from_samples(r - base) for r in runs]
    margins = np.array([e.mean for e in diffs])
    ses = np.array([e.std_error for e in diffs])
    losses = margins < -_TOURNAMENT_SE_MULT * ses
    worst = int(np.argmin(margins))
    ok = not bool(np.any(losses))
    return DiagnosticReport(
        name="optimality_tournament",
        verdict=PASS if ok else FAIL,
        samples_used=n_paths * (len(challengers) + 1),
        constants={
            "min_margin": float(margins[worst]),
            "min_margin_se": float(ses[worst]),
            "n_challengers": len(challengers),
            "policy_value": float(base.mean()),
        },
        witness=None if ok else {
            "challenger": challengers[worst][0],
            "margin": float(margins[worst]),
            "se": float(ses[worst]),
            "seed": seed,
        },
        tolerance=_TOURNAMENT_SE_MULT,
        notes=f"policy '{policy.label or policy.provenance}' on {problem.name}",
    )


@dataclass(frozen=True)
class DppConfig:
    n_paths: int = 2000          # one-shot runs and the left-hand side
    n_outer: int = 300           # first-leg paths for the nested side
    n_inner: int = 24            # continuations per first-leg path
    n_steps: int = 150
    se_mult: float = 3.0

    def __post_init__(self):
        # one path or one first leg gives a zero standard error, which no
        # tolerance can fail; no inner continuation leaves nothing to average
        for name, least in (("n_paths", 2), ("n_outer", 2), ("n_inner", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


def dpp_check(problem, policy, t, x, s_mid, cfg: Optional[DppConfig] = None,
              seed=42) -> DiagnosticReport:
    """Two-stage consistency: cost-to-go now vs cost to s_mid plus cost-to-go
    from the reached states.

    The nested side stitches a first leg on [t, s_mid], a run of the problem
    cut at s_mid with a zero terminal cost, to fresh inner ensembles started
    at each reached state (inner streams are derived, not reused, so the
    identity is tested rather than replayed). Degenerate s_mid = t compares
    the estimate to itself and passes exactly.
    """
    cfg = cfg or DppConfig()
    if not (t <= s_mid < problem.horizon):
        raise ValueError("need t <= s_mid < horizon")

    lhs = MCEstimate.from_samples(
        cost_samples(problem, t, x, policy, cfg.n_paths, cfg.n_steps, seed,
                     stream_label="dpp_lhs")
    )
    if s_mid == t:
        rhs = lhs
    else:
        frac = (s_mid - t) / (problem.horizon - t)
        n1 = max(1, int(round(cfg.n_steps * frac)))
        n2 = max(1, cfg.n_steps - n1)
        # adding the zero terminal cost keeps the running costs' bits
        cut = replace(problem, horizon=s_mid,
                      terminal_cost=lambda xb: np.zeros(xb.shape[:-1]))
        leg = simulate_costs(cut, t, x, policy, cfg.n_outer, n1, seed,
                             stream_label="dpp_leg1")
        mids = np.repeat(leg.terminal_states, cfg.n_inner, axis=0)
        inner = simulate_costs(problem, s_mid, mids,
                               policy, cfg.n_outer * cfg.n_inner, n2,
                               seed, stream_label="dpp_inner")
        cont = inner.costs.reshape(cfg.n_outer, cfg.n_inner).mean(axis=1)
        rhs = MCEstimate.from_samples(leg.costs + cont)

    gap = abs(lhs.mean - rhs.mean)
    tol = cfg.se_mult * math.sqrt(lhs.std_error**2 + rhs.std_error**2)
    ok = gap <= tol or (s_mid == t)
    return DiagnosticReport(
        name="dpp_consistency",
        verdict=PASS if ok else FAIL,
        samples_used=cfg.n_paths + (0 if s_mid == t else
                                    cfg.n_outer * (1 + cfg.n_inner)),
        constants={
            "lhs": lhs.mean, "lhs_se": lhs.std_error,
            "rhs": rhs.mean, "rhs_se": rhs.std_error,
            "gap": gap, "tolerance": tol, "s_mid": float(s_mid),
        },
        witness=None if ok else {"seed": seed, "gap": gap, "tol": tol},
        tolerance=tol,
        notes=f"split at s={s_mid:g} on {problem.name}",
    )
