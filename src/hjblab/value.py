"""Monte Carlo cost and value estimation.

The value of a point (t, x) is approached from above by minimizing the
estimated cost over a family of admissible candidates: sampled open-loop
signals, the zero signal, and optionally feedback policies. Policies count
as candidates on purpose: with nonzero noise the best open-loop signal is
strictly worse than the best adapted control, so a family without feedback
candidates stalls above the value.

All candidates at one point are evaluated on the same Brownian increments
(common random numbers), which makes candidate comparisons paired and lets
ties break deterministically toward the lowest index. There is no increment
argument to pass: the candidates go to the engine as the contestants of one
call, which makes one request (seed, stream label, paths, steps) and
advances them together; the same request always yields the same block.

cost_samples reads the per-path costs off one engine run and is how this
layer runs the engine, except that policy iteration hands each round's
runs to engine.simulate_costs_batch together; the estimate for a single
control is synthesis.feynman_kac_value.

Evaluators price a batch of points: evaluator(t, xs (K, N), seed) returns
per-path samples (K, P), one row per point, all on one seed. A policy
evaluator runs the K points as contestants of one engine call, so the legs
of a finite difference or a defect-scan pair with its midpoints cost one
noise request. Policy iteration goes one step further and prices a whole
time row of its grid in one engine run, each grid point on its own paths,
and a round's rows in one batch on one noise request, so its rows are
paired as its rounds are and the engine draws one block per call; the
engine may split a round across processes, by rows, with the bits and
increment-memo counts of a serial loop.

The records hold estimates, not what made them: a FamilyValue names its best
candidate by index and label, and a ValueField pairs points with estimates.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .controls import (
    ConstantSignal,
    PiecewiseConstantSignal,
    clip_box,
    project_ball,
    zero_signal,
)
from .engine import simulate_costs, simulate_costs_batch
from .report import PASS, FAIL, DiagnosticReport
from .seeds import stream

__all__ = [
    "MCEstimate",
    "ValueField",
    "ControlFamily",
    "FamilyValue",
    "cost_samples",
    "estimate_value_family",
    "truncation_scan",
    "gradient_fd",
    "below_noise_floor",
    "PolicyIterationConfig",
    "PolicyIterationResult",
    "policy_iteration",
    "make_policy_evaluator",
]


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int

    @classmethod
    def from_samples(cls, samples):
        s = np.asarray(samples, dtype=float)
        n = s.shape[0]
        se = float(s.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean=float(s.mean()), std_error=se, n_paths=n)


@dataclass
class ValueField:
    """Value estimates on a set of (t, x) points."""

    points: list          # [(t, x array), ...]
    estimates: list       # [MCEstimate, ...]

    def __post_init__(self):
        if len(self.points) != len(self.estimates):
            raise ValueError("one estimate per point required")


@dataclass(frozen=True)
class ControlFamily:
    """Recipe for candidate controls at a point (t, x).

    Sampled candidates are piecewise constant on n_segments equal pieces of
    [t, T], drawn coordinatewise, clipped into the box and projected into
    the weighted ball of radius m_truncation. base_candidates are prepended
    verbatim (signals or feedback policies); the zero signal is always
    worth including since costs here are nonnegative-ish near zero.
    """

    n_segments: int = 4
    m_truncation: float = 8.0
    draw_scale: Optional[float] = None
    include_zero: bool = True
    base_candidates: tuple = ()

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("need at least one segment")
        if not (self.m_truncation > 0):
            raise ValueError("m_truncation must be positive")

    def sampled(self, problem, t, index, seed, m=None):
        """Candidate #index; depends only on (seed, index), not on how many
        candidates are drawn alongside it."""
        m_eff = self.m_truncation if m is None else m
        spec = problem.control_spec
        rng = stream(seed, "family_draw", index)
        scale = self.draw_scale
        if scale is None:
            scale = m_eff / 2.0
        if spec.box is not None:
            lo, hi = spec.box
            vals = rng.uniform(lo, hi, size=(self.n_segments, spec.dim))
        else:
            vals = rng.normal(size=(self.n_segments, spec.dim)) * scale
        vals = clip_box(vals, spec.box)
        vals = project_ball(vals, m_eff, spec.weights)
        knots = np.linspace(t, problem.horizon, self.n_segments + 1)
        return PiecewiseConstantSignal(knots, vals)

    def candidates(self, problem, t, n_candidates, seed, m=None):
        """(label, control) pairs: bases, then zero, then sampled draws."""
        out = [(f"base{i}", c) for i, c in enumerate(self.base_candidates)]
        if self.include_zero:
            out.append(("zero", zero_signal(problem.control_spec.dim)))
        out += [
            (f"sample{j}", self.sampled(problem, t, j, seed, m=m))
            for j in range(n_candidates)
        ]
        return out


@dataclass
class FamilyValue:
    """Best-candidate estimate plus every candidate's, by label."""

    estimate: MCEstimate
    argmin_index: int
    argmin_label: str
    candidate_estimates: list
    candidate_labels: list


def cost_samples(problem, t, x, control, n_paths, n_steps=200, seed=42,
                 stream_label="paths"):
    """Per-path total costs J_k; the raw material under every estimate.

    Calls with equal (seed, stream_label, n_paths, n_steps) run on the same
    Brownian increments, which is how contestants are paired. Lists of
    initial states and controls run as contestants in one engine call and
    give a list of cost arrays, in their order.
    """
    runs = simulate_costs(problem, t, x, control, n_paths, n_steps, seed,
                          stream_label)
    if isinstance(control, list):
        return [run.costs for run in runs]
    return runs.costs


def estimate_value_family(
    problem,
    t,
    x,
    family: ControlFamily,
    n_candidates=12,
    paths_per_candidate=2000,
    n_steps=200,
    seed=42,
) -> FamilyValue:
    """Upper value estimate: paired minimum over the candidate family.

    Enlarging n_candidates with the same seed only appends candidates, so
    the reported mean is nonincreasing in n_candidates by construction.
    Ties go to the lowest candidate index (np.argmin semantics).
    """
    pairs = family.candidates(problem, t, n_candidates, seed)
    all_samples = cost_samples(problem, t, [x] * len(pairs),
                               [control for _, control in pairs],
                               paths_per_candidate, n_steps, seed,
                               stream_label="family_paths")
    estimates = [MCEstimate.from_samples(s) for s in all_samples]
    means = np.array([e.mean for e in estimates])
    best = int(np.argmin(means))
    return FamilyValue(
        estimate=estimates[best],
        argmin_index=best,
        argmin_label=pairs[best][0],
        candidate_estimates=estimates,
        candidate_labels=[p[0] for p in pairs],
    )


def _truncate_candidate(candidate, m, weights):
    """Project a candidate into the radius-m ball: signals by value, feedback
    policies by wrapping their output."""
    if hasattr(candidate, "feedback"):
        inner = candidate.feedback
        return replace(
            candidate,
            feedback=lambda s, x_batch: project_ball(inner(s, x_batch), m,
                                                     weights))
    if isinstance(candidate, PiecewiseConstantSignal):
        return PiecewiseConstantSignal(candidate.knots,
                                       project_ball(candidate.values, m, weights))
    if isinstance(candidate, ConstantSignal):
        return ConstantSignal(project_ball(candidate.value, m, weights))
    raise TypeError("truncation supports constant or piecewise signals and policies")


def _signal_bytes(control):
    """The bits that fix a projected signal's run; None for feedback policies,
    whose output cannot be compared without running them."""
    if isinstance(control, PiecewiseConstantSignal):
        return (control.knots.tobytes(), control.values.shape,
                control.values.tobytes())
    if isinstance(control, ConstantSignal):
        return (control.value.shape, control.value.tobytes())
    return None


_FLAT_SE_MULT = 2.0


def truncation_scan(
    problem,
    t,
    x,
    m_list,
    family: Optional[ControlFamily] = None,
    n_candidates=10,
    paths_per_candidate=1000,
    n_steps=120,
    seed=7,
) -> DiagnosticReport:
    """Value vs truncation radius: find where enlarging the ball stops helping.

    One raw candidate set is drawn at the largest radius; each level m sees
    its projections onto the m-ball. Reported level values are running
    minima over levels (the candidate sets then nest), so the curve is
    nonincreasing by construction and flatness is a statistical question:
    m_bar is the smallest level whose value is within _FLAT_SE_MULT (two)
    combined standard errors of everything after it. The scan fails if that
    never happens before the second-to-last level, i.e. the curve is still
    moving at the edge of the scanned range.

    A signal candidate whose projection is bitwise the previous level's keeps
    that level's estimate instead of rerunning it; feedback candidates rerun
    at every level.
    """
    m_arr = np.asarray(m_list, dtype=float)
    if len(m_arr) < 3 or np.any(np.diff(m_arr) <= 0) or m_arr[0] <= 0:
        raise ValueError("m_list must be >= 3 increasing positive radii")
    if family is None:
        family = ControlFamily(m_truncation=float(m_arr[-1]))
    else:
        family = replace(family, m_truncation=float(m_arr[-1]))

    raw = family.candidates(problem, t, n_candidates, seed, m=float(m_arr[-1]))
    weights = problem.control_spec.weights

    # every level runs on the same increments, so a candidate whose
    # projection did not change would repeat the previous level's bits
    previous = [(None, None)] * len(raw)
    level_values, level_ses = [], []
    for m in m_arr:
        rerun = {}
        for i, (_, cand) in enumerate(raw):
            c_m = _truncate_candidate(cand, float(m), weights)
            key = _signal_bytes(c_m)
            if key is None or key != previous[i][0]:
                rerun[i] = (key, c_m)
        if rerun:
            samples = cost_samples(problem, t, [x] * len(rerun),
                                   [c_m for _, c_m in rerun.values()],
                                   paths_per_candidate, n_steps, seed,
                                   stream_label="family_paths")
            for (i, (key, _)), s in zip(rerun.items(), samples):
                previous[i] = (key, MCEstimate.from_samples(s))
        best_mean, best_se = np.inf, np.inf
        for _, est in previous:
            if est.mean < best_mean:
                best_mean, best_se = est.mean, est.std_error
        level_values.append(best_mean)
        level_ses.append(best_se)

    run_min, run_se = [], []
    cur, cur_se = np.inf, np.inf
    for v, s in zip(level_values, level_ses):
        if v < cur:
            cur, cur_se = v, s
        run_min.append(cur)
        run_se.append(cur_se)

    m_bar_idx = None
    for j in range(len(m_arr)):
        tol = _FLAT_SE_MULT * np.sqrt(
            np.array(run_se[j:]) ** 2 + run_se[j] ** 2
        )
        if np.all(run_min[j] - np.array(run_min[j:]) <= tol):
            m_bar_idx = j
            break
    ok = m_bar_idx is not None and m_bar_idx <= len(m_arr) - 2
    return DiagnosticReport(
        name="truncation_scan",
        verdict=PASS if ok else FAIL,
        samples_used=paths_per_candidate * len(raw) * len(m_arr),
        constants={
            "m_list": m_arr.tolist(),
            "values": run_min,
            "level_values": level_values,
            "std_errors": run_se,
            "m_bar": float(m_arr[m_bar_idx]) if m_bar_idx is not None else float("nan"),
            "m_bar_index": -1 if m_bar_idx is None else m_bar_idx,
        },
        witness=None if ok else {"seed": seed, "values": run_min},
        tolerance=_FLAT_SE_MULT,
        notes="value flatness across truncation radii",
    )


def _central_differences(x, h, w):
    """The step and the 2N difference points: x + h e_i, then x - h e_i."""
    if h is None:
        h = 1e-3 * (1.0 + float(np.sqrt(np.sum(w * x * x))))
    step = np.diag(np.full(x.shape[0], h))
    return h, np.concatenate([x + step, x - step])


def _slopes(samples, h, w):
    """Gradient and its standard errors from the 2N points' samples."""
    n = w.shape[0]
    grad = np.empty(n)
    ses = np.empty(n)
    for i in range(n):
        est = MCEstimate.from_samples((samples[i] - samples[n + i]) / (2.0 * h))
        grad[i] = est.mean / w[i]
        ses[i] = est.std_error / w[i]
    return grad, ses


def gradient_fd(value_evaluator, t, x, h=None, seed=0, weights=None):
    """Central-difference spatial gradient of an estimated value field.

    The 2N points x +- h e_i go to value_evaluator in one call on one seed,
    so the difference samples are paired and the reported standard errors
    are of the differences, not of the values. The returned gradient is
    taken in the weighted inner product: coordinate slopes divided by the
    weights.

    Warns when any component is below the Monte Carlo noise floor (see
    below_noise_floor).
    """
    x = np.asarray(x, dtype=float)
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    h, points = _central_differences(x, h, w)
    grad, ses = _slopes(np.asarray(value_evaluator(t, points, seed), dtype=float),
                        h, w)
    noisy = below_noise_floor(grad, ses)
    if np.any(noisy):
        warnings.warn(
            f"gradient components {np.flatnonzero(noisy).tolist()} are below "
            "the Monte Carlo noise floor; increase paths or the step",
            stacklevel=2,
        )
    return grad, ses


def below_noise_floor(grad, ses):
    """Components whose standard error exceeds the component itself: there
    the sign of the slope is statistically unresolved."""
    return np.abs(ses) > np.abs(grad)


# ---------------------------------------------------------------------------
# evaluators: the uniform (t, xs (K, N), seed) -> samples (K, P) contract
# ---------------------------------------------------------------------------


def make_policy_evaluator(problem, policy, n_paths=2000, n_steps=150):
    """The policy's per-path costs from each of the points xs, which run as
    contestants of one engine call on one noise request (stream "paths")."""
    def evaluator(t, xs, seed):
        xs = np.asarray(xs, dtype=float)
        return np.stack(cost_samples(problem, t, list(xs), [policy] * len(xs),
                                     n_paths, n_steps, seed))
    return evaluator


# ---------------------------------------------------------------------------
# approximate policy iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyIterationConfig:
    paths_per_point: int = 1500
    n_steps: int = 120
    tol_abs: float = 0.02
    tol_rel: float = 0.01

    def __post_init__(self):
        # one path gives a zero standard error, which no tolerance can fail
        if self.paths_per_point < 2:
            raise ValueError("paths_per_point must be >= 2, got "
                             f"{self.paths_per_point}")


@dataclass
class PolicyIterationResult:
    value_field: ValueField
    policy: object
    converged: bool
    rounds_run: int
    round_changes: list
    round_values: list  # list of value arrays, one per round


class _GridGradientField:
    """Per-row 1-D linear interpolation of gradients over x_grid; rows are
    looked up by nearest time. Multi-dimensional states fall back to the
    nearest grid point."""

    def __init__(self, t_grid, x_grid, grads):
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.x_grid = np.asarray(x_grid, dtype=float)
        self.grads = np.asarray(grads, dtype=float)  # (T, K, N)
        self.scalar = self.x_grid.shape[1] == 1
        if self.scalar:
            order = np.argsort(self.x_grid[:, 0])
            self.x_sorted = self.x_grid[order, 0]
            self.g_sorted = self.grads[:, order, 0]

    def row_index(self, s):
        return int(np.argmin(np.abs(self.t_grid - s)))

    def __call__(self, s, x_batch):
        i = self.row_index(s)
        x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
        if self.scalar:
            vals = np.interp(x_batch[:, 0], self.x_sorted, self.g_sorted[i])
            return vals[:, None]
        d2 = np.sum((x_batch[:, None, :] - self.x_grid[None, :, :]) ** 2, axis=-1)
        return self.grads[i][np.argmin(d2, axis=1)]


def policy_iteration(
    problem,
    t_grid,
    x_grid,
    n_rounds=5,
    cfg: Optional[PolicyIterationConfig] = None,
    seed=42,
) -> PolicyIterationResult:
    """Evaluate-then-improve on a (t, x) grid.

    Each round evaluates the current policy's cost at every grid point,
    differentiates the field in x by central differences with gradient_fd's
    default step, and feeds the interpolated gradient through gamma_separated
    to get the next policy. Stops early once the value field moves less than
    tol_abs + tol_rel * |V| between rounds; otherwise reports non-convergence
    along with the whole change sequence rather than pretending.

    Every time row of every round makes one noise request: J * P paths of
    n_steps on seed and the stream "policy_iteration", where grid point j
    owns paths [j P, (j+1) P). A row t_i is priced in one engine run whose
    contestants are the points and their 2N difference legs, each a
    per-path (J P, N) starting state, so every point's estimate and slopes
    come from its own disjoint paths and its legs share them. Rows are
    paired as rounds are: path k of point j sees the same standard normals
    at every t_i and in every round, scaled by each row's own sqrt(dt), so
    each point's estimate keeps its law and one block is drawn per call. A
    round prices its rows in one engine.simulate_costs_batch call; on one
    noise request they are one fan-out of the engine, on one block, cut by
    rows into shares of equal work, at paths a multiple of 64 apart. The
    output bits and the increment-memo counts are those of a serial loop.
    Kept public for acceptance test c1 and the oracle_lq benchmark.
    """
    cfg = cfg or PolicyIterationConfig()
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    t_arr = np.asarray(t_grid, dtype=float)
    x_arr = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if x_arr.shape[0] == 1 and x_arr.shape[1] != problem.dim:
        x_arr = x_arr.T
    if np.any(t_arr >= problem.horizon):
        raise ValueError("evaluation times must sit strictly inside the horizon")
    from .synthesis import make_gamma_policy, zero_policy

    policy = zero_policy(problem)

    w = np.asarray(problem.space.weights, dtype=float)
    n_points, n_paths = x_arr.shape[0], cfg.paths_per_point
    # per point its step and 2N legs; per contestant its (J P, N) start
    steps, legs = zip(*(_central_differences(x_j, None, w)
                        for x_j in x_arr))
    starts = np.concatenate([x_arr[None], np.stack(legs, axis=1)])
    starts = list(np.repeat(starts, n_paths, axis=1))
    round_values, round_changes = [], []
    prev_vals = None
    rounds_run = 0
    converged = False
    for rnd in range(n_rounds):
        rounds_run = rnd + 1
        est_grid = [[None] * n_points for _ in t_arr]
        grad_grid = np.empty((len(t_arr), n_points, problem.dim))
        requests = [(float(t), starts, [policy] * len(starts),
                     n_points * n_paths, cfg.n_steps, seed, "policy_iteration")
                    for t in t_arr]
        for i, runs in enumerate(simulate_costs_batch(problem, requests)):
            samples = np.stack([run.costs for run in runs])
            for j in range(n_points):
                rows = slice(j * n_paths, (j + 1) * n_paths)
                est_grid[i][j] = MCEstimate.from_samples(samples[0, rows])
                grad_grid[i, j], _ = _slopes(samples[1:, rows], steps[j], w)
        vals = np.array([[e.mean for e in row] for row in est_grid])
        round_values.append(vals)

        if prev_vals is not None:
            change = float(np.max(np.abs(vals - prev_vals)))
            round_changes.append(change)
            if change <= cfg.tol_abs + cfg.tol_rel * float(np.max(np.abs(vals))):
                converged = True
        prev_vals = vals

        policy = make_gamma_policy(
            problem, _GridGradientField(t_arr, x_arr, grad_grid),
            provenance="policy_iteration")
        if converged:
            break

    points, estimates = [], []
    for i in range(len(t_arr)):
        for j in range(x_arr.shape[0]):
            points.append((float(t_arr[i]), x_arr[j].copy()))
            estimates.append(est_grid[i][j])
    vf = ValueField(points=points, estimates=estimates)
    return PolicyIterationResult(
        value_field=vf,
        policy=policy,
        converged=converged,
        rounds_run=rounds_run,
        round_changes=round_changes,
        round_values=round_values,
    )
