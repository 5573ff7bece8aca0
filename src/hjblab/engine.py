"""Mild-scheme simulation of controlled SDEs on the discrete spaces.

One step of the scheme from state X with control a and increment dW:

    X_next = E_dt (X + dt * b(X, a) + sigma(X) dW),   E_dt = exp(dt * A)

i.e. explicit Euler on the nonlinearity, exact flow of the generator. The
semigroup matrix is computed once per (operator, dt) and cached.

Noise is generated per path from counter-derived streams, so path k's
increments depend only on (master_seed, stream_label, k) and never on how
many paths run alongside it or in what order. One Philox generator is
re-keyed for each path rather than built anew. The step loop asks for its
increments itself and takes no block from its caller: contestants share noise
by making the same request (seed, stream_label, n_paths, n_steps) and so get
the same bits. The last block made is kept and a repeat of the same request
gets that array back; blocks are handed out read-only, so no caller can
change what the next one receives. The memo only decides how often a block
is built, never what it holds. Ensembles are advanced as one (n_paths, dim)
batch; a path is a view into the batch.

Running costs are accumulated with the trapezoid rule in time, with the
control held at its step value on both ends: dt/2 * [l(X_k, a_k) +
l(X_{k+1}, a_k)]. For smooth integrands this is second-order along the
drift, which matters when cost values are compared against closed forms.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import TraceSignal, signal_values
from .hilbert import h_norm, semigroup_matrix
from .report import PASS, FAIL, DiagnosticReport
from .seeds import derive_seed, path_streams

__all__ = [
    "Trajectory",
    "PathEnsemble",
    "SimulationDivergenceError",
    "gaussian_increments",
    "increment_memo",
    "simulate_path",
    "simulate_ensemble",
    "simulate_coupled_ensemble",
    "simulate_costs",
    "CostRun",
    "moment_bound_check",
    "write_ensemble_csv",
]

_DIVERGENCE_LIMIT = 1e8


class SimulationDivergenceError(RuntimeError):
    """State left the trust region; reports the offending step and time."""

    def __init__(self, step, time, magnitude):
        super().__init__(
            f"state magnitude {magnitude:.3g} exceeded {_DIVERGENCE_LIMIT:.0e} "
            f"at step {step} (t={time:.6g})"
        )
        self.step = step
        self.time = time
        self.magnitude = magnitude


@dataclass
class Trajectory:
    time_grid: np.ndarray        # (M+1,)
    states: np.ndarray           # (M+1, N)
    control_trace: np.ndarray    # (M, q), controls on step left-endpoints
    seed_path: dict              # provenance: master seed, stream label, index
    clip_fraction: float = 0.0   # share of steps whose control hit the box

    @property
    def n_steps(self):
        return len(self.time_grid) - 1

    def as_trace_signal(self) -> TraceSignal:
        return TraceSignal(self.time_grid[:-1], self.control_trace)


@dataclass
class PathEnsemble:
    time_grid: np.ndarray        # (M+1,)
    states: np.ndarray           # (P, M+1, N)
    control_traces: np.ndarray   # (M, q) shared or (P, M, q) per path
    master_seed: int
    stream_label: str
    clip_fraction: float = 0.0

    @property
    def n_paths(self):
        return self.states.shape[0]

    def trajectory(self, k) -> Trajectory:
        tr = self.control_traces if self.control_traces.ndim == 2 else self.control_traces[k]
        return Trajectory(
            time_grid=self.time_grid,
            states=self.states[k],
            control_trace=tr,
            seed_path={
                "master_seed": self.master_seed,
                "stream_label": self.stream_label,
                "path_index": int(k),
                "child_seed": derive_seed(self.master_seed, self.stream_label, k),
            },
            clip_fraction=self.clip_fraction,
        )


@dataclass
class CostRun:
    """Per-path cost data from a costs-only sweep."""

    costs: np.ndarray             # (P,) accumulated (running [+ terminal]) cost
    terminal_states: np.ndarray   # (P, N) state at the end of the sweep
    control_traces: Optional[np.ndarray] = None
    clip_fraction: float = 0.0
    time_grid: Optional[np.ndarray] = None


class _LastBlock:
    """The increment block handed out last, its request, and hit/miss counts."""

    def __init__(self):
        self.request = None
        self.block = None
        self.hits = 0
        self.misses = 0


increment_memo = _LastBlock()


def gaussian_increments(master_seed, label, n_paths, n_steps, n_w, dt) -> np.ndarray:
    """Brownian increments (P, M, n_w), read-only; path k comes from its own stream.

    A repeat of the previous request returns the same array again.
    """
    memo = increment_memo
    request = (master_seed, label, n_paths, n_steps, n_w, dt)
    if memo.request == request:
        memo.hits += 1
        return memo.block
    memo.misses += 1
    # drop the held block first, so two blocks are never held at once
    memo.request = memo.block = None
    out = np.empty((n_paths, n_steps, n_w))
    for k, gen in enumerate(path_streams(master_seed, label, n_paths)):
        gen.standard_normal(out=out[k])
    out *= math.sqrt(dt)
    out.flags.writeable = False
    memo.request, memo.block = request, out
    return out


def _prepare_control(problem, control, step_times, n_paths):
    """Classify the control: ('policy', obj) or ('values', array)."""
    if hasattr(control, "feedback"):
        return "policy", control
    vals = signal_values(control, step_times)
    if vals.ndim == 3 and vals.shape[0] != n_paths:
        raise ValueError(
            f"per-path trace carries {vals.shape[0]} paths, run asks for {n_paths}"
        )
    if vals.shape[-1] != problem.control_spec.dim:
        raise ValueError("control dimension mismatch")
    return "values", vals


def _run(
    problem,
    t,
    x,
    control,
    n_paths,
    n_steps,
    master_seed,
    stream_label,
    *,
    t_end=None,
    record_states=False,
    record_controls=False,
    accumulate_costs=False,
    include_terminal=True,
    track_sup_norm=False,
):
    """Advance an ensemble; the single loop behind every public entry point."""
    horizon = problem.horizon if t_end is None else t_end
    if not (0.0 <= t < horizon <= problem.horizon + 1e-12):
        raise ValueError(f"need 0 <= t < t_end <= horizon, got t={t}, t_end={horizon}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = (horizon - t) / n_steps
    grid = t + dt * np.arange(n_steps + 1)
    step_times = grid[:-1]

    n = problem.dim
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        X = np.tile(x, (n_paths, 1))
    elif x.shape == (n_paths, n):
        X = x.copy()
    else:
        raise ValueError(f"initial state must be ({n},) or ({n_paths}, {n})")

    kind, ctl = _prepare_control(problem, control, step_times, n_paths)
    box = problem.control_spec.box

    dw = gaussian_increments(master_seed, stream_label, n_paths, n_steps,
                             problem.noise_dim, dt)

    E = semigroup_matrix(problem.op, dt)
    sigma_const = problem.noise if problem.additive_noise else None

    states = None
    if record_states:
        states = np.empty((n_paths, n_steps + 1, n))
        states[:, 0] = X
    traces = None
    if record_controls:
        traces = np.empty((n_paths, n_steps, problem.control_spec.dim))
    costs = np.zeros(n_paths) if accumulate_costs else None
    sup_norm = h_norm(problem.space, X) if track_sup_norm else None
    clip_events = 0

    for k in range(n_steps):
        s = grid[k]
        if kind == "policy":
            a = np.asarray(ctl.feedback(s, X), dtype=float)
            if a.shape != (n_paths, problem.control_spec.dim):
                a = np.broadcast_to(a, (n_paths, problem.control_spec.dim))
            if box is not None:
                a = np.clip(a, box[0], box[1])
                # feedback maps often clip internally, so count saturation
                # by boundary contact rather than by values moved
                at_edge = (a <= box[0]) | (a >= box[1])
                clip_events += int(np.sum(np.any(at_edge, axis=-1)))
        else:
            ak = ctl[:, k] if ctl.ndim == 3 else ctl[k]
            a = np.broadcast_to(ak, (n_paths, problem.control_spec.dim))
        if record_controls:
            traces[:, k] = a

        bX = problem.drift(X, a)
        if accumulate_costs:
            l_left = problem.running_cost(X, a)
        sig = sigma_const if sigma_const is not None else problem.noise_at(X)
        if sig.ndim == 2:
            noise_term = dw[:, k] @ sig.T
        else:
            noise_term = np.einsum("pnq,pq->pn", sig, dw[:, k])
        X = (X + dt * bX + noise_term) @ E.T

        worst = float(np.max(np.abs(X))) if X.size else 0.0
        if not np.isfinite(worst) or worst > _DIVERGENCE_LIMIT:
            raise SimulationDivergenceError(k + 1, grid[k + 1], worst)

        if accumulate_costs:
            costs += 0.5 * dt * (l_left + problem.running_cost(X, a))
        if record_states:
            states[:, k + 1] = X
        if track_sup_norm:
            np.maximum(sup_norm, h_norm(problem.space, X), out=sup_norm)

    if accumulate_costs and include_terminal:
        costs += problem.terminal_cost(X)

    clip_fraction = clip_events / (n_paths * n_steps) if kind == "policy" else 0.0
    return {
        "grid": grid,
        "states": states,
        "terminal": X,
        "costs": costs,
        "traces": traces,
        "sup_norm": sup_norm,
        "clip_fraction": clip_fraction,
    }


def simulate_ensemble(
    problem,
    t,
    x,
    control,
    n_paths,
    n_steps=200,
    seed=42,
    stream_label="paths",
) -> PathEnsemble:
    """Simulate n_paths trajectories with full state recording."""
    out = _run(
        problem, t, x, control, n_paths, n_steps, seed, stream_label,
        record_states=True, record_controls=hasattr(control, "feedback"),
    )
    traces = out["traces"]
    if traces is None:
        _, vals = _prepare_control(problem, control, out["grid"][:-1], n_paths)
        traces = vals
    return PathEnsemble(
        time_grid=out["grid"],
        states=out["states"],
        control_traces=traces,
        master_seed=seed,
        stream_label=stream_label,
        clip_fraction=out["clip_fraction"],
    )


def simulate_path(problem, t, x, control, seed=42, n_steps=200) -> Trajectory:
    """One trajectory; bitwise equal to path 0 of the same-seed ensemble."""
    return simulate_ensemble(problem, t, x, control, 1, n_steps, seed).trajectory(0)


def simulate_coupled_ensemble(
    problem, t, inits, controls, seed=42, n_paths=1, n_steps=200,
    stream_label="coupled",
) -> list:
    """Runs over a list of (init, control) variants, each making the same
    increment request, so all share one noise realization per path index.
    Differences between the returned ensembles are purely
    drift/initial-condition effects."""
    if len(inits) != len(controls):
        raise ValueError("need one control per initial state")
    return [
        simulate_ensemble(problem, t, x0, c, n_paths, n_steps, seed,
                          stream_label)
        for x0, c in zip(inits, controls)
    ]


def simulate_costs(
    problem,
    t,
    x,
    control,
    n_paths,
    n_steps=200,
    seed=42,
    stream_label="paths",
    t_end=None,
    include_terminal=True,
    record_controls=False,
) -> CostRun:
    """Per-path accumulated costs without storing intermediate states.

    t_end cuts the sweep short (terminal cost is then usually excluded);
    the dynamic-programming audit stitches two such sweeps together.
    """
    out = _run(
        problem, t, x, control, n_paths, n_steps, seed, stream_label,
        t_end=t_end, accumulate_costs=True,
        include_terminal=include_terminal, record_controls=record_controls,
    )
    return CostRun(
        costs=out["costs"],
        terminal_states=out["terminal"],
        control_traces=out["traces"],
        clip_fraction=out["clip_fraction"],
        time_grid=out["grid"],
    )


def moment_bound_check(
    problem,
    t,
    x,
    control,
    p=4.0,
    n_paths=2000,
    n_steps=100,
    seed=0,
    c_p=None,
) -> DiagnosticReport:
    """Audit E[ sup_s ||X(s)||^p ] <= C (1 + ||x||^p + mean integral ||a||^p).

    With c_p given, that constant is used as-is. Without it, a calibration
    ensemble on a derived seed fits c, and the audit reruns on the main seed
    against 2c, so the check has teeth against seed-to-seed instability but
    not against the calibration instance itself (freeze c_p for that).
    """
    if p <= 2:
        raise ValueError("moment order p must exceed 2")

    def sweep(master):
        out = _run(problem, t, x, control, n_paths, n_steps, master, "paths",
                   record_controls=True, track_sup_norm=True)
        est = float(np.mean(out["sup_norm"] ** p))
        w = problem.control_spec.weights
        a_norm_p = np.sum(w * out["traces"] ** 2, axis=-1) ** (p / 2.0)
        dt = (problem.horizon - t) / n_steps
        ctl_term = float(np.mean(np.sum(a_norm_p, axis=-1) * dt))
        denom = 1.0 + h_norm(problem.space, np.asarray(x, dtype=float)) ** p + ctl_term
        return est, denom

    calibrated = False
    if c_p is None:
        cal_master = derive_seed(seed, "calibrate", 0)
        est_cal, denom_cal = sweep(cal_master)
        c_p = 2.0 * est_cal / denom_cal
        calibrated = True

    est, denom = sweep(seed)
    ratio = est / (c_p * denom)
    return DiagnosticReport(
        name="moment_bound",
        verdict=PASS if ratio <= 1.0 else FAIL,
        samples_used=n_paths,
        constants={
            "p": p,
            "estimate": est,
            "denominator": denom,
            "c_p": float(c_p),
            "ratio": ratio,
            "calibrated": calibrated,
        },
        witness=None if ratio <= 1.0 else {"seed": seed, "ratio": ratio},
        tolerance=1.0,
        notes="sup-moment bound on " + problem.name,
    )


def _write_rows(fh, path_id, grid, states):
    for step in range(states.shape[0]):
        comps = ",".join(repr(float(v)) for v in states[step])
        fh.write(f"{path_id},{step},{float(grid[step])!r},{comps}\n")


def write_ensemble_csv(path, ensemble: PathEnsemble, max_paths=None):
    n = ensemble.states.shape[2]
    count = ensemble.n_paths if max_paths is None else min(max_paths, ensemble.n_paths)
    with open(path, "w") as fh:
        fh.write("path_id,step,time," + ",".join(f"x{i}" for i in range(n)) + "\n")
        for k in range(count):
            _write_rows(fh, k, ensemble.time_grid, ensemble.states[k])
