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
is built, never what it holds.

Large ensembles are advanced in path tiles that fit in cache: the budget is
256 KB for one tile's (rows, dim) float64 state, so 1536 rows on the 21-dim
delay lift and 2048 on the 16-point reaction-diffusion grid. The tiles run
one after another, each through every step, and write their slices of the
run's outputs; a run that fits in one tile is one pass, as before. Every
tile but the last is a multiple of 64 rows, and the tiles are balanced. The
result carries the same bits as one pass because every callback acts on
each path's row alone, path k's noise depends only on k, and every row keeps
its place modulo 64 in each matrix product. That last part matters: OpenBLAS
0.3.31 (Haswell kernel) can give the trailing m mod 4 rows of an m-row
product, (m, 21) @ (21, 1) for instance, other bits than the same rows
inside a larger product, so a one-path run need not equal path 0 of a
larger one; 64 rows leave room for kernels with wider row blocks. The
noise block is requested once per run and sliced per tile. A divergence in
any tile reruns the request as one pass, so the error names the earliest
step over all paths and the magnitude over all of them at that step.

One loop, `_run`, advances every ensemble and returns one record,
`PathEnsemble`: the time grid, terminal states and clip fraction always, and
states, per-path costs, control traces or sup norms when they were asked
for. `simulate_ensemble` (states) and `simulate_costs` (costs, optionally
controls) hand that record back unchanged; a single path is path 0 of a
one-path ensemble.

Running costs are accumulated with the trapezoid rule in time, with the
control held at its step value on both ends: dt/2 * [l(X_k, a_k) +
l(X_{k+1}, a_k)]. For smooth integrands this is second-order along the
drift, which matters when cost values are compared against closed forms.
With a separated cost l = l1 + l2 (problem.cost_structure), l1 is evaluated
once per state, the right end of step k being the left end of step k+1, and
l2 once per step, since the control is held across it. The sums are the same
floating-point operations as l1(x) + l2(a), so the costs carry the same bits
as calling running_cost at both ends, which is what a problem without a
separated cost does.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import signal_values
from .hilbert import h_norm, semigroup_matrix
from .report import PASS, FAIL, DiagnosticReport
from .seeds import derive_seed, path_streams

__all__ = [
    "PathEnsemble",
    "SimulationDivergenceError",
    "gaussian_increments",
    "increment_memo",
    "simulate_ensemble",
    "simulate_costs",
    "moment_bound_check",
    "write_ensemble_csv",
]

_DIVERGENCE_LIMIT = 1e8
# byte budget of one tile's (rows, N) float64 state, and the row multiple every
# tile but the last keeps; the module docstring says why
_TILE_BYTES = 256 * 1024
_TILE_ALIGN = 64


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


@dataclass(frozen=True)
class PathEnsemble:
    """The run record: what one pass of the step loop produced.

    The last four fields are None unless the run was asked for them.
    """

    time_grid: np.ndarray                        # (M+1,)
    terminal_states: np.ndarray                  # (P, N)
    clip_fraction: float                         # feedback path-steps at the box
    states: Optional[np.ndarray] = None          # (P, M+1, N)
    costs: Optional[np.ndarray] = None           # (P,) running [+ terminal]
    control_traces: Optional[np.ndarray] = None  # (P, M, q), step left-endpoints
    sup_norm: Optional[np.ndarray] = None        # (P,) max over steps of ||X||_H


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


def _tile_bounds(n_paths, n):
    """(lo, hi) row ranges of the path tiles for an n-dimensional state."""
    max_rows = max(_TILE_ALIGN, _TILE_BYTES // (8 * n) // _TILE_ALIGN * _TILE_ALIGN)
    if n_paths <= max_rows:
        return [(0, n_paths)]
    # balanced, so no small tail tile pays for a whole step loop
    n_tiles = -(-n_paths // max_rows)
    rows = _TILE_ALIGN * -(-n_paths // (n_tiles * _TILE_ALIGN))
    return [(lo, min(lo + rows, n_paths)) for lo in range(0, n_paths, rows)]


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
    if not (x.ndim == 1 or x.shape == (n_paths, n)):
        raise ValueError(f"initial state must be ({n},) or ({n_paths}, {n})")

    kind, ctl = _prepare_control(problem, control, step_times, n_paths)
    box = problem.control_spec.box
    q = problem.control_spec.dim

    dw = gaussian_increments(master_seed, stream_label, n_paths, n_steps,
                             problem.noise_dim, dt)

    E = semigroup_matrix(problem.op, dt)
    sigma_const = problem.noise if problem.additive_noise else None

    states = np.empty((n_paths, n_steps + 1, n)) if record_states else None
    traces = np.empty((n_paths, n_steps, q)) if record_controls else None
    costs = np.empty(n_paths) if accumulate_costs else None
    separated = problem.cost_structure if accumulate_costs else None
    sup_norm = np.empty(n_paths) if track_sup_norm else None

    def advance(lo, hi):
        """Run every step on paths lo:hi; return their terminal states and
        the number of their path-steps with the control at the box."""
        rows = hi - lo
        X = np.tile(x, (rows, 1)) if x.ndim == 1 else x[lo:hi].copy()
        ctl_rows = ctl[lo:hi] if kind == "values" and ctl.ndim == 3 else ctl
        dw_rows = dw[lo:hi]
        if accumulate_costs:
            cost_rows = costs[lo:hi]
            cost_rows[...] = 0.0
        if record_states:
            states[lo:hi, 0] = X
        if separated is not None:
            # l1 and l2 outlive the calls that make them, so they are copied
            # into arrays made once per tile: a fresh array kept across steps
            # fragments the heap under the step's (P, N) temporaries (7x the
            # page faults of a 20000-path delay-lift run)
            c1, c2 = np.empty((2, rows))
            c1[...] = separated.l1(X)
        if track_sup_norm:
            norm_rows = sup_norm[lo:hi]
            norm_rows[...] = h_norm(problem.space, X)
        clip_events = 0

        for k in range(n_steps):
            s = grid[k]
            if kind == "policy":
                a = np.asarray(ctl.feedback(s, X), dtype=float)
                if a.shape != (rows, q):
                    a = np.broadcast_to(a, (rows, q))
                if box is not None:
                    a = np.clip(a, box[0], box[1])
                    # feedback maps often clip internally, so count saturation
                    # by boundary contact rather than by values moved
                    at_edge = (a <= box[0]) | (a >= box[1])
                    clip_events += int(np.sum(np.any(at_edge, axis=-1)))
            else:
                ak = ctl_rows[:, k] if ctl_rows.ndim == 3 else ctl_rows[k]
                a = np.broadcast_to(ak, (rows, q))
            if record_controls:
                traces[lo:hi, k] = a

            bX = problem.drift(X, a)
            if separated is not None:
                c2[...] = separated.l2(a)
                l_left = c1 + c2
            elif accumulate_costs:
                l_left = problem.running_cost(X, a)
            sig = sigma_const if sigma_const is not None else problem.noise_at(X)
            if sig.ndim == 2:
                noise_term = dw_rows[:, k] @ sig.T
            else:
                noise_term = np.einsum("pnq,pq->pn", sig, dw_rows[:, k])
            X = (X + dt * bX + noise_term) @ E.T

            worst = float(np.max(np.abs(X))) if X.size else 0.0
            if not np.isfinite(worst) or worst > _DIVERGENCE_LIMIT:
                raise SimulationDivergenceError(k + 1, grid[k + 1], worst)

            if separated is not None:
                c1[...] = separated.l1(X)
                cost_rows += 0.5 * dt * (l_left + (c1 + c2))
            elif accumulate_costs:
                cost_rows += 0.5 * dt * (l_left + problem.running_cost(X, a))
            if record_states:
                states[lo:hi, k + 1] = X
            if track_sup_norm:
                np.maximum(norm_rows, h_norm(problem.space, X), out=norm_rows)

        if accumulate_costs and include_terminal:
            cost_rows += problem.terminal_cost(X)
        return X, clip_events

    tiles = _tile_bounds(n_paths, n)
    if len(tiles) > 1:
        terminal, clip_events = np.empty((n_paths, n)), 0
        try:
            for lo, hi in tiles:
                terminal[lo:hi], clips = advance(lo, hi)
                clip_events += clips
        except SimulationDivergenceError:
            # the error names the earliest step over all paths and the largest
            # magnitude at that step, which only a pass over every path sees
            tiles = [(0, n_paths)]
    if len(tiles) == 1:
        terminal, clip_events = advance(0, n_paths)

    clip_fraction = clip_events / (n_paths * n_steps) if kind == "policy" else 0.0
    return PathEnsemble(
        time_grid=grid,
        terminal_states=terminal,
        clip_fraction=clip_fraction,
        states=states,
        costs=costs,
        control_traces=traces,
        sup_norm=sup_norm,
    )


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
    """Simulate n_paths trajectories with full state recording.

    Runs that make the same (seed, stream_label, n_paths, n_steps) request
    share one noise realization per path index, so differences between them
    are purely drift and initial-condition effects.
    """
    return _run(problem, t, x, control, n_paths, n_steps, seed, stream_label,
                record_states=True)


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
) -> PathEnsemble:
    """Per-path accumulated costs without storing intermediate states.

    t_end cuts the sweep short (terminal cost is then usually excluded);
    the dynamic-programming audit stitches two such sweeps together.
    """
    return _run(
        problem, t, x, control, n_paths, n_steps, seed, stream_label,
        t_end=t_end, accumulate_costs=True,
        include_terminal=include_terminal, record_controls=record_controls,
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
        run = _run(problem, t, x, control, n_paths, n_steps, master, "paths",
                   record_controls=True, track_sup_norm=True)
        est = float(np.mean(run.sup_norm ** p))
        # ||a||^2 in place: the (P, M, q) trace is the audit's largest array
        tr = run.control_traces
        np.square(tr, out=tr)
        np.multiply(tr, problem.control_spec.weights, out=tr)
        a_norm_p = np.sum(tr, axis=-1) ** (p / 2.0)
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


def write_ensemble_csv(path, ensemble: PathEnsemble):
    if ensemble.states is None:
        raise ValueError("the run record has no states: write_ensemble_csv "
                         "needs a simulate_ensemble record")
    n = ensemble.states.shape[2]
    with open(path, "w") as fh:
        fh.write("path_id,step,time," + ",".join(f"x{i}" for i in range(n)) + "\n")
        for k, states in enumerate(ensemble.states):
            _write_rows(fh, k, ensemble.time_grid, states)
