"""Mild-scheme simulation of controlled SDEs on the discrete spaces.

One step of the scheme from state X with control a and increment dW:

    X_next = E_dt (X + dt * b(X, a) + sigma(X) dW),   E_dt = exp(dt * A)

i.e. explicit Euler on the nonlinearity, exact flow of the generator. The
semigroup matrix is computed once per (operator, dt) and cached.

b and sigma vanish off the problem's channel (models.ControlProblem), so
the step adds them in place on that block of coordinates alone:
X_J += dt * b_J, then X_J += dW sigma_J^T, the same floating-point
operations in the same order as X + dt*b + sigma dW, and with one temporary
fewer than that expression even when the channel is every coordinate. On
the 21-dimensional delay lift the channel is the present value, so drift,
noise and update touch one column, not 21; the generator alone moves the
past segment. The one bit this can change is the sign of a zero: an entry
off the channel that is exactly -0.0 stays -0.0, where -0.0 + 0.0 made it
+0.0.

Noise is generated per path from counter-derived streams, so path k's
standard normals depend only on (master_seed, stream_label, k) and never on
how many paths run alongside it, in what order, or in which process. One
Philox generator is re-keyed for each path rather than built anew
(seeds.path_streams), so any process can draw any range of paths from their
keys. A block holds standard normals, not increments: the step loop scales
what it reads by sqrt(dt), a few steps at a time, the same product a block
drawn at dt would hold, so runs from different start times on one horizon
share a block. The step loop takes no block from its caller: contestants
share noise by making the same request (seed, stream_label, n_paths,
n_steps, n_w), in one call or several, and so get the same bits. The last
block made is kept and a repeat of the same request gets that array back;
blocks are handed out read-only, so no caller can change what the next one
receives. Only one block is held: a second would cost as much memory as the
first. The memo only decides how often a block is built, never what it
holds; increment_memo counts its hits and misses.

Every callback, model and feedback alike, is row-wise: row k of its output
depends on row k of its input alone, with the same bits at any row offset
in a batch of any size. Path tiles and contestant groups both rest on it.

Large ensembles are advanced in path tiles that fit in cache: the budget is
256 KB for one tile's (rows, dim) float64 state, so 1536 rows on the 21-dim
delay lift and 2048 on the 16-point reaction-diffusion grid. The tiles run
one after another, each through every step, and write their slices of the
run's outputs; a run that fits in one tile is one pass, as before. Every
tile but the last is a multiple of 64 rows, and the tiles are balanced. The
result carries the same bits as one pass because every callback is
row-wise, path k's noise depends only on k, and every row keeps its place
modulo 64 in each matrix product. That last part matters: OpenBLAS 0.3.31
(Haswell kernel) can give the trailing m mod 4 rows of an m-row product,
(m, 21) @ (21, 1) for instance, other bits than the same rows inside a
larger product, so a one-path run need not equal path 0 of a larger one;
64 rows leave room for kernels with wider row blocks. Only the tiles and the
semigroup product below keep that alignment. The noise block is requested
once per run and sliced per tile. A divergence in any tile reruns the
request as one pass, so the error names the earliest step over all paths
and the magnitude over all of them at that step.

A run takes a list of contestants, each a starting state and a control, on
one noise request: the candidates of a value family, the legs of a finite
difference, the challengers of a tournament. They advance in groups, as one
stacked (C, P, N) state, which pays each step's fixed numpy overhead once
per group rather than once per contestant. A group holds whole contestants
whose state fits in half the tile budget, 128 KB, so 6 reaction-diffusion
contestants at 150 paths and a lone one at 1000; a contestant larger than a
tile runs alone, in tiles. Per step an additive noise term is formed once
on P rows of the channel and shared; drift, costs and noise_at are called
once on the stacked rows; adjacent contestants that share one policy object
get one feedback call on their stacked rows, and other policies one call on
their own block; the stacked product with E is one gemm per contestant
block, so every row keeps its place. When E_dt is exactly the identity (a
zero generator), the product is skipped; that is decided once per run. Each
contestant thus gets the bits of its own run. If a group diverges, its
contestants rerun one at a time, in order, so the error raised is the one
that contestant's own run raises.

One loop, `_run`, advances every run, a single contestant being the C = 1
case, over its problem's window [t, horizon] in n_steps equal steps, on a
range of its paths, with groups and tiles sized by that range's rows; a
shorter window is a run of the problem with a shorter horizon. `_simulate`
runs a list of requests that make one noise request, in order, and returns
one record per contestant, `PathEnsemble`: the time grid and terminal
states always, and states, per-path costs, control traces or sup norms when
they were asked for. simulate_ensemble (states) and simulate_costs (costs,
optionally controls) hand it one request, and simulate_costs_batch each run
of consecutive requests on one noise request, in turn; a request's records
come back as one record, or a list for lists of states and controls; a
single path is path 0 of a one-path ensemble.

`_simulate` is also the one fan-out, and its unit is that one noise
request. When this process has more than one CPU and the call's work
reaches 2 M, it forks a child for each full 2 M, at most one process per
CPU and per 64-row slab: processes, since once the callbacks' sums are
short the step loop is bound by the interpreter lock. The work is exactly
what the processes do: paths x steps x (dim x the contestants of every
request, plus the noise dimensions unless the memo holds the block). First
this process looks the block up in increment_memo once per request, as the
serial loop would, so the counts are that loop's; a missed block gets its
keys derived here and is made in anonymous shared memory, which the memo
holds from then on. Rows 0:P are cut into shares of equal rows, and so of
equal work, each cut at the 64-row slab boundary nearest its even split,
which the tile rules make as safe as any tiling. Each process, this one
taking the first share, draws its rows of the block unless the memo held
it, runs every request on them and writes its rows of every output there.
OpenBLAS is pinned to one thread in every process meanwhile, and nothing
fans out where it cannot be pinned, or inside a fan-out. A child always
leaves with os._exit, and every child is reaped before the call returns.
If any process fails (an error, a divergence, a child killed by a signal),
the counts go back to where the look-ups began, a block drawn in part is
let go while a block held before the call stays held, and the requests run
here as the serial loop, so the caller gets its result or error and the
serial loop's counts. Callbacks must be pure: what one sets in a child is
lost with it, and a warning raised there reaches only the child's stderr.

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

import ctypes
import itertools
import math
import mmap
import os
import signal
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .controls import signal_values
from .hilbert import h_norm, semigroup_matrix
from .report import PASS, FAIL, DiagnosticReport
from .seeds import derive_seed, path_keys, path_streams

__all__ = [
    "PathEnsemble",
    "SimulationDivergenceError",
    "gaussian_increments",
    "increment_memo",
    "simulate_ensemble",
    "simulate_costs",
    "simulate_costs_batch",
    "moment_bound_check",
    "write_ensemble_csv",
]

_DIVERGENCE_LIMIT = 1e8
# byte budget of one tile's (rows, N) float64 state, and the row multiple every
# tile but the last keeps; the module docstring says why
_TILE_BYTES = 256 * 1024
_TILE_ALIGN = 64
# bytes of increments the step loop scales by sqrt(dt) at a time, in whole
# steps, one at least: a product per step pays numpy's fixed cost every step
# of a small tile (2.5% of run-all on reaction_diffusion), and a chunk past
# glibc's 128 KB mmap threshold (16 steps of a 1536-row delay-lift tile)
# added its size to the run's peak memory
_SCALE_BYTES = 64 * 1024
# processes a call may use, and the work that buys it one forked child: a
# call whose requests hold W of work (paths x steps x (contestants x dim +
# noise dimensions unless the block is held), a draw counted as one
# element-step though it costs a few: about 50 ns, so 2 M draws take about
# 0.1 s) forks W // _FORK_MIN_WORK children, within its CPUs and 64-row
# slabs, and _deal gives each process an equal share. Forking a child of an
# 80 MB process and reaping it costs this process 1-4 ms on a 2-core host;
# the step loop does 30-130 element-steps per microsecond, so 2 M
# element-steps take 15-65 ms, and the half of them that a child takes over
# saves several times what it costs
_PROCESSES = (len(os.sched_getaffinity(0))
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
_FORK_MIN_WORK = 2_000_000


def _blas_thread_calls():
    """The get and set thread-count functions of the OpenBLAS that numpy
    bundles, or None when numpy links no such library."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# a fan-out pins BLAS to one thread while it runs, and never fans out without
# that pin: BLAS threads of several processes on few CPUs crowd each other
_BLAS_THREADS = _blas_thread_calls()
# set while a fan-out runs, in this process and in its children: fan-outs
# do not nest
_fanning_out = False


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

    The last four fields are None unless the run was asked for them. Traces
    are clipped into the box, so they show how often a feedback sat on it.
    """

    time_grid: np.ndarray                        # (M+1,)
    terminal_states: np.ndarray                  # (P, N)
    states: Optional[np.ndarray] = None          # (P, M+1, N)
    costs: Optional[np.ndarray] = None           # (P,) running + terminal
    control_traces: Optional[np.ndarray] = None  # (P, M, q), step left-endpoints
    sup_norm: Optional[np.ndarray] = None        # (P,) max over steps of ||X||_H


class _Noise(NamedTuple):
    """A noise request: gaussian_increments' arguments, and so the key
    increment_memo holds; equal to the plain tuple of them."""

    master_seed: int
    label: str
    n_paths: int
    n_steps: int
    n_w: int


class _Prepared(NamedTuple):
    """A checked request, as _prepare returns it."""

    noise: _Noise
    dt: float
    grid: np.ndarray            # (M+1,) time grid
    inits: list                 # per contestant, (N,) or (P, N)
    controls: list              # per contestant, _prepare_control's pair
    E: np.ndarray               # semigroup matrix for dt


class _LastBlock:
    """The increment block handed out last, its request, and hit/miss counts."""

    def __init__(self):
        self.request = None
        self.block = None
        self.hits = 0
        self.misses = 0


increment_memo = _LastBlock()


def gaussian_increments(master_seed, label, n_paths, n_steps, n_w) -> np.ndarray:
    """Standard normals (P, M, n_w), read-only; path k comes from its own
    stream. A run of step dt scales them by sqrt(dt) as it reads them, so
    runs that differ only in dt share the block.

    A repeat of the previous request returns the same array again; a block
    built anew is drawn here, in this process, on the path keys that
    seeds.path_keys derives.
    """
    request = _Noise(master_seed, label, n_paths, n_steps, n_w)
    block, keys = _look_up(request)
    if block is None:
        block = np.empty((n_paths, n_steps, n_w))
        _draw(block, keys, 0, n_paths)
        block.flags.writeable = False
        increment_memo.request, increment_memo.block = request, block
    return block


def _look_up(request):
    """(the block increment_memo holds, None) when it holds request, or else
    (None, the path keys of request); counted as a hit or a miss. A miss
    drops the held block first, so two blocks are never held at once."""
    memo = increment_memo
    if memo.request == request:
        memo.hits += 1
        return memo.block, None
    memo.misses += 1
    memo.request = memo.block = None
    return None, path_keys(request.master_seed, request.label, request.n_paths)


def _draw(out, keys, lo, hi):
    """Fill rows lo:hi of out with the standard normals of paths lo:hi,
    whose keys are keys[lo:hi]."""
    for row, gen in zip(out[lo:hi], path_streams(keys[lo:hi])):
        gen.standard_normal(out=row)


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


def _contestants(x, control):
    """[(x, control)] for one contestant, or the pairs of two equal lists."""
    if not isinstance(control, list):
        return [(x, control)]
    if not isinstance(x, list) or len(x) != len(control):
        raise ValueError("contestants need a list of initial states, one per control")
    return list(zip(x, control))


def _prepare(problem, t, x, control, n_paths, n_steps, master_seed, stream_label):
    """A checked request: its noise request (gaussian_increments' arguments,
    and so the key increment_memo holds), step, time grid, starting states,
    controls and semigroup matrix."""
    contestants = _contestants(x, control)
    if not (0.0 <= t < problem.horizon):
        raise ValueError(f"need 0 <= t < horizon, got t={t}, "
                         f"horizon={problem.horizon}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    dt = (problem.horizon - t) / n_steps
    grid = t + dt * np.arange(n_steps + 1)
    n = problem.dim
    inits, controls = [], []
    for x0, ctl in contestants:
        x0 = np.asarray(x0, dtype=float)
        if not (x0.ndim == 1 or x0.shape == (n_paths, n)):
            raise ValueError(f"initial state must be ({n},) or ({n_paths}, {n})")
        inits.append(x0)
        controls.append(_prepare_control(problem, ctl, grid[:-1], n_paths))
    noise = _Noise(master_seed, stream_label, n_paths, n_steps, problem.noise_dim)
    return _Prepared(noise, dt, grid, inits, controls, semigroup_matrix(problem.op, dt))


def _record_shapes(problem, request, fields):
    """The stacked (contestants, paths, ...) shape of each PathEnsemble field
    of a prepared request after the time grid, in order: the terminal states
    always, the others when fields names them, else None."""
    n, q, m = problem.dim, problem.control_spec.dim, request.noise.n_steps
    tails = {"terminal_states": (n,), "states": (m + 1, n), "costs": (),
             "control_traces": (m, q), "sup_norm": ()}
    return {f: (len(request.inits), request.noise.n_paths) + tail
            if f == "terminal_states" or f in fields else None
            for f, tail in tails.items()}


def _records(request, out):
    """One PathEnsemble per contestant of a prepared request, each holding
    its slices of the stacked outputs out."""
    return [PathEnsemble(request.grid, *(None if a is None else a[c] for a in out.values()))
            for c in range(len(request.inits))]


def _tile_bounds(n_paths, n):
    """(lo, hi) row ranges of the path tiles for an n-dimensional state."""
    max_rows = max(_TILE_ALIGN, _TILE_BYTES // (8 * n) // _TILE_ALIGN * _TILE_ALIGN)
    if n_paths <= max_rows:
        return [(0, n_paths)]
    # balanced, so no small tail tile pays for a whole step loop
    n_tiles = -(-n_paths // max_rows)
    rows = _TILE_ALIGN * -(-n_paths // (n_tiles * _TILE_ALIGN))
    return [(lo, min(lo + rows, n_paths)) for lo in range(0, n_paths, rows)]


def _group_bounds(n_contestants, n_paths, n):
    """(first, stop) contestant ranges of the groups for an n-dimensional state."""
    per_group = max(1, _TILE_BYTES // 2 // max(1, 8 * n_paths * n))
    # balanced, like the tiles
    n_groups = -(-n_contestants // per_group)
    return [(n_contestants * i // n_groups, n_contestants * (i + 1) // n_groups)
            for i in range(n_groups)]


def _process_count(work):
    """Processes for a fan-out: one per full _FORK_MIN_WORK of work, within
    the CPUs; one inside a fan-out, or when BLAS threads cannot be pinned."""
    if _fanning_out or _BLAS_THREADS is None:
        return 1
    return min(_PROCESSES, 1 + work // _FORK_MIN_WORK)


def _deal(n_paths, n_procs):
    """(lo, hi) bounds of at most n_procs contiguous shares of rows
    0:n_paths, of about equal rows. The rows are slabs of 64, the last slab
    taking the rest; each cut lies at the slab boundary nearest its even
    split, the lower one on a tie, and every share holds a slab or more."""
    slabs = max(1, n_paths // _TILE_ALIGN)
    n_procs = min(n_procs, slabs)
    bounds = [0]
    for s in range(1, n_procs):
        # ceil(split / 64 - 1/2), in integers: the nearest slab boundary
        k = -((_TILE_ALIGN * n_procs - 2 * n_paths * s) // (2 * _TILE_ALIGN * n_procs))
        # one slab at least for this share and for each one after it
        k = min(max(k, bounds[-1] // _TILE_ALIGN + 1), slabs - (n_procs - s))
        bounds.append(_TILE_ALIGN * k)
    return list(zip(bounds, bounds[1:] + [n_paths]))


def _shared_empty(shape):
    """An uninitialised float64 array in anonymous shared memory, which forked
    children write and this process reads; an array of no entries needs no
    mapping, and a mapping of zero bytes does not exist."""
    size = math.prod(shape)
    if size == 0:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size), count=size).reshape(shape)


def _run_forked(shares, advance):
    """advance(*shares[0]) here and advance(*share) for each later share in
    a forked child, with BLAS on one thread and no nested fan-out; True when
    every process finished its share."""
    global _fanning_out
    get_threads, set_threads = _BLAS_THREADS
    threads = get_threads()
    # pinned before the fork, so the children inherit the pin and the flag
    set_threads(1)
    _fanning_out = True
    children, done = [], False
    try:
        for share in shares[1:]:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    advance(*share)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        advance(*shares[0])
        done = True
    except Exception:
        # whatever failed here, the caller's serial rerun raises it again
        pass
    finally:
        for pid in children:
            if not done:
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            _, status = os.waitpid(pid, 0)
            done = done and os.waitstatus_to_exitcode(status) == 0
        _fanning_out = False
        set_threads(threads)
    return done


def _run(problem, request, out, dw, lo, hi):
    """Advance the contestants of a prepared request on its paths lo:hi, on
    the block dw of standard normals, and write their rows of the stacked
    outputs out; the single step loop, which never forks. Groups and tiles
    are sized by the hi - lo rows, and the tiles start at lo."""
    dt, grid, inits, controls = request.dt, request.grid, request.inits, request.controls
    E, n_steps, sqrt_dt = request.E, request.noise.n_steps, math.sqrt(dt)
    n, q = problem.dim, problem.control_spec.dim
    box = problem.control_spec.box
    e_is_identity = np.array_equal(E, np.eye(n))
    J = problem.block
    width = J.stop - J.start
    sigma_t = problem.noise[J].T if problem.additive_noise else None
    terminal, states, costs, traces, sup_norm = out.values()
    separated = problem.cost_structure if costs is not None else None

    def advance(g0, g1, lo, hi):
        """Run every step on paths lo:hi of contestants g0:g1, stacked as one
        (C, rows, N) state, and write their outputs."""
        n_c, rows = g1 - g0, hi - lo
        X = np.empty((n_c, rows, n))
        for c in range(n_c):
            x = inits[g0 + c]
            X[c] = x if x.ndim == 1 else x[lo:hi]
        # controls fill their blocks of one array: a feedback map on the block
        # of the adjacent contestants that share it, shared signals in one
        # assignment, per-path traces by rows
        A = np.empty((n_c, rows, q))
        policies, shared, per_path = [], [], []
        for c, (kind, ctl) in enumerate(controls[g0:g1]):
            if kind == "policy":
                # adjacent contestants under one policy object share its call
                if policies and policies[-1][2] is ctl and policies[-1][1] == c:
                    policies[-1][1] = c + 1
                else:
                    policies.append([c, c + 1, ctl])
            elif ctl.ndim == 2:
                shared.append((c, ctl))
            else:
                per_path.append((c, ctl[lo:hi]))
        if shared:
            shared_at = [c for c, _ in shared]
            shared_vals = np.stack([v for _, v in shared])[:, :, None]
        Af = A.reshape(n_c * rows, q)
        dw_rows = dw[lo:hi]
        chunk = max(1, _SCALE_BYTES // max(1, dw_rows[:, 0].nbytes))
        if costs is not None:
            acc = np.zeros(n_c * rows)
        if states is not None:
            states[g0:g1, lo:hi, 0] = X
        if separated is not None:
            # l1 and l2 outlive the calls that make them, so they are copied
            # into arrays made once per tile: a fresh array kept across steps
            # fragments the heap under the step's (P, N) temporaries (7x the
            # page faults of a 20000-path delay-lift run)
            c1, c2 = np.empty((2, n_c * rows))
            c1[...] = separated.l1(X.reshape(n_c * rows, n))
        if sup_norm is not None:
            norm = h_norm(problem.space, X)

        for k in range(n_steps):
            if k % chunk == 0:
                # the next steps' increments: standard normals times
                # sqrt(dt), the product a block drawn at dt would hold
                dw_steps = dw_rows[:, k:k + chunk] * sqrt_dt
            dw_k = dw_steps[:, k % chunk]
            s = grid[k]
            for first, stop, ctl in policies:
                a = A[first:stop]
                a.reshape(-1, q)[...] = ctl.feedback(
                    s, X[first:stop].reshape(-1, n))
                if box is not None:
                    np.clip(a, box[0], box[1], out=a)
            if shared:
                A[shared_at] = shared_vals[:, k]
            for c, vals in per_path:
                A[c] = vals[:, k]
            if traces is not None:
                traces[g0:g1, lo:hi, k] = A

            Xf = X.reshape(n_c * rows, n)
            bJ = problem.drift(Xf, Af).reshape(n_c, rows, width)
            if separated is not None:
                c2[...] = separated.l2(Af)
                l_left = c1 + c2
            elif costs is not None:
                # a copy, since X is updated in place below
                l_left = np.array(problem.running_cost(Xf, Af))
            # an additive noise term is formed on the channel, once, and
            # shared by every contestant; state-dependent noise (full
            # channel) is contracted per contestant block before X changes,
            # the same einsum call as in that contestant's own run
            if sigma_t is not None:
                noise_term = None
            else:
                sig = problem.noise_at(Xf).reshape(n_c, rows, n, -1)
                noise_term = np.empty((n_c, rows, n))
                for c in range(n_c):
                    noise_term[c] = np.einsum("pnq,pq->pn", sig[c], dw_k)
            # X + dt*b + sigma dW on the channel, in place, in that order;
            # off it b and sigma are zero and the generator alone moves X
            XJ = X[..., J]
            XJ += dt * bJ
            XJ += dw_k @ sigma_t if noise_term is None else noise_term
            # a stacked product is one gemm per contestant block, so each row
            # keeps its place modulo 64 (see the module docstring); a zero
            # generator's E is the identity and needs no product
            if not e_is_identity:
                X = X @ E.T

            # max |X| without the |X| temporary; NaN reaches it through
            # either reduction
            worst = max(float(X.max()), -float(X.min())) if X.size else 0.0
            if not np.isfinite(worst) or worst > _DIVERGENCE_LIMIT:
                raise SimulationDivergenceError(k + 1, grid[k + 1], worst)

            Xf = X.reshape(n_c * rows, n)
            if separated is not None:
                c1[...] = separated.l1(Xf)
                acc += 0.5 * dt * (l_left + (c1 + c2))
            elif costs is not None:
                acc += 0.5 * dt * (l_left + problem.running_cost(Xf, Af))
            if states is not None:
                states[g0:g1, lo:hi, k + 1] = X
            if sup_norm is not None:
                np.maximum(norm, h_norm(problem.space, X), out=norm)

        if costs is not None:
            acc += problem.terminal_cost(X.reshape(n_c * rows, n))
            costs[g0:g1, lo:hi] = acc.reshape(n_c, rows)
        if sup_norm is not None:
            sup_norm[g0:g1, lo:hi] = norm
        terminal[g0:g1, lo:hi] = X

    tiles = [(lo + a, lo + b) for a, b in _tile_bounds(hi - lo, n)]
    for g0, g1 in _group_bounds(len(inits), hi - lo, n):
        try:
            for tile in tiles:
                advance(g0, g1, *tile)
        except SimulationDivergenceError:
            if g1 - g0 == 1 and len(tiles) == 1:
                raise
            # each contestant's own run, one pass over these paths: the first
            # to diverge raises the error its own run raises, naming the
            # earliest step over its paths and the largest magnitude there
            for c in range(g0, g1):
                advance(c, c + 1, lo, hi)


def _simulate(problem, requests, fields):
    """The records of requests (t, x, control, n_paths, n_steps, master_seed,
    stream_label) that make one noise request, in order, with the bits,
    error and memo counts of the serial loop at the end: per request a
    PathEnsemble holding the time grid, terminal states and the fields named
    in fields, or a list of them for lists of states and controls. The one
    fan-out of the package (see the module docstring)."""
    memo = increment_memo
    _, _, _, n_paths, n_steps, seed, label = requests[0]
    noise = _Noise(seed, label, n_paths, n_steps, problem.noise_dim)
    contestants = sum(len(c) if isinstance(c, list) else 1 for _, _, c, *_ in requests)
    # a path's work: its element-steps, and its draws unless the block is held
    procs = _process_count(n_paths * n_steps * (
        contestants * problem.dim + (memo.request != noise) * noise.n_w))
    try:
        # a request that fails its checks goes to the serial loop, which
        # raises that error once the requests before it have run
        prepared = [_prepare(problem, *r) for r in requests] if procs > 1 else None
    except ValueError:
        prepared = None
    runs = None
    if prepared is not None:
        saved = memo.hits, memo.misses
        # the serial loop's look-ups: the first may miss, and the others hit
        # the block it then holds, here drawn by the processes' shares
        block, keys = _look_up(noise)
        if block is None:
            block = _shared_empty((n_paths, n_steps, noise.n_w))
            memo.request, memo.block = noise, block
        for _ in requests[1:]:
            _look_up(noise)
        outputs = [{f: None if s is None else _shared_empty(s)
                    for f, s in _record_shapes(problem, r, fields).items()}
                   for r in prepared]

        def advance(lo, hi):
            if keys is not None:
                _draw(block, keys, lo, hi)
            for r, out in zip(prepared, outputs):
                _run(problem, r, out, block, lo, hi)

        done = False
        try:
            done = _run_forked(_deal(n_paths, procs), advance)
        finally:
            if not done:
                # the serial loop reruns from where the look-ups began, on
                # the block held then; a block drawn in part is let go
                memo.hits, memo.misses = saved
                if keys is not None:
                    memo.request = memo.block = None
        if done:
            block.flags.writeable = False
            runs = [_records(r, out) for r, out in zip(prepared, outputs)]
    if runs is None:
        runs = []
        for r in requests:
            request = _prepare(problem, *r)
            out = {f: None if s is None else np.empty(s)
                   for f, s in _record_shapes(problem, request, fields).items()}
            _run(problem, request, out, gaussian_increments(*request.noise), 0,
                 request.noise.n_paths)
            runs.append(_records(request, out))
    return [rec if isinstance(r[2], list) else rec[0] for rec, r in zip(runs, requests)]


def simulate_ensemble(
    problem,
    t,
    x,
    control,
    n_paths,
    n_steps=200,
    seed=42,
    stream_label="paths",
):
    """Simulate n_paths trajectories with full state recording.

    Runs that make the same (seed, stream_label, n_paths, n_steps) request
    share one noise realization per path index, so differences between runs
    from one start time are purely drift and initial-condition effects; from
    another start time the same standard normals are scaled by that run's
    own sqrt(dt). Lists of initial states
    and controls, x[i] with control[i], are contestants on one such request:
    they advance together and a list of records comes back, in their order.
    """
    return _simulate(problem, [(t, x, control, n_paths, n_steps, seed, stream_label)],
                     ("states",))[0]


def simulate_costs(
    problem,
    t,
    x,
    control,
    n_paths,
    n_steps=200,
    seed=42,
    stream_label="paths",
    record_controls=False,
):
    """Per-path running plus terminal costs over [t, horizon], without
    storing intermediate states.

    A shorter sweep is a run of the problem cut at that time: the
    dynamic-programming audit stitches one on a problem with horizon s and a
    zero terminal cost to a second from s. Lists of initial states and
    controls are contestants, as in simulate_ensemble.
    """
    fields = ("costs", "control_traces") if record_controls else ("costs",)
    return _simulate(problem, [(t, x, control, n_paths, n_steps, seed, stream_label)],
                     fields)[0]


def simulate_costs_batch(problem, requests):
    """[simulate_costs(problem, *r) for r in requests], bit for bit, for
    independent requests r = (t, x, control, n_paths, n_steps, seed,
    stream_label), with the serial loop's memo counts and error.

    Each run of consecutive requests that make one noise request (seed,
    stream_label, n_paths, n_steps) goes to the engine's fan-out together,
    in turn, so requests too small to fork on their own can share a fork,
    and each process gets an equal share of their rows (see the module
    docstring).
    """
    runs = []
    for _, group in itertools.groupby(requests, key=lambda r: (r[5], r[6], r[3], r[4])):
        runs += _simulate(problem, list(group), ("costs",))
    return runs


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
        run = _simulate(problem, [(t, x, control, n_paths, n_steps, master, "paths")],
                        ("control_traces", "sup_norm"))[0]
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


def write_ensemble_csv(path, ensemble: PathEnsemble):
    if ensemble.states is None:
        raise ValueError("the run record has no states: write_ensemble_csv "
                         "needs a simulate_ensemble record")
    n = ensemble.states.shape[2]
    with open(path, "w") as fh:
        fh.write("path_id,step,time," + ",".join(f"x{i}" for i in range(n)) + "\n")
        for k, states in enumerate(ensemble.states):
            for step, state in enumerate(states):
                comps = ",".join(repr(float(v)) for v in state)
                fh.write(f"{k},{step},{float(ensemble.time_grid[step])!r},{comps}\n")
