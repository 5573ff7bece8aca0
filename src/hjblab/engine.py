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
increments depend only on (master_seed, stream_label, k) and never on how
many paths run alongside it, in what order, or in which process. One Philox
generator is re-keyed for each path rather than built anew
(seeds.path_streams), so any process can draw any range of paths from their
keys. The step loop asks for its increments itself and takes no block from
its caller: contestants share noise by making the same request (seed,
stream_label, n_paths, n_steps), in one call or several, and so get the
same bits. The last block made is kept and a repeat of the same request
gets that array back; blocks are handed out read-only, so no caller can
change what the next one receives. Only one block is held: a second would
cost as much memory as the first. A block that has to be built again costs
its draws alone: the per-path keys of the last few (seed, stream_label,
n_paths) requests are held too (seeds.path_keys), so a request that differs
from an earlier one only in n_steps, n_w or dt, or comes back after
another, derives no key. A block of at least 2 M draws (paths x steps x
noise dimensions) is drawn by the process fan-out below, each process on a
contiguous range of paths; its keys are derived in this process before the
fork, and smaller blocks are drawn here alone. The memo and the key cache
only decide how often a block or its keys are built, never what they hold;
increment_memo and seeds.path_key_cache count their hits and misses.

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
case, over its problem's window [t, horizon] in n_steps equal steps; a
shorter window is a run of the problem with a shorter horizon. It returns
one record per contestant, `PathEnsemble`: the time grid and terminal
states always, and states, per-path costs, control traces or sup norms when
they were asked for. `simulate_ensemble` (states) and `simulate_costs`
(costs, optionally controls) hand those records back unchanged, one for one
contestant or a list for lists of states and controls; a single path is
path 0 of a one-path ensemble.

A large run is split across processes. Its items, the (group, tile) pairs
above, are dealt by _deal to this process and to children made with
os.fork, in contiguous shares of equal work, this process taking the first.
An item that straddles a share boundary is cut at a row a multiple of 64
after its start, with 64 rows or more on each side, which the tile rules
make as safe as any tiling; an item of fewer than 128 rows stays whole.
Processes and not threads: once the callbacks' sums are short, the step
loop is bound by the interpreter lock, and two threads over the same items
gained nothing, where two processes share no lock. A run fans out when the
host gives this process more than one CPU and its work (contestants x paths
x steps x dim) holds at least 2 M element-steps: it forks one child for
each full 2 M element-steps of work, at most one process per CPU and per
64-row slab of its items; smaller runs, and hosts without os.fork or
sched_getaffinity, run serially in this process. A missed increment block
is dealt by the same rule, with its draws for work and any path for a cut,
since a path's draws do not depend on its neighbours, so at 2 M draws only
large fresh blocks (the 20 000 x 200 delay-lift run) are drawn across
processes. The keys of that block, the noise block of a run and E are all
made before the fork, so the memo and the key caches count as in a serial
run. simulate_costs_batch takes a list of independent simulate_costs
requests, the time rows of a policy-iteration round, and deals them by the
same rule, with each request's element-steps, and its draws unless the memo
holds its block, for work, but this process takes the last share. A request
cut between two processes runs as two row ranges of itself, one in each:
per-path starts and traces are sliced, and each process fills its noise
rows of a block in shared memory, copied from the held block when the memo
holds that request, or else drawn alone after it drops the block it holds,
so no process holds a block and part of another. This process ends
holding the block of the last request, as after the serial loop: its own
run's, or that shared block when the last request was cut. A request or a
piece run in a child counts its memo and key-cache hits there, and they are
lost with it, so a cut request's draws and counts are split over two
processes. Fan-outs do not nest: inside one, neither a child nor this
process's own share forks again, for a run or for a block. The outputs
(terminal states, costs, states, traces, sup norms; for a batch, the time
grids, terminal states and costs of the requests a child runs all or part
of) and a block drawn across processes are allocated in anonymous shared
memory, where each process writes its own slices; an array of no entries
needs no mapping. While a fan-out runs, numpy's OpenBLAS is pinned to one
thread, in this process and, since it is pinned before the fork, in every
child, and the caller's thread count is restored afterwards: BLAS threads
of several processes on two CPUs crowd each other, and a forked 5000-path
delay-lift run took 0.08-1.7 s against 0.07-0.16 s serially before the pin.
Where numpy bundles no OpenBLAS whose thread count can be read and set,
nothing fans out. A child always leaves with os._exit, whatever happened,
and never returns into its caller's code; this process reaps every child
before the run, the block or the batch is returned, killing them first if
its own share raised. If any process failed (a divergence, a callback
error, a child killed by a signal), the request reruns serially, and a
batch reruns every request in order, so the caller gets exactly the result
or the error of a serial run, and a block gets exactly the serial bits.
Callbacks must be pure: state a callback sets in a child (a counter, a
cache, a traced span) is lost with the child, so a tracer in this process
sees only this process's share of a run, a block or a batch. A warning
raised in a child prints to its stderr but never reaches the caller's
warnings.catch_warnings; one that a filter turns into an error fails the
child, and the serial rerun raises it.

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

import bisect
import ctypes
import itertools
import math
import mmap
import os
import signal
from dataclasses import dataclass
from typing import Optional

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
# processes a run may use, and the work (contestants x paths x steps x dim)
# that buys a run one forked child: a run forks work // _FORK_MIN_WORK
# children, within its CPUs and the 64-row slabs of its items, and _deal
# gives each process an equal share of the work. An increment block follows
# the same rule with its draws for work, and a batch with each request's
# element-steps plus the draws of a block the memo does not hold, a draw
# counted as one element-step though it costs a few: about 50 ns, so 2 M
# draws take about 0.1 s. Forking a child of an 80 MB process and reaping it
# costs this process 1-4 ms on a 2-core host; the step loop does 30-130
# element-steps per microsecond, so 2 M element-steps take 15-65 ms, and the
# half of them that a child takes over saves several times what it costs
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


class _LastBlock:
    """The increment block handed out last, its request, and hit/miss counts."""

    def __init__(self):
        self.request = None
        self.block = None
        self.hits = 0
        self.misses = 0


increment_memo = _LastBlock()


def gaussian_increments(master_seed, label, n_paths, n_steps, n_w, dt,
                        rows=None, into=None) -> np.ndarray:
    """Brownian increments (P, M, n_w), read-only; path k comes from its own stream.

    A repeat of the previous request returns the same array again; a block
    built anew takes its path keys from seeds.path_keys, in this process. On
    a host with several CPUs, a block of at least _FORK_MIN_WORK draws is
    drawn by the processes of the step loop's fan-out, each on a contiguous
    range of paths, into shared memory (see the module docstring).

    rows=(lo, hi) asks for paths lo:hi alone, a piece of a request that a
    batch cut across processes, and returns rows lo:hi of into, a (P, M,
    n_w) array that it fills: copied from the held block when it is this
    request's, drawn otherwise. The held block is dropped before that draw,
    so no process holds a block and part of another, and nothing is held
    after it. Every piece fills its rows, so into ends whole whichever
    processes held the request.
    """
    memo = increment_memo
    # the request is the arguments, as _noise_request makes them
    request = (master_seed, label, n_paths, n_steps, n_w, dt)
    if memo.request == request:
        memo.hits += 1
        if rows is None:
            return memo.block
        # a piece fills its rows of into on a hit too, so that block is whole
        # whichever processes held the request
        into[rows[0]:rows[1]] = memo.block[rows[0]:rows[1]]
    else:
        memo.misses += 1
        # drop the held block first, so two blocks are never held at once
        memo.request = memo.block = None
        keys = path_keys(master_seed, label, n_paths)
        if rows is not None:
            _draw(into, keys, *rows, dt)
    if rows is not None:
        piece = into[rows[0]:rows[1]]
        piece.flags.writeable = False
        return piece
    shape = (n_paths, n_steps, n_w)
    # the step loop's rule, with draws for work; a path's draws are its own
    # at any row, so a block is cut at any path
    shares = _deal([(0, n_paths, n_steps * n_w)], _process_count(math.prod(shape)),
                   align=1)
    out = (np.empty if len(shares) < 2 else _shared_empty)(shape)

    def fill(_, lo, hi):
        _draw(out, keys, lo, hi, dt)

    if len(shares) < 2 or not _run_forked(shares, fill):
        fill(0, 0, n_paths)
    out.flags.writeable = False
    memo.request, memo.block = request, out
    return out


def _noise_request(problem, t, n_paths, n_steps, master_seed, stream_label):
    """The increment request of a run of problem from t: gaussian_increments'
    first six arguments, and so the key increment_memo holds."""
    return (master_seed, stream_label, n_paths, n_steps, problem.noise_dim,
            (problem.horizon - t) / n_steps)


def _draw(out, keys, lo, hi, dt):
    """Fill rows lo:hi of out with the increments of paths lo:hi, whose keys
    are keys[lo:hi]."""
    rows = out[lo:hi]
    for row, gen in zip(rows, path_streams(keys[lo:hi])):
        gen.standard_normal(out=row)
    rows *= math.sqrt(dt)


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


def _deal(items, n_procs, align=_TILE_ALIGN):
    """items, each (lo, hi, work per row), in at most n_procs contiguous
    shares of about equal work; a share is a list of (index, lo, hi) row
    ranges of the items, in order.

    An item is made of slabs of align rows, its last slab taking the rest,
    so it has one at least. Each share boundary lies between the two slabs
    nearest its even split of the total work, so an item that straddles it
    is cut at lo plus a multiple of align, with align rows or more on each
    side, and every share holds a slab or more.
    """
    slabs = [max(1, (hi - lo) // align) for lo, hi, _ in items]
    firsts = list(itertools.accumulate(slabs, initial=0))
    starts = list(itertools.accumulate(((hi - lo) * w for lo, hi, w in items),
                                       initial=0))
    n_procs = min(n_procs, firsts[-1])

    def row(i, k):
        """The first row of slab k of item i, or its end for k = slabs[i]."""
        lo, hi, _ = items[i]
        return hi if k == slabs[i] else lo + k * align

    def work_before(b):
        """The work of the first b slabs."""
        i = bisect.bisect_right(firsts, b) - 1
        if i == len(items):
            return starts[-1]
        lo, _, w = items[i]
        return starts[i] + (row(i, b - firsts[i]) - lo) * w

    bounds = [0]
    for s in range(1, n_procs):
        target = starts[-1] * s / n_procs
        b = bisect.bisect_left(range(firsts[-1] + 1), target, key=work_before)
        if b > 0 and target - work_before(b - 1) <= work_before(b) - target:
            b -= 1
        # one slab at least for this share and for each one after it
        bounds.append(min(max(b, bounds[-1] + 1), firsts[-1] - (n_procs - s)))
    bounds.append(firsts[-1])

    shares = []
    for b0, b1 in zip(bounds, bounds[1:]):
        i, share = bisect.bisect_right(firsts, b0) - 1, []
        while firsts[i] < b1:
            share.append((i, row(i, max(b0 - firsts[i], 0)),
                          row(i, min(b1 - firsts[i], slabs[i]))))
            i += 1
        shares.append(share)
    return shares


def _shared_empty(shape):
    """An uninitialised float64 array in anonymous shared memory, which forked
    children write and this process reads; an array of no entries needs no
    mapping, and a mapping of zero bytes does not exist."""
    size = math.prod(shape)
    if size == 0:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size), count=size).reshape(shape)


def _run_forked(shares, advance):
    """advance(*item) for the items of shares[0] here and of each later share
    in a forked child, with BLAS on one thread and no nested fan-out; True
    when every process finished all its items."""
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
                    for item in share:
                        advance(*item)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        for item in shares[0]:
            advance(*item)
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


def _run(
    problem,
    t,
    contestants,
    n_paths,
    n_steps,
    master_seed,
    stream_label,
    *,
    record_states=False,
    record_controls=False,
    accumulate_costs=False,
    track_sup_norm=False,
    rows=None,
    into=None,
):
    """Advance (x, control) contestants on one noise request over [t, horizon];
    the single loop behind every public entry point. One record per
    contestant, in order.

    rows=(lo, hi) runs paths lo:hi of the request alone, lo a multiple of 64,
    and records them; their noise comes from gaussian_increments' rows and
    into arguments."""
    if not (0.0 <= t < problem.horizon):
        raise ValueError(f"need 0 <= t < horizon, got t={t}, "
                         f"horizon={problem.horizon}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    noise = _noise_request(problem, t, n_paths, n_steps, master_seed, stream_label)
    dt = noise[-1]
    grid = t + dt * np.arange(n_steps + 1)
    step_times = grid[:-1]

    n = problem.dim
    inits, controls = [], []
    for x, control in contestants:
        x = np.asarray(x, dtype=float)
        if not (x.ndim == 1 or x.shape == (n_paths, n)):
            raise ValueError(f"initial state must be ({n},) or ({n_paths}, {n})")
        inits.append(x)
        controls.append(_prepare_control(problem, control, step_times, n_paths))
    box = problem.control_spec.box
    q = problem.control_spec.dim

    dw = gaussian_increments(*noise, rows, into)
    if rows is not None:
        # a run of hi - lo paths from here on, whose rows keep their places
        # modulo 64 in every product
        lo, hi = rows
        inits = [x if x.ndim == 1 else x[lo:hi] for x in inits]
        controls = [(kind, ctl[lo:hi] if kind == "values" and ctl.ndim == 3 else ctl)
                    for kind, ctl in controls]
        n_paths = hi - lo

    E = semigroup_matrix(problem.op, dt)
    e_is_identity = np.array_equal(E, np.eye(n))
    J = problem.block
    width = J.stop - J.start
    sigma_t = problem.noise[J].T if problem.additive_noise else None

    groups = _group_bounds(len(contestants), n_paths, n)
    tiles = _tile_bounds(n_paths, n)
    items = [(g0, g1, lo, hi) for g0, g1 in groups for lo, hi in tiles]
    shares = _deal([(lo, hi, (g1 - g0) * n_steps * n) for g0, g1, lo, hi in items],
                   _process_count(len(contestants) * n_paths * n_steps * n))
    shares = [[items[i][:2] + (lo, hi) for i, lo, hi in share] for share in shares]

    # outputs for every contestant; each record holds its own slice
    empty = np.empty if len(shares) < 2 else _shared_empty
    lead = (len(contestants), n_paths)
    terminal = empty(lead + (n,))
    states = empty(lead + (n_steps + 1, n)) if record_states else None
    traces = empty(lead + (n_steps, q)) if record_controls else None
    costs = empty(lead) if accumulate_costs else None
    separated = problem.cost_structure if accumulate_costs else None
    sup_norm = empty(lead) if track_sup_norm else None

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
        if accumulate_costs:
            acc = np.zeros(n_c * rows)
        if record_states:
            states[g0:g1, lo:hi, 0] = X
        if separated is not None:
            # l1 and l2 outlive the calls that make them, so they are copied
            # into arrays made once per tile: a fresh array kept across steps
            # fragments the heap under the step's (P, N) temporaries (7x the
            # page faults of a 20000-path delay-lift run)
            c1, c2 = np.empty((2, n_c * rows))
            c1[...] = separated.l1(X.reshape(n_c * rows, n))
        if track_sup_norm:
            norm = h_norm(problem.space, X)

        for k in range(n_steps):
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
            if record_controls:
                traces[g0:g1, lo:hi, k] = A

            Xf = X.reshape(n_c * rows, n)
            bJ = problem.drift(Xf, Af).reshape(n_c, rows, width)
            if separated is not None:
                c2[...] = separated.l2(Af)
                l_left = c1 + c2
            elif accumulate_costs:
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
                    noise_term[c] = np.einsum("pnq,pq->pn", sig[c], dw_rows[:, k])
            # X + dt*b + sigma dW on the channel, in place, in that order;
            # off it b and sigma are zero and the generator alone moves X
            XJ = X[..., J]
            XJ += dt * bJ
            XJ += dw_rows[:, k] @ sigma_t if noise_term is None else noise_term
            # a stacked product is one gemm per contestant block, so each row
            # keeps its place modulo 64 (see the module docstring); a zero
            # generator's E is the identity and needs no product
            if not e_is_identity:
                X = X @ E.T

            worst = float(np.max(np.abs(X))) if X.size else 0.0
            if not np.isfinite(worst) or worst > _DIVERGENCE_LIMIT:
                raise SimulationDivergenceError(k + 1, grid[k + 1], worst)

            Xf = X.reshape(n_c * rows, n)
            if separated is not None:
                c1[...] = separated.l1(Xf)
                acc += 0.5 * dt * (l_left + (c1 + c2))
            elif accumulate_costs:
                acc += 0.5 * dt * (l_left + problem.running_cost(Xf, Af))
            if record_states:
                states[g0:g1, lo:hi, k + 1] = X
            if track_sup_norm:
                np.maximum(norm, h_norm(problem.space, X), out=norm)

        if accumulate_costs:
            acc += problem.terminal_cost(X.reshape(n_c * rows, n))
            costs[g0:g1, lo:hi] = acc.reshape(n_c, rows)
        if track_sup_norm:
            sup_norm[g0:g1, lo:hi] = norm
        terminal[g0:g1, lo:hi] = X

    if len(shares) < 2 or not _run_forked(shares, advance):
        for g0, g1 in groups:
            try:
                for lo, hi in tiles:
                    advance(g0, g1, lo, hi)
            except SimulationDivergenceError:
                if g1 - g0 == 1 and len(tiles) == 1:
                    raise
                # each contestant's own run, one pass over all its paths: the
                # first to diverge raises the error its own run raises, naming
                # the earliest step over its paths and the largest magnitude
                # there
                for c in range(g0, g1):
                    advance(c, c + 1, 0, n_paths)

    return [
        PathEnsemble(
            time_grid=grid,
            terminal_states=terminal[c],
            states=None if states is None else states[c],
            costs=None if costs is None else costs[c],
            control_traces=None if traces is None else traces[c],
            sup_norm=None if sup_norm is None else sup_norm[c],
        )
        for c in range(len(contestants))
    ]


def _contestants(x, control):
    """[(x, control)] for one contestant, or the pairs of two equal lists."""
    if not isinstance(control, list):
        return [(x, control)]
    if not isinstance(x, list) or len(x) != len(control):
        raise ValueError("contestants need a list of initial states, one per control")
    return list(zip(x, control))


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
    share one noise realization per path index, so differences between them
    are purely drift and initial-condition effects. Lists of initial states
    and controls, x[i] with control[i], are contestants on one such request:
    they advance together and a list of records comes back, in their order.
    """
    runs = _run(problem, t, _contestants(x, control), n_paths, n_steps, seed,
                stream_label, record_states=True)
    return runs if isinstance(control, list) else runs[0]


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
    *,
    rows=None,
    into=None,
):
    """Per-path running plus terminal costs over [t, horizon], without
    storing intermediate states.

    A shorter sweep is a run of the problem cut at that time: the
    dynamic-programming audit stitches one on a problem with horizon s and a
    zero terminal cost to a second from s. Lists of initial states and
    controls are contestants, as in simulate_ensemble. rows and into run
    paths lo:hi of the request alone, as simulate_costs_batch does with a
    request it cuts (see _run).
    """
    runs = _run(
        problem, t, _contestants(x, control), n_paths, n_steps, seed,
        stream_label, accumulate_costs=True, record_controls=record_controls,
        rows=rows, into=into,
    )
    return runs if isinstance(control, list) else runs[0]


def simulate_costs_batch(problem, requests):
    """[simulate_costs(problem, *r) for r in requests], bit for bit, for
    independent requests r = (t, x, control, n_paths, n_steps, seed,
    stream_label).

    The requests are the items of the process fan-out (see the module
    docstring), with contestants x paths x steps x dim of each for its
    work per path, plus its draws unless increment_memo holds its block:
    contiguous shares of equal work, this process taking the last. A
    request that straddles a share boundary is cut at a path a multiple of
    64 after its first, and each process runs its piece through
    simulate_costs as a run of those paths: per-path starts and traces
    sliced, and its rows of the request's shared noise block filled, copied
    from the held block or drawn alone after it drops the block it holds.
    A child writes the time grid, terminal states and costs of its records
    to shared memory, and counts its memo and key-cache hits there. This
    process ends holding the block of the last request, as after the
    serial loop: its own run of it, or the shared block of a cut one. If
    any process fails, every request reruns here, in order, so the caller
    gets the serial result or error.
    """
    def run(i, rows=None, into=None):
        t, x, control, n_paths, n_steps, seed, stream_label = requests[i]
        return simulate_costs(problem, t, x, control, n_paths, n_steps, seed,
                              stream_label, rows=rows, into=into)

    memo, n, n_w = increment_memo, problem.dim, problem.noise_dim
    # (contestants, paths, steps) of each
    sizes = [(len(control) if isinstance(control, list) else 1, n_paths, n_steps)
             for _, _, control, n_paths, n_steps, _, _ in requests]
    held = [m >= 1 and memo.request == _noise_request(problem, t, p, m, seed, label)
            for (t, _, _, _, _, seed, label), (_, p, m) in zip(requests, sizes)]
    items = [(0, p, c * m * n + (0 if h else m * n_w))
             for (c, p, m), h in zip(sizes, held)]
    # a request of no rows, steps or contestants runs serially, and raises
    # there if it must
    shares = (_deal(items, _process_count(sum(p * w for _, p, w in items)))
              if all(min(s) >= 1 for s in sizes) else [])
    if len(shares) >= 2:
        # _run_forked runs its first share here
        shares = shares[-1:] + shares[:-1]
        last = len(requests) - 1
        cut = {i for share in shares for i, lo, hi in share if hi - lo < sizes[i][1]}
        blocks = {i: _shared_empty(sizes[i][1:] + (n_w,)) for i in cut}
        # the time grid, terminal states and costs of each request a child runs
        out = {}
        for share in shares[1:]:
            for i, _, _ in share:
                c, p, m = sizes[i]
                out[i] = (_shared_empty((m + 1,)), _shared_empty((c, p, n)),
                          _shared_empty((c, p)))
        runs = [None] * len(requests)

        def advance(i, lo, hi):
            if i in cut:
                # a piece's shared block is let go once the piece has run,
                # but for the last request's, which this process then holds
                runs[i] = run(i, (lo, hi), blocks[i] if i == last else blocks.pop(i))
            else:
                runs[i] = run(i)
            if i in out:
                grid, terminal, costs = out[i]
                records = runs[i] if isinstance(runs[i], list) else [runs[i]]
                grid[...] = records[0].time_grid
                for c, record in enumerate(records):
                    terminal[c, lo:hi] = record.terminal_states
                    costs[c, lo:hi] = record.costs

        if _run_forked(shares, advance):
            for i, (grid, terminal, costs) in out.items():
                records = [PathEnsemble(time_grid=grid, terminal_states=terminal[c],
                                        costs=costs[c]) for c in range(len(costs))]
                runs[i] = records if isinstance(requests[i][2], list) else records[0]
            # every process filled its rows of a cut last request's block;
            # this process holds that request still if its piece hit the memo,
            # and nothing if it drew
            if last in cut and memo.request is None:
                t, _, _, p, m, seed, label = requests[last]
                blocks[last].flags.writeable = False
                memo.request = _noise_request(problem, t, p, m, seed, label)
                memo.block = blocks[last]
            return runs
    return [run(i) for i in range(len(requests))]


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
        run, = _run(problem, t, [(x, control)], n_paths, n_steps, master,
                    "paths", record_controls=True, track_sup_norm=True)
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
