"""Problem definitions and reference instances.

A ControlProblem bundles the discrete state space, the generator, the
controlled drift and noise maps, the cost integrands and the horizon. The
builders construct the three instance families used throughout:

  * build_lq_benchmark: scalar linear state, quadratic costs. Comes with a
    Riccati oracle, so every estimator in the package can be checked against
    closed-form values.
  * build_reaction_diffusion: semilinear heat equation on an interval with a
    pointwise reaction term and distributed control. The reaction slope must
    come with a declared derivative bound; that bound is what the order-
    comparison audit consumes.
  * build_sdde_lift: scalar delay equation rewritten as a first-order system
    for (present value, past segment). Drift, noise and control act on the
    present channel only, which the problem declares as its channel, and
    the natural estimates hold in the weak norm induced by
    B = (A^{-1})* A^{-1}.

Costs are kept in separated form l(x, a) = l1(x) + l2(a) with strictly
convex quadratic l2; the struct records l2's gradient and inverse gradient,
which is what feedback synthesis inverts.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hilbert import (
    BOperatorSpec,
    DiscreteOperator,
    SpaceSpec,
    delay_space,
    h_norm,
    interval_space,
    make_delay_generator,
    make_dirichlet_laplacian,
    make_zero_operator,
)

__all__ = [
    "ControlSpec",
    "CostStructure",
    "ReactionSpec",
    "ControlProblem",
    "RiccatiOracle",
    "RiccatiSolution",
    "RiccatiBlowupError",
    "riccati_solve",
    "build_lq_benchmark",
    "build_reaction_diffusion",
    "build_sdde_lift",
    "REACTIONS",
    "SCALAR_COSTS",
]


@dataclass(frozen=True)
class ControlSpec:
    """Admissible controls: vectors in R^dim, optionally box constrained.

    weights define the norm on the control space (quadrature weights for
    distributed controls, ones for lumped ones). p_integrability is the
    declared moment order of admissible signals; the moment audit uses it.
    """

    dim: int
    box: Optional[tuple] = None
    weights: Optional[np.ndarray] = None
    p_integrability: float = 4.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("control dimension must be >= 1")
        if self.p_integrability <= 2:
            raise ValueError("p_integrability must exceed 2")
        w = np.ones(self.dim) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,) or np.any(w <= 0):
            raise ValueError("weights must be positive with shape (dim,)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.box is not None:
            lo = np.broadcast_to(np.asarray(self.box[0], dtype=float), (self.dim,)).copy()
            hi = np.broadcast_to(np.asarray(self.box[1], dtype=float), (self.dim,)).copy()
            if np.any(lo >= hi):
                raise ValueError("box must satisfy lo < hi componentwise")
            lo.setflags(write=False)
            hi.setflags(write=False)
            object.__setattr__(self, "box", (lo, hi))


@dataclass(frozen=True)
class CostStructure:
    """Separated cost l(x,a) = l1(x) + l2(a), l2 strictly convex.

    dl2 maps a control to the gradient of l2 in the control-space metric;
    dl2_inverse is its inverse map. control_matrix is the coupling G in the
    drift b(x,a) = f(x) + G a, so the pointwise minimizer of the Hamiltonian
    is dl2_inverse(-G* p) with the adjoint taken between the weighted spaces.
    """

    l1: Callable
    l2: Callable
    dl2: Callable
    dl2_inverse: Callable
    control_matrix: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.control_matrix, dtype=float)
        if g.ndim != 2:
            raise ValueError("control_matrix must be 2-D (state_dim, control_dim)")
        g.setflags(write=False)
        object.__setattr__(self, "control_matrix", g)


@dataclass(frozen=True)
class ReactionSpec:
    """Pointwise reaction term with a declared slope bound.

    fn must be a scalar ufunc-style callable that returns a new array, never
    a view of its argument: the drift subtracts the control from fn's result
    in place. lipschitz bounds |fn'| on the relevant range and is taken on
    trust here (the builder spot-checks it on samples). The comparison
    audit's strict mode requires dt * lipschitz <= 1, under which the
    explicit step keeps order, so a bound that is too small shows up there
    as an order violation.
    """

    fn: Callable
    lipschitz: float
    name: str = "custom"

    def __post_init__(self):
        if not callable(self.fn):
            raise TypeError("reaction fn must be callable")
        if not (np.isfinite(self.lipschitz) and self.lipschitz >= 0):
            raise ValueError("reaction needs a finite nonnegative slope bound")


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Controlled SDE dX = [A X + b(X, a)] ds + sigma dW plus cost data.

    channel is the block of coordinates that drift, noise and control act
    on, a slice with unit step; None means every coordinate. drift is the
    non-generator part b on that block: it takes state batches (..., N) and
    control batches (..., q) and returns (..., width), width being the
    block's length. noise is a constant (N, n_w) matrix (additive) or a
    callable state -> (..., N, n_w). Off the block b is zero, and validation
    checks the rest: the rows of a constant noise matrix and of
    cost_structure.control_matrix off the block must be zero, and a
    callable noise needs the full block. The generator alone moves the
    other coordinates, so the engine steps and synthesis pairs the block
    only. running_cost and terminal_cost map batches to scalars per row.
    Every callback here and in cost_structure is row-wise: row k of its
    result depends on row k of its arguments alone, with the same bits
    whatever rows share the batch and at whatever offset row k sits, since
    the engine advances large ensembles in path tiles and calls these once
    on contestants stacked at row offsets c * P (see engine). Feedback maps
    are held to the same contract (see synthesis.Policy). A callback sums
    over the state axis with a ufunc reduce or np.einsum, never with @ or
    np.dot to a vector: OpenBLAS gemv gives rows of a batch other bits than
    the same rows computed alone (with x[..., 1:] @ kq as the delay lift's
    memory term, 24 of 997 drift rows moved).

    With a cost_structure, running_cost may be left out and is then derived
    as l1(x) + l2(a); the engine integrates cost_structure directly whenever
    one is set, so running_cost serves problems without one and callers
    that evaluate l(x, a) themselves.
    A problem carries no free-form metadata: what a builder knows beyond
    these fields (the LQ oracle) it returns beside the problem.
    """

    name: str
    space: SpaceSpec
    op: DiscreteOperator
    b_op: BOperatorSpec
    drift: Callable
    noise: object
    noise_dim: int
    terminal_cost: Callable
    control_spec: ControlSpec
    horizon: float
    cost_structure: Optional[CostStructure] = None
    running_cost: Optional[Callable] = None
    drift_lipschitz: Optional[float] = None
    reaction: Optional[ReactionSpec] = None
    channel: Optional[slice] = None

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.noise_dim < 0:
            raise ValueError("noise_dim must be >= 0")
        if isinstance(self.noise, np.ndarray):
            if self.noise.shape != (self.space.dim, self.noise_dim):
                raise ValueError("constant noise matrix must be (state_dim, noise_dim)")
        cost = self.cost_structure
        if cost is not None:
            want = (self.space.dim, self.control_spec.dim)
            if cost.control_matrix.shape != want:
                raise ValueError(
                    f"control_matrix has shape {cost.control_matrix.shape}, "
                    f"need (state_dim, control_dim) = {want}"
                )
        if self.channel is not None:
            self._check_channel()
        if self.running_cost is None:
            if cost is None:
                raise ValueError("need running_cost or cost_structure")
            object.__setattr__(self, "running_cost",
                               lambda x, a: cost.l1(x) + cost.l2(a))

    def _check_channel(self):
        ch, n = self.channel, self.space.dim
        if not isinstance(ch, slice) or ch.step not in (None, 1):
            raise ValueError("channel must be a slice with unit step")
        lo = 0 if ch.start is None else ch.start
        hi = n if ch.stop is None else ch.stop
        if not 0 <= lo < hi <= n:
            raise ValueError(
                f"channel {ch} must be a nonempty block of [0, {n})")
        off = np.ones(n, dtype=bool)
        off[lo:hi] = False
        if not self.additive_noise:
            if (lo, hi) != (0, n):
                raise ValueError("a callable noise needs the full channel")
        elif np.any(self.noise[off] != 0):
            raise ValueError("noise has a nonzero row off the channel")
        cost = self.cost_structure
        if cost is not None and np.any(cost.control_matrix[off] != 0):
            raise ValueError("control_matrix has a nonzero row off the channel")

    @property
    def dim(self):
        return self.space.dim

    @property
    def block(self):
        """The channel as slice(lo, hi): every coordinate when it is None."""
        ch = self.channel
        if ch is None:
            return slice(0, self.dim)
        return slice(*ch.indices(self.dim)[:2])

    @property
    def additive_noise(self):
        return isinstance(self.noise, np.ndarray)

    def noise_at(self, x):
        """Noise matrix for a state batch: (..., N, n_w)."""
        if self.additive_noise:
            return self.noise
        return self.noise(x)


# ---------------------------------------------------------------------------
# linear-quadratic benchmark and its Riccati oracle
# ---------------------------------------------------------------------------


class RiccatiBlowupError(RuntimeError):
    """Raised when the backward Riccati sweep leaves the trust region."""

    def __init__(self, time, value):
        super().__init__(
            f"riccati coefficient blew up at t={time:.6g} (|P|={value:.3g})"
        )
        self.time = time
        self.value = value


@dataclass(frozen=True)
class RiccatiOracle:
    """Scalar problem dX = (a X + alpha u) ds + sigma0 dW,
    cost q X^2 + r u^2 running and q_T X(T)^2 terminal."""

    a_lin: float
    alpha: float
    sigma0: float
    q_state: float
    r_control: float
    q_terminal: float
    horizon: float

    def __post_init__(self):
        if self.r_control <= 0:
            raise ValueError("control weight r must be positive")
        if self.q_state < 0 or self.q_terminal < 0:
            raise ValueError("state weights must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward sweep products on a grid, linearly interpolated in t.

    value(t, x)    = p(t) x^2 + offset(t)
    gradient(t, x) = 2 p(t) x
    feedback(t, x) = gain(t) x,  gain = -alpha p / r
    """

    t: np.ndarray
    p: np.ndarray
    offset: np.ndarray
    gain: np.ndarray

    def p_at(self, t):
        return np.interp(t, self.t, self.p)

    def offset_at(self, t):
        return np.interp(t, self.t, self.offset)

    def gain_at(self, t):
        return np.interp(t, self.t, self.gain)

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        if x.ndim and x.shape[-1] == 1:
            x = x[..., 0]
        return self.p_at(t) * x**2 + self.offset_at(t)

    def gradient(self, t, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.p_at(t) * x

    def feedback(self, t, x):
        x = np.asarray(x, dtype=float)
        return self.gain_at(t) * x


_P_TRUST = 1e8


def riccati_solve(oracle: RiccatiOracle, time_grid) -> RiccatiSolution:
    """Integrate the scalar Riccati equation backward from t = T.

    time_grid must be increasing and end at the horizon; the sweep runs on
    it in reverse with classical fourth-order steps, accumulating the noise
    offset sigma0^2 * integral of p alongside. Escapes of the quadratic flow
    past the trust region raise RiccatiBlowupError rather than returning inf.
    """
    t = np.asarray(time_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("time_grid must hold at least two points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time_grid must be strictly increasing")
    if abs(t[-1] - oracle.horizon) > 1e-12:
        raise ValueError("time_grid must end at the horizon")

    a, al, r, q = oracle.a_lin, oracle.alpha, oracle.r_control, oracle.q_state
    beta = al * al / r
    sig2 = oracle.sigma0**2

    def rhs(p):
        # dp/dtau for tau = T - t
        return 2.0 * a * p - beta * p * p + q

    n = len(t)
    p = np.empty(n)
    off = np.empty(n)
    p[n - 1] = oracle.q_terminal
    off[n - 1] = 0.0
    for i in range(n - 1, 0, -1):
        h = t[i] - t[i - 1]
        pi = p[i]
        k1 = rhs(pi)
        k2 = rhs(pi + 0.5 * h * k1)
        k3 = rhs(pi + 0.5 * h * k2)
        k4 = rhs(pi + h * k3)
        p_new = pi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(p_new) or abs(p_new) > _P_TRUST:
            raise RiccatiBlowupError(t[i - 1], abs(p_new) if np.isfinite(p_new) else np.inf)
        p[i - 1] = p_new
        off[i - 1] = off[i] + sig2 * 0.5 * h * (pi + p_new)
    gain = -(al / r) * p
    for arr in (t, p, off, gain):
        arr.setflags(write=False)
    return RiccatiSolution(t=t, p=p, offset=off, gain=gain)


def build_lq_benchmark(
    a_lin=0.5,
    alpha=1.0,
    sigma0=0.5,
    q_state=1.0,
    r_control=1.0,
    q_terminal=2.0,
    horizon=1.0,
    control_bound=None,
    name="lq_benchmark",
):
    """Scalar LQ instance plus its Riccati oracle.

    The generator is zero (the linear part a_lin*x sits in the drift so the
    stepping error is pure drift error, keeping the oracle comparison clean).
    control_bound, if given, boxes the control at +-control_bound; leave it
    None for the exact LQ setting.
    """
    space = SpaceSpec(dim=1, weights=np.ones(1))
    op = make_zero_operator(1)
    b_op = BOperatorSpec(matrix=np.eye(1), c0=1.0, mode="strong", space=space)
    oracle = RiccatiOracle(
        a_lin=a_lin,
        alpha=alpha,
        sigma0=sigma0,
        q_state=q_state,
        r_control=r_control,
        q_terminal=q_terminal,
        horizon=horizon,
    )

    def drift(x, a):
        return a_lin * x + alpha * a

    def terminal_cost(x):
        return q_terminal * x[..., 0] ** 2

    box = None if control_bound is None else (-control_bound, control_bound)
    cost = CostStructure(
        l1=lambda x: q_state * x[..., 0] ** 2,
        l2=lambda a: r_control * a[..., 0] ** 2,
        dl2=lambda a: 2.0 * r_control * a,
        dl2_inverse=lambda v: v / (2.0 * r_control),
        control_matrix=np.array([[alpha]]),
    )
    problem = ControlProblem(
        name=name,
        space=space,
        op=op,
        b_op=b_op,
        drift=drift,
        noise=np.array([[sigma0]]),
        noise_dim=1,
        terminal_cost=terminal_cost,
        control_spec=ControlSpec(dim=1, box=box),
        horizon=horizon,
        cost_structure=cost,
        drift_lipschitz=abs(a_lin),
    )
    return problem, oracle


# ---------------------------------------------------------------------------
# reaction-diffusion on an interval
# ---------------------------------------------------------------------------

def _softplus_dec(r):
    """-log(1 + e^r) in the stable form -(log1p(e^-|r|) + max(r, 0)), in one
    buffer. Negation is exact, so these are the bits of
    -log1p(exp(-|r|)) - max(r, 0)."""
    out = np.abs(r, out=np.empty(np.shape(r)))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(r, 0.0)
    return np.negative(out, out=out)


REACTIONS = {
    # slope of -log(1+e^r) is -e^r/(1+e^r), pinned to (-1, 0)
    "softplus_dec": ReactionSpec(fn=_softplus_dec, lipschitz=1.0,
                                 name="softplus_dec"),
    # np.positive, not the identity: fn must return a new array
    "linear": ReactionSpec(fn=np.positive, lipschitz=1.0, name="linear"),
    "tanh": ReactionSpec(fn=np.tanh, lipschitz=1.0, name="tanh"),
    "zero": ReactionSpec(fn=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                         lipschitz=0.0, name="zero"),
}

SCALAR_COSTS = {
    "quadratic": lambda r: r * r,
    "linear": lambda r: r,
    "abs_smooth": lambda r: np.sqrt(r * r + 1.0) - 1.0,
}


def _resolve_reaction(reaction, gain):
    if isinstance(reaction, str):
        try:
            base = REACTIONS[reaction]
        except KeyError:
            raise ValueError(f"unknown reaction '{reaction}'") from None
    elif isinstance(reaction, ReactionSpec):
        base = reaction
    else:
        raise TypeError(
            "reaction must be a registry name or a ReactionSpec carrying a "
            "slope bound; a bare callable has no bound to audit against"
        )
    if gain == 1.0:
        return base
    g = float(gain)
    fn = base.fn
    return ReactionSpec(fn=lambda r: g * fn(r), lipschitz=abs(g) * base.lipschitz,
                        name=f"{base.name}*{g:g}")


def _spot_check_slope(spec: ReactionSpec, lo=-8.0, hi=8.0, n=2001, slack=1.02):
    # finite-difference slopes on a fixed probe grid; catches bounds that are
    # simply wrong, not ones violated far outside the probe range
    r = np.linspace(lo, hi, n)
    v = np.asarray(spec.fn(r), dtype=float)
    slopes = np.abs(np.diff(v) / np.diff(r))
    worst = float(slopes.max())
    if worst > spec.lipschitz * slack + 1e-12:
        raise ValueError(
            f"reaction '{spec.name}' violates its declared slope bound: "
            f"measured {worst:.4g} > declared {spec.lipschitz:.4g}"
        )


def _resolve_scalar_cost(spec, coeff, what):
    if isinstance(spec, str):
        try:
            fn = SCALAR_COSTS[spec]
        except KeyError:
            raise ValueError(f"unknown {what} cost '{spec}'") from None
    elif callable(spec):
        fn = spec
    else:
        raise TypeError(f"{what} cost must be a registry name or callable")
    if coeff == 1.0:
        return fn
    c = float(coeff)
    return lambda r: c * fn(r)


def build_reaction_diffusion(
    n_grid=16,
    length=1.0,
    diffusivity=0.05,
    reaction="softplus_dec",
    reaction_gain=1.0,
    noise_modes=3,
    noise_amp=0.05,
    l1="quadratic",
    l1_coeff=1.0,
    g="quadratic",
    g_coeff=1.0,
    nu=0.5,
    control_bound=5.0,
    horizon=0.5,
    name="reaction_diffusion",
):
    """Semilinear heat equation with distributed control, drift f(x) - a.

    The reaction acts pointwise on the grid values, so it commutes with
    grid permutations conjugated through the (non-permutation-invariant)
    Laplacian only trivially; the invariance that is checked is of the
    pointwise map itself. Noise is additive along the first noise_modes
    sine profiles. l1 and g are scalar integrands applied pointwise and
    integrated with the grid weights; the control cost is nu * ||a||^2 in
    the same weighted norm, which keeps feedback synthesis closed-form.
    """
    spec = _resolve_reaction(reaction, reaction_gain)
    _spot_check_slope(spec)
    space = interval_space(n_grid, length)
    op = make_dirichlet_laplacian(n_grid, length, diffusivity)
    b_op = BOperatorSpec(matrix=np.eye(n_grid), c0=1.0, mode="strong", space=space)
    w = space.weights

    if noise_modes < 0 or noise_modes > n_grid:
        raise ValueError("noise_modes must lie in [0, n_grid]")
    xi = np.arange(1, n_grid + 1) * (length / (n_grid + 1))
    cols = []
    for k in range(1, noise_modes + 1):
        prof = np.sin(k * np.pi * xi / length)
        cols.append(prof / h_norm(space, prof))
    sigma = noise_amp * np.stack(cols, axis=1) if cols else np.zeros((n_grid, 0))

    l1_fn = _resolve_scalar_cost(l1, l1_coeff, "running state")
    g_fn = _resolve_scalar_cost(g, g_coeff, "terminal")
    fn = spec.fn

    def drift(x, a):
        b = fn(x)
        b -= a
        return b

    def terminal_cost(x):
        return np.einsum("...j,j->...", g_fn(x), w)

    box = None if control_bound is None else (-control_bound, control_bound)
    cost = CostStructure(
        l1=lambda x: np.einsum("...j,j->...", l1_fn(x), w),
        l2=lambda a: nu * np.einsum("...j,...j,j->...", a, a, w),
        dl2=lambda a: 2.0 * nu * a,
        dl2_inverse=lambda v: v / (2.0 * nu),
        control_matrix=-np.eye(n_grid),
    )
    problem = ControlProblem(
        name=name,
        space=space,
        op=op,
        b_op=b_op,
        drift=drift,
        noise=sigma,
        noise_dim=sigma.shape[1],
        terminal_cost=terminal_cost,
        control_spec=ControlSpec(dim=n_grid, box=box, weights=w),
        horizon=horizon,
        cost_structure=cost,
        drift_lipschitz=spec.lipschitz,
        reaction=spec,
    )
    return problem


# ---------------------------------------------------------------------------
# delay equation lifted to (present, past segment)
# ---------------------------------------------------------------------------


def default_delay_kernel(delay: float):
    """Smooth kernel with a zero endpoint: eta(xi) = e^xi - e^{-d}."""
    edge = math.exp(-delay)
    return lambda xi: np.exp(xi) - edge


def build_sdde_lift(
    delay=1.0,
    n_past=20,
    kernel=None,
    beta_y=-0.5,
    beta_z=0.8,
    c_nl=0.0,
    sigma0=0.3,
    nu=0.5,
    q0=1.0,
    q_terminal=1.0,
    control_bound=None,
    horizon=1.0,
    name="sdde_lift",
):
    """Scalar delay equation as a first-order system on R x L^2([-d, 0]).

    Present channel: dy = [beta_y y + beta_z z + c_nl tanh(y) - a] ds
    + sigma0 dW with z = integral of kernel * past segment. The transport
    of the past segment lives entirely in the generator; the drift returned
    here adds back the present value that the generator's stencil subtracts,
    so the present channel carries no artificial damping. Drift, noise and
    control act on the present value alone, so the problem's channel is
    slice(0, 1) and drift returns that row, with shape (..., 1); the engine
    adds drift and noise to it and leaves the past segment to the generator.

    The kernel must vanish at -d (within 1e-12 of its own scale); that
    endpoint condition is what makes the memory functional bounded by the
    weak norm, and it is enforced rather than assumed.
    """
    if n_past < 2:
        raise ValueError("need at least two past nodes")
    if kernel is None:
        kernel = default_delay_kernel(delay)
    h = delay / n_past
    nodes = -delay + h * np.arange(n_past)  # xi_1 = -d, ..., xi_n = -h
    kvals = np.asarray(kernel(nodes), dtype=float)
    scale = max(float(np.max(np.abs(kvals))), 1e-30)
    if abs(kvals[0]) > 1e-12 * scale:
        raise ValueError(
            f"delay kernel must vanish at -d (got {kvals[0]:.3g}); without "
            "that the memory term is not controlled by the weak norm"
        )

    space = delay_space(1, delay, n_past)
    op = make_delay_generator(1, delay, n_past)
    w = space.weights
    a_mat = op.matrix
    # weighted adjoint of the inverse: rows/cols rescaled transpose
    ainv = np.linalg.inv(a_mat)
    ainv_star = (ainv.T * w[None, :]) / w[:, None]
    b_mat = ainv_star @ ainv
    b_op = BOperatorSpec(matrix=b_mat, c0=0.0, mode="weak", space=space)

    kq = h * kvals  # quadrature weights for the memory integral
    dim = 1 + n_past

    def memory(x):
        return np.einsum("...j,j->...", x[..., 1:], kq)

    def drift(x, a):
        # the present row alone: the channel is slice(0, 1)
        y = x[..., 0]
        z = memory(x)
        # +y cancels the -y the stencil's present row contributes
        return (beta_y * y + beta_z * z + c_nl * np.tanh(y) - a[..., 0] + y)[..., None]

    sigma = np.zeros((dim, 1))
    sigma[0, 0] = sigma0

    def terminal_cost(x):
        return q_terminal * x[..., 0] ** 2

    box = None if control_bound is None else (-control_bound, control_bound)
    g_mat = np.zeros((dim, 1))
    g_mat[0, 0] = -1.0
    cost = CostStructure(
        l1=lambda x: q0 * x[..., 0] ** 2,
        l2=lambda a: nu * a[..., 0] ** 2,
        dl2=lambda a: 2.0 * nu * a,
        dl2_inverse=lambda v: v / (2.0 * nu),
        control_matrix=g_mat,
    )
    kernel_l2 = float(np.sqrt(np.sum(h * kvals * kvals)))
    lip = (abs(beta_y) + abs(c_nl)) + abs(beta_z) * kernel_l2
    problem = ControlProblem(
        name=name,
        space=space,
        op=op,
        b_op=b_op,
        drift=drift,
        noise=sigma,
        noise_dim=1,
        terminal_cost=terminal_cost,
        control_spec=ControlSpec(dim=1, box=box),
        horizon=horizon,
        cost_structure=cost,
        drift_lipschitz=lip,
        channel=slice(0, 1),
    )
    return problem
