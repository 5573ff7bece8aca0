"""Weighted discrete spaces, unbounded-operator surrogates, and B-norms.

States live in R^N equipped with a weighted inner product

    <x, y> = sum_i w_i x_i y_i

standing in for an L^2 or product-space pairing. Linear parts of the
dynamics are dense matrices A whose semigroup e^{dt A} is computed once per
(operator, dt) pair and cached.

Shipped operator constructions:

* Dirichlet Laplacian, second-order finite differences on (0, L) with
  n_grid interior points, h = L / (n_grid + 1). Eigenvalues are
  -(4 k / h^2) sin^2(j pi / (2 (n+1))).

* Delay-line generator on R^n x L^2([-d, 0]; R^n) with upwind transport on
  the past block and boundary inflow from the present channel. For n = 1,
  d = 1, n_past = 2 (h = 1/2, past nodes at -1 and -1/2) the matrix is

        [ -1   0   0 ]      present row:  -x0
        [  0  -2   2 ]      node -1:      (x(-1/2) - x(-1)) / h
        [  2   0  -2 ]      node -1/2:    (x0 - x(-1/2)) / h

  The inflow sits at xi = 0 where the continuity constraint ties the past
  trace to the present channel; transport moves values from the boundary
  toward -d, so the forward difference is the upwind choice and the
  discrete operator stays dissipative.

An operator pair (A, B) with scalar c0 encodes a quadratic-form condition
used by the regularity audits in weak form (-A*B + c0 B >= 0) or strong
form (-A*B + c0 B >= I), with adjoints taken in the weighted inner product.
B also defines the weak norm ||x||_B = sqrt(<Bx, x>). For the delay space,
B = (A^{-1})* A^{-1} gives ||x||_B = ||A^{-1} x||.

Only B = I is shipped for the Laplacian problems (with c0 = 1; -A is
positive semidefinite so the strong form holds). Constructing B for general
non-self-adjoint elliptic operators is out of scope.
"""

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .report import DiagnosticReport, PASS, FAIL
from .seeds import stream

__all__ = [
    "SpaceSpec",
    "DiscreteOperator",
    "BOperatorSpec",
    "interval_space",
    "delay_space",
    "make_dirichlet_laplacian",
    "make_delay_generator",
    "make_zero_operator",
    "make_custom_operator",
    "semigroup_matrix",
    "semigroup_apply",
    "h_inner",
    "h_norm",
    "b_norm",
    "space_norm",
    "check_b_condition",
    "check_positivity_preserving",
]

OPERATOR_KINDS = ("dirichlet_laplacian_fd", "delay_generator", "zero", "custom")
B_MODES = ("strong", "weak")


def _frozen_array(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpaceSpec:
    """Weighted R^dim; the block a problem's dynamics act on is its channel."""

    dim: int
    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.shape != (self.dim,):
            raise ValueError(f"weights shape {w.shape} != ({self.dim},)")
        if not np.all(w > 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Dense matrix surrogate for the unbounded linear part A.

    Immutable after construction; the semigroup cache keys on object
    identity, so reuse one instance per operator rather than rebuilding.
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"kind must be one of {OPERATOR_KINDS}, got {self.kind!r}")
        m = _frozen_array(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class BOperatorSpec:
    """Symmetric positive-definite form operator B with constant c0.

    Self-adjointness is with respect to the space inner product: the Gram
    matrix W @ B must be symmetric. For unit weights this is plain matrix
    symmetry.
    """

    matrix: np.ndarray
    c0: float
    mode: str
    space: SpaceSpec = None

    def __post_init__(self):
        if self.mode not in B_MODES:
            raise ValueError(f"mode must be one of {B_MODES}, got {self.mode!r}")
        m = _frozen_array(self.matrix)
        object.__setattr__(self, "matrix", m)
        if self.space is None:
            object.__setattr__(
                self, "space", SpaceSpec(m.shape[0], np.ones(m.shape[0]))
            )
        gram = self.space.weights[:, None] * m
        scale = max(np.abs(gram).max(), 1e-300)
        if np.abs(gram - gram.T).max() > 1e-12 * scale:
            raise ValueError("B is not self-adjoint in the space inner product")
        sym = 0.5 * (gram + gram.T)
        if np.linalg.eigvalsh(sym).min() <= 0:
            raise ValueError("B form is not positive definite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def interval_space(n_grid: int, length: float) -> SpaceSpec:
    """L^2(0, length) surrogate: n_grid interior nodes, uniform weights h."""
    h = float(length) / (n_grid + 1)
    return SpaceSpec(n_grid, np.full(n_grid, h))


def make_dirichlet_laplacian(n_grid: int, length: float, diffusivity: float = 1.0) -> DiscreteOperator:
    if n_grid < 1:
        raise ValueError("n_grid must be >= 1")
    if length <= 0 or diffusivity <= 0:
        raise ValueError("length and diffusivity must be positive")
    h = float(length) / (n_grid + 1)
    c = diffusivity / h**2
    m = np.zeros((n_grid, n_grid))
    np.fill_diagonal(m, -2.0 * c)
    idx = np.arange(n_grid - 1)
    m[idx, idx + 1] = c
    m[idx + 1, idx] = c
    return DiscreteOperator(m, kind="dirichlet_laplacian_fd")


def delay_space(n: int, delay: float, n_past: int) -> SpaceSpec:
    """R^n x L^2([-delay, 0]; R^n) surrogate.

    Present block first (weight 1 per component), then n_past nodes at
    xi_j = -delay + (j-1) h, h = delay / n_past, weight h per entry.
    """
    h = float(delay) / n_past
    weights = np.concatenate([np.ones(n), np.full(n * n_past, h)])
    return SpaceSpec(n * (1 + n_past), weights)


def make_delay_generator(n: int, delay: float, n_past: int) -> DiscreteOperator:
    """Generator of the delay semigroup: decay on the present channel,
    upwind transport on the past block, boundary inflow x1(0) = x0."""
    if n < 1 or n_past < 1:
        raise ValueError("n and n_past must be >= 1")
    if delay <= 0:
        raise ValueError("delay must be positive")
    h = float(delay) / n_past
    stencil = np.zeros((1 + n_past, 1 + n_past))
    stencil[0, 0] = -1.0
    for j in range(1, n_past):
        stencil[j, j] = -1.0 / h
        stencil[j, j + 1] = 1.0 / h
    stencil[n_past, n_past] = -1.0 / h
    stencil[n_past, 0] = 1.0 / h
    m = stencil if n == 1 else np.kron(stencil, np.eye(n))
    return DiscreteOperator(m, kind="delay_generator")


def make_zero_operator(dim: int) -> DiscreteOperator:
    return DiscreteOperator(np.zeros((dim, dim)), kind="zero")


def make_custom_operator(matrix) -> DiscreteOperator:
    """Operator from a given matrix: kept public to build user-defined generators."""
    return DiscreteOperator(np.asarray(matrix, dtype=float), kind="custom")


# operator -> {dt -> exp(dt A)}
_SEMIGROUP_CACHE = weakref.WeakKeyDictionary()


def semigroup_matrix(op: DiscreteOperator, dt: float) -> np.ndarray:
    """exp(dt * A), scaling-and-squaring, cached per (operator, dt)."""
    if dt < 0:
        raise ValueError("semigroup requires dt >= 0")
    per_op = _SEMIGROUP_CACHE.get(op)
    if per_op is None:
        per_op = {}
        _SEMIGROUP_CACHE[op] = per_op
    key = float(dt)
    cached = per_op.get(key)
    if cached is not None:
        return cached
    if dt == 0.0 or op.kind == "zero":
        mat = np.eye(op.dim)
    else:
        mat = scipy.linalg.expm(dt * op.matrix)
    mat.setflags(write=False)
    per_op[key] = mat
    return mat


def semigroup_apply(op: DiscreteOperator, dt: float, x) -> np.ndarray:
    """Apply exp(dt A) to a state or a batch of states (last axis = dim)."""
    x = np.asarray(x, dtype=float)
    if dt == 0.0 or op.kind == "zero":
        return x.copy()
    return x @ semigroup_matrix(op, dt).T


def h_inner(space: SpaceSpec, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sum(space.weights * x * y, axis=-1)


def h_norm(space: SpaceSpec, x) -> np.ndarray:
    return np.sqrt(np.maximum(h_inner(space, x, x), 0.0))


def b_norm(b: BOperatorSpec, x) -> np.ndarray:
    """sqrt(<Bx, x>) in the space inner product, batched over leading axes."""
    x = np.asarray(x, dtype=float)
    bx = x @ b.matrix.T
    val = np.sum(b.space.weights * bx * x, axis=-1)
    return np.sqrt(np.maximum(val, 0.0))


def space_norm(space: SpaceSpec, b: BOperatorSpec | None, tag: str):
    """Norm function for tag "H" or "minus1" (the weak norm). Returns a callable."""
    if tag == "H":
        return lambda x: h_norm(space, x)
    if tag == "minus1":
        if b is None:
            raise ValueError("norm tag 'minus1' needs a BOperatorSpec")
        return lambda x: b_norm(b, x)
    raise ValueError(f"unknown norm tag {tag!r}")


def check_b_condition(op: DiscreteOperator, b: BOperatorSpec) -> DiagnosticReport:
    """Audit -A*B + c0 B >= 0 (weak) or >= I (strong) as quadratic forms.

    The reported constant is the smallest eigenvalue of the symmetrized form
    relative to the weight matrix; pass iff it is >= -1e-8.
    """
    tol = 1e-8
    if op.dim != b.dim:
        raise ValueError("operator and B dimensions differ")
    w = b.space.weights
    gram_w = np.diag(w)
    # <(-A*B + c0 B) x, x>_W  has form matrix  -A^T W B + c0 W B  (symmetrized)
    form = -op.matrix.T @ (w[:, None] * b.matrix) + b.c0 * (w[:, None] * b.matrix)
    if b.mode == "strong":
        form = form - gram_w
    sym = 0.5 * (form + form.T)
    eigs = scipy.linalg.eigh(sym, gram_w, eigvals_only=True)
    lam_min = float(eigs[0])
    verdict = PASS if lam_min >= -tol else FAIL
    return DiagnosticReport(
        name=f"b_condition_{b.mode}",
        verdict=verdict,
        samples_used=0,
        constants={"min_eigenvalue": lam_min, "c0": float(b.c0)},
        witness=None,
        tolerance=tol,
        notes=f"operator kind {op.kind}, dim {op.dim}",
    )


def check_positivity_preserving(op: DiscreteOperator, dts,
                                n_samples: int = 100, seed: int = 0
                                ) -> DiagnosticReport:
    """Check that exp(dt A) maps nonnegative vectors to nonnegative vectors
    for every dt in dts, down to -1e-10 times each sample's largest entry."""
    tol = 1e-10
    rng = stream(seed, "positivity")
    worst = {"value": np.inf}
    for dt in dts:
        samples = rng.random((n_samples, op.dim))  # entries in [0, 1)
        out = semigroup_apply(op, float(dt), samples)
        floor = -tol * np.maximum(samples.max(axis=1), 1e-30)
        mins = out.min(axis=1)
        k = int(np.argmin(mins - floor))
        if mins[k] - floor[k] < worst["value"]:
            worst = {
                "value": float(mins[k] - floor[k]),
                "dt": float(dt),
                "sample_index": k,
                "min_entry": float(mins[k]),
                "seed": seed,
            }
    verdict = PASS if worst["value"] >= 0.0 else FAIL
    margin = worst.pop("value")
    return DiagnosticReport(
        name="positivity_preserving",
        verdict=verdict,
        samples_used=n_samples * len(list(dts)),
        constants={"worst_margin": margin},
        witness=worst,
        tolerance=tol,
        notes=f"operator kind {op.kind}",
    )
