"""Open-loop control signals and per-path replay traces.

A signal is deterministic: signal_values materializes it as a control
vector at each step's left endpoint. Traces replay recorded per-path
controls on a fixed grid, which is how closed-loop runs are re-simulated as
(adapted) open-loop controls. Feedback policies are a separate type
(synthesis module); the engine dispatches on the presence of a .feedback
attribute.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstantSignal",
    "PiecewiseConstantSignal",
    "TraceSignal",
    "zero_signal",
    "signal_values",
    "clip_box",
    "project_ball",
    "control_norm",
]


@dataclass(frozen=True)
class ConstantSignal:
    value: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.value, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "value", v)

    @property
    def dim(self):
        return self.value.shape[0]

    def values_on(self, step_times):
        return np.broadcast_to(self.value, (len(step_times), self.dim)).copy()


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Right-continuous step function: value[j] on [knots[j], knots[j+1])."""

    knots: np.ndarray   # (K+1,) increasing, covers the horizon
    values: np.ndarray  # (K, q)

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if k.ndim != 1 or len(k) != v.shape[0] + 1:
            raise ValueError("need len(knots) == len(values) + 1")
        if np.any(np.diff(k) <= 0):
            raise ValueError("knots must be strictly increasing")
        k.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    @property
    def dim(self):
        return self.values.shape[1]

    def values_on(self, step_times):
        idx = np.clip(np.searchsorted(self.knots, step_times, side="right") - 1,
                      0, self.values.shape[0] - 1)
        return self.values[idx]


@dataclass(frozen=True)
class TraceSignal:
    """Recorded controls on a simulation grid.

    values has shape (M, q) for one shared trace or (P, M, q) for per-path
    traces; per-path traces replay only against the same grid and path
    count they were recorded with.
    """

    step_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.step_times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (2, 3) or v.shape[-2] != len(t):
            raise ValueError("values must be (M, q) or (P, M, q) matching step_times")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "step_times", t)
        object.__setattr__(self, "values", v)

    @property
    def dim(self):
        return self.values.shape[-1]


def zero_signal(dim: int) -> ConstantSignal:
    return ConstantSignal(np.zeros(dim))


def signal_values(signal, step_times) -> np.ndarray:
    """Materialize a signal on step left-endpoints: (M, q) or (P, M, q)."""
    if isinstance(signal, TraceSignal):
        if len(signal.step_times) != len(step_times) or not np.allclose(
            signal.step_times, step_times, atol=1e-12
        ):
            raise ValueError("trace grid does not match requested step times")
        return signal.values
    return signal.values_on(np.asarray(step_times, dtype=float))


def clip_box(values, box):
    """Clip control values into the per-coordinate box (lo, hi); box may be None."""
    if box is None:
        return np.asarray(values, dtype=float)
    lo, hi = box
    return np.clip(values, lo, hi)


def project_ball(values, m: float, weights=None):
    """Scale control values into the (weighted) norm ball of radius m."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(m) or m <= 0:
        raise ValueError("truncation radius m must be positive and finite")
    norms = control_norm(v, weights)[..., None]
    factor = np.where(norms > m, m / np.maximum(norms, 1e-300), 1.0)
    return v * factor


def control_norm(values, weights=None):
    v = np.asarray(values, dtype=float)
    w = np.ones(v.shape[-1]) if weights is None else np.asarray(weights, dtype=float)
    return np.sqrt(np.sum(w * v * v, axis=-1))
