"""Test fakes that stand in for the package's Monte Carlo layers."""

import numpy as np


def make_exact_evaluator(fn):
    """Wrap a closed-form value function as a zero-noise evaluator: it keeps
    the (t, xs (K, N), seed) -> samples (K, P) contract with one sample per
    point."""
    def evaluator(t, xs, seed):
        return np.array([[float(fn(t, x))] for x in np.asarray(xs, dtype=float)])
    return evaluator
