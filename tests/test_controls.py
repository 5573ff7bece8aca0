"""Control signal types: materialization on a step grid, projections."""

import numpy as np
import pytest

from hjblab.controls import (
    ConstantSignal,
    PiecewiseConstantSignal,
    clip_box,
    control_norm,
    project_ball,
    zero_signal,
)


def test_constant_signal_everywhere():
    sig = ConstantSignal(np.array([1.0, -2.0]))
    vals = sig.values_on(np.linspace(0, 1, 5))
    np.testing.assert_array_equal(vals, np.tile([1.0, -2.0], (5, 1)))


def test_piecewise_right_continuity_and_end_clamp():
    sig = PiecewiseConstantSignal(np.array([0.0, 0.25, 1.0]),
                                  np.array([[1.0], [2.0]]))
    # right-continuous at the knot 0.25, clamped past the last knot
    vals = sig.values_on(np.array([0.0, 0.24, 0.25, 0.999, 1.5]))
    np.testing.assert_array_equal(vals[:, 0], [1.0, 1.0, 2.0, 2.0, 2.0])


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseConstantSignal(np.array([0.0, 0.0, 1.0]), np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        PiecewiseConstantSignal(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))


def test_zero_signal():
    z = zero_signal(3)
    np.testing.assert_array_equal(z.values_on([0.0, 0.5]), np.zeros((2, 3)))


def test_clip_box_and_none():
    v = np.array([[2.0, -3.0]])
    np.testing.assert_array_equal(clip_box(v, None), v)
    np.testing.assert_array_equal(clip_box(v, (-1.0, 1.0)), [[1.0, -1.0]])


def test_project_ball_weighted():
    w = np.array([0.5, 0.5])
    v = np.array([3.0, 4.0])  # weighted norm sqrt(0.5*(9+16)) = sqrt(12.5)
    proj = project_ball(v, 1.0, w)
    assert abs(control_norm(proj, w) - 1.0) < 1e-12
    # direction preserved
    np.testing.assert_allclose(proj / np.linalg.norm(proj), v / np.linalg.norm(v))
    inside = np.array([0.1, 0.1])
    np.testing.assert_array_equal(project_ball(inside, 1.0, w), inside)
    with pytest.raises(ValueError):
        project_ball(v, 0.0, w)


def test_control_norm_default_weights():
    assert control_norm(np.array([3.0, 4.0])) == 5.0
