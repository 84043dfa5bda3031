import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerdeck import (ExpDegenerate, Linear, Piecewise, Power, SqrtOdd,
                        berger_coefficient, build_grid, build_weights,
                        damping_mask, eval_feedback, feedback_from_name,
                        feedback_name, make_model, stretch_integral)
from bergerdeck.errors import ParameterError, ShapeError, SizingError

ALL_KINDS = [Linear(), SqrtOdd(), Power(0.5), Power(3.0), Piecewise(),
             ExpDegenerate()]


# --- feedback catalog -------------------------------------------------------

def test_piecewise_values():
    kind = Piecewise()
    assert eval_feedback(kind, 2.0) == 4.0
    assert eval_feedback(kind, -2.0) == -8.0


@pytest.mark.parametrize("kind", ALL_KINDS, ids=feedback_name)
def test_zero_maps_to_zero(kind):
    assert eval_feedback(kind, 0.0) == 0.0


def test_sqrt_odd_extension():
    assert eval_feedback(SqrtOdd(), -0.25) == pytest.approx(-0.5, rel=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=feedback_name)
def test_monotone_on_sample(kind):
    s = np.linspace(-10.0, 10.0, 1001)
    g = eval_feedback(kind, s)
    assert np.all(np.diff(g) >= 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=feedback_name)
def test_sign_condition_on_sample(kind):
    s = np.linspace(-10.0, 10.0, 1001)
    g = eval_feedback(kind, s)
    prod = g * s
    assert np.all(prod >= 0.0)
    if isinstance(kind, ExpDegenerate):
        # exp(-1/s^2) underflows float64 below |s| ~ 0.037; zeros there are
        # a representation limit, not a sign violation
        assert np.all(prod[np.abs(s) >= 0.05] > 0.0)
        assert prod[s == 0.0] == 0.0
    else:
        assert np.count_nonzero(prod == 0.0) == 1  # only s = 0


@settings(max_examples=50, deadline=None)
@given(s=st.floats(min_value=1e-3, max_value=1e3))
def test_odd_symmetry_of_odd_kinds(s):
    for kind in (Linear(), SqrtOdd(), Power(0.5), Power(3.0), ExpDegenerate()):
        assert eval_feedback(kind, -s) == -eval_feedback(kind, s)


def test_classify_linear():
    kind = Linear()
    assert (kind.order_at_origin, kind.order_at_infinity) == (1.0, 1.0)


def test_classify_power_half():
    kind = Power(0.5)
    assert (kind.order_at_origin, kind.order_at_infinity) == (0.5, 0.5)


def test_classify_piecewise_with_slope_oracle():
    kind = Piecewise()
    assert (kind.order_at_origin, kind.order_at_infinity) == (3.0, 3.0)

    def loglog_slope(samples):
        g = eval_feedback(kind, samples)
        y = np.log(np.abs(g * samples))
        x = np.log(np.abs(samples))
        slope = np.polyfit(x, y, 1)[0]
        return slope

    # slope of log(g(s) s) vs log|s| is r + 1 on each branch
    for window in (np.linspace(1e-4, 1e-2, 50), np.linspace(1e2, 1e4, 50)):
        assert loglog_slope(window) == pytest.approx(3.0, abs=0.05)      # right
        assert loglog_slope(-window) == pytest.approx(4.0, abs=0.05)     # left


def test_feedback_names_round_trip():
    for kind in ALL_KINDS:
        assert feedback_from_name(feedback_name(kind)) == kind
    with pytest.raises(ParameterError, match="unknown feedback"):
        feedback_from_name("cubic")


# --- damping collar -----------------------------------------------------------

def test_zero_width_collar():
    grid = build_grid(10, 10, 1.0)
    field = damping_mask(grid, 0)
    assert np.all(field.a == 0.0)


def test_collar_membership():
    grid = build_grid(10, 10, 1.0)
    field = damping_mask(grid, 2)
    a = field.a.reshape(grid.shape)
    assert a[5, 0] == 1.0   # j = 1 is one cell from the hinged edge
    assert a[5, 4] == 0.0   # j = 5, k = 5 is interior
    assert a[0, 4] == 1.0   # the free-edge level itself
    assert a[1, 4] == 1.0
    assert a[2, 4] == 0.0


def test_collar_width_five_matches_strips(preset_grid):
    field = damping_mask(preset_grid, 5)
    a = field.a.reshape(preset_grid.shape)
    x = preset_grid.x_interior()
    in_x_strip = (x < 5 * preset_grid.dx) | (x > math.pi - 5 * preset_grid.dx)
    np.testing.assert_array_equal(a[50], in_x_strip.astype(float))


def test_collar_width_bound():
    grid = build_grid(10, 10, 1.0)
    with pytest.raises(SizingError, match="width"):
        damping_mask(grid, 5)
    with pytest.raises(SizingError, match="width"):
        damping_mask(grid, -1)


# --- stretching coefficient ----------------------------------------------------

def test_phi_zero_field(tiny_grid, tiny_weights):
    U = np.zeros(tiny_grid.n_dof)
    assert berger_coefficient(U, tiny_weights, P=0.7, S=1.0) == -0.7


def test_phi_experiment_constants(tiny_grid, tiny_weights):
    U = np.zeros(tiny_grid.n_dof)
    assert berger_coefficient(U, tiny_weights, P=1e-3, S=1e-5) == -1e-3


def test_stretch_integral_of_sine(preset_grid):
    w = build_weights(preset_grid)
    X, _ = preset_grid.meshgrid()
    U = np.sin(X).ravel()
    q = stretch_integral(U, w)
    area = math.pi * preset_grid.l
    # centered differencing scales the true integral by (sin dx / dx)^2
    assert abs(q - area) <= area * preset_grid.dx ** 2 / 2
    dx = preset_grid.dx
    # full truncation model: difference factor plus the folded end weights
    expected = (math.sin(dx) / dx) ** 2 \
        * (math.pi / 2 - (2 * dx / 3) * math.sin(dx) ** 2) * (math.pi / 2)
    assert q == pytest.approx(expected, rel=1e-8)
    # the nonlocal coefficient at the experiment constants
    phi = berger_coefficient(U, w, P=1e-3, S=1e-5)
    assert phi == pytest.approx(-1e-3 + 1e-5 * math.pi ** 2 / 4, abs=1e-4)


def test_phi_reflection_invariance(tiny_grid, tiny_weights):
    rng = np.random.default_rng(7)
    U = rng.normal(size=tiny_grid.n_dof)
    reflected = U.reshape(tiny_grid.shape)[::-1].ravel()
    q1 = stretch_integral(U, tiny_weights)
    q2 = stretch_integral(reflected, tiny_weights)
    assert q1 == q2  # exact, by order-independent level summation


def test_phi_shape_error(tiny_weights):
    with pytest.raises(ShapeError, match="length"):
        berger_coefficient(np.zeros(7), tiny_weights, 0.0, 0.0)


# --- model construction -----------------------------------------------------------

def test_make_model_validates():
    with pytest.raises(ParameterError, match="S"):
        make_model(P=0.0, S=-1.0, feedback=Linear())
    model = make_model(P=1e-3, S=1e-5, feedback=SqrtOdd())
    assert (model.P, model.S, model.feedback) == (1e-3, 1e-5, SqrtOdd())
