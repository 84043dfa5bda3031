import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerdeck import build_grid, build_weights
from bergerdeck.errors import ParityError, SizingError
from oracles import integrate_x, simpson_x_weights, x_all


def test_preset_grid_spacings():
    grid = build_grid(149, 99, math.pi / 4)
    assert grid.dx == pytest.approx(math.pi / 150, rel=1e-15)
    assert grid.dy == pytest.approx((math.pi / 4) / 50, rel=1e-15)
    assert grid.n_dof == 149 * 101 == 15049


def test_tiny_grid_arithmetic():
    grid = build_grid(5, 3, 1.0)
    assert grid.dx == pytest.approx(math.pi / 6, rel=1e-15)
    assert grid.dy == pytest.approx(0.5, rel=1e-15)
    assert grid.n_dof == 25


def test_spacing_identities():
    for J, K, l in [(5, 3, 1.0), (149, 99, math.pi / 4), (75, 49, 0.3)]:
        grid = build_grid(J, K, l)
        assert grid.dx * (J + 1) == pytest.approx(math.pi, rel=1e-12)
        assert grid.dy * (K + 1) == pytest.approx(2 * l, rel=1e-12)


def test_flatten_endpoints():
    grid = build_grid(7, 4, 0.5)
    assert grid.flatten(1, 0) == 0
    assert grid.flatten(grid.J, grid.K + 1) == grid.n_dof - 1


@settings(max_examples=25, deadline=None)
@given(J=st.integers(min_value=5, max_value=30),
       K=st.integers(min_value=3, max_value=20))
def test_flatten_is_a_bijection(J, K):
    grid = build_grid(J, K, 1.0)
    seen = {grid.flatten(j, k) for k in range(K + 2) for j in range(1, J + 1)}
    assert seen == set(range(grid.n_dof))


@pytest.mark.parametrize("J,K,l,message", [
    (4, 3, 1.0, "J"),
    (5, 2, 1.0, "K"),
    (5, 3, 0.0, "l"),
    (5, 3, -1.0, "l"),
])
def test_sizing_errors_name_the_bound(J, K, l, message):
    with pytest.raises(SizingError, match=message):
        build_grid(J, K, l)


def test_weight_sums(tiny_grid):
    w = build_weights(tiny_grid)
    assert np.sum(simpson_x_weights(tiny_grid)) == pytest.approx(math.pi, rel=1e-12)
    assert np.sum(w.wy) == pytest.approx(2.0, rel=1e-12)


def test_simpson_parity_rejected():
    grid = build_grid(6, 3, 1.0)  # J + 1 = 7 sub-intervals
    with pytest.raises(ParityError, match="even"):
        build_weights(grid)


def test_cos_squared_integral():
    grid = build_grid(149, 99, math.pi / 4)
    value = integrate_x(grid, np.cos(x_all(grid)) ** 2)
    assert value == pytest.approx(math.pi / 2, abs=1e-8)


def test_simpson_exact_on_cubics():
    grid = build_grid(9, 3, 1.0)
    x = x_all(grid)
    value = integrate_x(grid, x ** 3 - 2.0 * x ** 2 + x)
    exact = math.pi ** 4 / 4 - 2.0 * math.pi ** 3 / 3 + math.pi ** 2 / 2
    assert value == pytest.approx(exact, rel=1e-10)


def test_cell_weights_sum_to_area():
    for J, K, l in [(5, 3, 1.0), (149, 99, math.pi / 4)]:
        grid = build_grid(J, K, l)
        w = build_weights(grid)
        area = w.integrate_cells(np.ones(grid.n_dof))
        assert area == pytest.approx(2 * math.pi * l, abs=1e-10)
