import math

import numpy as np
import pytest

from bergerdeck import (analytic_oracle, build_grid, build_operators,
                        build_weights, sin_load, solve_static)
from bergerdeck.errors import ShapeError
from oracles import biharmonic, edge_residuals, observed_orders

C, M, L, SIGMA = 50.0, 2, math.pi / 4, 0.2


@pytest.fixture(scope="module")
def oracle():
    return analytic_oracle(C, M, L, SIGMA)


# --- the closed form itself, before any grid is involved ---------------------

def test_oracle_edge_residuals(oracle):
    x = np.linspace(0.0, math.pi, 101)
    for y in (L, -L):
        r1, r2 = edge_residuals(oracle, x, y)
        assert np.max(np.abs(r1)) <= 1e-10
        assert np.max(np.abs(r2)) <= 1e-10


def test_oracle_solves_the_bending_equation(oracle):
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, math.pi, 500)
    y = rng.uniform(-L, L, 500)
    residual = biharmonic(oracle, x, y) - C * np.sin(M * x)
    assert np.max(np.abs(residual)) <= 1e-9


def test_oracle_hinged_ends_exact(oracle):
    y = np.linspace(-L, L, 11)
    assert np.all(oracle(0.0, y) == 0.0)
    np.testing.assert_allclose(oracle(math.pi, y), 0.0, atol=1e-12)


def test_oracle_even_in_y(oracle):
    y = np.linspace(0.0, L, 20)
    np.testing.assert_allclose(oracle(1.0, y), oracle(1.0, -y), rtol=1e-14)


# --- the discrete solver ------------------------------------------------------

def test_zero_load_gives_zero(tiny_grid):
    u = solve_static(np.zeros(tiny_grid.n_dof), build_operators(tiny_grid, 0.2, 0))
    np.testing.assert_allclose(u, 0.0, atol=1e-14)


def test_linearity(tiny_grid):
    f = sin_load(tiny_grid, C, M)
    ops = build_operators(tiny_grid, SIGMA, 0)
    u1 = solve_static(f, ops)
    u2 = solve_static(3.7 * f, ops)
    np.testing.assert_allclose(u2, 3.7 * u1, rtol=1e-10, atol=1e-13)


def test_shape_error(tiny_grid):
    with pytest.raises(ShapeError, match="length"):
        solve_static(np.zeros(7), build_operators(tiny_grid, SIGMA, 0))


def test_solution_even_in_y():
    grid = build_grid(75, 49, L)
    ops = build_operators(grid, SIGMA, 0)
    u = solve_static(sin_load(grid, C, M), ops).reshape(grid.shape)
    np.testing.assert_allclose(u, u[::-1], atol=1e-9)


def _l2_error(J, K, oracle):
    grid = build_grid(J, K, L)
    weights = build_weights(grid)
    u = solve_static(sin_load(grid, C, M), build_operators(grid, SIGMA, 0))
    diff = u - oracle.sample(grid)
    return math.sqrt(weights.integrate_cells(diff * diff))


def test_refinement_order(oracle):
    errors = [_l2_error(J, K, oracle) for J, K in [(37, 24), (75, 49), (151, 99)]]
    for order in observed_orders(errors):
        assert 1.7 <= order <= 2.3
