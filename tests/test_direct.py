import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerdeck import build_grid, build_operators, sin_load, solve_static
from bergerdeck._direct import ModalSolver, refine_solve
from bergerdeck.errors import SolveError
from bergerdeck.integrator import FactorizedSystem
from bergerdeck.operators import modal_blocks

RTOL = 1e-10


@pytest.fixture(scope="module")
def system():
    grid = build_grid(21, 11, 0.5)
    ops = build_operators(grid, 0.2, 0)
    matrix = sp.csc_matrix(sp.identity(grid.n_dof) + 0.5e-4 * ops.bilaplacian)
    rhs = np.random.default_rng(7).normal(size=grid.n_dof)
    return matrix, spla.splu(matrix), rhs


def test_residual_meets_contract(system):
    matrix, lu, rhs = system
    x, residual = refine_solve(lu, matrix, rhs, RTOL)
    assert residual <= RTOL
    assert residual == np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)


class _CountingLU:
    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


@pytest.mark.parametrize("delta, rescued", [(1e-6, True), (1e-3, False)])
def test_one_correction_sweep(system, delta, rescued):
    matrix, _, rhs = system
    # factors of (1 + delta) M: residual delta/(1 + delta), then its square
    lu = _CountingLU(spla.splu(sp.csc_matrix((1.0 + delta) * matrix)))
    if rescued:
        _, residual = refine_solve(lu, matrix, rhs, RTOL)
        assert residual <= RTOL
    else:
        with pytest.raises(SolveError) as err:
            refine_solve(lu, matrix, rhs, RTOL)
        assert err.value.residual == pytest.approx((delta / (1.0 + delta)) ** 2, rel=1e-6)
    assert lu.solves == 2


def test_missed_contract_raises_with_residual(system):
    matrix, lu, rhs = system
    # the factors of M checked against 2M: the first solve leaves residual 1
    # and the correction sweep drives x to 0, residual 1 again
    with pytest.raises(SolveError, match="exceeds") as err:
        refine_solve(lu, 2.0 * matrix, rhs, RTOL)
    assert err.value.residual == pytest.approx(1.0, rel=1e-9)


def test_backward_scale_residual_at_most_plain():
    grid = build_grid(99, 49, 0.5)
    A = build_operators(grid, 0.2, 0).bilaplacian
    lu = spla.splu(sp.csc_matrix(A))
    f = sin_load(grid, 50.0, 2)
    _, plain = refine_solve(lu, A, f, 1.0)
    _, scaled = refine_solve(lu, A, f, 1.0, backward_scale=True)
    assert scaled <= plain
    assert scaled <= RTOL


# --- modal solves against sparse LU ------------------------------------------
# Two backward-stable solves of M x = b differ by up to about eps cond(M);
# on the presets' half-width cond(B) passes 1e6 near K = 21, so the
# comparison with LU stops at K = 15.

plates = dict(J=st.integers(min_value=2, max_value=15).map(lambda h: 2 * h + 1),
              K=st.integers(min_value=1, max_value=7).map(lambda h: 2 * h + 1),
              sigma=st.floats(min_value=1e-3, max_value=0.499),
              dt=st.floats(min_value=1e-3, max_value=1.0),
              seed=st.integers(min_value=0, max_value=2 ** 32 - 1))


def _plate(J, K, sigma, seed):
    grid = build_grid(J, K, math.pi / 4)
    rhs = np.random.default_rng(seed).normal(size=grid.n_dof)
    return grid, build_operators(grid, sigma, 0), rhs


def _gap(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


@settings(max_examples=30, deadline=None)
@given(**plates)
def test_modal_solve_matches_splu(J, K, sigma, dt, seed):
    grid, ops, rhs = _plate(J, K, sigma, seed)
    stepper = FactorizedSystem(ops, dt)
    lu = spla.splu(sp.csc_matrix(stepper.matrix))
    assert _gap(stepper.solve(rhs), lu.solve(rhs)) <= 1e-10
    static_lu = spla.splu(sp.csc_matrix(ops.bilaplacian))
    assert _gap(solve_static(rhs, ops),
                static_lu.solve(rhs)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(**plates)
def test_modal_solve_meets_contract(J, K, sigma, dt, seed):
    grid, ops, rhs = _plate(J, K, sigma, seed)
    B = ops.bilaplacian
    M = sp.identity(grid.n_dof, format="csr") + (dt * dt / 2.0) * B
    blocks = (dt * dt / 2.0) * modal_blocks(grid, sigma) + np.eye(K + 2)
    _, residual = refine_solve(ModalSolver(blocks), M, rhs, RTOL)
    assert residual <= RTOL
    solver = ModalSolver(modal_blocks(grid, sigma), invert=False)
    _, residual = refine_solve(solver, B, rhs, RTOL, backward_scale=True)
    assert residual <= RTOL
