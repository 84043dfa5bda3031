import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf

from bergerdeck import build_grid, build_operators, sin_load, solve_static
from bergerdeck._direct import (BandCholesky, ModalSolver, _scipy_openblas,
                                lower_band, one_blas_thread, refine_solve)
from bergerdeck.errors import SolveError
from bergerdeck.integrator import FactorizedSystem
from bergerdeck.operators import assemble_plate, level_weights
from oracles import band_matrix, dense_bilaplacian

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
    # the norms are fixed-order einsum sums, so their bits do not depend on
    # the BLAS thread count; they agree with np.linalg.norm to rounding
    def norm(v):
        return math.sqrt(np.einsum("i,i->", v, v))

    r = rhs - matrix @ x
    assert residual == norm(r) / norm(rhs)
    assert residual == pytest.approx(np.linalg.norm(r) / np.linalg.norm(rhs),
                                     rel=1e-13)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_load_raises(bad):
    # a NaN residual compares False against rtol, so it once passed the
    # contract and the solve returned an all-NaN field
    grid = build_grid(21, 11, 0.5)
    load = sin_load(grid, 50.0, 2)
    load[grid.n_dof // 2] = bad
    with pytest.raises(SolveError, match="after one correction sweep"):
        solve_static(load, build_operators(grid, 0.2, 0))


def test_backward_scale_residual_at_most_plain():
    grid = build_grid(99, 49, 0.5)
    A = build_operators(grid, 0.2, 0).bilaplacian
    lu = spla.splu(sp.csc_matrix(A))
    f = sin_load(grid, 50.0, 2)
    _, plain = refine_solve(lu, A, f, 1.0)
    _, scaled = refine_solve(lu, A, f, 1.0, backward_scale=True)
    assert scaled <= plain
    assert scaled <= RTOL



class _CountingAbs:
    """A matrix whose ``abs`` is counted."""

    def __init__(self, matrix):
        self.matrix, self.abs_calls = matrix, 0

    def __matmul__(self, x):
        return self.matrix @ x

    def __abs__(self):
        self.abs_calls += 1
        return abs(self.matrix)


def test_backward_scale_forms_abs_once_per_call(system):
    matrix, _, rhs = system
    # the factors of 1.000001 M miss on the first solve, so the correction
    # sweep runs and the residual is measured twice
    lu = _CountingLU(spla.splu(sp.csc_matrix(1.000001 * matrix)))
    counted = _CountingAbs(matrix)
    x, residual = refine_solve(lu, counted, rhs, RTOL, backward_scale=True)
    assert lu.solves == 2 and counted.abs_calls == 1
    scale = max(np.linalg.norm(rhs), np.linalg.norm(abs(matrix) @ np.abs(x)))
    assert residual == pytest.approx(np.linalg.norm(rhs - matrix @ x) / scale,
                                     rel=1e-12)

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


def _shifted(grid, sigma, dt):
    """The band of W_y (I + dt^2/2 B)."""
    band = (dt * dt / 2.0) * assemble_plate(grid, sigma)[1]
    band[0] += np.tile(level_weights(grid), grid.J)
    return band


def _gap(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


@settings(max_examples=30, deadline=None)
@given(**plates)
def test_modal_solve_matches_splu(J, K, sigma, dt, seed):
    grid, ops, rhs = _plate(J, K, sigma, seed)
    lu = spla.splu(sp.csc_matrix(sp.identity(grid.n_dof)
                                 + (dt * dt / 2.0) * ops.bilaplacian))
    x, _ = FactorizedSystem(ops, dt).solve(rhs)
    assert _gap(x, lu.solve(rhs)) <= 1e-10
    static_lu = spla.splu(sp.csc_matrix(ops.bilaplacian))
    assert _gap(solve_static(rhs, ops),
                static_lu.solve(rhs)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(**plates)
def test_modal_solve_meets_contract(J, K, sigma, dt, seed):
    grid, ops, rhs = _plate(J, K, sigma, seed)
    B = ops.bilaplacian
    M = sp.identity(grid.n_dof, format="csr") + (dt * dt / 2.0) * B
    solver = ModalSolver(_shifted(grid, sigma, dt), grid)
    _, residual = refine_solve(solver, M, rhs, RTOL)
    assert residual <= RTOL
    solver = ModalSolver(assemble_plate(grid, sigma)[1], grid)
    _, residual = refine_solve(solver, B, rhs, RTOL, backward_scale=True)
    assert residual <= RTOL


# --- the band solver on both parities of the level count ----------------------

# "factored" is the static system B, "inverted" the stepper's I + dt^2/2 B:
# the ids keep the names of the two ways these systems were once solved.
@pytest.mark.parametrize("stepper", [False, True], ids=["factored", "inverted"])
@pytest.mark.parametrize("odd_levels", [True, False], ids=["odd", "even"])
@settings(max_examples=30, deadline=None)
@given(J=plates["J"], half_k=st.integers(min_value=2, max_value=7),
       sigma=plates["sigma"], dt=plates["dt"], seed=plates["seed"])
def test_parity_solver_matches_splu_and_dense(odd_levels, stepper, J, half_k,
                                              sigma, dt, seed):
    K = 2 * half_k + (1 if odd_levels else 0)
    grid, ops, rhs = _plate(J, K, sigma, seed)
    dense = dense_bilaplacian(J, K, grid.l, sigma)
    if stepper:
        matrix = sp.identity(grid.n_dof) + (dt * dt / 2.0) * ops.bilaplacian
        dense_matrix = np.eye(grid.n_dof) + (dt * dt / 2.0) * dense
        band = _shifted(grid, sigma, dt)
    else:
        matrix, dense_matrix, band = ops.bilaplacian, dense, assemble_plate(grid, sigma)[1]
    assert band.shape == (3, J * (K + 2)) and (K + 2) % 2 == odd_levels
    x = ModalSolver(band, grid).solve(rhs)
    assert _gap(x, spla.splu(sp.csc_matrix(matrix)).solve(rhs)) <= 1e-10
    assert _gap(x, np.linalg.solve(dense_matrix, rhs)) <= 1e-10


# --- the banded Cholesky factorization ------------------------------------------

@settings(max_examples=40, deadline=None)
@given(J=st.integers(min_value=2, max_value=7).map(lambda h: 2 * h + 1),
       K=st.integers(min_value=3, max_value=12),
       sigma=st.one_of(st.floats(min_value=1e-3, max_value=2e-3),
                       st.floats(min_value=0.498, max_value=0.499)),
       dt=plates["dt"])
def test_band_factors_near_the_sigma_ends(J, K, sigma, dt):
    # W_y B and W_y (I + dt^2/2 B) are positive definite in every mode
    grid = build_grid(J, K, math.pi / 4)
    for band in (assemble_plate(grid, sigma)[1], _shifted(grid, sigma, dt)):
        _, info = dpbtrf(band, lower=1)
        assert info == 0


def test_band_not_positive_definite_raises():
    grid = build_grid(5, 3, math.pi / 4)
    band = assemble_plate(grid, 0.2)[1]
    band[0, 7] = -1.0  # the diagonal at level 2 of mode 2
    with pytest.raises(SolveError, match="x mode 2 is not positive definite"):
        ModalSolver(band, grid)


def test_band_is_factored_in_place_only_on_request():
    # every system of a plate shares its OperatorSet.band: ModalSolver
    # factors a copy of it, and BandCholesky factors what it is given
    grid = build_grid(7, 5, math.pi / 4)
    band = assemble_plate(grid, 0.2)[1]
    kept = band.copy()
    ModalSolver(band, grid)
    assert np.array_equal(band, kept)
    band = lower_band(band_matrix(band))
    kept = band.copy()
    BandCholesky(band, None)
    assert not np.array_equal(band, kept)


def test_modal_solver_leaves_a_read_only_fortran_band_alone():
    # f2py hands a read-only Fortran-ordered array to dpbtrf as it is and
    # lets it write through; any other layout it copies first, so only this
    # band shows whether ModalSolver factors a copy
    grid = build_grid(7, 5, math.pi / 4)
    band = np.asfortranarray(assemble_plate(grid, 0.2)[1])
    band.setflags(write=False)
    kept = band.copy()
    ModalSolver(band, grid)
    assert np.array_equal(band, kept)


# --- the unit-diagonal sweeps against dense solves of the mode blocks ---------
# The sweeps solve every W_y-scaled block W_y (I + dt^2/2 B_m) at once; a
# dense LU solve of one block differs from them by about eps cond(block),
# under 1e6 at K <= 15 as above, so each block's gap is held to 1e-10.

@settings(max_examples=30, deadline=None)
@given(**plates)
def test_unit_sweeps_match_dense_mode_blocks(J, K, sigma, dt, seed):
    grid = build_grid(J, K, math.pi / 4)
    band = _shifted(grid, sigma, dt)
    matrix = band_matrix(band)
    assert np.array_equal(np.tril(band_matrix(lower_band(matrix)).toarray()),
                          np.tril(matrix.toarray()))
    modes = np.random.default_rng(seed).normal(size=grid.n_dof)
    x = ModalSolver(band, grid).solve_modes(modes.copy())
    levels = K + 2
    for m in range(J):
        block = slice(m * levels, (m + 1) * levels)
        reference = np.linalg.solve(matrix[block, block].toarray(), modes[block])
        assert _gap(x[block], reference) <= 1e-10


@pytest.mark.skipif(_scipy_openblas() is None,
                    reason="scipy here does not call its bundled OpenBLAS")
def test_one_blas_thread_restores_the_thread_count():
    lib = _scipy_openblas()
    threads = lib.scipy_openblas_get_num_threads()
    with pytest.raises(RuntimeError, match="inside"):
        with one_blas_thread():
            assert lib.scipy_openblas_get_num_threads() == 1
            raise RuntimeError("inside")
    assert lib.scipy_openblas_get_num_threads() == threads
