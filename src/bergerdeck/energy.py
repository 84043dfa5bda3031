"""Discrete energy decomposition, the plate quadratic form, the dissipation
ledger, and the embedding-constant estimator, all read through the
difference maps of ``operators``.  The estimator folds its pencil onto
the plate's even-even quarter, ordered level-fastest, and factors the
folded plate Gram matrix once by banded Cholesky (``_direct``).

The total energy splits as

    E = 1/2 ||v||^2 + 1/2 int F(u,u) - P/2 ||u_x||^2 + S/4 ||u_x||^4

with F(u,u) = u_xx^2 + u_yy^2 + 2 sigma u_xx u_yy + 2 (1-sigma) u_xy^2.
Velocities are backward differences of consecutive field levels, so the
records lag the field by half a step; that offset is what makes the
measured energy of the damped scheme monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ._direct import BandCholesky, _norm, one_blas_thread, upper_band
from .errors import ConvergenceError, SequencingError, ShapeError
from .grid import Grid, QuadratureWeights, build_weights
from .model import ModelConfig, stretch_integral
from .operators import (OperatorSet, SparseOperator, _finalize, assemble_dxx,
                        assemble_dy2, cross_derivative_map, x_derivative_map,
                        y_derivative_map)

if TYPE_CHECKING:  # pragma: no cover
    from .integrator import LevelTerms, SimState


@dataclass(frozen=True)
class EnergyRecord:
    step: int
    t: float
    kinetic: float
    hstar: float
    px: float
    sx: float
    total: float
    dissipated_cum: float


# ---------------------------------------------------------------------------
# plate form and records

class PlateFormEvaluator:
    """Evaluates the plate quadratic form and energy records on the grid,
    sigma and weights of ``ops``, with ``ops.dxx`` as the u_xx map.

    Builds the u_yy and u_xy maps once; reuse one instance across a run.
    """

    def __init__(self, ops: OperatorSet):
        self.grid = ops.grid
        self.sigma = ops.sigma
        self.weights = ops.weights
        self.sxx = ops.dxx
        self.syy = assemble_dy2(ops.grid, ops.sigma)
        self.sxy = cross_derivative_map(ops.grid)

    def form_value(self, U: np.ndarray, uxx: np.ndarray | None = None) -> float:
        """Quadrature of F(u,u) over the rectangle; ``uxx`` is ``sxx @ U``
        if the caller has it already."""
        if U.shape != (self.grid.n_dof,):
            raise ShapeError(f"expected state of length {self.grid.n_dof}, got {U.shape}")
        xx = self.sxx @ U if uxx is None else uxx
        yy = self.syy @ U
        xy = self.sxy @ U
        density = xx * xx + yy * yy + 2.0 * self.sigma * (xx * yy) \
            + 2.0 * (1.0 - self.sigma) * (xy * xy)
        return self.weights.integrate_cells(density)

    def record(self, state: "SimState", model: ModelConfig,
               dissipated_cum: float = 0.0,
               terms: "LevelTerms | None" = None) -> EnergyRecord:
        """The energy of ``state``; ``terms`` are the stepper's terms of its
        newest level, whose velocity, u_xx and stretch integral are read
        instead of formed again."""
        if state.step_index < 1:
            raise SequencingError(
                "energy needs two field levels; call after the bootstrap step")
        u = state.u_curr
        if terms is None:
            v, uxx, q = state.velocity(), self.sxx @ u, stretch_integral(u, self.weights)
        else:
            v, uxx, q = terms.velocity, terms.uxx, terms.q
        kinetic = 0.5 * self.weights.integrate_cells(v * v)
        hstar = 0.5 * self.form_value(u, uxx)
        px = -0.5 * model.P * q
        sx = 0.25 * model.S * q * q
        total = kinetic + hstar + px + sx
        return EnergyRecord(step=state.step_index, t=state.t, kinetic=kinetic,
                            hstar=hstar, px=px, sx=sx, total=total,
                            dissipated_cum=dissipated_cum)


def dissipation_residual(records: list[EnergyRecord]) -> float:
    """Worst violation of the energy identity between consecutive records.

    For each adjacent pair the energy drop should match the damping ledger:
    E(t2) - E(t1) + [D(t2) - D(t1)] ~ 0.  The maximum absolute mismatch is
    normalized by max(E(first record), 1e-300).
    """
    if len(records) < 2:
        raise SequencingError("dissipation residual needs at least two records")
    scale = max(records[0].total, 1e-300)
    worst = 0.0
    for prev, cur in zip(records, records[1:]):
        gap = abs(cur.total - prev.total + (cur.dissipated_cum - prev.dissipated_cum))
        worst = max(worst, gap)
    return worst / scale


# ---------------------------------------------------------------------------
# embedding constant

def parity_fold(grid: Grid) -> SparseOperator:
    """The fields even under both flips j -> J+1-j and k -> K+1-k, given
    by their values on the quarter j <= (J+1)/2, k <= (K+1)/2: the 0/1
    map from the quarter to the flat layout, node (k, j) read from the
    quarter node (min(k, K+1-k), min(j, J+1-j)).  The quarter is ordered
    level-fastest (k fastest), which keeps the half-band of a folded 2-D
    stencil to twice the quarter's level count plus two (Cuthill & McKee
    1969): 204 on 299 x 199, against 302 j-fastest."""
    ny, J = grid.K + 2, grid.J
    k, j = np.arange(ny), np.arange(J)
    quarter = np.minimum(j, J - 1 - j)[None, :] * (ny - ny // 2) \
        + np.minimum(k, ny - 1 - k)[:, None]
    return _finalize(sp.csr_matrix(
        (np.ones(grid.n_dof), (np.arange(grid.n_dof), quarter.ravel())),
        shape=(grid.n_dof, (ny - ny // 2) * (J - J // 2))))


def hstar_gram(grid: Grid, sigma: float,
               weights: QuadratureWeights) -> SparseOperator:
    """Gram matrix of the plate form: U^T A U = quadrature of F(u,u)."""
    W = sp.diags(weights.cell)
    sxx = assemble_dxx(grid)
    syy = assemble_dy2(grid, sigma)
    sxy = cross_derivative_map(grid)
    A = sxx.T @ W @ sxx + syy.T @ W @ syy \
        + sigma * (sxx.T @ W @ syy + syy.T @ W @ sxx) \
        + 2.0 * (1.0 - sigma) * (sxy.T @ W @ sxy)
    return _finalize(A)


def gradient_gram(grid: Grid, weights: QuadratureWeights) -> SparseOperator:
    """Gram matrix of the Dirichlet gradient: U^T B U = quadrature of |grad u|^2."""
    W = sp.diags(weights.cell)
    sx = x_derivative_map(grid)
    sy = y_derivative_map(grid)
    return _finalize(sx.T @ W @ sx + sy.T @ W @ sy)


def folded_grams(grid: Grid, sigma: float) -> tuple[SparseOperator, SparseOperator]:
    """(F^T A F, F^T B F): the plate and gradient Gram matrices folded onto
    the even-even quarter by F = ``parity_fold(grid)``."""
    weights = build_weights(grid)
    fold = parity_fold(grid)
    return (_finalize(fold.T @ hstar_gram(grid, sigma, weights) @ fold),
            _finalize(fold.T @ gradient_gram(grid, weights) @ fold))


def lambda1_estimate(grid: Grid, sigma: float) -> float:
    """Smallest generalized eigenvalue of (plate form, gradient form).

    Inverse power iteration on the pencil A x = lambda B x from the
    constant field.  A and B commute with the flips j -> J+1-j (J is odd
    and the Simpson weights are symmetric) and k -> K+1-k, so every
    iterate stays even under both and the iteration converges to that
    sector's smallest eigenvalue, which is the global one: the lowest
    buckling shape is even in x and y, and the other sectors' minima are
    1.47, 3.47 and 5.09 against 0.86 on the preset plate (the tests check
    the dense full pencil).  So it iterates on (F^T A F, F^T B F), F =
    ``parity_fold(grid)``: the same Rayleigh quotients on a quarter of the
    unknowns.  F^T A F is folded from the full Gram matrix, not assembled
    from the difference maps applied to F: x^T A x cancels large entries,
    and that assembly's rounding moves the quotient by 7e-7 on 299 x 199.

    F^T A F is positive definite, and the level-fastest quarter keeps it
    a band, so it is factored once by banded Cholesky on its upper band
    (``_direct.upper_band``, ``_direct.BandCholesky``) and each sweep
    runs one banded solve, both on one BLAS thread
    (``_direct.one_blas_thread``).
    Iteration stops when the Rayleigh quotient is
    stationary to 1e-8 relative.  Norms and quotients are fixed-order
    ``np.einsum`` sums, whose bits do not depend on the BLAS thread count.
    """
    A, B = folded_grams(grid, sigma)
    levels = grid.K + 2 - (grid.K + 2) // 2

    def describe(row: int) -> tuple[str, str]:
        j, k = divmod(row, levels)
        return "folded plate Gram matrix", f"row {row}, node j = {j + 1}, k = {k}"

    with one_blas_thread():
        factor = BandCholesky(upper_band(A), describe, overwrite=True)
        x = np.ones(A.shape[0])
        x /= _norm(x)
        rho_prev = math.inf
        for _ in range(500):
            y = factor.solve(B @ x)
            norm = _norm(y)
            if norm == 0.0:
                raise ConvergenceError("iterate collapsed to the gradient null space")
            x = y / norm
            rho = float(np.einsum("i,i->", x, A @ x) / np.einsum("i,i->", x, B @ x))
            if abs(rho - rho_prev) <= 1e-8 * abs(rho):
                return rho
            rho_prev = rho
    raise ConvergenceError(
        "embedding-constant iteration did not settle in 500 sweeps",
        last_value=rho_prev)
