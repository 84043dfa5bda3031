"""Discrete energy decomposition, the plate quadratic form, the dissipation
ledger, and the embedding-constant estimator.

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
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, SequencingError, ShapeError
from .grid import Grid, QuadratureWeights, build_weights
from .model import ModelConfig, stretch_integral
from .operators import (SparseOperator, _band, _finalize, _kron_sum,
                        _level_matrices, assemble_dxx, assemble_dy2)

if TYPE_CHECKING:  # pragma: no cover
    from .integrator import OperatorSet, SimState


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
# difference maps

def x_derivative_map(grid: Grid) -> SparseOperator:
    """Centered first x-difference on the unknowns, hinged zeros at the ends."""
    J = grid.J
    inv2dx = 1.0 / (2.0 * grid.dx)
    off = np.full(J - 1, inv2dx)
    d1 = sp.diags([-off, off], [-1, 1], format="csr")
    return _finalize(sp.kron(sp.identity(grid.K + 2, format="csr"), d1))


def y_derivative_map(grid: Grid) -> SparseOperator:
    """First y-difference kron(D, I): centered inside, one-sided at the edges."""
    ny = grid.K + 2
    inv_dy = 1.0 / grid.dy
    rows = _band(range(1, ny - 1), ((-0.5 * inv_dy,), (0.0,), (0.5 * inv_dy,)))
    rows[0, 0] = rows[ny - 1, ny - 2] = (-inv_dy,)
    rows[0, 1] = rows[ny - 1, ny - 1] = (inv_dy,)
    eye = sp.identity(grid.J, format="csr")
    return _finalize(_kron_sum(_level_matrices(ny, rows), (eye,)))


def cross_derivative_map(grid: Grid) -> SparseOperator:
    """u_xy map: centered x-difference followed by the y-difference above."""
    return _finalize(y_derivative_map(grid) @ x_derivative_map(grid))


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

    def form_value(self, U: np.ndarray) -> float:
        """Quadrature of F(u,u) over the rectangle."""
        if U.shape != (self.grid.n_dof,):
            raise ShapeError(f"expected state of length {self.grid.n_dof}, got {U.shape}")
        xx = self.sxx @ U
        yy = self.syy @ U
        xy = self.sxy @ U
        density = xx * xx + yy * yy + 2.0 * self.sigma * (xx * yy) \
            + 2.0 * (1.0 - self.sigma) * (xy * xy)
        return self.weights.integrate_cells(density)

    def record(self, state: "SimState", model: ModelConfig,
               dissipated_cum: float = 0.0) -> EnergyRecord:
        if state.step_index < 1:
            raise SequencingError(
                "energy needs two field levels; call after the bootstrap step")
        v = state.velocity()
        kinetic = 0.5 * self.weights.integrate_cells(v * v)
        hstar = 0.5 * self.form_value(state.u_curr)
        q = stretch_integral(state.u_curr, self.weights)
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


def lambda1_estimate(grid: Grid, sigma: float) -> float:
    """Smallest generalized eigenvalue of (plate form, gradient form).

    Inverse power iteration on the pencil A x = lambda B x: the plate Gram
    matrix A is positive definite, so each sweep solves with its one-time
    factorization; iteration stops when the Rayleigh quotient is stationary
    to 1e-8 relative.
    """
    weights = build_weights(grid)
    A = hstar_gram(grid, sigma, weights)
    B = gradient_gram(grid, weights)
    lu = spla.splu(sp.csc_matrix(A))
    x = np.ones(grid.n_dof)
    x /= np.linalg.norm(x)
    rho_prev = math.inf
    for _ in range(500):
        y = lu.solve(B @ x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise ConvergenceError("iterate collapsed to the gradient null space")
        x = y / norm
        num = float(x @ (A @ x))
        den = float(x @ (B @ x))
        rho = num / den
        if abs(rho - rho_prev) <= 1e-8 * abs(rho):
            return rho
        rho_prev = rho
    raise ConvergenceError(
        "embedding-constant iteration did not settle in 500 sweeps",
        last_value=rho_prev)
