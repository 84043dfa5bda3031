"""Discrete energy decomposition, the plate quadratic form, the dissipation
ledger, and the embedding-constant estimator, all read through the
difference maps of ``operators``.  The estimator builds its pencil from
the maps on the plate's even-even quarter, factors it by banded Cholesky
(``_direct``) and takes its Rayleigh quotients by quadrature.

The total energy splits as

    E = 1/2 ||v||^2 + 1/2 int F(u,u) - P/2 ||u_x||^2 + S/4 ||u_x||^4

with F(u,u) = u_xx^2 + u_yy^2 + 2 sigma u_xx u_yy + 2 (1-sigma) u_xy^2.
Velocities are backward differences of consecutive field levels, so the
records lag the field by half a step.  The measured energy need not be
monotone: it rises on some runs after the start-up step (``integrator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ._direct import BandCholesky, _norm, lower_band, one_blas_thread
from .errors import ConvergenceError, SequencingError, ShapeError
from .grid import Grid, build_weights
from .model import ModelConfig, stretch_integral
from .operators import OperatorSet, _finalize, _fold, quarter_maps

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

def plate_density(xx: np.ndarray, yy: np.ndarray, xy: np.ndarray,
                  sigma: float) -> np.ndarray:
    """F(u,u) node by node from u_xx, u_yy and u_xy."""
    return xx * xx + yy * yy + 2.0 * sigma * (xx * yy) + 2.0 * (1.0 - sigma) * (xy * xy)


class PlateFormEvaluator:
    """Evaluates the plate quadratic form and energy records on the grid,
    sigma and weights of ``ops``, with ``ops.dxx`` as the u_xx map.

    Assembles the u_yy and u_xy maps once (``ops.assemble``); reuse one
    instance across a run.
    """

    def __init__(self, ops: OperatorSet):
        self.grid = ops.grid
        self.sigma = ops.sigma
        self.weights = ops.weights
        self.sxx = ops.dxx
        self.syy = ops.assemble("yy")
        self.sxy = ops.assemble("xy")

    def form_value(self, U: np.ndarray, uxx: np.ndarray | None = None) -> float:
        """Quadrature of F(u,u) over the rectangle; ``uxx`` is ``sxx @ U``
        if the caller has it already."""
        if U.shape != (self.grid.n_dof,):
            raise ShapeError(f"expected state of length {self.grid.n_dof}, got {U.shape}")
        xx = self.sxx @ U if uxx is None else uxx
        return self.weights.integrate_cells(
            plate_density(xx, self.syy @ U, self.sxy @ U, self.sigma))

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
            v, uxx = state.velocity(), self.sxx @ u
            q = stretch_integral(u, uxx, self.weights)
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

class QuarterPencil:
    """The plate and gradient forms of u = F z, F the 0/1 map from the
    quarter of ``operators.quarter_maps`` to the flat layout, integrated on
    the quarter's nodes with the folded weights F^T w; ``A`` and ``B`` are
    their Gram matrices G^T W G over the quarter's maps G, equal to
    F^T A F and F^T B F of the full-grid Gram matrices up to rounding."""

    def __init__(self, grid: Grid, sigma: float):
        self.sigma = sigma
        self.weights = _fold(_fold(build_weights(grid).cell.reshape(grid.shape)).T).ravel()
        xx, yy, xy, x, y = quarter_maps(grid, sigma)
        self.plate = sp.vstack([xx, yy, xy], format="csr")
        self.gradient = sp.vstack([x, y], format="csr")
        W = sp.diags(self.weights)
        self.A = _finalize(self.plate.T @ sp.vstack(
            [W @ (xx + sigma * yy), W @ (yy + sigma * xx),
             2.0 * (1.0 - sigma) * (W @ xy)], format="csr"))
        self.B = _finalize(self.gradient.T @ sp.block_diag([W, W]) @ self.gradient)

    def plate_form(self, z: np.ndarray) -> float:
        xx, yy, xy = np.split(self.plate @ z, 3)
        return float(np.einsum("i,i->", self.weights, plate_density(xx, yy, xy, self.sigma)))

    def gradient_form(self, z: np.ndarray) -> float:
        ux, uy = np.split(self.gradient @ z, 2)
        return float(np.einsum("i,i->", self.weights, ux * ux + uy * uy))


def lambda1_estimate(grid: Grid, sigma: float) -> float:
    """Smallest generalized eigenvalue of (plate form, gradient form).

    Inverse power iteration on the pencil A x = lambda B x from the
    constant field.  A and B commute with the flips j -> J+1-j (J is odd
    and the Simpson weights are symmetric) and k -> K+1-k, so every
    iterate stays even under both and the iteration converges to that
    sector's smallest eigenvalue, which is the global one: the lowest
    buckling shape is even in x and y, and the other sectors' minima are
    1.47, 3.47 and 5.09 against 0.86 on the preset plate (the tests check
    the dense full pencil).  So it iterates on the ``QuarterPencil``, a
    quarter of the unknowns.  Its A is positive definite and a band, so it
    is factored once by banded Cholesky (``_direct.BandCholesky``) and each
    sweep runs one banded solve, both on one BLAS thread
    (``_direct.one_blas_thread``).  The solve stays ``dpbtrs``: at
    half-band 204 its sweeps are bound by their dot products, not by the
    division that the modal solver's unit-diagonal form removes, and that
    form's conversion cost more than it saved.

    Iteration stops when the Rayleigh quotient is stationary to 1e-8
    relative.  It is taken by quadrature, as ``form_value`` takes the
    plate form: x^T A x / x^T B x cancels large entries and rounds far
    above that tolerance (7e-7 apart on 299 x 199 for two roundings of A),
    while the quadrature quotient settles to about 1e-12.  Norms and
    quotients are fixed-order ``np.einsum`` sums, whose bits do not depend
    on the BLAS thread count.
    """
    pencil = QuarterPencil(grid, sigma)
    levels = grid.K + 2 - (grid.K + 2) // 2

    def describe(row: int) -> tuple[str, str]:
        j, k = divmod(row, levels)
        return "folded plate Gram matrix", f"row {row}, node j = {j + 1}, k = {k}"

    with one_blas_thread():
        factor = BandCholesky(lower_band(pencil.A), describe)
        x = np.ones(pencil.A.shape[0])
        x /= _norm(x)
        rho_prev = math.inf
        for _ in range(500):
            y = factor.solve(pencil.B @ x)
            norm = _norm(y)
            if norm == 0.0:
                raise ConvergenceError("iterate collapsed to the gradient null space")
            x = y / norm
            rho = pencil.plate_form(x) / pencil.gradient_form(x)
            if abs(rho - rho_prev) <= 1e-8 * abs(rho):
                return rho
            rho_prev = rho
    raise ConvergenceError(
        "embedding-constant iteration did not settle in 500 sweeps",
        last_value=rho_prev)
