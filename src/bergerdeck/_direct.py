"""Direct solves checked against a residual contract."""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import SolveError
from .grid import Grid, level_weights

RTOL = 1e-10  # every solve's residual contract; perfbench/run.py repeats it


class ModalSolver:
    """Solves M x = b for an M that the orthonormal DST-I along x splits
    into one pentadiagonal (K+2) x (K+2) block M_m per sine mode (Lynch,
    Rice & Thomas 1964), on the field of ``grid`` flattened from (K+2, J).

    ``band`` is the upper band of W_y M_m over all modes in LAPACK ``pb``
    storage, W_y the trapezoid level weights that make each block
    symmetric (``OperatorSet.band``, ``operators.level_weights``).  It
    is factored once by banded Cholesky, and a solve scales b by W_y,
    transforms it with one DST, runs one banded solve over all modes and
    transforms back: the FFT-and-band direct solver of Hockney (1965) and
    Buzbee, Golub & Nielson (1970).  A band that is not positive definite
    raises SolveError.
    """

    def __init__(self, band: np.ndarray, grid: Grid):
        self._shape = grid.shape
        self._weights = level_weights(grid)[:, None]
        self._factor, info = dpbtrf(band)
        if info != 0:
            mode, level = divmod(info - 1, grid.K + 2)
            raise SolveError(f"modal block of x mode {mode + 1} is not positive "
                             f"definite (banded Cholesky stopped at level {level})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = rhs.reshape(self._shape) * self._weights
        modes = scipy.fft.dst(b, type=1, axis=1, norm="ortho").T.reshape(-1, 1)
        x, _ = dpbtrs(self._factor, modes)
        return scipy.fft.idst(x.reshape(self._shape[::-1]).T, type=1, axis=1,
                              norm="ortho").ravel()


def _norm(v: np.ndarray) -> float:
    """Euclidean norm by a fixed-order ``np.einsum`` sum; ``np.linalg.norm``
    goes through threaded BLAS, whose bits change with the thread count."""
    return math.sqrt(np.einsum("i,i->", v, v))


def refine_solve(solver, matrix, rhs: np.ndarray, rtol: float = RTOL,
                 backward_scale: bool = False) -> tuple[np.ndarray, float]:
    """Solve with ``solver`` (anything with a ``solve(rhs)`` method for
    ``matrix``) and check the relative residual against ``rtol``, with one
    correction sweep if the first solve misses.  ``matrix`` is anything
    whose ``@`` applies the system; the last x it is applied to is the x
    returned.

    Near the float64 floor (the preset plate at dt >= 0.15) one correction
    sweep can bring a residual just above ``rtol`` under it; further sweeps
    never did, so a second miss raises SolveError with the residual; a NaN
    residual misses.

    With ``backward_scale`` the residual is measured against
    max(||rhs||, || |A| |x| ||), the normwise backward-error scale; float64
    cannot certify ||A x - b|| <= rtol ||b|| once eps * ||A|| ||x|| exceeds
    rtol * ||b||, which the stiff fourth-order operator reaches on fine
    grids.
    """
    rhs_norm = max(_norm(rhs), 1e-300)
    abs_matrix = abs(matrix) if backward_scale else None

    def residual_of(x: np.ndarray) -> tuple[np.ndarray, float]:
        residual_vec = rhs - matrix @ x
        scale = rhs_norm
        if backward_scale:
            scale = max(rhs_norm, _norm(abs_matrix @ np.abs(x)))
        return residual_vec, _norm(residual_vec) / scale

    x = solver.solve(rhs)
    residual_vec, residual = residual_of(x)
    if not residual <= rtol:
        x = x + solver.solve(residual_vec)
        _, residual = residual_of(x)
    if not residual <= rtol:
        raise SolveError(f"solve residual {residual:.3e} exceeds {rtol:.1e} "
                         f"after one correction sweep", residual=residual)
    return x, residual
