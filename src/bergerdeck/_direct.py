"""Direct solves checked against a residual contract."""

from __future__ import annotations

import numpy as np
import scipy.fft

from .errors import SolveError


class ModalSolver:
    """Solves M x = b for an M that the orthonormal DST-I along x splits
    into one (K+2) x (K+2) block per sine mode (Lynch, Rice & Thomas 1964).

    ``blocks`` has shape (J, K+2, K+2) and the field is (K+2, J) flattened.
    With ``invert`` the blocks are inverted once and every solve is a
    batched matrix-vector product; without it each solve factors them
    again, which is cheaper for a single solve.
    """

    def __init__(self, blocks: np.ndarray, invert: bool = True):
        self._shape = (blocks.shape[1], blocks.shape[0])
        self._inverses = np.linalg.inv(blocks) if invert else None
        self._blocks = None if invert else blocks

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        modes = scipy.fft.dst(rhs.reshape(self._shape), type=1, axis=1,
                              norm="ortho").T[:, :, None]
        if self._inverses is None:
            modes = np.linalg.solve(self._blocks, modes)
        else:
            modes = np.matmul(self._inverses, modes)
        return scipy.fft.idst(modes[:, :, 0].T, type=1, axis=1,
                              norm="ortho").ravel()


def refine_solve(solver, matrix, rhs: np.ndarray, rtol: float,
                 backward_scale: bool = False) -> tuple[np.ndarray, float]:
    """Solve with ``solver`` (anything with a ``solve(rhs)`` method for
    ``matrix``) and check the relative residual against ``rtol``, with one
    correction sweep if the first solve misses.

    Near the float64 floor (the preset plate at dt >= 0.15) one correction
    sweep can bring a residual just above ``rtol`` under it; further sweeps
    never did, so a second miss raises SolveError with the residual.

    With ``backward_scale`` the residual is measured against
    max(||rhs||, || |A| |x| ||), the normwise backward-error scale; float64
    cannot certify ||A x - b|| <= rtol ||b|| once eps * ||A|| ||x|| exceeds
    rtol * ||b||, which the stiff fourth-order operator reaches on fine
    grids.
    """
    rhs_norm = max(float(np.linalg.norm(rhs)), 1e-300)

    def residual_of(x: np.ndarray) -> tuple[np.ndarray, float]:
        residual_vec = rhs - matrix @ x
        scale = rhs_norm
        if backward_scale:
            scale = max(rhs_norm, float(np.linalg.norm(abs(matrix) @ np.abs(x))))
        return residual_vec, float(np.linalg.norm(residual_vec)) / scale

    x = solver.solve(rhs)
    residual_vec, residual = residual_of(x)
    if residual > rtol:
        x = x + solver.solve(residual_vec)
        _, residual = residual_of(x)
    if residual > rtol:
        raise SolveError(f"solve residual {residual:.3e} exceeds {rtol:.1e} "
                         f"after one correction sweep", residual=residual)
    return x, residual
