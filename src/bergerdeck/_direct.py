"""Direct sparse solves checked against a residual contract."""

from __future__ import annotations

import numpy as np

from .errors import SolveError


def refine_solve(lu, matrix, rhs: np.ndarray, rtol: float,
                 backward_scale: bool = False) -> tuple[np.ndarray, float]:
    """Solve with the factorization and check the relative residual
    against ``rtol``, with one correction sweep if the first solve misses.

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

    x = lu.solve(rhs)
    residual_vec, residual = residual_of(x)
    if residual > rtol:
        x = x + lu.solve(residual_vec)
        _, residual = residual_of(x)
    if residual > rtol:
        raise SolveError(f"solve residual {residual:.3e} exceeds {rtol:.1e} "
                         f"after one correction sweep", residual=residual)
    return x, residual
