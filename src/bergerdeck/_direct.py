"""Direct solves checked against a residual contract."""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from .errors import SolveError

RTOL = 1e-10  # every solve's residual contract; perfbench/run.py repeats it


class ModalSolver:
    """Solves M x = b for an M that the orthonormal DST-I along x splits
    into one (K+2) x (K+2) block per sine mode (Lynch, Rice & Thomas 1964),
    and that the level flip F: k -> K+1-k splits again into an even and an
    odd half per mode (``operators.modal_blocks``).

    ``halves`` is the pair (even, odd) of shapes (J, e, e) and (J, h, h),
    h = (K+2) // 2 and e = K+2 - h; the field is (K+2, J) flattened.  A
    solve folds the right-hand side into the top levels of b + F b and
    b - F b, transforms both with one DST, solves each half mode by mode
    and unfolds.  With ``invert`` the halves are inverted once and every
    solve is a batched matrix-vector product per half; without it each
    solve factors them again, which is cheaper for a single solve.
    """

    def __init__(self, halves: tuple[np.ndarray, np.ndarray], invert: bool = True):
        even, odd = halves
        self._h = odd.shape[1]
        self._shape = (even.shape[1] + self._h, even.shape[0])
        self._invert = invert
        # the even and odd parts are (b +- F b) / 2; the exact factor 1/2
        # rides on the inverses, or on the solutions without them
        self._halves = tuple(0.5 * np.linalg.inv(half) for half in halves) \
            if invert else halves

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        h = self._h
        e = self._shape[0] - h
        b = rhs.reshape(self._shape)
        folded = np.concatenate((b[:e] + b[::-1][:e], b[:h] - b[::-1][:h]))
        modes = scipy.fft.dst(folded, type=1, axis=1, norm="ortho").T[:, :, None]
        parts = (modes[:, :e], modes[:, e:])
        if self._invert:
            parts = [np.matmul(half, part) for half, part in zip(self._halves, parts)]
        else:
            parts = [0.5 * np.linalg.solve(half, part)
                     for half, part in zip(self._halves, parts)]
        solved = scipy.fft.idst(np.concatenate(parts, axis=1)[:, :, 0].T, type=1,
                                axis=1, norm="ortho")
        even, odd = solved[:e], solved[e:]
        # even[h:] is the middle level of an odd K+2, empty for an even one
        return np.concatenate((even[:h] + odd, even[h:], (even[:h] - odd)[::-1])).ravel()


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
    never did, so a second miss raises SolveError with the residual.

    With ``backward_scale`` the residual is measured against
    max(||rhs||, || |A| |x| ||), the normwise backward-error scale; float64
    cannot certify ||A x - b|| <= rtol ||b|| once eps * ||A|| ||x|| exceeds
    rtol * ||b||, which the stiff fourth-order operator reaches on fine
    grids.
    """
    rhs_norm = max(_norm(rhs), 1e-300)

    def residual_of(x: np.ndarray) -> tuple[np.ndarray, float]:
        residual_vec = rhs - matrix @ x
        scale = rhs_norm
        if backward_scale:
            scale = max(rhs_norm, _norm(abs(matrix) @ np.abs(x)))
        return residual_vec, _norm(residual_vec) / scale

    x = solver.solve(rhs)
    residual_vec, residual = residual_of(x)
    if residual > rtol:
        x = x + solver.solve(residual_vec)
        _, residual = residual_of(x)
    if residual > rtol:
        raise SolveError(f"solve residual {residual:.3e} exceeds {rtol:.1e} "
                         f"after one correction sweep", residual=residual)
    return x, residual
