"""Direct solves: LAPACK's banded Cholesky, behind the modal solver (in
unit-diagonal form) and ``lambda1``'s folded pencil, and the residual
contract every march and static solve is checked against."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os

import numpy as np
import scipy
import scipy.fft
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import SolveError
from .grid import Grid, level_weights

RTOL = 1e-10  # every solve's residual contract; perfbench/run.py repeats it


def lower_band(matrix: sp.csr_matrix) -> np.ndarray:
    """The lower triangle of a sparse symmetric matrix in LAPACK ``pb``
    lower storage (``BandCholesky``), Fortran-ordered so that it can be
    factored in place; kd is the widest stored lower offset."""
    lower = sp.tril(matrix, format="coo")
    kd = int((lower.row - lower.col).max())
    band = np.zeros((kd + 1, matrix.shape[0]), order="F")
    band[lower.row - lower.col, lower.col] = lower.data
    return band


class BandCholesky:
    """Banded Cholesky factor M = L L^T (Martin & Wilkinson 1965; LAPACK
    ``dpbtrf``) of a symmetric positive definite matrix given by its lower
    band in LAPACK ``pb`` storage, ``band[i - j, j] = M[i, j]`` for
    j <= i <= j + kd; ``factor`` holds L in the same storage, and
    ``solve`` runs ``dpbtrs`` on it.

    A Fortran-ordered band is factored in place, even a read-only one (f2py
    writes through it), so a band shared with others must be copied first.
    A band that is not positive definite raises SolveError with the
    ``describe(row)`` pair (the matrix, the place) of the first row whose
    pivot fails.
    """

    def __init__(self, band: np.ndarray, describe):
        self.factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            what, where = describe(info - 1)
            raise SolveError(f"{what} is not positive definite "
                             f"(banded Cholesky stopped at {where})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = dpbtrs(self.factor, rhs.reshape(-1, 1), lower=1)
        return x.ravel()


@functools.cache
def _scipy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that scipy's wheels ship and its LAPACK wrappers call
    (already loaded, so this opens the same copy), or None where scipy
    links another BLAS."""
    root = os.path.dirname(scipy.__file__)
    for path in sorted(glob.glob(root + ".libs/libscipy_openblas*")
                       + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            return lib
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with scipy's OpenBLAS on one thread, then restore its
    thread count.  A banded Cholesky factor and solve at half-band 204
    split into panels too small to gain from a second thread.  On a
    shared 2-vCPU VM one thread was as fast; two threads stalled 0.8-1.2 s
    on their first factor in 5 of 96 fresh processes (one thread: in none
    of 86) and ran 2-4x slower beside a busy process.  The bits do not
    depend on the count."""
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(threads)


class ModalSolver:
    """Solves M x = b for an M that the orthonormal DST-I along x splits
    into one pentadiagonal (K+2) x (K+2) block M_m per sine mode (Lynch,
    Rice & Thomas 1964), on the field of ``grid`` flattened from (K+2, J).

    ``band`` is the lower band of W_y M_m over all modes in LAPACK ``pb``
    storage, W_y the trapezoid level weights that make each block
    symmetric (``OperatorSet.band``, ``operators.level_weights``).  A copy
    of it is factored once by ``BandCholesky``, and the factor L is kept
    in unit-diagonal form, M = L~ D^2 L~^T with L~ = L D^-1 and D = diag(L)
    (Golub & Van Loan, *Matrix Computations*, 4th ed., sec. 4.3).  A solve
    scales b by W_y, transforms it with one DST, runs the two unit-diagonal
    triangular sweeps (BLAS ``dtbsv``) over all modes with one product by
    1/D^2 between them, and transforms back: the FFT-and-band direct
    solver of Hockney (1965) and Buzbee, Golub & Nielson (1970).  At
    half-band 2 the division in each step of ``dpbtrs``'s recurrence is
    what bounds its sweeps; the unit sweeps have none and took half its
    time.  L~^T is stored as an upper band, whose sweeps ran faster than
    those on L~'s lower band, and Fortran-ordered, since f2py copies any
    other layout on every call.
    A band that is not positive definite raises SolveError.
    """

    def __init__(self, band: np.ndarray, grid: Grid):
        self._shape = grid.shape
        self._weights = level_weights(grid)[:, None]

        def describe(row: int) -> tuple[str, str]:
            mode, level = divmod(row, grid.K + 2)
            return f"modal block of x mode {mode + 1}", f"level {level}"

        self._kd = kd = band.shape[0] - 1
        n = band.shape[1]
        factor = BandCholesky(np.array(band, order="F"), describe).factor
        pivots = factor[0]
        self._inverse_square_pivots = 1.0 / (pivots * pivots)
        self._unit = np.zeros(band.shape, order="F")
        for d in range(kd + 1):
            self._unit[kd - d, d:] = factor[d, :n - d] / pivots[:n - d]

    def solve_modes(self, modes: np.ndarray) -> np.ndarray:
        """The band solve alone: the solution of the W_y-scaled blocks for
        right-hand sides stacked mode by mode, written over ``modes``."""
        y = dtbsv(self._kd, self._unit, modes, trans=1, diag=1, overwrite_x=1)
        y *= self._inverse_square_pivots
        return dtbsv(self._kd, self._unit, y, diag=1, overwrite_x=1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = rhs.reshape(self._shape) * self._weights
        modes = scipy.fft.dst(b, type=1, axis=1, norm="ortho").T.ravel()
        x = self.solve_modes(modes)
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
