"""Static plate problem and its separable closed-form reference solution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._direct import ModalSolver, refine_solve
from .errors import ShapeError, SolveError
from .grid import Grid
from .operators import modal_blocks

if TYPE_CHECKING:  # pragma: no cover
    from .integrator import OperatorSet


def solve_static(f: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Solve ``ops.bilaplacian U = f`` for a per-node load vector f.

    The orthonormal DST-I along x splits the operator into one (K+2) x
    (K+2) block per sine mode (``operators.modal_blocks`` of ``ops``); each
    block is solved directly, and the solve is checked against the residual
    contract ``_direct.RTOL`` on the sparse operator; a miss raises
    SolveError carrying the achieved residual as a conditioning diagnostic.
    The contract is measured on the normwise backward-error scale: the
    operator carries 1/dx^4-sized entries, so on fine grids no float64
    vector satisfies ||A U - F|| <= RTOL ||F||.
    """
    n = ops.grid.n_dof
    if f.shape != (n,):
        raise ShapeError(f"expected load of length {n}, got {f.shape}")
    solver = ModalSolver(modal_blocks(ops.grid, ops.sigma), invert=False)
    try:
        U, _ = refine_solve(solver, ops.bilaplacian, f, backward_scale=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - singular block
        raise SolveError(f"static solve failed: {exc}") from exc
    return U


def sin_load(grid: Grid, amplitude: float, m: int) -> np.ndarray:
    """Flattened samples of amplitude * sin(m x), constant across levels."""
    column = amplitude * np.sin(m * grid.x_interior())
    return np.tile(column, grid.K + 2)


@dataclass(frozen=True)
class SeparableSolution:
    """Closed-form solution u = [c/m^4 + A cosh(my) + B y sinh(my)] sin(mx).

    The pair (A, B) is fixed by the free-edge conditions at y = l; the even
    symmetry of the profile covers y = -l.  The hinged conditions at
    x = 0, pi hold exactly through the sin factor.
    """

    c: float
    m: int
    l: float
    sigma: float
    A: float
    B: float

    def profile(self, y, order: int = 0):
        """y-profile and its derivatives up to order 4."""
        m, A, B = self.m, self.A, self.B
        ch, sh = np.cosh(m * np.asarray(y, dtype=float)), np.sinh(m * np.asarray(y, dtype=float))
        y = np.asarray(y, dtype=float)
        if order == 0:
            return self.c / m ** 4 + A * ch + B * y * sh
        if order == 1:
            return A * m * sh + B * (sh + m * y * ch)
        if order == 2:
            return A * m * m * ch + B * (2 * m * ch + m * m * y * sh)
        if order == 3:
            return A * m ** 3 * sh + B * (3 * m * m * sh + m ** 3 * y * ch)
        if order == 4:
            return A * m ** 4 * ch + B * (4 * m ** 3 * ch + m ** 4 * y * sh)
        raise ValueError(f"profile derivative order {order} not available")

    def __call__(self, x, y):
        return self.profile(y) * np.sin(self.m * np.asarray(x, dtype=float))

    def biharmonic(self, x, y):
        """Value of the bilaplacian of u at (x, y)."""
        m = self.m
        val = self.profile(y, 4) - 2 * m * m * self.profile(y, 2) \
            + m ** 4 * self.profile(y)
        return val * np.sin(m * np.asarray(x, dtype=float))

    def edge_residuals(self, x, y):
        """(u_yy + sigma u_xx, u_yyy + (2 - sigma) u_xxy) at (x, y)."""
        m, sg = self.m, self.sigma
        sn = np.sin(m * np.asarray(x, dtype=float))
        r1 = (self.profile(y, 2) - sg * m * m * self.profile(y)) * sn
        r2 = (self.profile(y, 3) - (2 - sg) * m * m * self.profile(y, 1)) * sn
        return r1, r2

    def sample(self, grid: Grid) -> np.ndarray:
        """Flattened samples on the unknowns of ``grid``."""
        X, Y = grid.meshgrid()
        return self(X, Y).ravel()


def analytic_oracle(c: float, m: int, l: float, sigma: float) -> SeparableSolution:
    """Solve the 2x2 system the free-edge conditions impose on (A, B).

    With psi(y) = c/m^4 + A cosh(my) + B y sinh(my), the conditions
    psi'' = sigma m^2 psi and psi''' = (2 - sigma) m^2 psi' at y = l give a
    linear system that is nonsingular for sigma in (0, 1/2), m >= 1, l > 0.
    """
    if m < 1:
        raise ValueError(f"x-frequency m must be a positive integer, got {m}")
    ch, sh = np.cosh(m * l), np.sinh(m * l)
    mat = np.array([
        [m * m * (1 - sigma) * ch, 2 * m * ch + m * m * l * (1 - sigma) * sh],
        [m ** 3 * (sigma - 1) * sh,
         (1 + sigma) * m * m * sh + (sigma - 1) * m ** 3 * l * ch],
    ])
    rhs = np.array([sigma * c / (m * m), 0.0])
    det = float(np.linalg.det(mat))
    if abs(det) < 1e-12 * max(1.0, abs(mat).max() ** 2):
        raise SolveError(
            f"edge-condition system unexpectedly singular (det={det:.3e}) "
            f"for m={m}, l={l}, sigma={sigma}")
    A, B = np.linalg.solve(mat, rhs)
    return SeparableSolution(c=float(c), m=int(m), l=float(l), sigma=float(sigma),
                             A=float(A), B=float(B))
