"""Discrete rectangle, index flattening, and quadrature weights.

The plate occupies (0, pi) x (-l, l).  The x direction is split into J+1
sub-intervals; the hinged ends x = 0, pi carry identically-zero values and
are eliminated from the unknown vector.  The y direction is split into K+1
sub-intervals and every level k = 0..K+1 is an unknown (free edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParityError, SizingError


@dataclass(frozen=True)
class Grid:
    """Uniform grid with x-fastest flattening: flat = k*J + (j-1)."""

    J: int
    K: int
    l: float
    dx: float
    dy: float
    n_dof: int

    def flatten(self, j: int, k: int) -> int:
        """Flat index of node (j, k) with j in 1..J, k in 0..K+1."""
        return k * self.J + (j - 1)

    @property
    def shape(self) -> tuple[int, int]:
        """(levels, nodes per level) view of a flattened field."""
        return (self.K + 2, self.J)

    def x_interior(self) -> np.ndarray:
        """x coordinates of the unknowns j = 1..J."""
        return np.arange(1, self.J + 1) * self.dx

    def y_levels(self) -> np.ndarray:
        """y coordinates of the levels k = 0..K+1."""
        return -self.l + np.arange(self.K + 2) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape ``grid.shape`` matching the flat layout."""
        return np.meshgrid(self.x_interior(), self.y_levels())


def build_grid(J: int, K: int, l: float) -> Grid:
    """Construct the grid, rejecting sizes the difference stencils cannot fit.

    J is the count of interior x-nodes, K fixes the y-levels 0..K+1, and l
    is the half-width of the plate.
    """
    if J < 5:
        raise SizingError(f"J must be at least 5 (fourth-difference stencil), got {J}")
    if K < 3:
        raise SizingError(f"K must be at least 3 (five y-levels counting ghosts), got {K}")
    if l <= 0:
        raise SizingError(f"half-width l must be positive, got {l}")
    dx = math.pi / (J + 1)
    dy = 2.0 * l / (K + 1)
    return Grid(J=J, K=K, l=float(l), dx=dx, dy=dy, n_dof=J * (K + 2))


@dataclass(frozen=True)
class QuadratureWeights:
    """Quadrature weights over the rectangle.

    ``wy`` holds trapezoid weights for the levels 0..K+1 and sums to 2l.
    ``cell`` holds one weight per unknown (flat layout): ``wy`` times the
    composite-Simpson weights of the x-nodes 0..J+1.  To keep constants
    exactly resolved on the unknown set, the Simpson end weights are folded
    onto the first and last interior nodes; fields that vanish at the
    hinged ends lose only O(dx^2) to the fold.
    """

    wy: np.ndarray
    cell: np.ndarray
    grid: Grid

    def integrate_cells(self, values: np.ndarray) -> float:
        """Integrate a flattened per-unknown field over the rectangle.

        A fixed-order ``np.einsum`` sum: ``np.dot`` goes through threaded
        BLAS at this length, and its bits change with the thread count.
        """
        if values.shape != self.cell.shape:
            raise SizingError(
                f"expected {self.cell.shape[0]} cell values, got {values.shape}"
            )
        return float(np.einsum("i,i->", self.cell, values))


def level_weights(grid: Grid) -> np.ndarray:
    """The trapezoid y weights in units of dy, W_y: exactly 1/2 on the two
    edge levels and 1 inside."""
    weights = np.ones(grid.K + 2)
    weights[0] = weights[-1] = 0.5
    return weights


def build_weights(grid: Grid) -> QuadratureWeights:
    """Simpson weights along x, trapezoid weights along y."""
    if (grid.J + 1) % 2 != 0:
        raise ParityError(
            f"Simpson rule needs an even number of x sub-intervals; "
            f"J + 1 = {grid.J + 1} is odd (choose odd J)"
        )
    wx = np.full(grid.J + 2, 2.0)
    wx[1::2] = 4.0
    wx[0] = wx[-1] = 1.0
    wx *= grid.dx / 3.0

    wy = level_weights(grid) * grid.dy

    wx_dof = wx[1:-1].copy()
    wx_dof[0] += wx[0]
    wx_dof[-1] += wx[-1]
    cell = np.outer(wy, wx_dof).ravel()

    for arr in (wy, cell):
        arr.setflags(write=False)
    return QuadratureWeights(wy=wy, cell=cell, grid=grid)
