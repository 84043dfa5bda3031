"""The plate's difference operators and the ``OperatorSet`` that carries them.

Short edges (x = 0, pi) are hinged: u = u_xx = 0.  Long edges (y = -l, l)
are free: u_yy + sigma*u_xx = 0 and u_yyy + (2 - sigma)*u_xxy = 0.  Ghost
nodes outside the rectangle are eliminated with those identities, which
reshapes the stencils in the first two and last two block rows.  Every y
block is c0 I + c1 Lx + c2 Lx^2, so each operator on the flat field is
sum_p kron(C_p, X_p): the C_p are dense (K+2) x (K+2) level matrices, the
X_p sparse J x J x factors, and one assembler, ``_kron_sum``, writes every
operator diagonal by diagonal from the factors' diagonals, straight into
DIA storage (Saad 2003, sec. 3.4).  The bilaplacian is one level polynomial
(``_bilaplacian_levels``), evaluated once per plate (``assemble_plate``):
its Kronecker sum is the sparse operator, and the DST-I in x evaluates it
at each sine mode's Lx eigenvalue, one pentadiagonal block per mode, which
the trapezoid y weights make symmetric; ``modal_band`` stacks the blocks'
lower bands for one banded Cholesky factorization.  The u_xy map is a
Kronecker sum of the same kind, and ``quarter_maps`` folds every
difference map onto the even-even quarter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SizingError
from .grid import Grid, QuadratureWeights, build_weights, level_weights
from .model import DampingField, damping_mask

# Plate operators are DIA matrices with their diagonals in ascending offset
# order, so ``op @ x`` adds each row's terms in the column order of the CSR
# form, and the explicitly stored zeros leave each sum as it is: the bits of
# ``op.tocsr() @ x``.  The 1-D differences are plain CSR (``_finalize``).
SparseOperator = sp.dia_matrix


def _finalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """``matrix`` as CSR with sorted column indices within each row and no
    explicitly stored zeros."""
    out = sp.csr_matrix(matrix)
    out.sum_duplicates()
    out.sort_indices()
    out.eliminate_zeros()
    return out


def check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < 0.5:
        raise ParameterError(f"Poisson ratio sigma must lie in (0, 1/2), got {sigma}")


def assemble_d2_1d(n: int, h: float) -> sp.csr_matrix:
    """Second difference [1, -2, 1]/h^2 with homogeneous Dirichlet ends."""
    if n < 3:
        raise SizingError(f"second-difference matrix needs n >= 3, got {n}")
    if h <= 0:
        raise SizingError(f"spacing must be positive, got {h}")
    base = 1.0 / (h * h)
    off = np.full(n - 1, base)
    main = np.full(n, -2.0 * base)
    return _finalize(sp.diags([off, main, off], [-1, 0, 1]))


def assemble_d4_hinged_1d(n: int, h: float) -> sp.csr_matrix:
    """Fourth difference [1, -4, 6, -4, 1]/h^4 with hinged ends, formed as
    the sparse square of ``assemble_d2_1d``: at a hinged end both the value
    and the curvature vanish, so the ghost value is the negated mirror of
    the first interior one and the corner diagonal entry becomes 5/h^4.
    """
    if n < 5:
        raise SizingError(f"fourth-difference matrix needs n >= 5, got {n}")
    if h <= 0:
        raise SizingError(f"spacing must be positive, got {h}")
    d2 = assemble_d2_1d(n, h)
    return _finalize(d2 @ d2)


def assemble_dxx(grid: Grid) -> SparseOperator:
    """x second derivative on the flattened field (one block per level)."""
    return _kron_sum([np.eye(grid.K + 2)], (assemble_d2_1d(grid.J, grid.dx),))


def _diagonals(matrix) -> dict[int, np.ndarray]:
    """{d: v, v[i] = matrix[i, i + d] or 0 outside} over the diagonals that
    hold a nonzero entry of ``matrix``, sparse or dense."""
    if sp.issparse(matrix):
        m = sp.csr_matrix(matrix)
        offsets = m.indices - np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    else:
        m = matrix
        rows, cols = np.nonzero(m)
        offsets = cols - rows
    return {d: np.pad(m.diagonal(d), (max(0, -d), max(0, d)))
            for d in np.unique(offsets).tolist()}


def _kron_sum(levels: list, blocks: tuple) -> SparseOperator:
    """sum_p kron(C_p, blocks[p]) on the flat field, from the factors'
    diagonals: entry (k J + i, (k+e) J + i+d) sums the single products
    C_p[k, k+e] blocks[p][i, i+d] in order of p, the bits of ``sp.kron``
    terms added in order.  Each sum over one offset e J + d is one whole
    diagonal, which goes into the DIA data row by one slice shift; the
    offsets ascend, since e J + d orders as (e, d) for |d| < J.  Entries
    that sum to exact zeros stay stored; ``tocsr`` drops them."""
    n_x = blocks[0].shape[0]
    sums: dict[int, np.ndarray] = {}
    for level, block in zip(levels, blocks):
        x_diagonals = _diagonals(block)
        for e, c in _diagonals(level).items():
            for d, x in x_diagonals.items():
                term, key = np.multiply.outer(c, x).ravel(), e * n_x + d
                sums[key] = sums[key] + term if key in sums else term
    offsets = sorted(sums)
    n = len(sums[offsets[0]])
    data = np.zeros((len(offsets), n))
    for row, s in zip(data, offsets):
        # DIA is column-aligned: data[., j] holds entry (j - s, j)
        lo, hi = max(s, 0), n + min(s, 0)
        row[lo:hi] = sums[s][lo - s:hi - s]
    return SparseOperator((data, np.array(offsets, dtype=np.int32)), shape=(n, n))


def _stencil(ny: int, stencil: tuple, edge: int) -> np.ndarray:
    """The ny x ny level matrix with ``stencil`` centered on each row, and
    the ``edge`` rows at either end zero."""
    half = len(stencil) // 2
    out = sum(c * np.eye(ny, k=j - half) for j, c in enumerate(stencil))
    out[:edge] = out[ny - edge:] = 0.0
    return out


def _dy2_levels(grid: Grid, sigma: float) -> list[np.ndarray]:
    """Level matrices T, E of the y second derivative: D_y^2 = kron(T, I)
    + kron(E, Lx).

    Interior levels carry [1, -2, 1]/dy^2.  The free-edge levels return
    the boundary identity u_yy = -sigma*u_xx directly (no 1/dy^2 factor),
    which is what the ghost elimination of the fourth difference consumes.
    """
    check_sigma(sigma)
    ny = grid.K + 2
    inv_dy2 = 1.0 / (grid.dy * grid.dy)
    edges = np.zeros((ny, ny))
    edges[0, 0] = edges[-1, -1] = -sigma
    return [_stencil(ny, (inv_dy2, -2.0 * inv_dy2, inv_dy2), 1), edges]


def assemble_dy2(grid: Grid, sigma: float) -> SparseOperator:
    """y second derivative on the flattened field: kron(T, I) + kron(E, Lx)."""
    blocks = (sp.identity(grid.J), assemble_d2_1d(grid.J, grid.dx))
    return _kron_sum(_dy2_levels(grid, sigma), blocks)


def _edge_rows(sigma: float, dy2: float) -> dict:
    """Ghost-eliminated rows k = 0 and 1 of the y fourth difference, before
    the 1/dy^4 scaling: {(row, level): (I, Lx, Lx^2) coefficients}.  The
    top edge is the mirror image, (K+1-row, K+1-level).

    With Lx the x second derivative, the two closure identities at the
    bottom edge are

        U_{-1} = 2 U_0 - U_1 - sigma dy^2 Lx U_0
        U_{-2} = 2 U_{-1} - 2 U_1 + U_2 + (2 - sigma) dy^2 Lx (U_1 - U_{-1})

    (centered u_yy + sigma u_xx = 0, centered u_yyy + (2 - sigma) u_xxy = 0
    with u_xxy taken as the centered level difference of Lx).  Substituting
    them into [1, -4, 6, -4, 1] at k = 0 and k = 1 gives the rows below.
    """
    return {
        (0, 0): (2.0, (4.0 * sigma - 4.0) * dy2, sigma * (2.0 - sigma) * dy2 * dy2),
        (0, 1): (-4.0, 2.0 * (2.0 - sigma) * dy2, 0.0),
        (0, 2): (2.0, 0.0, 0.0),
        (1, 0): (-2.0, -sigma * dy2, 0.0),
        (1, 1): (5.0, 0.0, 0.0),
        (1, 2): (-4.0, 0.0, 0.0),
        (1, 3): (1.0, 0.0, 0.0),
    }


def _dy4_levels(grid: Grid, sigma: float) -> np.ndarray:
    """Level matrices C_0, C_1, C_2 of the y fourth difference, unscaled:
    D_y^4 = sum_p kron(C_p, Lx^p) / dy^4."""
    check_sigma(sigma)
    ny = grid.K + 2
    levels = np.zeros((3, ny, ny))
    levels[0] = _stencil(ny, (1.0, -4.0, 6.0, -4.0, 1.0), 2)
    for (k, level), c in _edge_rows(sigma, grid.dy * grid.dy).items():
        levels[:, k, level] = levels[:, ny - 1 - k, ny - 1 - level] = c
    return levels


def _bilaplacian_levels(grid: Grid, sigma: float) -> list[np.ndarray]:
    """Level matrices of the bilaplacian, B = sum_p kron(P_p, Lx^p).  With
    D_x^4 = Lx^2 and 2 D_x^2 D_y^2 = 2 kron(T, Lx) + 2 kron(E, Lx^2), they are
    P_0 = C_0/dy^4, P_1 = C_1/dy^4 + 2 T and P_2 = I + C_2/dy^4 + 2 E.  Each
    C_p/dy^4 is C_p * (1/dy^4), whose rounding the pinned operator bits
    carry."""
    dy4 = (grid.dy * grid.dy) * (grid.dy * grid.dy)
    c0, c1, c2 = _dy4_levels(grid, sigma) * (1.0 / dy4)
    t, e = _dy2_levels(grid, sigma)
    return [c0, c1 + 2.0 * t, np.eye(grid.K + 2) + c2 + 2.0 * e]


def assemble_plate(grid: Grid, sigma: float) -> tuple[SparseOperator, np.ndarray]:
    """The bilaplacian and its ``modal_band`` from one evaluation of the
    level polynomial ``_bilaplacian_levels``: B = sum_p kron(P_p, Lx^p),
    with Lx^2 the hinged fourth difference, formed as Lx @ Lx."""
    levels = _bilaplacian_levels(grid, sigma)
    powers = (sp.identity(grid.J), assemble_d2_1d(grid.J, grid.dx),
              assemble_d4_hinged_1d(grid.J, grid.dx))
    return _kron_sum(levels, powers), modal_band(grid, levels)


def assemble_bilaplacian(grid: Grid, sigma: float) -> SparseOperator:
    """Discrete bilaplacian D_x^4 + D_y^4 + 2 D_x^2 D_y^2 on the flat field,
    block pentadiagonal with block size J, as ``assemble_plate`` builds it.
    The cross term uses the boundary-modified y second derivative, so the
    free-edge identities enter every term consistently."""
    return assemble_plate(grid, sigma)[0]


def modal_band(grid: Grid, levels: list[np.ndarray]) -> np.ndarray:
    """The bilaplacian of the level matrices ``levels`` of
    ``_bilaplacian_levels`` in x sine modes, scaled by W_y
    (``level_weights``), as one lower band in LAPACK ``pb`` storage,
    ``band[i - j, j] = M[i, j]``: shape (3, J (K+2)), row d holding the
    d-th subdiagonal, and index (m-1)(K+2) + k holding level k of mode m.
    Diagonals d > 0 are zero where they cross from one mode to the next.

    The orthonormal DST-I diagonalizes Lx, with eigenvalue mu_m = -4/dx^2
    sin^2(m pi / (2(J+1))) on mode m, so mode m's block is the level
    polynomial at mu = mu_m: P_0 + mu P_1 + mu^2 P_2, pentadiagonal in the
    levels.  The discrete plate form is symmetric (D B = B^T D), so W_y P_p
    is symmetric up to the rounding of its entries, and W_y times the block
    is symmetric positive definite; the band holds its lower triangle as the
    mirror of the upper one, read from the diagonals of the P_p.
    """
    n = grid.K + 2
    m = np.arange(1, grid.J + 1)[:, None]
    mu = -4.0 / (grid.dx * grid.dx) * np.sin(m * np.pi / (2.0 * (grid.J + 1))) ** 2
    weights = level_weights(grid)
    band = np.zeros((3, grid.J, n))
    for d in range(3):
        p0, p1, p2 = (np.diagonal(p, d) for p in levels)
        diagonal = mu * p1
        diagonal += p0
        diagonal += mu * mu * p2
        band[d, :, :n - d] = weights[:n - d] * diagonal
    return band.reshape(3, -1)


def _centered_dx(grid: Grid) -> SparseOperator:
    """Centered first difference of one level, hinged zeros at the ends."""
    off = np.full(grid.J - 1, 1.0 / (2.0 * grid.dx))
    return sp.diags([-off, off], [-1, 1])


def _dy_levels(grid: Grid) -> list[np.ndarray]:
    """Level matrix D_y of the first y-difference, one-sided at the edges."""
    inv_dy = 1.0 / grid.dy
    d_y = _stencil(grid.K + 2, (-0.5 * inv_dy, 0.0, 0.5 * inv_dy), 1)
    d_y[0, :2] = d_y[-1, -2:] = (-inv_dy, inv_dy)
    return [d_y]


def cross_derivative_map(grid: Grid) -> SparseOperator:
    """u_xy map kron(D_y, D_x), each entry a single product."""
    return _kron_sum(_dy_levels(grid), (_centered_dx(grid),))


def _fold(values: np.ndarray) -> np.ndarray:
    """``values`` times the 1-D fold f of its last axis, n points onto the
    first h = n - n//2, f[i, min(i, n-1-i)] = 1: entry i >= h is added
    into entry n-1-i."""
    h = values.shape[-1] // 2
    out = values[..., :-h].copy()
    out[..., :h] += values[..., :-h - 1:-1]
    return out


def quarter_maps(grid: Grid, sigma: float) -> tuple[SparseOperator, ...]:
    """The u_xx, u_yy, u_xy, u_x and u_y maps on the fields even under both
    flips j -> J+1-j and k -> K+1-k, given by their values on the quarter
    j <= (J+1)/2, k <= (K+1)/2 ordered level-fastest (k fastest), which
    keeps their Gram matrices a band (Cuthill & McKee 1969).  The quarter's
    rows of map sum_p kron(C_p, X_p) on those fields are
    sum_p kron((X_p f_x)[:h_x], (C_p f_y)[:h_y]), f the 1-D ``_fold``s."""
    def quarter(levels: list, blocks: tuple) -> SparseOperator:
        return _kron_sum([_fold(x[:len(x) - len(x) // 2]) for x in blocks],
                         tuple(_fold(c[:len(c) - len(c) // 2]) for c in levels))

    lx = assemble_d2_1d(grid.J, grid.dx).toarray()
    d_x, d_y = _centered_dx(grid).toarray(), _dy_levels(grid)
    eye_x, eye_y = np.eye(grid.J), [np.eye(grid.K + 2)]
    return (quarter(eye_y, (lx,)), quarter(_dy2_levels(grid, sigma), (eye_x, lx)),
            quarter(d_y, (d_x,)), quarter(eye_y, (d_x,)), quarter(d_y, (eye_x,)))


@dataclass(frozen=True)
class OperatorSet:
    """A run's grid, Poisson ratio and damping collar and the operators
    assembled from them, read by the stepper, the static solve and the
    energy evaluator.  ``band``, read-only, is the bilaplacian's
    ``modal_band``, which the static solve and every
    ``integrator.FactorizedSystem`` factor from."""

    grid: Grid
    sigma: float
    weights: QuadratureWeights
    bilaplacian: SparseOperator
    band: np.ndarray
    dxx: SparseOperator
    damping: DampingField


def build_operators(grid: Grid, sigma: float, damping_width: int) -> OperatorSet:
    """Assemble the operators of ``grid`` at ``sigma`` and lay out the
    collar of ``damping_width`` cells (0: no collar) on it."""
    bilaplacian, band = assemble_plate(grid, sigma)
    band.setflags(write=False)
    return OperatorSet(grid=grid, sigma=sigma, weights=build_weights(grid),
                       bilaplacian=bilaplacian, band=band,
                       dxx=assemble_dxx(grid),
                       damping=damping_mask(grid, damping_width))
