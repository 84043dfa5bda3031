"""The plate's difference operators and the ``OperatorSet`` that carries them.

Short edges (x = 0, pi) are hinged: u = u_xx = 0.  Long edges (y = -l, l)
are free: u_yy + sigma*u_xx = 0 and u_yyy + (2 - sigma)*u_xxy = 0.  Ghost
nodes outside the rectangle are eliminated with those identities, which
reshapes the stencils in the first two and last two block rows.  Every y
block is c0 I + c1 Lx + c2 Lx^2, so each operator on the flat field is
sum_p kron(C_p, X_p): the C_p are dense (K+2) x (K+2) level matrices, the
X_p sparse J x J x factors, and one assembler, ``_kron_sum``, writes every
operator diagonal by diagonal from the factors' diagonals, straight into
DIA storage (Saad 2003, sec. 3.4).  It reads each factor's diagonals in
one pass over its stored entries (a CSR's ``indptr``, ``indices`` and
``data``, a dense level's nonzeros), already in DIA layout, so each pair
of a level and an x diagonal is one outer product written, or added in
place, into its DIA row.  Each difference map's (levels, x factors) pair
is written once, in one table per plate (``_maps``), from one Lx, one D_x
and one I; ``OperatorSet`` carries it, and ``quarter_maps`` folds it onto
the even-even quarter.  The bilaplacian is one level polynomial
(``_bilaplacian_levels``), evaluated once per plate: its Kronecker sum is
the sparse operator, and the DST-I in x evaluates it at each sine mode's
Lx eigenvalue, one pentadiagonal block per mode, which the trapezoid y
weights make symmetric; ``modal_band`` stacks the blocks' lower bands for
one banded Cholesky factorization.
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


def _banded(n: int, stencil: dict[int, float]) -> sp.csr_matrix:
    """The n x n CSR matrix with the nonzero ``stencil[d]`` on each
    diagonal d, built row by row: sorted column indices, no duplicates
    and no stored zeros, as ``_finalize`` leaves them."""
    offsets = np.array(sorted(stencil))
    cols = np.arange(n)[:, None] + offsets
    inside = (cols >= 0) & (cols < n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    values = np.broadcast_to([stencil[d] for d in offsets.tolist()], cols.shape)
    return sp.csr_matrix((values[inside], cols[inside].astype(np.int32), indptr),
                         shape=(n, n))


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
    return _banded(n, {-1: base, 0: -2.0 * base, 1: base})


def _hinged_d4(lx: sp.csr_matrix) -> sp.csr_matrix:
    """Lx^2, the hinged fourth difference, as the sparse square of the
    second difference ``lx``: at a hinged end both the value and the
    curvature vanish, so the ghost value is the negated mirror of the
    first interior one and the corner diagonal entry becomes 5/h^4."""
    return _finalize(lx @ lx)


def assemble_d4_hinged_1d(n: int, h: float) -> sp.csr_matrix:
    """Fourth difference [1, -4, 6, -4, 1]/h^4 with hinged ends, the
    ``_hinged_d4`` of ``assemble_d2_1d``."""
    if n < 5:
        raise SizingError(f"fourth-difference matrix needs n >= 5, got {n}")
    return _hinged_d4(assemble_d2_1d(n, h))


def _diagonals(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of the square ``matrix``, sparse or dense, in DIA
    layout: the ascending offsets d of the diagonals that hold a stored
    entry (sparse) or a nonzero one (dense), and values[r, j] =
    matrix[j - offsets[r], j], zero where that row lies outside.  One pass
    over the entries: a CSR's ``indptr``, ``indices`` and ``data``, or a
    dense matrix's nonzeros, scattered into one zero-filled array."""
    n = matrix.shape[0]
    if sp.issparse(matrix):
        m = matrix.tocsr()
        rows = np.repeat(np.arange(n), np.diff(m.indptr))
        cols, entries = m.indices, m.data
    else:
        rows, cols = np.divmod(np.flatnonzero(matrix != 0), n)
        entries = matrix[rows, cols]
    shifted = cols - rows + (n - 1)
    present = np.zeros(2 * n - 1, dtype=bool)
    present[shifted] = True
    index = np.cumsum(present) - 1
    values = np.zeros((index[-1] + 1, n))
    # add, as ``diagonal`` does, in case a sparse matrix repeats an entry
    np.add.at(values, (index[shifted], cols), entries)
    return np.flatnonzero(present) - (n - 1), values


def _kron_sum(levels: list, blocks: tuple) -> SparseOperator:
    """sum_p kron(C_p, blocks[p]) on the flat field, from the factors'
    diagonals in DIA layout: entry (k J + i, (k+e) J + i+d) sums the single
    products C_p[k, k+e] blocks[p][i, i+d] in order of p, the bits of
    ``sp.kron`` terms added in order.  That entry's column (k+e) J + i+d
    pairs column k+e of level diagonal e with column i+d of block diagonal
    d, so the outer product of the two is diagonal e J + d of the term,
    already column-aligned: it is written, or added in place, straight into
    that offset's DIA row.  The offsets ascend, since e J + d orders as
    (e, d) for |d| < J.  Entries that sum to exact zeros stay stored;
    ``tocsr`` drops them."""
    n_y, n_x = levels[0].shape[0], blocks[0].shape[0]
    terms = []  # (offset, level diagonal, block diagonal), in order of p
    for level, block in zip(levels, blocks):
        (level_offsets, c), (block_offsets, x) = _diagonals(level), _diagonals(block)
        terms += [(e * n_x + d, c_e, x_d)
                  for e, c_e in zip(level_offsets.tolist(), c)
                  for d, x_d in zip(block_offsets.tolist(), x)]
    offsets = sorted({s for s, _, _ in terms})
    row_of = {s: r for r, s in enumerate(offsets)}
    data = np.empty((len(offsets), n_y, n_x))
    written, product = set(), np.empty((n_y, n_x))
    for s, c_e, x_d in terms:
        row = data[row_of[s]]
        if s in written:
            np.multiply(c_e[:, None], x_d, out=product)
            row += product
        else:
            np.multiply(c_e[:, None], x_d, out=row)
            written.add(s)
    n = n_y * n_x
    return SparseOperator((data.reshape(len(offsets), n),
                           np.array(offsets, dtype=np.int32)), shape=(n, n))


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


def _centered_dx(grid: Grid) -> sp.csr_matrix:
    """Centered first difference of one level, hinged zeros at the ends."""
    off = 1.0 / (2.0 * grid.dx)
    return _banded(grid.J, {-1: -off, 1: off})


def _dy_levels(grid: Grid) -> list[np.ndarray]:
    """Level matrix D_y of the first y-difference, one-sided at the edges."""
    inv_dy = 1.0 / grid.dy
    d_y = _stencil(grid.K + 2, (-0.5 * inv_dy, 0.0, 0.5 * inv_dy), 1)
    d_y[0, :2] = d_y[-1, -2:] = (-inv_dy, inv_dy)
    return [d_y]


def _fold(values: np.ndarray) -> np.ndarray:
    """``values`` times the 1-D fold f of its last axis, n points onto the
    first h = n - n//2, f[i, min(i, n-1-i)] = 1: entry i >= h is added
    into entry n-1-i."""
    h = values.shape[-1] // 2
    out = values[..., :-h].copy()
    out[..., :h] += values[..., :-h - 1:-1]
    return out


def _maps(grid: Grid, sigma: float) -> dict[str, tuple[list, tuple]]:
    """The u_xx, u_yy, u_xy, u_x and u_y maps of ``grid`` at ``sigma``, in
    that order, each as its (level matrices, x factors) pair, the map being
    sum_p kron(C_p, X_p), all from one Lx, one D_x and one I (CSR):
    ``_kron_sum(*pair)`` assembles a map on the flat field, and
    ``quarter_maps`` folds it onto the even-even quarter."""
    eye_y, d_y = [np.eye(grid.K + 2)], _dy_levels(grid)
    eye_x, d_x = sp.identity(grid.J, format="csr"), _centered_dx(grid)
    lx = assemble_d2_1d(grid.J, grid.dx)
    return {"xx": (eye_y, (lx,)), "yy": (_dy2_levels(grid, sigma), (eye_x, lx)),
            "xy": (d_y, (d_x,)), "x": (eye_y, (d_x,)), "y": (d_y, (eye_x,))}


def quarter_maps(grid: Grid, sigma: float) -> tuple[SparseOperator, ...]:
    """The ``_maps`` on the fields even under both flips j -> J+1-j and
    k -> K+1-k, given by their values on the quarter j <= (J+1)/2,
    k <= (K+1)/2 ordered level-fastest (k fastest), which keeps their Gram
    matrices a band (Cuthill & McKee 1969).  The quarter's rows of map
    sum_p kron(C_p, X_p) on those fields are
    sum_p kron((X_p f_x)[:h_x], (C_p f_y)[:h_y]), f the 1-D ``_fold``s."""
    def half(matrix: np.ndarray) -> np.ndarray:
        return _fold(matrix[:len(matrix) - len(matrix) // 2])

    return tuple(_kron_sum([half(x.toarray()) for x in blocks],
                           tuple(half(c) for c in levels))
                 for levels, blocks in _maps(grid, sigma).values())


@dataclass(frozen=True)
class OperatorSet:
    """A run's grid, Poisson ratio and damping collar and the operators
    assembled from them, read by the stepper, the static solve and the
    energy evaluator.  ``band``, read-only, is the bilaplacian's
    ``modal_band``, which the static solve and every
    ``integrator.FactorizedSystem`` factor from; ``maps`` is the plate's
    ``_maps`` table, which ``dxx`` was assembled from and ``assemble``
    assembles the other maps from when a reader needs them."""

    grid: Grid
    sigma: float
    weights: QuadratureWeights
    bilaplacian: SparseOperator
    band: np.ndarray
    dxx: SparseOperator
    maps: dict[str, tuple[list, tuple]]
    damping: DampingField

    def assemble(self, name: str) -> SparseOperator:
        """The map ``name`` ("xx", "yy", "xy", "x" or "y") on the flat field."""
        return _kron_sum(*self.maps[name])


def build_operators(grid: Grid, sigma: float, damping_width: int) -> OperatorSet:
    """Assemble the operators of ``grid`` at ``sigma`` and lay out the
    collar of ``damping_width`` cells (0: no collar) on it: B, on the I and
    Lx of the ``_maps`` table and their ``_hinged_d4``, its ``modal_band``
    and u_xx; ``OperatorSet.assemble`` gives the other maps."""
    maps = _maps(grid, sigma)
    levels = _bilaplacian_levels(grid, sigma)
    eye, lx = maps["yy"][1]
    band = modal_band(grid, levels)
    band.setflags(write=False)
    return OperatorSet(grid=grid, sigma=sigma, weights=build_weights(grid),
                       bilaplacian=_kron_sum(levels, (eye, lx, _hinged_d4(lx))),
                       band=band, dxx=_kron_sum(*maps["xx"]), maps=maps,
                       damping=damping_mask(grid, damping_width))
