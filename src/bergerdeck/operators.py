"""Sparse difference operators for the plate bilaplacian.

Short edges (x = 0, pi) are hinged: u = u_xx = 0.  Long edges (y = -l, l)
are free: u_yy + sigma*u_xx = 0 and u_yyy + (2 - sigma)*u_xxy = 0.  Ghost
nodes outside the rectangle are eliminated with those identities, which
reshapes the stencils in the first two and last two block rows.  Every y
block is c0 I + c1 Lx + c2 Lx^2, so each y operator is sum_p kron(C_p, Lx^p),
and the DST-I in x turns the bilaplacian into one small block per sine mode
(``modal_blocks``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SizingError
from .grid import Grid

# Operators are plain CSR matrices: sorted column indices within each row,
# no explicitly stored zeros.
SparseOperator = sp.csr_matrix


def _finalize(matrix: sp.spmatrix) -> SparseOperator:
    out = sp.csr_matrix(matrix)
    out.sum_duplicates()
    out.sort_indices()
    out.eliminate_zeros()
    return out


def check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < 0.5:
        raise ParameterError(f"Poisson ratio sigma must lie in (0, 1/2), got {sigma}")


def assemble_d2_1d(n: int, h: float) -> SparseOperator:
    """Second difference [1, -2, 1]/h^2 with homogeneous Dirichlet ends."""
    if n < 3:
        raise SizingError(f"second-difference matrix needs n >= 3, got {n}")
    if h <= 0:
        raise SizingError(f"spacing must be positive, got {h}")
    base = 1.0 / (h * h)
    off = np.full(n - 1, base)
    main = np.full(n, -2.0 * base)
    return _finalize(sp.diags([off, main, off], [-1, 0, 1]))


def assemble_d4_hinged_1d(n: int, h: float) -> SparseOperator:
    """Fourth difference [1, -4, 6, -4, 1]/h^4 with hinged ends.

    At a hinged end both the value and the curvature vanish, so the ghost
    value is the negated mirror of the first interior one and the corner
    diagonal entry becomes 5/h^4.
    """
    if n < 5:
        raise SizingError(f"fourth-difference matrix needs n >= 5, got {n}")
    if h <= 0:
        raise SizingError(f"spacing must be positive, got {h}")
    base = 1.0 / (h * h)
    a = base * base
    # accumulate entries exactly as the sparse self-product of the second
    # difference does, so D4 == D2 @ D2 holds entrywise in floating point
    five = a + 4.0 * a
    six = (a + 4.0 * a) + a
    four = -2.0 * a + -2.0 * a
    main = np.full(n, six)
    main[0] = main[-1] = five
    off1 = np.full(n - 1, four)
    off2 = np.full(n - 2, a)
    return _finalize(sp.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2]))


def assemble_dxx(grid: Grid) -> SparseOperator:
    """x second derivative on the flattened field (one block per level)."""
    lx = assemble_d2_1d(grid.J, grid.dx)
    eye = sp.identity(grid.K + 2, format="csr")
    return _finalize(sp.kron(eye, lx, format="csr"))


def _level_matrices(ny: int, rows: dict) -> list[sp.coo_matrix]:
    """Split ``{(k, l): (c_0, c_1, ...)}`` into ny x ny level matrices C_p
    with C_p[k, l] = c_p; zero coefficients are not stored."""
    keys = np.array(list(rows))
    coeffs = np.array(list(rows.values()))
    return [sp.coo_matrix((c[c != 0.0], tuple(keys[c != 0.0].T)), shape=(ny, ny))
            for c in coeffs.T]


def _kron_sum(levels: list, blocks: tuple) -> SparseOperator:
    """sum_p kron(C_p, blocks[p]) on the flat field, added in order of p."""
    terms = [sp.kron(c, b, format="csr") for c, b in zip(levels, blocks)]
    return sum(terms[1:], terms[0])


def _band(levels: range, stencil: tuple) -> dict:
    """``stencil`` centered on each row k in ``levels``: {(k, l): coefficient}."""
    half = len(stencil) // 2
    return {(k, k + j - half): c for k in levels for j, c in enumerate(stencil)}


def _dy2_levels(grid: Grid, sigma: float) -> list[sp.coo_matrix]:
    """Level matrices T, E of the y second derivative: D_y^2 = kron(T, I)
    + kron(E, Lx).

    Interior levels carry [1, -2, 1]/dy^2.  The free-edge levels return
    the boundary identity u_yy = -sigma*u_xx directly (no 1/dy^2 factor),
    which is what the ghost elimination of the fourth difference consumes.
    """
    check_sigma(sigma)
    ny = grid.K + 2
    inv_dy2 = 1.0 / (grid.dy * grid.dy)
    rows = _band(range(1, ny - 1),
                 ((inv_dy2, 0.0), (-2.0 * inv_dy2, 0.0), (inv_dy2, 0.0)))
    rows[0, 0] = rows[ny - 1, ny - 1] = (0.0, -sigma)
    return _level_matrices(ny, rows)


def assemble_dy2(grid: Grid, sigma: float) -> SparseOperator:
    """y second derivative on the flattened field: kron(T, I) + kron(E, Lx)."""
    blocks = (sp.identity(grid.J, format="csr"), assemble_d2_1d(grid.J, grid.dx))
    return _finalize(_kron_sum(_dy2_levels(grid, sigma), blocks))


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


def _dy4_levels(grid: Grid, sigma: float) -> list[sp.coo_matrix]:
    """Level matrices C_0, C_1, C_2 of the y fourth difference, unscaled:
    D_y^4 = sum_p kron(C_p, Lx^p) / dy^4."""
    check_sigma(sigma)
    ny = grid.K + 2
    rows = _band(range(2, ny - 2),
                 tuple((c, 0.0, 0.0) for c in (1.0, -4.0, 6.0, -4.0, 1.0)))
    for (k, level), c in _edge_rows(sigma, grid.dy * grid.dy).items():
        rows[k, level] = rows[ny - 1 - k, ny - 1 - level] = c
    return _level_matrices(ny, rows)


def assemble_dy4(grid: Grid, sigma: float) -> SparseOperator:
    """y fourth difference with free-edge ghost levels eliminated."""
    lx = assemble_d2_1d(grid.J, grid.dx)
    blocks = (sp.identity(grid.J, format="csr"), lx, lx @ lx)
    dy4 = (grid.dy * grid.dy) * (grid.dy * grid.dy)
    return _finalize(_kron_sum(_dy4_levels(grid, sigma), blocks) / dy4)


def assemble_bilaplacian(grid: Grid, sigma: float) -> SparseOperator:
    """Discrete bilaplacian D_x^4 + D_y^4 + 2 D_x^2 D_y^2 on the flat field.

    Block pentadiagonal of size n_dof x n_dof with block size J.  The cross
    term uses the boundary-modified y second derivative, so the free-edge
    identities enter every term consistently.
    """
    eye_y = sp.identity(grid.K + 2, format="csr")
    dx4 = sp.kron(eye_y, assemble_d4_hinged_1d(grid.J, grid.dx), format="csr")
    dy4 = assemble_dy4(grid, sigma)
    dxx = assemble_dxx(grid)
    dy2 = assemble_dy2(grid, sigma)
    return _finalize(dx4 + dy4 + 2.0 * (dxx @ dy2))


def modal_blocks(grid: Grid, sigma: float) -> np.ndarray:
    """The bilaplacian in x sine modes: shape (J, K+2, K+2), block m - 1
    acting on the y levels of mode m.

    Every y block of the bilaplacian is a polynomial in Lx.  The orthonormal
    DST-I diagonalizes Lx, with eigenvalue mu_m = -4/dx^2 sin^2(m pi /
    (2(J+1))) on mode m, so with mu = mu_m block m is

        mu^2 I + (C_0 + mu C_1 + mu^2 C_2) / dy^4 + 2 mu T + 2 mu^2 E

    (D_x^4 = Lx^2, the D_y^4 level factors C_p, the D_y^2 factors T, E).
    """
    ny = grid.K + 2
    c0, c1, c2 = (c.toarray() for c in _dy4_levels(grid, sigma))
    t, e = (c.toarray() for c in _dy2_levels(grid, sigma))
    m = np.arange(1, grid.J + 1)[:, None, None]
    mu = -4.0 / (grid.dx * grid.dx) * np.sin(m * np.pi / (2.0 * (grid.J + 1))) ** 2
    dy4 = (grid.dy * grid.dy) * (grid.dy * grid.dy)
    # summed in place, in the order written above: one (J, ny, ny) temporary
    blocks = mu * c1
    blocks += c0
    blocks += mu * mu * c2
    blocks /= dy4
    blocks += mu * mu * np.eye(ny)
    blocks += 2.0 * mu * t
    blocks += 2.0 * mu * mu * e
    return blocks


def free_edge_shorthand_coefficients(sigma: float, dy: float) -> tuple[float, float]:
    """The compact (sigma1, sigma2) constants of the two-coefficient
    shorthand for the free-edge blocks:

        sigma1 = dy^2 (2 sigma - 3 (2 - sigma)),   sigma2 = dy^2 (2 - sigma)
    """
    dy2 = dy * dy
    return dy2 * (2.0 * sigma - 3.0 * (2.0 - sigma)), dy2 * (2.0 - sigma)


def free_edge_stencil_report(grid: Grid, sigma: float) -> list[dict]:
    """Compare the ghost-eliminated edge blocks with the compact
    sigma1/sigma2 shorthand.

    Each entry describes one (row level, column level, term) coefficient of
    the unscaled fourth-difference blocks, where ``term`` is the multiple of
    I, Lx, or Lx^2 (Lx the x second derivative).  Blocks whose derived
    coefficient deviates from the shorthand are flagged ``match=False``;
    the shorthand's row k = 1 agrees with the derivation, its row k = 0
    does not.
    """
    check_sigma(sigma)
    dy2 = grid.dy * grid.dy
    sigma1, sigma2 = free_edge_shorthand_coefficients(sigma, grid.dy)
    derived = _edge_rows(sigma, dy2)
    shorthand = {
        (0, 0): (2.0, sigma1, 0.0),
        (0, 1): (-4.0, 4.0 * sigma2, 0.0),
        (0, 2): (2.0, -sigma2, 0.0),
        (1, 0): (-2.0, -sigma * dy2, 0.0),
        (1, 1): (5.0, 0.0, 0.0),
        (1, 2): (-4.0, 0.0, 0.0),
        (1, 3): (1.0, 0.0, 0.0),
    }
    report = []
    for key in sorted(derived):
        for slot, term in enumerate(("I", "Lx", "Lx^2")):
            d, s = derived[key][slot], shorthand[key][slot]
            report.append({
                "row": key[0],
                "col": key[1],
                "term": term,
                "derived": d,
                "shorthand": s,
                "match": d == s,
            })
    return report
