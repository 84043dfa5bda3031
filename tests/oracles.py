"""Independent reference implementations used as test oracles.

Most are built with plain dense numpy and literal loops so the sparse
production assembly is checked against a second, structurally different
derivation; others are the plain forms that a faster library path
replaced, and the rest are operators, reports and decay-law theory (the
concave majorant h and the family predicted from a feedback) that only
tests read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bergerdeck import (FeedbackKind, PlateFormEvaluator, build_operators,
                        build_weights, stretch_integral)
from bergerdeck.decaylaw import (AlgebraicInfinityLaw, AlgebraicOriginLaw,
                                 DecayLaw, ExponentialLaw, LogarithmicLaw)
from bergerdeck.errors import (BergerdeckError, ConfigError, ParameterError,
                               ShapeError, SizingError)
from bergerdeck.grid import Grid, QuadratureWeights
from bergerdeck.operators import (SparseOperator, _bilaplacian_levels,
                                  _dy2_levels, _dy4_levels, _edge_rows,
                                  _finalize, _kron_sum, _maps,
                                  assemble_d2_1d, check_sigma)


def dense_lx(J: int, dx: float) -> np.ndarray:
    out = np.zeros((J, J))
    for i in range(J):
        out[i, i] = -2.0
        if i > 0:
            out[i, i - 1] = 1.0
        if i < J - 1:
            out[i, i + 1] = 1.0
    return out / dx ** 2


def dense_d4_hinged(J: int, dx: float) -> np.ndarray:
    lx = dense_lx(J, dx)
    return lx @ lx  # u = u_xx = 0 at the ends makes the square exact


def dense_dy2(J: int, K: int, l: float, sigma: float) -> np.ndarray:
    dx = math.pi / (J + 1)
    dy = 2.0 * l / (K + 1)
    ny = K + 2
    lx = dense_lx(J, dx)
    n = J * ny
    out = np.zeros((n, n))
    for k in range(ny):
        rows = slice(k * J, (k + 1) * J)
        if k in (0, ny - 1):
            out[rows, rows] = -sigma * lx
        else:
            out[rows, (k - 1) * J:k * J] = np.eye(J) / dy ** 2
            out[rows, rows] = -2.0 * np.eye(J) / dy ** 2
            out[rows, (k + 1) * J:(k + 2) * J] = np.eye(J) / dy ** 2
    return out


def dense_dy4(J: int, K: int, l: float, sigma: float) -> np.ndarray:
    """Fourth y-difference by symbolic ghost elimination on dense blocks.

    Start from the centered stencil over levels k-2..k+2, expressed as
    per-level JxJ coefficient blocks, then substitute the ghost levels:

        U_{-1}  = G1 U_0 - U_1,           G1 = 2 I - sigma dy^2 Lx
        U_{-2}  = (2I - H) U_{-1} + (H - 2I) U_1 + U_2,
                                          H = (2 - sigma) dy^2 Lx

    and the mirrored identities above the top edge.
    """
    dx = math.pi / (J + 1)
    dy = 2.0 * l / (K + 1)
    ny = K + 2
    lx = dense_lx(J, dx)
    eye = np.eye(J)
    g1 = 2.0 * eye - sigma * dy ** 2 * lx
    hmat = (2.0 - sigma) * dy ** 2 * lx

    def eliminated(level: int, coeff: np.ndarray, acc: dict):
        """Fold coeff @ U_level into real levels of the accumulator."""
        if 0 <= level <= ny - 1:
            acc[level] = acc.get(level, 0) + coeff
            return
        if level == -1:
            eliminated(0, coeff @ g1, acc)
            eliminated(1, -coeff, acc)
            return
        if level == -2:
            eliminated(-1, coeff @ (2.0 * eye - hmat), acc)
            eliminated(1, coeff @ (hmat - 2.0 * eye), acc)
            eliminated(2, coeff, acc)
            return
        if level == ny:  # mirrored first ghost above the top edge
            eliminated(ny - 1, coeff @ g1, acc)
            eliminated(ny - 2, -coeff, acc)
            return
        if level == ny + 1:  # mirrored second ghost
            eliminated(ny, coeff @ (2.0 * eye - hmat), acc)
            eliminated(ny - 2, coeff @ (hmat - 2.0 * eye), acc)
            eliminated(ny - 3, coeff, acc)
            return
        raise AssertionError(f"unexpected ghost level {level}")

    n = J * ny
    out = np.zeros((n, n))
    stencil = {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}
    for k in range(ny):
        acc: dict[int, np.ndarray] = {}
        for offset, value in stencil.items():
            eliminated(k + offset, value * eye, acc)
        for level, block in acc.items():
            out[k * J:(k + 1) * J, level * J:(level + 1) * J] += block
    return out / dy ** 4


def dense_bilaplacian(J: int, K: int, l: float, sigma: float) -> np.ndarray:
    dx = math.pi / (J + 1)
    ny = K + 2
    dxx = np.kron(np.eye(ny), dense_lx(J, dx))
    dx4 = np.kron(np.eye(ny), dense_d4_hinged(J, dx))
    return dx4 + dense_dy4(J, K, l, sigma) + 2.0 * dxx @ dense_dy2(J, K, l, sigma)


def dense_stretch(U: np.ndarray, J: int, K: int, l: float) -> float:
    """q_D = -<U, D_x^2 U>_D summed by parts: dx times the squared forward
    difference on each of a level's J+1 cells (hinged ends zero), weighted
    by the trapezoid y weights."""
    dx = math.pi / (J + 1)
    dy = 2.0 * l / (K + 1)
    padded = np.zeros((K + 2, J + 2))
    padded[:, 1:-1] = U.reshape(K + 2, J)
    fwd = (padded[:, 1:] - padded[:, :-1]) / dx
    wy = np.full(K + 2, dy)
    wy[0] = wy[-1] = dy / 2.0
    return float(wy @ (fwd * fwd).sum(axis=1)) * dx


def level_dot_stretch(U: np.ndarray, uxx: np.ndarray, weights) -> float:
    """Per-level reference for ``model.stretch_integral``: one ``np.dot``
    of U against u_xx on each level, weighted by that level's ``wy``, then
    ``math.fsum`` and the factor -dx."""
    grid = weights.grid
    u2, uxx2 = U.reshape(grid.shape), uxx.reshape(grid.shape)
    return -grid.dx * math.fsum(float(weights.wy[k]) * float(np.dot(u2[k], uxx2[k]))
                                for k in range(grid.K + 2))


def dense_step(u_curr: np.ndarray, u_prev: np.ndarray, J: int, K: int,
               l: float, sigma: float, P: float, S: float, dt: float,
               a: np.ndarray, g) -> np.ndarray:
    """Dense direct-solve reference for one time step."""
    ny = K + 2
    dx = math.pi / (J + 1)
    A = dense_bilaplacian(J, K, l, sigma)
    dxx = np.kron(np.eye(ny), dense_lx(J, dx))
    n = J * ny
    M = np.eye(n) + 0.5 * dt * dt * A
    phi = -P + S * dense_stretch(u_curr, J, K, l)
    v = (u_curr - u_prev) / dt
    rhs = 2.0 * u_curr - u_prev - 0.5 * dt * dt * (A @ u_curr) \
        - dt * dt * (phi * (dxx @ u_curr) + a * g(v))
    return np.linalg.solve(M, rhs)


def dense_bootstrap(u0: np.ndarray, v0: np.ndarray, J: int, K: int, l: float,
                    sigma: float, P: float, S: float, dt: float,
                    a: np.ndarray, g) -> np.ndarray:
    ny = K + 2
    dx = math.pi / (J + 1)
    A = dense_bilaplacian(J, K, l, sigma)
    dxx = np.kron(np.eye(ny), dense_lx(J, dx))
    phi = -P + S * dense_stretch(u0, J, K, l)
    accel = -(A @ u0) - phi * (dxx @ u0) - a * g(v0)
    return u0 + dt * v0 + 0.5 * dt * dt * accel


def observed_orders(errors: list[float]) -> list[float]:
    """log2 ratios of consecutive errors under grid doubling."""
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def dump_snapshot_per_node(U: np.ndarray, grid: Grid, path: str) -> None:
    """Per-node reference for ``cli.dump_snapshot``: three ``.17g``
    formats per row, coordinates read from the arrays each time."""
    if U.shape != (grid.n_dof,):
        raise ShapeError(f"expected field of length {grid.n_dof}, got {U.shape}")
    xs = grid.x_interior()
    ys = grid.y_levels()
    u2 = U.reshape(grid.shape)
    lines = ["k,j,x,y,value"]
    for k in range(grid.K + 2):
        for j in range(1, grid.J + 1):
            lines.append(f"{k},{j},{xs[j - 1]:.17g},{ys[k]:.17g},{u2[k, j - 1]:.17g}")
    try:
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write snapshot {path!r}: {exc}") from exc


def berger_coefficient(U: np.ndarray, weights, P: float, S: float) -> float:
    """Nonlocal coefficient -P + S q_D, with u_xx from ``dense_lx``."""
    grid = weights.grid
    uxx = U.reshape(grid.shape) @ dense_lx(grid.J, grid.dx).T
    return -P + S * stretch_integral(U, uxx.ravel(), weights)


def gradient_maps(grid: Grid) -> tuple[SparseOperator, SparseOperator]:
    """The package's u_x and u_y maps, kron(I, D_x) and kron(D_y, I)
    (``OperatorSet.assemble``); neither depends on sigma."""
    ops = build_operators(grid, 0.2, 0)
    return ops.assemble("x"), ops.assemble("y")


def parity_fold(grid: Grid) -> sp.csr_matrix:
    """The fields even under both flips j -> J+1-j and k -> K+1-k, given
    by their values on the quarter j <= (J+1)/2, k <= (K+1)/2: the 0/1
    map F from the quarter to the flat layout, node (k, j) read from the
    quarter node (min(k, K+1-k), min(j, J+1-j)), the quarter ordered
    level-fastest (k fastest) as ``operators.quarter_maps`` orders it."""
    ny, J = grid.K + 2, grid.J
    k, j = np.arange(ny), np.arange(J)
    quarter = np.minimum(j, J - 1 - j)[None, :] * (ny - ny // 2) \
        + np.minimum(k, ny - 1 - k)[:, None]
    return _finalize(sp.csr_matrix(
        (np.ones(grid.n_dof), (np.arange(grid.n_dof), quarter.ravel())),
        shape=(grid.n_dof, (ny - ny // 2) * (J - J // 2))))


def hstar_gram(grid: Grid, sigma: float,
               weights: QuadratureWeights) -> sp.csr_matrix:
    """Gram matrix of the plate form: U^T A U = quadrature of F(u,u)."""
    W = sp.diags(weights.cell)
    ops = build_operators(grid, sigma, 0)
    sxx, syy, sxy = ops.dxx, ops.assemble("yy"), ops.assemble("xy")
    A = sxx.T @ W @ sxx + syy.T @ W @ syy \
        + sigma * (sxx.T @ W @ syy + syy.T @ W @ sxx) \
        + 2.0 * (1.0 - sigma) * (sxy.T @ W @ sxy)
    return _finalize(A)


def gradient_gram(grid: Grid, weights: QuadratureWeights) -> sp.csr_matrix:
    """Gram matrix of the Dirichlet gradient: U^T B U = quadrature of |grad u|^2."""
    W = sp.diags(weights.cell)
    sx, sy = gradient_maps(grid)
    return _finalize(sx.T @ W @ sx + sy.T @ W @ sy)


def gradient_integral(U: np.ndarray, weights: QuadratureWeights) -> float:
    """Quadrature of |grad u|^2 on the full grid, the form of
    ``gradient_gram``."""
    sx, sy = gradient_maps(weights.grid)
    ux, uy = sx @ U, sy @ U
    return weights.integrate_cells(ux * ux + uy * uy)


def folded_grams(grid: Grid, sigma: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(F^T A F, F^T B F): the plate and gradient Gram matrices folded onto
    the even-even quarter by F = ``parity_fold(grid)``, the pencil
    ``energy.lambda1_estimate`` factored before it assembled its own from
    the quarter's difference maps."""
    weights = build_weights(grid)
    fold = parity_fold(grid)
    return (_finalize(fold.T @ hstar_gram(grid, sigma, weights) @ fold),
            _finalize(fold.T @ gradient_gram(grid, weights) @ fold))


def full_grid_lambda1(grid, sigma: float) -> float:
    """Inverse power iteration on the full-grid pencil A x = lambda B x
    from the constant field, with the Rayleigh quotient taken by
    quadrature (``form_value`` over ``gradient_integral``) and stopped
    when it is stationary to 1e-8 relative: the reference for the
    parity-folded ``energy.lambda1_estimate``."""
    weights = build_weights(grid)
    A = hstar_gram(grid, sigma, weights)
    B = gradient_gram(grid, weights)
    form = PlateFormEvaluator(build_operators(grid, sigma, 0))
    lu = spla.splu(sp.csc_matrix(A))
    x = np.ones(grid.n_dof)
    x /= np.linalg.norm(x)
    rho_prev = math.inf
    for _ in range(500):
        x = lu.solve(B @ x)
        x /= np.linalg.norm(x)
        rho = form.form_value(x) / gradient_integral(x, weights)
        if abs(rho - rho_prev) <= 1e-8 * abs(rho):
            return rho
        rho_prev = rho
    raise AssertionError("full-grid iteration did not settle in 500 sweeps")


def folded_splu(A: sp.csr_matrix):
    """``splu`` of the folded plate Gram matrix (``energy.QuarterPencil``'s
    ``A``) with the symmetric MMD ordering and no pivoting that
    ``lambda1_estimate`` used before its banded Cholesky factor: the
    reference for ``_direct.BandCholesky`` on that matrix."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def band_matrix(band: np.ndarray) -> sp.csr_matrix:
    """The sparse symmetric matrix M a lower band in LAPACK ``pb`` storage
    defines, ``band[i - j, j] = M[i, j]``: subdiagonal and superdiagonal d
    both read row d of the band (``operators.modal_band``,
    ``_direct.lower_band``)."""
    kd, n = band.shape[0] - 1, band.shape[1]
    offsets = list(range(-kd, kd + 1))
    diagonals = [band[abs(d), :n - abs(d)] for d in offsets]
    return sp.diags(diagonals, offsets, shape=(n, n), format="csr")


def assemble_dy4(grid: Grid, sigma: float) -> sp.csr_matrix:
    """y fourth difference with free-edge ghost levels eliminated."""
    lx = assemble_d2_1d(grid.J, grid.dx)
    blocks = (sp.identity(grid.J, format="csr"), lx, lx @ lx)
    dy4 = (grid.dy * grid.dy) * (grid.dy * grid.dy)
    return _finalize(_kron_sum(_dy4_levels(grid, sigma), blocks) / dy4)


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


def _band(levels: range, stencil: tuple) -> dict:
    """``stencil`` centered on each row k in ``levels``: {(k, l): coefficient}."""
    half = len(stencil) // 2
    return {(k, k + j - half): c for k in levels for j, c in enumerate(stencil)}


def _level_matrices(ny: int, rows: dict) -> list[sp.coo_matrix]:
    """Split ``{(k, l): (c_0, c_1, ...)}`` into ny x ny level matrices C_p
    with C_p[k, l] = c_p; zero coefficients are not stored."""
    keys = np.array(list(rows))
    coeffs = np.array(list(rows.values()))
    return [sp.coo_matrix((c[c != 0.0], tuple(keys[c != 0.0].T)), shape=(ny, ny))
            for c in coeffs.T]


def sparse_dy2_levels(grid: Grid, sigma: float) -> list[sp.coo_matrix]:
    """T and E of ``operators._dy2_levels`` as coefficient dicts split into
    COO matrices: the construction the plain-array one replaced."""
    ny = grid.K + 2
    inv_dy2 = 1.0 / (grid.dy * grid.dy)
    rows = _band(range(1, ny - 1),
                 ((inv_dy2, 0.0), (-2.0 * inv_dy2, 0.0), (inv_dy2, 0.0)))
    rows[0, 0] = rows[ny - 1, ny - 1] = (0.0, -sigma)
    return _level_matrices(ny, rows)


def sparse_dy4_levels(grid: Grid, sigma: float) -> list[sp.coo_matrix]:
    """C_0, C_1, C_2 of ``operators._dy4_levels``, built as COO matrices."""
    ny = grid.K + 2
    rows = _band(range(2, ny - 2),
                 tuple((c, 0.0, 0.0) for c in (1.0, -4.0, 6.0, -4.0, 1.0)))
    for (k, level), c in _edge_rows(sigma, grid.dy * grid.dy).items():
        rows[k, level] = rows[ny - 1 - k, ny - 1 - level] = c
    return _level_matrices(ny, rows)


def sparse_bilaplacian_levels(grid: Grid, sigma: float) -> list[sp.csr_matrix]:
    """P_0, P_1, P_2 of ``operators._bilaplacian_levels`` in scipy CSR
    arithmetic on the COO levels."""
    dy4 = (grid.dy * grid.dy) * (grid.dy * grid.dy)
    c0, c1, c2 = (c.tocsr() / dy4 for c in sparse_dy4_levels(grid, sigma))
    t, e = sparse_dy2_levels(grid, sigma)
    return [c0, c1 + 2.0 * t, sp.identity(grid.K + 2, format="csr") + c2 + 2.0 * e]


def sparse_dy_levels(grid: Grid) -> list[sp.coo_matrix]:
    """The level matrix D_y of the first y-difference, built as COO."""
    ny = grid.K + 2
    inv_dy = 1.0 / grid.dy
    rows = _band(range(1, ny - 1), ((-0.5 * inv_dy,), (0.0,), (0.5 * inv_dy,)))
    rows[0, 0] = rows[ny - 1, ny - 2] = (-inv_dy,)
    rows[0, 1] = rows[ny - 1, ny - 1] = (inv_dy,)
    return _level_matrices(ny, rows)


def kron_sum(levels: list, blocks: tuple) -> sp.csr_matrix:
    """sum_p kron(C_p, blocks[p]) as one ``sp.kron`` per term, CSR additions
    in order of p, then ``_finalize``: the plain Kronecker-sum assembly, the
    reference for the package's diagonal-wise one."""
    terms = [sp.kron(c, b, format="csr") for c, b in zip(levels, blocks)]
    return _finalize(sum(terms[1:], terms[0]))


def _kron_factors(grid: Grid) -> tuple:
    """The 1-D factors eye_x, eye_y, Lx, D_x (CSR) and the level matrix D_y
    (dense, by loops) that ``kron_operators`` and ``kron_quarter_maps``
    assemble from."""
    ny, J = grid.K + 2, grid.J
    eye_x, eye_y = sp.identity(J, format="csr"), sp.identity(ny, format="csr")
    lx = assemble_d2_1d(J, grid.dx)
    off = np.full(J - 1, 1.0 / (2.0 * grid.dx))
    d1 = sp.diags([-off, off], [-1, 1], format="csr")
    inv_dy = 1.0 / grid.dy
    dy1 = np.zeros((ny, ny))
    for k in range(1, ny - 1):
        dy1[k, k - 1], dy1[k, k + 1] = -0.5 * inv_dy, 0.5 * inv_dy
    dy1[0, 0] = dy1[ny - 1, ny - 2] = -inv_dy
    dy1[0, 1] = dy1[ny - 1, ny - 1] = inv_dy
    return eye_x, eye_y, lx, d1, dy1


def kron_operators(grid: Grid, sigma: float) -> dict[str, sp.csr_matrix]:
    """Every Kronecker-sum operator of ``grid`` at ``sigma``, assembled by
    ``kron_sum`` from the 1-D factors: bilaplacian, dy2, dxx, the x and y
    first-difference maps and the u_xy map kron(D_y, D_x)."""
    eye_x, eye_y, lx, d1, dy1 = _kron_factors(grid)
    x_map = kron_sum([eye_y], (d1,))
    y_map = kron_sum([sp.csr_matrix(dy1)], (eye_x,))
    return {
        "bilaplacian": kron_sum(_bilaplacian_levels(grid, sigma, _maps(grid, sigma)),
                                (eye_x, lx, lx @ lx)),
        "dy2": kron_sum(_dy2_levels(grid, sigma), (eye_x, lx)),
        "dxx": kron_sum([eye_y], (lx,)),
        "x_map": x_map,
        "y_map": y_map,
        "cross_map": _finalize(y_map @ x_map),
    }


def fold_half(matrix) -> np.ndarray:
    """(M f)[:h] by loops: the first h = n - n//2 rows of ``matrix`` with
    column c added into column min(c, n-1-c)."""
    m = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    n = m.shape[1]
    h = n - n // 2
    out = np.zeros((h, h))
    for i in range(h):
        for c in range(n):
            out[i, min(c, n - 1 - c)] += m[i, c]
    return out


def kron_quarter_maps(grid: Grid, sigma: float) -> dict[str, sp.csr_matrix]:
    """The u_xx, u_yy, u_xy, u_x and u_y maps of ``operators.quarter_maps``
    by ``kron_sum`` of the folded 1-D factors, the x factor outer:
    sum_p kron(fold_half(X_p), fold_half(C_p))."""
    eye_x, eye_y, lx, d1, dy1 = _kron_factors(grid)

    def quarter(levels: list, blocks: tuple) -> sp.csr_matrix:
        return kron_sum([fold_half(x) for x in blocks],
                        tuple(fold_half(c) for c in levels))

    return {
        "quarter_xx": quarter([eye_y], (lx,)),
        "quarter_yy": quarter(_dy2_levels(grid, sigma), (eye_x, lx)),
        "quarter_xy": quarter([dy1], (d1,)),
        "quarter_x": quarter([eye_y], (d1,)),
        "quarter_y": quarter([dy1], (eye_x,)),
    }


def x_all(grid: Grid) -> np.ndarray:
    """x coordinates of every node j = 0..J+1, hinged ends included."""
    return np.arange(grid.J + 2) * grid.dx


def simpson_x_weights(grid: Grid) -> np.ndarray:
    """Composite-Simpson weights of the x-nodes 0..J+1 (odd J); they sum
    to pi, and ``build_weights`` folds their ends into its cell weights."""
    wx = np.full(grid.J + 2, 2.0)
    wx[1::2] = 4.0
    wx[0] = wx[-1] = 1.0
    return wx * (grid.dx / 3.0)


def integrate_x(grid: Grid, values: np.ndarray) -> float:
    """Integrate samples given on all x-nodes 0..J+1 over (0, pi)."""
    wx = simpson_x_weights(grid)
    if values.shape != wx.shape:
        raise SizingError(f"expected {wx.shape[0]} x-samples, got {values.shape}")
    return float(np.dot(wx, values))


def profile_derivative(solution, y, order: int):
    """Derivative of order 1-4 of a ``SeparableSolution``'s y-profile
    c/m^4 + A cosh(my) + B y sinh(my)."""
    m, A, B = solution.m, solution.A, solution.B
    y = np.asarray(y, dtype=float)
    ch, sh = np.cosh(m * y), np.sinh(m * y)
    if order == 1:
        return A * m * sh + B * (sh + m * y * ch)
    if order == 2:
        return A * m * m * ch + B * (2 * m * ch + m * m * y * sh)
    if order == 3:
        return A * m ** 3 * sh + B * (3 * m * m * sh + m ** 3 * y * ch)
    if order == 4:
        return A * m ** 4 * ch + B * (4 * m ** 3 * ch + m ** 4 * y * sh)
    raise ValueError(f"profile derivative order {order} not available")


def biharmonic(solution, x, y):
    """Value of the bilaplacian of a ``SeparableSolution`` at (x, y)."""
    m = solution.m
    val = profile_derivative(solution, y, 4) \
        - 2 * m * m * profile_derivative(solution, y, 2) + m ** 4 * solution.profile(y)
    return val * np.sin(m * np.asarray(x, dtype=float))


def edge_residuals(solution, x, y):
    """(u_yy + sigma u_xx, u_yyy + (2 - sigma) u_xxy) of a
    ``SeparableSolution`` at (x, y)."""
    m, sg = solution.m, solution.sigma
    sn = np.sin(m * np.asarray(x, dtype=float))
    r1 = (profile_derivative(solution, y, 2) - sg * m * m * solution.profile(y)) * sn
    r2 = (profile_derivative(solution, y, 3)
          - (2 - sg) * m * m * profile_derivative(solution, y, 1)) * sn
    return r1, r2


# ---------------------------------------------------------------------------
# decay-law theory: the concave majorant and the predicted families

def _power_map(s, exponent: float, scale: float = 1.0):
    return scale * np.asarray(s, dtype=float) ** exponent


def construct_h(kind: FeedbackKind) -> Callable[[np.ndarray], np.ndarray]:
    """Concave majorant h with h(s g(s)) >= s^2 + g(s)^2 for |s| <= 1.

    A finite origin order theta gives 2 s^e with e = 2 min(theta, 1) /
    (theta + 1); the degenerate exponential (infinite origin order) gets a
    separately built concave majorant with the same property.
    """
    theta = kind.order_at_origin
    if math.isinf(theta):
        return _expdeg_majorant()
    return partial(_power_map, exponent=2.0 * min(theta, 1.0) / (theta + 1.0),
                   scale=2.0)


def _expdeg_majorant() -> Callable[[np.ndarray], np.ndarray]:
    """Concave majorant for the degenerate exponential.

    With x = s g(s) one has -ln x = 1/s^2 - 4 ln s <= 5/s^2 on (0, 1], so
    -10/ln(x) >= 2 s^2 >= s^2 + g(s)^2 there.  The map -10/ln(x) vanishes
    at 0, increases, and is concave up to e^{-2}; past that point it is
    continued by its tangent line, which keeps it concave while still
    majorizing the (bounded by 2) target.  A piecewise envelope built from
    samples cannot work here: the abscissa spans hundreds of orders of
    magnitude and underflows long before s does.
    """
    x_star = math.exp(-2.0)
    slope = 10.0 / (4.0 * x_star)

    def h(arg):
        arr = np.asarray(arg, dtype=float)
        vals = np.atleast_1d(arr).copy()
        out = np.zeros_like(vals)
        low = (vals > 0.0) & (vals <= x_star)
        out[low] = -10.0 / np.log(vals[low])
        high = vals > x_star
        out[high] = 5.0 + slope * (vals[high] - x_star)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    return h


def h_tilde(order: float, p0: float) -> Callable[[np.ndarray], np.ndarray]:
    """Power map s^e with e = (p0 - 2 max(order, 1)) / (p0 - 1 - order).

    Valid only under the integrability condition p0 > 2 max(order, 1); the
    exponent then lies in (0, 1].
    """
    bound = 2.0 * max(order, 1.0)
    if not p0 > bound:
        raise ParameterError(
            f"index p0 = {p0} must exceed 2*max(order, 1) = {bound}")
    e = (p0 - bound) / (p0 - 1.0 - order)
    mapping = partial(_power_map, exponent=e)
    mapping.exponent = e
    return mapping


class UnsupportedLawError(BergerdeckError, ValueError):
    """No closed-form decay law is available for the requested combination."""


@dataclass(frozen=True)
class LawFamily:
    """A decay-law family with the constants left open as fit parameters."""

    name: str
    make: Callable[..., DecayLaw]

    def instantiate(self, **params) -> DecayLaw:
        return self.make(**params)


def predicted_law(kind: FeedbackKind, regime: str,
                  p0: float | None = None) -> LawFamily:
    """Decay family predicted for a feedback degenerating in ``regime``.

    ``regime`` is "origin" (feedback linearly bounded at infinity) or
    "infinity" (linearly bounded at the origin, needs p0).  Constants c, c0
    are not predicted; callers fit or choose them.
    """
    if regime not in ("origin", "infinity"):
        raise UnsupportedLawError(f"unknown regime {regime!r}")
    if math.isinf(kind.order_at_origin):  # the degenerate exponential
        if regime == "infinity":
            raise UnsupportedLawError(
                "the degenerate exponential has no closed form at infinity")
        return LawFamily("logarithmic",
                         partial(LogarithmicLaw, c1=1.0, c2=1.0, c0=math.e))
    order = kind.order_at_origin if regime == "origin" else kind.order_at_infinity
    if order == 1.0:
        return LawFamily("exponential", partial(ExponentialLaw, c=1.0))
    if regime == "origin":
        return LawFamily("algebraic-origin", partial(AlgebraicOriginLaw, exponent=order))
    if p0 is None:
        raise UnsupportedLawError(
            "the infinity regime needs the integrability index p0")
    return LawFamily("algebraic-infinity",
                     partial(AlgebraicInfinityLaw, exponent=order, q=p0))
