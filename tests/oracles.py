"""Independent reference implementations used as test oracles.

Most are built with plain dense numpy and literal loops so the sparse
production assembly is checked against a second, structurally different
derivation; the rest are the plain forms that a faster library path
replaced.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bergerdeck import build_weights, stretch_integral
from bergerdeck.energy import gradient_gram, hstar_gram


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


def dense_cell_weights(J: int, K: int, l: float) -> np.ndarray:
    """Simpson-x (end weights folded inward) times trapezoid-y, per unknown."""
    dx = math.pi / (J + 1)
    dy = 2.0 * l / (K + 1)
    wx = np.empty(J)
    for idx in range(J):
        j = idx + 1
        wx[idx] = (4.0 if j % 2 == 1 else 2.0) * dx / 3.0
    wx[0] += dx / 3.0
    wx[-1] += dx / 3.0
    wy = np.full(K + 2, dy)
    wy[0] = wy[-1] = dy / 2.0
    return np.outer(wy, wx).ravel()


def dense_stretch(U: np.ndarray, J: int, K: int, l: float) -> float:
    dx = math.pi / (J + 1)
    u2 = U.reshape(K + 2, J)
    ux = np.zeros_like(u2)
    for c in range(J):
        left = u2[:, c - 1] if c >= 1 else 0.0
        right = u2[:, c + 1] if c + 1 < J else 0.0
        ux[:, c] = (right - left) / (2.0 * dx)
    w = dense_cell_weights(J, K, l)
    return float(w @ (ux.ravel() ** 2))


def level_dot_stretch(U: np.ndarray, weights) -> float:
    """Per-level reference for ``model.stretch_integral``: one ``np.dot``
    of the cell weights against u_x^2 on each level, then ``math.fsum``."""
    grid = weights.grid
    u2 = U.reshape(grid.shape)
    padded = np.zeros((grid.K + 2, grid.J + 2))
    padded[:, 1:-1] = u2
    ux = (padded[:, 2:] - padded[:, :-2]) * (1.0 / (2.0 * grid.dx))
    cell2 = weights.cell.reshape(grid.shape)
    return math.fsum(float(np.dot(cell2[k], ux[k] * ux[k])) for k in range(grid.K + 2))


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


def berger_coefficient(U: np.ndarray, weights, P: float, S: float) -> float:
    """Nonlocal coefficient -P + S * integral of u_x^2."""
    return -P + S * stretch_integral(U, weights)


def full_grid_lambda1(grid, sigma: float) -> float:
    """Inverse power iteration on the full-grid pencil A x = lambda B x
    from the constant field, stopped when the Rayleigh quotient is
    stationary to 1e-8 relative: the reference for the parity-folded
    ``energy.lambda1_estimate``."""
    weights = build_weights(grid)
    A = hstar_gram(grid, sigma, weights)
    B = gradient_gram(grid, weights)
    lu = spla.splu(sp.csc_matrix(A))
    x = np.ones(grid.n_dof)
    x /= np.linalg.norm(x)
    rho_prev = math.inf
    for _ in range(500):
        x = lu.solve(B @ x)
        x /= np.linalg.norm(x)
        rho = float(x @ (A @ x)) / float(x @ (B @ x))
        if abs(rho - rho_prev) <= 1e-8 * abs(rho):
            return rho
        rho_prev = rho
    raise AssertionError("full-grid iteration did not settle in 500 sweeps")
