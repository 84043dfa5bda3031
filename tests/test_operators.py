import hashlib
import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerdeck import build_grid
from bergerdeck.energy import cross_derivative_map, y_derivative_map
from bergerdeck.errors import ParameterError, SizingError
from bergerdeck.operators import (assemble_bilaplacian, assemble_d2_1d,
                                  assemble_d4_hinged_1d, assemble_dxx,
                                  assemble_dy2, assemble_dy4,
                                  free_edge_shorthand_coefficients,
                                  free_edge_stencil_report, modal_blocks)
from oracles import dense_bilaplacian, dense_dy2, dense_dy4, observed_orders


# --- 1-d second difference ------------------------------------------------

def test_d2_dense_3x3():
    mat = assemble_d2_1d(3, 1.0).toarray()
    expected = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    np.testing.assert_array_equal(mat, expected)


def test_d2_zero_vector():
    mat = assemble_d2_1d(7, 0.25)
    np.testing.assert_array_equal(mat @ np.zeros(7), np.zeros(7))


def test_d2_discrete_eigenvector():
    n, h = 9, 0.1
    mat = assemble_d2_1d(n, h)
    j = np.arange(1, n + 1)
    vec = np.sin(j * math.pi / (n + 1))
    eig = -(4.0 / h ** 2) * math.sin(math.pi / (2 * (n + 1))) ** 2
    np.testing.assert_allclose(mat @ vec, eig * vec, rtol=1e-12, atol=1e-12)


def test_d2_sizing_error():
    with pytest.raises(SizingError, match="3"):
        assemble_d2_1d(2, 1.0)


# --- 1-d hinged fourth difference ------------------------------------------

def test_d4_first_row():
    mat = assemble_d4_hinged_1d(5, 1.0).toarray()
    np.testing.assert_array_equal(mat[0], [5.0, -4.0, 1.0, 0.0, 0.0])


def test_d4_equals_d2_squared_entrywise():
    d2 = assemble_d2_1d(7, 0.5)
    d4 = assemble_d4_hinged_1d(7, 0.5)
    assert np.max(np.abs((d2 @ d2 - d4).toarray())) == 0.0


@pytest.mark.parametrize("n", range(5, 13))
@pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
def test_d4_identity_across_sizes(n, h):
    d2 = assemble_d2_1d(n, h)
    d4 = assemble_d4_hinged_1d(n, h)
    assert np.max(np.abs((d2 @ d2 - d4).toarray())) == 0.0


def test_d4_symmetric():
    mat = assemble_d4_hinged_1d(6, 1.0).toarray()
    np.testing.assert_array_equal(mat, mat.T)


def test_d4_sizing_error():
    with pytest.raises(SizingError, match="5"):
        assemble_d4_hinged_1d(4, 1.0)


# --- y second derivative ----------------------------------------------------

def test_dy2_interior_block_pattern(tiny_grid):
    grid = tiny_grid
    mat = assemble_dy2(grid, 0.2).toarray()
    J = grid.J
    inv = 1.0 / grid.dy ** 2
    block = mat[J:2 * J, :]  # level k = 1
    np.testing.assert_allclose(block[:, :J], inv * np.eye(J), atol=0)
    np.testing.assert_allclose(block[:, J:2 * J], -2 * inv * np.eye(J), atol=0)
    np.testing.assert_allclose(block[:, 2 * J:3 * J], inv * np.eye(J), atol=0)
    assert np.all(block[:, 3 * J:] == 0)


def test_dy2_constant_in_y_interior_rows(tiny_grid):
    grid = tiny_grid
    mat = assemble_dy2(grid, 0.2)
    field = np.tile(np.sin(grid.x_interior()), grid.K + 2)
    out = (mat @ field).reshape(grid.shape)
    np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-14)


def test_dy2_boundary_row_is_bc_identity():
    grid = build_grid(9, 3, 1.0)
    sigma = 0.2
    mat = assemble_dy2(grid, sigma)
    field = np.zeros(grid.n_dof)
    samples = np.sin(grid.x_interior())
    field[:grid.J] = samples  # level k = 0 only
    eig = (4.0 / grid.dx ** 2) * math.sin(grid.dx / 2) ** 2
    out = (mat @ field).reshape(grid.shape)
    np.testing.assert_allclose(out[0], sigma * eig * samples, rtol=1e-12)


def test_dy2_matches_dense_oracle(tiny_grid):
    ours = assemble_dy2(tiny_grid, 0.3).toarray()
    ref = dense_dy2(tiny_grid.J, tiny_grid.K, tiny_grid.l, 0.3)
    np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_dy2_sigma_bounds(tiny_grid):
    for sigma in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ParameterError, match="Poisson"):
            assemble_dy2(tiny_grid, sigma)


# --- y fourth derivative ------------------------------------------------------

def test_shorthand_coefficients():
    sigma1, sigma2 = free_edge_shorthand_coefficients(0.2, 0.1)
    assert sigma1 == pytest.approx(0.01 * (0.4 - 5.4), rel=1e-14)  # -0.05
    assert sigma2 == pytest.approx(0.018, rel=1e-14)


def test_dy4_zero_vector(tiny_grid):
    mat = assemble_dy4(tiny_grid, 0.2)
    np.testing.assert_array_equal(mat @ np.zeros(tiny_grid.n_dof),
                                  np.zeros(tiny_grid.n_dof))


def test_dy4_matches_dense_ghost_elimination(tiny_grid):
    ours = assemble_dy4(tiny_grid, 0.2).toarray()
    ref = dense_dy4(tiny_grid.J, tiny_grid.K, tiny_grid.l, 0.2)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(ours, ref, atol=1e-12 * scale)


def test_dy4_boundary_rows_only_reach_three_levels(tiny_grid):
    mat = assemble_dy4(tiny_grid, 0.2).toarray()
    J = tiny_grid.J
    assert np.all(mat[:J, 3 * J:] == 0)


def test_stencil_report_flags_known_mismatches(tiny_grid):
    report = free_edge_stencil_report(tiny_grid, 0.2)
    by_key = {(e["row"], e["col"], e["term"]): e for e in report}
    # row 1 agrees with the compact shorthand
    for col in range(4):
        for term in ("I", "Lx", "Lx^2"):
            assert by_key[(1, col, term)]["match"]
    # row 0 deviates: Lx coefficient on the edge level, the extra Lx^2
    # term, and both neighbor-level Lx coefficients
    assert not by_key[(0, 0, "Lx")]["match"]
    assert not by_key[(0, 0, "Lx^2")]["match"]
    assert not by_key[(0, 1, "Lx")]["match"]
    assert not by_key[(0, 2, "Lx")]["match"]
    assert by_key[(0, 0, "I")]["match"]
    assert by_key[(0, 1, "I")]["match"]
    assert by_key[(0, 2, "I")]["match"]


def test_stencil_report_rebuilds_dy4_edge_rows(tiny_grid):
    J, ny = tiny_grid.J, tiny_grid.K + 2
    lx = assemble_d2_1d(J, tiny_grid.dx).toarray()
    powers = {"I": np.eye(J), "Lx": lx, "Lx^2": lx @ lx}
    dy4 = tiny_grid.dy ** 4
    expected = np.zeros((ny, J, tiny_grid.n_dof))
    for e in free_edge_stencil_report(tiny_grid, 0.2):
        block = e["derived"] * powers[e["term"]] / dy4
        for row, col in ((e["row"], e["col"]),
                         (ny - 1 - e["row"], ny - 1 - e["col"])):
            expected[row, :, col * J:(col + 1) * J] += block
    mat = assemble_dy4(tiny_grid, 0.2).toarray().reshape(ny, J, -1)
    scale = np.max(np.abs(mat))
    for level in (0, 1, ny - 2, ny - 1):
        np.testing.assert_allclose(mat[level], expected[level],
                                   rtol=0, atol=1e-12 * scale)


# --- bilaplacian ---------------------------------------------------------------

def test_bilaplacian_size(preset_grid):
    mat = assemble_bilaplacian(preset_grid, 0.2)
    assert mat.shape == (15049, 15049)


def test_bilaplacian_zero_vector(tiny_grid):
    mat = assemble_bilaplacian(tiny_grid, 0.2)
    np.testing.assert_array_equal(mat @ np.zeros(tiny_grid.n_dof),
                                  np.zeros(tiny_grid.n_dof))


def test_bilaplacian_matches_dense_oracle(tiny_grid):
    ours = assemble_bilaplacian(tiny_grid, 0.2).toarray()
    ref = dense_bilaplacian(tiny_grid.J, tiny_grid.K, tiny_grid.l, 0.2)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(ours, ref, atol=1e-12 * scale)


def _interior_probe_error(J, K, l, sigma, m=2):
    grid = build_grid(J, K, l)
    mat = assemble_bilaplacian(grid, sigma)
    X, _ = grid.meshgrid()
    field = np.sin(m * X).ravel()
    out = (mat @ field).reshape(grid.shape)
    exact = (m ** 4) * np.sin(m * grid.x_interior())
    interior = out[2:-2]
    return float(np.max(np.abs(interior - exact[None, :])))


def test_bilaplacian_probe_convergence_order():
    errs = [_interior_probe_error(J, K, math.pi / 4, 0.2)
            for J, K in [(37, 24), (75, 49), (151, 99)]]
    for order in observed_orders(errs):
        assert 1.7 <= order <= 2.3


def test_bilaplacian_mixed_probe_convergence_order():
    l, sigma = math.pi / 4, 0.2
    errs = []
    for J, K in [(37, 24), (75, 49), (151, 99)]:
        grid = build_grid(J, K, l)
        mat = assemble_bilaplacian(grid, sigma)
        X, Y = grid.meshgrid()
        qy = math.pi / (2 * l)
        field = (np.sin(2 * X) * np.cos(qy * (Y + l))).ravel()
        exact = ((4 + qy ** 2) ** 2) * field
        out = mat @ field
        sl = (mat @ field).reshape(grid.shape)[2:-2]
        ex = exact.reshape(grid.shape)[2:-2]
        errs.append(float(np.max(np.abs(sl - ex))))
    for order in observed_orders(errs):
        assert 1.7 <= order <= 2.3


def test_bilaplacian_row_sparsity_and_bandwidth(tiny_grid):
    mat = assemble_bilaplacian(tiny_grid, 0.2)
    J = tiny_grid.J
    nnz_per_row = np.diff(mat.indptr)
    assert nnz_per_row.max() <= 13
    coo = mat.tocoo()
    assert np.max(np.abs(coo.row - coo.col)) <= 2 * J + 3


def test_cross_term_commutes(tiny_grid):
    dxx = assemble_dxx(tiny_grid)
    dy2 = assemble_dy2(tiny_grid, 0.2)
    left = (dxx @ dy2).toarray()
    right = (dy2 @ dxx).toarray()
    np.testing.assert_array_equal(left, right)


def test_csr_invariants(tiny_grid):
    for mat in (assemble_bilaplacian(tiny_grid, 0.2),
                assemble_dy4(tiny_grid, 0.2),
                assemble_dy2(tiny_grid, 0.2)):
        assert np.all(mat.data != 0.0)
        for row in range(mat.shape[0]):
            cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)


# --- x sine modes ---------------------------------------------------------------

def _dst(field):
    return scipy.fft.dst(field, type=1, axis=1, norm="ortho")


@settings(max_examples=25, deadline=None)
@given(J=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h + 1),
       K=st.integers(min_value=1, max_value=15).map(lambda h: 2 * h + 1),
       sigma=st.floats(min_value=1e-3, max_value=0.499),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_modal_blocks_reproduce_bilaplacian(J, K, sigma, seed):
    # DST(B u) equals the per-mode blocks applied to DST(u)
    grid = build_grid(J, K, math.pi / 4)
    blocks = modal_blocks(grid, sigma)
    assert blocks.shape == (J, K + 2, K + 2)
    u = np.random.default_rng(seed).normal(size=grid.shape)
    lhs = _dst((assemble_bilaplacian(grid, sigma) @ u.ravel()).reshape(grid.shape))
    modes = _dst(u)
    rhs = np.einsum("mkl,lm->km", blocks, modes)
    scale = np.abs(blocks).max() * np.abs(modes).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


# --- pinned bits ------------------------------------------------------------------

# sha256 over indptr, indices and data on build_grid(21, 11, 0.7); the
# byte-identical energy CSVs rest on these exact operator bits
PINNED_BITS = {
    "dy2": (lambda g: assemble_dy2(g, 0.3),
            "62b64c5a1eaae571d8c149269afd0f50bca4c8a268213c2f6acbf74fc222981d"),
    "dy4": (lambda g: assemble_dy4(g, 0.3),
            "5ae9f8aef6bc367d076c9828827b8a55d84c16dea945ad6397a203296e614df9"),
    "bilaplacian": (lambda g: assemble_bilaplacian(g, 0.3),
                    "67f0071a0b3163d005f441e8c482a3de0c542edfde9cd6a6aa3223dc2ae33d7e"),
    "y_map": (y_derivative_map,
              "6c27ba9a5f70b43781842ef572d3b0ed8d6834fb3d57ba3594af472b2e4d964e"),
    "cross_map": (cross_derivative_map,
                  "9bb66d4cfc5ecbd2b5c8f6ad2f38dc4e91867af44e2eebd52e49772160c348e0"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BITS))
def test_operator_bits_are_pinned(name):
    build, expected = PINNED_BITS[name]
    mat = build(build_grid(21, 11, 0.7))
    digest = hashlib.sha256()
    for arr, dtype in ((mat.indptr, "<i4"), (mat.indices, "<i4"), (mat.data, "<f8")):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    assert digest.hexdigest() == expected
