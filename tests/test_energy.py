import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import bergerdeck.energy as energy_mod
from bergerdeck import (EnergyRecord, Linear, PlateFormEvaluator, SimState,
                        build_grid, build_operators, build_weights,
                        dissipation_residual, lambda1_estimate, make_model)
from bergerdeck._direct import BandCholesky, lower_band
from bergerdeck.energy import QuarterPencil
from bergerdeck.errors import SequencingError, ShapeError, SolveError
from oracles import (band_matrix, folded_grams, folded_splu,
                     full_grid_lambda1, gradient_gram, gradient_integral,
                     hstar_gram, parity_fold)

SIGMA = 0.2


def _state(u_curr, u_prev, dt=0.1, step=1):
    return SimState(u_curr=u_curr, u_prev=u_prev, t=step * dt,
                    step_index=step, dt=dt)


@pytest.fixture(scope="module")
def tiny_form(tiny_grid):
    return PlateFormEvaluator(build_operators(tiny_grid, SIGMA, 0))


def _record(state, model, grid):
    return PlateFormEvaluator(build_operators(grid, SIGMA, 0)).record(state, model)


# --- the plate quadratic form ---------------------------------------------

def test_form_zero_field(tiny_grid, tiny_form):
    assert tiny_form.form_value(np.zeros(tiny_grid.n_dof)) == 0.0


def test_form_of_sine_sheet(preset_grid):
    X, _ = preset_grid.meshgrid()
    U = np.sin(X).ravel()
    value = PlateFormEvaluator(build_operators(preset_grid, SIGMA, 0)).form_value(U)
    assert value == pytest.approx(math.pi * preset_grid.l, rel=2e-2)


def test_form_pointwise_lower_bound(tiny_grid, tiny_form):
    # F(u,u) >= (1-sigma)(u_xx^2 + u_yy^2 + 2 u_xy^2) since 2 s ab >= -s(a^2+b^2)
    ev = tiny_form
    rng = np.random.default_rng(2024)
    for _ in range(20):
        U = rng.normal(size=tiny_grid.n_dof)
        xx = ev.sxx @ U
        yy = ev.syy @ U
        xy = ev.sxy @ U
        F = xx**2 + yy**2 + 2 * SIGMA * xx * yy + 2 * (1 - SIGMA) * xy**2
        bound = (1 - SIGMA) * (xx**2 + yy**2 + 2 * xy**2)
        assert np.all(F >= bound - 1e-12 * np.abs(F).max())


def test_form_quadratic_homogeneity(tiny_grid, tiny_form):
    rng = np.random.default_rng(5)
    U = rng.normal(size=tiny_grid.n_dof)
    base = tiny_form.form_value(U)
    for alpha in (2.0, 0.5, 7.3):
        scaled = tiny_form.form_value(alpha * U)
        assert scaled == pytest.approx(alpha**2 * base, rel=1e-12)


def test_form_matches_gram_matrix(tiny_grid, tiny_weights, tiny_form):
    A = hstar_gram(tiny_grid, SIGMA, tiny_weights)
    rng = np.random.default_rng(11)
    for _ in range(5):
        U = rng.normal(size=tiny_grid.n_dof)
        direct = tiny_form.form_value(U)
        viagram = float(U @ (A @ U))
        assert viagram == pytest.approx(direct, rel=1e-12)


def test_form_shape_error(tiny_form):
    with pytest.raises(ShapeError):
        tiny_form.form_value(np.zeros(3))


# --- energy records -----------------------------------------------------------

def test_zero_state_record(tiny_grid):
    model = make_model(P=1e-3, S=1e-5, feedback=Linear())
    z = np.zeros(tiny_grid.n_dof)
    rec = _record(_state(z, z), model, tiny_grid)
    assert rec.kinetic == rec.hstar == rec.px == rec.sx == rec.total == 0.0


def test_constant_velocity_kinetic_energy(tiny_grid):
    model = make_model(P=0.0, S=0.0, feedback=Linear())
    dt = 0.25
    u_prev = np.zeros(tiny_grid.n_dof)
    u_curr = dt * np.ones(tiny_grid.n_dof)  # V = 1 everywhere
    rec = _record(_state(u_curr, u_prev, dt=dt), model, tiny_grid)
    assert rec.kinetic == pytest.approx(math.pi * tiny_grid.l, abs=1e-10)


def test_record_decomposition(preset_grid):
    model = make_model(P=1e-3, S=1e-5, feedback=Linear())
    rng = np.random.default_rng(3)
    u_prev = rng.normal(size=preset_grid.n_dof)
    u_curr = u_prev + 0.01 * rng.normal(size=preset_grid.n_dof)
    rec = _record(_state(u_curr, u_prev, dt=0.01), model, preset_grid)
    recomposed = rec.kinetic + rec.hstar + rec.px + rec.sx
    assert rec.total == pytest.approx(recomposed, rel=1e-12)


def test_step_zero_is_rejected(tiny_grid):
    model = make_model(P=0.0, S=0.0, feedback=Linear())
    z = np.zeros(tiny_grid.n_dof)
    with pytest.raises(SequencingError, match="bootstrap"):
        _record(_state(z, z, step=0), model, tiny_grid)


# --- dissipation residual -----------------------------------------------------

def _mock_record(step, t, total, diss):
    return EnergyRecord(step=step, t=t, kinetic=0.0, hstar=0.0, px=0.0,
                        sx=0.0, total=total, dissipated_cum=diss)


def test_residual_of_exact_conservation():
    records = [_mock_record(n, 0.1 * n, 5.0, 0.0) for n in range(1, 12)]
    assert dissipation_residual(records) == 0.0


def test_residual_of_exact_ledger():
    # energy drop exactly booked in the ledger -> zero residual
    records = [_mock_record(n, 0.1 * n, 5.0 - 0.2 * n, 0.2 * n)
               for n in range(1, 12)]
    assert dissipation_residual(records) == pytest.approx(0.0, abs=1e-15)


def test_residual_flags_unbooked_loss():
    records = [_mock_record(1, 0.1, 5.0, 0.0), _mock_record(2, 0.2, 4.0, 0.0)]
    assert dissipation_residual(records) == pytest.approx(0.2, rel=1e-12)


def test_residual_needs_two_records():
    with pytest.raises(SequencingError):
        dissipation_residual([_mock_record(1, 0.1, 5.0, 0.0)])


# --- embedding constant ------------------------------------------------------

def _flip(n: int) -> sp.csr_matrix:
    return sp.csr_matrix(np.eye(n)[::-1])


@settings(max_examples=60, deadline=None)
@given(J=st.sampled_from([5, 7, 9, 11]), K=st.integers(min_value=3, max_value=8),
       l=st.floats(min_value=0.05, max_value=10.0),
       sigma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_grams_commute_with_flips_and_fold_exactly(J, K, l, sigma, seed):
    grid = build_grid(J, K, l)
    weights = build_weights(grid)
    ny = grid.K + 2
    flips = (sp.kron(sp.identity(ny), _flip(grid.J)),   # j -> J+1-j
             sp.kron(_flip(ny), sp.identity(grid.J)))   # k -> K+1-k
    fold = parity_fold(grid)
    assert fold.shape == (grid.n_dof, (ny - ny // 2) * (grid.J - grid.J // 2))
    multiplicity = np.asarray(fold.sum(axis=0)).ravel()  # diagonal of fold^T fold
    z = np.random.default_rng(seed).normal(size=fold.shape[1])
    for gram in (hstar_gram(grid, sigma, weights), gradient_gram(grid, weights)):
        scale = abs(gram).max()
        for flip in flips:
            assert abs(flip @ gram @ flip - gram).max() <= 1e-13 * scale
        # A maps the even-even fields to themselves, so A (F z) = F w with
        # F^T A F z = F^T F w = d w
        full = gram @ (fold @ z)
        folded = fold @ ((fold.T @ gram @ fold) @ z / multiplicity)
        bound = 1e-13 * (abs(gram) @ abs(fold @ z)).max()
        assert np.abs(full - folded).max() <= bound


# --- the quarter pencil against the folded full grid ----------------------------

def _pencil_with_plate_gram(plate_gram):
    """``QuarterPencil`` with its A replaced by ``plate_gram(grid, sigma, A)``."""
    class Replaced(QuarterPencil):
        def __init__(self, grid, sigma):
            super().__init__(grid, sigma)
            self.A = plate_gram(grid, sigma, self.A)

    return Replaced


quarter_grids = dict(
    J=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h + 1),
    half_k=st.integers(min_value=2, max_value=7),
    l=st.floats(min_value=0.05, max_value=10.0),
    sigma=st.floats(min_value=1e-3, max_value=0.499))


@pytest.mark.parametrize("odd_levels", [True, False], ids=["odd", "even"])
@settings(max_examples=30, deadline=None)
@given(**quarter_grids, seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_quarter_pencil_matches_folded_full_grid(odd_levels, J, half_k, l, sigma,
                                                 seed):
    grid = build_grid(J, 2 * half_k + odd_levels, l)
    pencil = QuarterPencil(grid, sigma)
    for quarter, folded in zip((pencil.A, pencil.B), folded_grams(grid, sigma)):
        assert np.array_equal(quarter.indptr, folded.indptr)
        assert np.array_equal(quarter.indices, folded.indices)
        scale = np.abs(folded.data).max()
        assert np.abs(quarter.data - folded.data).max() <= 1e-13 * scale
    # the folded quadrature of the quarter is the full grid's on F z
    z = np.random.default_rng(seed).normal(size=pencil.A.shape[0])
    u = parity_fold(grid) @ z
    form = PlateFormEvaluator(build_operators(grid, sigma, 0))
    assert pencil.plate_form(z) == pytest.approx(form.form_value(u), rel=1e-12)
    assert pencil.gradient_form(z) == pytest.approx(
        gradient_integral(u, build_weights(grid)), rel=1e-12)


@pytest.mark.parametrize("odd_levels", [True, False], ids=["odd", "even"])
@settings(max_examples=15, deadline=None)
@given(**quarter_grids)
def test_lambda1_does_not_read_the_rounding_of_the_plate_gram(odd_levels, J,
                                                             half_k, l, sigma):
    # a Rayleigh quotient x^T A x / x^T B x would carry A's rounding far
    # above the 1e-8 stop; the quadrature quotient does not
    grid = build_grid(J, 2 * half_k + odd_levels, l)
    value = lambda1_estimate(grid, sigma)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy_mod, "QuarterPencil", _pencil_with_plate_gram(
            lambda grid, sigma, A: folded_grams(grid, sigma)[0]))
        folded = lambda1_estimate(grid, sigma)
    assert folded == pytest.approx(value, rel=1e-11)


# --- the banded factor of the folded plate Gram matrix ------------------------
# Two backward-stable solves differ by up to about eps cond(A); with K up
# to 15, cond of the folded plate Gram matrix passes 1e6 below l = 0.6 and
# the gap to LU reaches 1e-10 there, so the half-widths start at 0.6.

@pytest.mark.parametrize("odd_levels", [True, False], ids=["odd", "even"])
@settings(max_examples=30, deadline=None)
@given(J=st.integers(min_value=3, max_value=20).map(lambda h: 2 * h + 1),
       half_k=st.integers(min_value=2, max_value=7),
       l=st.floats(min_value=0.6, max_value=3.0),
       sigma=st.floats(min_value=1e-3, max_value=0.499),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_band_factor_matches_splu_of_folded_gram(odd_levels, J, half_k, l,
                                                 sigma, seed):
    K = 2 * half_k + (1 if odd_levels else 0)
    grid = build_grid(J, K, l)
    assert (grid.K + 2) % 2 == odd_levels
    A = QuarterPencil(grid, sigma).A
    band = lower_band(A)
    # level-fastest, a 2-D stencil reaching two nodes each way is a band
    # of half-width two quarter columns plus two
    levels = grid.K + 2 - (grid.K + 2) // 2
    assert band.shape[0] - 1 == 2 * levels + 2
    assert np.array_equal(np.tril(band_matrix(band).toarray()),
                          np.tril(A.toarray()))
    rhs = np.random.default_rng(seed).normal(size=A.shape[0])
    x = BandCholesky(band, None).solve(rhs)
    reference = folded_splu(A).solve(rhs)
    assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


def test_lambda1_names_the_row_that_is_not_positive_definite(tiny_grid,
                                                            monkeypatch):
    monkeypatch.setattr(energy_mod, "QuarterPencil",
                        _pencil_with_plate_gram(lambda grid, sigma, A: -A))
    with pytest.raises(SolveError, match=r"^folded plate Gram matrix is not "
                       r"positive definite \(banded Cholesky stopped at row 0, "
                       r"node j = 1, k = 0\)$"):
        lambda1_estimate(tiny_grid, SIGMA)


def _dense_lambda1(grid, sigma):
    weights = build_weights(grid)
    A = hstar_gram(grid, sigma, weights).toarray()
    B = gradient_gram(grid, weights).toarray()
    # B is singular, A is definite: solve the flipped pencil B x = mu A x
    n = grid.n_dof
    mu = scipy.linalg.eigh(B, A, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    return 1.0 / mu[0]


def test_lambda1_matches_dense_oracle(tiny_grid):
    # the estimate solves the even-even parity sector only, the dense
    # pencil all four: agreement shows the global minimum lies in that sector
    cases = [(tiny_grid, SIGMA)] + [
        (build_grid(J, K, l), sigma) for J, K in ((21, 11), (41, 21), (41, 20))
        for l in (0.3, 1.0, 3.0) for sigma in (0.05, 0.2, 0.45)]
    for grid, sigma in cases:
        value = lambda1_estimate(grid, sigma)
        dense = _dense_lambda1(grid, sigma)
        assert value == pytest.approx(dense, rel=1e-6), (grid.J, grid.K, grid.l, sigma)


def test_lambda1_matches_full_grid_iteration(preset_grid):
    # both stop at 1e-8 relative; the folded pencil runs the same iteration
    value = lambda1_estimate(preset_grid, SIGMA)
    assert value == pytest.approx(full_grid_lambda1(preset_grid, SIGMA), rel=1e-8)


def test_lambda1_positive_and_minimal(tiny_grid, tiny_weights):
    value = lambda1_estimate(tiny_grid, SIGMA)
    assert value > 0.0
    A = hstar_gram(tiny_grid, SIGMA, tiny_weights)
    B = gradient_gram(tiny_grid, tiny_weights)
    rng = np.random.default_rng(17)
    for _ in range(10):
        probe = rng.normal(size=tiny_grid.n_dof)
        num = float(probe @ (A @ probe))
        den = float(probe @ (B @ probe))
        assert value <= num / den + 1e-9 * abs(num / den)
