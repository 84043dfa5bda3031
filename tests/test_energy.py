import math

import numpy as np
import pytest
import scipy.linalg

from bergerdeck import (EnergyRecord, Linear, PlateFormEvaluator, SimState,
                        build_weights, dissipation_residual, lambda1_estimate,
                        make_model)
from bergerdeck.energy import gradient_gram, hstar_gram
from bergerdeck.errors import SequencingError, ShapeError

SIGMA = 0.2


def _state(u_curr, u_prev, dt=0.1, step=1):
    return SimState(u_curr=u_curr, u_prev=u_prev, t=step * dt,
                    step_index=step, dt=dt)


@pytest.fixture(scope="module")
def tiny_form(tiny_grid, tiny_weights):
    return PlateFormEvaluator(tiny_grid, SIGMA, tiny_weights)


def _record(state, model, weights):
    return PlateFormEvaluator(model.grid, model.sigma, weights).record(state, model)


# --- the plate quadratic form ---------------------------------------------

def test_form_zero_field(tiny_grid, tiny_form):
    assert tiny_form.form_value(np.zeros(tiny_grid.n_dof)) == 0.0


def test_form_of_sine_sheet(preset_grid):
    w = build_weights(preset_grid)
    X, _ = preset_grid.meshgrid()
    U = np.sin(X).ravel()
    value = PlateFormEvaluator(preset_grid, SIGMA, w).form_value(U)
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

def test_zero_state_record(tiny_grid, tiny_weights):
    model = make_model(tiny_grid, sigma=SIGMA, P=1e-3, S=1e-5,
                       feedback=Linear(), damping_width=1)
    z = np.zeros(tiny_grid.n_dof)
    rec = _record(_state(z, z), model, tiny_weights)
    assert rec.kinetic == rec.hstar == rec.px == rec.sx == rec.total == 0.0


def test_constant_velocity_kinetic_energy(tiny_grid, tiny_weights):
    model = make_model(tiny_grid, sigma=SIGMA, P=0.0, S=0.0,
                       feedback=Linear(), damping_width=0)
    dt = 0.25
    u_prev = np.zeros(tiny_grid.n_dof)
    u_curr = dt * np.ones(tiny_grid.n_dof)  # V = 1 everywhere
    rec = _record(_state(u_curr, u_prev, dt=dt), model, tiny_weights)
    assert rec.kinetic == pytest.approx(math.pi * tiny_grid.l, abs=1e-10)


def test_record_decomposition(preset_grid):
    w = build_weights(preset_grid)
    model = make_model(preset_grid, sigma=SIGMA, P=1e-3, S=1e-5,
                       feedback=Linear(), damping_width=5)
    rng = np.random.default_rng(3)
    u_prev = rng.normal(size=preset_grid.n_dof)
    u_curr = u_prev + 0.01 * rng.normal(size=preset_grid.n_dof)
    rec = _record(_state(u_curr, u_prev, dt=0.01), model, w)
    recomposed = rec.kinetic + rec.hstar + rec.px + rec.sx
    assert rec.total == pytest.approx(recomposed, rel=1e-12)


def test_step_zero_is_rejected(tiny_grid, tiny_weights):
    model = make_model(tiny_grid, sigma=SIGMA, P=0.0, S=0.0,
                       feedback=Linear(), damping_width=0)
    z = np.zeros(tiny_grid.n_dof)
    with pytest.raises(SequencingError, match="bootstrap"):
        _record(_state(z, z, step=0), model, tiny_weights)


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

def test_lambda1_matches_dense_oracle(tiny_grid, tiny_weights):
    value = lambda1_estimate(tiny_grid, SIGMA, tiny_weights)
    A = hstar_gram(tiny_grid, SIGMA, tiny_weights).toarray()
    B = gradient_gram(tiny_grid, tiny_weights).toarray()
    # B is singular, A is definite: solve the flipped pencil B x = mu A x
    mu = scipy.linalg.eigh(B, A, eigvals_only=True)
    dense = 1.0 / mu.max()
    assert value == pytest.approx(dense, rel=1e-6)


def test_lambda1_positive_and_minimal(tiny_grid, tiny_weights):
    value = lambda1_estimate(tiny_grid, SIGMA, tiny_weights)
    assert value > 0.0
    A = hstar_gram(tiny_grid, SIGMA, tiny_weights)
    B = gradient_gram(tiny_grid, tiny_weights)
    rng = np.random.default_rng(17)
    for _ in range(10):
        probe = rng.normal(size=tiny_grid.n_dof)
        num = float(probe @ (A @ probe))
        den = float(probe @ (B @ probe))
        assert value <= num / den + 1e-9 * abs(num / den)
