import numpy as np
import pytest
import scipy.sparse as sp

from bergerdeck import (FactorizedSystem, Linear, OperatorSet, SqrtOdd,
                        bootstrap, build_operators, build_weights,
                        damping_mask, dump_snapshot, make_model, run, sin_load,
                        solve_static, step)
from bergerdeck.errors import NonFiniteError, ParameterError, ShapeError
from bergerdeck.model import eval_feedback
from bergerdeck.integrator import SimState
from oracles import dense_bootstrap, dense_step

L, SIGMA = 1.0, 0.2


@pytest.fixture(scope="module")
def tiny_ops(tiny_grid):
    return build_operators(tiny_grid, SIGMA, 1)


@pytest.fixture(scope="module")
def undamped_ops(tiny_grid):
    return build_operators(tiny_grid, SIGMA, 0)


@pytest.fixture(scope="module")
def tiny_sys(tiny_ops):
    return FactorizedSystem(tiny_ops, dt=0.01)


@pytest.fixture(scope="module")
def tiny_model():
    return make_model(P=1e-3, S=1e-5, feedback=Linear())


UNDAMPED = make_model(P=0.0, S=0.0, feedback=Linear())
SQRT = make_model(P=1e-3, S=1e-5, feedback=SqrtOdd())


# --- bootstrap ------------------------------------------------------------

def test_bootstrap_zero_data(tiny_sys, tiny_model):
    z = np.zeros(tiny_sys.ops.grid.n_dof)
    state = bootstrap(z, z, tiny_model, tiny_sys)
    np.testing.assert_array_equal(state.u_curr, z)
    np.testing.assert_array_equal(state.u_prev, z)
    assert state.step_index == 1 and state.t == 0.01


def test_bootstrap_pure_velocity(undamped_ops, tiny_grid):
    z = np.zeros(tiny_grid.n_dof)
    v = 3.0 * np.ones(tiny_grid.n_dof)
    state = bootstrap(z, v, UNDAMPED, FactorizedSystem(undamped_ops, dt=0.01))
    np.testing.assert_allclose(state.u_curr, 0.03, rtol=1e-15)


def test_bootstrap_matches_dense_oracle(tiny_ops, tiny_sys, tiny_model,
                                       tiny_grid):
    u0 = solve_static(sin_load(tiny_grid, 50.0, 2), tiny_ops)
    v0 = np.zeros(tiny_grid.n_dof)
    state = bootstrap(u0, v0, tiny_model, tiny_sys)
    ref = dense_bootstrap(u0, v0, tiny_grid.J, tiny_grid.K, tiny_grid.l,
                          SIGMA, 1e-3, 1e-5, 0.01, tiny_ops.damping.a,
                          lambda s: s)
    np.testing.assert_allclose(state.u_curr, ref, rtol=0, atol=1e-12)


def test_bootstrap_shape_error(tiny_sys, tiny_model):
    with pytest.raises(ShapeError):
        bootstrap(np.zeros(3), np.zeros(3), tiny_model, tiny_sys)


# --- single step ---------------------------------------------------------------

class _IdentitySystem:
    """Stands in for the factorized M = I + dt^2/2 B when B = 0."""

    def __init__(self, ops, dt):
        self.ops, self.dt = ops, dt

    def solve(self, rhs):
        return rhs.copy()


def test_step_free_recurrence(tiny_grid):
    # zero-operator surrogate: U^{n+1} = 2 U^n - U^{n-1}
    n = tiny_grid.n_dof
    zero = sp.csr_matrix((n, n))
    ops = OperatorSet(grid=tiny_grid, sigma=SIGMA,
                      weights=build_weights(tiny_grid), bilaplacian=zero,
                      dxx=zero, damping=damping_mask(tiny_grid, 0))
    sys = _IdentitySystem(ops, dt=0.5)
    rng = np.random.default_rng(0)
    u, up = rng.normal(size=n), rng.normal(size=n)
    state = SimState(u_curr=u, u_prev=up, t=0.5, step_index=1, dt=0.5)
    out = step(state, sys, UNDAMPED)
    np.testing.assert_allclose(out.u_curr, 2 * u - up, rtol=1e-14, atol=1e-14)


def test_step_zero_fixed_point(tiny_sys, tiny_model, tiny_grid):
    z = np.zeros(tiny_grid.n_dof)
    state = SimState(u_curr=z, u_prev=z, t=0.01, step_index=1, dt=0.01)
    out = step(state, tiny_sys, tiny_model)
    np.testing.assert_array_equal(out.u_curr, z)


def test_step_matches_dense_oracle(tiny_ops, tiny_sys, tiny_grid):
    dt = 0.01
    rng = np.random.default_rng(99)
    u = rng.normal(size=tiny_grid.n_dof)
    up = u + dt * rng.normal(size=tiny_grid.n_dof)
    state = SimState(u_curr=u, u_prev=up, t=dt, step_index=1, dt=dt)
    out = step(state, tiny_sys, SQRT)
    g = lambda s: np.sign(s) * np.sqrt(np.abs(s))
    ref = dense_step(u, up, tiny_grid.J, tiny_grid.K, tiny_grid.l, SIGMA,
                     1e-3, 1e-5, dt, tiny_ops.damping.a, g)
    assert np.max(np.abs(out.u_curr - ref)) <= 1e-10


def test_step_with_given_damping_is_bitwise_equal(tiny_ops, tiny_sys, tiny_grid):
    from bergerdeck.integrator import _damping_force
    rng = np.random.default_rng(9)
    u, up = rng.normal(size=tiny_grid.n_dof), rng.normal(size=tiny_grid.n_dof)
    state = SimState(u_curr=u, u_prev=up, t=0.01, step_index=1, dt=0.01)
    given = step(state, tiny_sys, SQRT,
                 _damping_force(state.velocity(), SQRT, tiny_ops))
    np.testing.assert_array_equal(given.u_curr,
                                  step(state, tiny_sys, SQRT).u_curr)


def test_step_detects_non_finite(tiny_sys, tiny_model, tiny_grid):
    bad = np.full(tiny_grid.n_dof, np.nan)
    state = SimState(u_curr=bad, u_prev=bad, t=0.01, step_index=1, dt=0.01)
    with pytest.raises(NonFiniteError) as err:
        step(state, tiny_sys, tiny_model)
    assert err.value.step_index == 2


def test_step_refuses_state_of_another_dt(tiny_sys, tiny_model, tiny_grid):
    z = np.zeros(tiny_grid.n_dof)
    state = SimState(u_curr=z, u_prev=z, t=0.02, step_index=1, dt=0.02)
    with pytest.raises(ParameterError, match=r"0\.02.*0\.01"):
        step(state, tiny_sys, tiny_model)


# --- full runs --------------------------------------------------------------------

def test_run_zero_horizon(tiny_ops, tiny_model, tiny_grid):
    z = np.zeros(tiny_grid.n_dof)
    result = run(tiny_model, tiny_ops, z, z, dt=0.01, T=0.0)
    assert len(result.records) == 1  # nothing beyond the initial record


def test_run_evaluates_feedback_once_per_step(tiny_ops, tiny_grid, monkeypatch):
    import bergerdeck.integrator as integrator
    calls = []

    def counted(kind, s):
        calls.append(1)
        return eval_feedback(kind, s)

    monkeypatch.setattr(integrator, "eval_feedback", counted)
    u0 = np.zeros(tiny_grid.n_dof)
    run(SQRT, tiny_ops, u0, np.ones_like(u0), dt=0.01, T=0.5)
    # the bootstrap's initial velocity, then one per field level 1..50
    assert len(calls) == 1 + 50


def test_run_is_deterministic(tiny_ops, tiny_grid):
    u0 = solve_static(sin_load(tiny_grid, 50.0, 2), tiny_ops)
    v0 = np.zeros(tiny_grid.n_dof)
    a = run(SQRT, tiny_ops, u0, v0, dt=0.01, T=1.0)
    b = run(SQRT, tiny_ops, u0, v0, dt=0.01, T=1.0)
    assert [r.total for r in a.records] == [r.total for r in b.records]
    assert [r.dissipated_cum for r in a.records] == [r.dissipated_cum for r in b.records]
    np.testing.assert_array_equal(a.final_state.u_curr, b.final_state.u_curr)


@pytest.mark.parametrize("dt", [0.1, 0.01, 0.001])
def test_unconditional_stability(dt, undamped_ops, tiny_grid):
    u0 = solve_static(sin_load(tiny_grid, 50.0, 1), undamped_ops)
    v0 = np.zeros(tiny_grid.n_dof)
    result = run(UNDAMPED, undamped_ops, u0, v0, dt=dt, T=10.0, record_stride=10)
    e0 = result.records[0].total
    assert all(r.total <= 1.05 * e0 for r in result.records)


def test_damping_ledger_nonnegative_and_monotone(tiny_ops, tiny_grid):
    u0 = solve_static(sin_load(tiny_grid, 50.0, 2), tiny_ops)
    result = run(SQRT, tiny_ops, u0, np.zeros_like(u0), dt=0.01, T=2.0)
    ledgers = [r.dissipated_cum for r in result.records]
    assert ledgers[0] == 0.0
    assert all(b >= a for a, b in zip(ledgers, ledgers[1:]))
    assert ledgers[-1] > 0.0


def test_run_snapshot_capture(tiny_ops, tiny_model, tiny_grid, tmp_path):
    u0 = np.zeros(tiny_grid.n_dof)
    result = run(tiny_model, tiny_ops, u0, np.ones_like(u0), dt=0.01, T=0.5,
                 snapshot_times=(0.25,))
    assert 0.25 in result.snapshots
    t_actual, field = result.snapshots[0.25]
    assert t_actual == pytest.approx(0.25, abs=0.011)
    out = tmp_path / "snap.csv"
    dump_snapshot(field, tiny_grid, str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,j,x,y,value"
    assert len(lines) == 1 + tiny_grid.n_dof
    k, j, x, y, value = lines[1].split(",")
    assert (int(k), int(j)) == (0, 1)
    assert float(x) == pytest.approx(tiny_grid.dx)
