import numpy as np
import pytest
import scipy.sparse as sp

from bergerdeck import (FactorizedSystem, Linear, OperatorSet, SqrtOdd,
                        bootstrap, build_grid, build_operators, build_weights,
                        dump_snapshot, make_model, run, sin_load, solve_static,
                        step)
from bergerdeck.errors import NonFiniteError, ShapeError
from bergerdeck.model import eval_feedback
from bergerdeck.integrator import SimState
from oracles import dense_bootstrap, dense_step

L, SIGMA = 1.0, 0.2


@pytest.fixture(scope="module")
def tiny_ops(tiny_grid):
    return build_operators(tiny_grid, SIGMA)


@pytest.fixture(scope="module")
def tiny_model(tiny_grid):
    return make_model(tiny_grid, P=1e-3, S=1e-5,
                      feedback=Linear(), damping_width=1)


def _undamped_model(grid):
    return make_model(grid, P=0.0, S=0.0, feedback=Linear(),
                      damping_width=0)


# --- bootstrap ------------------------------------------------------------

def test_bootstrap_zero_data(tiny_ops, tiny_model):
    z = np.zeros(tiny_ops.grid.n_dof)
    state = bootstrap(z, z, tiny_model, tiny_ops, dt=0.01)
    np.testing.assert_array_equal(state.u_curr, z)
    np.testing.assert_array_equal(state.u_prev, z)
    assert state.step_index == 1 and state.t == 0.01


def test_bootstrap_pure_velocity(tiny_ops, tiny_grid):
    model = _undamped_model(tiny_grid)
    z = np.zeros(tiny_grid.n_dof)
    v = 3.0 * np.ones(tiny_grid.n_dof)
    state = bootstrap(z, v, model, tiny_ops, dt=0.01)
    np.testing.assert_allclose(state.u_curr, 0.03, rtol=1e-15)


def test_bootstrap_matches_dense_oracle(tiny_ops, tiny_model, tiny_grid):
    u0 = solve_static(sin_load(tiny_grid, 50.0, 2), tiny_ops)
    v0 = np.zeros(tiny_grid.n_dof)
    state = bootstrap(u0, v0, tiny_model, tiny_ops, dt=0.01)
    ref = dense_bootstrap(u0, v0, tiny_grid.J, tiny_grid.K, tiny_grid.l,
                          SIGMA, 1e-3, 1e-5, 0.01, tiny_model.damping.a,
                          lambda s: s)
    np.testing.assert_allclose(state.u_curr, ref, rtol=0, atol=1e-12)


def test_bootstrap_shape_error(tiny_ops, tiny_model):
    with pytest.raises(ShapeError):
        bootstrap(np.zeros(3), np.zeros(3), tiny_model, tiny_ops, dt=0.01)


# --- single step ---------------------------------------------------------------

class _IdentitySystem:
    """Stands in for the factorized M = I + dt^2/2 B when B = 0."""

    def solve(self, rhs):
        return rhs.copy()


def test_step_free_recurrence(tiny_grid):
    # zero-operator surrogate: U^{n+1} = 2 U^n - U^{n-1}
    n = tiny_grid.n_dof
    zero = sp.csr_matrix((n, n))
    ops = OperatorSet(grid=tiny_grid, sigma=SIGMA,
                      weights=build_weights(tiny_grid), bilaplacian=zero,
                      dxx=zero)
    model = _undamped_model(tiny_grid)
    sys = _IdentitySystem()
    rng = np.random.default_rng(0)
    u, up = rng.normal(size=n), rng.normal(size=n)
    state = SimState(u_curr=u, u_prev=up, t=0.5, step_index=1, dt=0.5)
    out = step(state, sys, ops, model)
    np.testing.assert_allclose(out.u_curr, 2 * u - up, rtol=1e-14, atol=1e-14)


def test_step_zero_fixed_point(tiny_ops, tiny_model, tiny_grid):
    z = np.zeros(tiny_grid.n_dof)
    sys = FactorizedSystem(tiny_ops, dt=0.01)
    state = SimState(u_curr=z, u_prev=z, t=0.01, step_index=1, dt=0.01)
    out = step(state, sys, tiny_ops, tiny_model)
    np.testing.assert_array_equal(out.u_curr, z)


def test_step_matches_dense_oracle(tiny_ops, tiny_grid):
    model = make_model(tiny_grid, P=1e-3, S=1e-5,
                       feedback=SqrtOdd(), damping_width=1)
    dt = 0.01
    sys = FactorizedSystem(tiny_ops, dt=dt)
    rng = np.random.default_rng(99)
    u = rng.normal(size=tiny_grid.n_dof)
    up = u + dt * rng.normal(size=tiny_grid.n_dof)
    state = SimState(u_curr=u, u_prev=up, t=dt, step_index=1, dt=dt)
    out = step(state, sys, tiny_ops, model)
    g = lambda s: np.sign(s) * np.sqrt(np.abs(s))
    ref = dense_step(u, up, tiny_grid.J, tiny_grid.K, tiny_grid.l, SIGMA,
                     1e-3, 1e-5, dt, model.damping.a, g)
    assert np.max(np.abs(out.u_curr - ref)) <= 1e-10


def test_step_with_given_damping_is_bitwise_equal(tiny_ops, tiny_grid):
    from bergerdeck.integrator import _damping_force
    model = make_model(tiny_grid, P=1e-3, S=1e-5,
                       feedback=SqrtOdd(), damping_width=1)
    sys = FactorizedSystem(tiny_ops, dt=0.01)
    rng = np.random.default_rng(9)
    u, up = rng.normal(size=tiny_grid.n_dof), rng.normal(size=tiny_grid.n_dof)
    state = SimState(u_curr=u, u_prev=up, t=0.01, step_index=1, dt=0.01)
    given = step(state, sys, tiny_ops, model,
                 _damping_force(state.velocity(), model))
    np.testing.assert_array_equal(given.u_curr,
                                  step(state, sys, tiny_ops, model).u_curr)


def test_step_detects_non_finite(tiny_ops, tiny_model, tiny_grid):
    bad = np.full(tiny_grid.n_dof, np.nan)
    sys = FactorizedSystem(tiny_ops, dt=0.01)
    state = SimState(u_curr=bad, u_prev=bad, t=0.01, step_index=1, dt=0.01)
    with pytest.raises(NonFiniteError) as err:
        step(state, sys, tiny_ops, tiny_model)
    assert err.value.step_index == 2


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
    model = make_model(tiny_grid, P=1e-3, S=1e-5,
                       feedback=SqrtOdd(), damping_width=1)
    u0 = np.zeros(tiny_grid.n_dof)
    run(model, tiny_ops, u0, np.ones_like(u0), dt=0.01, T=0.5)
    # the bootstrap's initial velocity, then one per field level 1..50
    assert len(calls) == 1 + 50


def test_run_is_deterministic(tiny_ops, tiny_grid):
    model = make_model(tiny_grid, P=1e-3, S=1e-5,
                       feedback=SqrtOdd(), damping_width=1)
    u0 = solve_static(sin_load(tiny_grid, 50.0, 2), tiny_ops)
    v0 = np.zeros(tiny_grid.n_dof)
    a = run(model, tiny_ops, u0, v0, dt=0.01, T=1.0)
    b = run(model, tiny_ops, u0, v0, dt=0.01, T=1.0)
    assert [r.total for r in a.records] == [r.total for r in b.records]
    assert [r.dissipated_cum for r in a.records] == [r.dissipated_cum for r in b.records]
    np.testing.assert_array_equal(a.final_state.u_curr, b.final_state.u_curr)


@pytest.mark.parametrize("dt", [0.1, 0.01, 0.001])
def test_unconditional_stability(dt, tiny_grid):
    ops = build_operators(tiny_grid, SIGMA)
    model = _undamped_model(tiny_grid)
    u0 = solve_static(sin_load(tiny_grid, 50.0, 1), ops)
    v0 = np.zeros(tiny_grid.n_dof)
    result = run(model, ops, u0, v0, dt=dt, T=10.0, record_stride=10)
    e0 = result.records[0].total
    assert all(r.total <= 1.05 * e0 for r in result.records)


def test_damping_ledger_nonnegative_and_monotone(tiny_ops, tiny_grid):
    model = make_model(tiny_grid, P=1e-3, S=1e-5,
                       feedback=SqrtOdd(), damping_width=1)
    u0 = solve_static(sin_load(tiny_grid, 50.0, 2), tiny_ops)
    result = run(model, tiny_ops, u0, np.zeros_like(u0), dt=0.01, T=2.0)
    ledgers = [r.dissipated_cum for r in result.records]
    assert ledgers[0] == 0.0
    assert all(b >= a for a, b in zip(ledgers, ledgers[1:]))
    assert ledgers[-1] > 0.0


def test_run_refuses_collar_of_another_grid(tiny_ops):
    other = build_grid(7, 3, 1.0)
    model = make_model(other, P=0.0, S=0.0, feedback=Linear(), damping_width=1)
    z = np.zeros(tiny_ops.grid.n_dof)
    sizes = rf"\b{other.n_dof}\b.*\b{tiny_ops.grid.n_dof}\b"
    with pytest.raises(ShapeError, match=sizes):
        run(model, tiny_ops, z, z, dt=0.01, T=0.1)


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
