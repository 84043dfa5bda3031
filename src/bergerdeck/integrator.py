"""Implicit time marching with the constant system matrix inverted once,
mode by mode.

One step solves

    (I + dt^2/2 B) U^{n+1} = 2 U^n - U^{n-1} - dt^2/2 B U^n
                             - dt^2 [ phi(U^n) (D_x^2 U^n) + a g(V^n) ]

with B the discrete bilaplacian, phi the nonlocal stretching coefficient,
and V^n = (U^n - U^{n-1})/dt the backward-difference velocity that also
feeds the damping term.  The averaged bilaplacian makes the scheme
unconditionally stable and mildly dissipative; the measured energy of a
run is non-increasing after the start-up step.

The orthonormal DST-I along x diagonalizes the hinged x second difference,
and every y block of B is a polynomial in it, so I + dt^2/2 B splits into
J independent (K+2) x (K+2) systems, one per x sine mode (Lynch, Rice &
Thomas 1964).  Their inverses are formed once per run; each solve is still
checked against the residual contract on the sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._direct import ModalSolver, refine_solve
from .energy import EnergyRecord, PlateFormEvaluator
from .errors import ConfigError, NonFiniteError, ParameterError, ShapeError
from .grid import Grid, QuadratureWeights, build_weights
from .model import (DampingField, ModelConfig, berger_coefficient,
                    damping_mask, eval_feedback)
from .operators import (SparseOperator, assemble_bilaplacian, assemble_dxx,
                        modal_blocks)


@dataclass(frozen=True)
class SimState:
    u_curr: np.ndarray
    u_prev: np.ndarray
    t: float
    step_index: int
    dt: float

    def velocity(self) -> np.ndarray:
        """Backward-difference velocity (u_curr - u_prev)/dt."""
        return (self.u_curr - self.u_prev) / self.dt


@dataclass(frozen=True)
class OperatorSet:
    """A run's grid, Poisson ratio and damping collar and the operators
    assembled from them, read by the stepper, the static solve and the
    energy evaluator."""

    grid: Grid
    sigma: float
    weights: QuadratureWeights
    bilaplacian: SparseOperator
    dxx: SparseOperator
    damping: DampingField


def build_operators(grid: Grid, sigma: float, damping_width: int) -> OperatorSet:
    """Assemble the operators of ``grid`` at ``sigma`` and lay out the
    collar of ``damping_width`` cells (0: no collar) on it."""
    return OperatorSet(grid=grid, sigma=sigma, weights=build_weights(grid),
                       bilaplacian=assemble_bilaplacian(grid, sigma),
                       dxx=assemble_dxx(grid),
                       damping=damping_mask(grid, damping_width))


class FactorizedSystem:
    """M = I + dt^2/2 * ops.bilaplacian, solved in x sine modes.

    The orthonormal DST-I along x splits M into one (K+2) x (K+2) block per
    mode (``operators.modal_blocks`` of ``ops``); the blocks are inverted
    once, so a solve is two transforms and a batched matrix-vector product.
    Every solve is checked against the relative residual contract
    ``_direct.RTOL`` on the sparse M; a miss raises SolveError.  ``ops``
    and ``dt`` stay on the system, so ``step`` and ``bootstrap`` read them
    from here.
    """

    def __init__(self, ops: OperatorSet, dt: float):
        if dt <= 0:
            raise ShapeError(f"time step must be positive, got {dt}")
        self.ops = ops
        self.dt = dt
        self.matrix = sp.identity(ops.grid.n_dof, format="csr") \
            + (dt * dt / 2.0) * ops.bilaplacian
        blocks = modal_blocks(ops.grid, ops.sigma)
        blocks *= dt * dt / 2.0
        blocks += np.eye(ops.grid.K + 2)
        self._solver = ModalSolver(blocks)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = refine_solve(self._solver, self.matrix, rhs)
        return x


def _damping_force(V: np.ndarray, model: ModelConfig,
                   ops: OperatorSet) -> np.ndarray:
    """a * g(V); a is zero off the collar, and everywhere without one."""
    return ops.damping.a * eval_feedback(model.feedback, V)


def _applied_force(U: np.ndarray, damping: np.ndarray,
                   model: ModelConfig, ops: OperatorSet) -> np.ndarray:
    """phi(U) * u_xx + a * g(V), the non-bilaplacian right-hand terms, with
    the damping term a * g(V) passed in."""
    phi = berger_coefficient(U, ops.weights, model.P, model.S)
    return phi * (ops.dxx @ U) + damping


def bootstrap(U0: np.ndarray, V0: np.ndarray, model: ModelConfig,
              sys: FactorizedSystem) -> SimState:
    """Second-order Taylor start: U^1 = U0 + dt V0 + dt^2/2 * A0, on the
    operators and time step of ``sys``."""
    ops, dt = sys.ops, sys.dt
    n = ops.grid.n_dof
    if U0.shape != (n,) or V0.shape != (n,):
        raise ShapeError(f"initial data must have length {n}, "
                         f"got {U0.shape} and {V0.shape}")
    accel = -(ops.bilaplacian @ U0) \
        - _applied_force(U0, _damping_force(V0, model, ops), model, ops)
    u1 = U0 + dt * V0 + 0.5 * dt * dt * accel
    if not np.isfinite(u1).all():
        raise NonFiniteError("non-finite state produced by the bootstrap", 1)
    return SimState(u_curr=u1, u_prev=U0.copy(), t=dt, step_index=1, dt=dt)


def step(state: SimState, sys: FactorizedSystem, model: ModelConfig,
         damping: np.ndarray | None = None) -> SimState:
    """Advance one time step on the operators and time step of ``sys``;
    ``damping`` is a * g(V) for the state's velocity if the caller has it
    already, else it is evaluated here.  A state marched at another time
    step raises ParameterError."""
    ops, dt = sys.ops, sys.dt
    if state.dt != dt:
        raise ParameterError(f"state has time step {state.dt:g}, "
                             f"the system was built for {dt:g}")
    u, up = state.u_curr, state.u_prev
    new_index = state.step_index + 1
    if damping is None:
        damping = _damping_force(state.velocity(), model, ops)
    rhs = 2.0 * u - up - (dt * dt / 2.0) * (ops.bilaplacian @ u) \
        - dt * dt * _applied_force(u, damping, model, ops)
    if not np.isfinite(rhs).all():
        raise NonFiniteError(f"non-finite state at step {new_index}", new_index)
    u_next = sys.solve(rhs)
    if not np.isfinite(u_next).all():
        raise NonFiniteError(f"non-finite state at step {new_index}", new_index)
    return SimState(u_curr=u_next, u_prev=u, t=state.t + dt,
                    step_index=new_index, dt=dt)


@dataclass
class RunResult:
    records: list[EnergyRecord]
    final_state: SimState
    snapshots: dict[float, tuple[float, np.ndarray]] = field(default_factory=dict)


def run(model: ModelConfig, ops: OperatorSet, U0: np.ndarray, V0: np.ndarray,
        dt: float, T: float, record_stride: int = 1,
        snapshot_times: tuple[float, ...] = ()) -> RunResult:
    """Bootstrap, march N = round(T/dt) steps, and collect energy records.

    The first record is taken right after the bootstrap (step 1); further
    records land every ``record_stride`` steps and at the final step.  The
    damping ledger accumulates dt * <a g(V), V> by the trapezoid rule over
    steps, so records carry the cumulative dissipation next to the energy;
    the same a g(V) feeds the next step's force.  Each snapshot time is
    taken at step round(t/dt); a time that rounds outside steps 1..N, or
    onto the step of an earlier request, raises ParameterError.
    Identical inputs produce bitwise-identical records.
    """
    if record_stride < 1:
        raise ShapeError(f"record stride must be >= 1, got {record_stride}")
    n_steps = int(round(T / dt))
    wanted_steps: dict[int, float] = {}
    for t_req in snapshot_times:
        k = int(round(t_req / dt))
        if not 1 <= k <= n_steps:
            raise ParameterError(f"snapshot time {t_req:g} rounds to step {k}, "
                                 f"outside steps 1..{n_steps} of T = {T:g}")
        if k in wanted_steps:
            raise ParameterError(f"snapshot times {wanted_steps[k]:g} and "
                                 f"{t_req:g} both round to step {k}")
        wanted_steps[k] = t_req

    sys = FactorizedSystem(ops, dt)
    evaluator = PlateFormEvaluator(ops)
    state = bootstrap(U0, V0, model, sys)

    def damping_power(s: SimState) -> tuple[np.ndarray, float]:
        """a g(V) and <a g(V), V> for the state's velocity V."""
        v = s.velocity()
        damping = _damping_force(v, model, ops)
        return damping, ops.weights.integrate_cells(damping * v)

    ledger = 0.0
    damping, power_prev = damping_power(state)
    records = [evaluator.record(state, model, ledger)]
    result = RunResult(records=records, final_state=state)
    if 1 in wanted_steps:
        result.snapshots[wanted_steps[1]] = (state.t, state.u_curr.copy())

    for n in range(2, n_steps + 1):
        state = step(state, sys, model, damping)
        damping, power = damping_power(state)
        ledger += dt * 0.5 * (power + power_prev)
        power_prev = power
        if (n - 1) % record_stride == 0 or n == n_steps:
            records.append(evaluator.record(state, model, ledger))
        if n in wanted_steps:
            result.snapshots[wanted_steps[n]] = (state.t, state.u_curr.copy())
    result.final_state = state
    return result


def dump_snapshot(U: np.ndarray, grid: Grid, path: str) -> None:
    """Write a flattened field as CSV rows (k, j, x, y, value)."""
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
