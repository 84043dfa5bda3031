"""Implicit time marching with the constant system matrix factored once,
mode by mode.

One step solves

    (I + dt^2/2 B) U^{n+1} = 2 U^n - U^{n-1} - dt^2/2 B U^n
                             - dt^2 [ phi(U^n) (D_x^2 U^n) + a g(V^n) ]

with B the discrete bilaplacian, phi the nonlocal stretching coefficient,
and V^n = (U^n - U^{n-1})/dt the backward-difference velocity that also
feeds the damping term.  The averaged bilaplacian makes the scheme
unconditionally stable and dissipative at first order in dt, and that is
not small at the preset dt = 0.01: over T = 30 the scheme itself removes
0.43 of E0 under fig7, 0.63 under fig6 and 0.07 under fig8, and 0.91
under fig7 with no collar.  The measured energy of the preset runs does
not rise after the start-up step, but other runs' can: from the static
field of a 50 sin(4x) load it rises 204 times under sqrt feedback and 21
under piecewise, by up to 1.0e-10 of E0.

The orthonormal DST-I along x diagonalizes the hinged x second difference,
and every y block of B is a polynomial in it, so I + dt^2/2 B splits into
J independent pentadiagonal (K+2) x (K+2) systems, one per x sine mode
(Lynch, Rice & Thomas 1964), which the trapezoid y weights make symmetric
positive definite.  One banded Cholesky factor of all of them, kept in
unit-diagonal form (``_direct.ModalSolver``), is formed per
``FactorizedSystem`` from a plate's ``operators.OperatorSet`` (its
sparse B and the modal band made with it), and any number of runs can
march on it; each solve is still checked against the residual contract,
with M x formed as x + dt^2/2 (B x) from the sparse B, and that B x is
the next step's B U^n.

The feedback g is evaluated on the collar's nodes only
(``DampingField.nodes``), since a is zero off the collar.  The terms of a
field level -- B U^n, D_x^2 U^n, the stretch integral, V^n, the force
phi(U^n) D_x^2 U^n + a g(V^n) and the damping power <a g(V^n), V^n> -- are
formed once (``LevelTerms``) and read by the step off it, its energy
record and the damping ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as _model
from ._direct import ModalSolver, refine_solve
from .energy import EnergyRecord, PlateFormEvaluator
from .errors import NonFiniteError, ParameterError, ShapeError
from .grid import level_weights
from .model import ModelConfig, eval_feedback
from .operators import OperatorSet, SparseOperator


@dataclass(frozen=True)
class SimState:
    u_curr: np.ndarray
    u_prev: np.ndarray
    t: float
    step_index: int
    dt: float
    # B u_curr as the residual check of the solve that produced u_curr
    # formed it, or None
    bu: np.ndarray | None = field(default=None, repr=False, compare=False)

    def velocity(self) -> np.ndarray:
        """Backward-difference velocity (u_curr - u_prev)/dt."""
        return (self.u_curr - self.u_prev) / self.dt


class FactorizedSystem:
    """M = I + dt^2/2 * ops.bilaplacian, solved in x sine modes.

    The orthonormal DST-I along x splits M into one pentadiagonal (K+2) x
    (K+2) block per mode; scaled by the trapezoid level weights W_y, the
    blocks are symmetric positive definite, and their band W_y + dt^2/2
    ``ops.band``, formed as a new array, is factored once by banded
    Cholesky and kept in unit-diagonal form, so a solve is two transforms
    and two banded triangular sweeps with no division in them.
    Every solve is checked against the relative residual contract
    ``_direct.RTOL``, with M x formed as x + dt^2/2 (B x) from the sparse B;
    a miss raises SolveError.  ``solve`` returns that B x with x, so the
    next step reads B U^n instead of forming it; after a correction sweep it
    is formed again on the corrected x.  ``ops``, ``dt`` and the shift
    ``h`` = dt^2/2 stay on the system; ``step`` and ``bootstrap`` read them.
    """

    def __init__(self, ops: OperatorSet, dt: float):
        if not 0 < dt < np.inf:
            raise ShapeError(f"time step must be positive and finite, got {dt}")
        self.ops = ops
        self.dt = dt
        self.h = dt * dt / 2.0
        band = ops.band * self.h
        band[0] += np.tile(level_weights(ops.grid), ops.grid.J)
        self._solver = ModalSolver(band, ops.grid)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x with M x = rhs, and B x."""
        check = _ShiftedProduct(self.ops.bilaplacian, self.h)
        x, _ = refine_solve(self._solver, check, rhs)
        return x, check.bx


class _ShiftedProduct:
    """M x = x + h (B x) for ``refine_solve``'s residual check, keeping the
    last B x; ``refine_solve`` checks the x it returns last."""

    def __init__(self, bilaplacian: SparseOperator, h: float):
        self._bilaplacian, self._h = bilaplacian, h
        self.bx: np.ndarray | None = None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self.bx = self._bilaplacian @ x
        return x + self._h * self.bx


@dataclass(frozen=True)
class LevelTerms:
    """What the step off a field level u with velocity V, the energy record
    of that level and the damping ledger read, each formed once."""

    bu: np.ndarray        # B u
    uxx: np.ndarray       # D_x^2 u
    q: float              # stretch integral -<u, D_x^2 u>_D
    velocity: np.ndarray  # V
    force: np.ndarray     # phi(u) D_x^2 u + a g(V)
    power: float          # <a g(V), V>, the damping ledger's integrand


def _damping_force(V: np.ndarray, model: ModelConfig,
                   ops: OperatorSet) -> np.ndarray:
    """a * g(V), with g evaluated on the collar's nodes only: a is 1 there
    and 0 elsewhere, and everywhere without a collar."""
    nodes = ops.damping.nodes
    force = np.zeros_like(V)
    force[nodes] = eval_feedback(model.feedback, V[nodes])
    return force


def _applied_force(U: np.ndarray, damping: np.ndarray, model: ModelConfig,
                   ops: OperatorSet) -> tuple[np.ndarray, np.ndarray, float]:
    """phi(U) * u_xx + a * g(V), the non-bilaplacian right-hand terms, with
    the damping term a * g(V) passed in; also u_xx = D_x^2 U and, from that
    same u_xx, the stretch integral q = -<U, u_xx>_D of phi = -P + S q."""
    uxx = ops.dxx @ U
    # looked up on the module, where perfbench's tracer wraps it
    q = _model.stretch_integral(U, uxx, ops.weights)
    return (-model.P + model.S * q) * uxx + damping, uxx, q


def _level_terms(u: np.ndarray, v: np.ndarray, model: ModelConfig,
                 ops: OperatorSet, bu: np.ndarray | None = None) -> LevelTerms:
    """The terms of level ``u`` with velocity ``v``; ``bu`` is B u if a
    residual check formed it already."""
    damping = _damping_force(v, model, ops)
    force, uxx, q = _applied_force(u, damping, model, ops)
    return LevelTerms(bu=ops.bilaplacian @ u if bu is None else bu, uxx=uxx,
                      q=q, velocity=v, force=force,
                      power=ops.weights.integrate_cells(damping * v))


def bootstrap(U0: np.ndarray, V0: np.ndarray, model: ModelConfig,
              sys: FactorizedSystem) -> SimState:
    """Second-order Taylor start: U^1 = U0 + dt V0 + dt^2/2 * A0, on the
    operators and time step of ``sys``."""
    ops, dt = sys.ops, sys.dt
    n = ops.grid.n_dof
    if U0.shape != (n,) or V0.shape != (n,):
        raise ShapeError(f"initial data must have length {n}, "
                         f"got {U0.shape} and {V0.shape}")
    initial = _level_terms(U0, V0, model, ops)
    accel = -initial.bu - initial.force
    u1 = U0 + dt * V0 + 0.5 * dt * dt * accel
    if not np.isfinite(u1).all():
        raise NonFiniteError("non-finite state produced by the bootstrap", 1)
    return SimState(u_curr=u1, u_prev=U0.copy(), t=dt, step_index=1, dt=dt)


def step(state: SimState, sys: FactorizedSystem, model: ModelConfig,
         terms: LevelTerms | None = None) -> SimState:
    """Advance one time step on the operators and time step of ``sys``;
    ``terms`` are the state's newest level's terms if the caller has them
    already, else they are formed here.  The new state carries the B u
    that its solve formed.  A state marched at another time step raises
    ParameterError."""
    ops, dt = sys.ops, sys.dt
    if state.dt != dt:
        raise ParameterError(f"state has time step {state.dt:g}, "
                             f"the system was built for {dt:g}")
    u, up = state.u_curr, state.u_prev
    new_index = state.step_index + 1
    if terms is None:
        terms = _level_terms(u, state.velocity(), model, ops, state.bu)
    rhs = 2.0 * u - up - sys.h * terms.bu - dt * dt * terms.force
    if not np.isfinite(rhs).all():
        raise NonFiniteError(f"non-finite state at step {new_index}", new_index)
    u_next, bu_next = sys.solve(rhs)
    if not np.isfinite(u_next).all():
        raise NonFiniteError(f"non-finite state at step {new_index}", new_index)
    return SimState(u_curr=u_next, u_prev=u, t=state.t + dt,
                    step_index=new_index, dt=dt, bu=bu_next)


@dataclass
class RunResult:
    records: list[EnergyRecord]
    final_state: SimState
    snapshots: dict[float, tuple[float, np.ndarray]] = field(default_factory=dict)


def run(model: ModelConfig, sys: FactorizedSystem, U0: np.ndarray,
        V0: np.ndarray, T: float, record_stride: int = 1,
        snapshot_times: tuple[float, ...] = ()) -> RunResult:
    """Bootstrap, march N = round(T/dt) steps on the operators and time
    step dt of ``sys``, and collect energy records.

    The first record is taken right after the bootstrap (step 1); further
    records land every ``record_stride`` steps and at the final step.  The
    damping ledger accumulates dt * <a g(V), V> by the trapezoid rule over
    steps, so records carry the cumulative dissipation next to the energy.
    Each level's terms feed the ledger, its record and the next step.  Each
    snapshot time is taken at step round(t/dt); a time that rounds outside
    steps 1..N, or onto the step of an earlier request, raises
    ParameterError, as does a T or a time over dt that is not finite.
    Identical inputs produce bitwise-identical records.
    """
    ops, dt = sys.ops, sys.dt
    if record_stride < 1:
        raise ShapeError(f"record stride must be >= 1, got {record_stride}")
    if not all(math.isfinite(t / dt) for t in (T, *snapshot_times)):
        raise ParameterError(f"T = {T:g} or a snapshot time over dt = {dt:g} "
                             f"is not a finite number of steps")
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

    evaluator = PlateFormEvaluator(ops)
    state = bootstrap(U0, V0, model, sys)

    ledger = 0.0
    terms = _level_terms(state.u_curr, state.velocity(), model, ops)
    records = [evaluator.record(state, model, ledger, terms)]
    result = RunResult(records=records, final_state=state)
    if 1 in wanted_steps:
        result.snapshots[wanted_steps[1]] = (state.t, state.u_curr.copy())

    for n in range(2, n_steps + 1):
        power_prev = terms.power
        state = step(state, sys, model, terms)
        terms = _level_terms(state.u_curr, state.velocity(), model, ops,
                             state.bu)
        ledger += dt * 0.5 * (terms.power + power_prev)
        if (n - 1) % record_stride == 0 or n == n_steps:
            records.append(evaluator.record(state, model, ledger, terms))
        if n in wanted_steps:
            result.snapshots[wanted_steps[n]] = (state.t, state.u_curr.copy())
    result.final_state = state
    return result

