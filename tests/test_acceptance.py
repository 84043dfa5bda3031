"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The damped preset runs and the conservation runs are shared
across criteria through module fixtures, so the whole gate stays within a
few minutes on a laptop.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bergerdeck import (analytic_oracle, assemble_bilaplacian, assemble_d2_1d,
                        assemble_d4_hinged_1d, build_grid, build_operators,
                        build_weights, dissipation_residual, fit_decay,
                        lambda1_estimate, make_model, ode_decay, run,
                        sin_load, solve_static)
from bergerdeck.cli import preset, run_config
from bergerdeck.decaylaw import (AlgebraicInfinityLaw, AlgebraicOriginLaw,
                                 ExponentialLaw, LogarithmicLaw)
from bergerdeck.integrator import FactorizedSystem, SimState, step
from bergerdeck.model import feedback_from_name
from oracles import dense_step, observed_orders

PRESET_NAMES = ("fig6", "fig7", "fig8")


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {verdict} ({detail})", flush=True)


@pytest.fixture(scope="module")
def preset_runs():
    """fig6/fig7/fig8 with per-step records (stride 1 sharpens the
    monotonicity check; the presets' stride only thins output)."""
    return {name: run_config(replace(preset(name), record_stride=1))
            for name in PRESET_NAMES}


@pytest.fixture(scope="module")
def conservation_runs():
    """Undamped runs at dt and dt/2 with low-frequency compatible data.

    J = 75 stands in for the suggested 74 (Simpson weights need odd J).
    The initial field solves the bending problem for a 50 sin(x) load, so
    it is smooth and satisfies every discrete edge condition.
    """
    grid = build_grid(75, 49, math.pi / 4)
    ops = build_operators(grid, 0.2, 0)
    model = make_model(P=0.0, S=0.0, feedback=feedback_from_name("linear"))
    u0 = solve_static(sin_load(grid, 50.0, 1), ops)
    v0 = np.zeros_like(u0)
    out = {}
    for dt in (1e-3, 5e-4):
        result = run(model, FactorizedSystem(ops, dt), u0, v0, 10.0,
                     record_stride=int(round(10.0 / dt)))
        out[dt] = result.records
    return out


def test_criterion_1_static_accuracy(preset_grid):
    grid = preset_grid
    weights = build_weights(grid)
    started = time.perf_counter()
    u = solve_static(sin_load(grid, 50.0, 2), build_operators(grid, 0.2, 0))
    elapsed = time.perf_counter() - started
    oracle = analytic_oracle(50.0, 2, grid.l, 0.2)
    diff = u - oracle.sample(grid)
    error = math.sqrt(weights.integrate_cells(diff * diff))
    ok = error <= 5e-6 and elapsed <= 30.0
    _report(1, "static accuracy", ok,
            f"L2 error {error:.3e} vs 5e-6, runtime {elapsed:.1f}s; the "
            f"second-order scheme floors near 1.4e-3 on this grid")
    assert elapsed <= 30.0
    assert error <= 5e-6


def test_criterion_2_stencil_identity():
    worst = 0.0
    for n in range(5, 13):
        for h in (1.0, 0.5, 0.1):
            d2 = assemble_d2_1d(n, h)
            d4 = assemble_d4_hinged_1d(n, h)
            worst = max(worst, float(np.max(np.abs((d2 @ d2 - d4).toarray()))))
    _report(2, "stencil identity", worst == 0.0,
            f"max entrywise gap {worst:.1e} over n in 5..12, h in {{1, 0.5, 0.1}}")
    assert worst == 0.0


def test_criterion_3_conservation(conservation_runs):
    drifts = {}
    for dt, records in conservation_runs.items():
        e0, eT = records[0].total, records[-1].total
        drifts[dt] = abs(eT - e0) / e0
    ratio = drifts[1e-3] / drifts[5e-4]
    ok_drift = drifts[1e-3] <= 1e-2
    ok_ratio = ratio >= 3.0
    _report(3, "conservation", ok_drift and ok_ratio,
            f"drift {drifts[1e-3]:.3e} vs 1e-2; halving ratio {ratio:.2f} vs 3 "
            f"(the averaged-bilaplacian recurrence dissipates at first order)")
    assert ok_drift
    # with a zero damping ledger the identity residual is pure numerical drift
    assert dissipation_residual(conservation_runs[1e-3]) <= 1e-2
    assert ok_ratio


def test_criterion_4_monotonicity_and_identity(preset_runs):
    details = []
    ok = True
    for name in PRESET_NAMES:
        records = preset_runs[name].records
        e0 = records[0].total
        worst_rise = max(
            (b.total - a.total for a, b in zip(records, records[1:])
             if a.step >= 2), default=0.0)
        residual = dissipation_residual(records)
        ok_here = worst_rise <= 1e-12 * e0 and residual <= 0.05
        ok = ok and ok_here
        details.append(f"{name}: rise {worst_rise:.1e}, residual {residual:.3f}")
    _report(4, "monotone energy + dissipation identity", ok, "; ".join(details))
    for name in PRESET_NAMES:
        records = preset_runs[name].records
        e0 = records[0].total
        for a, b in zip(records, records[1:]):
            if a.step >= 2:
                assert b.total <= a.total + 1e-12 * e0
        assert dissipation_residual(records) <= 0.05


def test_criterion_5_linear_feedback_exponential_decay(preset_runs):
    records = preset_runs["fig7"].records
    t = np.array([r.t for r in records])
    e = np.array([r.total for r in records])
    fit = fit_decay(t, e, tail_fraction=0.5)
    decaying = fit.rate_or_exponent > 0  # log-slope of the tail is negative
    ok = fit.best == "exponential" and fit.r2_exp >= 0.98 and decaying
    _report(5, "linear feedback decays exponentially", ok,
            f"class {fit.best}, R2 {fit.r2_exp:.5f}, rate {fit.rate_or_exponent:.4f}")
    assert fit.best == "exponential"
    assert fit.r2_exp >= 0.98
    assert decaying


def test_criterion_6_table_forms_solve_the_ode():
    laws = [
        ExponentialLaw(c=0.8, s0=2.0),
        AlgebraicOriginLaw(exponent=0.5, c=1.3, c0=2.0),
        AlgebraicOriginLaw(exponent=3.0, c=0.9, c0=1.5),
        AlgebraicInfinityLaw(exponent=0.5, q=4.0, c=1.1, c0=1.0),
        AlgebraicInfinityLaw(exponent=3.0, q=8.0, c=0.6, c0=2.0),
        LogarithmicLaw(c1=0.5, c2=2.0, c0=3.0),
    ]
    worst = 0.0
    for law in laws:
        t = np.linspace(0.5, 20.0, 200)
        eps = 1e-3
        deriv = (-law.evaluate(t + 2 * eps) + 8 * law.evaluate(t + eps)
                 - 8 * law.evaluate(t - eps) + law.evaluate(t - 2 * eps)) / (12 * eps)
        residual = deriv + law.hinv(law.evaluate(t))
        worst = max(worst, float(np.max(np.abs(residual))
                                 / max(np.max(np.abs(deriv)), 1.0)))
    # the integrator against both separable closed forms at t = 5
    delta = 0.1
    _, lin = ode_decay(2.0, lambda s: 1.0 * s, delta, T=5.0, dt=1e-3)
    lin_exact = 2.0 * math.exp(-(1 - delta) * 5.0)
    gap_lin = abs(lin[-1] - lin_exact) / lin_exact
    c, p, s0 = 0.7, 2.5, 3.0
    _, pow_ = ode_decay(s0, lambda s: c * s ** p, delta, T=5.0, dt=1e-3)
    pow_exact = (s0 ** (1 - p) + c * (1 - delta) ** p * (p - 1) * 5.0) ** (-1 / (p - 1))
    gap_pow = abs(pow_[-1] - pow_exact) / pow_exact
    ok = worst <= 1e-8 and gap_lin <= 1e-6 and gap_pow <= 1e-6
    _report(6, "closed forms satisfy the decay ODE", ok,
            f"trajectory residual {worst:.1e} vs 1e-8; integrator gaps "
            f"{gap_lin:.1e}, {gap_pow:.1e} vs 1e-6")
    assert worst <= 1e-8
    assert gap_lin <= 1e-6 and gap_pow <= 1e-6


def test_criterion_7_step_matches_dense_reference(tiny_grid):
    grid = tiny_grid
    ops = build_operators(grid, 0.2, 1)
    model = make_model(P=1e-3, S=1e-5, feedback=feedback_from_name("linear"))
    dt = 0.01
    sys = FactorizedSystem(ops, dt=dt)
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(3):
        u = rng.normal(size=grid.n_dof)
        up = u + dt * rng.normal(size=grid.n_dof)
        state = SimState(u_curr=u, u_prev=up, t=dt, step_index=1, dt=dt)
        ours = step(state, sys, model).u_curr
        ref = dense_step(u, up, grid.J, grid.K, grid.l, 0.2, 1e-3, 1e-5, dt,
                         ops.damping.a, lambda s: s)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    ok = worst <= 1e-10
    _report(7, "step equals dense direct solve", ok,
            f"max-norm gap {worst:.2e} vs 1e-10 over seeded states")
    assert worst <= 1e-10


def test_criterion_8_convergence_order():
    errors = []
    for J, K in [(37, 24), (75, 49), (151, 99)]:
        grid = build_grid(J, K, math.pi / 4)
        mat = assemble_bilaplacian(grid, 0.2)
        X, _ = grid.meshgrid()
        probe = np.sin(2 * X).ravel()
        out = (mat @ probe).reshape(grid.shape)
        exact = 16.0 * np.sin(2 * grid.x_interior())
        errors.append(float(np.max(np.abs(out[2:-2] - exact[None, :]))))
    orders = observed_orders(errors)
    ok = all(1.7 <= order <= 2.3 for order in orders)
    _report(8, "interior truncation order", ok,
            "orders " + ", ".join(f"{o:.3f}" for o in orders) + " vs [1.7, 2.3]")
    for order in orders:
        assert 1.7 <= order <= 2.3


def test_criterion_9_energy_positivity(preset_grid, preset_runs):
    value = lambda1_estimate(preset_grid, 0.2)
    min_total = min(r.total for name in PRESET_NAMES
                    for r in preset_runs[name].records)
    ok = value > 1e-3 and min_total >= 0.0
    _report(9, "embedding constant dominates prestress", ok,
            f"lambda1 {value:.6f} > P = 1e-3; smallest recorded energy "
            f"{min_total:.3e}")
    assert value > 1e-3
    assert min_total >= 0.0
