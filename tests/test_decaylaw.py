import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerdeck import (ExpDegenerate, Linear, Piecewise, Power, SqrtOdd,
                        eval_feedback, fit_decay, ode_decay)
from bergerdeck.decaylaw import (AlgebraicInfinityLaw, AlgebraicOriginLaw,
                                 ExponentialLaw, LogarithmicLaw,
                                 fit_report_row)
from bergerdeck.errors import FitError, ParameterError
from oracles import UnsupportedLawError, construct_h, h_tilde, predicted_law


# --- the concave majorant h --------------------------------------------------

def _check_majorant(kind, h):
    if isinstance(kind, ExpDegenerate):
        # below |s| ~ 0.037 the abscissa s*g(s) underflows float64 while
        # s^2 + g^2 stays positive; the property is unverifiable there
        s = np.linspace(0.05, 1.0, 1001)
    else:
        s = np.linspace(1e-6, 1.0, 1001)
    g = eval_feedback(kind, s)
    assert np.all(h(s * g) >= s * s + g * g - 1e-12)


def test_h_power_half_values():
    h = construct_h(Power(0.5))
    # at s = 0.5: s g(s) = 0.5^{3/2}, and h majorizes s^2 + g^2 = 0.75
    x = 0.5 ** 1.5
    assert h(x) == pytest.approx(2.0 * x ** (2.0 / 3.0), rel=1e-12)
    assert h(x) >= 0.75
    assert h(0.0) == 0.0


def test_h_vanishes_at_zero():
    for kind in (Linear(), SqrtOdd(), Power(0.5), Power(3.0), Piecewise(),
                 ExpDegenerate()):
        assert construct_h(kind)(0.0) == 0.0


@pytest.mark.parametrize("kind", [Linear(), SqrtOdd(), Power(0.5), Power(3.0),
                                  Piecewise(), ExpDegenerate()])
def test_h_majorant_property(kind):
    _check_majorant(kind, construct_h(kind))


@pytest.mark.parametrize("kind", [Power(0.5), Power(3.0), ExpDegenerate()])
def test_h_midpoint_concavity(kind):
    h = construct_h(kind)
    x = np.linspace(1e-6, 1.0, 1001)
    mid = h((x[:-1] + x[1:]) / 2.0)
    chord = (h(x[:-1]) + h(x[1:])) / 2.0
    assert np.all(mid >= chord - 1e-12)


# --- the h-tilde exponent -----------------------------------------------------

def test_h_tilde_linear_degenerates():
    mapping = h_tilde(1.0, 4.0)
    assert mapping.exponent == 1.0
    assert mapping(0.37) == 0.37


def test_h_tilde_superlinear():
    assert h_tilde(3.0, 8.0).exponent == pytest.approx(0.5, rel=1e-14)


def test_h_tilde_sublinear():
    assert h_tilde(0.5, 4.0).exponent == pytest.approx(0.8, rel=1e-14)


def test_h_tilde_bound_enforced():
    with pytest.raises(ParameterError, match="p0"):
        h_tilde(3.0, 6.0)
    with pytest.raises(ParameterError, match="p0"):
        h_tilde(0.5, 2.0)


# --- the decay ODE ------------------------------------------------------------

def test_ode_linear_closed_form():
    c, delta = 1.0, 0.1
    ts, vals = ode_decay(2.0, lambda s: c * s, delta, T=5.0, dt=1e-3)
    exact = 2.0 * math.exp(-c * (1 - delta) * 5.0)
    assert vals[-1] == pytest.approx(exact, rel=1e-6)


def test_ode_power_closed_form():
    c, p, delta, s0 = 0.7, 2.5, 0.1, 3.0
    ts, vals = ode_decay(s0, lambda s: c * s ** p, delta, T=5.0, dt=1e-3)
    exact = (s0 ** (1 - p) + c * (1 - delta) ** p * (p - 1) * 5.0) ** (-1 / (p - 1))
    assert vals[-1] == pytest.approx(exact, rel=1e-6)


def test_ode_output_positive_nonincreasing():
    ts, vals = ode_decay(1.0, lambda s: 2.0 * s ** 0.6, 0.1, T=20.0, dt=1e-2)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 0.0)


def test_ode_clamps_to_absorbing_zero():
    # constant decay rate crosses zero in finite time
    ts, vals = ode_decay(1.0, lambda s: 1.0, 0.5, T=10.0, dt=0.1)
    assert vals[-1] == 0.0
    assert len(vals) < 102


# --- closed forms against the ODE ----------------------------------------------

ALL_LAWS = [
    ExponentialLaw(c=0.8, s0=3.0),
    AlgebraicOriginLaw(exponent=0.5, c=1.3, c0=2.0),
    AlgebraicOriginLaw(exponent=3.0, c=0.9, c0=1.5),
    AlgebraicInfinityLaw(exponent=0.5, q=4.0, c=1.1, c0=1.0),
    AlgebraicInfinityLaw(exponent=3.0, q=8.0, c=0.6, c0=2.0),
    LogarithmicLaw(c1=0.5, c2=2.0, c0=3.0),
    AlgebraicOriginLaw(exponent=0.25, c=0.7, c0=1.2),
    AlgebraicInfinityLaw(exponent=2.0, q=6.0, c=0.8, c0=1.5),
]


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
def test_law_positive_nonincreasing(law):
    t = np.linspace(0.0, 50.0, 400)
    vals = law.evaluate(t)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) <= 0.0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
def test_law_solves_its_ode(law):
    # S'(t) + Hinv(S(t)) = 0 checked with a 4th-order numeric derivative
    t = np.linspace(0.5, 20.0, 100)
    e = 1e-3
    deriv = (-law.evaluate(t + 2 * e) + 8 * law.evaluate(t + e)
             - 8 * law.evaluate(t - e) + law.evaluate(t - 2 * e)) / (12 * e)
    residual = deriv + law.hinv(law.evaluate(t))
    scale = np.max(np.abs(deriv))
    assert np.max(np.abs(residual)) <= 1e-8 * max(scale, 1.0)


def test_table_theta_row_closed_form():
    # g = s^theta near the origin: S(t) = [c(1-theta)/(2 theta) (t+c0)]^(-2theta/(1-theta))
    theta, c, c0 = 0.5, 1.3, 2.0
    law = AlgebraicOriginLaw(exponent=theta, c=c, c0=c0)
    t = np.linspace(0.0, 10.0, 50)
    direct = (c * (1 - theta) / (2 * theta) * (t + c0)) ** (-2 * theta / (1 - theta))
    np.testing.assert_allclose(law.evaluate(t), direct, rtol=1e-14)
    # and its matching map is c * s^((theta+1)/(2 theta))
    s = np.linspace(0.01, 2.0, 20)
    np.testing.assert_allclose(law.hinv(s), c * s ** ((theta + 1) / (2 * theta)),
                               rtol=1e-14)


def test_ode_decay_tracks_table_row():
    theta = 0.5
    law = AlgebraicOriginLaw(exponent=theta, c=1.0, c0=1.0)
    s0 = float(law.evaluate(0.0))
    # absorb the (1 - delta) factor the integrator applies
    delta = 0.1
    hinv = lambda s: law.hinv(s / (1.0 - delta))
    ts, vals = ode_decay(s0, hinv, delta, T=5.0, dt=1e-3)
    assert vals[-1] == pytest.approx(float(law.evaluate(5.0)), rel=1e-6)


# --- predicted families -----------------------------------------------------------

def test_predicted_linear_is_exponential():
    fam = predicted_law(Linear(), "origin")
    assert fam.name == "exponential"
    assert isinstance(fam.instantiate(c=2.0), ExponentialLaw)


def test_predicted_sublinear_origin_exponent():
    fam = predicted_law(Power(0.5), "origin")
    law = fam.instantiate(c=1.0, c0=1.0)
    theta = 0.5
    # decay exponent -2 theta / (1 - theta)
    t = np.array([1.0, 3.0, 7.0])
    expo = -2 * theta / (1 - theta)
    ratio = law.evaluate(t) / ((law.c * (1 - theta) / (2 * theta) * (t + 1.0)) ** expo)
    np.testing.assert_allclose(ratio, 1.0, rtol=1e-14)


def test_predicted_expdeg_is_logarithmic():
    fam = predicted_law(ExpDegenerate(), "origin")
    assert fam.name == "logarithmic"
    law = fam.instantiate(c1=1.0, c2=2.0, c0=3.0)
    assert isinstance(law, LogarithmicLaw)


def test_predicted_piecewise_uses_larger_order():
    fam = predicted_law(Piecewise(), "origin")
    law = fam.instantiate()
    assert isinstance(law, AlgebraicOriginLaw) and law.exponent == 3.0


def test_predicted_infinity_needs_p0():
    with pytest.raises(UnsupportedLawError, match="p0"):
        predicted_law(Power(3.0), "infinity")
    fam = predicted_law(Power(3.0), "infinity", p0=8.0)
    assert fam.name == "algebraic-infinity"
    with pytest.raises(UnsupportedLawError):
        predicted_law(ExpDegenerate(), "infinity", p0=8.0)
    with pytest.raises(UnsupportedLawError):
        predicted_law(Linear(), "sideways")


# one row per (feedback, regime): the family predicted without p0 and with
# p0 = 8, each as (family, law class, exponent, q) or the error's message
_P0_ERR = "needs the integrability index p0"
_EXPDEG_ERR = "no closed form at infinity"
_EXP = ("exponential", "ExponentialLaw", None, None)
PREDICTION_TABLE = [
    (Linear(), "origin", _EXP, _EXP),
    (Linear(), "infinity", _EXP, _EXP),
    (SqrtOdd(), "origin", ("algebraic-origin", "AlgebraicOriginLaw", 0.5, None),
     ("algebraic-origin", "AlgebraicOriginLaw", 0.5, None)),
    (SqrtOdd(), "infinity", _P0_ERR,
     ("algebraic-infinity", "AlgebraicInfinityLaw", 0.5, 8.0)),
    (Power(0.5), "origin", ("algebraic-origin", "AlgebraicOriginLaw", 0.5, None),
     ("algebraic-origin", "AlgebraicOriginLaw", 0.5, None)),
    (Power(0.5), "infinity", _P0_ERR,
     ("algebraic-infinity", "AlgebraicInfinityLaw", 0.5, 8.0)),
    (Power(1.0), "origin", _EXP, _EXP),
    (Power(1.0), "infinity", _EXP, _EXP),
    (Power(3.0), "origin", ("algebraic-origin", "AlgebraicOriginLaw", 3.0, None),
     ("algebraic-origin", "AlgebraicOriginLaw", 3.0, None)),
    (Power(3.0), "infinity", _P0_ERR,
     ("algebraic-infinity", "AlgebraicInfinityLaw", 3.0, 8.0)),
    (Piecewise(), "origin", ("algebraic-origin", "AlgebraicOriginLaw", 3.0, None),
     ("algebraic-origin", "AlgebraicOriginLaw", 3.0, None)),
    (Piecewise(), "infinity", _P0_ERR,
     ("algebraic-infinity", "AlgebraicInfinityLaw", 3.0, 8.0)),
    (ExpDegenerate(), "origin", ("logarithmic", "LogarithmicLaw", None, None),
     ("logarithmic", "LogarithmicLaw", None, None)),
    (ExpDegenerate(), "infinity", _EXPDEG_ERR, _EXPDEG_ERR),
]


@pytest.mark.parametrize("kind, regime, without_p0, with_p0", PREDICTION_TABLE)
def test_predicted_law_table(kind, regime, without_p0, with_p0):
    for p0, expected in ((None, without_p0), (8.0, with_p0)):
        if isinstance(expected, str):
            with pytest.raises(UnsupportedLawError, match=expected):
                predicted_law(kind, regime, p0)
            continue
        name, law_class, exponent, q = expected
        fam = predicted_law(kind, regime, p0)
        law = fam.instantiate()
        assert (fam.name, type(law).__name__) == (name, law_class)
        if exponent is not None:
            assert law.exponent == exponent
        if q is not None:
            assert law.q == q


# the majorant's values at x = 0, 1e-3, 0.125, 0.5, 1
MAJORANT_VALUES = [
    (Linear(), [0.0, 0.002, 0.25, 1.0, 2.0]),
    (SqrtOdd(), [0.0, 0.020000000000000004, 0.5, 1.2599210498948732, 2.0]),
    (Power(0.5), [0.0, 0.020000000000000004, 0.5, 1.2599210498948732, 2.0]),
    (Power(1.0), [0.0, 0.002, 0.25, 1.0, 2.0]),
    (Power(3.0), [0.0, 0.06324555320336758, 0.7071067811865476,
                  1.4142135623730951, 2.0]),
    (Piecewise(), [0.0, 0.06324555320336758, 0.7071067811865476,
                   1.4142135623730951, 2.0]),
    (ExpDegenerate(), [0.0, 1.4476482730108395, 4.8089834696298785,
                       11.736320123663312, 20.972640247326623]),
]


@pytest.mark.parametrize("kind, values", MAJORANT_VALUES)
def test_construct_h_values(kind, values):
    h = construct_h(kind)
    x = np.array([0.0, 1e-3, 0.125, 0.5, 1.0])
    np.testing.assert_allclose(h(x), values, rtol=1e-14, atol=0.0)
    assert [float(h(v)) for v in x] == pytest.approx(values, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.9, 1.5, 3.0])
def test_origin_law_is_infinity_law_at_q(theta):
    # the origin family is the infinity family at q = 2 (theta + 1)
    c, c0 = 1.3, 0.7
    origin = AlgebraicOriginLaw(exponent=theta, c=c, c0=c0)
    infinity = AlgebraicInfinityLaw(exponent=theta, q=2.0 * (theta + 1.0),
                                    c=c, c0=c0)
    t = np.linspace(0.0, 40.0, 81)
    s = np.geomspace(1e-6, 10.0, 41)
    np.testing.assert_allclose(origin.evaluate(t), infinity.evaluate(t), rtol=1e-13)
    np.testing.assert_allclose(origin.hinv(s), infinity.hinv(s), rtol=1e-13)


# --- decay fitting ------------------------------------------------------------------

def test_fit_exact_exponential():
    t = np.linspace(0.0, 10.0, 200)
    fit = fit_decay(t, 3.0 * np.exp(-2.0 * t))
    assert fit.best == "exponential"
    assert fit.rate_or_exponent == pytest.approx(2.0, abs=1e-10)
    assert fit.r2_exp == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_algebraic():
    t = np.linspace(0.0, 50.0, 400)
    fit = fit_decay(t, (t + 1.0) ** (-4.0))
    assert fit.best == "algebraic"
    assert fit.rate_or_exponent == pytest.approx(-4.0, abs=1e-8)
    assert fit.r2_alg == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=1e-6, max_value=1e6),
       rate=st.floats(min_value=0.1, max_value=5.0))
def test_fit_scale_equivariance(alpha, rate):
    t = np.linspace(0.0, 8.0, 120)
    base = np.exp(-rate * t)
    f1 = fit_decay(t, base)
    f2 = fit_decay(t, alpha * base)
    assert f1.best == f2.best == "exponential"
    assert f2.rate_or_exponent == pytest.approx(f1.rate_or_exponent, rel=1e-9)


def test_fit_window_shrinks_past_nonpositive():
    t = np.linspace(0.0, 10.0, 100)
    e = np.exp(-t)
    e[80:] = 0.0  # tail window [50:], positive prefix [50:80]
    fit = fit_decay(t, e)
    assert fit.best == "exponential"
    assert fit.n_points == 30


def test_fit_needs_ten_points():
    t = np.linspace(0.0, 1.0, 12)
    e = np.exp(-t)
    e[3:] = 0.0
    with pytest.raises(FitError, match="10"):
        fit_decay(t, e)


@pytest.mark.parametrize("t_bad, e_bad", [
    (None, math.nan), (None, math.inf), (math.nan, None), (math.inf, None)])
def test_fit_refuses_non_finite_tail(t_bad, e_bad):
    t = np.linspace(0.0, 10.0, 40)
    e = np.exp(-t)
    if t_bad is not None:
        t[30] = t_bad
    if e_bad is not None:
        e[30] = e_bad
    with pytest.raises(FitError, match="non-finite time or energy .* point 30"):
        fit_decay(t, e)


def test_fit_ignores_non_finite_before_tail():
    t = np.linspace(0.0, 10.0, 40)
    e = np.exp(-t)
    e[5] = math.nan  # tail window is [20:]
    assert fit_decay(t, e).best == "exponential"


@pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
def test_fit_report_row_refuses_splitting_label(label):
    fit = fit_decay(np.linspace(0.0, 10.0, 50), np.exp(-np.linspace(0.0, 10.0, 50)))
    with pytest.raises(FitError, match="must not hold ','"):
        fit_report_row(label, fit)


def test_fit_report_row_format():
    t = np.linspace(0.0, 10.0, 50)
    fit = fit_decay(t, np.exp(-t))
    row = fit_report_row("fig7", fit)
    fields = row.split(",")
    assert fields[0] == "fig7" and fields[1] == "exponential"
    assert float(fields[2]) == pytest.approx(1.0, abs=1e-9)
