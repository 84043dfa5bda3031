"""Closed-form energy decay laws, the scalar decay ODE, and least-squares
classification of observed decay.

Decay of the damped plate is bounded by solutions of

    S'(t) + Hinv((1 - delta) S(t)) = 0,        S(0) = E(0),

where Hinv is built from the feedback's growth orders.  Closed forms exist
for power-law feedbacks (exponential at order 1, otherwise one algebraic
family) and for the degenerate exponential (logarithmic); their constants
c, c0 are not computable a priori and stay as fit parameters.  Each law exposes
the Hinv that solves its ODE exactly with the (1 - delta) factor absorbed
into c.  The proof's machinery (the family predicted from a feedback and
the concave majorant h) is reached by no command, and lives with the test
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import FitError, ParameterError


# ---------------------------------------------------------------------------
# decay laws

@dataclass(frozen=True)
class ExponentialLaw:
    """S(t) = s0 exp(-c t); the linear-feedback decay family."""

    c: float
    s0: float = 1.0

    def __post_init__(self):
        if self.c <= 0 or self.s0 <= 0:
            raise ParameterError("exponential law needs c > 0 and s0 > 0")

    def evaluate(self, t):
        return self.s0 * np.exp(-self.c * np.asarray(t, dtype=float))

    def hinv(self, s):
        return self.c * np.asarray(s, dtype=float)


@dataclass(frozen=True)
class AlgebraicInfinityLaw:
    """Power-feedback decay, the one algebraic family.

    For a feedback of growth order theta != 1 degenerating at infinity,
    with velocity integrability index q > 2 max(theta, 1):

        p = (q - 2 max(theta, 1)) / |1 - theta|,
        S(t) = [c/p (t + c0)]^(-p),    Hinv(s) = c s^(1 + 1/p).
    """

    exponent: float
    q: float
    c: float = 1.0
    c0: float = 1.0

    def __post_init__(self):
        if self.exponent <= 0 or self.exponent == 1.0:
            raise ParameterError(
                f"algebraic law needs a positive exponent != 1, got {self.exponent}")
        if self.q <= 2.0 * max(self.exponent, 1.0):
            raise ParameterError(
                f"integrability index q = {self.q} must exceed "
                f"{2.0 * max(self.exponent, 1.0)}")
        if self.c <= 0 or self.c0 <= 0:
            raise ParameterError("algebraic law needs c > 0 and c0 > 0")

    @property
    def _p(self) -> float:
        return (self.q - 2.0 * max(self.exponent, 1.0)) / abs(1.0 - self.exponent)

    def evaluate(self, t):
        p = self._p
        return (self.c / p * (np.asarray(t, dtype=float) + self.c0)) ** (-p)

    def hinv(self, s):
        return self.c * np.asarray(s, dtype=float) ** (1.0 + 1.0 / self._p)


class AlgebraicOriginLaw(AlgebraicInfinityLaw):
    """Power-feedback decay for feedbacks that degenerate only at the origin:
    the algebraic family at q = 2 (theta + 1), so p = 2 theta/(1 - theta)
    for theta < 1 and p = 2/(theta - 1) for theta > 1."""

    def __init__(self, exponent: float, c: float = 1.0, c0: float = 1.0):
        super().__init__(exponent, 2.0 * (exponent + 1.0), c, c0)


@dataclass(frozen=True)
class LogarithmicLaw:
    """S(t) = c2 / ln(c1 c2 t + c0); the degenerate-exponential family."""

    c1: float
    c2: float
    c0: float

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0 or self.c0 <= 1.0:
            raise ParameterError(
                "logarithmic law needs c1, c2 > 0 and c0 > 1 for positivity")

    def evaluate(self, t):
        return self.c2 / np.log(self.c1 * self.c2 * np.asarray(t, dtype=float) + self.c0)

    def hinv(self, s):
        s = np.asarray(s, dtype=float)
        return self.c1 * s * s * np.exp(-self.c2 / s)


DecayLaw = Union[ExponentialLaw, AlgebraicInfinityLaw, LogarithmicLaw]


# ---------------------------------------------------------------------------
# the decay ODE

def ode_decay(S0: float, Hinv: Callable[[float], float], delta: float,
              T: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate S' = -Hinv((1 - delta) S) with the classical 4-stage scheme.

    The trajectory is clamped at zero: a step that would cross below zero
    appends the absorbing value 0 and terminates the series.
    """
    if S0 <= 0:
        raise ParameterError(f"initial value must be positive, got {S0}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")

    def rate(s: float) -> float:
        return -float(Hinv((1.0 - delta) * max(s, 0.0)))

    n = int(round(T / dt))
    ts = [0.0]
    vals = [float(S0)]
    s = float(S0)
    for i in range(1, n + 1):
        k1 = rate(s)
        k2 = rate(s + 0.5 * dt * k1)
        k3 = rate(s + 0.5 * dt * k2)
        k4 = rate(s + dt * k3)
        s_next = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ts.append(i * dt)
        if s_next < 0.0:
            vals.append(0.0)
            break
        s = min(s_next, s)  # monotone ODE: guard roundoff-level upticks
        vals.append(s)
    return np.asarray(ts[:len(vals)]), np.asarray(vals)


# ---------------------------------------------------------------------------
# fitting observed decay

@dataclass(frozen=True)
class FitResult:
    best: str
    rate_or_exponent: float
    r2_exp: float
    r2_alg: float
    n_points: int


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y ~ a + b x; returns (a, b, R^2)."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def fit_decay(times: np.ndarray, energies: np.ndarray,
              tail_fraction: float = 0.5) -> FitResult:
    """Classify a decay series as exponential or algebraic on its tail.

    Fits log E against t and against log(t + 1) over the trailing
    ``tail_fraction`` of the series and keeps the better R^2.  For an
    exponential winner, ``rate_or_exponent`` is the positive decay rate k
    of E ~ exp(-k t); for an algebraic winner it is the signed exponent p
    of E ~ (t + 1)^p.  Nonpositive energies shrink the window to the
    leading positive run; a non-finite time or energy in the tail window
    raises FitError.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise FitError("times and energies must be matching 1-d arrays")
    if not 0.0 < tail_fraction <= 1.0:
        raise FitError(f"tail fraction must lie in (0, 1], got {tail_fraction}")
    start = len(t) - max(2, int(math.ceil(tail_fraction * len(t))))
    t_win = t[start:]
    e_win = e[start:]
    bad = np.flatnonzero(~(np.isfinite(t_win) & np.isfinite(e_win)))
    if bad.size:
        raise FitError(f"non-finite time or energy in the tail window at point "
                       f"{start + bad[0]}: t = {t_win[bad[0]]}, E = {e_win[bad[0]]}")
    bad = np.flatnonzero(e_win <= 0.0)
    if bad.size:
        t_win = t_win[:bad[0]]
        e_win = e_win[:bad[0]]
    if len(e_win) < 10:
        raise FitError(
            f"need at least 10 positive-energy points in the tail window, "
            f"got {len(e_win)}")
    log_e = np.log(e_win)
    _, slope_exp, r2_exp = _linear_fit(t_win, log_e)
    _, slope_alg, r2_alg = _linear_fit(np.log(t_win + 1.0), log_e)
    if r2_exp >= r2_alg:
        return FitResult(best="exponential", rate_or_exponent=-slope_exp,
                         r2_exp=r2_exp, r2_alg=r2_alg, n_points=len(e_win))
    return FitResult(best="algebraic", rate_or_exponent=slope_alg,
                     r2_exp=r2_exp, r2_alg=r2_alg, n_points=len(e_win))


def fit_report_row(label: str, fit: FitResult) -> str:
    """One CSV row of the comparison report; a label holding ',' or a line
    break would split the row, so it raises FitError."""
    if any(ch in label for ch in ",\r\n"):
        raise FitError(f"report label {label!r} must not hold ',' or a line break")
    return (f"{label},{fit.best},{fit.rate_or_exponent:.17g},"
            f"{fit.r2_exp:.17g},{fit.r2_alg:.17g}")
