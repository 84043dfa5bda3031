"""Physical configuration: stretching coefficient, damping collar, and the
feedback catalog with the growth orders of each map."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError, ShapeError, SizingError
from .grid import Grid, QuadratureWeights


# ---------------------------------------------------------------------------
# feedback catalog

@dataclass(frozen=True)
class Linear:
    """g(s) = s."""

    label = "linear"
    order_at_origin = 1.0
    order_at_infinity = 1.0

    def _eval(self, s: np.ndarray) -> np.ndarray:
        return s.copy()


@dataclass(frozen=True)
class SqrtOdd:
    """Odd extension sign(s) sqrt(|s|).

    The bare square root is undefined for s < 0 and would break both
    monotonicity and the sign condition g(s) s > 0, so the odd extension is
    the only usable reading for a two-signed velocity field.
    """

    label = "sqrt"
    order_at_origin = 0.5
    order_at_infinity = 0.5

    def _eval(self, s: np.ndarray) -> np.ndarray:
        return np.sign(s) * np.sqrt(np.abs(s))


@dataclass(frozen=True)
class Power:
    """Odd power sign(s) |s|^exponent, exponent finite and > 0."""

    exponent: float
    label = "power"

    def __post_init__(self):
        if not 0 < self.exponent < math.inf:
            raise ParameterError(
                f"power exponent must be positive and finite, got {self.exponent}")

    @property
    def order_at_origin(self) -> float:
        return self.exponent

    @property
    def order_at_infinity(self) -> float:
        return self.exponent

    def _eval(self, s: np.ndarray) -> np.ndarray:
        return np.sign(s) * np.abs(s) ** self.exponent


@dataclass(frozen=True)
class Piecewise:
    """g(s) = s^2 for s >= 0 and s^3 for s < 0.

    The growth order is 2 on the right branch and 3 on the left; the single
    reported order is the larger one.
    """

    label = "piecewise"
    order_at_origin = 3.0
    order_at_infinity = 3.0

    def _eval(self, s: np.ndarray) -> np.ndarray:
        # s * s * s, not s ** 3: pow on negative bases is about 13x slower,
        # and the product is within 1 ulp of it
        sq = s * s
        return np.where(s >= 0.0, sq, sq * s)


@dataclass(frozen=True)
class ExpDegenerate:
    """g(s) = s^3 exp(-1/s^2) with the removable value g(0) = 0.

    Flatter than every power at the origin, so the origin order is infinite;
    at infinity the exponential factor tends to 1 and the cubic wins.
    """

    label = "expdeg"
    order_at_origin = math.inf
    order_at_infinity = 3.0

    def _eval(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros_like(s)
        nz = s != 0.0
        mag = np.abs(s[nz])
        # products, not pow: keeps the map exactly odd in floating point
        out[nz] = np.sign(s[nz]) * mag * mag * mag * np.exp(-1.0 / (mag * mag))
        return out


FeedbackKind = Union[Linear, SqrtOdd, Power, Piecewise, ExpDegenerate]

_FEEDBACK_NAMES = {"linear": Linear, "sqrt": SqrtOdd, "piecewise": Piecewise,
                   "expdeg": ExpDegenerate}


def eval_feedback(kind: FeedbackKind, s):
    """Evaluate g on a scalar or array; scalars come back as floats."""
    arr = np.asarray(s, dtype=float)
    out = kind._eval(np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def feedback_from_name(name: str) -> FeedbackKind:
    """Parse a config-file feedback name: linear | sqrt | power:<exp> |
    piecewise | expdeg."""
    if name in _FEEDBACK_NAMES:
        return _FEEDBACK_NAMES[name]()
    if name.startswith("power:"):
        try:
            exponent = float(name.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"bad power exponent in feedback name {name!r}")
        return Power(exponent)
    raise ParameterError(
        f"unknown feedback {name!r}; expected linear | sqrt | power:<exp> | "
        f"piecewise | expdeg"
    )


def feedback_name(kind: FeedbackKind) -> str:
    if isinstance(kind, Power):
        return f"power:{kind.exponent!r}"
    return kind.label


# ---------------------------------------------------------------------------
# damping collar

@dataclass(frozen=True)
class DampingField:
    """Per-node damping weights, 1 on the boundary collar and 0 elsewhere,
    and the flat indices of the collar's nodes, where the feedback is
    evaluated."""

    a: np.ndarray
    width: int
    nodes: np.ndarray


def damping_mask(grid: Grid, width: int) -> DampingField:
    """Indicator of the nodes strictly within ``width`` cells of any edge.

    The x distance of node j is j cells (the hinged end j = 0 is not an
    unknown); the y distance of level k is min(k, K+1-k), so the free-edge
    levels themselves (distance 0) belong to the collar.
    """
    if width < 0:
        raise SizingError(f"collar width must be nonnegative, got {width}")
    if width > 0 and 2 * width >= min(grid.J, grid.K + 2):
        raise SizingError(
            f"collar width {width} swallows the whole rectangle "
            f"(J={grid.J}, K+2={grid.K + 2})"
        )
    a = np.zeros(grid.shape)
    if width > 0:
        j_dist = np.minimum(np.arange(1, grid.J + 1), grid.J + 1 - np.arange(1, grid.J + 1))
        k_idx = np.arange(grid.K + 2)
        k_dist = np.minimum(k_idx, grid.K + 1 - k_idx)
        a[k_dist < width, :] = 1.0
        a[:, j_dist < width] = 1.0
    flat = a.ravel()
    nodes = np.flatnonzero(flat)
    flat.setflags(write=False)
    nodes.setflags(write=False)
    return DampingField(a=flat, width=width, nodes=nodes)


# ---------------------------------------------------------------------------
# nonlocal stretching coefficient

def stretch_integral(U: np.ndarray, uxx: np.ndarray,
                     weights: QuadratureWeights) -> float:
    """q = -<U, D_x^2 U>_D from ``uxx`` = D_x^2 U, the u_xx that the Berger
    force phi(q) D_x^2 U applies; D weighs a node by ``weights.wy`` in y
    times dx in x.  By parts, q sums u_x^2 by forward differences over each
    level's J+1 cells, and its D-gradient is -2 D_x^2 U: the force is the
    exact gradient of the stretch energy -P q/2 + S q^2/4.  One batched
    matmul of row against column takes each level's dot product with the
    bits of ``np.dot`` (``np.einsum`` sums in another order); the levels,
    weighted by ``wy``, are combined with math.fsum, so q is invariant under
    any reordering of the y-levels (exact reflection symmetry).
    """
    grid = weights.grid
    if U.shape != (grid.n_dof,) or uxx.shape != (grid.n_dof,):
        raise ShapeError(f"expected state and u_xx of length {grid.n_dof}, "
                         f"got {U.shape} and {uxx.shape}")
    levels = np.matmul(U.reshape(grid.shape)[:, None, :],
                       uxx.reshape(grid.shape)[:, :, None]).ravel()
    return -grid.dx * math.fsum(weights.wy * levels)


# ---------------------------------------------------------------------------
# model configuration

@dataclass(frozen=True)
class ModelConfig:
    """The constants of the stretching term and the feedback map; the collar
    it acts on belongs to the operators (``OperatorSet.damping``)."""

    P: float
    S: float
    feedback: FeedbackKind


def make_model(*, P: float, S: float, feedback: FeedbackKind) -> ModelConfig:
    """Validate P and S."""
    if not math.isfinite(P) or not math.isfinite(S):
        raise ParameterError(f"P and S must be finite, got P = {P}, S = {S}")
    if S < 0:
        raise ParameterError(f"stretching constant S must be nonnegative, got {S}")
    return ModelConfig(P=float(P), S=float(S), feedback=feedback)
