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

def stretch_integral(U: np.ndarray, weights: QuadratureWeights) -> float:
    """Quadrature of u_x^2 with the centered first difference.

    Hinged values at j = 0, J+1 are exact zeros inside the stencil.  The
    level sums are combined with math.fsum, so the result is invariant under
    any reordering of the y-levels (exact reflection symmetry).  One batched
    matmul of row against column takes every level's dot product with the
    same bits as ``np.dot`` on that level; ``np.einsum`` sums in another
    order.
    """
    grid = weights.grid
    if U.shape != (grid.n_dof,):
        raise ShapeError(f"expected state of length {grid.n_dof}, got {U.shape}")
    u2 = U.reshape(grid.shape)
    ux = np.empty_like(u2)
    inv2dx = 1.0 / (2.0 * grid.dx)
    ux[:, 1:-1] = (u2[:, 2:] - u2[:, :-2]) * inv2dx
    ux[:, 0] = u2[:, 1] * inv2dx
    ux[:, -1] = -u2[:, -2] * inv2dx
    cell2 = weights.cell.reshape(grid.shape)
    sq = ux * ux
    return math.fsum(np.matmul(cell2[:, None, :], sq[:, :, None]).ravel())


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
