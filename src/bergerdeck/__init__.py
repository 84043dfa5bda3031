"""Finite-difference simulator for a rectangular bridge-deck plate with a
nonlocal stretching nonlinearity and damping on a boundary collar."""

from .grid import Grid, QuadratureWeights, build_grid, build_weights
from .model import (DampingField, ExpDegenerate, FeedbackKind, Linear,
                    ModelConfig, Piecewise, Power, SqrtOdd, damping_mask,
                    eval_feedback, feedback_from_name, feedback_name,
                    make_model, stretch_integral)
from .operators import (OperatorSet, assemble_bilaplacian, assemble_d2_1d,
                        assemble_d4_hinged_1d, assemble_dxx, assemble_dy2,
                        build_operators)
from .staticsolve import analytic_oracle, sin_load, solve_static
from .energy import (EnergyRecord, PlateFormEvaluator, dissipation_residual,
                     lambda1_estimate)
from .integrator import FactorizedSystem, RunResult, SimState, bootstrap, run, step
from .decaylaw import (AlgebraicInfinityLaw, AlgebraicOriginLaw, DecayLaw,
                       ExponentialLaw, FitResult, LogarithmicLaw, fit_decay,
                       ode_decay)

__version__ = "0.1.0"
