"""Exception types shared across the package."""

import copyreg


class BergerdeckError(Exception):
    """Base class for all package errors.  Each pickles with its message
    and its extra field, so an error raised in a worker process keeps
    both."""

    def __reduce__(self):
        # rebuilt without ``__init__``, whose signature differs per class:
        # the message from ``args``, the extra field from ``__dict__``
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class SizingError(BergerdeckError, ValueError):
    """A count or dimension violates a structural bound."""


class ParityError(SizingError):
    """An interval count has the wrong parity for the quadrature rule."""


class ParameterError(BergerdeckError, ValueError):
    """A physical parameter lies outside its admissible range."""


class ShapeError(BergerdeckError, ValueError):
    """An array does not match the expected degrees of freedom."""


class ConfigError(BergerdeckError, ValueError):
    """A configuration document failed to parse or validate."""


class FitError(BergerdeckError, ValueError):
    """Not enough usable data to fit a decay law."""


class PlotError(BergerdeckError, ValueError):
    """Not enough plottable points to render a chart."""


class SolveError(BergerdeckError, RuntimeError):
    """A linear solve failed or missed its residual contract."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ConvergenceError(BergerdeckError, RuntimeError):
    """An iteration exhausted its budget before reaching tolerance."""

    def __init__(self, message: str, last_value: float | None = None):
        super().__init__(message)
        self.last_value = last_value


class SequencingError(BergerdeckError, RuntimeError):
    """An operation was called before the state it needs exists."""


class NonFiniteError(BergerdeckError, RuntimeError):
    """The simulation state stopped being finite."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index
