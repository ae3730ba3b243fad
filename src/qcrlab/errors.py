"""Exception types shared across the package.

Numerical failures raise subclasses of :class:`QcrlabError` so callers (and
the command-line driver) can distinguish them from programming errors.
Parameter-validation problems raise plain :class:`ValueError`.
"""

from __future__ import annotations


class QcrlabError(Exception):
    """Base class for numerical and configuration failures."""


class QuadratureError(QcrlabError):
    """An adaptive integral did not reach the requested tolerance.

    ``achieved`` is the error estimate of the failing integral and
    ``problem`` its index within a batched call.
    """

    def __init__(self, message: str, achieved: float | None = None,
                 problem: int | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.problem = problem


class TruncationError(QcrlabError):
    """A Fock-space cut keeps too little of a distribution.

    The cut is a drive's ``fock_cut`` or a ladder's ``n_cut``.
    """


class ConvergenceError(QcrlabError):
    """An iterative solver (root finding, optimisation, fit) failed."""


class GridError(QcrlabError):
    """A sampled grid does not satisfy the requirements of an operation."""


class UndefinedSteadyStateError(QcrlabError):
    """Both transition rates vanish; the steady state is not unique."""


class NonpositiveTemperatureError(QcrlabError):
    """Rate ratio does not correspond to a positive effective temperature."""


class FitError(QcrlabError):
    """A least-squares problem is degenerate or unresolved by the data."""


class ConfigError(QcrlabError):
    """A run configuration is malformed or inconsistent."""
