"""Exception taxonomy shared by the whole package.

Three families, matching the CLI exit codes:

* ValidationError (exit code 2): the inputs violate a documented domain
  constraint (ordering, range, missing field, empty data).
* NumericError (exit code 3): the computation itself went bad (non-finite
  values, negative compartments, singular transition matrix).
* ConfigError (exit code 4): a scenario document could not be parsed into
  a configuration (bad JSON, unknown or forbidden keys).
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input rejected by a domain-constraint check."""


class OrderError(ValidationError):
    """An ordering constraint failed (e.g. beta1 <= beta2, alpha1 <= alpha2)."""


class RangeError(ValidationError):
    """A value lies outside its admissible interval."""


class MissingFieldError(ValidationError):
    """A required field is absent."""


class EmptyTrajectoryError(ValidationError):
    """An operation needs at least one recorded state."""


class NumericError(ArithmeticError):
    """A numerical computation failed.

    ``time`` carries the simulation time at which the failure occurred,
    when one applies.  A failure during a run also sets ``step``, which
    numbers the failed step from 1 at the start of the run (integrate's, or
    step_rk4's one step).  A failed step sets ``compartment``, the
    component at fault: its name when the state's type names it
    (integrate, and so simulate, run_mixed and the CLI, always do), else
    its position.  A population drift names no compartment.
    """

    def __init__(
        self,
        message: str,
        time: float | None = None,
        compartment: str | int | None = None,
        step: int | None = None,
    ):
        super().__init__(message)
        self.time = time
        self.compartment = compartment
        self.step = step


class NonFiniteError(NumericError):
    """A state or derivative evaluated to NaN or infinity.

    ``compartment`` is the first non-finite component of a failed step.
    """


class NegativeStateError(NumericError):
    """A compartment dropped below the negativity tolerance (step too large).

    ``compartment`` is the component that fell lowest.
    """


class SingularMatrixError(NumericError):
    """The transition matrix is singular and cannot be inverted."""


class ConfigError(ValueError):
    """A scenario document failed to parse into a configuration."""
