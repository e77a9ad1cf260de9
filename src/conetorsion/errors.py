"""Exception taxonomy and input guards shared across the package.

Validation problems (bad parameters, violated hypotheses of the closed-form
results) raise :class:`ValidationError`; iterative machinery that fails to
reach its tolerance raises :class:`ConvergenceError`.  The command line maps
these to exit codes 2 and 3 respectively.  ``is_number``/``is_finite_number``
screen numeric inputs, and :class:`ReadOnly` freezes cached records.
"""

import math
import numbers


class ValidationError(ValueError):
    """Input rejected: a stated hypothesis or parameter constraint fails."""


class SingularModelError(ValidationError):
    """The model operator has a zero mode (boundary parameter + order = 0)."""


class OrderLimitError(ValidationError):
    """An asymptotic-polynomial order beyond the supported range was requested."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to meet its accuracy target."""


def is_number(value) -> bool:
    """A real number that is not a bool (bool subclasses int)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite number within binary64 (strings, bools and nan refused)."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:           # an int beyond binary64
        return False


class ReadOnly:
    """Refuses attribute writes after construction (constructors set their
    fields through object.__setattr__): cached records are shared by every
    later computation, so a write would corrupt them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")
