"""Exception taxonomy and the input screens shared across the package.

Bad parameters and violated hypotheses of the closed-form results raise
:class:`ValidationError`; iterative machinery that misses its tolerance raises
:class:`ConvergenceError` (command-line exit codes 2 and 3).  Every scalar
input is read through one screen (``number``, ``positive``, ``integer``,
``flag``, ``text``), which returns it checked and converted or raises
``ValidationError("{field} must be {rule}, got {value!r}")``.  No bool passes
for a number; an int beyond binary64 passes only a ``number`` rule admitting
nan.  :class:`ReadOnly` freezes cached records.
"""

import math
import numbers
import sys


class ValidationError(ValueError):
    """Input rejected: a stated hypothesis or parameter constraint fails."""


class SingularModelError(ValidationError):
    """The model operator has a zero mode (boundary parameter + order = 0)."""


class OrderLimitError(ValidationError):
    """An asymptotic-polynomial order beyond the supported range was requested."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to meet its accuracy target."""


def number(value, field: str, rule: str = "a finite number", ok=math.isfinite) -> float:
    """``value`` as a float: a real number, not a bool, that ``ok`` accepts (an
    int beyond binary64 reads as nan, so only a rule admitting nan passes it)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:           # an int beyond binary64
            x = math.nan
        if ok(x):
            return x
    raise ValidationError(f"{field} must be {rule}, got {value!r}")


def positive(value, field: str) -> float:
    """``value`` as a float: a finite number > 0."""
    return number(value, field, "a finite number > 0", lambda x: 0.0 < x < math.inf)


def integer(value, field: str, lo=0, hi=math.inf, rule: str = "", error=ValidationError) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, in lo..hi
    and within binary64; a refusal raises ``error``."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and max(lo, -sys.float_info.max) <= value <= min(hi, sys.float_info.max)):
        return int(value)
    rule = rule or (f"an integer >= {lo}" if hi == math.inf else f"an integer in {lo}..{hi}")
    raise error(f"{field} must be {rule}, got {value!r}")


def flag(value, field: str) -> bool:
    """``value`` as a bool: a bool or numpy bool, nothing that merely converts.
    numpy's bool type is read from ``sys.modules``: no numpy bool exists
    before numpy loads, and this module must not load it."""
    numpy = sys.modules.get("numpy")
    if isinstance(value, bool) or numpy is not None and isinstance(value, numpy.bool_):
        return bool(value)
    raise ValidationError(f"{field} must be a bool, got {value!r}")


def text(value, field: str) -> str:
    """``value`` itself: a str."""
    if isinstance(value, str):
        return value
    raise ValidationError(f"{field} must be a string, got {value!r}")


class ReadOnly:
    """Refuses attribute writes after construction (constructors set their
    fields through object.__setattr__): cached records are shared by every
    later computation, so a write would corrupt them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")
