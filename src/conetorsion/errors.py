"""Exception taxonomy and the input screens shared across the package.

Bad parameters and violated hypotheses of the closed-form results raise
:class:`ValidationError`; iterative machinery that misses its tolerance raises
:class:`ConvergenceError` (command-line exit codes 2 and 3).  Every scalar
input is read through one screen (``number``, ``positive``, ``integer``,
``flag``, ``text``), which returns it checked and converted or raises
``ValidationError("{field} must be {rule}, got {value!r}")``.  No bool passes
for a number; an int beyond binary64 passes only a ``number`` rule admitting
nan.  :class:`ReadOnly` freezes cached records, and :class:`Record` makes
one a value.  ``MAX_ORDER`` bounds the order screen of the expansion
polynomials (``exactpoly``); it lives here so the CLI can print it without
loading them.
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


#: highest order of the exact expansion polynomials
MAX_ORDER = 12


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
    later computation, so a write would corrupt them.  It keeps identity
    ``==`` and hashing (a base manifold keys a weak cache); :class:`Record`
    adds value semantics on top."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


class Record(ReadOnly):
    """A read-only value whose fields are its ``__slots__``, in order.

    Adds field-wise ``==`` between records of one class, a hash of the
    fields, the repr ``Name(field=value, ...)`` (over ``_REPR``, by default
    every field), copies and pickles rebuilt through ``__init__``, and
    ``as_dict()``.  Records are written out by hand rather than as frozen
    dataclasses: ``dataclasses`` loads ``inspect``, about a third of a
    closed-form CLI command's import time."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def as_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = getattr(self, "_REPR", self.__slots__)
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()
