"""Exact rational arithmetic for the uniform-asymptotic polynomials.

Everything here is computed over Fraction coefficients — no floating point
enters the generation path.  The module produces:

* ``gen_u(r)``, ``gen_v(r)``: Olver's polynomials for the large-order
  expansions of I_nu(nu z) and I_nu'(nu z), via the normative recursion
      u_0 = 1,
      u_{k+1}(t) = t^2 (1 - t^2)/2 * u_k'(t) + 1/8 * int_0^t (1 - 5 s^2) u_k(s) ds,
      v_0 = 1,
      v_k(t) = u_k(t) + t (t^2 - 1) ( u_{k-1}(t)/2 + t u_{k-1}'(t) ).
* ``gen_D(r)``: the formal-logarithm polynomials of the u-series,
      log(1 + sum_r u_r/nu^r) ~ sum_r D_r(t)/nu^r.
* ``gen_M(r)``: the formal logarithm of the v-series combined with a boundary
  parameter alpha,
      log[(1 + sum_r v_r/nu^r) + (alpha/nu) t (1 + sum_r u_r/nu^r)]
          ~ sum_r M_r(t, alpha)/nu^r,
  kept symbolic in alpha.

All of them are ``Polynomial``s: one sparse read-only type in t and alpha
(D_r has no alpha terms).  ``parity_bracket`` reads the coefficients of
t^(r+2b), b = 0..r, of the D/M bracket straight from their terms.  The residual
helpers return exact zero Fractions when the classical cross-identities hold,
and are written so a deliberately corrupted polynomial makes them non-zero
(the self-test uses that to prove the checks have teeth).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import MAX_ORDER, OrderLimitError, ReadOnly, integer

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_order(r: int, smallest: int) -> int:
    """r as an int if a Python or numpy integer (not a bool) in smallest..MAX_ORDER.
    The generators cache typed: else True would hit the entry of 1 unchecked."""
    return integer(r, "order", smallest, MAX_ORDER, error=OrderLimitError)


class Polynomial(ReadOnly):
    """Read-only sparse polynomial in t and alpha over the rationals.

    ``terms`` maps (i, j) to the nonzero Fraction coefficient of t^i alpha^j;
    a polynomial in t alone has only j = 0 terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", MappingProxyType(
            {ij: Fraction(c) for ij, c in terms.items() if c != 0}))

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for ij, c in other.terms.items():
            out[ij] = out.get(ij, _ZERO) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict = {}
        for (i, j), a in self.terms.items():
            for (p, q), b in other.terms.items():
                key = (i + p, j + q)
                out[key] = out.get(key, _ZERO) + a * b
        return Polynomial(out)

    def scale(self, k) -> "Polynomial":
        k = Fraction(k)
        return Polynomial({ij: c * k for ij, c in self.terms.items()})

    def shift(self, powers: int) -> "Polynomial":
        """Multiply by t**powers."""
        return Polynomial({(i + powers, j): c for (i, j), c in self.terms.items()})

    # -- calculus in t ---------------------------------------------------
    def derivative(self) -> "Polynomial":
        return Polynomial({(i - 1, j): c * i
                           for (i, j), c in self.terms.items() if i})

    def integral(self) -> "Polynomial":
        """Antiderivative vanishing at t = 0."""
        return Polynomial({(i + 1, j): c / (i + 1)
                           for (i, j), c in self.terms.items()})

    # -- evaluation ------------------------------------------------------
    def at_alpha(self, alpha) -> "Polynomial":
        """Exact substitution alpha -> Fraction(alpha): a polynomial in t."""
        alpha = Fraction(alpha)
        out: dict = {}
        for (i, j), c in self.terms.items():
            out[i, 0] = out.get((i, 0), _ZERO) + c * alpha ** j
        return Polynomial(out)

    def __call__(self, t):
        """Horner evaluation in t over every power from the top down; exact
        for Fraction/int t, float for float t.  Refuses alpha terms."""
        if any(j for _, j in self.terms):
            raise ValueError("polynomial has alpha terms: substitute alpha first")
        exact = not isinstance(t, float)
        t, acc = (Fraction(t), _ZERO) if exact else (t, 0.0)
        for p in range(max((i for i, _ in self.terms), default=-1), -1, -1):
            c = self.terms.get((p, 0), _ZERO)
            acc = acc * t + (c if exact else float(c))
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Polynomial({dict(sorted(self.terms.items()))!r})"


_P_ONE = Polynomial({(0, 0): _ONE})
_LEAD = Polynomial({(2, 0): Fraction(1, 2), (4, 0): Fraction(-1, 2)})  # t^2(1-t^2)/2
_KERN = Polynomial({(0, 0): Fraction(1, 8), (2, 0): Fraction(-5, 8)})  # (1-5s^2)/8
_CUBIC = Polynomial({(1, 0): -_ONE, (3, 0): _ONE})                     # t(t^2-1)
_ALPHA_T = Polynomial({(1, 1): _ONE})                                  # alpha*t


def _log_coefficient(r: int, w, log):
    """Order-r coefficient of log(1 + sum_k w(k)/nu^k), given ``log`` for the
    orders below r, by the log-derivative recurrence
        r L_r = r W_r - sum_{j<r} j L_j W_{r-j}.
    """
    acc = w(r)
    for j in range(1, r):
        acc = acc + (log(j) * w(r - j)).scale(Fraction(-j, r))
    return acc


@lru_cache(maxsize=None, typed=True)
def gen_u(r: int) -> Polynomial:
    r = _check_order(r, 0)
    if r == 0:
        return _P_ONE
    prev = gen_u(r - 1)
    return _LEAD * prev.derivative() + (_KERN * prev).integral()


@lru_cache(maxsize=None, typed=True)
def gen_v(r: int) -> Polynomial:
    r = _check_order(r, 0)
    if r == 0:
        return _P_ONE
    u_prev = gen_u(r - 1)
    bracket = u_prev.scale(Fraction(1, 2)) + u_prev.derivative().shift(1)
    return gen_u(r) + _CUBIC * bracket


@lru_cache(maxsize=None, typed=True)
def gen_D(r: int) -> Polynomial:
    r = _check_order(r, 1)
    return _log_coefficient(r, gen_u, gen_D)


@lru_cache(maxsize=None)
def _m_term(k: int) -> Polynomial:
    """Order-k coefficient of (1 + sum v_k/nu^k) + (alpha/nu) t (1 + sum u_k/nu^k)."""
    return gen_v(k) + _ALPHA_T * gen_u(k - 1)


@lru_cache(maxsize=None, typed=True)
def gen_M(r: int) -> Polynomial:
    r = _check_order(r, 1)
    return _log_coefficient(r, _m_term, gen_M)


def _add_terms(c: list, r: int, name: str, poly: Polynomial, weights) -> None:
    """c[b] += sum_j weights[j] * (coefficient of t^(r+2b) alpha^j in poly);
    any power of t outside r, r+2, ..., 3r is refused."""
    stray = set()
    for (i, j), coeff in poly.terms.items():
        b, odd = divmod(i - r, 2)
        if odd or not 0 <= b <= r:
            stray.add(i)
        else:
            c[b] += coeff * weights[j]
    if stray:
        raise AssertionError(f"{name}_{r} has unexpected powers {sorted(stray)}")


@lru_cache(maxsize=None, typed=True)
def parity_bracket(r: int, alpha, parity: str) -> tuple[tuple[Fraction, ...], Fraction]:
    """(c_{r,b} for b = 0..r, power term) of the order-r bracket at alpha.

    The bracket is sum_b c_{r,b} t^(r+2b): M_r(t,-a) - M_r(t,a) in odd
    parity, 2 D_r(t) - M_r(t,-a) - M_r(t,a) in even parity; its power term
    is (a^r - (-a)^r)/r, respectively (a^r + (-a)^r)/r.  The c_{r,b} are
    read in one pass over the terms of M_r (and of D_r in even parity).
    Cached per typed (r, alpha, parity), as the generators are (so True is
    not read as 1), and returned as immutable tuples.
    """
    alpha = Fraction(alpha)
    m = gen_M(r)
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    sign = 1 if parity == "odd" else -1
    weights = [sign * (-alpha) ** j - alpha ** j for j in range(r + 1)]
    c = [_ZERO] * (r + 1)
    _add_terms(c, r, "M", m, weights)         # weights[j] multiplies alpha^j
    if parity == "even":
        _add_terms(c, r, "D", gen_D(r), (2,))
    return tuple(c), (alpha ** r - sign * (-alpha) ** r) / r


def dm_identity_residual(r: int, alpha,
                         m_poly: Polynomial | None = None,
                         d_poly: Polynomial | None = None) -> Fraction:
    """Exact residual of the t=1 identity
    M_r(1, alpha) - D_r(1) - (-1)^(r+1) alpha^r / r; zero iff it holds.

    m_poly/d_poly may be injected (the self-test corrupts them on purpose to
    prove this check can fail).
    """
    alpha = Fraction(alpha)
    m = m_poly if m_poly is not None else gen_M(r)
    d = d_poly if d_poly is not None else gen_D(r)
    sign = _ONE if r % 2 == 1 else -_ONE
    return m.at_alpha(alpha)(_ONE) - d(_ONE) - sign * alpha ** r / r


def zsum_identity_residual(r: int, alpha) -> Fraction:
    """Exact residual of sum_b (z_{r,b}(-a) - z_{r,b}(a)) = (-1)^r (a^r - (-a)^r)/r."""
    coeffs, power = parity_bracket(r, alpha, "odd")
    return sum(coeffs, _ZERO) - (-1) ** r * power


def xzsum_identity_residual(r: int, alpha) -> Fraction:
    """Exact residual of sum_b (2 x_{r,b} - z_{r,b}(-a) - z_{r,b}(a))
    = (-1)^r (a^r + (-a)^r)/r."""
    coeffs, power = parity_bracket(r, alpha, "even")
    return sum(coeffs, _ZERO) - (-1) ** r * power
