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

Coefficient extraction follows the shape D_r(t) = sum_b x_{r,b} t^(r+2b) and
M_r(t,alpha) = sum_b z_{r,b}(alpha) t^(r+2b) with b = 0..r.  The residual
helpers return exact zero Fractions when the classical cross-identities hold,
and are written so a deliberately corrupted polynomial makes them non-zero
(the self-test uses that to prove the checks have teeth).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import OrderLimitError, ReadOnly, is_integer

MAX_ORDER = 12

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_order(r: int, smallest: int) -> int:
    """r as an int if a Python or numpy integer (not a bool) in smallest..MAX_ORDER.
    The generators cache typed: else True would hit the entry of 1 unchecked."""
    if not is_integer(r) or r < smallest:
        raise OrderLimitError(f"order must be an integer >= {smallest}, got {r!r}")
    if r > MAX_ORDER:
        raise OrderLimitError(f"order {r} exceeds the supported maximum {MAX_ORDER}")
    return int(r)


class RationalPolynomial(ReadOnly):
    """Polynomial in one variable with Fraction coefficients (index = power)."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "t"):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [_ZERO] * (n - len(self.coeffs))
        for p, c in enumerate(other.coeffs):
            a[p] += c
        return RationalPolynomial(a, self.var)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not self.coeffs or not other.coeffs:
            return RationalPolynomial((), self.var)
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return RationalPolynomial(out, self.var)

    def scale(self, k) -> "RationalPolynomial":
        k = Fraction(k)
        return RationalPolynomial([c * k for c in self.coeffs], self.var)

    def shift(self, powers: int) -> "RationalPolynomial":
        """Multiply by var**powers."""
        return RationalPolynomial((_ZERO,) * powers + self.coeffs, self.var)

    # -- calculus --------------------------------------------------------
    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [c * p for p, c in enumerate(self.coeffs)][1:], self.var)

    def integral(self) -> "RationalPolynomial":
        """Antiderivative vanishing at 0."""
        return RationalPolynomial(
            [_ZERO] + [c / (p + 1) for p, c in enumerate(self.coeffs)], self.var)

    # -- evaluation / inspection -----------------------------------------
    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int input, float for float."""
        if isinstance(x, float):
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * x + float(c)
            return acc
        x = Fraction(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else _ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        for p, c in enumerate(self.coeffs):
            if c != 0:
                yield p, c

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({self.as_str()!r})"

    def as_str(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for p, c in self.terms():
            mag = c if c > 0 else -c
            if p == 0:
                body = str(mag)
            else:
                tpow = self.var if p == 1 else f"{self.var}^{p}"
                body = tpow if mag == 1 else f"{mag}*{tpow}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _tpoly(*coeffs) -> RationalPolynomial:
    return RationalPolynomial(coeffs)


_P_ONE = RationalPolynomial((_ONE,))


class AlphaPolynomial(ReadOnly):
    """Polynomial in t whose coefficients are RationalPolynomials in alpha."""

    __slots__ = ("tcoeffs",)

    def __init__(self, tcoeffs: dict[int, RationalPolynomial]):
        object.__setattr__(self, "tcoeffs", MappingProxyType(
            {p: c for p, c in tcoeffs.items() if not c.is_zero()}))

    @classmethod
    def from_t_polynomial(cls, poly: RationalPolynomial) -> "AlphaPolynomial":
        return cls({p: RationalPolynomial((c,), "a") for p, c in poly.terms()})

    def __add__(self, other: "AlphaPolynomial") -> "AlphaPolynomial":
        out = dict(self.tcoeffs)
        for p, c in other.tcoeffs.items():
            out[p] = out[p] + c if p in out else c
        return AlphaPolynomial(out)

    def __mul__(self, other: "AlphaPolynomial") -> "AlphaPolynomial":
        out: dict[int, RationalPolynomial] = {}
        for p, a in self.tcoeffs.items():
            for q, b in other.tcoeffs.items():
                pq = p + q
                prod = a * b
                out[pq] = out[pq] + prod if pq in out else prod
        return AlphaPolynomial(out)

    def scale(self, k) -> "AlphaPolynomial":
        return AlphaPolynomial({p: c.scale(k) for p, c in self.tcoeffs.items()})

    def is_zero(self) -> bool:
        return not self.tcoeffs

    def t_powers(self) -> list[int]:
        return sorted(self.tcoeffs)

    def t_coefficient(self, power: int) -> RationalPolynomial:
        return self.tcoeffs.get(power, RationalPolynomial((), "a"))

    def substitute_alpha(self, alpha) -> RationalPolynomial:
        """Exact substitution alpha -> Fraction, yielding a polynomial in t."""
        alpha = Fraction(alpha)
        top = max(self.tcoeffs, default=-1)
        coeffs = [_ZERO] * (top + 1)
        for p, c in self.tcoeffs.items():
            coeffs[p] = c(alpha)
        return RationalPolynomial(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlphaPolynomial) and self.tcoeffs == other.tcoeffs

    def __repr__(self) -> str:
        return f"AlphaPolynomial({self.as_str()!r})"

    def as_str(self) -> str:
        if not self.tcoeffs:
            return "0"
        parts = []
        for p in self.t_powers():
            c = self.tcoeffs[p].as_str()
            tpow = "" if p == 0 else ("*t" if p == 1 else f"*t^{p}")
            parts.append(f"({c}){tpow}" if tpow else f"({c})")
        return " + ".join(parts)


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
def gen_u(r: int) -> RationalPolynomial:
    r = _check_order(r, 0)
    if r == 0:
        return _P_ONE
    prev = gen_u(r - 1)
    lead = _tpoly(0, 0, Fraction(1, 2), 0, Fraction(-1, 2))      # t^2(1-t^2)/2
    kern = _tpoly(Fraction(1, 8), 0, Fraction(-5, 8))            # (1-5s^2)/8
    return lead * prev.derivative() + (kern * prev).integral()


@lru_cache(maxsize=None, typed=True)
def gen_v(r: int) -> RationalPolynomial:
    r = _check_order(r, 0)
    if r == 0:
        return _P_ONE
    u_prev = gen_u(r - 1)
    bracket = u_prev.scale(Fraction(1, 2)) + u_prev.derivative().shift(1)
    return gen_u(r) + (_tpoly(0, -1, 0, 1) * bracket)            # t(t^2-1)*(...)


@lru_cache(maxsize=None, typed=True)
def gen_D(r: int) -> RationalPolynomial:
    r = _check_order(r, 1)
    return _log_coefficient(r, gen_u, gen_D)


@lru_cache(maxsize=None)
def _m_term(k: int) -> AlphaPolynomial:
    """Order-k coefficient of (1 + sum v_k/nu^k) + (alpha/nu) t (1 + sum u_k/nu^k)."""
    alpha_t = AlphaPolynomial({1: RationalPolynomial((0, 1), "a")})   # a * t
    return (AlphaPolynomial.from_t_polynomial(gen_v(k))
            + alpha_t * AlphaPolynomial.from_t_polynomial(gen_u(k - 1)))


@lru_cache(maxsize=None, typed=True)
def gen_M(r: int) -> AlphaPolynomial:
    r = _check_order(r, 1)
    return _log_coefficient(r, _m_term, gen_M)


def _ladder(r: int, name: str, powers, coefficient) -> list:
    """The coefficients of t^(r+2b), b = 0..r, once no other power occurs."""
    stray = [p for p in powers if (p - r) % 2 != 0 or not (r <= p <= 3 * r)]
    if stray:
        raise AssertionError(f"{name}_{r} has unexpected powers {stray}")
    return [coefficient(r + 2 * b) for b in range(r + 1)]


def coeffs_x(r: int) -> list[Fraction]:
    """x_{r,b} with D_r(t) = sum_{b=0..r} x_{r,b} t^(r+2b)."""
    d = gen_D(r)
    return _ladder(r, "D", [p for p, _ in d.terms()], d.coefficient)


def coeffs_z(r: int) -> list[RationalPolynomial]:
    """z_{r,b}(alpha) with M_r(t,alpha) = sum_{b=0..r} z_{r,b}(alpha) t^(r+2b)."""
    m = gen_M(r)
    return _ladder(r, "M", m.t_powers(), m.t_coefficient)


def parity_bracket(r: int, alpha, parity: str) -> tuple[list[Fraction], Fraction]:
    """(c_{r,b} for b = 0..r, power term) of the order-r bracket at alpha.

    The bracket is sum_b c_{r,b} t^(r+2b): M_r(t,-a) - M_r(t,a) in odd
    parity, 2 D_r(t) - M_r(t,-a) - M_r(t,a) in even parity; its power term
    is (a^r - (-a)^r)/r, respectively (a^r + (-a)^r)/r.
    """
    alpha = Fraction(alpha)
    zs = coeffs_z(r)
    if parity == "odd":
        return ([z(-alpha) - z(alpha) for z in zs],
                (alpha ** r - (-alpha) ** r) / r)
    if parity == "even":
        return ([2 * x - z(-alpha) - z(alpha) for x, z in zip(coeffs_x(r), zs)],
                (alpha ** r + (-alpha) ** r) / r)
    raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")


def dm_identity_residual(r: int, alpha,
                         m_poly: AlphaPolynomial | None = None,
                         d_poly: RationalPolynomial | None = None) -> Fraction:
    """Exact residual of the t=1 identity
    M_r(1, alpha) - D_r(1) - (-1)^(r+1) alpha^r / r; zero iff it holds.

    m_poly/d_poly may be injected (the self-test corrupts them on purpose to
    prove this check can fail).
    """
    alpha = Fraction(alpha)
    m = m_poly if m_poly is not None else gen_M(r)
    d = d_poly if d_poly is not None else gen_D(r)
    sign = _ONE if r % 2 == 1 else -_ONE
    return m.substitute_alpha(alpha)(_ONE) - d(_ONE) - sign * alpha ** r / r


def zsum_identity_residual(r: int, alpha) -> Fraction:
    """Exact residual of sum_b (z_{r,b}(-a) - z_{r,b}(a)) = (-1)^r (a^r - (-a)^r)/r."""
    coeffs, power = parity_bracket(r, alpha, "odd")
    return sum(coeffs, _ZERO) - (-1) ** r * power


def xzsum_identity_residual(r: int, alpha) -> Fraction:
    """Exact residual of sum_b (2 x_{r,b} - z_{r,b}(-a) - z_{r,b}(a))
    = (-1)^r (a^r + (-a)^r)/r."""
    coeffs, power = parity_bracket(r, alpha, "even")
    return sum(coeffs, _ZERO) - (-1) ** r * power
