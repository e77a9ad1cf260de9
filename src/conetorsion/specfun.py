"""Scalar special functions with the accuracy the spectral machinery needs.

Gamma/digamma and the modified Bessel family I_nu are thin wrappers over
scipy.special.  The Riemann/Hurwitz zeta values and their s-derivatives are
implemented here: scipy offers no analytic continuation to Re(s) <= 1 and
no derivative in s, and both are needed for zeta-regularized determinants.

Algorithms: Euler-Maclaurin summation for s > -1/2 (and for general a > 0);
for deeper negative s the Riemann values switch to the functional equation
zeta(s) = 2 (2 pi)^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s), with argument
reduction so the trivial zeros come out exactly.  Conventions:
hurwitz_zeta(s, a) = sum_{k>=0} (k+a)^(-s), pole at s=1 excluded;
hurwitz_zeta_prime0(a) = d/ds zeta_H(s,a)|_{s=0} = ln Gamma(a) - ln(2 pi)/2.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.special as sc

from .errors import ValidationError

EULER_GAMMA = 0.5772156649015328606065120900824024
LOG_2PI = 1.8378770664093454835606594728112353
LOG_2 = math.log(2.0)

# Bernoulli numbers B_2, B_4, ..., B_28 (exact, converted once to float).
_BERNOULLI_EVEN = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
]
_EM_TERMS = [float(b) / math.factorial(2 * (j + 1)) for j, b in enumerate(_BERNOULLI_EVEN)]


def ln_gamma(x):
    """log Gamma(x) for x > 0 (vectorized)."""
    return sc.gammaln(x)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) (vectorized)."""
    return sc.psi(x)


def bessel_i(nu, x):
    return sc.iv(nu, x)


def bessel_i_prime(nu, x):
    return sc.ivp(nu, x)


def bessel_i_scaled(nu, x):
    """exp(-x) I_nu(x); mandatory for large arguments where I_nu overflows."""
    return sc.ive(nu, x)


def bessel_i_prime_scaled(nu, x):
    """exp(-x) I_nu'(x) via the two-term recurrence on scaled values."""
    return 0.5 * (sc.ive(nu - 1.0, x) + sc.ive(nu + 1.0, x))


def sinpi(x: float) -> float:
    """sin(pi x) with argument reduction (exact at integers)."""
    m = round(x)
    return (1.0 if m % 2 == 0 else -1.0) * math.sin(math.pi * (x - m))


def cospi(x: float) -> float:
    """cos(pi x) with argument reduction (exact magnitude at integers)."""
    m = round(x)
    return (1.0 if m % 2 == 0 else -1.0) * math.cos(math.pi * (x - m))


def _pochhammer_with_derivative(s: float, m: int) -> tuple[float, float]:
    """(s)_m = s(s+1)...(s+m-1) and d/ds (s)_m, robust at zero factors."""
    val, dval = 1.0, 0.0
    for i in range(m):
        f = s + i
        dval = dval * f + val
        val = val * f
    return val, dval


def _hurwitz_em(s: float, a: float) -> tuple[float, float]:
    """Euler-Maclaurin evaluation of (zeta_H(s,a), d/ds zeta_H(s,a)).

    Reliable to ~1e-12 absolute for s >= -1/2 (any a in (0, 10]); for deeper
    negative s round-off in the large direct-sum terms grows like (N+a)^(1-s)
    * eps, so callers in that regime go through the functional equation
    instead (a = 1) or accept reduced accuracy (general a, unused here).
    """
    if a <= 0.0:
        raise ValidationError(f"hurwitz zeta needs a > 0, got a={a}")
    if s == 1.0:
        raise ValidationError("hurwitz zeta has a pole at s=1")
    if s < 0.0:
        # keep the cutoff small: intermediates scale like (N+a)^(1+|s|)
        nterms = max(2, int(math.ceil(14.0 + 1.2 * abs(s) - a)))
    else:
        nterms = 40
    k = np.arange(nterms, dtype=float) + a
    logs = np.log(k)
    powers = np.exp(-s * logs)
    vals = list(powers)
    dvals = list(-logs * powers)

    w = nterms + a
    lw = math.log(w)
    # boundary terms: w^(1-s)/(s-1) + w^(-s)/2
    w1s = math.exp((1.0 - s) * lw)
    vals.append(w1s / (s - 1.0))
    vals.append(0.5 * math.exp(-s * lw))
    dvals.append(w1s * (-lw / (s - 1.0) - 1.0 / (s - 1.0) ** 2))
    dvals.append(-0.5 * lw * math.exp(-s * lw))
    # Bernoulli correction: sum_j B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1)
    for j, cj in enumerate(_EM_TERMS, start=1):
        poch, dpoch = _pochhammer_with_derivative(s, 2 * j - 1)
        wp = math.exp((-s - 2 * j + 1) * lw)
        vals.append(cj * poch * wp)
        dvals.append(cj * wp * (dpoch - lw * poch))
    return math.fsum(vals), math.fsum(dvals)


def _riemann_reflect(s: float) -> tuple[float, float]:
    """(zeta(s), zeta'(s)) for s < -1/2 via the functional equation."""
    u = 1.0 - s
    zu, dzu = _hurwitz_em(u, 1.0)
    pref = 2.0 * math.exp((s - 1.0) * LOG_2PI) * math.exp(float(sc.gammaln(u)))
    sn, cs = sinpi(0.5 * s), cospi(0.5 * s)
    val = pref * sn * zu
    # d/ds of pref*sin*zeta(1-s): pref gains (ln 2pi - psi(1-s)), sin gains
    # (pi/2) cos, zeta(1-s) gains -zeta'(1-s)
    dval = pref * ((LOG_2PI - float(sc.psi(u))) * sn * zu
                   + 0.5 * math.pi * cs * zu - sn * dzu)
    return val, dval


def riemann_zeta(s: float) -> float:
    """zeta(s), absolute error <= ~1e-13 on |s| <= 12 (pole at s=1)."""
    if s == 1.0:
        raise ValidationError("riemann zeta has a pole at s=1")
    if s < -0.5:
        return _riemann_reflect(s)[0]
    return _hurwitz_em(s, 1.0)[0]


def riemann_zeta_prime(s: float) -> float:
    """zeta'(s), absolute error <= ~1e-12 on |s| <= 12 (pole at s=1)."""
    if s == 1.0:
        raise ValidationError("riemann zeta has a pole at s=1")
    if s < -0.5:
        return _riemann_reflect(s)[1]
    return _hurwitz_em(s, 1.0)[1]


def hurwitz_zeta(s: float, a: float) -> float:
    if a == 1.0:
        return riemann_zeta(s)  # shared path with riemann_zeta by construction
    return _hurwitz_em(s, a)[0]


def hurwitz_zeta_sderiv(s: float, a: float) -> float:
    """d/ds zeta_H(s, a)."""
    if a == 1.0:
        return riemann_zeta_prime(s)
    return _hurwitz_em(s, a)[1]


def hurwitz_zeta_prime0(a: float) -> float:
    """d/ds zeta_H(s,a) at s=0, by the closed form ln Gamma(a) - ln(2 pi)/2."""
    if a <= 0.0:
        raise ValidationError(f"hurwitz zeta needs a > 0, got a={a}")
    return float(sc.gammaln(a)) - 0.5 * LOG_2PI
