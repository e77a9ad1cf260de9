"""Independent slow oracles for the test suite, built on mpmath.

Everything here is computed at 30 significant digits and converted to float
at the end, so oracle error is far below every tolerance used in the tests.
The one exception is ``series_log``, an exact reference in the polynomials'
own Fraction arithmetic.  The package under test never imports this module.
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30


def lngamma(x: float) -> float:
    return float(mp.loggamma(mp.mpf(x)))


def digamma(x: float) -> float:
    return float(mp.digamma(mp.mpf(x)))


def besselj(nu: float, x: float) -> float:
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


def besselj_prime(nu: float, x: float) -> float:
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x), derivative=1))


def besseli(nu: float, x: float) -> float:
    return float(mp.besseli(mp.mpf(nu), mp.mpf(x)))


def besseli_prime(nu: float, x: float) -> float:
    return float(mp.besseli(mp.mpf(nu), mp.mpf(x), derivative=1))


def besseli_scaled(nu: float, x: float) -> float:
    return float(mp.besseli(mp.mpf(nu), mp.mpf(x)) * mp.exp(-mp.mpf(x)))


def besseli_prime_scaled(nu: float, x: float) -> float:
    return float(mp.besseli(mp.mpf(nu), mp.mpf(x), derivative=1) * mp.exp(-mp.mpf(x)))


def j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu."""
    return float(mp.besseljzero(mp.mpf(nu), k))


def jprime_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu'.

    mpmath counts the stationary point x = 0 of J_0' as its first zero, so
    the order-zero request is shifted by one index.
    """
    if nu == 0.0:
        return float(mp.besseljzero(mp.mpf(0), k + 1, derivative=1))
    return float(mp.besseljzero(mp.mpf(nu), k, derivative=1))


def mixed_zero_refine(nu: float, alpha: float, guess: float) -> float:
    """Root of alpha*J_nu(z) + z*J_nu'(z) near ``guess`` at 30 digits."""
    nu_, a_ = mp.mpf(nu), mp.mpf(alpha)

    def f(z):
        return a_ * mp.besselj(nu_, z) + z * mp.besselj(nu_, z, derivative=1)

    return float(mp.findroot(f, mp.mpf(guess)))


def riemann_zeta(s: float) -> float:
    return float(mp.zeta(mp.mpf(s)))


def riemann_zeta_prime(s: float) -> float:
    return float(mp.zeta(mp.mpf(s), 1, 1))


def hurwitz_zeta(s: float, a: float) -> float:
    return float(mp.zeta(mp.mpf(s), mp.mpf(a)))


def hurwitz_zeta_sderiv(s: float, a: float) -> float:
    """d/ds zeta_H(s, a), via mpmath's exact derivative path."""
    return float(mp.zeta(mp.mpf(s), mp.mpf(a), 1))


def hurwitz_zeta_prime0(a: float) -> float:
    """zeta_H'(0, a) = log Gamma(a) - log(2 pi)/2 (Lerch's formula)."""
    return float(mp.loggamma(mp.mpf(a)) - mp.log(2 * mp.pi) / 2)


EULER_GAMMA = float(mp.euler)
LOG_2 = float(mp.log(2))
LOG_PI = float(mp.log(mp.pi))
LOG_2PI = float(mp.log(2 * mp.pi))


def series_log(elems: list, zero) -> list:
    """Coefficientwise log of a 1/nu power series with unit constant term,
    by the plain power series log(1 + w) = sum_m (-1)^(m+1) w^m / m.

    ``elems[r]`` is the order-r coefficient (elems[0] is the unit) of any
    polynomial type with ``+``, ``*``, ``scale`` and ``is_zero``; returns the
    log-series coefficients to the same truncation order.
    """
    order = len(elems) - 1
    w = [zero] + list(elems[1:])                # the series minus 1
    out = [zero] * (order + 1)
    power = list(w)                              # w^m, currently m=1
    for m in range(1, order + 1):
        sign = Fraction(1 if m % 2 == 1 else -1, m)
        for r in range(m, order + 1):
            out[r] = out[r] + power[r].scale(sign)
        if m < order:
            nxt = [zero] * (order + 1)
            for i in range(1, order + 1):       # w has no constant term
                if power[i].is_zero():
                    continue
                for j in range(1, order + 1 - i):
                    nxt[i + j] = nxt[i + j] + power[i] * w[j]
            power = nxt
    return out
