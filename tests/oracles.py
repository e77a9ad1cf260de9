"""Independent slow oracles for the test suite, built on mpmath.

Everything here is computed at 30 significant digits and converted to float
at the end, so oracle error is far below every tolerance used in the tests.
The exceptions are ``series_log``, an exact reference in the polynomials'
own Fraction arithmetic, the float reference formulas ``recombined``,
``t_half_integer`` and ``weyl_count_ratio``, the alpha degree of an
expansion polynomial, and the per-element loops ``merge_ties`` and
``custom_mapping``, bitwise references for the array passes of the package.  The package under test never
imports this module.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 30


def lngamma(x: float) -> float:
    return float(mp.loggamma(mp.mpf(x)))


def digamma(x: float) -> float:
    return float(mp.digamma(mp.mpf(x)))


def besselj(nu: float, x: float) -> float:
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


def besselj_prime(nu: float, x: float) -> float:
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x), derivative=1))


def log_besseli(nu: float, x: float, alpha: float | None = None) -> float:
    """log I_nu(x), or log(alpha I_nu(x) + x I_nu'(x)) given alpha."""
    nu, x = mp.mpf(nu), mp.mpf(x)
    val = mp.besseli(nu, x)
    if alpha is not None:
        val = mp.mpf(alpha) * val + x * mp.besseli(nu, x, derivative=1)
    return float(mp.log(val))


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
LOG_2PI = float(mp.log(2 * mp.pi))


def series_log(elems: list, zero) -> list:
    """Coefficientwise log of a 1/nu power series with unit constant term,
    by the plain power series log(1 + w) = sum_m (-1)^(m+1) w^m / m.

    ``elems[r]`` is the order-r coefficient (elems[0] is the unit), an
    ``exactpoly.Polynomial``; returns the log-series coefficients to the same
    truncation order.
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
                if not power[i].terms:
                    continue
                for j in range(1, order + 1 - i):
                    nxt[i + j] = nxt[i + j] + power[i] * w[j]
            power = nxt
    return out


def recombined(breakdown) -> float:
    """harmonic_term + sum_k weight_k * zeta_k_prime0_k of a
    ``TorsionBreakdown``: the invariant its log_torsion must satisfy."""
    return breakdown.harmonic_term + math.fsum(
        entry["weight"] * entry["zeta_k_prime0"]
        for entry in breakdown.per_degree.values())


def alpha_degree(poly) -> int:
    """Degree in alpha of an ``exactpoly.Polynomial`` (-1 for the zero polynomial)."""
    return max((j for _, j in poly.terms), default=-1)


def t_half_integer(k: int) -> float:
    """Closed-form -zeta'(0) of L_{k+1/2}(inf): log 2 - sum log(2l+1).

    The half-integer Dirichlet family evaluates in elementary terms; it
    is exactly what the harmonic sector consumes.
    """
    return LOG_2 - math.fsum(math.log(2 * l + 1) for l in range(k + 1))


def weyl_count_ratio(stream) -> float:
    """|N(x_max) / Weyl prediction - 1| from the leading heat power.

    Z(t) ~ c t^p (p < 0) corresponds to N(x) ~ c x^(-p) / Gamma(1 - p)
    (Karamata); a ratio far from 0 flags inconsistent spectrum/heat data.
    """
    p, c = min(stream.heat_powers, key=lambda pc: pc[0])
    if p >= 0 or c <= 0:
        raise ValueError("leading heat power must be c t^p with p < 0, c > 0")
    predicted = c * stream.max_value ** (-p) / math.exp(lngamma(1.0 - p))
    return abs(stream.total_count() / predicted - 1.0)


def merge_ties(values, mults):
    """Reference tie merge: one pass over an ascending array, comparing
    each value with the first value g of the current group and joining it
    when v - g <= 1e-12 * max(1, |v|); mults are summed in input order."""
    values = np.asarray(values, dtype=float)
    mults = np.asarray(mults, dtype=float)
    if values.size == 0:
        return values, mults
    out_v, out_m = [values[0]], [mults[0]]
    for v, m in zip(values[1:], mults[1:]):
        if v - out_v[-1] <= 1e-12 * max(1.0, abs(v)):
            out_m[-1] += m
        else:
            out_v.append(v)
            out_m.append(m)
    return np.array(out_v), np.array(out_m)


def custom_mapping(base) -> dict:
    """Reference export of a base in the custom schema, entry by entry."""
    degrees = []
    for k in base.degrees_available():
        deg = base._degree(k)
        coeffs = [0.0] * (int(round(2.0 * max(p for p, _ in deg.heat_powers)
                                    + base.dim)) + 1)
        for p, c in deg.heat_powers:
            coeffs[int(round(2.0 * p + base.dim))] = float(c)
        degrees.append({
            "k": int(k),
            "eigenvalues": [{"value": float(v), "mult": int(round(m))}
                            for v, m in zip(deg.values, deg.mults)],
            "heat_coeffs": coeffs,
        })
    return {
        "dim": base.dim,
        "betti": list(base.betti),
        "scale": base.scale,
        "orientable": True,
        "degrees": degrees,
        "truncation_note": base.truncation_note
            or f"finite listing exported from {base.name}",
    }
