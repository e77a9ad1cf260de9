"""Scalar special functions with the accuracy the spectral machinery needs.

log Gamma and digamma are scalar ports of the Cephes ``lgam`` and ``psi``
algorithms (S. L. Moshier; the psi rational on [1, 2] is J. Maddock's, from
Boost).  These are the algorithms scipy.special.gammaln and psi run on
x > 0, and the ports return the same bits.  So the closed forms, the model
determinants and the exact zeta route run without scipy.special: only the
modified Bessel family I_nu below loads it, on first call (``besselzero``
does the same for J_nu).  The Riemann/Hurwitz zeta values and their s-derivatives are
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


# Cephes lgam: Stirling correction A above 13, rational x B(x)/C(x) on [2, 3)
# (C monic: 1.0 * x is exact, so Horner from 1.0 is Cephes p1evl bit for bit)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178     # log sqrt(2 pi)
_MAXLGM = 2.556348e305

# Cephes psi: asymptotic series A above 10; Boost rational P/Q on [1, 2],
# written as (x - root) (Y + P(x-1)/Q(x-1)) with the root split in three
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
          7.57575757575757575758e-3, -4.16666666666666666667e-3,
          3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)
_PSI_Y = 0.99558162689208984375     # the binary32 constant 0.99558162689208984f
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule from the leading coefficient, as Cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _check_positive(name: str, x: float) -> None:
    if not 0.0 < x < math.inf:
        raise ValidationError(f"{name} needs a finite x > 0, got x={x}")


def ln_gamma(x: float) -> float:
    """log Gamma(x) for finite x > 0 (Cephes lgam)."""
    _check_positive("ln_gamma", x)
    if x < 13.0:
        # recurrence into [2, 3): Gamma(x) = z Gamma(u)
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for finite x > 0 (Cephes psi)."""
    _check_positive("digamma", x)
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - EULER_GAMMA
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if x <= 2.0:
        g = x - _PSI_ROOT1
        g -= _PSI_ROOT2
        g -= _PSI_ROOT3
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    if x < 1.0e17:
        z = 1.0 / (x * x)
        asy = z * _polevl(z, _PSI_A)
    else:
        asy = 0.0
    return y + (math.log(x) - 0.5 / x - asy)


# The I_nu family is the only scipy.special use left here; it is imported
# on first call so that the closed forms never load it.

def bessel_i(nu, x):
    from scipy.special import iv
    return iv(nu, x)


def bessel_i_prime(nu, x):
    from scipy.special import ivp
    return ivp(nu, x)


def bessel_i_scaled(nu, x):
    """exp(-x) I_nu(x); mandatory for large arguments where I_nu overflows."""
    from scipy.special import ive
    return ive(nu, x)


def bessel_i_prime_scaled(nu, x):
    """exp(-x) I_nu'(x) via the two-term recurrence on scaled values."""
    from scipy.special import ive
    return 0.5 * (ive(nu - 1.0, x) + ive(nu + 1.0, x))


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
    pref = 2.0 * math.exp((s - 1.0) * LOG_2PI) * math.exp(ln_gamma(u))
    sn, cs = sinpi(0.5 * s), cospi(0.5 * s)
    val = pref * sn * zu
    # d/ds of pref*sin*zeta(1-s): pref gains (ln 2pi - psi(1-s)), sin gains
    # (pi/2) cos, zeta(1-s) gains -zeta'(1-s)
    dval = pref * ((LOG_2PI - digamma(u)) * sn * zu
                   + 0.5 * math.pi * cs * zu - sn * dzu)
    return val, dval


def _zeta_pair(s: float, a: float = 1.0) -> tuple[float, float]:
    """(zeta_H(s, a), d/ds zeta_H(s, a)); a = 1 is the Riemann zeta, taken
    through the functional equation for s < -1/2."""
    if not 0.0 < a < math.inf:
        raise ValidationError(f"hurwitz zeta needs a finite a > 0, got a={a}")
    if s == 1.0:
        raise ValidationError("zeta has a pole at s=1")
    if a == 1.0 and s < -0.5:
        return _riemann_reflect(s)
    return _hurwitz_em(s, a)


def riemann_zeta(s: float) -> float:
    """zeta(s), absolute error <= ~1e-13 on |s| <= 12 (pole at s=1)."""
    return _zeta_pair(s)[0]


def riemann_zeta_prime(s: float) -> float:
    """zeta'(s), absolute error <= ~1e-12 on |s| <= 12 (pole at s=1)."""
    return _zeta_pair(s)[1]


def hurwitz_zeta(s: float, a: float) -> float:
    return _zeta_pair(s, a)[0]


def hurwitz_zeta_sderiv(s: float, a: float) -> float:
    """d/ds zeta_H(s, a)."""
    return _zeta_pair(s, a)[1]


def hurwitz_zeta_prime0(a: float) -> float:
    """d/ds zeta_H(s,a) at s=0, by the closed form ln Gamma(a) - ln(2 pi)/2."""
    if a <= 0.0:
        raise ValidationError(f"hurwitz zeta needs a > 0, got a={a}")
    return ln_gamma(a) - 0.5 * LOG_2PI
