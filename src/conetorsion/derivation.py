"""Derivation-layer evaluators: the per-frequency integrand of the contour
representation behind the torsion closed forms (``frequency_log_term``,
``t_nu_k``), its large-frequency expansion (``f_r``, the remainder and its
fits), and the numeric route to ``torsion.lemma_first_summand`` over
computed J_1 zeros.  The self-test and the tests call them; ``torsion``
never does.  Traced layers are called through their modules.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import besselzero, zetacont
from .errors import Record, ValidationError, number, positive
from .exactpoly import Polynomial, parity_bracket
from .torsion import _alpha_k, _check_degree, _parity

__all__ = ["SpectralParameter", "frequency_log_term", "t_nu_k", "f_r",
           "asymptotic_remainder", "remainder_asymptote", "fit_remainder",
           "lemma_first_summand_numeric"]


class SpectralParameter(Record):
    """Evaluation point lam < 0 on the negative real axis.

    Derived quantities: z = sqrt(-lam) > 0 and t = (1 - lam)^(-1/2) in (0,1),
    so that t = (1 + z^2)^(-1/2) holds by construction.
    """

    __slots__ = ("lam",)

    def __init__(self, lam: float):
        object.__setattr__(self, "lam", number(
            lam, "lambda", "a finite number < 0 (the negative real axis)",
            lambda x: -math.inf < x < 0.0))

    @property
    def z(self) -> float:
        return math.sqrt(-self.lam)

    @property
    def t(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.lam)


def _log_bessel(nu: float, w: float, alpha: float | None = None) -> float:
    """log I_nu(w), or log(alpha * I_nu(w) + w * I'_nu(w)) given alpha, for
    w > 0 and nu > |alpha|; e^-w-scaled above w = 1, where I_nu overflows."""
    from scipy.special import iv, ive, ivp
    scaled = w > 1.0
    val = ive(nu, w) if scaled else iv(nu, w)
    if alpha is not None:
        # e^-w I'_nu by the two-term recurrence on scaled values
        i_prime = 0.5 * (ive(nu - 1.0, w) + ive(nu + 1.0, w)) if scaled else ivp(nu, w)
        val = alpha * val + w * i_prime
    if not (val > 0.0 and math.isfinite(val)):
        raise ValidationError(
            f"{'scaled ' if scaled else ''}Bessel evaluation overflowed or "
            f"underflowed at order {nu:g}, argument {w:g}")
    return w + math.log(val) if scaled else math.log(val)


def frequency_log_term(nu: float, alpha: float, sp: SpectralParameter,
                       parity: str) -> float:
    """Per-frequency integrand of the contour representation, by parity.

    Odd parity (dim M odd) pairs the two boundary polynomials with opposite
    signs, so alpha = 0 cancels identically; even parity adds them and
    carries the doubled interior factor 2 log(nu I_nu(nu z)).
    """
    alpha = number(alpha, "alpha")
    nu = number(nu, "frequency nu", f"a finite number > |alpha| = {abs(alpha):g} "
                "(limit-point range)", lambda x: abs(alpha) < x < math.inf)
    w = nu * sp.z
    if parity == "odd":
        return (-_log_bessel(nu, w, alpha) + math.log1p(alpha / nu)
                + _log_bessel(nu, w, -alpha) - math.log1p(-alpha / nu))
    if parity == "even":
        return (-_log_bessel(nu, w, alpha) + math.log1p(alpha / nu)
                - _log_bessel(nu, w, -alpha) + math.log1p(-alpha / nu)
                + 2.0 * _log_bessel(nu, w) + 2.0 * math.log(nu))
    raise ValidationError(f"parity must be 'odd' or 'even', got {parity!r}")


def t_nu_k(nu: float, k: int, n: int, sp: SpectralParameter) -> float:
    """Degree-k per-frequency integrand on an n-dimensional cross-section."""
    k = _check_degree(k, n, n - 1)
    return frequency_log_term(nu, float(_alpha_k(k, n)), sp, _parity(n))


def f_r(r: int, k: int, n: int, sp: SpectralParameter) -> float:
    """Order-r coefficient of the large-frequency expansion of ``t_nu_k``.

    The parity bracket of the exact expansion polynomials (``exactpoly.
    parity_bracket``, which refuses any order but an integer in
    1..MAX_ORDER) at t, plus its power term in odd parity and minus it in
    even parity.  Both vanish at t = 1 (lam -> 0-).
    """
    k = _check_degree(k, n, n - 1)
    parity = _parity(n)
    coeffs, power = parity_bracket(r, _alpha_k(k, n), parity)
    poly = Polynomial({(r + 2 * b, 0): c for b, c in enumerate(coeffs)})
    return float(poly(sp.t)) + float(power if parity == "odd" else -power)


def asymptotic_remainder(nu: float, k: int, n: int, sp: SpectralParameter) -> float:
    """``t_nu_k`` minus the first n orders of its large-frequency expansion.

    Collapses to 0 as lam -> 0- in both parities.  For lam -> -infinity it
    approaches a constant in odd parity and -log(1 - lam) plus a constant in
    even parity (see ``remainder_asymptote``).
    """
    total = t_nu_k(nu, k, n, sp)
    series = math.fsum(f_r(r, k, n, sp) / nu ** r for r in range(1, n + 1))
    return total - series


def remainder_asymptote(nu: float, k: int, n: int) -> tuple[float, float]:
    """Predicted (slope, intercept) of the remainder against log(-lam).

    For lam -> -infinity the remainder behaves like slope * log(-lam) +
    intercept with slope 0 in odd parity and -1 in even parity; the
    intercept resums the constant terms of the dropped expansion orders.
    """
    w0 = float(_alpha_k(k, n)) / float(nu)
    if _parity(n) == "odd":
        intercept = (math.log1p(w0) - math.log1p(-w0)
                     - math.fsum(2.0 * w0 ** r / r for r in range(1, n + 1, 2)))
        return 0.0, intercept
    intercept = (math.log1p(w0) + math.log1p(-w0)
                 + math.fsum(2.0 * w0 ** r / r for r in range(2, n + 1, 2)))
    return -1.0, intercept


def fit_remainder(nu: float, k: int, n: int) -> tuple[float, float]:
    """Least-squares (slope, intercept) of the remainder vs log(-lam).

    Samples ``asymptotic_remainder`` at 30 geometric points from
    lam = -1e4 to lam = -1e6.
    """
    lams = -np.geomspace(1.0e4, 1.0e6, 30)
    ys = np.array([asymptotic_remainder(nu, k, n, SpectralParameter(lam))
                   for lam in lams])
    design = np.column_stack([np.log(-lams), np.ones(lams.size)])
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(sol[0]), float(sol[1])


def lemma_first_summand_numeric(radius: float = 1.0,
                                count: int = 2000) -> tuple[float, float]:
    """Companion numeric route to ``torsion.lemma_first_summand``.

    Continues the zeta function of {(j_k / R)^2} over the first ``count``
    positive zeros j_k of J_1 through the Mellin-split engine, pinning the
    two exact leading heat coefficients (R / (2 sqrt(pi)), -3/4).  Returns
    (value, error_estimate).
    """
    radius = positive(radius, "cone length")
    zl = besselzero.zeros(besselzero.ZeroRequest(nu=1.0, kind="dirichlet", count=count))
    with np.errstate(over="ignore", under="ignore"):
        values = (zl.zeros / radius) ** 2
    if not sys.float_info.min <= values[0] <= values[-1] < math.inf:
        raise ValidationError(
            f"cone length {radius!r} puts the squared scaled zeros (j_k / R)^2 "
            f"outside the normal float range")
    stream = zetacont.SpectrumStream(
        values, name=f"j1-zeros(R={radius:g})",
        heat_powers=((-0.5, radius / (2.0 * math.sqrt(math.pi))), (0.0, -0.75)))
    data = zetacont.zeta_data_numeric(stream, pole_range=0)
    return data.deriv0, data.error_estimate
