"""Radial model operators on (0, 1] and their zeta determinants.

Separation of variables on a cone M = (0,1] x N turns each frequency
nu = sqrt(eta + a_k^2) of the cross-section into a Sturm-Liouville
model operator

    L_nu(alpha) = -d^2/dx^2 + (nu^2 - 1/4) / x^2      on (0, 1],

limit point at x = 0 for nu >= 1 (Friedrichs extension below), with the
x = 1 boundary condition encoded by the parameter alpha:

    alpha = inf          u(1) = 0                        (Dirichlet type)
    alpha finite         (alpha - 1/2) u(1) + u'(1) = 0  (generalized Neumann)

so alpha = 1/2 is the pure Neumann condition u'(1) = 0.  Eigenfunctions
are u(x) = sqrt(x) J_nu(mu x); the eigenvalue equation collapses to the
boundary polynomial in Bessel functions,

    alpha = inf :  J_nu(mu) = 0
    alpha finite:  alpha J_nu(mu) + mu J_nu'(mu) = 0,

and the spectrum is the set of squared positive roots mu^2.  The zeta
determinant is exp(-zeta'(0)); this module provides the closed form

    -zeta'(0) = 1/2 log 2 pi + log(alpha + nu) - nu log 2 - log Gamma(nu+1)

(the log(alpha + nu) term dropped in the Dirichlet case), an independent
numeric route through the generic spectral-zeta continuation over the
computed Bessel zeros, and the closed-form half-integer family values
that enter the harmonic sector of the torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .besselzero import ZeroList, ZeroRequest, zeros
from .errors import SingularModelError, ValidationError, is_integer, is_number
from .specfun import LOG_2, LOG_2PI, ln_gamma
from .zetacont import SpectrumStream, zeta_data_numeric


@dataclass(frozen=True)
class ModelOperator:
    """L_nu(alpha): order nu >= 0 and boundary parameter alpha.

    Admissible boundary parameters: alpha = inf, or -nu < alpha < nu, or
    the alias alpha = +nu (whose boundary polynomial nu J_nu + z J_nu'
    = z J_{nu-1} shifts the order down by one).  alpha = -nu makes the
    boundary polynomial degenerate at z = 0 and the determinant formula
    singular; parameters beyond |nu| are outside the analyzed range.
    """
    nu: float
    alpha: float = math.inf

    def __post_init__(self):
        if not (is_number(self.nu) and is_number(self.alpha)):
            raise ValidationError(f"model order nu and boundary parameter alpha must be "
                                  f"real numbers, got nu={self.nu!r}, alpha={self.alpha!r}")
        nu, alpha = float(self.nu), float(self.alpha)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "alpha", alpha)
        if not (math.isfinite(nu) and nu >= 0.0):
            raise ValidationError(f"model order must be finite and >= 0, got {nu}")
        if alpha == math.inf:
            return
        if not math.isfinite(alpha):
            raise ValidationError("alpha must be finite or +inf")
        if alpha + nu == 0.0:
            raise SingularModelError(
                f"alpha + nu = 0 (alpha={alpha}, nu={nu}): boundary zero mode, "
                "determinant formula singular")
        if not (-nu < alpha <= nu):
            raise ValidationError(
                f"boundary parameter alpha={alpha} outside the admissible range "
                f"(-nu, nu] for nu={nu} (or alpha=inf)")

    @property
    def dirichlet(self) -> bool:
        return self.alpha == math.inf

    @property
    def label(self) -> str:
        a = "inf" if self.dirichlet else f"{self.alpha:g}"
        return f"L_{self.nu:g}({a})"


@dataclass(frozen=True)
class DeterminantValue:
    """log det_zeta = -zeta'(0) with provenance and error bookkeeping."""
    log_det: float
    source: str                 # "closed-form" | "numeric"
    error_estimate: float = 0.0


def spectrum(op: ModelOperator, count: int) -> ZeroList:
    """First ``count`` Bessel-zero roots of the boundary polynomial.

    Eigenvalues of L_nu(alpha) are the squared entries
    (``.eigenvalues()``).
    """
    if op.dirichlet:
        req = ZeroRequest(op.nu, "dirichlet", count)
    elif op.alpha == 0.0:
        req = ZeroRequest(op.nu, "neumann", count)
    else:
        req = ZeroRequest(op.nu, "mixed", count, alpha=op.alpha)
    return zeros(req)


def det_closed(op: ModelOperator) -> DeterminantValue:
    """Closed-form -zeta'(0) of the model operator."""
    value = 0.5 * LOG_2PI - op.nu * LOG_2 - ln_gamma(op.nu + 1.0)
    if not op.dirichlet:
        value += math.log(op.alpha + op.nu)
    return DeterminantValue(log_det=value, source="closed-form")


def det_numeric(op: ModelOperator, tol: float = 1e-7,
                count: int = 2000) -> DeterminantValue:
    """-zeta'(0) recomputed from scratch over the Bessel-zero spectrum.

    Runs the generic heat-kernel/Mellin continuation on the first
    ``count`` squared roots; raises ConvergenceError when the internal
    error estimate exceeds ``tol``.  Supported down to tol = 1e-8.
    """
    if not (is_number(tol) and 1e-8 <= tol <= 1e-2):
        raise ValidationError(
            f"numeric determinant tolerance must lie in [1e-8, 1e-2], got {tol!r}")
    if not (is_integer(count) and count >= 100):
        raise ValidationError(
            f"numeric determinant needs an integer count >= 100 eigenvalues, got {count!r}")
    zl = spectrum(op, count)
    # leading small-t heat power of sum exp(-z_k^2 t): zeros spaced ~pi
    stream = SpectrumStream(zl.eigenvalues(), name=f"spec({op.label})",
                            heat_powers=((-0.5, 1.0 / (2.0 * math.sqrt(math.pi))),))
    data = zeta_data_numeric(stream, pole_range=0, target_tol=tol)
    return DeterminantValue(log_det=-data.deriv0, source="numeric",
                            error_estimate=data.error_estimate)


def harmonic_contribution(base) -> float:
    """Harmonic-sector share of log T for a cross-section N.

    Only Betti numbers enter: each harmonic degree contributes the
    closed-form determinant of its half-integer-order model operator.
    With n = dim N and m = n + 1 the cone dimension:

    m odd (n even):
        (log2/2) chi(N)
        - sum_{k=0}^{n/2-1} (-1)^k b_k sum_{l=0}^{n/2-k-1} log(2l+1)
        - 1/2 sum_{k=0}^{n/2-1} (-1)^k b_k log(n-2k+1)
    m even (n odd):
        1/2 sum_{k=0}^{(n-1)/2} (-1)^k b_k log(n-2k+1)
    """
    n = base.dim
    odd_cone = n % 2 == 0
    terms = [0.5 * LOG_2 * base.euler_characteristic] if odd_cone else []
    for k in range((n + 1) // 2):       # (n + 1) // 2 = n/2 for an odd cone
        sign = -1.0 if k % 2 else 1.0
        b = base.betti[k]
        terms.append((-0.5 if odd_cone else 0.5) * sign * b * math.log(n - 2 * k + 1))
        if odd_cone:
            terms.append(-sign * b * math.fsum(math.log(2 * l + 1) for l in range(n // 2 - k)))
    return math.fsum(terms)
