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
that enter the harmonic sector of the torsion.  The closed form for cones
over circles (``theorem_main``, re-exported by ``torsion``) lives here too.

Everything but the numeric route is scalar arithmetic: this module imports
without numpy, and ``det_numeric`` loads the Bessel-zero solver and the
zeta continuation (and with them numpy) when it runs.
"""

from __future__ import annotations

import math
import sys

from .errors import Record, SingularModelError, ValidationError, integer, number, positive
from .specfun import LOG_2, LOG_2PI, ln_gamma


class ConeOverS1Config(Record):
    """Cone over a circle: length (flat-disc radius) and angle parameter.

    ``nu_angle`` is the secant of the opening half-angle; nu_angle = 1 is the
    flat disc, larger values are sharper cones.
    """

    __slots__ = ("radius", "nu_angle")

    def __init__(self, radius: float = 1.0, nu_angle: float = 1.0):
        r = positive(radius, "cone length")
        # theorem_main takes log(pi R^2): the area must be a normal float
        if not sys.float_info.min <= math.pi * r * r < math.inf:
            raise ValidationError(
                f"cone length {radius!r} puts the disc area pi R^2 outside "
                f"the normal floating-point range")
        nu = number(nu_angle, "nu_angle", "a finite number >= 1 (the secant of a real "
                    "opening angle)", lambda x: 1.0 <= x < math.inf)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "nu_angle", nu)


def theorem_main(cfg: ConeOverS1Config) -> float:
    """Closed form for the cone over a circle:
    log T(M) = [-log(pi R^2) + log nu - 1/nu] / 2."""
    radius, nu = cfg.radius, cfg.nu_angle
    return 0.5 * (-math.log(math.pi * radius * radius) + math.log(nu) - 1.0 / nu)


class ModelOperator(Record):
    """L_nu(alpha): order nu >= 0 and boundary parameter alpha.

    Admissible boundary parameters: alpha = inf, or -nu < alpha < nu, or
    the alias alpha = +nu (whose boundary polynomial nu J_nu + z J_nu'
    = z J_{nu-1} shifts the order down by one).  alpha = -nu makes the
    boundary polynomial degenerate at z = 0 and the determinant formula
    singular; parameters beyond |nu| are outside the analyzed range.
    """

    __slots__ = ("nu", "alpha")

    def __init__(self, nu: float, alpha: float = math.inf):
        nu = number(nu, "nu", "a finite number >= 0", lambda x: 0.0 <= x < math.inf)
        alpha = number(alpha, "alpha", "a finite number or inf",
                       lambda x: -math.inf < x <= math.inf)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "alpha", alpha)
        if alpha == math.inf:
            return
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


class DeterminantValue(Record):
    """log det_zeta = -zeta'(0) with provenance and error bookkeeping."""

    __slots__ = ("log_det", "source", "error_estimate")

    def __init__(self, log_det: float, source: str, error_estimate: float = 0.0):
        object.__setattr__(self, "log_det", log_det)
        object.__setattr__(self, "source", source)     # "closed-form" | "numeric"
        object.__setattr__(self, "error_estimate", error_estimate)


def spectrum(op: ModelOperator, count: int):
    """First ``count`` Bessel-zero roots of the boundary polynomial, as the
    solver's ``ZeroList``.

    Eigenvalues of L_nu(alpha) are the squared entries
    (``.eigenvalues()``).  The solver loads on first use: ``torsion``
    imports this module for ``harmonic_contribution`` alone, and the CLI
    for the closed forms.
    """
    from .besselzero import ZeroRequest, zeros
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
    from .zetacont import SpectrumStream, zeta_data_numeric
    tol = number(tol, "tolerance", "a number in [1e-8, 1e-2]", lambda x: 1e-8 <= x <= 1e-2)
    zl = spectrum(op, integer(count, "count", 100))
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
