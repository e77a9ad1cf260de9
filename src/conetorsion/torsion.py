"""Assembly of the scalar analytic torsion of a bounded generalized cone.

The cone over a closed oriented cross-section N of dimension n is the space
M = (0,1] x N with metric dx^2 + x^2 g^N.  Its log-torsion splits into

    log T(M) = harmonic term + sum over degrees k of
               weight_k * (per-degree spectral derivative at zero),

where the harmonic term depends only on Betti numbers (modelops) and the
per-degree term ``zeta_k_prime0`` is a closed form in the continuation data
of the degree's shifted frequency set nu = sqrt(eta + a_k^2): shifted
derivatives zeta'(0, +-alpha_k), residues at the integers 1..n, and exact
coefficient sums of the large-order Bessel polynomials (exactpoly), weighted
by digamma values.  The degree weights are (-1)^k/2, with an extra factor
delta = 1/2 in the middle degree k = (n-1)/2 when dim M = n+1 is even (that
degree's two subcomplex families coincide and would otherwise be counted
twice).

Dimension-specific reductions (``corollary_2d``, ``corollary_3d``), the
closed form for cones over circles (``theorem_main``), and a regularized
log-determinant over J_1 zeros (``lemma_first_summand``) give independent
routes to the same invariant; tests drive them against each other.

The derivation-layer evaluators (``frequency_log_term``, ``t_nu_k``,
``f_r``, ``asymptotic_remainder`` and the fit helpers) reproduce the
per-frequency integrand of the underlying contour representation and its
large-frequency expansion.  They exist so tests can validate the closed
forms against the special-function layer; the production path never calls
them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .basemanifold import BaseManifold, NuSet, nu_set
from .besselzero import ZeroRequest, zeros
from .errors import ValidationError
from .exactpoly import coeffs_x, coeffs_z, gen_D, gen_M
from .modelops import harmonic_contribution
from .specfun import (EULER_GAMMA, LOG_2, LOG_2PI, bessel_i, bessel_i_prime,
                      bessel_i_prime_scaled, bessel_i_scaled, digamma)
from .zetacont import (RMAX, MellinZeta, SpectrumStream, ZetaFunctionData,
                       shifted_from_base, sqrt_stream, zeta_data_exact)

__all__ = [
    "SpectralParameter", "ConeOverS1Config", "TorsionBreakdown",
    "frequency_log_term", "t_nu_k", "f_r", "asymptotic_remainder",
    "remainder_asymptote", "fit_remainder", "DegreeContinuation",
    "degree_continuation", "spectral_bracket", "nu_continuation_data",
    "zeta_k_prime0", "log_torsion", "corollary_2d", "corollary_3d",
    "corollary_3d_precancellation", "theorem_main", "lemma_first_summand",
    "lemma_first_summand_numeric",
]


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class SpectralParameter:
    """Evaluation point lam < 0 on the negative real axis.

    Derived quantities: z = sqrt(-lam) > 0 and t = (1 - lam)^(-1/2) in (0,1),
    so that t = (1 + z^2)^(-1/2) holds by construction.
    """

    lam: float

    def __post_init__(self):
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam < 0.0):
            raise ValidationError(
                "spectral parameter must satisfy lambda < 0 "
                "(evaluation on the negative real axis)")
        object.__setattr__(self, "lam", lam)

    @property
    def z(self) -> float:
        return math.sqrt(-self.lam)

    @property
    def t(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.lam)


@dataclass(frozen=True)
class ConeOverS1Config:
    """Cone over a circle: length (flat-disc radius) and angle parameter.

    ``nu_angle`` is the secant of the opening half-angle; nu_angle = 1 is the
    flat disc, larger values are sharper cones.
    """

    radius: float = 1.0
    nu_angle: float = 1.0

    def __post_init__(self):
        r, nu = float(self.radius), float(self.nu_angle)
        if not (math.isfinite(r) and r > 0.0):
            raise ValidationError(f"cone length must be positive and finite, got {self.radius!r}")
        if not (math.isfinite(nu) and nu >= 1.0):
            raise ValidationError(
                f"angle parameter must satisfy nu_angle >= 1 (secant of a real "
                f"opening angle), got {self.nu_angle!r}")
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "nu_angle", nu)


@dataclass(frozen=True)
class TorsionBreakdown:
    """log T(M) together with the pieces it was assembled from.

    ``per_degree`` maps each contributing degree k to its spectral derivative
    at zero and the weight it enters with (the weight already contains the
    sign (-1)^k/2 and, in even parity, the middle-degree factor delta).  The
    defining invariant is

        log_torsion = harmonic_term + sum_k weight_k * zeta_k_prime0_k,

    exposed for tests through :meth:`recombined`.  ``parity`` is the parity
    of dim M = n + 1.
    """

    log_torsion: float
    harmonic_term: float
    per_degree: dict
    parity: str
    base_id: str
    scale: float
    error_estimate: float = 0.0

    def recombined(self) -> float:
        return self.harmonic_term + math.fsum(
            entry["weight"] * entry["zeta_k_prime0"]
            for entry in self.per_degree.values())


# ---------------------------------------------------------------------------
# small shared helpers

def _alpha_k(k: int, n: int) -> Fraction:
    """Boundary-polynomial parameter of degree k on an n-dimensional base."""
    return Fraction(n - 1, 2) - k


def _check_degree(k: int, n: int, top: int) -> None:
    if not (isinstance(k, int) and 0 <= k <= top):
        raise ValidationError(
            f"degree must be an integer in 0..{top} for an {n}-dimensional "
            f"cross-section, got {k!r}")


def _parity(n: int) -> str:
    """Parity of dim M = n + 1."""
    return "odd" if n % 2 == 0 else "even"


# ---------------------------------------------------------------------------
# derivation-layer evaluators (test-only; not used by the production path)

def _log_mixed_bessel(alpha: float, nu: float, w: float) -> float:
    """log(alpha * I_nu(w) + w * I'_nu(w)) for w > 0, nu > |alpha|."""
    if w <= 1.0:
        val = alpha * bessel_i(nu, w) + w * bessel_i_prime(nu, w)
        if not (val > 0.0 and math.isfinite(val)):
            raise ValidationError(
                f"Bessel combination underflowed at order {nu:g}, argument {w:g}")
        return math.log(val)
    val = alpha * bessel_i_scaled(nu, w) + w * bessel_i_prime_scaled(nu, w)
    if not (val > 0.0 and math.isfinite(val)):
        raise ValidationError(
            f"scaled Bessel combination overflowed or underflowed at order "
            f"{nu:g}, argument {w:g}")
    return w + math.log(val)


def _log_bessel_i(nu: float, w: float) -> float:
    """log I_nu(w) for w > 0."""
    if w <= 1.0:
        val = bessel_i(nu, w)
        if not (val > 0.0 and math.isfinite(val)):
            raise ValidationError(
                f"Bessel evaluation underflowed at order {nu:g}, argument {w:g}")
        return math.log(val)
    val = bessel_i_scaled(nu, w)
    if not (val > 0.0 and math.isfinite(val)):
        raise ValidationError(
            f"scaled Bessel evaluation overflowed or underflowed at order "
            f"{nu:g}, argument {w:g}")
    return w + math.log(val)


def frequency_log_term(nu: float, alpha: float, sp: SpectralParameter,
                       parity: str) -> float:
    """Per-frequency integrand of the contour representation, by parity.

    Odd parity (dim M odd) pairs the two boundary polynomials with opposite
    signs, so alpha = 0 cancels identically; even parity adds them and
    carries the doubled interior factor 2 log(nu I_nu(nu z)).
    """
    nu = float(nu)
    alpha = float(alpha)
    if not (math.isfinite(nu) and nu > abs(alpha)):
        raise ValidationError(
            f"frequency must exceed |alpha| = {abs(alpha):g} "
            f"(limit-point range), got nu = {nu!r}")
    w = nu * sp.z
    if parity == "odd":
        return (-_log_mixed_bessel(alpha, nu, w) + math.log1p(alpha / nu)
                + _log_mixed_bessel(-alpha, nu, w) - math.log1p(-alpha / nu))
    if parity == "even":
        return (-_log_mixed_bessel(alpha, nu, w) + math.log1p(alpha / nu)
                - _log_mixed_bessel(-alpha, nu, w) + math.log1p(-alpha / nu)
                + 2.0 * _log_bessel_i(nu, w) + 2.0 * math.log(nu))
    raise ValidationError(f"parity must be 'odd' or 'even', got {parity!r}")


def t_nu_k(nu: float, k: int, n: int, sp: SpectralParameter) -> float:
    """Degree-k per-frequency integrand on an n-dimensional cross-section."""
    _check_degree(k, n, n - 1)
    return frequency_log_term(nu, float(_alpha_k(k, n)), sp, _parity(n))


def f_r(r: int, k: int, n: int, sp: SpectralParameter) -> float:
    """Order-r coefficient of the large-frequency expansion of ``t_nu_k``.

    Built from the exact expansion polynomials: the odd-parity coefficient is
    M_r(t,-a) - M_r(t,+a) plus the odd-r power term 2 a^r / r; the
    even-parity coefficient is 2 D_r(t) - M_r(t,-a) - M_r(t,+a) minus the
    even-r power term 2 a^r / r.  Both vanish at t = 1 (lam -> 0-).
    """
    if not (isinstance(r, int) and r >= 1):
        raise ValidationError(f"expansion order must be a positive integer, got {r!r}")
    _check_degree(k, n, n - 1)
    alpha = _alpha_k(k, n)
    m = gen_M(r)
    poly = m.substitute_alpha(-alpha) - m.substitute_alpha(alpha)
    if _parity(n) == "odd":
        tail = 2 * alpha ** r / r if r % 2 == 1 else Fraction(0)
    else:
        poly = gen_D(r).scale(2) - m.substitute_alpha(-alpha) - m.substitute_alpha(alpha)
        tail = -2 * alpha ** r / r if r % 2 == 0 else Fraction(0)
    return float(poly(sp.t)) + float(tail)


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


# ---------------------------------------------------------------------------
# per-degree continuation data (production path)

def nu_continuation_data(q_stream) -> tuple[ZetaFunctionData, MellinZeta]:
    """Frequency-side continuation data from the squared-frequency stream.

    Runs the Mellin-split engine on the squared stream and translates to the
    frequency side through s -> s/2: derivative at zero halves, residues at
    the integers i = 1..RMAX double, and regular values/finite parts carry
    over unchanged.  Populates everything ``shifted_from_base`` needs.
    """
    engine = MellinZeta(q_stream, s_max=0.5 * RMAX)
    residues, pp, pole_ws = {}, {}, []
    for i in range(1, RMAX + 1):
        w = 0.5 * i
        res_q = engine.residue(w)
        if res_q != 0.0:
            residues[i] = 2.0 * res_q
            pp[i] = engine.pp(w)
            pole_ws.append(w)
        else:
            residues[i] = 0.0
            pp[i] = engine.value(w)
    err = engine.error_estimate([0.0] + pole_ws)
    return ZetaFunctionData(deriv0=0.5 * engine.deriv0(), residues=residues, pp=pp,
                            error_estimate=err, zeta0=engine.zeta0()), engine


@dataclass(frozen=True)
class DegreeContinuation:
    """Read-only continuation data of one degree's frequency set.

    ``route`` is "exact" or "numeric"; ``data.deriv0_shifted`` holds
    zeta'(0, +-alpha_k) and ``shift_errors`` their error estimates.
    ``_q_engine`` (the squared-stream engine, kept only when that stream
    has an exact trace) feeds the lift cross-check.
    """

    nu: NuSet
    route: str
    data: ZetaFunctionData
    shift_errors: Mapping
    _q_engine: MellinZeta | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shift_errors", MappingProxyType(dict(self.shift_errors)))

    def shifted(self, shift: float) -> tuple[float, float]:
        """(zeta'(0, shift), error estimate) at any shift: the stored values
        at +-alpha_k, else the route's own evaluation at that shift."""
        s = float(shift)
        if s in self.shift_errors:
            return self.data.deriv0_shifted[s], self.shift_errors[s]
        if self.route == "exact":
            step, mult = self.nu.nu_stream.progression
            return zeta_data_exact(step, mult, alphas=(s,)).deriv0_shifted[s], 0.0
        return shifted_from_base(self.nu.nu_stream, self.data, s)

    @cached_property
    def check_residual(self) -> float:
        """Largest gap between ``data`` and the direct route on the
        square-root lift (0 without a lift); computed once, on first use,
        since only the torsion error budget reads it."""
        if self._q_engine is None:
            return 0.0
        ns = self.nu
        lift = sqrt_stream(ns.q_stream, self._q_engine,
                           name=f"{ns.base_id}:nu{ns.degree}")
        lift_engine = MellinZeta(lift, s_max=1.0)
        check = abs(lift_engine.deriv0() - self.data.deriv0)
        a = float(ns.alpha)
        if a != 0.0:
            for shift in (a, -a):
                direct = lift_engine.deriv0_shifted(shift)
                check = max(check, abs(direct - self.data.deriv0_shifted[shift]))
        return check


@lru_cache(maxsize=64)
def degree_continuation(base: BaseManifold, k: int) -> DegreeContinuation:
    """Continuation data of the degree-k frequency set of ``base``.

    The one place that picks the route: the exact closed form when the
    frequency set is an arithmetic progression; otherwise the numeric
    route, where a Mellin-split engine on the shifted eigenvalue stream
    supplies the frequency-side derivative, residues, and regular values
    through s -> s/2, and the shifted derivatives come from the
    subtracted-logarithm relation (cross-checked by ``check_residual``).
    """
    ns = nu_set(base, k)
    a = float(ns.alpha)
    if ns.nu_stream.progression is not None:
        step, mult = ns.nu_stream.progression
        data = zeta_data_exact(step, mult, alphas=(a, -a), pole_range=max(base.dim, 1))
        return DegreeContinuation(ns, "exact", data, {a: 0.0, -a: 0.0})

    data, engine = nu_continuation_data(ns.q_stream)
    shifts = {s: shifted_from_base(ns.nu_stream, data, s) for s in {a, -a}}
    data = replace(data, deriv0_shifted={s: v for s, (v, _) in shifts.items()})
    return DegreeContinuation(
        ns, "numeric", data, {s: err for s, (_, err) in shifts.items()},
        engine if ns.q_stream.heat_fn is not None else None)


def spectral_bracket(data: ZetaFunctionData, alpha: Fraction,
                     n: int) -> tuple[float, float]:
    """Per-degree spectral derivative at zero from continuation data.

    Combines the shifted derivatives zeta'(0, +-alpha) (difference in odd
    parity, sum in even parity) with residue terms at the integers 1..n:
    a power-series coefficient times gamma/2 + psi(i), plus the exact
    expansion-polynomial coefficient sums weighted by psi(b + i/2).

    Returns (value, residue_sensitivity); the sensitivity is the sum of the
    absolute residue multipliers, used to propagate the engine's error
    estimate through the residues.
    """
    alpha = Fraction(alpha)
    a = float(alpha)
    parity = _parity(n)
    if parity == "odd":
        total = data.deriv0_shifted[a] - data.deriv0_shifted[-a]
    else:
        total = data.deriv0_shifted[a] + data.deriv0_shifted[-a]
    sensitivity = 0.0
    for i in range(1, n + 1):
        residue = data.residues.get(i, 0.0)
        sign = 1.0 if i % 2 == 1 else -1.0
        if parity == "odd":
            power_comb = (alpha ** i - (-alpha) ** i) / i
            coeff_sum = [zb(-alpha) - zb(alpha) for zb in coeffs_z(i)]
        else:
            power_comb = (alpha ** i + (-alpha) ** i) / i
            coeff_sum = [2 * xb - zb(-alpha) - zb(alpha)
                         for xb, zb in zip(coeffs_x(i), coeffs_z(i))]
        multiplier = sign * float(power_comb) * (0.5 * EULER_GAMMA + digamma(float(i)))
        multiplier += 0.5 * math.fsum(
            float(c) * digamma(b + 0.5 * i)
            for b, c in enumerate(coeff_sum))
        total += residue * multiplier
        sensitivity += abs(multiplier)
    return total, sensitivity


def _degree_term(base: BaseManifold, k: int) -> tuple[float, float]:
    """(zeta_k_prime0, error estimate) for one contributing degree."""
    n = base.dim
    _check_degree(k, n, (n - 1) // 2)
    dc = degree_continuation(base, k)
    alpha = _alpha_k(k, n)
    value, sensitivity = spectral_bracket(dc.data, alpha, n)
    a = float(alpha)
    err = (dc.shift_errors[a] + dc.shift_errors[-a]
           + 2.0 * dc.data.error_estimate * sensitivity
           + 2.0 * dc.check_residual)
    return value, err


def zeta_k_prime0(base: BaseManifold, k: int) -> float:
    """Per-degree spectral derivative at zero (the closed-form assembly)."""
    value, _ = _degree_term(base, k)
    return value


# ---------------------------------------------------------------------------
# total torsion and dimension-specific reductions

def log_torsion(base: BaseManifold) -> TorsionBreakdown:
    """log T(M) of the cone over ``base``, with its per-degree breakdown.

    In even parity (dim M even) the middle degree enters with the extra
    factor delta = 1/2, which compensates the double count of that
    degree's subcomplex family.
    """
    n = base.dim
    parity = _parity(n)
    harmonic = harmonic_contribution(base)
    per_degree: dict[int, dict[str, float]] = {}
    terms = [harmonic]
    err = 0.0
    degree_range = range(n // 2) if parity == "odd" else range((n + 1) // 2)
    for k in degree_range:
        value, term_err = _degree_term(base, k)
        weight = 0.5 * (-1.0) ** k
        if parity == "even" and k == (n - 1) // 2:
            weight *= 0.5
        per_degree[k] = {"zeta_k_prime0": value, "weight": weight}
        terms.append(weight * value)
        err += abs(weight) * term_err
    return TorsionBreakdown(
        log_torsion=math.fsum(terms), harmonic_term=harmonic,
        per_degree=per_degree, parity=parity, base_id=base.name,
        scale=base.scale, error_estimate=err)


def corollary_2d(base: BaseManifold) -> float:
    """Two-dimensional cone (dim N = 1): three-term closed form.

    b0/2 * log 2 + zeta'(0)/2 - Res(1)/4 over the degree-0 frequency set.
    """
    if base.dim != 1:
        raise ValidationError(
            f"two-dimensional cone reduction needs a one-dimensional "
            f"cross-section, got dim N = {base.dim}")
    data = degree_continuation(base, 0).data
    return (0.5 * base.betti[0] * LOG_2 + 0.5 * data.deriv0
            - 0.25 * data.residues.get(1, 0.0))


def _corollary_3d_parts(base: BaseManifold) -> tuple[float, float, float]:
    """(terms shared by both 3d forms, Res(1), Res(2))."""
    if base.dim != 2:
        raise ValidationError(
            f"three-dimensional cone reduction needs a two-dimensional "
            f"cross-section, got dim N = {base.dim}")
    data = degree_continuation(base, 0).data
    shifted = data.deriv0_shifted
    head = (0.5 * LOG_2 * base.euler_characteristic
            - 0.5 * math.log(3.0) * base.betti[0]
            + 0.5 * shifted[0.5] - 0.5 * shifted[-0.5])
    return head, data.residues.get(1, 0.0), data.residues.get(2, 0.0)


def corollary_3d(base: BaseManifold) -> float:
    """Three-dimensional cone (dim N = 2): closed form over the degree-0 set.

    (log2/2) chi - (log3/2) b0 + [zeta'(0,1/2) - zeta'(0,-1/2)]/2
    + (log2/2) Res(1) + Res(2)/8.
    """
    head, res1, res2 = _corollary_3d_parts(base)
    return head + 0.5 * LOG_2 * res1 + 0.125 * res2


def corollary_3d_precancellation(base: BaseManifold) -> float:
    """Intermediate three-dimensional form with digamma values unsimplified.

    Replaces the last two terms of ``corollary_3d`` by
    -(gamma/4) Res(1) + [Res(1)(gamma + 2 log2) + Res(2)/2]/4; identical by
    cancellation of the gamma terms, kept as a regression guard on the
    simplification step.
    """
    head, res1, res2 = _corollary_3d_parts(base)
    return (head - 0.25 * EULER_GAMMA * res1
            + 0.25 * (res1 * (EULER_GAMMA + 2.0 * LOG_2) + 0.5 * res2))


def theorem_main(cfg: ConeOverS1Config) -> float:
    """Closed form for the cone over a circle:
    log T(M) = [-log(pi R^2) + log nu - 1/nu] / 2."""
    radius, nu = cfg.radius, cfg.nu_angle
    return 0.5 * (-math.log(math.pi * radius * radius) + math.log(nu) - 1.0 / nu)


def lemma_first_summand(radius: float = 1.0) -> float:
    """Closed form log2 - log(2 pi)/2 - (3/2) log R for the derivative at
    zero over the squared scaled zeros of J_1 (the degree-0 Neumann-type
    sector of the flat disc of radius R)."""
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValidationError(f"cone length must be positive and finite, got {radius!r}")
    return LOG_2 - 0.5 * LOG_2PI - 1.5 * math.log(radius)


def lemma_first_summand_numeric(radius: float = 1.0,
                                count: int = 2000) -> tuple[float, float]:
    """Companion numeric route to ``lemma_first_summand``.

    Continues the zeta function of {(j_k / R)^2} over the first ``count``
    positive zeros j_k of J_1 through the Mellin-split engine, pinning the
    two exact leading heat coefficients (R / (2 sqrt(pi)), -3/4).  Returns
    (value, error_estimate).
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValidationError(f"cone length must be positive and finite, got {radius!r}")
    zl = zeros(ZeroRequest(nu=1.0, kind="dirichlet", count=int(count)))
    stream = SpectrumStream((zl.zeros / radius) ** 2,
                            name=f"j1-zeros(R={radius:g})",
                            heat_powers=((-0.5, radius / (2.0 * math.sqrt(math.pi))),
                                         (0.0, -0.75)),
                            density_exponent=0.5)
    engine = MellinZeta(stream)
    return engine.deriv0(), engine.error_estimate([0.0])
