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

Frequency sets: in degree k the cone analysis replaces each coclosed
eigenvalue eta by nu = sqrt(eta + a_k^2) with a_k = k + 1/2 - n/2 = -alpha_k;
nu is the order of the Bessel functions solving the radial model problem.
``degree_continuation`` alone builds these sets, and asks only the base
for a closed form: the closed form when the degree's frequencies form an
arithmetic progression (the base's ``progression(k)``, read without
building a stream or loading numpy, and a_k = 0); the Ewald split of
``zeta_data_lattice`` when the degree is a flat 2-torus's (the base's
``lattice(k)`` and a_k != 0), at every scale, with nu listed once, over
the record's own listing, for the relation path, and no eigenvalue stream
built; else the shifted eigenvalue stream eta + a_k^2 (exact heat trace
carried along when available) and its ``sqrt_stream``.  The relation path
gives zeta'(0, +-alpha_k) in one pass.

Dimension-specific reductions (``corollary_2d``, ``corollary_3d``), the
closed form for cones over circles (``theorem_main``, re-exported with
``ConeOverS1Config`` from ``modelops``, where the numpy-free closed forms
live), and a regularized log-determinant over J_1 zeros
(``lemma_first_summand``) give independent routes to the same invariant;
tests drive them against each other.  The per-frequency integrand behind
these closed forms, and the numeric route to ``lemma_first_summand`` over
computed zeros, live in ``derivation``.

The exact progression route runs on the numpy-free layers (``zetadata``,
``specfun``, ``exactpoly``); the numeric and lattice layers (``zetacont``,
numpy) load where the other routes run, so a cone over a circle is solved
without them.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .basemanifold import BaseManifold
from .errors import ValidationError, integer, positive
from .exactpoly import parity_bracket
from .modelops import ConeOverS1Config, harmonic_contribution, theorem_main
from .specfun import EULER_GAMMA, LOG_2, LOG_2PI, digamma
from .zetadata import RMAX, ZetaFunctionData, _shifts, zeta_data_exact

__all__ = [
    "ConeOverS1Config", "TorsionBreakdown", "DegreeContinuation",
    "degree_continuation", "spectral_bracket", "nu_continuation_data",
    "zeta_k_prime0", "log_torsion", "corollary_2d", "corollary_3d",
    "theorem_main", "lemma_first_summand",
]


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class TorsionBreakdown:
    """log T(M) together with the pieces it was assembled from.

    ``per_degree`` maps each contributing degree k to its spectral derivative
    at zero and the weight it enters with (the weight already contains the
    sign (-1)^k/2 and, in even parity, the middle-degree factor delta).  The
    defining invariant is

        log_torsion = harmonic_term + sum_k weight_k * zeta_k_prime0_k.

    ``parity`` is the parity of dim M = n + 1.
    """

    log_torsion: float
    harmonic_term: float
    per_degree: dict
    parity: str
    base_id: str
    scale: float
    error_estimate: float = 0.0


# ---------------------------------------------------------------------------
# small shared helpers

def _alpha_k(k: int, n: int) -> Fraction:
    """Boundary-polynomial parameter of degree k on an n-dimensional base."""
    return Fraction(n - 1, 2) - k


def _check_degree(k, n: int, top: int) -> int:
    """The degree k as an int, refused unless a Python or numpy integer (not
    a bool) in 0..top."""
    return integer(k, "degree", 0, top,
                   f"an integer in 0..{top} for a cross-section of dimension {n}")


def _parity(n: int) -> str:
    """Parity of dim M = n + 1."""
    return "odd" if n % 2 == 0 else "even"


# ---------------------------------------------------------------------------
# per-degree continuation data (production path)

def nu_continuation_data(q_stream) -> tuple[ZetaFunctionData, MellinZeta]:
    """Frequency-side continuation data from the squared-frequency stream.

    Runs the Mellin-split engine on the squared stream and translates to the
    frequency side through s -> s/2: derivative at zero halves, residues at
    the integers i = 1..RMAX double, and regular values/finite parts carry
    over unchanged.  Populates everything ``shifted_from_base`` needs.
    """
    from .zetacont import MellinZeta
    engine = MellinZeta(q_stream, s_max=0.5 * RMAX)
    residues, pp, pole_ws = {}, {}, []
    for i in range(1, RMAX + 1):
        w = 0.5 * i
        res_q = engine.residue(w)
        residues[i] = 2.0 * res_q
        pp[i] = engine.pp(w)            # the plain value where res_q == 0
        if res_q != 0.0:
            pole_ws.append(w)
    err = engine.error_estimate([0.0] + pole_ws)
    return ZetaFunctionData(deriv0=0.5 * engine.deriv0(), residues=residues, pp=pp,
                            error_estimate=err, zeta0=engine.zeta0()), engine


@dataclass(frozen=True)
class DegreeContinuation:
    """Read-only continuation data of one degree's frequency set.

    ``alpha`` is alpha_k.  ``route`` is "exact" (closed-form data) or
    "numeric".  ``progression`` is the (step, mult) descriptor of the
    closed form over a progression (frequencies step*m, m >= 1, each of
    multiplicity mult), which reads no stream.  The other routes keep the
    frequencies as ``nu_stream``: on the lattice route a plain listing of
    sqrt(eta + a_k^2); on the numeric route the square-root lift of the
    stream eta + a_k^2 (``sqrt_stream``), which carries the lifted trace
    where its model holds.  ``data.deriv0_shifted`` holds
    zeta'(0, +-alpha_k) and ``shift_errors`` their error estimates.
    """

    alpha: Fraction
    route: str
    data: ZetaFunctionData
    shift_errors: Mapping
    progression: tuple | None = None
    nu_stream: SpectrumStream | None = None

    def __post_init__(self):
        object.__setattr__(self, "shift_errors", MappingProxyType(dict(self.shift_errors)))

    def shifted(self, shift: float) -> tuple[float, float]:
        """(zeta'(0, shift), error estimate) at any finite shift: the stored
        values at +-alpha_k, else the route's own evaluation at that shift."""
        s, = _shifts((shift,))
        if s in self.shift_errors:
            return self.data.deriv0_shifted[s], self.shift_errors[s]
        if self.progression is not None:
            return zeta_data_exact(*self.progression, alphas=(s,)).deriv0_shifted[s], 0.0
        from .zetacont import shifted_from_base
        return shifted_from_base(self.nu_stream, self.data, s)

    @cached_property
    def check_residual(self) -> float:
        """Largest gap between ``data`` and the direct route on the lifted
        ``nu_stream`` (0 when it carries no trace); computed once, on first
        use, since only the torsion error budget reads it."""
        if self.nu_stream is None or self.nu_stream.heat_fn is None:
            return 0.0
        from .zetacont import MellinZeta
        lift_engine = MellinZeta(self.nu_stream, s_max=1.0)
        check = abs(lift_engine.deriv0() - self.data.deriv0)
        a = float(self.alpha)
        if a != 0.0:
            for shift in (a, -a):
                direct = lift_engine.deriv0_shifted(shift)
                check = max(check, abs(direct - self.data.deriv0_shifted[shift]))
        return check


# {base: {k: record}}; records hold no reference to their base, so they die with it
_RECORDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def degree_continuation(base: BaseManifold, k: int) -> DegreeContinuation:
    """Continuation data of the degree-k frequency set of ``base``.

    The one place that knows frequency sets and picks the route, from the
    base's closed forms alone: the exact closed form when the base holds
    the degree as an arithmetic progression (no stream is built); the exact
    lattice route (``zeta_data_lattice``) when it holds a flat 2-torus
    lattice record, which builds no eigenvalue stream; otherwise the numeric
    route, where a Mellin-split engine on the shifted eigenvalue stream
    supplies the frequency-side derivative, residues, and regular values
    through s -> s/2 (cross-checked by ``check_residual``).  Off the
    progression, the shifted derivatives at +-alpha_k come from one paired
    pass of the subtracted-logarithm relation over the frequency listing.
    Requires 0 <= k <= n-1.  Built once per base instance and degree; kept
    as long as the base lives.
    """
    n = base.dim
    k = _check_degree(k, n, n - 1)
    records = _RECORDS.setdefault(base, {})
    if k not in records:
        records[k] = _continuation(base, k, n)
    return records[k]


def _continuation(base: BaseManifold, k: int, n: int) -> DegreeContinuation:
    alpha = _alpha_k(k, n)
    a = float(alpha)
    progression = base.progression(k)
    if progression is not None and a == 0.0:
        data = zeta_data_exact(*progression, alphas=(a, -a), pole_range=max(n, 1))
        return DegreeContinuation(alpha, "exact", data, {a: 0.0, -a: 0.0}, progression)

    import numpy as np

    from .zetacont import SpectrumStream, shifted_from_base, sqrt_stream, zeta_data_lattice
    lattice = base.lattice(k)
    if lattice is not None and a != 0.0:
        route = "exact"
        data = zeta_data_lattice(lattice, a)
        eta, mults = lattice.listing()
        nu_stream = SpectrumStream(np.sqrt(eta + a * a), mults,
                                   name=f"sqrt({lattice.name}+{a * a:g})")
    else:
        route = "numeric"
        data, engine = nu_continuation_data(base.coclosed_spectrum(k).shifted(a * a))
        nu_stream = sqrt_stream(engine)
    if nu_stream.min_value <= abs(a):
        raise ValidationError(
            f"frequencies must exceed |alpha_k| = {abs(a):g}; smallest is "
            f"{nu_stream.min_value:g} (degree {k})")
    pair = shifted_from_base(nu_stream, data, a, paired=True)
    shifts = {s: pair[s] for s in {a, -a}}      # the record's mappings keep set order
    data = replace(data, deriv0_shifted={s: v for s, (v, _) in shifts.items()})
    return DegreeContinuation(
        alpha, route, data, {s: err for s, (_, err) in shifts.items()}, nu_stream=nu_stream)


@lru_cache(maxsize=None)
def _residue_multipliers(alpha: Fraction, n: int) -> tuple[tuple[float, ...], float]:
    """The multipliers of Res(1)..Res(n) in ``spectral_bracket`` and the sum
    of their absolute values: they depend on (alpha, n) alone, so each pair
    reads its exact ``parity_bracket`` sums once per process."""
    parity = _parity(n)
    multipliers, sensitivity = [], 0.0
    for i in range(1, n + 1):
        sign = 1.0 if i % 2 == 1 else -1.0
        coeff_sum, power_comb = parity_bracket(i, alpha, parity)
        multiplier = sign * float(power_comb) * (0.5 * EULER_GAMMA + digamma(float(i)))
        multiplier += 0.5 * math.fsum(
            float(c) * digamma(b + 0.5 * i)
            for b, c in enumerate(coeff_sum))
        multipliers.append(multiplier)
        sensitivity += abs(multiplier)
    return tuple(multipliers), sensitivity


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
    if _parity(n) == "odd":
        total = data.deriv0_shifted[a] - data.deriv0_shifted[-a]
    else:
        total = data.deriv0_shifted[a] + data.deriv0_shifted[-a]
    multipliers, sensitivity = _residue_multipliers(alpha, n)
    for i, multiplier in enumerate(multipliers, 1):
        total += data.residues.get(i, 0.0) * multiplier
    return total, sensitivity


def _degree_term(base: BaseManifold, k: int) -> tuple[float, float]:
    """(zeta_k_prime0, error estimate) for one contributing degree."""
    n = base.dim
    dc = degree_continuation(base, _check_degree(k, n, (n - 1) // 2))
    value, sensitivity = spectral_bracket(dc.data, dc.alpha, n)
    a = float(dc.alpha)
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
    for k in range((n + 1) // 2):
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


def _reduction_data(base: BaseManifold, n: int) -> ZetaFunctionData:
    """Degree-0 continuation data of a base the dim N = n reduction accepts."""
    if base.dim != n:
        raise ValidationError(f"the {n + 1}-dimensional cone reduction needs a "
                              f"{n}-dimensional cross-section, got dim N = {base.dim}")
    return degree_continuation(base, 0).data


def corollary_2d(base: BaseManifold) -> float:
    """Two-dimensional cone (dim N = 1): three-term closed form.

    b0/2 * log 2 + zeta'(0)/2 - Res(1)/4 over the degree-0 frequency set.
    """
    data = _reduction_data(base, 1)
    return (0.5 * base.betti[0] * LOG_2 + 0.5 * data.deriv0
            - 0.25 * data.residues.get(1, 0.0))


def _corollary_3d_parts(base: BaseManifold) -> tuple[float, float, float]:
    """(terms shared by both 3d forms, Res(1), Res(2))."""
    data = _reduction_data(base, 2)
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


def lemma_first_summand(radius: float = 1.0) -> float:
    """Closed form log2 - log(2 pi)/2 - (3/2) log R for the derivative at
    zero over the squared scaled zeros of J_1 (the degree-0 Neumann-type
    sector of the flat disc of radius R)."""
    return LOG_2 - 0.5 * LOG_2PI - 1.5 * math.log(positive(radius, "cone length"))
