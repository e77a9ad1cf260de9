"""Positive zeros of J_nu, J_nu', and the mixed combination a*J_nu(z) + z*J_nu'(z).

Strategy: Dirichlet zeros come from vectorized, bracket-safeguarded Newton
iteration seeded by McMahon's asymptotic expansion, with a sequential
scan-and-bisect repair for the low indices where the expansion is poor
(large order nu).  Derivative and mixed zeros are then bracketed by the
interlacing property — the logarithmic derivative z J'/J decreases from +inf
to -inf across each interval between consecutive J_nu zeros (Mittag-Leffler
expansion), so each interval holds exactly one mixed zero whenever
alpha + nu > 0 — and refined by vectorized bisection plus Newton polish.

The mixed boundary parameter must satisfy alpha^2 < nu^2, or be +inf
(Dirichlet alias).  The single boundary point alpha = +nu is also accepted:
there the combination collapses to z*J_{nu-1}(z) by the standard recurrence,
so its zeros are the (nu-1)-order Dirichlet zeros and remain simple and
interlaced; the spectral-shift self-test relies on this case.  At nu = 0 that
point is alpha = 0, where z*J_{-1}(z) = -z*J_1(z): the zeros of J_0' = -J_1,
solved as the nu = 0 J' zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ValidationError, is_finite_number, is_number

KINDS = ("dirichlet", "neumann", "mixed")

_RESIDUAL_TOL = 1e-12
_SIMPLICITY_TOL = 1e-8          # |f'| relative to the sizes of the terms it sums
_SECANT_STEPS = 5


@dataclass(frozen=True)
class ZeroRequest:
    nu: float
    kind: str
    count: int
    alpha: float | None = None

    def __post_init__(self):
        if not is_number(self.nu):
            raise ValidationError(f"nu must be a real number, got {self.nu!r}")
        if self.alpha is not None and not is_number(self.alpha):
            raise ValidationError(f"alpha must be a real number, got {self.alpha!r}")
        if not (is_finite_number(self.nu) and self.nu >= 0.0):
            raise ValidationError(f"order must be finite and >= 0, got nu={self.nu}")
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (isinstance(self.count, int) and not isinstance(self.count, bool)
                and self.count >= 1):
            raise ValidationError(f"count must be a positive integer, got {self.count!r}")
        if self.kind == "mixed":
            a = self.alpha
            if a is None:
                raise ValidationError("mixed kind requires a boundary parameter alpha")
            if a != math.inf and not (a * a < self.nu * self.nu or a == self.nu):
                raise ValidationError(
                    "invalid alpha: mixed boundary parameter needs alpha^2 < nu^2 "
                    f"(or alpha=+nu, or alpha=inf for Dirichlet); got alpha={a}, nu={self.nu}")
        elif self.alpha is not None:
            raise ValidationError(f"alpha is only meaningful for kind 'mixed', got kind={self.kind!r}")


@dataclass(frozen=True)
class ZeroList:
    request: ZeroRequest
    zeros: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    fprimes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.zeros, self.residuals, self.fprimes):
            arr.flags.writeable = False    # the Dirichlet zeros are memoized

    def eigenvalues(self) -> np.ndarray:
        """Squared zeros — the spectrum of the associated model operator."""
        return self.zeros ** 2


def mcmahon_guess(nu: float, index: int) -> float:
    """McMahon asymptotic estimate of the index-th positive zero of J_nu
    (seed only).

    Every correction carries the factor mu - 1, which vanishes at nu = 1/2,
    so the half-integer guesses are exactly index*pi.
    """
    if index < 1:
        raise ValidationError(f"zero index must be >= 1, got {index}")
    mu = 4.0 * nu * nu
    b = (index + 0.5 * nu - 0.25) * math.pi
    e = 8.0 * b
    return (b - (mu - 1.0) / e
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu ** 2 - 982.0 * mu + 3779.0) / (15.0 * e ** 5)
            - 64.0 * (mu - 1.0) * (6949.0 * mu ** 3 - 153855.0 * mu ** 2
                                   + 1585743.0 * mu - 6277237.0) / (105.0 * e ** 7))


# ---------------------------------------------------------------------------
# function/derivative evaluators per kind (vectorized over z); scipy.special
# is imported where J is evaluated, so the closed forms never load it.  The
# Neumann and mixed evaluators also return |t1| + |t2| for their derivative
# f' = t1 - t2: J_nu is exponentially small where z < nu, so f' is judged
# against the size of its terms, not against an absolute floor.

def _f_dirichlet(nu, z):
    from scipy.special import jv, jvp
    return jv(nu, z), jvp(nu, z)


def _f_neumann(nu, z):
    from scipy.special import jv, jvp
    j = jv(nu, z)
    jp = jvp(nu, z)
    t1, t2 = -jp / z, (1.0 - nu * nu / (z * z)) * j
    return jp, t1 - t2, np.abs(t1) + np.abs(t2)


def _mixed_value(nu, alpha, z):
    """alpha*J_nu(z) + z*J_nu'(z) without its derivative (which divides by z)."""
    from scipy.special import jv, jvp
    return alpha * jv(nu, z) + z * jvp(nu, z)


def _f_mixed(nu, alpha, z):
    from scipy.special import jv, jvp
    j = jv(nu, z)
    jp = jvp(nu, z)
    f = alpha * j + z * jp
    t1, t2 = alpha * jp, (z - nu * nu / z) * j     # f' = t1 - t2 by the Bessel ODE
    return f, t1 - t2, np.abs(t1) + np.abs(t2)


@lru_cache(maxsize=64)
def _dirichlet_zeros(nu: float, count: int) -> np.ndarray:
    """First ``count`` zeros of J_nu, memoized (they anchor every interlaced
    solve at the same order) and therefore read-only."""
    from scipy.special import jv
    idx = np.arange(1, count + 1)
    seeds = np.array([mcmahon_guess(nu, int(i)) for i in idx])

    halfgap = 0.5 * np.diff(seeds, prepend=seeds[0] - math.pi)
    halfgap = np.maximum(halfgap, 0.45 * math.pi)
    lo, hi = seeds - halfgap, seeds + halfgap

    z = seeds.copy()
    ok = np.zeros(count, dtype=bool)
    for _ in range(60):
        f, fp = _f_dirichlet(nu, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp != 0.0, f / fp, 0.0)
        znew = z - step
        # clip runaway steps back into the McMahon window
        bad = (znew <= lo) | (znew >= hi) | ~np.isfinite(znew)
        znew = np.where(bad, 0.5 * (np.clip(z, lo, hi) + np.where(step > 0, lo, hi)), znew)
        done = np.abs(znew - z) <= 1e-14 * np.abs(znew)
        z = znew
        ok |= done
        if ok.all():
            break

    # validate; repair the (low-index) failures by sequential scanning
    good = ok & (z > max(nu, 0.0)) & np.isfinite(z)
    if count > 1:
        gaps_ok = np.empty(count, dtype=bool)
        gaps_ok[0] = True
        gaps_ok[1:] = np.diff(z) > math.pi - 1e-9
        good &= gaps_ok & gaps_ok[np.roll(np.arange(count), -1) % count]
    resid = np.abs(jv(nu, z))
    good &= resid <= 1e-9 * np.maximum(1.0, z)
    if not good.all():
        n_repair = int(np.max(np.nonzero(~good)[0])) + 1
        z[:n_repair] = _scan_zeros(nu, n_repair)
        # one more vectorized polish over everything
        for _ in range(3):
            f, fp = _f_dirichlet(nu, z)
            z = z - np.where(fp != 0.0, f / fp, 0.0)
    z.flags.writeable = False
    return z


def _scan_zeros(nu: float, count: int) -> np.ndarray:
    """Sequential sign-change scan + brentq; slow but assumption-free."""
    # imported here: scipy.optimize costs a third of the CLI start-up, and
    # only this repair path needs it
    from scipy.optimize import brentq
    from scipy.special import jv
    if nu >= 1.0:
        start = nu + 0.9 * nu ** (1.0 / 3.0)   # below the first zero
    else:
        start = 0.3
    step = max(0.4, 0.45 * nu ** (1.0 / 3.0))
    found = []
    x, fx = start, float(jv(nu, start))
    if fx == 0.0:  # ridiculously unlucky grid point / underflow
        x *= 1.0 + 1e-9
        fx = float(jv(nu, x))
    budget = 200000
    while len(found) < count and budget > 0:
        budget -= 1
        y = x + step
        fy = float(jv(nu, y))
        if fx * fy < 0.0:
            found.append(brentq(lambda t: float(jv(nu, t)), x, y,
                                xtol=1e-15, rtol=4 * np.finfo(float).eps))
            step = max(0.4, min(step, math.pi / 3))
        x, fx = y, fy
    if len(found) < count:
        raise ConvergenceError(
            f"scan failed to find {count} zeros of J_{nu} (found {len(found)})")
    return np.array(found)


def _bisect_interlaced(nu: float, count: int, f, fpair) -> np.ndarray:
    """One zero per interval between consecutive J_nu zeros (plus the head
    interval starting at 0), located by vectorized bisection and polished by
    Newton.  The sweeps read only the sign of f(z); the polish takes
    fpair(z) -> (f(z), f'(z)).  The sign of f at 0+ must be +.

    Each interval holds exactly one zero, so a midpoint on a known side of
    it has a known sign.  Secant steps on f find each zero approximately;
    where f has the left-end sign at z - d and the opposite sign at z + d,
    the sweeps evaluate f only at midpoints strictly inside that enclosure
    and give every other midpoint its side's sign.  Midpoints, side rule and
    live set are those of plain bisection, so the bisection bounds are too.
    """
    anchors = _dirichlet_zeros(nu, count)
    lo = np.concatenate([[0.0], anchors[:-1]])
    hi = anchors.copy()
    f_hi = f(anchors)
    flo_sign = np.empty(count)
    flo_sign[0] = 1.0  # sign of f just right of 0 is that of alpha+nu > 0
    flo_sign[1:] = np.sign(f_hi[:-1])

    # secant from the right end and the midpoint; a step that leaves the
    # open interval goes halfway from the iterate to the end it crossed
    x0, f0, z = hi, f_hi, 0.5 * (lo + hi)
    for _ in range(_SECANT_STEPS):
        fz = f(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fz != f0, fz * (z - x0) / (fz - f0), 0.0)
        x0, f0 = z, fz
        z = z - step
        out = ~((z > lo) & (z < hi))
        z = np.where(out, 0.5 * (x0 + np.where(z <= lo, lo, hi)), z)

    # an enclosure is checked only inside its open interval, so f is never
    # evaluated at 0 or beyond an anchor
    delta = 1e-14 * np.maximum(z, 1.0)
    below, above = z - delta, z + delta
    check = np.nonzero((below > lo) & (above < hi))[0]
    ends = f(np.concatenate([below[check], above[check]])).reshape(2, -1)
    enclosed = np.zeros(count, dtype=bool)
    enclosed[check] = (flo_sign[check] * ends[0] > 0.0) & (flo_sign[check] * ends[1] < 0.0)
    # an unchecked or failed element's enclosure is its whole interval
    below[~enclosed] = -np.inf
    above[~enclosed] = np.inf

    # a sweep that leaves an element's bracket unchanged would repeat itself
    # on every later sweep (same midpoint, same sign), so it leaves the live set
    live = np.arange(count)
    for _ in range(54):
        l, h, s = lo[live], hi[live], flo_sign[live]
        mid = 0.5 * (l + h)
        sm = np.where(mid <= below[live], s, -s)
        doubt = np.nonzero((mid > below[live]) & (mid < above[live]))[0]
        if doubt.size:
            sm[doubt] = np.sign(f(mid[doubt]))
        take_lo = (sm == s) | (sm == 0.0)
        lo[live] = np.where(take_lo, mid, l)
        hi[live] = np.where(take_lo, h, mid)
        live = live[np.where(take_lo, mid != l, mid != h)]
        if not live.size:
            break
    z = 0.5 * (lo + hi)
    for _ in range(3):
        f, fp = fpair(z)
        step = np.where(fp != 0.0, f / fp, 0.0)
        z = np.clip(z - step, lo, hi)
    return z


def zeros(req: ZeroRequest) -> ZeroList:
    """First `count` positive zeros for the request, validated for strict
    increase, small residual, and simplicity."""
    nu, count = req.nu, req.count
    kind = req.kind
    if kind == "mixed" and req.alpha == math.inf:
        kind = "dirichlet"
    elif kind == "mixed" and req.alpha == nu == 0.0:
        kind = "neumann"        # 0*J_0 + z*J_0' has the zeros of J_0'

    if kind == "dirichlet":
        z = _dirichlet_zeros(nu, count)
        f, fp = _f_dirichlet(nu, z)
        size = np.abs(fp)
    elif kind == "neumann":
        if nu == 0.0:
            # J_0' = -J_1: reuse the Dirichlet machinery at order 1
            z = _dirichlet_zeros(1.0, count)
            for _ in range(2):
                f, fp = _f_neumann(0.0, z)[:2]
                z = z - np.where(fp != 0.0, f / fp, 0.0)
            f, fp, size = _f_neumann(0.0, z)
        else:
            from scipy.special import jvp
            z = _bisect_interlaced(nu, count, lambda t: jvp(nu, t),
                                   lambda t: _f_neumann(nu, t)[:2])
            f, fp, size = _f_neumann(nu, z)
    else:
        alpha = float(req.alpha)
        z = _bisect_interlaced(nu, count, lambda t: _mixed_value(nu, alpha, t),
                               lambda t: _f_mixed(nu, alpha, t)[:2])
        f, fp, size = _f_mixed(nu, alpha, z)

    resid = np.abs(f)
    if not np.all(np.diff(z) > 0.0) or not np.all(z > 0.0):
        raise ConvergenceError(f"zero list for {req} is not strictly increasing")
    if not np.all(resid <= _RESIDUAL_TOL * np.maximum(1.0, z)):
        worst = float(np.max(resid / np.maximum(1.0, z)))
        raise ConvergenceError(f"zero residuals too large for {req}: {worst:.3e}")
    if not np.all(np.abs(fp) > _SIMPLICITY_TOL * size):
        raise ConvergenceError(f"non-simple zero detected for {req}")
    return ZeroList(request=req, zeros=z, residuals=resid, fprimes=fp)
