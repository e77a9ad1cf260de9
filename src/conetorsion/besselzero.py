"""Positive zeros of J_nu, J_nu', and the mixed combination a*J_nu(z) + z*J_nu'(z).

Strategy: Dirichlet zeros come from vectorized, bracket-safeguarded Newton
iteration seeded by McMahon's asymptotic expansion, with an array-pass sign
scan repairing the low indices where the expansion is poor (large order nu).
A unit grid re-checks the seam between the scanned and the kept Newton zeros;
a zero skipped there sends the whole list to the scan.  Orders from 2^52 on,
where binary64 is too coarse for a unit grid, are refused.
Derivative and mixed zeros are then bracketed by the interlacing property —
the logarithmic derivative z J'/J decreases from +inf to -inf across each
interval between consecutive J_nu zeros (Mittag-Leffler expansion), so each
interval holds exactly one mixed zero whenever alpha + nu > 0 — and refined
by the vectorized bisection sweep the scan also uses, plus Newton polish.

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
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, Record, ValidationError, integer, number

KINDS = ("dirichlet", "neumann", "mixed")

_RESIDUAL_TOL = 1e-12
_SIMPLICITY_TOL = 1e-8          # |f'| relative to the sizes of the terms it sums
_SECANT_STEPS = 5
_SCAN_CELLS = 1 << 20           # widest repair scan, in unit cells


class ZeroRequest(Record):
    __slots__ = ("nu", "kind", "count", "alpha")

    def __init__(self, nu: float, kind: str, count: int, alpha: float | None = None):
        order = number(nu, "nu", "a real number", lambda x: True)   # an order check follows
        if alpha is not None:
            number(alpha, "alpha", "a real number", lambda x: True)
        if not 0.0 <= order < math.inf:
            raise ValidationError(f"order must be finite and >= 0, got nu={nu}")
        if kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
        count = integer(count, "count", 1, rule="a positive integer")
        if kind == "mixed":
            if alpha is None:
                raise ValidationError("mixed kind requires a boundary parameter alpha")
            if alpha != math.inf and not (alpha * alpha < nu * nu or alpha == nu):
                raise ValidationError(
                    "invalid alpha: mixed boundary parameter needs alpha^2 < nu^2 "
                    f"(or alpha=+nu, or alpha=inf for Dirichlet); got alpha={alpha}, nu={nu}")
        elif alpha is not None:
            raise ValidationError(f"alpha is only meaningful for kind 'mixed', got kind={kind!r}")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "alpha", alpha)


class ZeroList(Record):
    __slots__ = ("request", "zeros", "residuals", "fprimes")
    _REPR = ("request",)

    def __init__(self, request: ZeroRequest, zeros: np.ndarray, residuals: np.ndarray,
                 fprimes: np.ndarray):
        for arr in (zeros, residuals, fprimes):
            arr.flags.writeable = False    # the Dirichlet zeros are memoized
        object.__setattr__(self, "request", request)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "fprimes", fprimes)

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
    seeds = np.array([mcmahon_guess(nu, i) for i in range(1, count + 1)])

    halfgap = np.maximum(0.5 * np.diff(seeds, prepend=seeds[0] - math.pi), 0.45 * math.pi)
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
        ok |= np.abs(znew - z) <= 1e-14 * np.abs(znew)
        z = znew
        if ok.all():
            break

    # validate; repair the (low-index) failures by scanning
    # gaps are >= pi for nu >= 1/2 and >= 3.1153 below
    gap_ok = np.diff(z, prepend=-np.inf, append=np.inf) > 3.1
    good = ok & (z > nu) & np.isfinite(z) & gap_ok[:-1] & gap_ok[1:]
    good &= np.abs(jv(nu, z)) <= 1e-9 * np.maximum(1.0, z)
    if not good.all():
        n_repair = int(np.max(np.nonzero(~good)[0])) + 1
        z[:n_repair] = _scan_zeros(nu, n_repair)
        if n_repair < count:
            # the kept Newton zeros must resume at the zero after the scan's
            # last: zeros are over 3.1 apart, so J_nu changes sign on a unit grid
            # from lo + 1/2 to hi - 1/2 iff one was skipped; then all are scanned
            lo, hi = z[n_repair - 1], z[n_repair]
            seam = 3.1 < hi - lo <= _SCAN_CELLS and np.all(
                np.diff(np.sign(jv(nu, np.arange(lo + 0.5, hi - 0.5)))) == 0.0)
            if not seam:
                z = _scan_zeros(nu, count)
        # one more vectorized polish over everything
        for _ in range(3):
            f, fp = _f_dirichlet(nu, z)
            z = z - np.where(fp != 0.0, f / fp, 0.0)
    z.flags.writeable = False
    return z


def _scan_zeros(nu: float, count: int) -> np.ndarray:
    """Sign scans on a unit-step grid from z = nu, below the first zero,
    widened fourfold until it holds ``count`` sign changes of J_nu, then
    plain bisection of those cells: no use of McMahon's expansion.  Zeros
    are more than 3.1 apart, so each cell holds at most one."""
    from scipy.special import jv
    width = 8 * count
    while True:
        grid = nu + np.arange(width + 1.0)
        sign = np.sign(jv(nu, grid))
        cells = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0][:count]
        if cells.size == count:
            break
        if width >= _SCAN_CELLS:
            raise ConvergenceError(f"scan found {cells.size} of {count} zeros of J_{nu}")
        width = min(4 * width, _SCAN_CELLS)
    return _bisect(grid[cells], grid[cells + 1], sign[cells],
                   np.full(count, -np.inf), np.full(count, np.inf), lambda t: jv(nu, t))


def _bisect(lo, hi, flo_sign, below, above, f) -> np.ndarray:
    """Midpoints of the brackets [lo, hi], narrowed in place by bisection
    sweeps.  f has sign flo_sign at each lo and one zero in each bracket,
    inside (below, above); only midpoints inside that enclosure evaluate f."""
    # a sweep that leaves an element's bracket unchanged would repeat itself
    # on every later sweep (same midpoint, same sign), so it leaves the live set
    live = np.arange(lo.size)
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
    return 0.5 * (lo + hi)


def _bisect_interlaced(nu: float, count: int, f, fpair) -> np.ndarray:
    """One zero per interval between consecutive J_nu zeros (plus the head
    interval starting at 0), located by the shared bisection sweep and
    polished by Newton.  The sweeps read only the sign of f(z); the polish
    takes fpair(z) -> (f(z), f'(z)).  The sign of f at 0+ must be +.

    Each interval holds exactly one zero, so a midpoint on a known side of
    it has a known sign.  Secant steps on f find each zero approximately;
    (z - d, z + d) encloses it where f has the left-end sign at z - d and the
    opposite sign at z + d.  The result is bitwise that of plain bisection.
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

    z = _bisect(lo, hi, flo_sign, below, above, f)
    for _ in range(3):
        f, fp = fpair(z)
        step = np.where(fp != 0.0, f / fp, 0.0)
        z = np.clip(z - step, lo, hi)
    return z


def zeros(req: ZeroRequest) -> ZeroList:
    """First `count` positive zeros for the request, validated for strict
    increase, small residual, and simplicity."""
    nu, count = req.nu, req.count
    if nu >= 2.0 ** 52:     # binary64 spacing is 1 or more there: no unit-step scan
        raise ConvergenceError(f"order nu={nu:g} is beyond the reach of the unit-step scan")
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
