"""Spectral-zeta analytic continuation from eigenvalue streams.

For a positive eigenvalue multiset {x_j} with trace Z(t) = sum_j m_j e^(-x_j t)
and small-t behaviour Z(t) ~ H(t) = sum_p c_p t^p, the Mellin transform

    Gamma(s) zeta(s) = I(s) + sum_p c_p / (s + p),
    I(s) = int_tmin^1 t^(s-1) (Z(t) - H(t)) dt + int_1^T t^(s-1) Z(t) dt,

(split fixed at t = 1) continues zeta meromorphically.  All outputs follow:

    zeta(0)    = c_0,
    zeta'(0)   = I(0) + sum_{p != 0} c_p / p + gamma c_0,
    Res  (w)   = c_{-w} / Gamma(w),
    PP   (w)   = [I(w) + sum_{p != -w} c_p/(w+p) - c_{-w} psi(w)] / Gamma(w),
    zeta (-m)  = (-1)^m m! c_m           (negative integers),

with PP reducing to the plain value at regular points.  Shifted derivatives
zeta'(0, a) = d/ds sum_j m_j (x_j + a)^(-s)|_0 come from two independent
routes: directly (the same machinery applied to e^(-a t) Z(t)), and through
the subtracted-logarithm relation to the unshifted data (shifted_from_base).

The small-t heat model H lives here alone: a stream's ``heat_powers`` are
the only source of exact powers, ``shift_heat_powers`` turns them into those
of e^(-b t) Z(t), and ``_heat_eval`` evaluates them.  Streams may carry an
exact trace evaluator (theta functions, geometric series) — then t_min is
essentially 0 — or only eigenvalues, in which case the trace is trustworthy
down to t_floor = Lambda / x_max and the heat expansion is extended by a
windowed least-squares fit just above t_floor.  The freely refitted leading
coefficient is compared against the supplied one (inconsistent-heat guard),
and every truncation/quadrature contribution is accumulated into
error_estimate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, ReadOnly, ValidationError, is_finite_number, is_integer
from .specfun import EULER_GAMMA, digamma, ln_gamma

_EXP_CUTOFF = 45.0          # e^-45 ~ 2.9e-20: below double-precision relevance
_EXP_ZERO = 750.0           # binary64 exp(-x) is exactly 0.0 for every x > 745.14
_NODES = 24                 # Gauss-Legendre nodes per quadrature panel
_FIT_EXTRA = 5              # fitted half-power steps beyond the supplied heat powers
_LIFT_JMAX = 6              # positive integer powers t^j carried by the lift
#: depth of the shift relation / residue ladder used on the numeric path
RMAX = 16


def _fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def _exp_rowsum(rows, cols, weights=None, *, divide=False) -> np.ndarray:
    """Row sums of weights * exp(e) over the exponents e = rows_i * (-cols_j),
    or e = (-cols_j) / rows_i with ``divide`` (a Poisson-dual branch).

    The shared kernel of every trace evaluator.  ``cols`` ascend and
    ``rows`` are positive, so along a row the exponents descend: a row
    builds only its leading columns with e > -_EXP_ZERO, padded to the next
    power of two (few distinct widths, few array passes).  Every column
    skipped has exp(e) == 0.0 exactly, and a row's width depends on that
    row alone, so its value never depends on the other rows of the call.
    Terms match a per-point loop over the same exponents; only the order
    of summation differs (numpy pairwise row sums).
    """
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    op = np.divide if divide else np.multiply
    reach = _EXP_ZERO * rows if divide else _EXP_ZERO / rows
    counts = np.searchsorted(cols, reach)
    # the power of two 2^e with count - 1 < 2^e, i.e. frexp's exponent
    widths = np.where(counts > 0, np.minimum(
        np.left_shift(1, np.frexp(counts - 1)[1]), cols.size), 0)
    neg = -cols
    out = np.zeros(rows.shape)
    for width in np.unique(widths[widths > 0]):
        group = np.nonzero(widths == width)[0]
        expo = op(neg[:width], rows[group, None])
        np.exp(expo, out=expo)
        if weights is not None:
            expo *= weights[:width]
        out[group] = expo.sum(axis=1)
    return out


def merge_ties(values, mults):
    """Merge near-equal values of an ascending array, summing their mults.

    Groups form left to right: v joins the current group when
    v - g <= 1e-12 * max(1, |v|) for the group's first value g, and starts
    a new group otherwise.  So a chain of near-ties can split into several
    groups even though each step is within tolerance of its predecessor.
    The merged value is g; mults are summed exactly as long as they are
    integer-valued, as every multiplicity is.
    """
    values = np.asarray(values, dtype=float)
    mults = np.asarray(mults, dtype=float)
    if values.size == 0:
        return values, mults
    tol = 1e-12 * np.maximum(1.0, np.abs(values))
    # a gap to the predecessor above tolerance always starts a group: float
    # subtraction is monotone, so the gap to the group's first value is no
    # smaller.  Between such starts lie runs of predecessor-ties.
    start = np.empty(values.size, dtype=bool)
    start[0] = True
    start[1:] = ~(np.diff(values) <= tol[1:])
    heads = np.flatnonzero(start)
    run = np.cumsum(start) - 1
    drift = ~(values - values[heads][run] <= tol)
    # the rare run that drifts past tolerance from its first value is split
    # by the group-start rule itself, one value at a time
    if drift.any():
        bounds = np.append(heads, values.size).tolist()
        for r in np.unique(run[drift]).tolist():
            lo, hi = bounds[r], bounds[r + 1]
            g = values[lo]
            for i in range(lo + 1, hi):
                if not values[i] - g <= tol[i]:
                    start[i] = True
                    g = values[i]
        heads = np.flatnonzero(start)
    return values[heads], np.add.reduceat(mults, heads)


def shift_heat_powers(powers, b: float):
    """Exact small-t powers of e^(-b t) Z(t) from those of Z(t).

    ``powers`` must be complete through its maximum listed power (true
    zeros included); the result is then complete through the same power.
    """
    powers = tuple((float(p), float(c)) for p, c in powers)
    if not powers or b == 0.0:
        return powers
    top = max(p for p, _ in powers)
    out: dict[float, float] = {}
    for p, c in powers:
        term = c
        m = 0
        while p + m <= top + 1e-9:
            out[p + m] = out.get(p + m, 0.0) + term
            m += 1
            term *= -b / m
    return tuple(sorted(out.items()))


def _check_shift(a: float, smallest: float) -> None:
    if a <= -smallest:
        raise ValidationError(f"shift {a} reaches past the smallest eigenvalue {smallest}")


def _heat_eval(t: np.ndarray, powers) -> np.ndarray:
    """H(t) = sum c t^p over the (p, c) pairs, at every t of the array."""
    out = np.zeros_like(t)
    for p, c in powers:
        out += c * t ** p
    return out


def _grid_sum(s: float, ts, ws, ds, tl, wl, zl) -> float:
    """Mellin sum over the split grids: the subtracted integrand ds on
    [t_min, 1] plus the plain trace zl on [1, T], both weighted by t^(s-1)."""
    return (_fsum(ws * ts ** (s - 1.0) * ds)
            + _fsum(wl * tl ** (s - 1.0) * zl))


class SpectrumStream(ReadOnly):
    """Ascending positive eigenvalues with multiplicities and optional structure.

    heat_fn: exact trace evaluator valid for every t > 0 (overrides the
    eigenvalue sum); it takes a 1-D array of t and returns an array of the
    same shape, evaluated in one array pass; heat_powers: exact leading
    small-t powers [(p, c), ...].  The counting exponent d of N(x) ~ C x^d,
    which the relation path's tail bound needs, is the rightmost pole of
    the continuation data, where ``shifted_from_base`` reads it.  Streams
    are shared by cached results, so they are read-only, their arrays
    included.
    """

    def __init__(self, values, mults=None, *, name: str = "",
                 heat_fn=None, heat_powers=()):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if mults is None:
            mults = np.ones_like(values)
        mults = np.atleast_1d(np.asarray(mults, dtype=float))
        if values.size == 0:
            raise ValidationError("spectrum stream must not be empty")
        if not np.all(np.isfinite(values) & (values > 0.0)):
            raise ValidationError("spectrum stream values must be positive and finite")
        if mults.shape != values.shape:
            raise ValidationError(f"spectrum stream mults must match values in shape, "
                                  f"got {mults.shape} and {values.shape}")
        order = np.argsort(values, kind="stable")
        values, mults = merge_ties(values[order], mults[order])
        values.flags.writeable = False
        mults.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "heat_fn", heat_fn)
        object.__setattr__(self, "heat_powers",
                           tuple((float(p), float(c)) for p, c in heat_powers))

    @property
    def min_value(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    def total_count(self) -> float:
        return float(np.sum(self.mults))

    def t_floor(self) -> float:
        """Smallest t at which the truncated eigenvalue sum is still exact
        to ~e^-45 relative; 0 when an exact trace evaluator is attached."""
        if self.heat_fn is not None:
            return 0.0
        return _EXP_CUTOFF / self.max_value

    def trace(self, t) -> np.ndarray:
        """Z(t) = sum m_j exp(-x_j t) for a 1-D array of t, in one array pass
        (the attached heat_fn, else row sums of the eigenvalue terms)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.heat_fn is not None:
            return np.asarray(self.heat_fn(t), dtype=float)
        return _exp_rowsum(t, self.values, self.mults)


def progression_stream(c: float, m: int, count: int) -> SpectrumStream:
    """Materialized arithmetic progression {c k}_{k=1..count} with mult m.

    The geometric closed form m/(e^(c t)-1) of the trace and its exact
    Bernoulli small-t powers ride along, so the numeric engine can be held to
    the closed-form answers at full precision.
    """
    if not (is_finite_number(c) and c > 0 and is_integer(m) and m >= 1
            and is_integer(count) and count >= 1):
        raise ValidationError("progression needs finite c > 0, integer m >= 1 and "
                              f"integer count >= 1, got c={c!r}, m={m!r}, count={count!r}")
    k = np.arange(1, count + 1, dtype=float)
    # 1/(e^(ct)-1) = 1/(ct) - 1/2 + ct/12 - (ct)^3/720 + (ct)^5/30240 - ...
    powers = ((-1.0, m / c), (0.0, -m / 2.0), (1.0, m * c / 12.0),
              (3.0, -m * c ** 3 / 720.0), (5.0, m * c ** 5 / 30240.0),
              (7.0, -m * c ** 7 / 1209600.0))
    return SpectrumStream(c * k, m * np.ones_like(k), name=f"progression({c},{m})",
                          heat_fn=lambda t: m / np.expm1(c * t), heat_powers=powers)


@dataclass(frozen=True)
class ZetaFunctionData:
    """Continuation outputs, read-only once built: the mappings are copied
    into read-only views.  pp[i] stores the plain value zeta(i) wherever
    residues[i] == 0."""
    deriv0: float
    deriv0_shifted: Mapping = field(default_factory=dict)
    residues: Mapping = field(default_factory=dict)
    pp: Mapping = field(default_factory=dict)
    error_estimate: float = 0.0
    zeta0: float = math.nan

    def __post_init__(self):
        for name in ("deriv0_shifted", "residues", "pp"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


def zeta_data_exact(c: float, m: int, alphas=(), pole_range: int = 1) -> ZetaFunctionData:
    """Closed-form data for the arithmetic progression {c k}, multiplicity m.

    zeta(s) = m c^(-s) zeta_R(s) and zeta(s, a) = m c^(-s) zeta_H(s, 1+a/c);
    everything below is the s-expansion of those at s = 0 and s = i.
    """
    from .specfun import LOG_2PI, hurwitz_zeta_prime0, riemann_zeta
    if not (is_finite_number(c) and c > 0 and is_integer(m) and m >= 1):
        raise ValidationError("progression descriptor needs c > 0 and integer m >= 1")
    if not (is_integer(pole_range) and pole_range >= 0):
        raise ValidationError(f"pole_range must be an integer >= 0, got {pole_range!r}")
    lc = math.log(c)
    shifted = {}
    for alpha in alphas:
        a = float(alpha)
        _check_shift(a, c)
        shifted[a] = m * (lc * (0.5 + a / c) + hurwitz_zeta_prime0(1.0 + a / c))
    residues, pp = {}, {}
    for i in range(1, pole_range + 1):
        if i == 1:
            residues[1] = m / c
            pp[1] = m * (EULER_GAMMA - lc) / c
        else:
            residues[i] = 0.0
            pp[i] = m * c ** (-i) * riemann_zeta(float(i))
    return ZetaFunctionData(deriv0=m * (0.5 * lc - 0.5 * LOG_2PI),
                            deriv0_shifted=shifted, residues=residues, pp=pp,
                            error_estimate=0.0, zeta0=-m / 2.0)


# ---------------------------------------------------------------------------
# quadrature grid

@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], built once per node count (read-only)."""
    x, w = leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _log_panels(a: float, b: float, nodes: int, per_decade: int = 1):
    """Gauss-Legendre nodes/weights for int_a^b f(t) dt on a log axis,
    per_decade panels per decade: returns (t, w) with int = sum w f(t)."""
    if not (0.0 < a < b):
        raise ValidationError(f"bad quadrature range [{a}, {b}]")
    x, w = _gauss_legendre(nodes)
    la, lb = math.log(a), math.log(b)
    npan = max(1, int(math.ceil(per_decade * (lb - la) / math.log(10.0))))
    edges = np.linspace(la, lb, npan + 1)
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u = mid + half * x
        ts.append(np.exp(u))
        ws.append(w * half * np.exp(u))   # dt = e^u du
    return np.concatenate(ts), np.concatenate(ws)


class MellinZeta(ReadOnly):
    """Continuation engine for one stream (see module docstring).

    Heat powers used for H(t): the stream's exact powers (its only source),
    extended by _FIT_EXTRA fitted half-power steps when no exact trace
    evaluator exists.  Engines are kept by cached records, so they are
    read-only, their powers a tuple and their grid arrays included.
    """

    def __init__(self, stream: SpectrumStream, *, s_max: float = 1.0):
        def put(name, value):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

        put("stream", stream)
        powers = sorted(stream.heat_powers)
        if stream.heat_fn is not None:
            put("powers", tuple(powers))
            put("t_min", self._choose_t_min())
            put("_fit_note", 0.0)
        else:
            put("t_min", stream.t_floor())
            fitted, note = self._fit_heat_powers(powers)
            put("powers", tuple(fitted))
            put("_fit_note", note)

        # shared node grids; T adapted to the largest Mellin power requested
        x_min = stream.min_value
        T = max((_EXP_CUTOFF + 3.4 * max(s_max - 1.0, 0.0)) / x_min, 1.5)
        ts, ws = _log_panels(self.t_min, 1.0, _NODES)
        tl, wl = _log_panels(1.0, T, _NODES, per_decade=3)
        for name, value in (("_ts", ts), ("_ws", ws), ("_tl", tl), ("_wl", wl),
                            ("_T", T), ("_zs", stream.trace(ts)),
                            ("_zl", stream.trace(tl)), ("_hs", _heat_eval(ts, self.powers))):
            put(name, value)

    # -- heat model -------------------------------------------------------
    def _choose_t_min(self) -> float:
        """Largest t at which Z - H has already collapsed to rounding noise.

        Below that point the subtracted integrand is pure cancellation noise
        (|Z| ~ c t^p_min against an equal H), so integrating deeper only
        accumulates roundoff; above it the heat model is incomplete.  The
        sub-t_min remainder this leaves behind is covered by error_estimate.
        """
        probes = 0.25 * 2.0 ** -np.arange(0, 22, dtype=float)
        z = self.stream.trace(probes)
        h = _heat_eval(probes, self.powers)
        ratio = np.abs(z - h) / np.maximum(np.abs(z), 1e-300)
        ok = np.nonzero(ratio <= 1e-13)[0]
        if ok.size:
            return float(probes[ok[0]])
        return float(probes[int(np.argmin(ratio))])

    def _fit_heat_powers(self, supplied):
        """(powers, bias note): the supplied powers extended by least squares
        on a window just above the trace floor, the supplied leading
        coefficient cross-checked."""
        lo = self.t_min
        # keep the window shallow: extrapolation bias of the truncated power
        # model scales with the window top, so past ~2.5 decades more width
        # only hurts; but insist on enough span to separate the powers
        hi = min(lo * 300.0, 0.05)
        if hi < lo * 50.0:
            raise ConvergenceError(
                f"insufficient spectrum: no usable fitting window above the trace "
                f"floor t={lo:.3g} of stream {self.stream.name!r}; the heat fit needs "
                f"a largest eigenvalue of at least {_EXP_CUTOFF * 50.0 / 0.05:.0f}, "
                f"got {self.stream.max_value:.6g}")
        tw = np.exp(np.linspace(math.log(lo), math.log(hi), 160))
        zw = self.stream.trace(tw)
        resid = zw - _heat_eval(tw, supplied)
        pmax = max((p for p, _ in supplied), default=-1.0)
        # a power is identifiable only while t^p pokes above the float noise
        # of the evaluated trace on the window; fitting columns below that
        # floor is a degenerate least-squares problem producing garbage
        noise = 1e-13 * float(np.max(np.abs(zw)))
        candidates = [pmax + 0.5 * (j + 1) for j in range(_FIT_EXTRA)]
        new_powers = [p for p in candidates
                      if (hi ** p if p > 0 else lo ** p) >= 3.0 * noise]
        if float(np.max(np.abs(resid))) <= 10.0 * noise or not new_powers:
            # supplied data already model the trace to noise level here; the
            # only bias left is a noise-scale ambiguity under t_min
            self._check_supplied(supplied, tw, zw, [])
            return supplied, noise * (abs(math.log(lo)) + 1.0)
        coef, rms = _power_fit(tw, resid, new_powers)
        fitted = supplied + [(p, c) for p, c in zip(new_powers, coef)]

        # honest bias estimate, weighting each coefficient shift by its
        # deriv0 sensitivity (the sub-t_min integral int_0^tmin t^(p-1) dt it
        # controls: |ln t_min| at p = 0, t_min^p / p elsewhere)
        def weight(p):
            return abs(math.log(lo)) + 1.0 if p == 0.0 else abs(lo ** p / p)
        if hi >= lo * 200.0:
            # same model refit on the lower quarter of the window: shifts
            # measure the model's own truncation + noise amplification
            tw2 = np.exp(np.linspace(math.log(lo), math.log(hi / 4.0), 160))
            zw2 = self.stream.trace(tw2)
            coef2, _ = _power_fit(tw2, zw2 - _heat_eval(tw2, supplied), new_powers)
        else:
            # window too shallow to subdivide: compare against a smaller model
            coef2, _ = _power_fit(tw, resid, new_powers[:-2])
        note = rms * weight(0.0) + _fsum(
            [abs(c1 - c2) * weight(p) for p, c1, c2 in zip(new_powers, coef, coef2)])
        self._check_supplied(supplied, tw, zw, new_powers)
        return fitted, note

    def _check_supplied(self, supplied, tw, zw, new_powers):
        """Inconsistent-heat guard: free refit of the leading supplied power."""
        if not supplied:
            return
        p0, c0 = min(supplied, key=lambda pc: pc[0])
        others = _heat_eval(tw, [(p, c) for p, c in supplied if p != p0])
        free, _ = _power_fit(tw, zw - others, [p0] + list(new_powers))
        mismatch = abs(free[0] - c0)
        if mismatch > max(1e-4, 1e-3 * abs(c0)):
            raise ValidationError(
                f"inconsistent heat data: supplied coefficient {c0:.6g} for "
                f"t^{p0} but the stream fits {free[0]:.6g}")

    # -- core integrals -----------------------------------------------------
    def integral(self, s: float) -> float:
        pnext = max((p for p, _ in self.powers), default=-1.0) + 0.5
        if s + pnext <= 0.0:
            raise ValidationError(
                f"Mellin exponent s={s} needs heat powers beyond t^{-s}")
        return _grid_sum(s, self._ts, self._ws, self._zs - self._hs,
                         self._tl, self._wl, self._zl)

    def _pole_sum(self, s: float, skip: float | None = None) -> float:
        return _fsum([c / (s + p) for p, c in self.powers
                      if skip is None or p != skip])

    def coefficient(self, p: float) -> float:
        """Heat coefficient of t^p in the working model H (0 when absent)."""
        return _fsum([c for q, c in self.powers if q == p])

    # -- zeta data ----------------------------------------------------------
    def zeta0(self) -> float:
        return self.coefficient(0.0)

    def deriv0(self) -> float:
        c0 = self.coefficient(0.0)
        return self.integral(0.0) + self._pole_sum(0.0, skip=0.0) + EULER_GAMMA * c0

    def residue(self, w: float) -> float:
        if w <= 0.0:
            raise ValidationError("residues are extracted at w > 0 only")
        return self.coefficient(-w) / math.exp(ln_gamma(w))

    def pp(self, w: float) -> float:
        """Finite part at w > 0 (equals the plain value at regular points)."""
        if w <= 0.0:
            raise ValidationError("PP extraction implemented for w > 0 only")
        cw = self.coefficient(-w)
        num = self.integral(w) + self._pole_sum(w, skip=-w) - cw * digamma(w)
        return num / math.exp(ln_gamma(w))

    def value(self, w: float) -> float:
        """zeta(w) at a regular point (any real w, poles excluded)."""
        if w == 0.0:
            return self.zeta0()
        if w > 0.0:
            if self.coefficient(-w) != 0.0:
                raise ValidationError(f"zeta has a pole at s={w}; use residue/pp")
            return self.pp(w)
        m = round(-w)
        if abs(w + m) < 1e-12:             # negative integer: Gamma pole
            sign = 1.0 if m % 2 == 0 else -1.0
            return sign * math.gamma(m + 1.0) * self.coefficient(float(m))
        num = self.integral(w) + self._pole_sum(w)
        # reciprocal Gamma via reflection keeps negative w honest
        from .specfun import sinpi
        inv_gamma = sinpi(w) / math.pi * math.exp(ln_gamma(1.0 - w))
        return num * inv_gamma

    def deriv0_shifted(self, alpha: float) -> float:
        """zeta'(0, alpha) by the direct route: trace e^(-alpha t) Z(t)."""
        a = float(alpha)
        if a == 0.0:
            return self.deriv0()
        _check_shift(a, self.stream.min_value)
        powers = shift_heat_powers(self.powers, a)
        es, el = np.exp(-a * self._ts), np.exp(-a * self._tl)
        hs = _heat_eval(self._ts, powers)
        i0 = (_fsum(self._ws * (self._zs * es - hs) / self._ts)
              + _fsum(self._wl * self._zl * el / self._tl))
        c0 = _fsum([c for p, c in powers if p == 0.0])
        tail = _fsum([c / p for p, c in powers if p != 0.0])
        # large-t truncation of the shifted trace decays like e^-(x_min+a)T
        return i0 + tail + EULER_GAMMA * c0

    # -- error accounting ---------------------------------------------------
    def error_estimate(self, s_list=(0.0,)) -> float:
        # quadrature error probe: the same sums on a coarser grid
        ts2, ws2 = _log_panels(self.t_min, 1.0, _NODES // 2 + 2)
        tl2, wl2 = _log_panels(1.0, self._T, _NODES // 2 + 2, per_decade=3)
        probe = (ts2, ws2, self.stream.trace(ts2) - _heat_eval(ts2, self.powers),
                 tl2, wl2, self.stream.trace(tl2))
        quad = max(abs(self.integral(s) - _grid_sum(s, *probe)) for s in s_list)
        pnext = max(p for p, _ in self.powers) + 0.5
        win = self._ts <= self.t_min * 16.0
        resid = self._zs[win] - self._hs[win]
        cnext = float(np.max(np.abs(resid) / self._ts[win] ** pnext)) if np.any(win) else 0.0
        s_lo = min(s_list)
        smalltail = cnext * self.t_min ** (pnext + s_lo) / max(pnext + s_lo, 0.5)
        zT = float(self.stream.trace(np.array([self._T]))[0])
        bigtail = zT * self._T ** (max(s_list) - 1.0) / self.stream.min_value
        return quad + smalltail + bigtail + self._fit_note


def zeta_data_numeric(stream: SpectrumStream, alphas=(), pole_range: int = 1,
                      target_tol: float | None = None) -> ZetaFunctionData:
    """Full continuation data by the numeric Mellin-split route."""
    if not (is_integer(pole_range) and pole_range >= 0):
        raise ValidationError(f"pole_range must be an integer >= 0, got {pole_range!r}")
    eng = MellinZeta(stream, s_max=float(max(pole_range, 1)))
    poles = range(1, pole_range + 1)
    err = eng.error_estimate([0.0] + [float(i) for i in poles])
    if target_tol is not None and err > target_tol:
        raise ConvergenceError(
            f"insufficient spectrum: estimated error {err:.3e} "
            f"exceeds the target {target_tol:.3e}")
    return ZetaFunctionData(
        deriv0=eng.deriv0(),
        deriv0_shifted={float(a): eng.deriv0_shifted(float(a)) for a in alphas},
        residues={i: eng.residue(float(i)) for i in poles},
        pp={i: eng.pp(float(i)) for i in poles},
        error_estimate=err, zeta0=eng.zeta0())


def _power_fit(t: np.ndarray, y: np.ndarray, powers) -> tuple[np.ndarray, float]:
    """Least-squares fit y ~ sum_k a_k t^powers[k] with column scaling."""
    cols = np.stack([t ** p for p in powers], axis=1)
    scale = np.max(np.abs(cols), axis=0)
    sol, *_ = np.linalg.lstsq(cols / scale, y, rcond=None)
    coef = sol / scale
    rms = float(np.sqrt(np.mean((cols @ coef - y) ** 2)))
    return coef, rms


def shifted_from_base(stream: SpectrumStream, base: ZetaFunctionData,
                      alpha: float) -> tuple[float, float]:
    """zeta'(0, alpha) through the subtracted-logarithm relation.

    K(alpha) = sum_j m_j [ -log(1 + a/x_j) + sum_{r<=R} (-1)^(r+1) (a/x_j)^r / r ]
    is an absolutely convergent lattice sum (each term is the tail of the log
    series, summed directly to avoid cancellation), and

    zeta'(0,a) = zeta'(0) + K(a)
                 - sum_{i=1..R} (-1)^(i+1) (a^i/i) [Res(i)(gamma + psi(i)) + PP(i)]

    with R = RMAX (PP(i) is the plain value zeta(i) where Res(i) = 0).

    Returns (value, error_estimate); the estimate covers the series tail
    and the stream tail beyond its truncation radius.  The tail term takes
    the counting exponent d of N(x) ~ C x^d as the rightmost pole of the
    data, the largest i with Res(i) != 0 (the Weyl exponent), and is 0 when
    the data has no pole.
    """
    a = float(alpha)
    if a == 0.0:
        return base.deriv0, base.error_estimate
    _check_shift(a, stream.min_value)
    w = a / stream.values
    if np.max(np.abs(w)) >= 0.75:
        raise ValidationError("relation path needs |alpha| < 3/4 of the smallest eigenvalue")
    # tail of the log series, sum_{r=R+1}^{R+60} (-1)^r w^r / r, built termwise
    tail = np.zeros_like(w)
    wr = w ** (RMAX + 1)
    for r in range(RMAX + 1, RMAX + 61):
        sign = 1.0 if r % 2 == 0 else -1.0
        tail += sign * wr / r
        wr = wr * w
    K = _fsum(stream.mults * tail)

    corr = []
    for i in range(1, RMAX + 1):
        res_i = base.residues.get(i, 0.0)
        if res_i != 0.0:
            bracket = res_i * (EULER_GAMMA + digamma(float(i))) + base.pp[i]
        else:
            bracket = base.pp.get(i)
            if bracket is None:
                raise ValidationError(f"relation path needs zeta({i}) in the base data")
        sign = 1.0 if i % 2 == 1 else -1.0
        corr.append(sign * a ** i / i * bracket)
    value = base.deriv0 + K - _fsum(corr)

    # error: series remainder at the smallest eigenvalue + stream tail
    wmin = abs(a) / stream.min_value
    series_rem = float(np.sum(stream.mults[:8]) * wmin ** (RMAX + 61) / (1.0 - wmin))
    tail_est = 0.0
    d = max((i for i, res in base.residues.items() if res != 0.0), default=None)
    if d is not None:
        V = stream.max_value
        cdens = stream.total_count() / V ** d
        if RMAX + 1 > d:
            tail_est = cdens * d * abs(a) ** (RMAX + 1) / (
                (RMAX + 1) * (RMAX + 1 - d)) * V ** (d - RMAX - 1)
    return value, base.error_estimate + series_rem + tail_est


def sqrt_stream(q_stream: SpectrumStream, q_engine: MellinZeta) -> SpectrumStream:
    """Square-root lift: eigenvalues sqrt(x_j) of a stream with values x_j.

    The lifted trace G(t) = sum_j m_j e^(-sqrt(x_j) t) is evaluated through
    the subordination identity
        G(t) = t/(2 sqrt(pi)) int_0^inf u^(-3/2) e^(-t^2/(4u)) Z_Q(u) du,
    which needs only the (exact) trace of the square stream, and its small-t
    powers come from the Mellin poles of Gamma(s) zeta_nu(s), zeta_nu(s) =
    zeta_Q(s/2): t^(-2w0) terms from each pole w0 of zeta_Q, zeta_Q(0) at
    t^0, and (-1)^j zeta_Q(-j/2)/j! at t^j.
    """
    if q_stream.heat_fn is None:
        raise ValidationError("sqrt_stream needs a stream with an exact trace evaluator")
    powers = []
    for p, c in q_engine.powers:
        if p < 0.0:
            w0 = -p
            coeff = 2.0 * c * math.exp(ln_gamma(2.0 * w0) - ln_gamma(w0))
            powers.append((-2.0 * w0, coeff))
    powers.append((0.0, q_engine.zeta0()))
    for j in range(1, _LIFT_JMAX + 1):
        sign = 1.0 if j % 2 == 0 else -1.0
        powers.append((float(j), sign * q_engine.value(-0.5 * j) / math.factorial(j)))

    nu_vals = np.sqrt(q_stream.values)
    qmin = q_stream.min_value
    numax = float(np.sqrt(q_stream.max_value))
    t_direct = _EXP_CUTOFF / numax

    def lifted_trace(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        direct = t >= t_direct
        out[direct] = _exp_rowsum(t[direct], nu_vals, q_stream.mults)
        small = np.nonzero(~direct)[0]
        if small.size:
            grids = [_log_panels(t[i] * t[i] / (4.0 * (_EXP_CUTOFF + 5.0)),
                                 (_EXP_CUTOFF + 5.0) / qmin, 24) for i in small]
            # one trace call for every grid: a point's trace does not
            # depend on the batch it is evaluated in
            sizes = np.cumsum([uu.size for uu, _ in grids])
            zq = np.split(q_stream.trace(np.concatenate([uu for uu, _ in grids])),
                          sizes[:-1])
            for i, (uu, wu), z in zip(small, grids, zq):
                ti = t[i]
                integ = _fsum(wu * uu ** (-1.5) * np.exp(-ti * ti / (4.0 * uu)) * z)
                out[i] = ti / (2.0 * math.sqrt(math.pi)) * integ
        return out

    return SpectrumStream(nu_vals, q_stream.mults, name=f"sqrt({q_stream.name})",
                          heat_fn=lifted_trace, heat_powers=powers)
