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
the subtracted-logarithm relation to the unshifted data (shifted_from_base,
which gives zeta'(0, a) and zeta'(0, -a) from one pass).

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

The continuation record ``ZetaFunctionData``, ``RMAX`` and the closed-form
data of an arithmetic progression (``zeta_data_exact``) live in the
numpy-free ``zetadata``, so the exact route over a circle never loads this
module; they are re-exported here as the same objects.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np

from .basemanifold import _Lattice
from .errors import ConvergenceError, ReadOnly, ValidationError, integer, number, positive
from .specfun import EULER_GAMMA, EXPINT_REL, digamma, expint_ladder, ln_gamma
from .zetadata import RMAX, ZetaFunctionData, _check_shift, _shifts, zeta_data_exact

_EXP_CUTOFF = 45.0          # e^-45 ~ 2.9e-20: below double-precision relevance
_EXP_ZERO = 750.0           # binary64 exp(-x) is exactly 0.0 for every x > 745.14
_NORMAL_EXP = 700.0         # e^-700 ~ 1e-304 is a normal binary64 number
_SETTLED = 60.0 * math.log(2.0)   # dropped trace terms stay below 2^-60 of the kept ones
_TILE = 1 << 17             # trace-kernel block: 1 MiB of float64 terms
_NODES = 24                 # Gauss-Legendre nodes per quadrature panel
_PROBE_BLOCK = 4            # t_min probes traced per call, largest t first
_FIT_EXTRA = 5              # fitted half-power steps beyond the supplied heat powers
_LATTICE_BOX = 1 << 23      # index points _lattice_points may build (about 0.5 GB)
_EWALD_CUT = 36.0           # the split's sums keep exponents <= 36: e^-36 ~ 2.3e-16
_SETTLE_EVERY = 8           # log-series terms between tests for settled entries
_SETTLE_MIN = 256           # shorter runs are not tested: numpy's call overhead dominates
_ULP = 2.0 ** -53           # unit roundoff of binary64

__all__ = [
    "RMAX", "MellinZeta", "SpectrumStream", "ZetaFunctionData", "exact_stream",
    "merge_ties", "progression_stream", "shift_heat_powers",
    "shifted_from_base", "sqrt_stream", "zeta_data_exact", "zeta_data_lattice",
    "zeta_data_numeric",
]


def _fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


@lru_cache(maxsize=256)
def _sum_cuts(width: int) -> np.ndarray:
    """The prefix lengths p >= 8 at which a pairwise row sum of ``width``
    terms may stop, ascending and ending at ``width``: the left spine of
    numpy's summation tree (above 128 terms it splits at floor(n/2) rounded
    down to a multiple of 8) and the multiples of 8 of its leftmost leaf,
    whose eight running sums start from the row's first eight terms.  The
    sum of a prefix p is then a node of the whole row's tree, and every
    later term joins a partial sum holding one of those first eight."""
    spine = [width]
    while spine[-1] > 128:
        half = spine[-1] // 2
        spine.append(half - half % 8)
    cuts = np.array(sorted(set(range(8, spine[-1] + 1, 8)).union(spine)))
    cuts.flags.writeable = False
    return cuts


def _row_widths(rows, cols, weights=None, divide=False) -> np.ndarray:
    """The number of leading columns ``_exp_rowsum`` builds for each row: its
    exact-zero width, then cut to the shortest prefix ``_sum_cuts`` allows
    past which no term can change the row's float sum."""
    reach = _EXP_ZERO * rows if divide else _EXP_ZERO / rows
    counts = np.searchsorted(cols, reach)
    # the power of two 2^e with count - 1 < 2^e, i.e. frexp's exponent
    widths = np.where(counts > 0, np.minimum(
        np.left_shift(1, np.frexp(counts - 1)[1]), cols.size), 0)
    wide = np.nonzero(widths > 8)[0]        # their first nine columns are in reach
    if not wide.size:
        return widths
    m_lo, m_hi = (1.0, 1.0) if weights is None else (float(np.min(weights[:8])),
                                                     float(np.max(weights)))
    # -e_7 at the eighth column: the row's first eight terms stay normal numbers
    lead = cols[7] / rows[wide] if divide else cols[7] * rows[wide]
    wide = wide[lead - math.log(m_lo) <= _NORMAL_EXP]
    for width in np.unique(widths[wide]).tolist():
        group = wide[widths[wide] == width]
        # the first column j with -e_j > -e_7 + log(width m_hi / m_lo) + 60 log 2
        gap = math.log(width * m_hi / m_lo) + _SETTLED
        first = np.searchsorted(cols, cols[7] + (
            gap * rows[group] if divide else gap / rows[group]), side="right")
        cuts = _sum_cuts(width)
        widths[group] = cuts[np.searchsorted(cuts, np.minimum(first, width))]
    return widths


def _exp_rowsum(rows, cols, weights=None, *, divide=False) -> np.ndarray:
    """Row sums of weights * exp(e) over the exponents e = rows_i * (-cols_j),
    or e = (-cols_j) / rows_i with ``divide`` (a Poisson-dual branch).

    The shared kernel of every trace evaluator.  ``cols`` ascend, ``rows``
    and ``weights`` are positive, so along a row the exponents descend: a
    row builds only its leading columns with e > -_EXP_ZERO, padded to the
    next power of two W (few distinct widths, few array passes).  Every
    column skipped has exp(e) == 0.0 exactly.  Terms match a per-point loop
    over the same exponents; only the order of summation differs (numpy
    pairwise row sums).

    A row is then cut to the shortest prefix p past which no term can
    change its float sum, so its value stays bitwise that of all W
    columns.  numpy sums each contiguous row of a block as one pairwise
    tree over its W terms, and p is a point where that tree splits
    (``_sum_cuts``): the prefix's sum is one of its nodes, and each dropped
    term joins a partial sum that already holds one of the row's first
    eight terms, the least of which is at least m_lo e^(e_7) (m_lo the
    least of the first eight weights).  The dropped terms together are
    below W m_hi e^(e_p) (m_hi the largest weight), and p is taken with
    e_7 - e_p > log(W m_hi / m_lo) + 60 log 2.  So every float sum of
    dropped terms stays below 2^-60 of each partial sum it joins: under
    half an ulp, with 64 times to spare for the rounding of e and of exp,
    and each such addition rounds back to the same value.  An ulp is
    relative only for normal numbers, so a row is cut only while its first
    eight terms are: -e_7 - log(m_lo) <= _NORMAL_EXP.  A row's width
    depends on that row alone, so its value never depends on the other
    rows of the call.

    Rows of one width are evaluated in blocks of at most _TILE elements
    (a row wider than that takes a block of its own), all in one buffer
    sized for the largest block, so the working set is one tile, not the
    whole (rows x width) matrix.  Each row is still one contiguous run of
    ``width`` terms summed on its own, so every value is bitwise that of
    the one-pass form.
    """
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    op = np.divide if divide else np.multiply
    widths = _row_widths(rows, cols, weights, divide)
    neg = -cols
    out = np.zeros(rows.shape)
    sizes = np.unique(widths[widths > 0]).tolist()
    # no block exceeds the larger of _TILE and the widest row, nor the
    # one-pass matrix of all rows
    tile = np.empty(min(int(widths.sum()), max([_TILE] + sizes[-1:])))
    for width in sizes:
        group = np.nonzero(widths == width)[0]
        step = max(_TILE // width, 1)           # rows per block
        for lo in range(0, group.size, step):
            block = group[lo:lo + step]
            expo = tile[:block.size * width].reshape(block.size, width)
            op(neg[:width], rows[block, None], out=expo)
            np.exp(expo, out=expo)
            if weights is not None:
                expo *= weights[:width]
            out[block] = expo.sum(axis=1)
    return out


def merge_ties(values, mults):
    """Merge near-equal values of an ascending array, summing their mults.

    Groups form left to right: v joins the current group when
    v - g <= 1e-12 * max(1, |v|) for the group's first value g, and starts
    a new group otherwise.  So a chain of near-ties can split into several
    groups even though each step is within tolerance of its predecessor.
    The merged value is g; mults are summed exactly as long as they are
    integer-valued, as every multiplicity is.  With no ties at all, the
    input arrays come back as they are.
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
    if start.all():
        return values, mults
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


def _lattice_reach(radius: float, dual) -> list:
    """The index bounds r |s_k| over the rows s_k of ``dual`` within which
    ``_lattice_points`` finds every point of norm <= r = ``radius``, refused
    where its index box would pass _LATTICE_BOX points: plain arithmetic,
    so a caller can screen a radius before it enumerates anything."""
    # i_k = <point, s_k> for the dual vector s_k, so |i_k| <= r |s_k|
    reach = [radius * math.hypot(*row) for row in dual.tolist()]
    if math.prod(2.0 * x + 3.0 for x in reach) > _LATTICE_BOX:   # prod (2 i_k,max + 1)
        raise ValidationError(f"enumerating the lattice to radius {radius:.6g} needs over "
                              f"{_LATTICE_BOX} index points: lower nu_max or skew it less")
    return reach


def _lattice_points(basis: np.ndarray, radius: float, dual=None) -> np.ndarray:
    """Squared norms |sum_k i_k b_k|^2 <= radius^2 over nonzero integer
    vectors i, for the rows b_k of the n x n ``basis``; ``dual`` (rows the
    dual basis, inv(basis).T) is taken when not given."""
    if dual is None:
        dual = np.linalg.inv(basis.T)
    reach = _lattice_reach(radius, dual)
    # i_k b_k broadcast along axis k of the index grid, the coordinates along the last
    pts = sum(np.arange(-m, m + 1).reshape([1] * k + [-1] + [1] * (len(reach) - k)) * row
              for k, (m, row) in enumerate(zip((int(math.floor(x)) + 1 for x in reach), basis)))
    sq = np.einsum("...k,...k->...", pts, pts).ravel()
    keep = (sq > 0.0) & (sq <= radius * radius + 1e-9)
    return np.sort(sq[keep])


def _shortest_sq(basis: np.ndarray, dual=None) -> float:
    """Squared length of a shortest nonzero vector of the lattice spanned by
    ``basis``, bitwise the first value ``_lattice_points`` lists at any
    larger radius."""
    reach = 1.0001 * min(math.hypot(*row) for row in basis)
    return float(_lattice_points(basis, reach, dual)[0])


def _shortest(basis: np.ndarray, dual=None) -> float:
    """Length of a shortest nonzero vector of the lattice spanned by ``basis``."""
    return math.sqrt(_shortest_sq(basis, dual))


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


def _positive_reals(array, name: str) -> np.ndarray:
    """``array`` as 1-D floats, refused unless every entry is a finite
    positive number: one shape, dtype and value check, before any coercion
    could parse a string or count a bool.  A list that mixes bools with
    floats casts to float, so bools in non-array input are screened apart."""
    refusal = f"spectrum stream {name} must be 1-D finite positive numbers"
    try:
        arr = np.atleast_1d(np.asarray(array))
    except ValueError:              # a ragged nesting
        raise ValidationError(refusal) from None
    if not isinstance(array, np.ndarray) and any(
            np.asarray(v).dtype.kind == "b" for v in np.ravel(np.asarray(array, dtype=object))):
        raise ValidationError(refusal)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValidationError(refusal)
    return np.asarray(arr, dtype=float)


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
    """Ascending positive eigenvalues with multiplicities and an optional trace.

    heat_fn: exact trace evaluator valid for every t > 0 (overrides the
    eigenvalue sum); it takes a 1-D array of t and nothing else (``trace``
    refuses any t but finite numbers > 0) and returns an array of the same
    shape, in one array pass; heat_powers: exact leading small-t powers
    [(p, c), ...].  A stream is a listing and its trace only: a closed form
    of its values (a progression, a lattice) lives on the base that made
    both.  The counting exponent d of N(x) ~ C x^d, which the relation
    path's tail bound needs, is the rightmost pole of the continuation
    data, where ``shifted_from_base`` reads it.  Streams are shared by
    cached results, so they are read-only, their arrays included.
    """

    def __init__(self, values, mults=None, *, name: str = "",
                 heat_fn=None, heat_powers=()):
        values = _positive_reals(values, f"{name} values".lstrip())
        mults = (np.ones_like(values) if mults is None
                 else _positive_reals(mults, f"{name} mults".lstrip()))
        if values.size == 0:
            raise ValidationError("spectrum stream must not be empty")
        if mults.shape != values.shape:
            raise ValidationError(f"spectrum stream mults must match values in shape, "
                                  f"got {mults.shape} and {values.shape}")
        order = np.argsort(values, kind="stable")
        values, mults = merge_ties(values[order], mults[order])
        heat_powers = tuple((float(p), float(c)) for p, c in heat_powers)
        values.flags.writeable = False
        mults.flags.writeable = False
        for key, value in dict(values=values, mults=mults, name=name, heat_fn=heat_fn,
                               heat_powers=heat_powers).items():
            object.__setattr__(self, key, value)

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

    def shifted(self, b) -> SpectrumStream:
        """The stream x_j + b, with trace e^(-b t) Z(t) and the small-t powers
        ``shift_heat_powers`` gives; the stream itself at b = 0."""
        b, = _shifts((b,))
        if b == 0.0:
            return self
        _check_shift(b, self.min_value)
        f = self.heat_fn
        return SpectrumStream(
            self.values + b, self.mults, name=f"{self.name}+{b:g}",
            heat_fn=None if f is None else lambda t: np.exp(-b * np.asarray(t)) * f(t),
            heat_powers=shift_heat_powers(self.heat_powers, b))

    def trace(self, t) -> np.ndarray:
        """Z(t) = sum m_j exp(-x_j t) for a 1-D array of t, in one array pass
        (the attached heat_fn, else row sums of the eigenvalue terms).  A t
        that is not a finite number > 0 is refused, naming the stream and the
        first such t."""
        # other input is screened entry by entry: a float cast would parse a
        # string and count a bool
        numeric = isinstance(t, np.ndarray) and t.dtype.kind in "iuf"
        t = np.atleast_1d(np.asarray(t, dtype=float if numeric else object))
        for v in (t[~(np.isfinite(t) & (t > 0.0))] if numeric else t.ravel()).tolist():
            try:
                positive(v, "t")
            except ValidationError:
                raise ValidationError(f"spectrum stream {self.name!r} traces finite t > 0 "
                                      f"only, got t = {v!r}") from None
        t = np.asarray(t, dtype=float)
        if self.heat_fn is not None:
            return np.asarray(self.heat_fn(t), dtype=float)
        return _exp_rowsum(t, self.values, self.mults)


def exact_stream(values, mults, t_switch: float, small, **fields) -> SpectrumStream:
    """A stream with an exact heat_fn(t), the form of every flat-torus theta
    trace: the sum over the stream's own frozen listing (held once) for t >=
    t_switch, and the closed form ``small`` below it, called with the 1-D
    array of those points (possibly empty)."""
    def heat_fn(t):
        out = np.empty_like(t)
        direct = t >= t_switch
        out[direct] = _exp_rowsum(t[direct], *listing)
        out[~direct] = small(t[~direct])
        return out

    stream = SpectrumStream(values, mults, heat_fn=heat_fn, **fields)
    listing = stream.values, stream.mults     # not the stream: no reference cycle
    return stream


def progression_stream(c: float, m: int, count: int) -> SpectrumStream:
    """Materialized arithmetic progression {c k}_{k=1..count} with mult m.

    The geometric closed form m/(e^(c t)-1) of the trace and its exact
    Bernoulli small-t powers ride along, so the numeric engine can be held to
    the closed-form answers at full precision.
    """
    c, m, count = positive(c, "c"), integer(m, "m", 1), integer(count, "count", 1)
    k = np.arange(1, count + 1, dtype=float)
    # 1/(e^(ct)-1) = 1/(ct) - 1/2 + ct/12 - (ct)^3/720 + (ct)^5/30240 - ...
    powers = ((-1.0, m / c), (0.0, -m / 2.0), (1.0, m * c / 12.0),
              (3.0, -m * c ** 3 / 720.0), (5.0, m * c ** 5 / 30240.0),
              (7.0, -m * c ** 7 / 1209600.0))
    return SpectrumStream(c * k, m * np.ones_like(k), name=f"progression({c},{m})",
                          heat_fn=lambda t: m / np.expm1(c * t), heat_powers=powers)


def _beyond_cut(alpha: float, span: float, density: float, lift: float) -> float:
    """Bound on sum e^-x / (x - lift) over the lattice points with x past
    _EWALD_CUT, where x <= X puts a point within r = sqrt(alpha X): their
    cells (area 1/density, diameter <= ``span``, the basis length sum) lie
    within r + span, so at most 2 pi density (alpha X + span^2) of them."""
    q = math.exp(-1.0)
    shells = (span * span + alpha * (_EWALD_CUT + 1.0)) / (1.0 - q) + alpha * q / (1.0 - q) ** 2
    return 2.0 * math.pi * density * shells * math.exp(-_EWALD_CUT) / (_EWALD_CUT - lift)


def zeta_data_lattice(lattice, a: float, pole_range: int = RMAX) -> ZetaFunctionData:
    """Frequency-side data of nu = sqrt(eta + a^2) over a flat 2-torus
    degree, in closed form: Ewald's split of its theta function (P. P.
    Ewald, Ann. Phys. 1921; K. Kirsten, Spectral Functions in Mathematics
    and Physics, 2002, ch. 4).

    The degree's lattice record (``BaseManifold.lattice(k)``: c, the bases
    of L and L*, covol(L) and the t^-1 heat coefficient A = covol(L)/(4 pi
    c^2), none of which builds the degree's listing) fixes zeta_Q(w) =
    sum (eta + a^2)^(-w) = F(w)/Gamma(w), F the Mellin transform of e^(-a^2 t) Z(t), Z(t) = A/t (1 + sum_v
    e^(-b_v/t)) - 1, b_v = |v|^2/(4 c^2) over the nonzero v in L.  Split at
    t0 = A (1/a^2 where a^2 A > 1, keeping y = a^2 t0 <= 1; no torus the
    cone solves gets there), with E_p from ``specfun.expint_ladder``,

        F(w) = t0^w sum_mu E_(1-w)((eta_mu + a^2) t0)            (t > t0)
             + A t0^(w-1) sum_k ((-y)^k/k!) [sum_v E_(w+k)(b_v/t0) + 1/(w+k-1)]
             - t0^w sum_k ((-y)^k/k!) / (w+k)                    (t < t0).

    The poles at w = 0 and 1 leave log t0 in the finite parts: zeta_Q(0) =
    -A a^2 - 1, zeta_Q'(0) = F_0 - gamma (1 + A a^2), and the pole at w = 1
    has residue A and finite part F_1 + gamma A.  Then deriv0 = zeta_Q'(0)/2,
    residues[i] = 2 Res_Q(i/2) and pp[i] = PP_Q(i/2), i = 1..pole_range.  At
    t0 = A both sides' exponents are pi |u|^2 over lattices of unit
    covolume, so the cut at _EWALD_CUT keeps the same terms at every c.  The
    bounds cover the points past the cut, the a^2 series past 2^-60,
    EXPINT_REL, each exponent's rounding (|x E_p'(x)| <= (x + |p| + 2) E_p),
    the sums and the combination: ``error_estimate`` bounds deriv0, zeta0
    and the residues, ``pp_errors[i]`` bounds pp[i].
    """
    if not isinstance(lattice, _Lattice):
        what = (f"spectrum stream {lattice.name!r}" if isinstance(lattice, SpectrumStream)
                else repr(lattice))
        raise ValidationError(f"{what} is not a flat-torus lattice record")
    a = abs(number(a, "a", "a finite nonzero real", lambda x: math.isfinite(x) and x != 0.0))
    pole_range = integer(pole_range, "pole_range", 0, RMAX)
    return _ewald_split(lattice, a, pole_range, min(lattice.lead, 1.0 / (a * a)))


def _ewald_split(lattice, a: float, pole_range: int, t0: float) -> ZetaFunctionData:
    """``zeta_data_lattice`` split at t0."""
    c, basis, dual, lead = lattice.c, lattice.basis, lattice.dual, lattice.lead
    a2, k2, v2 = a * a, 4.0 * math.pi ** 2 * c * c, 4.0 * c * c * t0   # eta = k2 |mu|^2
    y, ratio, cut = a2 * t0, lead / t0, _EWALD_CUT
    # the exponents (eta_mu + a^2) t0 and b_v / t0 up to the cut, equal ones merged
    (freq, f_counts), (pois, p_counts) = [(list(m), np.array(list(m.values()), float)) for m in (
        Counter((k2 * t0 * _lattice_points(dual, math.sqrt(max(cut / t0 - a2, 0.0) / k2), basis)
                 + a2 * t0).tolist()),
        Counter((_lattice_points(basis, math.sqrt(v2 * cut), dual) / v2).tolist()))]
    coeffs = [1.0]                          # (-y)^k / k!
    while len(coeffs) < 3 or abs(coeffs[-1]) > 2.0 ** -60:
        coeffs.append(coeffs[-1] * -y / len(coeffs))
    kk, nf, nw = len(coeffs) - 1, len(freq), pole_range + 1
    # the frequency side reads the orders 1 - w, the Poisson side w + k
    low, top = min(math.floor(1.0 - 0.5 * pole_range), 0), math.ceil(0.5 * pole_range) + kk
    rows = expint_ladder(freq + pois, [low] * nf + [0] * len(pois), [1] * nf + [top] * len(pois))
    # per order and side: the sums of E and of x E over the points
    (f_sum, f_xsum), (p_sum, p_xsum) = [
        (table.sum(axis=0), (table * np.array(x)[:, None]).sum(axis=0))
        for table, x in ((np.array(rows[:nf]) * f_counts[:, None], freq),
                         (np.array(rows[nf:]) * p_counts[:, None], pois))]
    ck = np.array(coeffs)
    wk = 0.5 * np.arange(-2.0, nw)[:, None] + np.arange(kk + 1.0)    # v + k, v = -1 .. w_max
    # H(v) = sum_k c_k / (v + k) without its pole: A/t - 1 gives ratio H(w - 1) - H(w)
    inv = np.divide(ck, wk, out=np.zeros(wk.shape), where=wk != 0.0)
    tw = np.array([t0 ** (0.5 * i) for i in range(nw)])
    logs = np.zeros(nw)     # the poles' t0^(w-w0) / (w-w0) and 1/Gamma(w) at w = 0 and 1
    logs[0] = -(1.0 + lead * a2) * (math.log(t0) + EULER_GAMMA)
    logs[2:3] = lead * (math.log(t0) + EULER_GAMMA)
    f_side = f_sum[2 - 2 * low::-1][:nw]                            # order 1 - w
    parts = np.array([tw * f_side, ratio * tw * (p_sum[(2 * wk[2:]).astype(int)] * ck).sum(axis=1),
                      tw * (ratio * inv[:nw].sum(axis=1) - inv[2:].sum(axis=1)), logs])
    f_vals = parts.sum(axis=0).tolist()

    # bounds on F(w); E_p(x) and x E_p(x) fall with p, so S(w + k) <= S(w) and
    # sum_k |c_k| <= e^y bound the Poisson side
    grow, covol = math.exp(y), lattice.covol
    kappa = sum(math.hypot(*b) * math.hypot(*s) for b, s in zip(basis, dual))
    orders = np.abs(low + 0.5 * np.arange(f_sum.size)) + 2.0
    mags = tw * (f_side + ratio * grow * p_sum[:nw])
    sens = tw * ((f_xsum + orders * f_sum)[2 - 2 * low::-1][:nw]
                 + ratio * grow * (p_xsum[:nw] + (0.5 * np.arange(nw) + kk + 2.0) * p_sum[:nw]))
    past = (_beyond_cut(1.0 / (t0 * k2), sum(map(math.hypot, *dual.T)), covol,
                        max(0.5 * pole_range - 1.0, 0.0))
            + ratio * grow * _beyond_cut(v2, sum(map(math.hypot, *basis.T)), 1.0 / covol, 0.0)
            + abs(coeffs[-1]) * y / (kk + 1.0) * grow * (ratio * (p_sum[0] + 1.0) + 1.0))
    depth = 16.0 + max(len(pois), nf) + kk  # point sums run in turn, then the k-sums
    f_errs = ((EXPINT_REL + depth * _ULP) * mags + (6.0 * kappa + 12.0) * _ULP * sens
              + 8.0 * _ULP * (np.abs(parts).sum(axis=0) + tw * (
                  ratio * np.abs(inv[:nw]).sum(axis=1) + np.abs(inv[2:]).sum(axis=1)))
              + tw * past).tolist()

    pp = {i: f_vals[i] / math.gamma(0.5 * i) for i in range(1, nw)}
    pp_errors = {i: f_errs[i] / math.gamma(0.5 * i) + 4.0 * _ULP * abs(pp[i]) for i in pp}
    zeta0 = -lead * a2 - 1.0
    err = max(0.5 * f_errs[0] + 4 * _ULP * abs(f_vals[0]), 8 * _ULP * (abs(zeta0) + 2 * lead))
    return ZetaFunctionData(deriv0=0.5 * f_vals[0], residues={i: 2.0 * lead if i == 2 else 0.0
                                                              for i in pp},
                            pp=pp, error_estimate=err, zeta0=zeta0, pp_errors=pp_errors)


# ---------------------------------------------------------------------------
# quadrature grid

@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], built once per node count (read-only).
    ``numpy.polynomial`` loads here: exact- and lattice-route solves build no
    quadrature and never load it."""
    from numpy.polynomial.legendre import leggauss
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
    # every panel in one array pass: row i holds panel i's nodes
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    e = np.exp(0.5 * (hi + lo) + half * x)
    return e.ravel(), (w * half * e).ravel()   # dt = e^u du


class MellinZeta(ReadOnly):
    """Continuation engine for one stream (see module docstring).

    Heat powers used for H(t): the stream's exact powers (its only source),
    extended by _FIT_EXTRA fitted half-power steps when no exact trace
    evaluator exists.  Every grid the engine reads is traced in one call
    once t_min and T are fixed; only the fit's refit window takes a second.
    Engines are kept by cached records, so they are read-only, their powers
    a tuple and their grid arrays included.
    """

    def __init__(self, stream: SpectrumStream, *, s_max: float = 1.0):
        def put(name, value):
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            object.__setattr__(self, name, value)

        put("stream", stream)
        powers = sorted(stream.heat_powers)
        if stream.heat_fn is None:
            put("t_min", stream.t_floor())
            hi, tw = self._fit_window()
        else:
            put("t_min", self._choose_t_min(powers))
            tw = np.empty(0)

        # every grid read below, traced in one call (a point's trace does not
        # depend on its batch): the fit window, the quadrature grids, their
        # coarse error probes and T; T adapted to the largest Mellin power
        T = max((_EXP_CUTOFF + 3.4 * max(s_max - 1.0, 0.0)) / stream.min_value, 1.5)
        ts, ws = _log_panels(self.t_min, 1.0, _NODES)
        tl, wl = _log_panels(1.0, T, _NODES, per_decade=3)
        ts2, ws2 = _log_panels(self.t_min, 1.0, _NODES // 2 + 2)
        tl2, wl2 = _log_panels(1.0, T, _NODES // 2 + 2, per_decade=3)
        grids = (tw, ts, tl, ts2, tl2, np.array([T]))
        z = stream.trace(np.concatenate(grids))
        z.flags.writeable = False
        zw, zs, zl, zs2, zl2, zT = np.split(z, np.cumsum([g.size for g in grids[:-1]]))
        fitted, note = (self._fit_heat_powers(powers, hi, tw, zw) if stream.heat_fn is None
                        else (powers, 0.0))
        put("powers", tuple(fitted))
        put("_fit_note", note)
        for name, value in (("_ts", ts), ("_ws", ws), ("_tl", tl), ("_wl", wl), ("_T", T),
                            ("_zs", zs), ("_zl", zl), ("_hs", _heat_eval(ts, self.powers)),
                            ("_probe", (ts2, ws2, zs2 - _heat_eval(ts2, self.powers),
                                        tl2, wl2, zl2)), ("_zT", float(zT[0]))):
            put(name, value)

    # -- heat model -------------------------------------------------------
    def _choose_t_min(self, powers) -> float:
        """Largest t at which Z - H, H the exact ``powers``, has already
        collapsed to rounding noise.

        Below that point the subtracted integrand is pure cancellation noise
        (|Z| ~ c t^p_min against an equal H), so integrating deeper only
        accumulates roundoff; above it the heat model is incomplete.  The
        sub-t_min remainder this leaves behind is covered by error_estimate.

        The probes t = 0.25 * 2^-k, k = 0..21, are traced in descending
        blocks of _PROBE_BLOCK, stopping at the first block with a passing
        probe, so no probe below that block is traced.  A point's trace does
        not depend on its batch, so the chosen probe is the one a single
        all-probes call picks; when none passes, the one with the smallest
        ratio.
        """
        probes = 0.25 * 2.0 ** -np.arange(0, 22, dtype=float)
        ratios = []
        for lo in range(0, probes.size, _PROBE_BLOCK):
            block = probes[lo:lo + _PROBE_BLOCK]
            z = self.stream.trace(block)
            ratio = np.abs(z - _heat_eval(block, powers)) / np.maximum(np.abs(z), 1e-300)
            ok = np.nonzero(ratio <= 1e-13)[0]
            if ok.size:
                return float(block[ok[0]])
            ratios.append(ratio)
        return float(probes[int(np.argmin(np.concatenate(ratios)))])

    def _fit_window(self):
        """(hi, t): the heat fit's window [t_min, hi] and its 160 log-spaced
        points, refused before anything is traced when the listing is short."""
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
        return hi, np.exp(np.linspace(math.log(lo), math.log(hi), 160))

    def _fit_heat_powers(self, supplied, hi, tw, zw):
        """(powers, bias note): the supplied powers extended by least squares
        on the window ``tw`` up to ``hi`` with its traces ``zw``, the supplied
        leading coefficient cross-checked."""
        lo = self.t_min
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
                      if c != 0.0 and p != skip])      # a zero term has no pole

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
        m = round(-w)
        if w < 0.0 and abs(w + m) < 1e-12:     # negative integer: Gamma pole
            sign = 1.0 if m % 2 == 0 else -1.0
            return sign * math.gamma(m + 1.0) * self.coefficient(float(m))
        if self.coefficient(-w) != 0.0:
            hint = "; use residue/pp" if w > 0.0 else ""
            raise ValidationError(f"zeta has a pole at s={w}{hint}")
        if w > 0.0:
            return self.pp(w)
        num = self.integral(w) + self._pole_sum(w)
        # reciprocal Gamma via reflection keeps negative w honest
        from .specfun import sinpi
        inv_gamma = sinpi(w) / math.pi * math.exp(ln_gamma(1.0 - w))
        return num * inv_gamma

    def deriv0_shifted(self, alpha: float) -> float:
        """zeta'(0, alpha) by the direct route: trace e^(-alpha t) Z(t)."""
        a, = _shifts((alpha,))
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
        """Quadrature, small-t, large-t and heat-fit error of the integrals
        at the Mellin powers ``s_list``, from the traces taken at build: the
        quadrature error is the gap to the same sums on the coarse grids."""
        quad = max(abs(self.integral(s) - _grid_sum(s, *self._probe)) for s in s_list)
        pnext = max(p for p, _ in self.powers) + 0.5
        win = self._ts <= self.t_min * 16.0
        resid = self._zs[win] - self._hs[win]
        cnext = float(np.max(np.abs(resid) / self._ts[win] ** pnext)) if np.any(win) else 0.0
        s_lo = min(s_list)
        smalltail = cnext * self.t_min ** (pnext + s_lo) / max(pnext + s_lo, 0.5)
        bigtail = self._zT * self._T ** (max(s_list) - 1.0) / self.stream.min_value
        return quad + smalltail + bigtail + self._fit_note


def zeta_data_numeric(stream: SpectrumStream, alphas=(), pole_range: int = 1,
                      target_tol: float | None = None) -> ZetaFunctionData:
    """Full continuation data by the numeric Mellin-split route."""
    pole_range = integer(pole_range, "pole_range", 0, RMAX)
    alphas = _shifts(alphas)
    eng = MellinZeta(stream, s_max=float(max(pole_range, 1)))
    poles = range(1, pole_range + 1)
    err = eng.error_estimate([0.0] + [float(i) for i in poles])
    if target_tol is not None and err > target_tol:
        raise ConvergenceError(
            f"insufficient spectrum: estimated error {err:.3e} "
            f"exceeds the target {target_tol:.3e}")
    return ZetaFunctionData(
        deriv0=eng.deriv0(),
        deriv0_shifted={a: eng.deriv0_shifted(a) for a in alphas},
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


def _pow17(w: np.ndarray) -> np.ndarray:
    """w^17 = w^(RMAX+1) as (((w^2)^2)^2)^2 w: five exactly rounded products,
    within 16 * 2^-53 of w^17 where that is normal, and exactly odd in w."""
    return np.square(np.square(np.square(np.square(w)))) * w


def _log_series_tail(w: np.ndarray):
    """The tails sum_{r=R+1}^{R+60} (-1)^r w^r / r at w and at -w, for each
    w of an array whose |w| descend and stay below 1, built termwise in r
    order (R = RMAX).

    From w^17 (``_pow17``) on, each step is an exactly rounded + - * /,
    which no SIMD kernel changes and which commutes with negation: the two
    tails share each power and quotient, the alternating sum giving the
    tail at w and the plain sum that at -w, each bitwise its own full run.

    Every _SETTLE_EVERY terms, while at least _SETTLE_MIN entries run, the
    run shrinks to the prefix that ends at the last entry whose latest term
    exceeds 2^-55 of one of its two partial sums.  The later terms of an
    entry past it are no larger (|w| < 1, and rounding is monotone), so they
    stay under half the float spacing around each sum and adding them could
    not change it: each entry keeps the value of the full 60-term run.
    """
    wr = _pow17(w)
    tail, twin = np.zeros_like(w), np.zeros_like(w)
    term, live = np.empty_like(w), len(w)
    for lo in range(RMAX + 1, RMAX + 61, _SETTLE_EVERY):
        wv, wrv, tv, sv, pv = w[:live], wr[:live], term[:live], tail[:live], twin[:live]
        for r in range(lo, min(lo + _SETTLE_EVERY, RMAX + 61)):
            np.divide(wrv, float(r), out=tv)    # (-1)^r w^r / r, its sign applied below
            if r % 2:
                sv -= tv
            else:
                sv += tv
            pv += tv
            wrv *= wv
        if live >= _SETTLE_MIN:
            # 2^55 |term| (in place: the next term overwrites it) is exact, so
            # the test is exact for subnormal sums too
            np.abs(tv, out=tv)
            tv *= 2.0 ** 55
            moving = np.nonzero(tv > np.minimum(np.abs(sv), np.abs(pv)))[0]
            live = int(moving[-1]) + 1 if moving.size else 0
    return tail, twin


@lru_cache(maxsize=None)
def _gamma_psi(i: int) -> float:
    """gamma + psi(i) of the relation path's brackets, made once per i."""
    return EULER_GAMMA + digamma(float(i))


def shifted_from_base(stream: SpectrumStream, base: ZetaFunctionData, alpha: float):
    """zeta'(0, +-alpha) through the subtracted-logarithm relation.

    K(alpha) = sum_j m_j [ -log(1 + a/x_j) + sum_{r<=R} (-1)^(r+1) (a/x_j)^r / r ]
    is an absolutely convergent lattice sum (each term is the tail of the log
    series, summed directly to avoid cancellation), and

    zeta'(0,a) = zeta'(0) + K(a)
                 - sum_{i=1..R} (-1)^(i+1) (a^i/i) [Res(i)(gamma + psi(i)) + PP(i)]

    with R = RMAX (PP(i) is the plain value zeta(i) where Res(i) = 0).

    Returns {alpha: (value, error_estimate), -alpha: (...)}, or {0.0: ...}
    at a zero shift: both shifts from one pass of the log-series tails
    (``_log_series_tail``: + - * / alone, each power and quotient shared), so
    each is bitwise the same entry of the call at the other sign.  Only
    alpha is screened: |alpha| below 3/4 of the smallest eigenvalue keeps
    -alpha in range too.  The estimate covers the data's own
    (``error_estimate`` plus |a|^i/i times each ``pp_errors`` entry), the
    series tail and the stream tail beyond its truncation radius; it depends
    on |alpha| alone.  The tail term takes the counting exponent d of
    N(x) ~ C x^d as the rightmost pole of the data, the largest i with
    Res(i) != 0 (the Weyl exponent), and is 0 when the data has no pole.
    """
    a, = _shifts((alpha,))
    if a == 0.0:
        return {a: (base.deriv0, base.error_estimate)}
    _check_shift(a, stream.min_value)
    w = a / stream.values
    if np.max(np.abs(w)) >= 0.75:
        raise ValidationError("relation path needs |alpha| < 3/4 of the smallest eigenvalue")

    brackets = []
    for i in range(1, RMAX + 1):
        res_i = base.residues.get(i, 0.0)
        if res_i != 0.0:
            bracket = res_i * _gamma_psi(i) + base.pp[i]
        else:
            bracket = base.pp.get(i)
            if bracket is None:
                raise ValidationError(f"relation path needs zeta({i}) in the base data")
        brackets.append((1.0 if i % 2 == 1 else -1.0, i, bracket))

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
    data_err = base.error_estimate
    if base.pp_errors:
        data_err += _fsum([abs(a) ** i / i * e for i, e in base.pp_errors.items()])
    err = data_err + series_rem + tail_est
    return {s: (base.deriv0 + _fsum(stream.mults * tail)
                - _fsum([sign * s ** i / i * bracket for sign, i, bracket in brackets]), err)
            for s, tail in zip((a, -a), _log_series_tail(w))}


def sqrt_stream(values, mults, name: str) -> SpectrumStream:
    """The frequency listing sqrt(x_j), mults m_j, named sqrt(``name``), of
    a squared listing x_j: a plain stream, traced by its eigenvalue sum."""
    return SpectrumStream(np.sqrt(values), mults, name=f"sqrt({name})")
