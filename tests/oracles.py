"""Independent slow oracles for the test suite, built on mpmath.

Everything here is computed at 30 significant digits and converted to float
at the end, so oracle error is far below every tolerance used in the tests.
``flat_torus_zeta_prime0`` is Kronecker's first limit formula, through
mpmath's Dedekind eta product.  The exceptions are ``series_log``, an exact reference in the polynomials'
own Fraction arithmetic, the float reference formulas ``recombined``,
``t_half_integer`` and ``weyl_count_ratio``, the exact round-sphere
and RP^3 listings of ``round_sphere_mapping`` and ``rp3_mapping``, the
alpha degree of an expansion polynomial, and the per-element loops ``merge_ties``,
``custom_mapping``, ``duals_written_out``, ``columnar`` and ``log_panels``, the all-probes ``t_min_probes``,
the full 60-term ``log_series_tail`` and the summation-order model ``pairwise_sum``,
bitwise references for the array passes of the package.  The Bessel-zero
oracles are memoized: tests ask for the same (nu, k) pair many times.  The
package under test never imports this module.
"""

import copy
import decimal
import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 30
with mp.workdps(90):
    _DEC_PI, _DEC_EULER = (decimal.Decimal(mp.nstr(v, 85)) for v in (mp.pi, mp.euler))


def lngamma(x: float) -> float:
    return float(mp.loggamma(mp.mpf(x)))


def digamma(x: float) -> float:
    return float(mp.digamma(mp.mpf(x)))


def besselj(nu: float, x: float) -> float:
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


def besselj_prime(nu: float, x: float) -> float:
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x), derivative=1))


def log_besseli(nu: float, x: float, alpha: float | None = None) -> float:
    """log I_nu(x), or log(alpha I_nu(x) + x I_nu'(x)) given alpha."""
    nu, x = mp.mpf(nu), mp.mpf(x)
    val = mp.besseli(nu, x)
    if alpha is not None:
        val = mp.mpf(alpha) * val + x * mp.besseli(nu, x, derivative=1)
    return float(mp.log(val))


@functools.lru_cache(maxsize=None)
def j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu."""
    return float(mp.besseljzero(mp.mpf(nu), k))


@functools.lru_cache(maxsize=None)
def jprime_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu'.

    mpmath counts the stationary point x = 0 of J_0' as its first zero, so
    the order-zero request is shifted by one index.
    """
    if nu == 0.0:
        return float(mp.besseljzero(mp.mpf(0), k + 1, derivative=1))
    return float(mp.besseljzero(mp.mpf(nu), k, derivative=1))


def mixed_zero_refine(nu: float, alpha: float, guess: float) -> float:
    """Root of alpha*J_nu(z) + z*J_nu'(z) near ``guess`` at 30 digits."""
    nu_, a_ = mp.mpf(nu), mp.mpf(alpha)

    def f(z):
        return a_ * mp.besselj(nu_, z) + z * mp.besselj(nu_, z, derivative=1)

    return float(mp.findroot(f, mp.mpf(guess)))


def riemann_zeta(s: float) -> float:
    return float(mp.zeta(mp.mpf(s)))


def riemann_zeta_prime(s: float) -> float:
    return float(mp.zeta(mp.mpf(s), 1, 1))


def hurwitz_zeta(s: float, a: float) -> float:
    return float(mp.zeta(mp.mpf(s), mp.mpf(a)))


def hurwitz_zeta_sderiv(s: float, a: float) -> float:
    """d/ds zeta_H(s, a), via mpmath's exact derivative path."""
    return float(mp.zeta(mp.mpf(s), mp.mpf(a), 1))


def hurwitz_zeta_prime0(a: float) -> float:
    """zeta_H'(0, a) = log Gamma(a) - log(2 pi)/2 (Lerch's formula)."""
    return float(mp.loggamma(mp.mpf(a)) - mp.log(2 * mp.pi) / 2)


EULER_GAMMA = float(mp.euler)
LOG_2 = float(mp.log(2))
LOG_2PI = float(mp.log(2 * mp.pi))


def series_log(elems: list, zero) -> list:
    """Coefficientwise log of a 1/nu power series with unit constant term,
    by the plain power series log(1 + w) = sum_m (-1)^(m+1) w^m / m.

    ``elems[r]`` is the order-r coefficient (elems[0] is the unit), an
    ``exactpoly.Polynomial``; returns the log-series coefficients to the same
    truncation order.
    """
    order = len(elems) - 1
    w = [zero] + list(elems[1:])                # the series minus 1
    out = [zero] * (order + 1)
    power = list(w)                              # w^m, currently m=1
    for m in range(1, order + 1):
        sign = Fraction(1 if m % 2 == 1 else -1, m)
        for r in range(m, order + 1):
            out[r] = out[r] + power[r].scale(sign)
        if m < order:
            nxt = [zero] * (order + 1)
            for i in range(1, order + 1):       # w has no constant term
                if not power[i].terms:
                    continue
                for j in range(1, order + 1 - i):
                    nxt[i + j] = nxt[i + j] + power[i] * w[j]
            power = nxt
    return out


def recombined(breakdown) -> float:
    """harmonic_term + sum_k weight_k * zeta_k_prime0_k of a
    ``TorsionBreakdown``: the invariant its log_torsion must satisfy."""
    return breakdown.harmonic_term + math.fsum(
        entry["weight"] * entry["zeta_k_prime0"]
        for entry in breakdown.per_degree.values())


def alpha_degree(poly) -> int:
    """Degree in alpha of an ``exactpoly.Polynomial`` (-1 for the zero polynomial)."""
    return max((j for _, j in poly.terms), default=-1)


def t_half_integer(k: int) -> float:
    """Closed-form -zeta'(0) of L_{k+1/2}(inf): log 2 - sum log(2l+1).

    The half-integer Dirichlet family evaluates in elementary terms; it
    is exactly what the harmonic sector consumes.
    """
    return LOG_2 - math.fsum(math.log(2 * l + 1) for l in range(k + 1))


def weyl_count_ratio(stream) -> float:
    """|N(x_max) / Weyl prediction - 1| from the leading heat power.

    Z(t) ~ c t^p (p < 0) corresponds to N(x) ~ c x^(-p) / Gamma(1 - p)
    (Karamata); a ratio far from 0 flags inconsistent spectrum/heat data.
    """
    p, c = min(stream.heat_powers, key=lambda pc: pc[0])
    if p >= 0 or c <= 0:
        raise ValueError("leading heat power must be c t^p with p < 0, c > 0")
    predicted = c * stream.max_value ** (-p) / math.exp(lngamma(1.0 - p))
    return abs(stream.total_count() / predicted - 1.0)


def flat_torus_zeta_prime0(basis, c: float) -> float:
    """zeta'(0) of the nonzero Laplace spectrum {4 pi^2 c^2 |mu|^2} of R^2/L,
    mu over the dual lattice L* (L spanned by the rows of ``basis``), by
    Kronecker's first limit formula (Osgood-Phillips-Sarnak, J. Funct.
    Anal. 80, 1988): with the dual basis rows read as complex numbers w1, w2
    and tau = w2/w1 in the upper half-plane,
        zeta'(0) = log(4 pi^2 c^2) + 2 log|w1| - log(4 pi^2 |eta(tau)|^4),
    eta the Dedekind eta function; zeta(0) = -1.
    """
    dual = mp.inverse(mp.matrix([[mp.mpf(float(x)) for x in row] for row in basis])).T
    w1, w2 = (mp.mpc(dual[i, 0], dual[i, 1]) for i in range(2))
    tau = w2 / w1
    if tau.imag < 0:
        tau = mp.conj(tau)
    eta = mp.exp(2j * mp.pi * tau / 24) * mp.qp(mp.exp(2j * mp.pi * tau))
    four_pi2 = 4 * mp.pi ** 2
    return float(mp.log(four_pi2 * mp.mpf(c) ** 2) + 2 * mp.log(abs(w1))
                 - mp.log(four_pi2 * abs(eta) ** 4))


def merge_ties(values, mults):
    """Reference tie merge: one pass over an ascending array, comparing
    each value with the first value g of the current group and joining it
    when v - g <= 1e-12 * max(1, |v|); mults are summed in input order."""
    values = np.asarray(values, dtype=float)
    mults = np.asarray(mults, dtype=float)
    if values.size == 0:
        return values, mults
    out_v, out_m = [values[0]], [mults[0]]
    for v, m in zip(values[1:], mults[1:]):
        if v - out_v[-1] <= 1e-12 * max(1.0, abs(v)):
            out_m[-1] += m
        else:
            out_v.append(v)
            out_m.append(m)
    return np.array(out_v), np.array(out_m)


def custom_mapping(base) -> dict:
    """Reference export of a base in the custom schema, entry by entry; a
    degree that holds the stream of its lower Hodge dual n-1-k is left out."""
    degrees = []
    for k in base.degrees_available():
        deg = base.coclosed_spectrum(k)
        dual = base.dim - 1 - k
        if dual < k and dual in base.degrees_available() and base.coclosed_spectrum(dual) is deg:
            continue
        coeffs = [0.0] * (int(round(2.0 * max(p for p, _ in deg.heat_powers)
                                    + base.dim)) + 1)
        for p, c in deg.heat_powers:
            coeffs[int(round(2.0 * p + base.dim))] = float(c)
        degrees.append({
            "k": int(k),
            "eigenvalues": [{"value": float(v), "mult": int(round(m))}
                            for v, m in zip(deg.values, deg.mults)],
            "heat_coeffs": coeffs,
        })
    return {
        "dim": base.dim,
        "betti": list(base.betti),
        "scale": base.scale,
        "orientable": True,
        "degrees": degrees,
        "truncation_note": base.truncation_note
            or f"finite listing exported from {base.name}",
    }


def duals_written_out(blob) -> dict:
    """A custom blob with every Hodge pair written out: each degree k in
    0..n-1 whose dual n-1-k is not listed gains that degree, a copy of k's
    entry under the dual's number.  On a ``torus2`` export this is the
    two-degree form that lists the one spectrum as degrees 0 and 1."""
    out = copy.deepcopy(blob)
    dim, listed = out["dim"], {entry["k"] for entry in out["degrees"]}
    out["degrees"] += [{**copy.deepcopy(entry), "k": dim - 1 - entry["k"]}
                       for entry in out["degrees"] if dim - 1 - entry["k"] not in listed]
    out["degrees"].sort(key=lambda entry: entry["k"])
    return out


def columnar(blob) -> dict:
    """The columnar twin of a row-form custom blob: each degree's
    ``eigenvalues`` entries moved, one at a time, into ``values`` and
    ``mults`` lists.  A field an entry lacks is left out of its column, and
    an entry that is not an object goes into both."""
    out = copy.deepcopy(blob)
    for j, entry in enumerate(out["degrees"]):
        values, mults = [], []
        for item in entry.pop("eigenvalues"):
            if not isinstance(item, dict):
                values.append(item)
                mults.append(item)
                continue
            if "value" in item:
                values.append(item["value"])
            if "mult" in item:
                mults.append(item["mult"])
        rest = {key: v for key, v in entry.items() if key != "k"}
        out["degrees"][j] = {"k": entry["k"], "values": values, "mults": mults, **rest}
    return out


def log_panels(a: float, b: float, nodes: int, per_decade: int = 1):
    """Reference log-axis Gauss-Legendre grid, one panel at a time: (t, w)
    with int_a^b f(t) dt = sum w f(t)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
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


def t_min_probes(trace, powers):
    """Reference t_min choice, every probe t = 0.25 * 2^-k (k = 0..21) traced
    in one call: (t_min, ratios), t_min the largest probe whose
    |Z - H| / |Z| is at most 1e-13, else the probe of the smallest ratio."""
    probes = 0.25 * 2.0 ** -np.arange(0, 22, dtype=float)
    z = trace(probes)
    h = np.zeros_like(probes)
    for p, c in powers:
        h += c * probes ** p
    ratio = np.abs(z - h) / np.maximum(np.abs(z), 1e-300)
    ok = np.nonzero(ratio <= 1e-13)[0]
    return float(probes[ok[0] if ok.size else int(np.argmin(ratio))]), ratio



def log_series_tail(w):
    """Reference tail sum_{r=R+1}^{R+60} (-1)^r w^r / r of the relation path
    (R = RMAX = 16), every one of the 60 terms added to every entry."""
    tail = np.zeros_like(w)
    wr = w ** 17
    for r in range(17, 77):
        sign = 1.0 if r % 2 == 0 else -1.0
        tail += sign * wr / r
        wr = wr * w
    return tail


def pairwise_sum(row) -> float:
    """numpy's float64 row sum, term by term in Python: below 8 terms a plain
    left-to-right sum; up to 128, eight running sums over the terms i mod 8,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    terms past the last multiple of 8 added in turn; above 128, the sums of
    the first n2 and the last n - n2 terms, n2 = floor(n/2) rounded down to a
    multiple of 8."""
    row = [float(x) for x in row]
    n = len(row)
    if n < 8:
        res = 0.0
        for x in row:
            res += x
        return res
    if n <= 128:
        r = row[:8]
        body = n - n % 8
        for i in range(8, body, 8):
            for j in range(8):
                r[j] += row[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in row[body:]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise_sum(row[:n2]) + pairwise_sum(row[n2:])

# ---------------------------------------------------------------------------
# round spheres: coexact spectra and exact continuation data

_SQRT_PI = math.sqrt(math.pi)


def _degree(k: int, rows, heat_coeffs) -> dict:
    return {"k": k, "values": [float(v) for v, _ in rows],
            "mults": [int(m) for _, m in rows], "heat_coeffs": heat_coeffs}


def round_sphere_mapping(n: int) -> dict:
    """Custom-schema listing of the unit round S^n, n = 2 or 3.

    The coexact k-form eigenvalues are (l+k+1)(l+n-k), l >= 0
    (Ikeda-Taniguchi), and the heat coefficients are exact: on S^2 both
    degrees list l(l+1), mult 2l+1, for l = 1..212; on S^3 degrees 0 and 2
    list (l+1)(l+3), mult (l+2)^2, and degree 1 lists (l+2)^2, mult
    2(l+1)(l+3), for l < 250.
    """
    if n == 2:
        rows = [(l * (l + 1), 2 * l + 1) for l in range(1, 213)]
        coeffs = [1.0, 0.0, -2.0 / 3.0, 0.0, 1.0 / 15.0, 0.0, 4.0 / 315.0, 0.0, 1.0 / 315.0]
        degrees = [_degree(0, rows, coeffs), _degree(1, rows, coeffs)]
        betti = [1, 0, 1]
    elif n == 3:
        rows = [((l + 1) * (l + 3), (l + 2) ** 2) for l in range(250)]
        coeffs = [_SQRT_PI / 4, 0.0, _SQRT_PI / 4, -1.0, _SQRT_PI / 8, 0.0,
                  _SQRT_PI / 24, 0.0, _SQRT_PI / 96]
        middle = [((l + 2) ** 2, 2 * (l + 1) * (l + 3)) for l in range(250)]
        degrees = [_degree(0, rows, coeffs),
                   _degree(1, middle, [_SQRT_PI / 2, 0.0, -_SQRT_PI, 1.0]),
                   _degree(2, rows, coeffs)]
        betti = [1, 0, 0, 1]
    else:
        raise ValueError(f"round_sphere_mapping covers n = 2 and 3, got {n}")
    return {"dim": n, "betti": betti, "scale": 1.0, "degrees": degrees,
            "truncation_note": f"unit round S^{n}, coexact spectra (Ikeda-Taniguchi)"}


#: log T of the unit ball B^3, the cone over the unit round S^2 (hand
#: reduction of corollary_3d)
BALL3_LOG_TORSION = LOG_2 - 0.5 * math.log(3.0) + 0.5 * LOG_2PI + 0.25

#: log T of the unit ball B^4, the cone over the unit round S^3: the harmonic
#: term plus the weighted degree brackets of the ``s3_zeta_data`` values
BALL4_LOG_TORSION = -1.4648229622360942

#: on the unit round S^3 the degree-k frequencies are nu = l + 2, l >= 0, of
#: multiplicity P_k(nu) (coefficients of nu^0, nu^1, ...), and alpha_k
S3_FREQUENCIES = {0: ((0, 0, 1), 1), 1: ((-2, 0, 2), 0)}


def s3_zeta_data(k: int) -> dict:
    """Exact frequency-side continuation data of degree k = 0 or 1 of S^3.

    With P_k(nu) = sum_j c_j (nu + a)^j re-expanded about the shift a, the
    shifted zeta function is sum_{nu >= 2} P_k(nu) (nu + a)^(-s)
    = sum_j c_j zeta_H(s - j, 2 + a): its derivative at 0 is
    sum_j c_j zeta_H'(-j, 2 + a), and the unshifted residue at s = i is the
    coefficient of nu^(i-1).  Returns deriv0, deriv0_shifted at +-alpha_k
    and residues 1..3, each at 30 digits rounded to float.
    """
    poly, alpha = S3_FREQUENCIES[k]

    def deriv0(a):
        a = mp.mpf(a)
        total = mp.mpf(0)
        for j in range(len(poly)):      # coefficient of (nu + a)^j
            cj = sum(mp.mpf(c) * mp.binomial(i, j) * (-a) ** (i - j)
                     for i, c in enumerate(poly) if i >= j)
            total += cj * mp.zeta(-j, 2 + a, 1)
        return float(total)

    return {"deriv0": deriv0(0),
            "deriv0_shifted": {float(s): deriv0(s) for s in (alpha, -alpha)},
            "residues": {i: float(poly[i - 1]) if i <= len(poly) else 0.0
                         for i in range(1, 4)}}


def rp3_mapping() -> dict:
    """Custom-schema listing of RP^3 = S^3/{+-1}: the S^3 rows of
    ``round_sphere_mapping(3)`` (nu = l + 2, l < 250) the antipodal map
    keeps, odd nu in degrees 0 and 2 and even nu in degree 1.  The exact heat
    coefficients come from Poisson summation over odd or even nu: the
    sqrt(pi) terms are half of S^3's, the constants are not."""
    coeffs = {0: [_SQRT_PI / 8, 0.0, _SQRT_PI / 8, -1.0, _SQRT_PI / 16, 0.0,
                  _SQRT_PI / 48, 0.0, _SQRT_PI / 192],
              1: [_SQRT_PI / 4, 0.0, -_SQRT_PI / 2, 1.0]}
    degrees = []
    for entry in round_sphere_mapping(3)["degrees"]:
        k = entry["k"]
        parity = 0 if k == 1 else 1          # of nu = l + 2
        rows = [row for l, row in enumerate(zip(entry["values"], entry["mults"]))
                if (l + 2) % 2 == parity]
        degrees.append(_degree(k, rows, coeffs[1 if k == 1 else 0]))
    return {"dim": 3, "betti": [1, 0, 0, 1], "scale": 1.0, "degrees": degrees,
            "truncation_note": "RP^3 = S^3/{+-1}, coexact spectra of the even SU(2) weights"}


#: log T of the cone over RP^3: the harmonic term plus the weighted degree
#: brackets of the ``rp3_zeta_data`` values
RP3_LOG_TORSION = -0.43834244834281555


def rp3_zeta_data(k: int) -> dict:
    """Exact frequency-side continuation data of degree k = 0 or 1 of RP^3.

    Degree 0 sums nu^2 (nu + a)^(-s) over odd nu >= 3 (alpha_0 = 1), degree
    1 sums 2 (nu^2 - 1) nu^(-s) over even nu >= 2 (alpha_1 = 0); both are
    Riemann zeta functions at s, s - 1 and s - 2 with powers of 2, and the
    derivatives at 0 are taken by mpmath at 30 digits.  Returns deriv0,
    deriv0_shifted at +-alpha_k and residues 1..3.
    """
    z = mp.zeta

    def two(c, s):
        return mp.mpf(2) ** (c - s)

    if k == 0:
        forms = {0.0: lambda s: (1 - two(2, s)) * z(s - 2) - 1,
                 1.0: lambda s: (two(2, s) * (z(s - 2) - 1) - two(2, s) * (z(s - 1) - 1)
                                 + two(0, s) * (z(s) - 1)),
                 -1.0: lambda s: two(2, s) * z(s - 2) + two(2, s) * z(s - 1) + two(0, s) * z(s)}
        residues = {1: 0.0, 2: 0.0, 3: 0.5}
    else:
        forms = {0.0: lambda s: two(3, s) * z(s - 2) - two(1, s) * z(s)}
        residues = {1: -1.0, 2: 0.0, 3: 1.0}
    derivs = {a: float(mp.diff(f, 0)) for a, f in forms.items()}
    alpha = 1.0 if k == 0 else 0.0
    return {"deriv0": derivs[0.0], "residues": residues,
            "deriv0_shifted": {a: derivs[a] for a in (alpha, -alpha)}}


def without_lattice(base):
    """``base`` rebuilt by hand over its own degree streams: a base built from
    streams holds no closed form, so a solve over it takes the numeric route
    (the Mellin engine and the square-root lift) on the same spectrum.
    Degrees that share a stream keep sharing it."""
    from conetorsion.basemanifold import BaseManifold
    return BaseManifold(name=base.name, dim=base.dim, betti=base.betti, scale=base.scale,
                        degrees={k: base.coclosed_spectrum(k) for k in base.degrees_available()})


def bessel_k01(x):
    """(K_0(x), K_1(x)) as mpf for 0 < x < 22 (``_bessel_k01_dec``)."""
    k0, k1 = _bessel_k01_dec(decimal.Decimal(float(x)))
    return mp.mpf(str(k0)), mp.mpf(str(k1))


_K_SERIES_TOP = 22.0        # K_0, K_1 from their ascending series below, large-x series above
_K_FLOAT_FROM = 50.0        # float64 scipy.special.kv from here on
_DEC = decimal.Context(prec=32)


def _bessel_k01_dec(x):
    """(K_0(x), K_1(x)) at a Decimal x > 0, to 30 digits.

    Below _K_SERIES_TOP: the ascending series K_0 = -(log(x/2) + gamma) I_0(x)
    + sum_k H_k (x^2/4)^k / (k!)^2 and the Wronskian I_0 K_1 + I_1 K_0 = 1/x,
    at a working precision raised by the e^(2x) the series cancels.  From
    there on: sqrt(pi/2x) e^-x sum_k a_k(nu) x^-k, a_0 = 1, a_k = a_(k-1)
    (4 nu^2 - (2k-1)^2) / (8k), at 32 digits, to 1e-26 or to its least
    term (below e^-(2x) < 1e-19; those points weigh at most 1e-6 of each
    lattice sum)."""
    if x < _K_SERIES_TOP:
        with decimal.localcontext(decimal.Context(prec=40 + int(0.9 * float(x)))):
            q, term, harmonic = x * x / 4, decimal.Decimal(1), decimal.Decimal(0)
            i0 = i1 = series = decimal.Decimal(0)
            eps = decimal.Decimal(10) ** -(decimal.getcontext().prec - 2)
            k = 0
            while term > eps * i0 or k < 2:
                i0 += term
                i1 += term / (k + 1)
                series += harmonic * term
                k += 1
                term *= q / (k * k)
                harmonic += decimal.Decimal(1) / k
            i1 *= x / 2
            k0 = series - ((x / 2).ln() + _DEC_EULER) * i0
            k1 = (1 / x - i1 * k0) / i0
        return k0, k1
    out = []
    with decimal.localcontext(_DEC):
        for nu in (0, 1):
            term, total, k = decimal.Decimal(1), decimal.Decimal(0), 0
            while True:
                total += term
                k += 1
                nxt = term * (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k * x)
                if abs(nxt) >= abs(term) or abs(nxt) < abs(total) * decimal.Decimal("1e-26"):
                    break
                term = nxt
            out.append((_DEC_PI / (2 * x)).sqrt() * (-x).exp() * total)
    return tuple(out)


def _k_rows(x, a, orders: int) -> list:
    """Row 0: K_1(x)/x; row i: (x/(2a^2))^(i/2-1) K_(i/2-1)(x), for Decimal x
    and a: K_0, K_1 from ``_bessel_k01_dec``, higher orders by the order
    recurrence from K_(1/2) = sqrt(pi/2x) e^-x."""
    k_int = list(_bessel_k01_dec(x))
    for j in range(1, 7):
        k_int.append(k_int[j - 1] + 2 * j / x * k_int[j])
    k_half = [(_DEC_PI / (2 * x)).sqrt() * (-x).exp()]
    k_half.append(k_half[0] * (1 + 1 / x))
    for j in range(1, 6):
        k_half.append(k_half[j - 1] + (2 * j + 1) / x * k_half[j])
    y = x / (2 * a * a)
    power = {-1: 1 / y.sqrt(), 0: decimal.Decimal(1), 1: y.sqrt()}      # y^(p/2)
    for p in range(2, orders - 1):
        power[p] = power[p - 2] * y
    return [k_int[1] / x] + [power[i - 2] * (k_int[i // 2 - 1] if i % 2 == 0
                                             else k_half[max(i - 3, 0) // 2])
                             for i in range(1, orders + 1)]


@functools.lru_cache(maxsize=None)
def _lattice_data(basis: tuple, c: float, a: float, orders: int, reach: float) -> dict:
    b = [[Fraction(v) for v in row] for row in basis]
    gram = [[b[i][0] * b[j][0] + b[i][1] * b[j][1] for j in range(2)] for i in range(2)]
    cm, am = mp.mpf(c), mp.mpf(a)
    det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    area = abs(mp.mpf(det.numerator) / det.denominator)
    lead = area / (4 * mp.pi * cm * cm)
    radius = reach * c / a
    dual = np.linalg.inv(np.asarray(basis, dtype=float)).T
    n1, n2 = (int(radius * math.hypot(*row)) + 1 for row in dual)
    # each v = i b_1 + j b_2 with i > 0, or i = 0 and j > 0, stands for +-v
    ii, jj = np.meshgrid(np.arange(0, n1 + 1), np.arange(-n2, n2 + 1), indexing="ij")
    half = (ii > 0) | ((ii == 0) & (jj > 0))
    ii, jj = ii[half], jj[half]
    norm = np.hypot(ii * basis[0][0] + jj * basis[1][0], ii * basis[0][1] + jj * basis[1][1])
    inside = norm * (a / c) <= reach
    ii, jj, norm = ii[inside], jj[inside], norm[inside]
    # below the float top: exact squared norms, equal ones merged, each point's
    # terms in 32-digit decimal arithmetic
    counts: dict = {}
    for i, j in zip(ii[norm * (a / c) < _K_FLOAT_FROM].tolist(),
                    jj[norm * (a / c) < _K_FLOAT_FROM].tolist()):
        q = i * i * gram[0][0] + 2 * i * j * gram[0][1] + j * j * gram[1][1]
        counts[q] = counts.get(q, 0) + 2
    sums = [decimal.Decimal(0)] * (orders + 1)
    dec_a = decimal.Decimal(a)
    dec_scale = decimal.Decimal(a) / decimal.Decimal(c)
    with decimal.localcontext(_DEC):
        for q, m in counts.items():
            x = (decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)).sqrt() * dec_scale
            terms = _k_rows(x, dec_a, orders)
            sums = [s + m * t for s, t in zip(sums, terms)]
    rows = [[mp.mpf(str(s))] for s in sums]
    # above it the terms are below 1e-9 of each sum: float64 scipy values
    # leave an error below 1e-24 of it
    import scipy.special
    xf = norm[norm * (a / c) >= _K_FLOAT_FROM] * (a / c)
    rows[0].append(mp.mpf(math.fsum((2.0 * scipy.special.kv(1, xf) / xf).tolist())))
    for i in range(1, orders + 1):
        nu = 0.5 * i - 1.0
        terms = 2.0 * (xf / (2.0 * a * a)) ** nu * scipy.special.kv(abs(nu), xf)
        rows[i].append(mp.mpf(math.fsum(terms.tolist())))
    sums = [mp.fsum(r) for r in rows]
    la, a2 = mp.log(am), am * am
    out = {"deriv0": (lead * a2 * (2 * la - 1) + 4 * lead * a2 * sums[0] + 2 * la) / 2,
           "zeta0": -lead * a2 - 1, "residues": {}, "pp": {}}
    for i in range(1, orders + 1):
        w = mp.mpf(i) / 2
        out["residues"][i] = 2 * lead if i == 2 else mp.mpf(0)
        if i == 2:
            out["pp"][i] = -2 * lead * la + 2 * lead * sums[2] - 1 / a2
        else:
            out["pp"][i] = (lead * am ** (2 - 2 * w) / (w - 1)
                            + 2 * lead / mp.gamma(w) * sums[i] - am ** (-2 * w))
    return {key: (float(v) if not isinstance(v, dict) else {i: float(u) for i, u in v.items()})
            for key, v in out.items()}


def lattice_zeta_data(basis, c: float, a: float, orders: int = 16, reach: float = 90.0) -> dict:
    """Frequency-side continuation data of nu = sqrt(eta + a^2), eta =
    4 pi^2 c^2 |mu|^2 over the nonzero mu of the dual of the lattice L the
    rows of ``basis`` span: {"deriv0", "zeta0", "residues", "pp"} with
    residues and pp for i = 1..orders.

    The generalized Chowla-Selberg formula (Elizalde, CMP 198, 1998) in
    mpmath at 30 digits: with A = covol(L)/(4 pi c^2) and x_v = a|v|/c,
    zeta_Q(w) = A a^(2-2w)/(w-1) - a^(-2w) + (2A/Gamma(w)) sum_v
    (x_v/(2a^2))^(w-1) K_(w-1)(x_v), summed over x_v <= ``reach``.  At high
    orders the three terms cancel to a^(2w) of their size and the summands
    grow like x^(w-3/2) e^-x, so the sum runs to x = 90 (the terms beyond
    are below 1e-28 of each sum at every order), and every point below
    x = 50 is summed in 32-digit decimals: K_0 and K_1 from
    ``_bessel_k01_dec``, higher orders by the order recurrence from
    K_(1/2) = sqrt(pi/2x) e^-x.  The points from x = 50 on, below 1e-9 of
    each sum, take float64 scipy.special.kv.  At a = 1/2, pp[16] on the
    catalogue tori agrees with the direct lattice sum to 1e-15 relative.
    """
    return _lattice_data(tuple(map(tuple, np.asarray(basis, dtype=float).tolist())),
                         float(c), float(a), orders, reach)


# ---------------------------------------------------------------------------
# the lattice route's Bessel-K form in float64 (the production route before
# the Ewald split): a second exact check on zetacont.zeta_data_lattice

#: relative accuracy of ``bessel_k_ladder`` (tested against mpmath)
BESSEL_K_REL = 2e-15
_K_SWITCH = 20.0            # trapezoid rule below, large-x series above
_K_STEP = 0.1
_K_TERMS = 30
_K_REACH = 60.0             # the lattice sum keeps x = a|v|/c <= 60
# a_k(nu) of the large-x series for nu = 0, 1 (one column per order):
# a_0 = 1, a_(k+1) = a_k (4 nu^2 - (2k+1)^2) / (8 (k+1))
_K_ASYMPTOTIC = [[1.0, 1.0]]
for _k in range(1, _K_TERMS):
    _K_ASYMPTOTIC.append([a * (4 * nu * nu - (2 * _k - 1) ** 2) / (8.0 * _k)
                          for a, nu in zip(_K_ASYMPTOTIC[-1], (0, 1))])


def _float_bessel_k01(x):
    """(K_0(x), K_1(x)) at every x > 0 of a 1-D array: below _K_SWITCH the
    trapezoid rule with step _K_STEP on K_nu(x) = int_0^inf e^(-x cosh t)
    cosh(nu t) dt (analytic in |Im t| < pi/2, so its relative error is
    about e^(x - pi^2/_K_STEP)), to where x (cosh t - 1) > 48; from there
    _K_TERMS terms of the large-x series sqrt(pi/2x) e^-x sum_k a_k x^-k."""
    out = np.empty((2, x.size))
    low = x < _K_SWITCH
    if low.any():
        xl = x[low]
        t = _K_STEP * np.arange(int(math.acosh(1.0 + 48.0 / float(xl.min())) / _K_STEP) + 2.0)
        weights = np.stack([np.full(t.size, _K_STEP), _K_STEP * np.cosh(t)], axis=1)
        weights[0] *= 0.5
        terms = np.multiply.outer(-xl, np.cosh(t))
        out[:, low] = (np.exp(terms, out=terms) @ weights).T
    high = ~low
    if high.any():
        xh = x[high]
        inv = 1.0 / xh
        coef = np.array(_K_ASYMPTOTIC)[:, :, None]
        series = np.repeat(coef[-1], xh.size, axis=1)
        for a in coef[-2::-1]:
            series = series * inv + a
        out[:, high] = np.sqrt(0.5 * math.pi / xh) * np.exp(-xh) * series
    return out[0], out[1]


def bessel_k_ladder(x, top: int, half: bool = False):
    """Modified Bessel K_(j+h)(x) for j = 0..top (h = 1/2 when ``half``, else
    0) at every x > 0 of a 1-D array: row j holds order j + h.
    K_(1/2)(x) = sqrt(pi/2x) e^(-x) and K_0, K_1 (``_float_bessel_k01``)
    start the upward recurrence K_(nu+1) = K_(nu-1) + (2 nu/x) K_nu, a sum of
    positive terms; K_(-1/2) = K_(1/2).  Relative error at most
    ``BESSEL_K_REL`` for x in [0.05, 200] and orders up to 15/2."""
    x = np.asarray(x, dtype=float)
    out = np.empty((top + 1, x.size))
    if half:
        out[0] = np.sqrt(0.5 * math.pi / x) * np.exp(-x)
        below, h = out[0], 0.5
    else:
        out[0], below = _float_bessel_k01(x)   # K_1 stands below K_0 as K_(-1)
        h = 0.0
    for j in range(top):
        out[j + 1] = below + (2.0 * (j + h) / x) * out[j]
        below = out[j]
    return out


def bessel_k_zeta_data(lattice, a: float, pole_range: int = 16):
    """``zetacont.zeta_data_lattice``'s record from the generalized
    Chowla-Selberg formula in float64 (Elizalde, CMP 198, 1998): with
    A = covol(L)/(4 pi c^2) and x_v = a|v|/c over the nonzero v in L,

        zeta_Q(w) = A a^(2-2w)/(w-1) - a^(-2w)
                    + (2A/Gamma(w)) sum_v (x_v/(2a^2))^(w-1) K_(w-1)(x_v),

    summed over x_v <= 60, bitwise ties merged.  Its bounds cover the points
    beyond the reach, ``BESSEL_K_REL``, the rounding of each x_v, numpy's
    pairwise sums and the rounding of the three terms, which cancel at high
    order (a^(-i) of size): ``error_estimate`` bounds deriv0, zeta0 and the
    residues, ``pp_errors[i]`` bounds pp[i]."""
    from conetorsion.zetacont import ZetaFunctionData, _lattice_points
    ulp = 2.0 ** -53
    c, basis, lead = lattice.c, lattice.basis, lattice.lead
    dual = np.linalg.inv(basis).T
    vsq, counts = np.unique(_lattice_points(basis, _K_REACH * c / a, dual), return_counts=True)
    x = (a / c) * np.sqrt(vsq)

    def kernels(x):
        """Row 0: K_1(x)/x; row i: (x/(2a^2))^(i/2-1) K_(i/2-1)(x)."""
        k_int = bessel_k_ladder(x, max(pole_range // 2 - 1, 1))
        k_half = bessel_k_ladder(x, max((pole_range - 3) // 2, 0), half=True)
        y = x / (2.0 * a * a)
        return np.array([k_int[1] / x] + [
            y ** (0.5 * i - 1.0) * (k_int[i // 2 - 1] if i % 2 == 0 else k_half[max(i - 3, 0) // 2])
            for i in range(1, pole_range + 1)])

    terms = kernels(x) * counts
    sums = terms.sum(axis=1)
    # rounding of x_v: its coordinates carry 2u (|i||b_1| + |j||b_2|) <= 2u kappa |v|
    kappa = sum(math.hypot(*b) * math.hypot(*s) for b, s in zip(basis, dual))
    sum_depth = math.log2(max(x.size, 2)) + x.size / 8192.0 + 20.0
    reach = _K_REACH + np.arange(51.0)
    shells = math.pi * (c * (reach + 1.0) / a + sum(map(math.hypot, *basis.T))) ** 2 / (
        4.0 * math.pi * c * c * lead)
    sum_errs = ((BESSEL_K_REL + (sum_depth + 8.0) * ulp) * sums
                + (3.0 * kappa + 4.0) * ulp * (terms * (x + 2.0)).sum(axis=1)
                + (kernels(reach) * shells).sum(axis=1))

    def combine(coeff, j, *others):
        """coeff * sums[j] + others, and a bound on its error."""
        parts = [coeff * sums[j], *others]
        return math.fsum(parts), float(8.0 * ulp * sum(map(abs, parts))
                                       + abs(coeff) * sum_errs[j])

    la, a2 = math.log(a), a * a
    deriv_q, deriv_err = combine(4.0 * lead * a2, 0, lead * a2 * (2.0 * la - 1.0), 2.0 * la)
    zeta0 = -lead * a2 - 1.0
    residues, pp, pp_errors = {}, {}, {}
    for i in range(1, pole_range + 1):
        residues[i] = 2.0 * lead if i == 2 else 0.0
        if i == 2:
            pp[i], pp_errors[i] = combine(2.0 * lead, i, -2.0 * lead * la, -1.0 / a2)
        else:
            w = 0.5 * i
            pp[i], pp_errors[i] = combine(2.0 * lead / math.gamma(w), i,
                                          lead * a ** (2 - i) / (w - 1.0), -a ** -i)
    err = max(0.5 * deriv_err, 8.0 * ulp * (abs(zeta0) + 2.0 * lead))
    return ZetaFunctionData(deriv0=0.5 * deriv_q, residues=residues, pp=pp,
                            error_estimate=err, zeta0=zeta0, pp_errors=pp_errors)
