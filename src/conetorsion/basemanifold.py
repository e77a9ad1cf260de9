"""Cross-section data for bounded generalized cones.

A cone M = (0,1] x N is described here by its closed oriented
cross-section N of dimension n: Betti numbers b_0..b_n, a metric scale
c, and for each degree k the nonzero spectrum of the Laplacian acting
on coclosed k-forms.  The scale is chosen so that every nonzero
eigenvalue exceeds 1 ("scaling condition"); this keeps all radial model
operators on the cone in the limit-point range, where the spectral
analysis applies.

Three constructors are provided:

* ``circle(c)``  -- N = S^1 with metric scaled so the function Laplacian
  has eigenvalues c^2 m^2 (m >= 1, multiplicity 2).  The shifted
  frequencies in degree 0 form the exact arithmetic progression {c m},
  which downstream code evaluates in closed form.
* ``torus2(c, lattice)`` -- N = R^2 / L a flat torus; eigenvalues
  4 pi^2 c^2 |mu|^2 over the dual lattice.  The heat trace is evaluated
  exactly through the two-branch theta function (direct sum for large t,
  lattice-dual Poisson sum for small t), so zeta continuations over this
  base carry no truncation error from the spectrum list.
* ``custom(source)`` -- finite user-supplied spectra loaded from a JSON
  mapping or file; see the schema below.

Frequency sets: in degree k the cone analysis replaces each coclosed
eigenvalue eta by nu = sqrt(eta + a_k^2) with a_k = k + 1/2 - n/2; nu is
the order of the Bessel functions solving the radial model problem.
``nu_set`` materializes this set together with the shifted eigenvalue
stream eta + a_k^2 (exact heat trace carried along when available).

Custom JSON schema::

    {
      "dim": 2,                       # n >= 1
      "betti": [1, 2, 1],             # length n+1, Poincare-symmetric
      "scale": 2.0,                   # c > 0, informational echo
      "orientable": true,             # optional JSON boolean; false is rejected
      "degrees": [
        {"k": 0,
         "eigenvalues": [{"value": 4.0, "mult": 4}, ...],  # ascending, > 1
         "heat_coeffs": [3.14159, 0.0, -1.0]},             # c_j t^((j-n)/2)
        ...
      ],
      "truncation_note": "free text"  # optional
    }

``heat_coeffs`` lists the exact leading small-t heat-trace coefficients
c_j of sum_j m_j exp(-eta_j t) ~ sum c_j t^((j-n)/2) as a list of finite
numbers, c_0 > 0; every listed entry must be exact (true zeros included),
since continuations trust them.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .zetacont import (SpectrumStream, _exp_rowsum, merge_ties,
                       progression_stream, shift_heat_powers)

SCALING_MESSAGE = "base eigenvalues must exceed 1, cf. scaling assumption"

_TWO_PI = 2.0 * math.pi
_DEFAULT_LATTICE = ((_TWO_PI, 0.0), (0.0, _TWO_PI))


def powers_to_heat_coefficients(powers, dim: int) -> tuple:
    """Repack (power, coeff) pairs as the coefficients c_j of t^((j-dim)/2)."""
    coeffs: list[float] = []
    for p, c in powers:
        j = 2.0 * float(p) + dim
        idx = int(round(j))
        if abs(j - idx) > 1e-9 or idx < 0:
            raise ValidationError(
                f"heat power {p} does not sit on the t^((j-{dim})/2) ladder")
        while len(coeffs) <= idx:
            coeffs.append(0.0)
        coeffs[idx] = float(c)
    return tuple(coeffs)


@dataclass(frozen=True)
class DegreeData:
    """Nonzero coclosed spectrum of one degree, with exact heat data."""
    values: np.ndarray          # ascending eigenvalues eta > 1
    mults: np.ndarray
    heat_fn: object             # exact trace callable or None
    heat_powers: tuple          # complete through max listed power
    nu_progression: tuple | None  # (step, mult) when sqrt(eta) = step*m exactly


class BaseManifold:
    """Closed oriented cross-section: Betti numbers + coclosed spectra."""

    def __init__(self, *, name: str, dim: int, betti, scale: float,
                 degrees: dict, orientable: bool = True,
                 boundary_ok: bool = False, truncation_note: str = ""):
        if not orientable:
            raise ValidationError("cross-section must be orientable")
        if dim < 1:
            raise ValidationError("cross-section dimension must be >= 1")
        betti = tuple(int(b) for b in betti)
        if len(betti) != dim + 1:
            raise ValidationError(
                f"betti list must have length dim+1 = {dim + 1}, got {len(betti)}")
        if any(b < 0 for b in betti):
            raise ValidationError("betti numbers must be nonnegative")
        for k in range(dim + 1):
            if betti[k] != betti[dim - k]:
                raise ValidationError(
                    f"betti numbers violate Poincare duality: b_{k} != b_{dim - k}")
        if not (scale > 0.0) or not math.isfinite(scale):
            raise ValidationError("scale must be a positive real")
        floor = 1.0 - 1e-12 if boundary_ok else 1.0
        for k, deg in degrees.items():
            if deg.values.size and float(deg.values[0]) <= floor:
                raise ValidationError(SCALING_MESSAGE)
        self.name = name
        self.dim = int(dim)
        self.betti = betti
        self.scale = float(scale)
        self.orientable = True
        self.truncation_note = truncation_note
        self._degrees = dict(degrees)

    # -- bookkeeping -------------------------------------------------------
    @property
    def euler_characteristic(self) -> int:
        return int(sum((-1) ** k * b for k, b in enumerate(self.betti)))

    def degrees_available(self) -> tuple:
        return tuple(sorted(self._degrees))

    def _degree(self, k: int) -> DegreeData:
        if k not in self._degrees:
            raise ValidationError(
                f"no coclosed spectrum supplied for degree {k} of {self.name}")
        return self._degrees[k]

    # -- spectra -----------------------------------------------------------
    def coclosed_spectrum(self, k: int, shift2: float = 0.0) -> SpectrumStream:
        """Nonzero coclosed degree-k eigenvalues, shifted by ``shift2``.

        The returned stream has values eta + shift2, the exact trace
        e^(-shift2 t) Z_k(t) when Z_k is available in closed form, and
        the correspondingly convolved small-t powers.
        """
        deg = self._degree(k)
        if shift2 < 0.0:
            raise ValidationError("spectral shift must be nonnegative")
        heat_fn = deg.heat_fn
        if heat_fn is not None and shift2 != 0.0:
            base_fn = heat_fn
            heat_fn = lambda t, _b=shift2, _f=base_fn: np.exp(-_b * np.asarray(t)) * _f(t)
        powers = shift_heat_powers(deg.heat_powers, shift2)
        lead = min((p for p, _ in powers), default=-0.5 * self.dim)
        return SpectrumStream(
            deg.values + shift2, deg.mults,
            name=f"{self.name}:deg{k}" + (f"+{shift2:g}" if shift2 else ""),
            heat_fn=heat_fn, heat_powers=powers,
            density_exponent=-lead)

    # -- serialization (custom schema round-trip) ---------------------------
    def as_custom_mapping(self) -> dict:
        degrees = []
        for k in self.degrees_available():
            deg = self._degree(k)
            coeffs = powers_to_heat_coefficients(deg.heat_powers, self.dim)
            degrees.append({
                "k": int(k),
                "eigenvalues": [{"value": v, "mult": m} for v, m in zip(
                    deg.values.tolist(), np.rint(deg.mults).astype(int).tolist())],
                "heat_coeffs": [float(c) for c in coeffs],
            })
        return {
            "dim": self.dim,
            "betti": list(self.betti),
            "scale": self.scale,
            "orientable": True,
            "degrees": degrees,
            "truncation_note": self.truncation_note
                or f"finite listing exported from {self.name}",
        }


# ---------------------------------------------------------------------------
# circle
# ---------------------------------------------------------------------------

def circle(c: float, *, allow_boundary: bool = False) -> BaseManifold:
    """S^1 scaled so the coclosed degree-0 spectrum is {c^2 m^2, mult 2},
    listed for m = 1..4096 (the trace itself is exact).

    Requires c > 1 (scaling condition); ``allow_boundary`` admits the
    borderline c = 1, used only for closed-form evaluations.
    """
    c = float(c)
    if not math.isfinite(c) or c <= 0.0:
        raise ValidationError("circle scale must be a positive real")
    if c < 1.0 or (c == 1.0 and not allow_boundary):
        raise ValidationError(SCALING_MESSAGE)
    m = np.arange(1, 4097, dtype=float)
    values = (c * m) ** 2
    mults = 2.0 * np.ones_like(values)

    def heat_fn(t, _c2=c * c):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        a = _c2 * t
        out = np.empty_like(t)
        direct = a >= 0.3
        ad, ap = a[direct], a[~direct]
        # direct sum over j <= 50: on the whole branch (a >= 0.3) every
        # later term underflows to 0, as do the kernel's skipped ones
        out[direct] = 2.0 * _exp_rowsum(ad, np.arange(1.0, 51.0) ** 2)
        # Poisson dual: j <= 5 leaves e^(-36 pi^2 / 0.3) ~ 0
        s = _exp_rowsum(math.pi * math.pi / ap, np.arange(1.0, 6.0) ** 2)
        out[~direct] = np.sqrt(math.pi / ap) * (1.0 + 2.0 * s) - 1.0
        return out

    # 2 sum exp(-c^2 m^2 t) = sqrt(pi/(c^2 t)) - 1 + (exponentially small)
    powers = ((-0.5, math.sqrt(math.pi) / c), (0.0, -1.0)) + tuple(
        (0.5 * j, 0.0) for j in range(1, 25))
    deg0 = DegreeData(values=values, mults=mults, heat_fn=heat_fn,
                      heat_powers=powers, nu_progression=(c, 2))
    return BaseManifold(name=f"circle(c={c:g})", dim=1, betti=(1, 1), scale=c,
                        degrees={0: deg0}, boundary_ok=allow_boundary)


# ---------------------------------------------------------------------------
# flat 2-torus
# ---------------------------------------------------------------------------

def _lattice_points(basis: np.ndarray, radius: float) -> np.ndarray:
    """Squared norms |i b1 + j b2|^2 <= radius^2 over (i, j) != (0, 0)."""
    # index bound: i = <point, s1> for the dual vector s1, so |i| <= r |s1|
    dual = np.linalg.inv(basis.T)  # rows are the dual basis vectors
    imax = int(math.floor(radius * math.hypot(*dual[0]))) + 1
    jmax = int(math.floor(radius * math.hypot(*dual[1]))) + 1
    ii, jj = np.meshgrid(np.arange(-imax, imax + 1), np.arange(-jmax, jmax + 1),
                         indexing="ij")
    pts = ii[..., None] * basis[0] + jj[..., None] * basis[1]
    sq = np.einsum("ijk,ijk->ij", pts, pts).ravel()
    keep = (sq > 0.0) & (sq <= radius * radius + 1e-9)
    return np.sort(sq[keep])


def torus2(c: float, lattice=None, *, nu_max: float = 64.0) -> BaseManifold:
    """Flat torus R^2/L with metric scaled by c.

    Laplace eigenvalues are 4 pi^2 c^2 |mu|^2 over the dual lattice L*;
    the scaling condition demands the smallest nonzero one exceed 1.
    Degrees 0, 1, 2 share this nonzero coclosed spectrum (the coexact
    1-form spectrum of a flat torus coincides with the nonzero function
    spectrum, as does the top degree through the Hodge star).
    """
    c = float(c)
    if not math.isfinite(c) or c <= 0.0:
        raise ValidationError("torus scale must be a positive real")
    basis = np.asarray(lattice if lattice is not None else _DEFAULT_LATTICE,
                       dtype=float)
    if basis.shape != (2, 2):
        raise ValidationError("lattice must be two basis vectors in the plane")
    covol = abs(float(np.linalg.det(basis)))
    if covol < 1e-12 * max(1.0, float(np.max(np.abs(basis))) ** 2):
        raise ValidationError("degenerate lattice: basis vectors are collinear")
    dual_basis = np.linalg.inv(basis).T

    ell1 = math.sqrt(_lattice_points(basis, 1.0001 * min(
        math.hypot(*basis[0]), math.hypot(*basis[1])))[0])
    q1 = math.sqrt(_lattice_points(dual_basis, 1.0001 * min(
        math.hypot(*dual_basis[0]), math.hypot(*dual_basis[1])))[0])

    # materialize dual points out to the larger of the frequency target and
    # the theta crossover requirement (~17 shortest vectors)
    r_count = max(nu_max / (_TWO_PI * c), 17.5 * q1)
    dual_sq = _lattice_points(dual_basis, r_count)
    eta_all = (4.0 * math.pi ** 2 * c * c) * dual_sq
    eta, eta_mult = merge_ties(eta_all, np.ones_like(eta_all))
    if eta[0] <= 1.0:
        raise ValidationError(SCALING_MESSAGE)

    # Poisson branch: equal lattice norms merged, multiplicities as weights
    vsq_all = _lattice_points(basis, 17.5 * ell1)
    vsq, vsq_mult = merge_ties(vsq_all, np.ones_like(vsq_all))

    area_factor = covol / (4.0 * math.pi * c * c)     # A in Z ~ A/t - 1
    t_switch = ell1 / (4.0 * math.pi * c * c * q1)

    def heat_fn(t, _eta=eta, _em=eta_mult, _v=vsq, _vm=vsq_mult,
                _A=area_factor, _ts=t_switch, _c2=c * c):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        direct = t >= _ts
        td, tp = t[direct], t[~direct]
        out[direct] = _exp_rowsum(td, _eta, _em)
        s = _exp_rowsum(4.0 * _c2 * tp, _v, _vm, divide=True)
        out[~direct] = _A / tp * (1.0 + s) - 1.0
        return out

    powers = ((-1.0, area_factor), (0.0, -1.0)) + tuple(
        (float(j), 0.0) for j in range(1, 13))
    lattice_tag = "square" if lattice is None else "custom"
    deg = DegreeData(values=eta, mults=eta_mult, heat_fn=heat_fn,
                     heat_powers=powers, nu_progression=None)
    return BaseManifold(name=f"torus2(c={c:g}, {lattice_tag})", dim=2,
                        betti=(1, 2, 1), scale=c,
                        degrees={0: deg, 1: deg, 2: deg})


# ---------------------------------------------------------------------------
# custom (finite JSON listings)
# ---------------------------------------------------------------------------

def _integer(value, field: str) -> int:
    """An integer field of the custom schema: 2 and 2.0 pass, 2.5 and "x" do not."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{field} must be an integer, got {value!r}") from exc
    if not number.is_integer():
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(number)


def _listing(k: int, eig: list) -> tuple:
    """Values and mults of one degree's eigenvalue entries, validated.

    Entries that do not parse are refused first.  Otherwise a refusal names
    the first offending entry in list order, judging its value before its
    mult: values finite and strictly ascending, mults integers >= 1.
    """
    n = len(eig)
    try:
        values = np.fromiter(map(float, map(itemgetter("value"), eig)), float, n)
        mults = np.fromiter(map(float, map(itemgetter("mult"), eig)), float, n)
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"degree {k}: eigenvalue entries need 'value' and 'mult': {exc}") from exc
    bad_value = ~np.isfinite(values)
    bad_value[1:] |= ~(values[1:] > values[:-1])
    bad = bad_value | ~((mults >= 1.0) & (mults == np.floor(mults)) & np.isfinite(mults))
    if bad.any():
        i = int(np.argmax(bad))
        if bad_value[i]:
            raise ValidationError(f"degree {k}: eigenvalues must be finite and "
                                  f"strictly ascending (entry {i})")
        m = float(mults[i])
        if m < 1.0:
            raise ValidationError(f"degree {k}: multiplicities must be >= 1 (entry {i})")
        raise ValidationError(
            f"degree {k}: multiplicities must be integers, got {m!r} (entry {i})")
    return values, mults


def _heat_coeffs(k: int, coeffs) -> tuple:
    """One degree's heat_coeffs: a list of finite numbers (bools refused)."""
    if not isinstance(coeffs, list):
        raise ValidationError(
            f"degree {k}: heat_coeffs must be a list of finite numbers, got {coeffs!r}")
    for j, c in enumerate(coeffs):
        try:
            ok = (isinstance(c, numbers.Real) and not isinstance(c, bool)
                  and math.isfinite(c))
        except OverflowError:       # an int beyond binary64
            ok = False
        if not ok:
            raise ValidationError(
                f"degree {k}: heat_coeffs entry {j} must be a finite number, got {c!r}")
    return tuple(float(c) for c in coeffs)


def custom(source) -> BaseManifold:
    """Load a cross-section from a JSON mapping, JSON text, or file path."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        is_text = text.lstrip().startswith("{")
        try:
            if is_text:
                data = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read spectrum file: {exc}") from exc
        except ValueError as exc:      # JSONDecodeError, UnicodeDecodeError
            what = "text" if is_text else "file"
            raise ValidationError(f"spectrum {what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("spectrum data must be a JSON object")
    for key in ("dim", "betti", "scale", "degrees"):
        if key not in data:
            raise ValidationError(f"spectrum data missing required key '{key}'")
    dim = _integer(data["dim"], "dim")
    try:
        scale = float(data["scale"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scale: {exc}") from exc
    betti = data["betti"]
    if not isinstance(betti, list):
        raise ValidationError(f"betti must be a list of integers, got {betti!r}")
    betti = [_integer(b, "betti entry") for b in betti]
    orientable = data.get("orientable", True)
    if not isinstance(orientable, bool):
        raise ValidationError(f"orientable must be a JSON boolean, got {orientable!r}")
    degrees: dict[int, DegreeData] = {}
    entries = data["degrees"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError("'degrees' must be a nonempty list")
    for entry in entries:
        if not isinstance(entry, dict) or "k" not in entry:
            raise ValidationError("each degree entry needs a 'k' field")
        k = _integer(entry["k"], "degree entry 'k'")
        if k < 0 or k > dim:
            raise ValidationError(f"degree {k} outside 0..{dim}")
        if k in degrees:
            raise ValidationError(f"degree {k} listed twice")
        eig = entry.get("eigenvalues")
        if not isinstance(eig, list) or not eig:
            raise ValidationError(f"degree {k} needs a nonempty eigenvalue list")
        values, mults = _listing(k, eig)
        coeffs = _heat_coeffs(k, entry.get("heat_coeffs", []))
        if not coeffs or coeffs[0] <= 0.0:
            raise ValidationError(
                f"degree {k}: heat_coeffs must start with a positive leading term")
        powers = tuple((0.5 * (j - dim), cj) for j, cj in enumerate(coeffs))
        degrees[k] = DegreeData(values=values, mults=mults,
                                heat_fn=None, heat_powers=powers,
                                nu_progression=None)
    return BaseManifold(name="custom", dim=dim, betti=betti, scale=scale,
                        degrees=degrees, orientable=orientable,
                        truncation_note=str(data.get("truncation_note", "")))


# ---------------------------------------------------------------------------
# frequency sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuSet:
    """Shifted frequencies nu = sqrt(eta + a_k^2) of one degree.

    ``nu_stream`` lists the frequencies themselves (arithmetic-progression
    descriptor preserved when a_k = 0 and the base is exact); ``q_stream``
    is the shifted eigenvalue stream eta + a_k^2 whose zeta continuation
    supplies residues, finite parts and values on the nu side through
    zeta_nu(s) = zeta_q(s/2).
    """
    base_id: str
    degree: int
    alpha: float            # boundary-polynomial parameter (n-1)/2 - k = -a_k
    nu_stream: SpectrumStream
    q_stream: SpectrumStream


def nu_set(base: BaseManifold, k: int) -> NuSet:
    """Degree-k frequency set of a cross-section; requires 0 <= k <= n-1."""
    n = base.dim
    if not 0 <= k <= n - 1:
        raise ValidationError(
            f"frequency sets exist for degrees 0..{n - 1}, got {k}")
    a = k + 0.5 - 0.5 * n
    alpha = -a
    shift2 = a * a
    q_stream = base.coclosed_spectrum(k, shift2=shift2)
    deg = base._degree(k)
    if deg.nu_progression is not None and a == 0.0:
        step, mult = deg.nu_progression
        nu_stream = progression_stream(step, mult, deg.values.size)
    else:
        nu_stream = SpectrumStream(
            np.sqrt(deg.values + shift2), deg.mults,
            name=f"{base.name}:nu{k}",
            density_exponent=2.0 * q_stream.density_exponent)
    if nu_stream.min_value <= abs(alpha):
        raise ValidationError(
            f"frequencies must exceed |alpha_k| = {abs(alpha):g}; smallest is "
            f"{nu_stream.min_value:g} (degree {k})")
    return NuSet(base_id=base.name, degree=k, alpha=alpha,
                 nu_stream=nu_stream, q_stream=q_stream)
