"""Cross-section data for bounded generalized cones.

A cone M = (0,1] x N is described here by its closed oriented
cross-section N of dimension n: Betti numbers b_0..b_n, a metric scale
c, and for each degree k = 0..n-1 the nonzero spectrum of the Laplacian
acting on coclosed k-forms (a coclosed n-form is harmonic, so the top
degree has none).  The scale is chosen so that every nonzero
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

Custom JSON schema::

    {
      "dim": 2,                       # n >= 1
      "betti": [1, 2, 1],             # length n+1, Poincare-symmetric
      "scale": 2.0,                   # c > 0, informational echo
      "orientable": true,             # optional JSON boolean; false is rejected
      "degrees": [
        {"k": 0,                      # 0 <= k <= n-1, each at most once
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
from types import MappingProxyType

import numpy as np

from .errors import ReadOnly, ValidationError, is_finite_number, is_number
from .zetacont import SpectrumStream, _exp_rowsum, merge_ties, shift_heat_powers

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


def _positive_scale(c) -> float:
    if not (is_finite_number(c) and c > 0.0):
        raise ValidationError(f"scale must be a positive real, got {c!r}")
    return float(c)


@dataclass(frozen=True)
class DegreeData:
    """Nonzero coclosed spectrum of one degree, with exact heat data; its
    arrays are frozen on construction, like every field."""
    values: np.ndarray          # ascending eigenvalues eta > 1
    mults: np.ndarray
    heat_fn: object             # exact trace callable or None
    heat_powers: tuple          # complete through max listed power
    nu_progression: tuple | None  # (step, mult) when sqrt(eta) = step*m exactly

    def __post_init__(self):
        self.values.flags.writeable = False
        self.mults.flags.writeable = False


class BaseManifold(ReadOnly):
    """Closed oriented cross-section: Betti numbers + coclosed spectra.

    Read-only, its degree map included: cached continuations are keyed by
    the base's identity, so a write would change what a later solve reads.
    """

    def __init__(self, *, name: str, dim: int, betti, scale: float,
                 degrees: dict, boundary_ok: bool = False, truncation_note: str = ""):
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
        scale = _positive_scale(scale)
        floor = 1.0 - 1e-12 if boundary_ok else 1.0
        for k, deg in degrees.items():
            if not 0 <= k < dim:
                raise ValidationError(
                    f"degree {k} is outside 0..{dim - 1}: a coclosed {dim}-form on a "
                    f"closed {dim}-manifold is harmonic, so degree {dim} has no spectrum")
            if deg.values.size and float(deg.values[0]) <= floor:
                raise ValidationError(SCALING_MESSAGE)
        for key, value in dict(name=name, dim=int(dim), betti=betti, scale=scale,
                               orientable=True, truncation_note=truncation_note,
                               _degrees=MappingProxyType(dict(degrees))).items():
            object.__setattr__(self, key, value)

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
        return SpectrumStream(
            deg.values + shift2, deg.mults,
            name=f"{self.name}:deg{k}" + (f"+{shift2:g}" if shift2 else ""),
            heat_fn=heat_fn, heat_powers=shift_heat_powers(deg.heat_powers, shift2))

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
    c = _positive_scale(c)
    if not isinstance(allow_boundary, (bool, np.bool_)):
        raise ValidationError(f"allow_boundary must be a bool, got {allow_boundary!r}")
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


def _shortest(basis: np.ndarray) -> float:
    """Length of a shortest nonzero vector of the lattice spanned by ``basis``."""
    reach = 1.0001 * min(math.hypot(*basis[0]), math.hypot(*basis[1]))
    return math.sqrt(_lattice_points(basis, reach)[0])


def torus2(c: float, lattice=None, *, nu_max: float = 64.0) -> BaseManifold:
    """Flat torus R^2/L with metric scaled by c.

    Laplace eigenvalues are 4 pi^2 c^2 |mu|^2 over the dual lattice L*;
    the scaling condition demands the smallest nonzero one exceed 1.
    Degrees 0 and 1 share this nonzero coclosed spectrum (the coexact
    1-form spectrum of a flat torus coincides with the nonzero function
    spectrum); a coclosed 2-form on the closed torus is harmonic, so the
    top degree has no nonzero spectrum.
    """
    c = _positive_scale(c)
    if not (is_finite_number(nu_max) and nu_max > 0.0):
        raise ValidationError(f"nu_max must be a positive finite number, got {nu_max!r}")
    try:
        basis = np.asarray(lattice if lattice is not None else _DEFAULT_LATTICE,
                           dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"lattice entries must be numbers, got {lattice!r}") from None
    if basis.shape != (2, 2):
        raise ValidationError("lattice must be two basis vectors in the plane")
    if not np.isfinite(basis).all():
        raise ValidationError(f"lattice entries must be finite, got {basis.tolist()}")
    covol = abs(float(np.linalg.det(basis)))
    if covol < 1e-12 * max(1.0, float(np.max(np.abs(basis))) ** 2):
        raise ValidationError("degenerate lattice: basis vectors are collinear")
    dual_basis = np.linalg.inv(basis).T

    ell1, q1 = _shortest(basis), _shortest(dual_basis)

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
                        degrees={0: deg, 1: deg})


# ---------------------------------------------------------------------------
# custom (finite JSON listings)
# ---------------------------------------------------------------------------

_JSON_NUMBERS = {int, float}      # the types json.loads gives numbers


def _integer(value, field: str, where: str = "") -> int:
    """An integer field of the custom schema: 2 and 2.0 pass; 2.5, "2" and true do not."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValidationError(f"{field} must be an integer, got {value!r}{where}")


def _listing(k: int, eig: list) -> tuple:
    """Values and mults of one degree's eigenvalue entries, validated.

    Entries that do not parse (a missing key, a value or mult that is not a
    number) are refused first.  Otherwise a refusal names the first
    offending entry in list order, judging its value before its mult:
    values finite and strictly ascending, mults integers >= 1.
    """
    n = len(eig)
    need = f"degree {k}: eigenvalue entries need 'value' and 'mult'"
    try:
        columns = [list(map(itemgetter(key), eig)) for key in ("value", "mult")]
        # one whole-column type test; the entry loop only names a refusal
        if not set(map(type, columns[0])).union(map(type, columns[1])) <= _JSON_NUMBERS:
            for i, pair in enumerate(zip(*columns)):
                for key, v in zip(("value", "mult"), pair):
                    if not is_number(v):
                        raise ValidationError(f"{need} as numbers; entry {i} has {key} {v!r}")
        values = np.fromiter(map(float, columns[0]), float, n)
        mults = np.fromiter(map(float, columns[1]), float, n)
    except (TypeError, KeyError, OverflowError) as exc:   # OverflowError: int beyond binary64
        raise ValidationError(f"{need}: {exc}") from exc
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
        if not is_finite_number(c):
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
    scale = data["scale"]
    if not is_finite_number(scale):
        raise ValidationError(f"scale must be a finite number, got {scale!r}")
    betti = data["betti"]
    if not isinstance(betti, list):
        raise ValidationError(f"betti must be a list of integers, got {betti!r}")
    betti = [_integer(b, "betti entry", f" (entry {i})") for i, b in enumerate(betti)]
    orientable = data.get("orientable", True)
    if not isinstance(orientable, bool):
        raise ValidationError(f"orientable must be a JSON boolean, got {orientable!r}")
    if not orientable:
        raise ValidationError("cross-section must be orientable")
    degrees: dict[int, DegreeData] = {}
    entries = data["degrees"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError("'degrees' must be a nonempty list")
    for j, entry in enumerate(entries):
        if not isinstance(entry, dict) or "k" not in entry:
            raise ValidationError("each degree entry needs a 'k' field")
        k = _integer(entry["k"], "degree entry 'k'", f" (entry {j})")
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
                        degrees=degrees, truncation_note=str(data.get("truncation_note", "")))

