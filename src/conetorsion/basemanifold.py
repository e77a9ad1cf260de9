"""Cross-section data for bounded generalized cones.

A cone M = (0,1] x N is described here by its closed oriented
cross-section N of dimension n: Betti numbers b_0..b_n, a metric scale
c, and for each degree k = 0..n-1 the nonzero spectrum of the Laplacian
acting on coclosed k-forms (a coclosed n-form is harmonic, so the top
degree has none).  The scale is chosen so that every nonzero
eigenvalue exceeds 1 ("scaling condition"); this keeps all radial model
operators on the cone in the limit-point range, where the spectral
analysis applies.

Three constructors are provided; the first two are flat tori R^n / L,
whose heat traces are evaluated exactly by one lattice theta function
(direct sum for large t, lattice-dual Poisson sum for small t), so zeta
continuations over them carry no truncation error from the spectrum list:

* ``circle(c)``  -- N = S^1 = R / 2 pi Z (n = 1), scaled so the function
  Laplacian has eigenvalues c^2 m^2 (m >= 1, multiplicity 2).  The
  shifted frequencies in degree 0 form the exact arithmetic progression
  {c m}, evaluated in closed form.  The base holds that degree as the
  numpy-free description (step c, mult 2) and builds its stream on first
  read.
* ``torus2(c, lattice)`` -- N = R^2 / L (n = 2); eigenvalues
  4 pi^2 c^2 |mu|^2 over the dual lattice.  The base holds both degrees as
  one lattice record (c, the bases of L and L*, covol(L), the t^-1 heat
  coefficient and the smallest eigenvalue), which gives the shifted
  frequencies' continuation data in closed form, by Ewald's split of its
  theta function.  The record lists the eigenvalues, and builds the stream
  over them, on first read.
* ``custom(source)`` -- finite user-supplied spectra loaded from a JSON
  mapping or file; see the schema below.

A degree's closed form lives on the base alone (``progression(k)``,
``lattice(k)``), made from the same input as its listing; a base built
from streams holds none, so it solves on the numeric route.

Custom JSON schema::

    {
      "dim": 2,                       # n >= 1
      "betti": [1, 2, 1],             # length n+1, Poincare-symmetric
      "scale": 2.0,                   # c > 0, informational echo
      "orientable": true,             # optional JSON boolean; false is rejected
      "degrees": [
        {"k": 0,                      # 0 <= k <= n-1, each at most once;
                                      # a left-out k reads its dual n-1-k
         "values": [4.0, 8.0, ...],   # ascending, > 1
         "mults": [4, 4, ...],        # integers >= 1, one per value
         "heat_coeffs": [3.14159, 0.0, -1.0]},             # c_j t^((j-n)/2)
        ...
      ],
      "truncation_note": "free text"  # optional JSON string
    }

A degree entry may list its spectrum as entries instead, in place of the
two columns: ``"eigenvalues": [{"value": 4.0, "mult": 4}, ...]``.  The keys
of each entry pick its form (giving both is refused), and both forms of the
same data load, or are refused, alike.  ``as_custom_mapping`` writes the
columns.

``heat_coeffs`` lists the exact leading small-t heat-trace coefficients
c_j of sum_j m_j exp(-eta_j t) ~ sum c_j t^((j-n)/2) as a list of finite
numbers, c_0 > 0; every listed entry must be exact (true zeros included),
since continuations trust them.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import ReadOnly, ValidationError, flag, integer, number, positive, text

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


class _Progression(NamedTuple):
    """A degree whose frequencies sqrt(eta) are exactly step*m, m >= 1, each
    of multiplicity mult: all the exact route reads.  ``build()`` makes the
    degree's listing stream."""
    step: float
    mult: int
    build: Callable

    @property
    def min_value(self) -> float:
        return self.step * self.step


class _Lattice(ReadOnly):
    """A flat 2-torus degree, one record for both degrees of ``torus2``.

    Held from construction: the scale ``c``; the rows of ``basis`` (a
    read-only float copy of the caller's lattice L) and of ``dual`` (L*);
    ``covol`` = covol(L); ``lead`` = A = covol/(4 pi c^2), the t^-1 heat
    coefficient; and ``min_value``, the smallest eigenvalue 4 pi^2 c^2
    |mu_1|^2, bitwise the listing's first value.  That is all the lattice
    route reads.  ``listing()`` gives the eigenvalues 4 pi^2 c^2 |mu|^2 over
    the nonzero mu in L* within the record's reach, equal values merged, and
    ``build()`` the exact-trace stream over them; each is made on first read
    and kept, so both degrees read one stream, and the listing is held once.
    """
    __slots__ = ("c", "basis", "dual", "covol", "lead", "min_value", "name",
                 "_mu1_sq", "_reach", "_listing", "_stream")

    def __init__(self, c: float, basis, dual, covol: float, lead: float, mu1_sq: float,
                 reach: float, name: str):
        for key, value in dict(c=c, basis=basis, dual=dual, covol=covol, lead=lead,
                               min_value=(4.0 * math.pi ** 2 * c * c) * mu1_sq, name=name,
                               _mu1_sq=mu1_sq, _reach=reach, _listing=None,
                               _stream=None).items():
            object.__setattr__(self, key, value)

    def listing(self) -> tuple:
        """(values, mults) of the degree, read-only, enumerated on first read."""
        if self._listing is None:
            import numpy as np

            from .zetacont import _lattice_points, merge_ties
            sq = _lattice_points(self.dual, self._reach, self.basis)
            listing = merge_ties((4.0 * math.pi ** 2 * self.c * self.c) * sq, np.ones_like(sq))
            for arr in listing:
                arr.flags.writeable = False
            object.__setattr__(self, "_listing", listing)
        return self._listing

    def build(self) -> SpectrumStream:
        """The degree's stream: the listing with the lattice's exact trace."""
        if self._stream is None:
            from .zetacont import exact_stream
            t_switch, small, _ = _flat_torus_trace(self.c, self.basis, self.dual,
                                                   math.sqrt(self._mu1_sq), self.covol)
            powers = ((-1.0, self.lead), (0.0, -1.0)) + tuple(
                (float(j), 0.0) for j in range(1, 13))
            stream = exact_stream(*self.listing(), t_switch, small, name=self.name,
                                  heat_powers=powers)
            # the stream holds its own copy of the listing: keep that one alone
            object.__setattr__(self, "_stream", stream)
            object.__setattr__(self, "_listing", (stream.values, stream.mults))
        return self._stream


class _Degrees(ReadOnly, Mapping):
    """A base's read-only degree map, degree -> unshifted ``SpectrumStream``,
    with each degree's closed form (a ``_Progression`` or a ``_Lattice``)
    kept beside its stream.  A closed form builds its stream on first read;
    a lattice record builds one stream for both its degrees."""
    __slots__ = ("_entries", "_streams")

    def __init__(self, entries: dict):
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_streams", {
            k: deg for k, deg in entries.items()
            if not isinstance(deg, (_Progression, _Lattice))})

    def __getitem__(self, k):
        if k not in self._streams:
            self._streams[k] = self._entries[k].build()
        return self._streams[k]

    def __contains__(self, k):
        return k in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def closed_form(self, k, kind):
        deg = self._entries[k]
        return deg if isinstance(deg, kind) else None


class BaseManifold(ReadOnly):
    """Closed oriented cross-section: Betti numbers + coclosed spectra, one
    unshifted ``SpectrumStream`` per degree (heat powers complete through the
    largest listed one; ``circle`` gives its degree as a progression and
    ``torus2`` as a lattice record, whose streams are built on first read).
    Read-only, the degree map included:
    cached continuations are keyed by the base's identity, so a write would
    change what a later solve reads.
    """

    def __init__(self, *, name: str, dim: int, betti, scale: float, degrees: dict,
                 boundary_ok: bool = False, truncation_note: str = ""):
        name, truncation_note = text(name, "name"), text(truncation_note, "truncation_note")
        dim = integer(dim, "dim", 1)
        if not isinstance(betti, (list, tuple)):
            raise ValidationError(f"betti must be a list of integers, got {betti!r}")
        betti = tuple(integer(b, f"betti entry {i}") for i, b in enumerate(betti))
        if len(betti) != dim + 1:
            raise ValidationError(
                f"betti list must have length dim+1 = {dim + 1}, got {len(betti)}")
        for k in range(dim + 1):
            if betti[k] != betti[dim - k]:
                raise ValidationError(
                    f"betti numbers violate Poincare duality: b_{k} != b_{dim - k}")
        scale = positive(scale, "scale")
        floor = 1.0 - 1e-12 if flag(boundary_ok, "boundary_ok") else 1.0
        if not isinstance(degrees, dict):
            raise ValidationError(f"degrees must be a dict of SpectrumStream, got {degrees!r}")
        degrees = {integer(k, "degree key", -math.inf, rule="an integer"): deg
                   for k, deg in degrees.items()}
        for k, deg in degrees.items():
            if not 0 <= k < dim:
                raise ValidationError(
                    f"degree {k} is outside 0..{dim - 1}: a coclosed {dim}-form on a "
                    f"closed {dim}-manifold is harmonic, so degree {dim} has no spectrum")
            if not isinstance(deg, (_Progression, _Lattice)):
                from .zetacont import SpectrumStream
                if not isinstance(deg, SpectrumStream):
                    raise ValidationError(f"degree {k} must be a SpectrumStream, got {deg!r}")
            if deg.min_value <= floor:
                raise ValidationError(SCALING_MESSAGE)
        for key, value in dict(name=name, dim=dim, betti=betti, scale=scale,
                               orientable=True, truncation_note=truncation_note,
                               _degrees=_Degrees(degrees)).items():
            object.__setattr__(self, key, value)

    # -- bookkeeping -------------------------------------------------------
    @property
    def euler_characteristic(self) -> int:
        return int(sum((-1) ** k * b for k, b in enumerate(self.betti)))

    def degrees_available(self) -> tuple:
        return tuple(sorted(self._degrees))

    # -- spectra -----------------------------------------------------------
    def _degree(self, k) -> int:
        if integer(k, "degree", -math.inf, rule="an integer") not in self._degrees:
            raise ValidationError(f"no coclosed spectrum supplied for degree {k} of {self.name}")
        return k

    def coclosed_spectrum(self, k: int) -> SpectrumStream:
        """The stored stream of nonzero coclosed degree-k eigenvalues (its
        ``shifted(b)`` gives eta + b), built on first read where the degree
        is held as a progression."""
        return self._degrees[self._degree(k)]

    def progression(self, k: int) -> tuple | None:
        """(step, mult) where the degree-k frequencies sqrt(eta) are exactly
        step*m, m >= 1, each of multiplicity mult, else None; read without
        building the degree's stream."""
        deg = self._degrees.closed_form(self._degree(k), _Progression)
        return None if deg is None else deg[:2]

    def lattice(self, k: int) -> _Lattice | None:
        """The flat 2-torus record of degree k (c, basis, dual, covol, lead
        and min_value; its listing and stream made on first read), which
        ``zeta_data_lattice`` reads, else None."""
        return self._degrees.closed_form(self._degree(k), _Lattice)

    # -- serialization (custom schema round-trip) ---------------------------
    def as_custom_mapping(self) -> dict:
        """The base in the columnar custom schema.  Each Hodge pair is written
        once: degree n-1-k is left out when it holds degree k's stream (every
        ``torus2``), and ``custom`` gives it that stream back."""
        import numpy as np
        degrees = []
        for k in self.degrees_available():
            deg = self._degrees[k]
            dual = self.dim - 1 - k
            if dual < k and dual in self._degrees and self._degrees[dual] is deg:
                continue
            coeffs = powers_to_heat_coefficients(deg.heat_powers, self.dim)
            degrees.append({
                "k": int(k),
                "values": deg.values.tolist(),
                "mults": np.rint(deg.mults).astype(int).tolist(),
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
# flat tori R^n / L: circle (n = 1) and torus2 (n = 2)
# ---------------------------------------------------------------------------

def _flat_torus_trace(c: float, basis, dual, q1: float, covol: float):
    """Heat trace data of R^n/L at scale c, L spanned by the rows of the
    n x n ``basis`` (``dual`` the rows of the dual basis, ``covol`` = |det|),
    for ``exact_stream``: (t_switch, small, A), with A =
    covol/(4 pi c^2)^(n/2) the leading coefficient.  The lattice alone fixes
    them; the stream sums its own listing above the switch.

    small(t) is the Poisson dual A t^(-n/2) (1 + sum_v e^(-|v|^2/(4 c^2 t))) - 1
    over the nonzero v in L, equal norms merged and frozen.  The norms are
    built by the first call with a point below the switch: a solve that
    never traces there (the lattice route, the progression) never builds
    them.  The switch t = l1/(4 pi c^2 q1), for the shortest vectors l1 of
    L and q1 (given) of L*, lets both sums decay alike: the norms reach
    17.5 l1, and the listing must reach 17.5 q1 in L*, for every dropped
    term to underflow.
    """
    import numpy as np

    from .zetacont import _exp_rowsum, _lattice_points, _shortest, merge_ties
    dim = basis.shape[0]
    ell1 = _shortest(basis, dual)
    lead = covol / (4.0 * math.pi * c * c) ** (0.5 * dim)
    basis, dual = basis.copy(), dual.copy()     # kept for the norms, frozen
    basis.flags.writeable = dual.flags.writeable = False
    norms = None

    def small(t):
        nonlocal norms
        if not t.size:
            return t
        if norms is None:
            vsq_all = _lattice_points(basis, 17.5 * ell1, dual)
            vsq, vsq_mult = merge_ties(vsq_all, np.ones_like(vsq_all))
            vsq.flags.writeable = vsq_mult.flags.writeable = False
            norms = vsq, vsq_mult
        s = _exp_rowsum(4.0 * (c * c) * t, *norms, divide=True)
        return lead / t ** (0.5 * dim) * (1.0 + s) - 1.0

    return ell1 / (4.0 * math.pi * c * c * q1), small, lead


def _circle_stream(c: float, name: str):
    """circle(c)'s degree-0 stream: {c^2 m^2, mult 2} listed for m = 1..4096,
    with the exact trace of R / 2 pi Z."""
    import numpy as np

    from .zetacont import _shortest, exact_stream
    values = (c * np.arange(1.0, 4097.0)) ** 2
    mults = np.full(values.size, 2.0)
    basis = np.array([[_TWO_PI]])
    dual = np.linalg.inv(basis).T
    t_switch, small, _ = _flat_torus_trace(c, basis, dual, _shortest(dual, basis),
                                           abs(float(np.linalg.det(basis))))
    # 2 sum exp(-c^2 m^2 t) = sqrt(pi/(c^2 t)) - 1 + (exponentially small)
    powers = ((-0.5, math.sqrt(math.pi) / c), (0.0, -1.0)) + tuple(
        (0.5 * j, 0.0) for j in range(1, 25))
    return exact_stream(values, mults, t_switch, small, name=name, heat_powers=powers)


def circle(c: float, *, allow_boundary: bool = False) -> BaseManifold:
    """S^1 scaled so the coclosed degree-0 spectrum is {c^2 m^2, mult 2}.

    The degree is held as the progression (c, 2), which the exact route
    reads without numpy; its stream (``_circle_stream``) is built on the
    first ``coclosed_spectrum(0)``.  Requires c > 1 (scaling condition);
    ``allow_boundary`` admits the borderline c = 1, used only for
    closed-form evaluations.
    """
    c, allow_boundary = positive(c, "scale"), flag(allow_boundary, "allow_boundary")
    if c < 1.0 or (c == 1.0 and not allow_boundary):
        raise ValidationError(SCALING_MESSAGE)
    name = f"circle(c={c:g})"
    deg0 = _Progression(c, 2, lambda: _circle_stream(c, f"{name}:deg0"))
    return BaseManifold(name=name, dim=1, betti=(1, 1), scale=c, degrees={0: deg0},
                        boundary_ok=allow_boundary)


def torus2(c: float, lattice=None, *, nu_max: float = 64.0) -> BaseManifold:
    """Flat torus R^2/L with metric scaled by c.

    Laplace eigenvalues are 4 pi^2 c^2 |mu|^2 over the dual lattice L*;
    the scaling condition demands the smallest nonzero one exceed 1.  On
    the default lattice (side 2 pi) that one is c^2, so c <= 1 is refused
    there, as on ``circle``, whatever 4 pi^2 |mu_1|^2 rounds to.
    Degrees 0 and 1 share this nonzero coclosed spectrum (the coexact
    1-form spectrum of a flat torus coincides with the nonzero function
    spectrum); a coclosed 2-form on the closed torus is harmonic, so the
    top degree has no nonzero spectrum.  Both degrees hold one ``_Lattice``
    record.  Its listing reaches the larger of nu_max/(2 pi c) in L* and
    the theta crossover's 17.5 |mu_1| (see ``_flat_torus_trace``).  The
    listing and the stream are made on first read; a reach whose index box
    ``_lattice_points`` would refuse is refused here, before any of them.
    """
    import numpy as np

    from .zetacont import _lattice_reach, _shortest_sq
    c, nu_max = positive(c, "scale"), positive(nu_max, "nu_max")
    try:        # screened entry by entry: a float cast parses strings and counts bools
        entries = np.asarray(lattice if lattice is not None else _DEFAULT_LATTICE, dtype=object)
    except ValueError:              # nested arrays of unequal shapes
        raise ValidationError(
            f"lattice entries must be finite real numbers, got {lattice!r}") from None
    basis = np.array([number(v, "lattice entries", "finite real numbers")
                      for v in entries.flat]).reshape(entries.shape)
    if basis.shape != (2, 2):
        raise ValidationError("lattice must be two basis vectors in the plane")
    basis.flags.writeable = False       # the record's copy of the caller's lattice
    # collinear where covol(L) < 1e-12 max|entry|^2, judged on the basis times 2^-e (exact)
    m, e = math.frexp(float(np.max(np.abs(basis))))
    (p, q), (r, s) = np.ldexp(basis, -e).tolist()
    if not abs(p * s - q * r) >= 1e-12 * m * m > 0.0:
        raise ValidationError("degenerate lattice: basis vectors are collinear")
    # the determinant, the dual basis and its shortest vector, taken once
    with np.errstate(over="ignore"):        # an overflowing covolume is refused below
        covol = abs(float(np.linalg.det(basis)))
    if not 2.0 ** -1022 <= covol < math.inf:       # a normal float
        raise ValidationError(f"lattice {basis.tolist()} has covolume {covol:g}, out of range")
    dual = np.linalg.inv(basis).T
    dual.flags.writeable = False
    mu1_sq = _shortest_sq(dual, basis)
    reach = max(nu_max / (_TWO_PI * c), 17.5 * math.sqrt(mu1_sq))
    _lattice_reach(reach, basis)
    if lattice is None and c <= 1.0:    # the smallest eigenvalue is c^2, as on circle(c)
        raise ValidationError(SCALING_MESSAGE)
    top = _TWO_PI * c * reach           # the listing's top frequency
    lead = covol / (4.0 * math.pi * c * c) if c * c else math.inf
    if not (top * top < math.inf and 2.0 ** -1022 <= lead < math.inf):
        raise ValidationError(f"scale {c:g} is out of range for lattice {basis.tolist()}: top "
                              f"eigenvalue {top * top:g}, A = covol/(4 pi c^2) = {lead:g}")
    name = f"torus2(c={c:g}, {'square' if lattice is None else 'custom'})"
    deg = _Lattice(c, basis, dual, covol, lead, mu1_sq, reach, f"{name}:deg0,1")
    return BaseManifold(name=name, dim=2, betti=(1, 2, 1), scale=c, degrees={0: deg, 1: deg})


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


def _need(k: int) -> str:
    return f"degree {k}: eigenvalue entries need 'value' and 'mult'"


def _columns(k: int, entry: dict) -> list:
    """The value and mult columns of one degree entry: its ``values`` and
    ``mults`` lists as they are, or the two fields of its ``eigenvalues``
    entries; a row entry without a field is refused, naming it."""
    need = _need(k)
    keys = [key for key in ("values", "mults") if key in entry]
    if keys and "eigenvalues" in entry:
        raise ValidationError(f"degree {k} gives both 'eigenvalues' and "
                              f"{'/'.join(map(repr, keys))}: use one form")
    if keys:
        if len(keys) == 1:
            raise ValidationError(f"degree {k}: columnar eigenvalues need both "
                                  f"'values' and 'mults', got only {keys[0]!r}")
        for key in keys:
            if not isinstance(entry[key], list) or not entry[key]:
                raise ValidationError(f"degree {k}: {key!r} must be a nonempty list")
        return [entry["values"], entry["mults"]]
    eig = entry.get("eigenvalues")
    if not isinstance(eig, list) or not eig:
        raise ValidationError(f"degree {k} needs a nonempty eigenvalue list")
    try:
        return [list(map(itemgetter(key), eig)) for key in ("value", "mult")]
    except (TypeError, KeyError):
        for i, item in enumerate(eig):
            for key in ("value", "mult"):
                try:
                    item[key]
                except KeyError:
                    raise ValidationError(f"{need}; entry {i} has no {key!r}") from None
                except TypeError:
                    raise ValidationError(f"{need}; entry {i} is {item!r}") from None
        raise


def _float(v) -> float:
    try:
        return float(v)
    except OverflowError:           # an int beyond binary64, refused as infinite
        return math.inf if v > 0 else -math.inf


def _numbers_only(columns) -> bool:
    """Whether every entry of the columns is a JSON number (int or float)."""
    return set(map(type, columns[0])).union(map(type, columns[1])) <= _JSON_NUMBERS


def _listing(k: int, columns: list) -> tuple:
    """Values and mults of one degree entry's ``_columns``, validated.

    Entries that do not parse (a missing field, a value or mult that is not
    a number) are refused first.  Otherwise a refusal names the first
    offending entry in list order, judging its value before its mult:
    values finite and strictly ascending, mults integers >= 1.  Both forms
    of the same data give the same refusal.
    """
    import numpy as np
    need = _need(k)
    lengths = list(map(len, columns))
    n = min(lengths)
    if lengths[0] != lengths[1]:    # the shorter column ends at entry n
        key = "value" if lengths[0] == n else "mult"
        raise ValidationError(f"{need}; entry {n} has no {key!r}")
    # one whole-column type test; the entry loop only names a refusal
    if not _numbers_only(columns):
        for i, pair in enumerate(zip(*columns)):
            for key, v in zip(("value", "mult"), pair):
                try:
                    number(v, key, ok=lambda x: True)   # nan and inf are judged below
                except ValidationError:
                    raise ValidationError(
                        f"{need} as numbers; entry {i} has {key} {v!r}") from None
    try:
        values, mults = (np.array(col, dtype=float) for col in columns)
    except OverflowError:
        values, mults = (np.fromiter(map(_float, col), float, n) for col in columns)
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
    return tuple(number(c, f"degree {k}: heat_coeffs entry {j}") for j, c in enumerate(coeffs))


def custom(source) -> BaseManifold:
    """Load a cross-section from a JSON mapping, JSON text, or file path."""
    from .zetacont import SpectrumStream
    if isinstance(source, dict):
        data = source
    else:
        raw = str(source)      # JSON text or a path
        is_text = raw.lstrip().startswith("{")
        try:
            if is_text:
                data = json.loads(raw)
            else:
                with open(raw, "r", encoding="utf-8") as fh:
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
    scale = number(data["scale"], "scale")
    betti = data["betti"]
    if not isinstance(betti, list):
        raise ValidationError(f"betti must be a list of integers, got {betti!r}")
    betti = [_integer(b, "betti entry", f" (entry {i})") for i, b in enumerate(betti)]
    orientable = data.get("orientable", True)
    if not isinstance(orientable, bool):
        raise ValidationError(f"orientable must be a JSON boolean, got {orientable!r}")
    if not orientable:
        raise ValidationError("cross-section must be orientable")
    degrees: dict[int, SpectrumStream] = {}
    loaded: dict[int, tuple] = {}           # k: (columns, heat_coeffs) of each degree built
    entries = data["degrees"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError("'degrees' must be a nonempty list")
    for j, entry in enumerate(entries):
        if not isinstance(entry, dict) or "k" not in entry:
            raise ValidationError("each degree entry needs a 'k' field")
        k = _integer(entry["k"], "degree entry 'k'", f" (entry {j})")
        if k in degrees:
            raise ValidationError(f"degree {k} listed twice")
        columns = _columns(k, entry)
        # the Hodge-dual degree's columns, equal entry for entry in JSON numbers
        # (a bool equals 1 but is refused), load alike: its list is not parsed again
        dual = loaded.get(dim - 1 - k)
        twin = dual is not None and columns == dual[0] and _numbers_only(columns)
        listing = None if twin else _listing(k, columns)
        coeffs = _heat_coeffs(k, entry.get("heat_coeffs", []))
        if not coeffs or coeffs[0] <= 0.0:
            raise ValidationError(
                f"degree {k}: heat_coeffs must start with a positive leading term")
        loaded[k] = columns, tuple(map(float.hex, coeffs))     # bitwise: -0.0 is not 0.0
        if twin and loaded[k][1] == dual[1]:
            degrees[k] = degrees[dim - 1 - k]
        else:
            values, mults = listing or _listing(k, columns)
            powers = tuple((0.5 * (j - dim), cj) for j, cj in enumerate(coeffs))
            degrees[k] = SpectrumStream(values, mults, name=f"custom:deg{k}",
                                        heat_powers=powers)
    # a Hodge pair listed once: the degree left out reads its dual's stream
    # (a listed degree outside 0..n-1 comes first, so BaseManifold names it)
    for k in list(degrees):
        degrees.setdefault(dim - 1 - k, degrees[k])
    return BaseManifold(name="custom", dim=dim, betti=betti, scale=scale,
                        degrees=degrees, truncation_note=data.get("truncation_note", ""))

