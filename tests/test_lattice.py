"""The flat 2-torus lattice route: zeta_data_lattice, Ewald's split of the
theta function, against a 30-digit mpmath oracle of the generalized
Chowla-Selberg formula and against that formula's float64 Bessel-K form (the
route before the split), at two split points and on GL(2, Z)-equivalent
bases; its a -> 0 limit against Kronecker's first limit formula; and the
numeric route (the Mellin engine on a base over the torus's own stream, and
exported listings) within its own estimate of it.  Every scale takes the
route, with a term count that does not depend on c.  A solve on the route
builds neither an engine nor the theta trace's Poisson norms, and the
``three-dim-dual-path`` selftest check fails on a wrong lattice route.  The
lattices are the benchmark's catalogue (``perfbench/reference.json``): its
ten cone_exact tori and the sources of its eight cone_listing exports."""

import inspect
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conetorsion import basemanifold as bm, selftest, torsion, zetacont
from conetorsion.errors import ValidationError
from conetorsion.torsion import degree_continuation, log_torsion

import oracles

CATALOGUE = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                        / "reference.json").read_text(encoding="utf-8"))
TORI = [e for e in CATALOGUE["cone_exact"] if e["base"] == "torus2"]
LISTINGS = CATALOGUE["cone_listing"]


@pytest.mark.parametrize("entry", TORI, ids=[e["id"] for e in TORI])
def test_lattice_data_lie_within_their_bounds_of_the_oracle(entry):
    lattice = bm.torus2(entry["c"], entry["lattice"]).lattice(0)
    data = zetacont.zeta_data_lattice(lattice, 0.5)
    want = oracles.lattice_zeta_data(lattice.basis, entry["c"], 0.5)
    err = data.error_estimate
    assert 0.0 < err < 1e-13
    assert abs(data.deriv0 - want["deriv0"]) <= err
    assert abs(data.zeta0 - want["zeta0"]) <= err
    assert sorted(data.residues) == sorted(data.pp) == sorted(data.pp_errors) == list(range(1, 17))
    for i in range(1, 17):
        assert abs(data.residues[i] - want["residues"][i]) <= err, i
        assert abs(data.pp[i] - want["pp"][i]) <= data.pp_errors[i], i
    # the bounds weighed as the relation path weighs them at +-alpha = +-1/2
    assert math.fsum(0.5 ** i / i * e for i, e in data.pp_errors.items()) < 1e-13


def _within(data, other) -> None:
    """Two records of one zeta agree within the sum of their bounds, at every order."""
    err = data.error_estimate + other.error_estimate
    assert abs(data.deriv0 - other.deriv0) <= err and abs(data.zeta0 - other.zeta0) <= err
    for i in range(1, 17):
        assert abs(data.residues[i] - other.residues[i]) <= err, i
        assert abs(data.pp[i] - other.pp[i]) <= data.pp_errors[i] + other.pp_errors[i], i


@pytest.mark.parametrize("entry", TORI, ids=[e["id"] for e in TORI])
def test_split_agrees_with_the_bessel_k_form(entry):
    lattice = bm.torus2(entry["c"], entry["lattice"]).lattice(0)
    _within(zetacont.zeta_data_lattice(lattice, 0.5), oracles.bessel_k_zeta_data(lattice, 0.5))


@pytest.mark.parametrize("entry", TORI, ids=[e["id"] for e in TORI])
def test_two_split_points_agree(entry):
    base = bm.torus2(entry["c"], entry["lattice"])
    lattice = base.lattice(0)
    assert lattice.lead == dict(base.coclosed_spectrum(0).heat_powers)[-1.0]
    at_lead = zetacont._ewald_split(lattice, 0.5, 16, lattice.lead)
    assert at_lead == zetacont.zeta_data_lattice(lattice, 0.5)      # t0 = A
    _within(at_lead, zetacont._ewald_split(lattice, 0.5, 16, 2.0 * lattice.lead))


@pytest.mark.parametrize("unimodular", [[[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 3]]],
                         ids=["shear", "hyperbolic", "rotate-shear"])
@pytest.mark.parametrize("entry", TORI, ids=[e["id"] for e in TORI])
def test_split_is_gl2z_invariant(entry, unimodular):
    # another basis of the same lattice L: the same spectrum, other lattice points
    # enumerated in another order and rounded otherwise
    basis = bm.torus2(entry["c"], entry["lattice"]).lattice(0).basis
    other = (np.array(unimodular, dtype=float) @ basis).tolist()
    _within(*(zetacont.zeta_data_lattice(bm.torus2(entry["c"], b).lattice(0), 0.5)
              for b in (basis.tolist(), other)))


# K_nu at each branch of the evaluator: the trapezoid rule below x = 20, the
# large-x series from 20 on, the half-integer closed form; both ladders
# through the order recurrence
_K_GRID = [0.05, 0.3, 1.0, 3.2, 7.5, 15.0, math.nextafter(20.0, 0.0), 20.0, 35.0, 60.0, 150.0]


@pytest.mark.parametrize("half", [False, True], ids=["integer", "half-integer"])
def test_bessel_k_ladder_matches_mpmath(half):
    got = oracles.bessel_k_ladder(_K_GRID, 7, half)
    for j, row in enumerate(got):
        nu = j + (0.5 if half else 0.0)
        for x, value in zip(_K_GRID, row.tolist()):
            want = oracles.mp.besselk(nu, x)
            assert abs(value / want - 1) <= oracles.BESSEL_K_REL, (nu, x)


def test_oracle_bessel_k_matches_mpmath():
    for x in (0.05, 1.0, 7.5, 19.9):
        k0, k1 = oracles.bessel_k01(x)
        assert abs(k0 / oracles.mp.besselk(0, x) - 1) < 1e-28
        assert abs(k1 / oracles.mp.besselk(1, x) - 1) < 1e-28


@pytest.mark.parametrize("c, lattice", [
    (2.0, None), (2.885, [[6.283185307179586, 0.0], [2.821150202923634, 6.283185307179586]])],
    ids=["square", "sheared"])
def test_small_shift_limit_is_kroneckers_formula(c, lattice):
    # zeta_Q'(0) is a power series in a^2 with constant term zeta'(0) of the
    # unshifted spectrum: the gap to Kronecker shrinks 4x per halving of a,
    # and two Richardson steps leave an a^6 remainder
    record = bm.torus2(c, lattice).lattice(0)
    kron = 0.5 * oracles.flat_torus_zeta_prime0(record.basis, c)
    gap = {a: zetacont.zeta_data_lattice(record, a, pole_range=0).deriv0 - kron
           for a in (0.2, 0.1, 0.05)}
    assert gap[0.2] / gap[0.1] == pytest.approx(4.0, abs=0.06)
    assert gap[0.1] / gap[0.05] == pytest.approx(4.0, abs=0.02)
    once = [(4.0 * gap[a / 2.0] - gap[a]) / 3.0 for a in (0.2, 0.1)]
    assert abs((16.0 * once[1] - once[0]) / 15.0) < 2e-8


@pytest.mark.parametrize("entry", TORI, ids=[e["id"] for e in TORI])
def test_numeric_route_lies_within_its_estimate_of_the_lattice_route(entry):
    base = bm.torus2(entry["c"], entry["lattice"])
    exact, numeric = log_torsion(base), log_torsion(oracles.without_lattice(base))
    assert degree_continuation(base, 0).route == "exact"
    assert abs(numeric.log_torsion - exact.log_torsion) <= numeric.error_estimate
    dc = degree_continuation(oracles.without_lattice(base), 0)
    assert dc.route == "numeric"
    assert abs(dc.data.deriv0 - degree_continuation(base, 0).data.deriv0) <= dc.data.error_estimate
    # and the benchmark's recorded numeric values lie within the new bound
    assert abs(exact.log_torsion - entry["ref"]["log_torsion"]) <= exact.error_estimate


@pytest.mark.parametrize("entry", LISTINGS, ids=[e["id"] for e in LISTINGS])
def test_exported_listings_lie_within_their_estimate_of_the_lattice_route(entry):
    source = bm.torus2(entry["c"], entry["lattice"], nu_max=entry["nu_max"])
    listing = log_torsion(bm.custom(source.as_custom_mapping()))
    assert abs(listing.log_torsion - log_torsion(source).log_torsion) <= listing.error_estimate


def test_cold_torus_solve_builds_no_engine(monkeypatch):
    built = []
    init = zetacont.MellinZeta.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0].name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(zetacont.MellinZeta, "__init__", counting_init)
    for entry in TORI:
        log_torsion(bm.torus2(entry["c"], entry["lattice"]))
    assert built == []
    log_torsion(oracles.without_lattice(bm.torus2(2.0)))
    assert built == ["torus2(c=2, square):deg0,1+0.25", "sqrt(torus2(c=2, square):deg0,1+0.25)"]


def _poisson_norms(stream):
    """The (norms, mults) the stream's theta trace sums below its switch, or
    None while no call has built them."""
    small = inspect.getclosurevars(stream.heat_fn).nonlocals["small"]
    return inspect.getclosurevars(small).nonlocals["norms"]


def test_cold_torus_solve_builds_no_poisson_norms():
    for entry in TORI:
        base = bm.torus2(entry["c"], entry["lattice"])
        log_torsion(base)
        assert _poisson_norms(base.coclosed_spectrum(0)) is None
    # the first trace call below the switch builds them, frozen, once
    stream = bm.torus2(2.0).coclosed_spectrum(0)
    stream.trace(np.array([1.0, 2.0]))          # the switch is pi/4
    assert _poisson_norms(stream) is None
    stream.trace(np.array([1e-3, 2.0]))
    norms = _poisson_norms(stream)
    assert all(not arr.flags.writeable for arr in norms)
    stream.trace(np.array([1e-4]))
    assert _poisson_norms(stream) is norms


def _eager_stream(c, lattice=None, nu_max=64.0):
    """torus2(c, lattice)'s stream made the way torus2 once made it on every
    call: listing, exact trace and heat powers together."""
    basis = np.array(lattice if lattice is not None else bm._DEFAULT_LATTICE, dtype=float)
    covol = abs(float(np.linalg.det(basis)))
    dual = np.linalg.inv(basis).T
    q1 = zetacont._shortest(dual, basis)
    reach = max(nu_max / (2.0 * math.pi * c), 17.5 * q1)
    eta = (4.0 * math.pi ** 2 * c * c) * zetacont._lattice_points(dual, reach, basis)
    values, mults = zetacont.merge_ties(eta, np.ones_like(eta))
    t_switch, small, area = bm._flat_torus_trace(c, basis, dual, q1, covol)
    powers = ((-1.0, area), (0.0, -1.0)) + tuple((float(j), 0.0) for j in range(1, 13))
    name = f"torus2(c={c:g}, {'square' if lattice is None else 'custom'}):deg0,1"
    return zetacont.exact_stream(values, mults, t_switch, small, name=name, heat_powers=powers)


_SOURCES = ([(e["id"], e["c"], e["lattice"], 64.0) for e in TORI]
            + [(e["id"], e["c"], e["lattice"], e["nu_max"]) for e in LISTINGS])


@pytest.mark.parametrize("c, lattice, nu_max", [s[1:] for s in _SOURCES],
                         ids=[s[0] for s in _SOURCES])
def test_torus_lists_on_first_read_bitwise_as_it_did_at_once(c, lattice, nu_max):
    # construction enumerates no listing and a solve builds no eigenvalue
    # stream; both degrees then read one stream, bitwise the one torus2 made
    # on every call, and the listing the solve read is held once, the stream's
    base = bm.torus2(c, lattice, nu_max=nu_max)
    record = base.lattice(0)
    assert record._listing is None and record._stream is None
    solved = log_torsion(base)
    assert record._stream is None and record._listing is not None
    eager = _eager_stream(c, lattice, nu_max)
    lazy = base.coclosed_spectrum(0)
    assert lazy is base.coclosed_spectrum(1) is record.build() is base._degrees[1]
    assert record.listing()[0] is lazy.values and record.listing()[1] is lazy.mults
    assert (lazy.name, lazy.heat_powers) == (eager.name, eager.heat_powers)
    assert record.min_value == lazy.min_value and record.lead == lazy.heat_powers[0][1]
    for got, want in ((lazy.values, eager.values), (lazy.mults, eager.mults)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # 50 points on both sides of the theta switch
    t = np.exp(np.linspace(math.log(1e-4), math.log(30.0), 50))
    assert lazy.trace(t).tobytes() == eager.trace(t).tobytes()
    over_eager = bm.BaseManifold(name=base.name, dim=2, betti=(1, 2, 1), scale=c,
                                 degrees={0: eager, 1: eager})
    export = json.dumps(base.as_custom_mapping())
    assert export == json.dumps(over_eager.as_custom_mapping())
    assert [d["k"] for d in json.loads(export)["degrees"]] == [0]
    # a solve after the stream reads the stream's copy of the listing
    fresh = bm.torus2(c, lattice, nu_max=nu_max)
    fresh.coclosed_spectrum(0)
    assert log_torsion(fresh) == solved


def test_torus_refuses_at_construction_before_any_listing(monkeypatch):
    # the scaling condition reads the record's smallest eigenvalue, and the
    # reach of the listing is screened by arithmetic: construction searches
    # only for the shortest dual vector, and a refusal builds no stream
    radii, built = [], []
    points, init = zetacont._lattice_points, zetacont.SpectrumStream.__init__

    def recording(basis, radius, dual=None):
        radii.append(radius)
        return points(basis, radius, dual)

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("name", ""))
        init(self, *args, **kwargs)

    monkeypatch.setattr(zetacont, "_lattice_points", recording)
    monkeypatch.setattr(zetacont.SpectrumStream, "__init__", counting_init)
    unit = ((1.0, 0.0), (0.0, 1.0))
    box = (r" needs over 8388608 index points: lower nu_max or skew it less$")
    for call, message in (
            (lambda: bm.torus2(0.5), f"^{bm.SCALING_MESSAGE}$"),
            (lambda: bm.torus2(1.0 - 1e-12), f"^{bm.SCALING_MESSAGE}$"),
            (lambda: bm.torus2(0.159, unit), f"^{bm.SCALING_MESSAGE}$"),
            (lambda: bm.torus2(2.0, nu_max=1e9),
             r"^enumerating the lattice to radius 7\.95775e\+07" + box),
            (lambda: bm.torus2(0.5, nu_max=1e9),       # the reach is screened first
             r"^enumerating the lattice to radius 3\.1831e\+08" + box)):
        with pytest.raises(ValidationError, match=message):
            call()
    assert built == [] and max(radii) < 1.0001 * 1.5
    # on the boundary c = 1 the listing's first value, 4 pi^2 |mu_1|^2 with
    # mu_1 = 1/(2 pi), rounds above 1
    assert bm.torus2(1.0).lattice(0).min_value == 1.0000000000000002
    radii.clear()
    record = bm.torus2(0.16, unit).lattice(0)
    assert record.min_value == 4.0 * math.pi ** 2 * 0.16 * 0.16 > 1.0
    assert radii == [1.0001 * 1.0] and built == []
    record.listing()
    assert radii[-1] == max(64.0 / (2.0 * math.pi * 0.16), 17.5) and built == []


def test_dual_path_check_fails_on_a_wrong_lattice_route(monkeypatch):
    check = dict((name, fn) for name, _, fn in selftest.ACCEPTANCE_CHECKS)["three-dim-dual-path"]
    assert check(1e-8)[0]
    lattice = zetacont.zeta_data_lattice

    def doubled(record, a, *args):
        data = lattice(record, a, *args)
        return zetacont.ZetaFunctionData(
            deriv0=data.deriv0, residues=data.residues, pp={**data.pp, 3: 2.0 * data.pp[3]},
            error_estimate=data.error_estimate, zeta0=data.zeta0, pp_errors=data.pp_errors)

    # torsion reads the lattice route from zetacont where that route runs
    monkeypatch.setattr(zetacont, "zeta_data_lattice", doubled)
    for tol in (1e-8, 1e-4):
        ok, detail = check(tol)
        assert not ok, detail
        assert "|lattice - numeric route|=4.4" in detail, detail


def test_lattice_record_relation_path_and_shifts():
    # +-alpha come from shifted_from_base over the plain frequency listing
    # (no heat_fn, so no lift cross-check); any other shift goes the same way
    base = bm.torus2(2.0)
    dc = degree_continuation(base, 0)
    stream = base.coclosed_spectrum(0)
    assert dc.nu_stream.heat_fn is None and dc.check_residual == 0.0
    assert np.array_equal(dc.nu_stream.values, np.sqrt(stream.values + 0.25))
    for s in (0.5, -0.5, 0.3, -0.7):
        value, err = zetacont.shifted_from_base(dc.nu_stream, dc.data, s)
        assert dc.shifted(s) == (value, err)
        # the data's bounds, weighed by |s|^i / i, are part of the estimate
        assert err >= dc.data.error_estimate + math.fsum(
            abs(s) ** i / i * e for i, e in dc.data.pp_errors.items())
    assert dc.shift_errors[0.5] == dc.shifted(0.5)[1]
    # both forms sum one record in different orders, so they agree to rounding,
    # not bitwise: numpy's AVX2 kernels give 0.6452734484425697 against ...698
    assert abs(torsion.corollary_3d(base) - log_torsion(base).log_torsion) < 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: zetacont.zeta_data_lattice(bm.torus2(2.0).coclosed_spectrum(0), 0.5),
     r"^spectrum stream 'torus2\(c=2, square\):deg0,1' is not a flat-torus lattice record$"),
    (lambda: zetacont.zeta_data_lattice((2.0, ((1.0, 0.0), (0.0, 1.0))), 0.5),
     r"^\(2\.0, \(\(1\.0, 0\.0\), \(0\.0, 1\.0\)\)\) is not a flat-torus lattice record$"),
    (lambda: zetacont.zeta_data_lattice(bm.torus2(2.0).lattice(0), 0.0),
     "^a must be a finite nonzero real, got 0.0$"),
    (lambda: zetacont.zeta_data_lattice(bm.torus2(2.0).lattice(0), "0.5"),
     "^a must be a finite nonzero real"),
    (lambda: zetacont.zeta_data_lattice(bm.torus2(2.0).lattice(0), 0.5,
                                        pole_range=17), "^pole_range must be an integer in 0..16"),
], ids=["no-lattice", "tuple", "a-zero", "a-str", "pole-range"])
def test_lattice_descriptor_and_route_refuse_by_name(call, message):
    # the route reads a torus's lattice record alone: a stream, even the
    # torus's own, or a (c, basis) pair is refused, naming it
    with pytest.raises(ValidationError, match=message):
        call()


def test_lattice_descriptor_is_a_read_only_copy():
    # the record is the base's: a circle and a base over the torus's own
    # stream hold none, and the caller's lattice is not the record's basis
    lattice = np.array([[6.283185307179586, 0.0], [2.821150202923634, 6.283185307179586]])
    base = bm.torus2(2.885, lattice)
    before = log_torsion(base)
    record = base.lattice(0)
    assert record is base.lattice(1) and record.build() is base.coclosed_spectrum(0)
    assert (record.c, record.lead) == (2.885, dict(record.build().heat_powers)[-1.0])
    lattice[1, 0] = 0.0
    assert record.basis[1, 0] == 2.821150202923634 and not record.basis.flags.writeable
    for arr in (record.basis, record.dual, *record.listing()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    for attr in ("c", "covol", "min_value", "_stream"):
        with pytest.raises(AttributeError, match="^_Lattice is read-only$"):
            setattr(record, attr, 3.0)
    assert log_torsion(base) == before
    lattice[1, 0] = 2.821150202923634
    assert before == log_torsion(bm.torus2(2.885, lattice))
    assert bm.circle(2.0).lattice(0) is None
    assert oracles.without_lattice(base).lattice(0) is None


def _cold_solve_seconds(c: float) -> float:
    start = time.perf_counter()
    log_torsion(bm.torus2(c))
    return time.perf_counter() - start


def test_every_scale_takes_the_exact_route(monkeypatch):
    # the split sums a fixed set of terms at every scale: t0 = A puts either
    # side's exponents at pi |u|^2 over a lattice of unit covolume
    for c in (5.5, 6.5, 20.0, 40.0, 100.0):
        base = bm.torus2(c)
        assert degree_continuation(base, 0).route == "exact"
        assert log_torsion(base).error_estimate <= 1e-13
    for c in (6.5, 20.0, 40.0):
        base = bm.torus2(c)
        numeric = log_torsion(oracles.without_lattice(base))
        assert abs(numeric.log_torsion - log_torsion(base).log_torsion) <= numeric.error_estimate
    points = []
    ladder = zetacont.expint_ladder

    def counting(x, low, top):
        points.append(len(x))
        return ladder(x, low, top)

    monkeypatch.setattr(zetacont, "expint_ladder", counting)
    for c in (2.0, 40.0, 1000.0):
        zetacont.zeta_data_lattice(bm.torus2(c).lattice(0), 0.5)
    assert points[0] == points[1] == points[2]
    monkeypatch.undo()
    # so a cold solve at c = 40 costs no more than one at c = 2 (its listing is shorter)
    for c in (2.0, 40.0):
        _cold_solve_seconds(c)
    best = {2.0: math.inf, 40.0: math.inf}
    for _ in range(9):
        for c in best:
            best[c] = min(best[c], _cold_solve_seconds(c))
    assert best[40.0] <= best[2.0], best
