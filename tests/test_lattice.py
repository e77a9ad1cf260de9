"""The flat 2-torus lattice route: zeta_data_lattice against a 30-digit
mpmath oracle of the generalized Chowla-Selberg formula, its a -> 0 limit
against Kronecker's first limit formula, and the numeric route (the Mellin
engine on the same stream without its lattice, and exported listings)
within its own estimate of it.  A solve on the route builds neither an
engine nor the theta trace's Poisson norms, and the ``three-dim-dual-path``
selftest check fails on a wrong lattice route.  The lattices are the benchmark's
catalogue (``perfbench/reference.json``): its ten cone_exact tori and the
sources of its eight cone_listing exports."""

import inspect
import json
import math
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
    stream = bm.torus2(entry["c"], entry["lattice"]).coclosed_spectrum(0)
    data = zetacont.zeta_data_lattice(stream, 0.5)
    want = oracles.lattice_zeta_data(stream.lattice[1], entry["c"], 0.5)
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
    stream = bm.torus2(c, lattice).coclosed_spectrum(0)
    kron = 0.5 * oracles.flat_torus_zeta_prime0(stream.lattice[1], c)
    gap = {a: zetacont.zeta_data_lattice(stream, a, pole_range=0).deriv0 - kron
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


def test_dual_path_check_fails_on_a_wrong_lattice_route(monkeypatch):
    check = dict((name, fn) for name, _, fn in selftest.ACCEPTANCE_CHECKS)["three-dim-dual-path"]
    assert check(1e-8)[0]
    lattice = zetacont.zeta_data_lattice

    def doubled(stream, a, *args):
        data = lattice(stream, a, *args)
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


def _stream(lattice, powers=((-1.0, 0.785), (0.0, -1.0))):
    return zetacont.SpectrumStream([4.0, 8.0], [4.0, 4.0], name="grid", heat_powers=powers,
                                   lattice=lattice)


@pytest.mark.parametrize("call, message", [
    (lambda: _stream((2.0,)), r"lattice must be a \(c, basis\) pair"),
    (lambda: _stream([2.0, np.eye(2)]), r"lattice must be a \(c, basis\) pair"),
    (lambda: _stream((0.0, np.eye(2))), "lattice scale must be a finite number > 0"),
    (lambda: _stream(("2", np.eye(2))), "lattice scale must be a finite number > 0"),
    (lambda: _stream((2.0, [[1.0, 0.0], [0.0, 1.0]])), "basis must be a 2 x 2 float array"),
    (lambda: _stream((2.0, np.eye(3))), "basis must be a 2 x 2 float array"),
    (lambda: _stream((2.0, np.eye(2, dtype=int))), "basis must be a 2 x 2 float array"),
    (lambda: _stream((2.0, np.array([[1.0, math.nan], [0.0, 1.0]]))),
     "basis must be a 2 x 2 float array"),
    (lambda: _stream((2.0, np.eye(2)), powers=((0.0, -1.0),)), "heat coefficient of t\\^-1"),
    (lambda: _stream((2.0, np.eye(2)), powers=((-1.0, 0.0),)), "heat coefficient of t\\^-1"),
    (lambda: zetacont.zeta_data_lattice(bm.circle(2.0).coclosed_spectrum(0), 0.5),
     "carries no lattice"),
    (lambda: zetacont.zeta_data_lattice(bm.torus2(2.0).coclosed_spectrum(0), 0.0),
     "^a must be a finite nonzero real, got 0.0$"),
    (lambda: zetacont.zeta_data_lattice(bm.torus2(2.0).coclosed_spectrum(0), "0.5"),
     "^a must be a finite nonzero real"),
    (lambda: zetacont.zeta_data_lattice(bm.torus2(2.0).coclosed_spectrum(0), 0.5,
                                        pole_range=17), "^pole_range must be an integer in 0..16"),
], ids=["short", "list", "scale-zero", "scale-str", "basis-list", "basis-3x3", "basis-int",
        "basis-nan", "no-leading-power", "zero-leading-power", "no-lattice", "a-zero",
        "a-str", "pole-range"])
def test_lattice_descriptor_and_route_refuse_by_name(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_lattice_descriptor_is_a_read_only_copy():
    basis = np.eye(2)
    stream = _stream((2.0, basis))
    basis[0, 0] = 5.0
    assert stream.lattice[1][0, 0] == 1.0
    assert stream.shifted(0.25).lattice is None


def test_large_scales_take_the_numeric_route():
    # the lattice sum grows like c^2 (about 900/(a^2 A) points, 1146 c^2 on
    # the square torus); past 40 000 the numeric route is the cheaper one,
    # and torus2(100) solves there (the lattice route's enumeration exceeds
    # its index-point box)
    for c, route in ((5.5, "exact"), (6.5, "numeric"), (100.0, "numeric")):
        base = bm.torus2(c)
        assert zetacont.lattice_sum_fits(base.coclosed_spectrum(0), 0.5) == (route == "exact")
        assert degree_continuation(base, 0).route == route
        assert log_torsion(base).error_estimate <= 1e-8
    with pytest.raises(ValidationError, match="index points"):
        zetacont.zeta_data_lattice(bm.torus2(100.0).coclosed_spectrum(0), 0.5)
