"""Base manifolds: spectra, theta traces vs brute force, the frequency sets
built over them, custom round trips, and validation."""

import copy
import json
import math

import numpy as np
import pytest

from conetorsion import basemanifold as bm
from conetorsion.errors import ValidationError
from conetorsion.torsion import degree_continuation, log_torsion
from conetorsion.zetacont import MellinZeta, sqrt_stream, zeta_data_exact

import oracles


# ---------------------------------------------------------------------------
# Circle base.
# ---------------------------------------------------------------------------

def test_circle_basic_structure():
    circ = bm.circle(2.0)
    assert circ.dim == 1
    assert circ.betti == (1, 1)
    assert circ.scale == 2.0
    assert circ.orientable
    assert circ.euler_characteristic == 0
    s0 = circ.coclosed_spectrum(0)
    assert s0.min_value == 4.0        # (c m)^2 at m=1, c=2
    assert s0.mults[0] == 2.0         # +-m pair


@pytest.mark.parametrize("t", [1e-4, 0.07, 0.0749, 0.0751, 0.3, 1.0])
def test_circle_theta_matches_brute_force(t):
    # the trace switches between direct and Poisson-resummed branches; both
    # must agree with a deep brute-force sum
    s0 = bm.circle(2.0).coclosed_spectrum(0)
    brute = 2.0 * math.fsum(math.exp(-4.0 * m * m * t) for m in range(1, 4000))
    assert s0.trace([t])[0] == pytest.approx(brute, rel=1e-13)


def test_circle_nu_set():
    # frequencies c m, multiplicity 2: the exact route, with no stream built
    circ = bm.circle(2.0)
    dc = degree_continuation(circ, 0)
    assert dc.alpha == 0 and dc.route == "exact"
    assert dc.progression == (2.0, 2)
    assert dc.q_stream is None and dc.nu_stream is None
    assert circ.coclosed_spectrum(0).heat_fn is not None


def test_circle_scaling_floor():
    with pytest.raises(ValidationError, match="scaling"):
        bm.circle(1.0)
    with pytest.raises(ValidationError, match="scaling"):
        bm.circle(0.3)
    circ = bm.circle(1.0, allow_boundary=True)
    assert circ.scale == 1.0
    assert bm.circle(1.0 + 1e-9).scale == 1.0 + 1e-9


def test_circle_weyl_ratio():
    s0 = bm.circle(2.0).coclosed_spectrum(0)
    assert oracles.weyl_count_ratio(s0) <= 1e-3


# ---------------------------------------------------------------------------
# Flat torus base.
# ---------------------------------------------------------------------------

def test_torus_spectrum_head():
    tor = bm.torus2(2.0)
    q = tor.coclosed_spectrum(0)
    assert q.min_value == pytest.approx(4.0, abs=1e-12)
    assert tor.betti == (1, 2, 1)
    assert tor.euler_characteristic == 0


@pytest.mark.parametrize("t", [1e-3, 5e-3, 2e-2])
def test_torus_theta_small_t_poisson_branch(t):
    q = bm.torus2(2.0).coclosed_spectrum(0)
    rad2 = 745.0 / (4.0 * t)
    r = int(math.sqrt(rad2)) + 1
    p, qq = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    sq = (p * p + qq * qq).ravel()
    sq = sq[sq > 0]
    brute = math.fsum(np.exp(-4.0 * sq * t).tolist())
    assert q.trace([t])[0] == pytest.approx(brute, rel=5e-14)


@pytest.mark.parametrize("t", [0.78, 0.79])
def test_torus_theta_crossover(t):
    # both branch choices straddling the internal crossover agree with brute force
    q = bm.torus2(2.0).coclosed_spectrum(0)
    pp, qq2 = np.meshgrid(np.arange(-40, 41), np.arange(-40, 41))
    sq = (pp * pp + qq2 * qq2).ravel()
    sq = sq[sq > 0]
    brute = math.fsum(np.sort(np.exp(-4.0 * sq * t))[::-1].tolist())
    assert q.trace([t])[0] == pytest.approx(brute, rel=1e-13)


def test_torus_weyl_ratio():
    q = bm.torus2(2.0).coclosed_spectrum(0)
    assert oracles.weyl_count_ratio(q) <= 0.1


def test_torus_nu_sets_are_twins():
    tor = bm.torus2(2.0)
    n0, n1 = degree_continuation(tor, 0), degree_continuation(tor, 1)
    assert n0.alpha == 0.5 and n1.alpha == -0.5
    assert n0.route == n1.route == "numeric"
    assert n0.progression is None and n1.progression is None
    assert np.max(np.abs(n0.nu_stream.values - n1.nu_stream.values)) == 0.0
    assert n0.q_stream.min_value == pytest.approx(4.25, abs=1e-12)


def test_streams_share_no_memory_with_their_source():
    # SpectrumStream copies its input, so callers pass their arrays as they are
    tor = bm.torus2(2.0)
    deg = tor._degree(0)
    ns = degree_continuation(tor, 0)
    lift = sqrt_stream(ns.q_stream, MellinZeta(ns.q_stream, s_max=1.0))
    for stream, source in ((tor.coclosed_spectrum(0), deg), (ns.q_stream, deg),
                           (ns.nu_stream, deg), (lift, ns.q_stream)):
        for got, given in ((stream.values, source.values),
                           (stream.mults, source.mults)):
            assert not np.shares_memory(got, given)
            assert not got.flags.writeable


def test_torus_shifted_heat_powers():
    # q = lambda + 1/4 shifts the theta expansion:
    # c_{-1} = A, c_0 = -A/4 - 1, c_1 = A/32 + 1/4 with A = pi/4 at scale 2
    n0 = degree_continuation(bm.torus2(2.0), 0)
    A = math.pi / 4.0
    pw = dict(n0.q_stream.heat_powers)
    assert pw[-1.0] == pytest.approx(A, abs=1e-15)
    assert pw[0.0] == pytest.approx(-A / 4.0 - 1.0, abs=1e-15)
    assert pw[1.0] == pytest.approx(A / 32.0 + 0.25, abs=1e-15)


def test_torus_q_engine_residues_and_value():
    n0 = degree_continuation(bm.torus2(2.0), 0)
    eng = MellinZeta(n0.q_stream, s_max=8.0)
    A = math.pi / 4.0
    assert eng.residue(1.0) == pytest.approx(A, abs=1e-14)
    assert eng.residue(0.5) == 0.0
    assert eng.error_estimate([0.0, 1.0]) <= 1e-10

    # zeta_Q(3) against a brute-force lattice sum with an integral tail bound
    r = 600
    p, qq = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    sq = (p * p + qq * qq).ravel()
    sq = sq[sq > 0]
    brute3 = math.fsum(np.sort((4.0 * sq + 0.25) ** -3.0)[::-1].tolist())
    tail3 = math.pi / 32.0 * (4.0 * r * r) ** -2.0
    assert abs(eng.value(3.0) - brute3) <= tail3 + 1e-13


def test_torus_lattice_validation():
    with pytest.raises(ValidationError):
        bm.torus2(2.0, lattice=((1.0, 1.0), (2.0, 2.0)))  # degenerate
    with pytest.raises(ValidationError, match="scaling"):
        bm.torus2(0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_torus_refuses_non_finite_lattice_entries(bad):
    for i in range(4):
        lattice = [[2 * math.pi, 0.0], [0.0, 2 * math.pi]]
        lattice[i // 2][i % 2] = bad
        with pytest.raises(ValidationError, match="^lattice entries must be finite"):
            bm.torus2(2.0, lattice=lattice)


def test_skew_lattice_theta_and_weyl():
    skew = bm.torus2(3.0, lattice=((2 * math.pi, 0.0),
                                   (math.pi, math.pi * math.sqrt(3.0))))
    qs = skew.coclosed_spectrum(0)
    assert oracles.weyl_count_ratio(qs) <= 0.1
    t = 1e-3
    B = np.array([[2 * math.pi, 0.0], [math.pi, math.pi * math.sqrt(3.0)]])
    D = np.linalg.inv(B.T)
    r = 800
    ii, jj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    pts = ii[..., None] * D[0] + jj[..., None] * D[1]
    sq = np.einsum("ijk,ijk->ij", pts, pts).ravel()
    sq = sq[sq > 0]
    eta = 4.0 * math.pi ** 2 * 9.0 * sq
    brute = math.fsum(np.exp(-eta * t)[eta * t < 700].tolist())
    assert qs.trace([t])[0] == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# Direct constructor validation.
# ---------------------------------------------------------------------------

def test_base_manifold_validation():
    with pytest.raises(ValidationError):
        bm.BaseManifold(name="bad", dim=1, betti=(1,), scale=2.0,
                        degrees={})  # betti length
    with pytest.raises(ValidationError):
        bm.BaseManifold(name="bad", dim=1, betti=(1, -1), scale=2.0,
                        degrees={})  # negative betti
    with pytest.raises(ValidationError):
        bm.BaseManifold(name="bad", dim=2, betti=(1, 2, 3), scale=2.0,
                        degrees={})  # Poincare duality
    with pytest.raises(ValidationError):
        bm.BaseManifold(name="bad", dim=0, betti=(1,), scale=2.0, degrees={})
    with pytest.raises(ValidationError):
        bm.BaseManifold(name="bad", dim=1, betti=(1, 1), scale=-2.0, degrees={})


def test_base_manifold_uses_identity_semantics():
    # identity hashing keeps instances safe as lru_cache keys: two bases with
    # equal parameters are distinct keys, so cached zeta data never leaks
    # between instances
    a = bm.circle(2.0)
    b = bm.circle(2.0)
    assert a is not b
    assert a != b
    assert len({a, b}) == 2


def test_base_manifold_is_read_only():
    # cached continuations are keyed by the base, so no write may reach a
    # later solve (b.dim = 4 moved log_torsion(torus2(2)) from 0.6453 to
    # -0.8047, and b.betti = (1, 0, 1) moved the harmonic term)
    tor = bm.torus2(2.0)
    before = log_torsion(tor)
    for attr, value in (("dim", 4), ("betti", (1, 0, 1)), ("scale", 1.0),
                        ("name", "other"), ("orientable", False), ("_degrees", {})):
        with pytest.raises(AttributeError, match="^BaseManifold is read-only$"):
            setattr(tor, attr, value)
        with pytest.raises(AttributeError, match="^BaseManifold is read-only$"):
            delattr(tor, attr)
    with pytest.raises(TypeError):
        tor._degrees[0] = None
    listing = bm.custom(bm.circle(2.0).as_custom_mapping())
    for base in (tor, listing):
        deg = base._degree(0)
        for arr in (deg.values, deg.mults):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
    after = log_torsion(tor)
    assert (after.log_torsion, after.harmonic_term, after.error_estimate) == (
        before.log_torsion, before.harmonic_term, before.error_estimate)


def test_coclosed_spectrum_shift():
    circ = bm.circle(2.0)
    shifted = circ.coclosed_spectrum(0, shift2=0.25)
    plain = circ.coclosed_spectrum(0)
    assert np.allclose(shifted.values, plain.values + 0.25)
    t = np.array([0.4])
    assert shifted.trace(t)[0] == pytest.approx(
        math.exp(-0.25 * 0.4) * plain.trace(t)[0], rel=1e-14)
    with pytest.raises(ValidationError):
        circ.coclosed_spectrum(0, shift2=-0.1)


# ---------------------------------------------------------------------------
# Custom bases: round trip, JSON forms, schema rejections.
# ---------------------------------------------------------------------------

def test_custom_round_trip_preserves_spectrum():
    circ = bm.circle(2.0)
    s0 = circ.coclosed_spectrum(0)
    blob = circ.as_custom_mapping()
    back = bm.custom(blob)
    sb = back.coclosed_spectrum(0)
    assert np.max(np.abs(sb.values - s0.values)) == 0.0
    assert np.max(np.abs(sb.mults - s0.mults)) == 0.0
    assert sb.heat_fn is None                     # listings carry no closed form
    assert sb.heat_powers[0] == (-0.5, math.sqrt(math.pi) / 2.0)
    assert back.betti == (1, 1) and back.scale == 2.0


def test_custom_accepts_json_text_and_path(tmp_path):
    blob = bm.circle(2.0).as_custom_mapping()
    text = json.dumps(blob)
    from_text = bm.custom(text)
    path = tmp_path / "base.json"
    path.write_text(text)
    from_path = bm.custom(str(path))
    for built in (from_text, from_path):
        assert built.betti == (1, 1)
        assert built.coclosed_spectrum(0).min_value == 4.0


def test_custom_stream_reproduces_exact_zeta():
    # the generic numeric engine over the finite listing must reproduce the
    # closed-form progression data within its own honest error estimate
    circ = bm.circle(2.0)
    back = bm.custom(circ.as_custom_mapping())
    ex = zeta_data_exact(2.0, 2)
    nsb = degree_continuation(back, 0)
    assert nsb.route == "numeric"      # a listing carries no progression
    engb = MellinZeta(nsb.q_stream)
    d0 = engb.deriv0()
    diff = abs(0.5 * d0 - ex.deriv0)
    assert diff <= 2e-6
    assert diff <= 0.5 * engb.error_estimate([0.0]) + 1e-12  # estimate is honest


def test_heat_coefficient_ladder_round_trip():
    # (power, coeff) pairs <-> the c_j t^((j - dim)/2) ladder of the schema
    powers = ((-1.0, 1.0), (-0.5, -0.5), (0.0, 0.25))
    coeffs = bm.powers_to_heat_coefficients(powers, 2)
    assert coeffs == (1.0, -0.5, 0.25)
    blob = bm.torus2(2.0).as_custom_mapping()
    blob["degrees"][0]["heat_coeffs"] = list(coeffs)
    assert bm.custom(blob).coclosed_spectrum(0).heat_powers == powers
    with pytest.raises(ValidationError, match="ladder"):
        bm.powers_to_heat_coefficients(((-0.25, 1.0),), 2)


@pytest.mark.parametrize("mutate,tag", [
    (lambda d: d.pop("dim"), "missing dim"),
    (lambda d: d.update(betti=[1, 2]), "duality violation"),
    (lambda d: d.update(orientable=False), "non-orientable"),
    (lambda d: d["degrees"][0]["eigenvalues"].__setitem__(
        0, {"value": 0.5, "mult": 2}), "scaling violation"),
    (lambda d: d["degrees"][0]["eigenvalues"].reverse(), "non-ascending"),
])
def test_custom_schema_rejections(mutate, tag):
    blob = bm.circle(2.0).as_custom_mapping()
    d = copy.deepcopy(blob)
    mutate(d)
    with pytest.raises(ValidationError):
        bm.custom(d)


def _set_entry(i, item):
    return lambda eig: eig.__setitem__(i, item)


def _set_field(i, key, value):
    return lambda eig: eig[i].__setitem__(key, value)


_NEED = "degree 0: eigenvalue entries need 'value' and 'mult'"
_ASCENT = "degree 0: eigenvalues must be finite and strictly ascending"


@pytest.mark.parametrize("mutate,prefix", [
    pytest.param(lambda eig: eig[3].pop("mult"), _NEED, id="missing-key"),
    pytest.param(_set_field(2, "value", "four"), _NEED, id="non-numeric-value"),
    pytest.param(_set_field(2, "value", None), _NEED, id="null-value"),
    pytest.param(_set_entry(1, [9.0, 2]), _NEED, id="non-dict-item"),
    pytest.param(_set_field(0, "value", math.nan), _ASCENT, id="nan"),
    pytest.param(_set_field(5, "value", math.inf), _ASCENT, id="inf"),
    pytest.param(lambda eig: eig.reverse(), _ASCENT, id="descending"),
    pytest.param(_set_field(4, "value", 64.0), _ASCENT, id="duplicate"),
    pytest.param(_set_field(2, "mult", 0), "degree 0: multiplicities must be >= 1",
                 id="mult-0"),
    pytest.param(_set_field(2, "mult", 2.7), "degree 0: multiplicities must be integers",
                 id="mult-2.7"),
    pytest.param(_set_field(2, "mult", math.inf),
                 "degree 0: multiplicities must be integers", id="mult-inf"),
])
def test_custom_refuses_malformed_degree_entries(mutate, prefix):
    blob = bm.circle(2.0).as_custom_mapping()
    mutate(blob["degrees"][0]["eigenvalues"])
    with pytest.raises(ValidationError) as info:
        bm.custom(blob)
    assert str(info.value).startswith(prefix)


def test_custom_names_the_first_offending_entry():
    # value checks come before mult checks at one entry, and earlier
    # entries before later ones, as a pass in list order would find them
    blob = bm.circle(2.0).as_custom_mapping()
    eig = blob["degrees"][0]["eigenvalues"]
    eig[7]["mult"], eig[9]["value"] = 0, 1.5
    with pytest.raises(ValidationError, match=r"must be >= 1 \(entry 7\)"):
        bm.custom(copy.deepcopy(blob))
    eig[7]["value"] = math.nan
    with pytest.raises(ValidationError, match=r"strictly ascending \(entry 7\)"):
        bm.custom(blob)


def test_custom_integral_float_multiplicities_load():
    blob = bm.circle(2.0).as_custom_mapping()
    for item in blob["degrees"][0]["eigenvalues"]:
        item["mult"] = float(item["mult"])
    want = bm.circle(2.0).coclosed_spectrum(0).mults
    assert np.array_equal(bm.custom(blob).coclosed_spectrum(0).mults, want)


@pytest.mark.parametrize("source,field", [
    pytest.param('{"dim": 1,', "spectrum text is not valid JSON", id="bad-json-text"),
    pytest.param(lambda d: d["degrees"][0].update(k="x"), "degree entry 'k'", id="k-text"),
    pytest.param(lambda d: d["degrees"][0].update(k=0.5), "degree entry 'k'",
                 id="k-fraction"),
    pytest.param(lambda d: d.update(dim="one"), "dim", id="dim-text"),
    pytest.param(lambda d: d.update(betti=5), "betti", id="betti-scalar"),
    pytest.param(lambda d: d.update(betti=["a", "b"]), "betti entry", id="betti-text"),
])
def test_custom_wraps_malformed_fields(source, field):
    if callable(source):
        blob = bm.circle(2.0).as_custom_mapping()
        source(blob)
        source = blob
    with pytest.raises(ValidationError) as info:
        bm.custom(source)
    assert str(info.value).startswith(field)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_custom_orientable_must_be_a_json_boolean(value):
    # bool("false") is True: a string must not load as orientable
    blob = bm.circle(2.0).as_custom_mapping()
    blob["orientable"] = value
    with pytest.raises(ValidationError, match="^orientable must be a JSON boolean"):
        bm.custom(blob)
    blob["orientable"] = True
    assert bm.custom(blob).orientable


@pytest.mark.parametrize("coeffs,message", [
    pytest.param([math.nan, -1.0], "degree 0: heat_coeffs entry 0 must be a finite number",
                 id="nan"),
    pytest.param([0.886, "inf"], "degree 0: heat_coeffs entry 1 must be a finite number",
                 id="text-inf"),
    pytest.param([0.886, -math.inf], "degree 0: heat_coeffs entry 1 must be a finite number",
                 id="minus-inf"),
    pytest.param([True, 0.0], "degree 0: heat_coeffs entry 0 must be a finite number",
                 id="bool"),
    pytest.param([0.886, 0.0, 10 ** 400], "degree 0: heat_coeffs entry 2 must be a finite number",
                 id="huge-int"),
    pytest.param("12", "degree 0: heat_coeffs must be a list of finite numbers", id="string"),
    pytest.param({"0": 1.0}, "degree 0: heat_coeffs must be a list of finite numbers",
                 id="object"),
])
def test_custom_heat_coeffs_must_be_a_list_of_finite_numbers(coeffs, message):
    blob = bm.circle(2.0).as_custom_mapping()
    blob["degrees"][0]["heat_coeffs"] = coeffs
    with pytest.raises(ValidationError) as info:
        bm.custom(blob)
    assert str(info.value).startswith(message)


def test_custom_heat_coeffs_accept_json_integers():
    blob = bm.circle(2.0).as_custom_mapping()
    want = bm.custom(blob).coclosed_spectrum(0).heat_powers
    coeffs = blob["degrees"][0]["heat_coeffs"]
    blob["degrees"][0]["heat_coeffs"] = [int(c) if c.is_integer() else c for c in coeffs]
    assert bm.custom(blob).coclosed_spectrum(0).heat_powers == want


def _set_eig(i, **fields):
    return lambda d: d["degrees"][0]["eigenvalues"][i].update(fields)


@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda d: d.update(scale=True), "scale must be a finite number, got True",
                 id="scale-true"),
    pytest.param(lambda d: d.update(scale="2.0"), "scale must be a finite number, got '2.0'",
                 id="scale-text"),
    pytest.param(lambda d: d.update(scale=10 ** 400), "scale must be a finite number, got 1000",
                 id="scale-huge-int"),
    pytest.param(lambda d: d.update(dim="1"), "dim must be an integer, got '1'",
                 id="dim-text"),
    pytest.param(lambda d: d.update(dim=True), "dim must be an integer, got True",
                 id="dim-true"),
    pytest.param(lambda d: d.update(betti=["1", True]),
                 "betti entry must be an integer, got '1' (entry 0)", id="betti-text"),
    pytest.param(lambda d: d.update(betti=[1, True]),
                 "betti entry must be an integer, got True (entry 1)", id="betti-true"),
    pytest.param(_set_eig(0, value="4.0", mult="2"),
                 "degree 0: eigenvalue entries need 'value' and 'mult' as numbers; "
                 "entry 0 has value '4.0'", id="value-text"),
    pytest.param(_set_eig(3, mult="2"),
                 "degree 0: eigenvalue entries need 'value' and 'mult' as numbers; "
                 "entry 3 has mult '2'", id="mult-text"),
    pytest.param(_set_eig(5, mult=True),
                 "degree 0: eigenvalue entries need 'value' and 'mult' as numbers; "
                 "entry 5 has mult True", id="mult-true"),
    pytest.param(_set_eig(6, value=False),
                 "degree 0: eigenvalue entries need 'value' and 'mult' as numbers; "
                 "entry 6 has value False", id="value-false"),
    pytest.param(lambda d: d["degrees"][0].update(k=True),
                 "degree entry 'k' must be an integer, got True (entry 0)", id="k-true"),
])
def test_custom_refuses_strings_and_bools_as_numbers(mutate, message):
    # float("2") and float(True) succeed, so a coercing loader would read
    # these as numbers (k = true filed degree 0's spectrum under degree 1)
    blob = bm.circle(2.0).as_custom_mapping()
    mutate(blob)
    with pytest.raises(ValidationError) as info:
        bm.custom(blob)
    assert str(info.value).startswith(message)


def test_custom_json_numbers_load_bitwise():
    # JSON ints and floats load as the same binary64 values, also through text
    circ = bm.circle(2.0)
    want = circ.coclosed_spectrum(0)
    blob = circ.as_custom_mapping()
    blob.update(scale=2, dim=1.0, betti=[1.0, 1])
    blob["degrees"][0]["k"] = 0.0
    for item in blob["degrees"][0]["eigenvalues"]:
        item["value"] = int(item["value"])
        item["mult"] = float(item["mult"])
    for source in (blob, json.dumps(blob)):
        got = bm.custom(source)
        assert (got.scale, got.dim, got.betti) == (2.0, 1, (1, 1))
        assert got.degrees_available() == (0,)
        stream = got.coclosed_spectrum(0)
        assert np.array_equal(stream.values, want.values)
        assert np.array_equal(stream.mults, want.mults)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: bm.circle(2.0), id="circle"),
    pytest.param(lambda: bm.torus2(2.187, [[2.0 * math.pi, 0.0], [2.19, 2.0 * math.pi]],
                                   nu_max=256.0), id="sheared-torus"),
])
def test_export_matches_a_loop_built_mapping(build):
    base = build()
    assert json.dumps(base.as_custom_mapping()) == json.dumps(oracles.custom_mapping(base))


def test_scaling_error_names_the_hypothesis():
    with pytest.raises(ValidationError, match="scaling assumption"):
        bm.circle(0.5)


# ---------------------------------------------------------------------------
# Frequency-set degree bounds.
# ---------------------------------------------------------------------------

def test_nu_set_degree_bounds():
    circ = bm.circle(2.0)
    for bad in (-1, 1):
        with pytest.raises(ValidationError, match="^degree must be an integer in 0..0 "
                           f"for a cross-section of dimension 1, got {bad}$"):
            degree_continuation(circ, bad)
    tor = bm.torus2(2.0)
    assert degree_continuation(tor, 1).alpha == -0.5   # degree n-1 allowed in dim 2
    with pytest.raises(ValidationError, match="^degree must be an integer in 0..1 "
                       "for a cross-section of dimension 2, got 2$"):
        degree_continuation(tor, 2)


def test_top_degree_has_no_coclosed_spectrum():
    # a coclosed n-form on a closed n-manifold is harmonic: the built-in
    # bases list degrees 0..n-1 only, and a top-degree listing is refused
    # with the degree named (the torus carried its function spectrum there)
    assert bm.circle(2.0).degrees_available() == (0,)
    tor = bm.torus2(2.0)
    assert tor.degrees_available() == (0, 1)
    assert [d["k"] for d in tor.as_custom_mapping()["degrees"]] == [0, 1]
    blob = bm.circle(2.0).as_custom_mapping()
    for k in (1, -1):
        bad = copy.deepcopy(blob)
        bad["degrees"][0]["k"] = k
        with pytest.raises(ValidationError, match=f"^degree {k} is outside 0..0: "):
            bm.custom(bad)
    deg = tor._degree(0)
    with pytest.raises(ValidationError, match="^degree 2 is outside 0..1: .* harmonic"):
        bm.BaseManifold(name="top", dim=2, betti=(1, 2, 1), scale=1.0,
                        degrees={0: deg, 2: deg})
