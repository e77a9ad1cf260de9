"""Base manifolds: spectra, theta traces vs brute force, the frequency sets
built over them, custom round trips, and validation."""

import copy
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conetorsion import basemanifold as bm
from conetorsion.errors import ValidationError
from conetorsion.torsion import degree_continuation, log_torsion
from conetorsion.zetacont import (MellinZeta, SpectrumStream, _lattice_points, _shortest,
                                  exact_stream, shift_heat_powers, sqrt_stream, zeta_data_exact)

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


def test_progression_lives_on_the_checked_stream():
    # a side map on the base held the progression unchecked: with circle(2)'s
    # stream, a (3.0, 2) entry there solved to the c = 3 answer
    deg = bm.circle(2.0).coclosed_spectrum(0)
    assert deg.progression == (2.0, 2)
    fields = dict(name="x", dim=1, betti=(1, 1), scale=2.0, degrees={0: deg})
    base = bm.BaseManifold(**fields)
    assert log_torsion(base).log_torsion == -0.47579135264472755
    assert log_torsion(bm.circle(2.0)).log_torsion == -0.47579135264472755
    assert list(inspect.signature(bm.BaseManifold).parameters) == [
        "name", "dim", "betti", "scale", "degrees", "boundary_ok", "truncation_note"]
    with pytest.raises(ValidationError, match="^spectrum stream 'relabelled' contradicts"):
        SpectrumStream(deg.values, deg.mults, name="relabelled", progression=(3.0, 2))
    # a shift leaves the progression; the exact route reads the unshifted stream
    assert deg.shifted(0.25).progression is None and deg.shifted(0.0) is deg
    assert bm.circle(1.0, allow_boundary=True).coclosed_spectrum(0).progression == (1.0, 2)
    assert bm.torus2(2.0).coclosed_spectrum(0).progression is None
    # numpy integers pass the library integer rule for dim, betti numbers and
    # degree keys, and are stored as ints (2.0 is refused, as by coclosed_spectrum)
    one = np.int64(1)
    same = bm.BaseManifold(**{**fields, "dim": one, "betti": (one, 1), "degrees": {one - 1: deg}})
    assert (same.dim, same.betti, same.degrees_available()) == (1, (1, 1), (0,))
    assert type(same.dim) is int and type(same.degrees_available()[0]) is int


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
    # both degrees shift by a_k^2 = 1/4, on the lattice route and on the
    # numeric route over the same stream without its lattice
    tor = bm.torus2(2.0)
    n0, n1 = degree_continuation(tor, 0), degree_continuation(tor, 1)
    assert n0.alpha == 0.5 and n1.alpha == -0.5
    assert n0.route == n1.route == "exact"
    assert n0.progression is None and n1.progression is None
    assert n0.q_stream is None and n1.q_stream is None
    assert n0.data == n1.data
    assert np.array_equal(n0.nu_stream.values, n1.nu_stream.values)
    assert n0.nu_stream.min_value == pytest.approx(math.sqrt(4.25), abs=1e-12)
    plain = oracles.without_lattice(tor)
    m0, m1 = degree_continuation(plain, 0), degree_continuation(plain, 1)
    assert m0.route == m1.route == "numeric"
    assert np.max(np.abs(m0.nu_stream.values - m1.nu_stream.values)) == 0.0
    assert np.array_equal(m0.nu_stream.values, n0.nu_stream.values)
    assert m0.q_stream.min_value == pytest.approx(4.25, abs=1e-12)


def test_streams_share_no_memory_with_their_source():
    # SpectrumStream copies its input, so callers pass their arrays as they
    # are; the unshifted spectrum is the base's stored stream itself
    tor = bm.torus2(2.0)
    deg = tor._degrees[0]
    assert tor.coclosed_spectrum(0) is deg
    exact = degree_continuation(tor, 0)
    plain = oracles.without_lattice(tor)
    ns = degree_continuation(plain, 0)
    lift = sqrt_stream(MellinZeta(ns.q_stream, s_max=1.0))
    for stream, source in ((ns.q_stream, deg), (ns.nu_stream, deg),
                           (lift, ns.q_stream), (exact.nu_stream, deg),
                           (plain.coclosed_spectrum(0), deg)):
        for got, given in ((stream.values, source.values),
                           (stream.mults, source.mults)):
            assert not np.shares_memory(got, given)
            assert not got.flags.writeable


def test_torus_shifted_heat_powers():
    # q = lambda + 1/4 shifts the theta expansion:
    # c_{-1} = A, c_0 = -A/4 - 1, c_1 = A/32 + 1/4 with A = pi/4 at scale 2
    n0 = degree_continuation(oracles.without_lattice(bm.torus2(2.0)), 0)
    A = math.pi / 4.0
    pw = dict(n0.q_stream.heat_powers)
    assert pw[-1.0] == pytest.approx(A, abs=1e-15)
    assert pw[0.0] == pytest.approx(-A / 4.0 - 1.0, abs=1e-15)
    assert pw[1.0] == pytest.approx(A / 32.0 + 0.25, abs=1e-15)


def test_torus_q_engine_residues_and_value():
    n0 = degree_continuation(oracles.without_lattice(bm.torus2(2.0)), 0)
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


def test_torus_refuses_a_nu_max_it_cannot_enumerate():
    # nu_max = 1e9 asked for a 7.45 GiB index array; under the address-space
    # cap a missing refusal fails here instead of exhausting the host
    src = str(Path(bm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from conetorsion.basemanifold import torus2\n"
            "from conetorsion.errors import ValidationError\n"
            "try:\n"
            "    torus2(2.0, nu_max=1e9)\n"
            "except ValidationError as exc:\n"
            "    sys.exit('nu_max' not in str(exc))\n"
            "sys.exit('loaded')\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


# the lattices of the cone_exact benchmark entries exact04, exact06 (sheared)
# and exact07 (stretched)
EXACT04 = ((2.0 * math.pi, 0.0), (2.821150202923634, 2.0 * math.pi))
EXACT06 = ((2.0 * math.pi, 0.0), (2.3436281195779856, 2.0 * math.pi))
EXACT07 = ((2.0 * math.pi, 0.0), (0.0, 8.94725587742373))


@pytest.mark.parametrize("lattice, c", [
    (None, 2.0), (EXACT04, 2.885), (EXACT06, 1.988), (EXACT07, 3.074),
    (((5.0, 1.0), (-2.0, 7.0)), 2.5),
], ids=["square", "exact04", "exact06", "exact07", "skew"])
def test_torus2_deriv0_matches_kronecker_limit_formula(lattice, c):
    # an oracle that shares nothing with the Mellin engine or the theta trace
    engine = MellinZeta(bm.torus2(c, lattice).coclosed_spectrum(0), s_max=1.0)
    assert engine.zeta0() == -1.0
    want = oracles.flat_torus_zeta_prime0(lattice or bm._DEFAULT_LATTICE, c)
    assert abs(engine.deriv0() - want) <= engine.error_estimate([0.0])


@pytest.mark.parametrize("unimodular", [((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (-1, 0))],
                         ids=["shear", "hyperbolic", "rotation"])
def test_torus2_is_invariant_under_a_change_of_lattice_basis(unimodular):
    # U in GL(2, Z) spans the same lattice: the same torus
    bases = [bm.torus2(2.885, EXACT04), bm.torus2(2.885, np.array(unimodular) @ EXACT04)]
    engines = [MellinZeta(b.coclosed_spectrum(0), s_max=1.0) for b in bases]
    gap = abs(engines[0].deriv0() - engines[1].deriv0())
    assert gap <= sum(e.error_estimate([0.0]) for e in engines)
    solves = [log_torsion(b) for b in bases]
    gap = abs(solves[0].log_torsion - solves[1].log_torsion)
    assert gap <= sum(s.error_estimate for s in solves)


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
    with pytest.raises(AttributeError, match="^SpectrumStream is read-only$"):
        bm.circle(2.0).coclosed_spectrum(0).progression = (3.0, 2)
    listing = bm.custom(bm.circle(2.0).as_custom_mapping())
    for base in (tor, listing):
        deg = base.coclosed_spectrum(0)
        for arr in (deg.values, deg.mults):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
    after = log_torsion(tor)
    assert (after.log_torsion, after.harmonic_term, after.error_estimate) == (
        before.log_torsion, before.harmonic_term, before.error_estimate)


def test_coclosed_spectrum_shift():
    circ = bm.circle(2.0)
    shifted = circ.coclosed_spectrum(0).shifted(0.25)
    plain = circ.coclosed_spectrum(0)
    assert np.allclose(shifted.values, plain.values + 0.25)
    t = np.array([0.4])
    assert shifted.trace(t)[0] == pytest.approx(
        math.exp(-0.25 * 0.4) * plain.trace(t)[0], rel=1e-14)
    with pytest.raises(TypeError):     # the shift is the stream's own
        circ.coclosed_spectrum(0, 0.25)


def _circle_listing(c):
    """Degree 0 of circle(c) as the builder lists it: (values, mults, powers)."""
    powers = ((-0.5, math.sqrt(math.pi) / c), (0.0, -1.0)) + tuple(
        (0.5 * j, 0.0) for j in range(1, 25))
    return (c * np.arange(1.0, 4097.0)) ** 2, np.full(4096, 2.0), powers


def _circle_stream_built_at_once(c):
    """circle(c)'s degree-0 stream made the way circle once made it on every
    call: listing, exact trace, heat powers and progression together."""
    values, mults, powers = _circle_listing(c)
    basis = np.array([[2.0 * math.pi]])
    dual = np.linalg.inv(basis).T
    t_switch, small, _ = bm._flat_torus_trace(c, basis, dual, _shortest(dual, basis),
                                              abs(float(np.linalg.det(basis))))
    return exact_stream(values, mults, t_switch, small, name=f"circle(c={c:g}):deg0",
                        heat_powers=powers, progression=(c, 2))


@pytest.mark.parametrize("c,boundary", [(1.0, True), (2.0, False), (6.685, False)])
def test_circle_stream_built_on_first_read_is_bitwise_the_eager_one(c, boundary):
    # the base holds degree 0 as the progression (c, 2); the first read builds
    # the stream, keeps it, and later reads return that object
    base = bm.circle(c, allow_boundary=boundary)
    assert base.progression(0) == (c, 2)
    lazy = base.coclosed_spectrum(0)
    assert base.coclosed_spectrum(0) is lazy is base._degrees[0]
    assert base.progression(0) == lazy.progression == (c, 2)
    eager = _circle_stream_built_at_once(c)
    assert lazy.name == eager.name and lazy.heat_powers == eager.heat_powers
    assert lazy.progression == eager.progression
    for got, want in ((lazy.values, eager.values), (lazy.mults, eager.mults)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 2.0
    # the trace switches from the listing to the Poisson form at t = pi/c^2
    switch = math.pi / (c * c)
    t = np.concatenate([switch * np.exp(np.linspace(-12.0, 6.0, 181)),
                        np.nextafter(switch, [0.0, switch, np.inf])])
    assert lazy.trace(t).tobytes() == eager.trace(t).tobytes()
    with pytest.raises(AttributeError, match="^SpectrumStream is read-only$"):
        lazy.progression = (3.0, 2)
    with pytest.raises(TypeError):
        base._degrees[0] = eager


def test_a_progression_degree_meets_the_scaling_condition_as_c_squared():
    fields = dict(name="x", dim=1, betti=(1, 1), scale=1.0)
    held = bm._Progression(1.0, 2, lambda: bm._circle_stream(1.0, "x:deg0"))
    with pytest.raises(ValidationError, match=f"^{bm.SCALING_MESSAGE}$"):
        bm.BaseManifold(**fields, degrees={0: held})
    base = bm.BaseManifold(**fields, degrees={0: held}, boundary_ok=True)
    assert base.progression(0) == (1.0, 2)
    assert base.coclosed_spectrum(0).min_value == 1.0
    for k, refusal in ((1, "^no coclosed spectrum supplied for degree 1 of x$"),
                       (0.0, "^degree must be an integer, got 0.0$")):
        with pytest.raises(ValidationError, match=refusal):
            base.progression(k)


def _torus2_listing(c, lattice=None):
    """Degrees 0 and 1 of torus2(c, lattice) as the builder lists them."""
    basis = np.array(lattice if lattice is not None else bm._DEFAULT_LATTICE, dtype=float)
    dual = np.linalg.inv(basis).T
    radius = max(64.0 / (2.0 * math.pi * c), 17.5 * _shortest(dual))
    eta = (4.0 * math.pi ** 2 * c * c) * _lattice_points(dual, radius)
    values, mults = oracles.merge_ties(eta, np.ones_like(eta))
    area = abs(float(np.linalg.det(basis))) / (4.0 * math.pi * c * c)
    powers = ((-1.0, area), (0.0, -1.0)) + tuple((float(j), 0.0) for j in range(1, 13))
    return values, mults, powers


_CUSTOM_BLOB = {"dim": 2, "betti": [1, 2, 1], "scale": 1.0, "degrees": [
    {"k": 0, "eigenvalues": [{"value": 1.5 + 0.25 * j, "mult": 1 + j % 3}
                             for j in range(400)], "heat_coeffs": [3.0, 0.0, -1.0]},
    {"k": 1, "eigenvalues": [{"value": 2.0 + j, "mult": 2} for j in range(300)],
     "heat_coeffs": [1.5, -0.5]}]}


def _custom_listing(k):
    entry = _CUSTOM_BLOB["degrees"][k]
    eig = entry["eigenvalues"]
    powers = tuple((0.5 * (j - 2), c) for j, c in enumerate(entry["heat_coeffs"]))
    return (np.array([e["value"] for e in eig], dtype=float),
            np.array([e["mult"] for e in eig], dtype=float), powers)


@pytest.mark.parametrize("build,listing", [
    pytest.param(lambda: bm.circle(2.0), lambda k: _circle_listing(2.0), id="circle"),
    pytest.param(lambda: bm.torus2(2.0), lambda k: _torus2_listing(2.0), id="square-torus"),
    pytest.param(lambda: bm.torus2(2.885, ((2.0 * math.pi, 0.0), (2.0, 5.0))),
                 lambda k: _torus2_listing(2.885, ((2.0 * math.pi, 0.0), (2.0, 5.0))),
                 id="sheared-torus"),
    pytest.param(lambda: bm.custom(_CUSTOM_BLOB), _custom_listing, id="custom"),
])
def test_coclosed_spectrum_is_the_stored_stream_or_its_shift(build, listing):
    # each degree is stored once, as its unshifted stream; a shifted request
    # is bitwise the stream a per-call build from the degree's listing gives
    base = build()
    t = np.exp(np.linspace(math.log(1e-4), math.log(30.0), 97))
    for k in base.degrees_available():
        stored = base._degrees[k]
        assert stored is base.coclosed_spectrum(k) is stored.shifted(0.0)
        values, mults, powers = listing(k)
        for b in (0.0, 0.25, 1.5):
            heat_fn = stored.heat_fn
            if heat_fn is not None and b != 0.0:
                heat_fn = lambda tt, _b=b, _f=stored.heat_fn: np.exp(-_b * np.asarray(tt)) * _f(tt)
            want = SpectrumStream(values + b, mults, heat_fn=heat_fn,
                                  heat_powers=shift_heat_powers(powers, b))
            got = base.coclosed_spectrum(k).shifted(b)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.mults, want.mults)
            assert got.heat_powers == want.heat_powers
            assert (got.heat_fn is None) == (want.heat_fn is None)
            assert np.array_equal(got.trace(t), want.trace(t))


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
    d = oracles.custom_mapping(bm.circle(2.0))
    mutate(d)
    for source in (d, oracles.columnar(d)):
        with pytest.raises(ValidationError):
            bm.custom(source)


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
    pytest.param(_set_field(0, "value", 0.0), "spectrum stream custom:deg0 values",
                 id="zero-value"),
    pytest.param(_set_field(0, "value", -4.0), "spectrum stream custom:deg0 values",
                 id="negative-value"),
    pytest.param(_set_field(2, "mult", 0), "degree 0: multiplicities must be >= 1",
                 id="mult-0"),
    pytest.param(_set_field(2, "mult", 2.7), "degree 0: multiplicities must be integers",
                 id="mult-2.7"),
    pytest.param(_set_field(2, "mult", math.inf),
                 "degree 0: multiplicities must be integers", id="mult-inf"),
])
def test_custom_refuses_malformed_degree_entries(mutate, prefix):
    blob = oracles.custom_mapping(bm.circle(2.0))
    mutate(blob["degrees"][0]["eigenvalues"])
    for source in (blob, oracles.columnar(blob)):
        with pytest.raises(ValidationError) as info:
            bm.custom(source)
        assert str(info.value).startswith(prefix)


def test_custom_names_the_first_offending_entry():
    # value checks come before mult checks at one entry, and earlier
    # entries before later ones, as a pass in list order would find them
    blob = oracles.custom_mapping(bm.circle(2.0))
    eig = blob["degrees"][0]["eigenvalues"]
    eig[7]["mult"], eig[9]["value"] = 0, 1.5
    for source in (copy.deepcopy(blob), oracles.columnar(blob)):
        with pytest.raises(ValidationError, match=r"must be >= 1 \(entry 7\)"):
            bm.custom(source)
    eig[7]["value"] = math.nan
    for source in (oracles.columnar(blob), blob):
        with pytest.raises(ValidationError, match=r"strictly ascending \(entry 7\)"):
            bm.custom(source)


@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda eig: eig[-1].pop("mult"), f"{_NEED}; entry 4095 has no 'mult'",
                 id="missing-mult"),
    pytest.param(lambda eig: eig[-1].pop("value"), f"{_NEED}; entry 4095 has no 'value'",
                 id="missing-value"),
    pytest.param(_set_field(2, "value", "four"), f"{_NEED} as numbers; entry 2 has value 'four'",
                 id="string-value"),
    pytest.param(_set_field(5, "mult", True), f"{_NEED} as numbers; entry 5 has mult True",
                 id="bool-mult"),
    pytest.param(_set_field(3, "mult", None), f"{_NEED} as numbers; entry 3 has mult None",
                 id="null-mult"),
    pytest.param(_set_field(0, "value", math.nan), f"{_ASCENT} (entry 0)", id="nan"),
    pytest.param(_set_field(5, "value", math.inf), f"{_ASCENT} (entry 5)", id="inf"),
    pytest.param(_set_field(5, "value", 10 ** 400), f"{_ASCENT} (entry 5)", id="huge-int"),
    pytest.param(lambda eig: eig.reverse(), f"{_ASCENT} (entry 1)", id="descending"),
    pytest.param(_set_field(4, "value", 64.0), f"{_ASCENT} (entry 4)", id="repeated"),
    pytest.param(_set_field(2, "mult", 0), "degree 0: multiplicities must be >= 1 (entry 2)",
                 id="mult-0"),
    pytest.param(_set_field(2, "mult", 2.7),
                 "degree 0: multiplicities must be integers, got 2.7 (entry 2)", id="mult-2.7"),
    pytest.param(_set_field(2, "mult", math.inf),
                 "degree 0: multiplicities must be integers, got inf (entry 2)", id="mult-inf"),
    pytest.param(_set_field(2, "mult", 10 ** 400),
                 "degree 0: multiplicities must be integers, got inf (entry 2)",
                 id="mult-huge-int"),
    pytest.param(_set_field(0, "value", 0.5), bm.SCALING_MESSAGE, id="value-below-1"),
    pytest.param(_set_field(0, "value", 1), bm.SCALING_MESSAGE, id="value-1"),
])
def test_custom_refusals_match_across_forms(mutate, message):
    # one bad datum gets one refusal, from either form, as a mapping or as text
    blob = oracles.custom_mapping(bm.circle(2.0))
    mutate(blob["degrees"][0]["eigenvalues"])
    twin = oracles.columnar(blob)
    for source in (blob, twin, json.dumps(blob), json.dumps(twin)):
        with pytest.raises(ValidationError) as info:
            bm.custom(source)
        assert str(info.value) == message


def test_custom_integral_float_multiplicities_load():
    blob = oracles.custom_mapping(bm.circle(2.0))
    for item in blob["degrees"][0]["eigenvalues"]:
        item["mult"] = float(item["mult"])
    want = bm.circle(2.0).coclosed_spectrum(0).mults
    for source in (blob, oracles.columnar(blob)):
        assert np.array_equal(bm.custom(source).coclosed_spectrum(0).mults, want)


def _degree0(**fields):
    """Set fields of the first degree entry; ``...`` removes one."""
    def mutate(d):
        entry = d["degrees"][0]
        for key, value in fields.items():
            if value is ...:
                del entry[key]
            else:
                entry[key] = value
    return mutate


@pytest.mark.parametrize("source,field", [
    pytest.param('{"dim": 1,', "spectrum text is not valid JSON", id="bad-json-text"),
    pytest.param(lambda d: d["degrees"][0].update(k="x"), "degree entry 'k'", id="k-text"),
    pytest.param(lambda d: d["degrees"][0].update(k=0.5), "degree entry 'k'",
                 id="k-fraction"),
    pytest.param(lambda d: d.update(dim="one"), "dim", id="dim-text"),
    pytest.param(lambda d: d.update(betti=5), "betti", id="betti-scalar"),
    pytest.param(lambda d: d.update(betti=["a", "b"]), "betti entry", id="betti-text"),
    pytest.param(_degree0(eigenvalues=[{"value": 4.0, "mult": 2}], values=["junk"]),
                 "degree 0 gives both 'eigenvalues' and 'values'/'mults': use one form",
                 id="both-forms"),
    pytest.param(_degree0(eigenvalues=[{"value": 4.0, "mult": 2}], values=...),
                 "degree 0 gives both 'eigenvalues' and 'mults': use one form",
                 id="rows-and-mults"),
    pytest.param(_degree0(mults=...), "degree 0: columnar eigenvalues need both 'values' "
                 "and 'mults', got only 'values'", id="values-without-mults"),
    pytest.param(_degree0(values=...), "degree 0: columnar eigenvalues need both 'values' "
                 "and 'mults', got only 'mults'", id="mults-without-values"),
    pytest.param(_degree0(values=..., mults=...), "degree 0 needs a nonempty eigenvalue list",
                 id="no-listing"),
    pytest.param(_degree0(values="4.0"), "degree 0: 'values' must be a nonempty list",
                 id="values-text"),
    pytest.param(_degree0(mults={"0": 2}), "degree 0: 'mults' must be a nonempty list",
                 id="mults-object"),
    pytest.param(_degree0(values=[]), "degree 0: 'values' must be a nonempty list",
                 id="values-empty"),
    pytest.param(_degree0(mults=[]), "degree 0: 'mults' must be a nonempty list",
                 id="mults-empty"),
    pytest.param(lambda d: d["degrees"][0]["mults"].pop(),
                 "degree 0: eigenvalue entries need 'value' and 'mult'; entry 4095 has no 'mult'",
                 id="mults-short"),
    pytest.param(lambda d: d["degrees"][0]["values"].pop(0),
                 "degree 0: eigenvalue entries need 'value' and 'mult'; entry 4095 has no 'value'",
                 id="values-short"),
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
    pytest.param(lambda d: d.update(truncation_note=None),
                 "truncation_note must be a string, got None", id="note-null"),
    pytest.param(lambda d: d.update(truncation_note=3),
                 "truncation_note must be a string, got 3", id="note-number"),
    pytest.param(lambda d: d.update(truncation_note=[1, 2]),
                 "truncation_note must be a string, got [1, 2]", id="note-list"),
])
def test_custom_refuses_strings_and_bools_as_numbers(mutate, message):
    # float("2") and float(True) succeed, so a coercing loader would read
    # these as numbers (k = true filed degree 0's spectrum under degree 1)
    blob = oracles.custom_mapping(bm.circle(2.0))
    mutate(blob)
    for source in (blob, oracles.columnar(blob)):
        with pytest.raises(ValidationError) as info:
            bm.custom(source)
        assert str(info.value).startswith(message)


def test_custom_truncation_note_is_an_optional_string():
    # a missing note is the empty one, and the export then writes its
    # default (null once loaded as the text 'None' and exported as "None")
    blob = bm.circle(2.0).as_custom_mapping()
    assert bm.custom(blob).truncation_note == "finite listing exported from circle(c=2)"
    del blob["truncation_note"]
    base = bm.custom(blob)
    assert base.truncation_note == ""
    assert base.as_custom_mapping()["truncation_note"] == "finite listing exported from custom"


def test_custom_json_numbers_load_bitwise():
    # JSON ints and floats load as the same binary64 values, also through text
    circ = bm.circle(2.0)
    want = circ.coclosed_spectrum(0)
    blob = oracles.custom_mapping(circ)
    blob.update(scale=2, dim=1.0, betti=[1.0, 1])
    blob["degrees"][0]["k"] = 0.0
    for item in blob["degrees"][0]["eigenvalues"]:
        item["value"] = int(item["value"])
        item["mult"] = float(item["mult"])
    for source in (blob, json.dumps(blob), oracles.columnar(blob),
                   json.dumps(oracles.columnar(blob))):
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
    # the export is the columnar form, built entry by entry here
    base = build()
    want = oracles.columnar(oracles.custom_mapping(base))
    assert json.dumps(base.as_custom_mapping()) == json.dumps(want)


def _two_degree_rows():
    """Degree 0 of a torus2 export beside a short degree-1 listing of its own."""
    rows = oracles.custom_mapping(bm.torus2(2.0, nu_max=256.0))
    rows["degrees"][1] = copy.deepcopy(_CUSTOM_BLOB["degrees"][1])
    return rows, oracles.columnar(rows)


def _export_forms(base):
    return oracles.custom_mapping(base), base.as_custom_mapping()


@pytest.mark.parametrize("forms", [
    pytest.param(lambda: _export_forms(bm.circle(2.0)), id="circle"),
    pytest.param(lambda: _export_forms(bm.torus2(2.0, nu_max=256.0)), id="square-torus"),
    pytest.param(lambda: _export_forms(bm.torus2(
        2.187, [[2.0 * math.pi, 0.0], [2.19, 2.0 * math.pi]], nu_max=256.0)),
        id="sheared-torus"),
    pytest.param(_two_degree_rows, id="two-degree-custom"),
])
def test_row_and_columnar_forms_load_bitwise_alike(forms):
    rows, columns = (bm.custom(json.dumps(blob)) for blob in forms())
    assert rows.degrees_available() == columns.degrees_available()
    for k in rows.degrees_available():
        a, b = rows.coclosed_spectrum(k), columns.coclosed_spectrum(k)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.mults.tobytes() == b.mults.tobytes()
        assert a.heat_powers == b.heat_powers
    a, b = log_torsion(rows), log_torsion(columns)
    assert (a.log_torsion, a.error_estimate, a.harmonic_term) == (
        b.log_torsion, b.error_estimate, b.harmonic_term)



def _dual_pair_blob():
    """_CUSTOM_BLOB's degree 0 listed again, unchanged, as degree 1."""
    blob = copy.deepcopy(_CUSTOM_BLOB)
    blob["degrees"][1] = {**copy.deepcopy(blob["degrees"][0]), "k": 1}
    return blob


def test_custom_loads_a_dual_pair_as_one_stream():
    # a torus2 export lists its one spectrum under degrees 0 and 1; the second
    # is the first's stream, in either form and through text
    export = bm.torus2(2.0, nu_max=256.0).as_custom_mapping()
    for source in (export, json.dumps(export), oracles.custom_mapping(bm.torus2(2.0)),
                   _dual_pair_blob(), oracles.columnar(_dual_pair_blob())):
        base = bm.custom(source)
        assert base.coclosed_spectrum(1) is base.coclosed_spectrum(0)
        assert base.coclosed_spectrum(1).name == "custom:deg0"
    # JSON floats equal to the ints of the dual's list load alike
    blob = _dual_pair_blob()
    for item in blob["degrees"][1]["eigenvalues"]:
        item["mult"] = float(item["mult"])
    base = bm.custom(blob)
    assert base.coclosed_spectrum(1) is base.coclosed_spectrum(0)


def test_custom_dual_pair_differing_bitwise_is_loaded_apart():
    # heat coefficients equal as numbers but not bitwise: a stream of its own
    blob = _dual_pair_blob()
    blob["degrees"][1]["heat_coeffs"][1] = -0.0
    base = bm.custom(blob)
    low, high = base.coclosed_spectrum(0), base.coclosed_spectrum(1)
    assert high is not low and high.name == "custom:deg1"
    assert np.array_equal(high.values, low.values) and np.array_equal(high.mults, low.mults)
    assert high.heat_powers[1] == (-0.5, -0.0) and math.copysign(1.0, high.heat_powers[1][1]) < 0
    # a bool equals 1 but is still refused, in the words of a list of its own
    blob = _dual_pair_blob()
    blob["degrees"][1]["eigenvalues"][0]["mult"] = True
    assert blob["degrees"][1] == {**blob["degrees"][0], "k": 1}
    for source in (blob, oracles.columnar(blob)):
        with pytest.raises(ValidationError, match="^degree 1: eigenvalue entries need 'value' "
                           "and 'mult' as numbers; entry 0 has mult True$"):
            bm.custom(source)

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
    deg = tor.coclosed_spectrum(0)
    with pytest.raises(ValidationError, match="^degree 2 is outside 0..1: .* harmonic"):
        bm.BaseManifold(name="top", dim=2, betti=(1, 2, 1), scale=1.0,
                        degrees={0: deg, 2: deg})
