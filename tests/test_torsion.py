"""Torsion assembly: closed forms vs the independent spectral routes, the
large-order remainder analysis, and the degree/parity bookkeeping."""

import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest

from conetorsion import zetacont
from conetorsion.basemanifold import BaseManifold, circle, custom, torus2
from conetorsion.besselzero import ZeroRequest, zeros
from conetorsion.derivation import (
    SpectralParameter,
    asymptotic_remainder,
    f_r,
    fit_remainder,
    frequency_log_term,
    lemma_first_summand_numeric,
    remainder_asymptote,
    t_nu_k,
)
from conetorsion.errors import ValidationError
from conetorsion.exactpoly import gen_D, gen_M
from conetorsion.modelops import ModelOperator, det_numeric
from conetorsion.selftest import corollary_3d_precancellation
from conetorsion.torsion import (
    ConeOverS1Config,
    corollary_2d,
    corollary_3d,
    degree_continuation,
    lemma_first_summand,
    log_torsion,
    theorem_main,
    zeta_k_prime0,
)

import oracles


# ---------------------------------------------------------------------------
# Closed-form surface values.
# ---------------------------------------------------------------------------

def test_theorem_main_exact_values():
    disc = theorem_main(ConeOverS1Config(radius=1.0, nu_angle=1.0))
    assert abs(disc - 0.5 * (-math.log(math.pi) - 1.0)) < 1e-15
    v12 = theorem_main(ConeOverS1Config(1.0, 2.0))
    assert abs(v12 - 0.5 * (-math.log(math.pi) + math.log(2.0) - 0.5)) < 1e-15
    v21 = theorem_main(ConeOverS1Config(2.0, 1.0))
    assert abs(v21 - 0.5 * (-math.log(4.0 * math.pi) - 1.0)) < 1e-15


# ---------------------------------------------------------------------------
# Frequency terms and the lambda -> 0- collapse.
# ---------------------------------------------------------------------------

def test_frequency_log_term_alpha_zero_odd_branch():
    sp0 = SpectralParameter(-1e-8)
    assert frequency_log_term(3.0, 0.0, sp0, "odd") == 0.0


@pytest.mark.parametrize("nu", [2.0, 5.0, 10.0])
def test_remainder_collapses_at_zero(nu):
    sp0 = SpectralParameter(-1e-8)
    assert abs(asymptotic_remainder(nu, 0, 2, sp0)) <= 1e-6   # odd parity
    assert abs(asymptotic_remainder(nu, 0, 3, sp0)) <= 1e-6   # even parity


def test_f1_matches_printed_polynomial():
    # r=1, n=1, k=0: f_1(t) = t - t^3
    sp = SpectralParameter(-3.0)          # t = 1/2
    assert abs(f_r(1, 0, 1, sp) - (0.5 - 0.125)) < 1e-15
    spx = SpectralParameter(-0.7)
    tx = spx.t
    assert abs(f_r(1, 0, 1, spx) - (tx - tx ** 3)) < 1e-14


@pytest.mark.parametrize("r", [1, 2, 3])
def test_f_r_vanishes_at_t_one(r):
    sp1 = SpectralParameter(-1e-12)
    assert abs(f_r(r, 0, 2, sp1)) < 1e-9
    assert abs(f_r(r, 0, 3, sp1)) < 1e-9


def test_even_parity_large_order_anchor():
    # even parity: t_nu - sum_{r<=3} f_r/nu^r -> -log(1 - lambda), with the
    # residual shrinking like nu^-4
    lam = -2.0
    sp = SpectralParameter(lam)
    res = {}
    for nu in (20.0, 40.0):
        res[nu] = abs(t_nu_k(nu, 0, 3, sp)
                      - math.fsum(f_r(r, 0, 3, sp) / nu ** r for r in range(1, 4))
                      + math.log(1.0 - lam))
    assert res[20.0] < 1e-4
    ratio = res[20.0] / res[40.0]
    assert 10.0 < ratio < 24.0       # 2^4 = 16 within sampling slack


def test_odd_parity_large_order_anchor():
    # odd parity carries no constant extra term; residual is O(nu^-3)
    lam = -2.0
    sp = SpectralParameter(lam)
    res = {}
    for nu in (20.0, 40.0):
        res[nu] = abs(t_nu_k(nu, 0, 2, sp)
                      - math.fsum(f_r(r, 0, 2, sp) / nu ** r for r in range(1, 3)))
    assert res[20.0] < 1e-4
    ratio = res[20.0] / res[40.0]
    assert 5.0 < ratio < 12.0        # 2^3 = 8 within sampling slack


@pytest.mark.parametrize("nu", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("k,n", [(0, 2), (0, 3)])
def test_deep_negative_lambda_asymptote_fit(nu, k, n):
    a_pred, b_pred = remainder_asymptote(nu, k, n)
    a_fit, b_fit = fit_remainder(nu, k, n)
    assert abs(a_fit - a_pred) < 1e-3
    assert abs(b_fit - b_pred) < 1e-3


# ---------------------------------------------------------------------------
# Circle cones: assembly vs two closed forms.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
def test_circle_three_routes_agree(c):
    base = circle(c)
    bd = log_torsion(base)
    closed = theorem_main(ConeOverS1Config(radius=1.0, nu_angle=c))
    assert abs(bd.log_torsion - closed) < 1e-10
    assert abs(bd.log_torsion - corollary_2d(base)) < 1e-12
    assert abs(oracles.recombined(bd) - bd.log_torsion) < 1e-14
    assert bd.parity == "even"
    assert bd.per_degree[0]["weight"] == 0.25   # (1/2) * middle-degree delta


def test_circle_at_unit_scale_is_the_disc():
    bd1 = log_torsion(circle(1.0, allow_boundary=True))
    disc = theorem_main(ConeOverS1Config(radius=1.0, nu_angle=1.0))
    assert abs(bd1.log_torsion - disc) < 1e-12


def test_middle_degree_delta_is_load_bearing():
    # dropping the 1/2 factor on the middle degree must visibly break the
    # circle assembly (guards against silently absorbing it elsewhere)
    base = circle(2.0)
    bd = log_torsion(base)
    per_degree = {k: dict(entry) for k, entry in bd.per_degree.items()}
    per_degree[(base.dim - 1) // 2]["weight"] *= 2.0
    wrong = oracles.recombined(dataclasses.replace(bd, per_degree=per_degree))
    assert abs(wrong - corollary_2d(base)) > 1e-6


def test_degree_continuation_is_read_only():
    # the cached record is shared by every later solve on the same base, so
    # no write into it may succeed (a write into the old mutable cache moved
    # log_torsion(circle(2)) from -0.4758 to 0.0242)
    base = circle(2.0)
    dc = degree_continuation(base, 0)
    assert dc is degree_continuation(base, 0)
    attempts = [
        lambda: setattr(dc, "data", None),
        lambda: setattr(dc, "route", "numeric"),
        lambda: setattr(dc, "shift_errors", {}),
        lambda: setattr(dc, "check_residual", 1.0),
        lambda: setattr(dc.data, "deriv0", 0.0),
        lambda: dc.data.deriv0_shifted.__setitem__(0.0, 1.0),
        lambda: dc.data.residues.__setitem__(1, 0.0),
        lambda: dc.data.pp.__setitem__(1, 0.0),
        lambda: dc.shift_errors.__setitem__(0.0, 1.0),
    ]
    for attempt in attempts:
        with pytest.raises((AttributeError, TypeError)):
            attempt()
    assert log_torsion(base).log_torsion == -0.47579135264472755
    assert log_torsion(circle(2.0)).log_torsion == -0.47579135264472755

    # the spectra the record reads are shared too: the lift cross-check of a
    # torus on the numeric route reads the squared stream eta + 1/4 on first
    # use (a doubled mults array moved error_estimate from 5.4e-12 to 1.39);
    # the base's stream shifted gives that stream bitwise
    tor = oracles.without_lattice(torus2(2.0))
    dc = degree_continuation(tor, 0)
    q_stream = tor.coclosed_spectrum(0).shifted(0.25)
    for arr in (q_stream.mults, q_stream.values,
                dc.nu_stream.values, dc.nu_stream.mults):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] *= 2.0
    # and so are the streams' attributes (a zero heat_fn on the squared
    # stream moved error_estimate from 5.4e-12 to 12.05; new nu_stream values
    # moved dc.shifted(0.3))
    shifted = dc.shifted(0.3)
    for stream, attr, value in ((q_stream, "heat_fn", lambda t: 0 * t),
                                (dc.nu_stream, "values", dc.nu_stream.values * 2.0),
                                (q_stream, "heat_powers", ()),
                                (dc.nu_stream, "density_exponent", 7.0)):
        with pytest.raises(AttributeError, match="SpectrumStream is read-only"):
            setattr(stream, attr, value)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(stream, attr)
    assert dc.shifted(0.3) == shifted
    # the lift cross-check solves nu_stream on first use, its small-t powers
    # made by the engine on the squared stream (an appended heat power moved
    # error_estimate from 5.4e-12 to 5.1e-4, a doubled trace grid to 1.1e-4)
    engine = zetacont.MellinZeta(q_stream, s_max=0.5 * zetacont.RMAX)
    for powers in (engine.powers, dc.nu_stream.heat_powers):
        with pytest.raises(AttributeError):
            powers.append((9.0, 1e3))
    for arr in (engine._zs, engine._ts, engine._ws, engine._zl, engine._hs):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] *= 2.0
    with pytest.raises(AttributeError, match="MellinZeta is read-only"):
        engine._zs = engine._zs * 2.0
    assert (log_torsion(tor).error_estimate
            == log_torsion(oracles.without_lattice(torus2(2.0))).error_estimate)

    # the lattice route's record: its data, its frequency listing, and the
    # base's lattice record the route reads
    tor = torus2(2.0)
    dc = degree_continuation(tor, 0)
    bound = log_torsion(tor)
    basis = tor.lattice(0).basis
    for attempt in (lambda: dc.data.pp_errors.__setitem__(16, 0.0),
                    lambda: setattr(tor.lattice(0), "lead", 1.0)):
        with pytest.raises((AttributeError, TypeError)):
            attempt()
    for arr in (dc.nu_stream.values, dc.nu_stream.mults, basis):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] *= 2.0
    assert log_torsion(tor) == bound == log_torsion(torus2(2.0))


def test_exact_route_builds_no_stream(monkeypatch):
    # the closed form over the progression reads no stream, so none is built
    # (a tagged 4096-value progression stream and the squared stream were);
    # the bases hold their degrees as a progression and a lattice record,
    # which build no stream on construction (torus2 built its eigenvalue
    # stream there) and none on the exact routes
    built = []
    init = zetacont.SpectrumStream.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("name", ""))
        init(self, *args, **kwargs)

    monkeypatch.setattr(zetacont.SpectrumStream, "__init__", counting_init)
    circ, tor = circle(2.0), torus2(2.0)
    assert built == []
    dc = degree_continuation(circ, 0)
    assert built == []
    assert dc.route == "exact" and dc.progression == (2.0, 2) and dc.nu_stream is None
    dc = degree_continuation(tor, 0)
    # the lattice route lists the frequencies once, for the relation path
    assert built == ["sqrt(torus2(c=2, square):deg0,1+0.25)"]
    assert dc.route == "exact" and dc.progression is None
    built.clear()
    log_torsion(tor)
    assert built == []
    # on the numeric route the square-root lift is the record's nu_stream:
    # the cross-check that solves it builds no stream of its own (it
    # rebuilt the lift); the base over the torus's own stream reads it first
    tor = oracles.without_lattice(tor)
    assert built == ["torus2(c=2, square):deg0,1"]
    built.clear()
    dc = degree_continuation(tor, 0)
    assert built == ["torus2(c=2, square):deg0,1+0.25",
                     "sqrt(torus2(c=2, square):deg0,1+0.25)"]
    assert dc.route == "numeric" and dc.progression is None
    built.clear()
    log_torsion(tor)
    assert built == []


def test_the_lift_rides_on_nu_stream_where_its_model_holds():
    # the lattice route lists the frequencies plainly: no lift to check
    dc = degree_continuation(torus2(2.0), 0)
    assert dc.nu_stream.heat_fn is None and dc.check_residual == 0.0
    # an exact trace with no t^(j/2) term for odd j: the lifted trace, and
    # the cross-check on it is bitwise the one on a lift built apart (1.9e-13)
    dc = degree_continuation(oracles.without_lattice(torus2(2.0)), 0)
    assert dc.nu_stream.heat_fn is not None
    q_engine = zetacont.MellinZeta(torus2(2.0).coclosed_spectrum(0).shifted(0.25),
                                   s_max=0.5 * zetacont.RMAX)
    lift = zetacont.MellinZeta(zetacont.sqrt_stream(q_engine), s_max=1.0)
    assert dc.check_residual == max(
        [abs(lift.deriv0() - dc.data.deriv0)]
        + [abs(lift.deriv0_shifted(s) - dc.data.deriv0_shifted[s]) for s in (0.5, -0.5)])
    assert 0.0 < dc.check_residual < 1e-12
    # circle(2)'s stream on a 2-dimensional base: q = eta + 1/4 has a nonzero
    # t^(1/2) term, so no lift (its cross-check raised ZeroDivisionError)
    base = BaseManifold(name="x", dim=2, betti=(1, 0, 1), scale=2.0,
                        degrees={0: circle(2.0).coclosed_spectrum(0)})
    dc = degree_continuation(base, 0)
    assert dc.nu_stream.heat_fn is None and dc.check_residual == 0.0
    result = log_torsion(base)
    assert abs(result.log_torsion - 0.5544944766449895) <= result.error_estimate < 1e-11
    # a listing has no exact trace to lift
    listing = custom(torus2(2.0, nu_max=256).as_custom_mapping())
    dc = degree_continuation(listing, 0)
    assert dc.nu_stream.heat_fn is None and dc.check_residual == 0.0
    assert np.array_equal(dc.nu_stream.values,
                          np.sqrt(listing.coclosed_spectrum(0).shifted(0.25).values))


@pytest.mark.parametrize("build", [lambda: circle(2.0), lambda: torus2(2.0)],
                         ids=["exact", "numeric"])
@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
def test_shifted_refuses_a_non_finite_shift(build, shift):
    # a nan shift slipped through the relation path as a nan value with a nan
    # error (which no tolerance comparison refuses); the exact route blamed
    # ln_gamma
    dc = degree_continuation(build(), 0)
    with pytest.raises(ValidationError, match="^shift must be a finite real"):
        dc.shifted(shift)
    value, err = dc.shifted(0.3)
    assert math.isfinite(value) and math.isfinite(err)


def test_breakdown_metadata():
    bd = log_torsion(circle(2.0))
    assert bd.base_id.startswith("circle")
    assert bd.scale == 2.0
    assert len(bd.per_degree) == 1
    assert bd.harmonic_term == 0.5 * math.log(2.0)


def test_residue_multipliers_are_cached_bitwise():
    # the residue multipliers depend on (alpha_k, n) alone: the cached tuple
    # is bitwise a fresh computation from the exact brackets
    from conetorsion.exactpoly import parity_bracket
    from conetorsion.specfun import EULER_GAMMA, digamma
    from conetorsion.torsion import _alpha_k, _parity, _residue_multipliers
    for n in range(1, 6):
        for k in range((n + 1) // 2):
            alpha, parity = _alpha_k(k, n), _parity(n)
            fresh, sensitivity = [], 0.0
            for i in range(1, n + 1):
                coeff_sum, power_comb = parity_bracket(i, alpha, parity)
                m = (-1.0) ** (i + 1) * float(power_comb) * (
                    0.5 * EULER_GAMMA + digamma(float(i)))
                m += 0.5 * math.fsum(float(c) * digamma(b + 0.5 * i)
                                     for b, c in enumerate(coeff_sum))
                fresh.append(m)
                sensitivity += abs(m)
            cached = _residue_multipliers(alpha, n)
            assert cached is _residue_multipliers(alpha, n)
            assert isinstance(cached[0], tuple) and len(cached[0]) == n
            assert [x.hex() for x in cached[0]] == [x.hex() for x in fresh]
            assert cached[1].hex() == sensitivity.hex()


# ---------------------------------------------------------------------------
# Torus cone: assembly vs the 3d closed form (dual-path check).
# ---------------------------------------------------------------------------

def test_torus_assembly_matches_closed_form():
    tor = torus2(2.0)
    bd = log_torsion(tor)
    c3 = corollary_3d(tor)
    assert abs(bd.log_torsion - c3) < 1e-8
    assert bd.error_estimate <= 1e-8
    assert bd.parity == "odd"
    assert bd.per_degree[0]["weight"] == 0.5
    assert abs(oracles.recombined(bd) - bd.log_torsion) < 1e-14
    # the pre-cancellation digamma form must collapse to the same constants
    assert abs(corollary_3d_precancellation(tor) - c3) < 1e-12
    assert bd.harmonic_term == -0.5 * math.log(3.0)


# ---------------------------------------------------------------------------
# First-sector lemma: numeric regularization vs closed form.
# ---------------------------------------------------------------------------

def test_lemma_first_summand_numeric_vs_closed():
    val, err = lemma_first_summand_numeric(1.0, 2000)
    closed = lemma_first_summand(1.0)
    assert abs(val - closed) < 1e-6
    assert abs(val - closed) <= err + 1e-12   # estimate is honest
    # closed-form radius dependence: -3/2 log R
    assert abs(lemma_first_summand(2.0) - closed + 1.5 * math.log(2.0)) < 1e-15


def test_lemma_first_summand_numeric_other_radius():
    val2, _ = lemma_first_summand_numeric(2.0, 1500)
    assert abs(val2 - lemma_first_summand(2.0)) < 1e-6


# ---------------------------------------------------------------------------
# Per-degree zeta derivative.
# ---------------------------------------------------------------------------

def test_zeta_k_prime0_circle():
    # degree-0 coclosed zeta of the scale-2 circle cone:
    # 2 (log 2 - log 2 pi) - 2/2
    zk = zeta_k_prime0(circle(2.0), 0)
    expect = 2.0 * (math.log(2.0) - math.log(2.0 * math.pi)) - 1.0
    assert abs(zk - expect) < 1e-12


# ---------------------------------------------------------------------------
# Preconditions raise ValidationError and name the violated hypothesis.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn", [
    lambda: SpectralParameter(0.0),
    lambda: SpectralParameter(1.0),
    lambda: SpectralParameter(float("nan")),
    lambda: ConeOverS1Config(1.0, 0.5),
    lambda: ConeOverS1Config(0.0, 1.0),
    lambda: t_nu_k(5.0, 5, 2, SpectralParameter(-3.0)),
    lambda: t_nu_k(0.4, 0, 2, SpectralParameter(-3.0)),
    lambda: zeta_k_prime0(circle(2.0), 1),
    lambda: f_r(0, 0, 2, SpectralParameter(-3.0)),
    lambda: frequency_log_term(3.0, 0.5, SpectralParameter(-3.0), "both"),
    lambda: corollary_2d(torus2(2.0)),
    lambda: lemma_first_summand(0.0),
])
def test_precondition_validation(fn):
    with pytest.raises(ValidationError):
        fn()


@pytest.mark.parametrize("bad", [True, np.True_, 1.0, np.float64(0.0), "0", None])
def test_degree_must_be_an_integer(bad):
    # True and 1.0 ran as degree 1 (alpha = -1/2) and "0" leaked a TypeError
    tor, sp = torus2(2.0), SpectralParameter(-3.0)
    for call in (lambda: degree_continuation(tor, bad),
                 lambda: zeta_k_prime0(tor, bad),
                 lambda: t_nu_k(3.0, bad, 2, sp),
                 lambda: f_r(1, bad, 2, sp)):
        with pytest.raises(ValidationError, match=f"^degree must be an integer in "
                           f"0..[01] for a cross-section of dimension 2, got {re.escape(repr(bad))}$"):
            call()


def test_numpy_integer_degrees_are_degrees():
    tor, sp = torus2(2.0), SpectralParameter(-3.0)
    assert degree_continuation(tor, np.int64(0)) is degree_continuation(tor, 0)
    assert zeta_k_prime0(tor, np.int64(0)) == zeta_k_prime0(tor, 0)
    assert t_nu_k(3.0, np.int64(1), 2, sp) == t_nu_k(3.0, 1, 2, sp)
    assert f_r(2, np.int64(1), 2, sp) == f_r(2, 1, 2, sp)


def test_orders_and_counts_follow_the_integer_rule():
    # True ran as order 1 (gen_D served it from the cache of order 1), while
    # numpy integers were refused as orders and counts
    sp = SpectralParameter(-3.0)
    gen_D(1)
    for bad in (True, np.True_):
        for call in (lambda: f_r(bad, 0, 2, sp), lambda: gen_D(bad), lambda: gen_M(bad),
                     lambda: ZeroRequest(2.0, "dirichlet", bad)):
            with pytest.raises(ValidationError, match=f"got {re.escape(repr(bad))}$"):
                call()
    assert f_r(np.int64(2), 0, 2, sp) == f_r(2, 0, 2, sp)
    assert gen_D(np.int64(3)) == gen_D(3)
    assert gen_M(np.int64(3)) == gen_M(3)
    request = ZeroRequest(2.0, "dirichlet", np.int64(3))
    assert type(request.count) is int
    assert np.array_equal(zeros(request).zeros, zeros(ZeroRequest(2.0, "dirichlet", 3)).zeros)


def test_continuation_records_die_with_their_base():
    # a global cache kept up to 64 solved bases alive; a live base still
    # gets its record back
    base = torus2(2.0)
    log_torsion(base)                   # solves degree 0
    record = degree_continuation(base, 0)
    assert degree_continuation(base, 0) is record
    alive = weakref.ref(base)
    del base
    gc.collect()
    assert alive() is None


def _base(**changes):
    """A BaseManifold over circle(2)'s degree-0 stream, fields replaced."""
    fields = dict(name="x", dim=1, betti=(1, 1), scale=2.0,
                  degrees={0: circle(2.0).coclosed_spectrum(0)})
    return BaseManifold(**{**fields, **changes})


@pytest.mark.parametrize("call,parameter", [
    (lambda: circle("3"), "scale"),
    (lambda: torus2("2"), "scale"),
    (lambda: torus2(True), "scale"),
    (lambda: torus2(2.0, nu_max=math.nan), "nu_max"),
    (lambda: torus2(2.0, nu_max=math.inf), "nu_max"),
    (lambda: torus2(2.0, nu_max=-1.0), "nu_max"),
    (lambda: ConeOverS1Config("2", 1.0), "cone length"),
    (lambda: ConeOverS1Config(1.0, "2"), "nu_angle"),
    (lambda: lemma_first_summand("2"), "cone length"),
    (lambda: lemma_first_summand_numeric(1.0, 150.7), "count"),
    (lambda: SpectralParameter("-1"), "lambda"),
    (lambda: ModelOperator("2", 0.5), "nu"),
    (lambda: ModelOperator(1.5, True), "alpha"),
    (lambda: det_numeric(ModelOperator(1.5, 0.5), tol="1e-7"), "tolerance"),
    (lambda: zetacont.zeta_data_exact(2.0, 1.5), r"^m must be an integer >= 1, got 1\.5$"),
    (lambda: degree_continuation(circle(2.0), 0).shifted("0.3"), "shift"),
    (lambda: det_numeric(ModelOperator(1.5, 0.5), count="200"), "count"),
    (lambda: det_numeric(ModelOperator(1.5, 0.5), count=True), "count"),
    (lambda: zetacont.progression_stream("2", 3, 100), "^c must be a finite number > 0, got '2'$"),
    (lambda: zetacont.progression_stream(2.0, 3.5, 100), r"^m must be an integer >= 1, got 3\.5$"),
    (lambda: zetacont.progression_stream(math.nan, 3, 100),
     "^c must be a finite number > 0, got nan$"),
    (lambda: torus2(2.0, lattice="abcd"), "lattice"),
    (lambda: frequency_log_term("3", 0.5, SpectralParameter(-1.0), "odd"), "nu"),
    (lambda: circle(1.0, allow_boundary="no"), "allow_boundary"),
    (lambda: zetacont.SpectrumStream([math.nan]), "values"),
    (lambda: zetacont.SpectrumStream([math.inf]), "values"),
    (lambda: zetacont.SpectrumStream([1.0, 2.0], [1.0]), "mults"),
    (lambda: zetacont.zeta_data_exact(1.0, 1, pole_range="2"), "pole_range"),
    (lambda: zetacont.zeta_data_exact(1.0, 1, pole_range=10 ** 300),
     r"^pole_range must be an integer in 0\.\.16, got 10{300}$"),
    (lambda: zetacont.zeta_data_numeric(zetacont.progression_stream(1.0, 1, 500),
                                        pole_range=17), r"^pole_range must be an integer in 0\.\.16"),
    (lambda: zetacont.zeta_data_lattice(torus2(2.0).lattice(0), 0.5,
                                        pole_range=10 ** 300), r"^pole_range must be an integer in 0\.\.16"),
    (lambda: zetacont.zeta_data_numeric(zetacont.progression_stream(1.0, 1, 500),
                                        pole_range=True), "pole_range"),
    (lambda: zetacont.SpectrumStream(["1.5", "2"]), "values"),
    (lambda: zetacont.SpectrumStream([True, True]), "values"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0], [1.0, -3.0]), "mults"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0], [1.0, 0.0]), "mults"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0], [1.0, math.nan]), "mults"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0], ["1", "1"]), "mults"),
    (lambda: zetacont.zeta_data_exact(1.0, 2, alphas=("0.3",)), "shift"),
    (lambda: zetacont.zeta_data_numeric(zetacont.progression_stream(1.0, 1, 500),
                                        alphas=("0.3",)), "shift"),
    (lambda: zetacont.SpectrumStream([True, 2.0]), "values"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0], [1.0, True]), "mults"),
    (lambda: zetacont.SpectrumStream([np.array(True), 2.0]), "values"),
    (lambda: zetacont.MellinZeta(zetacont.progression_stream(1.5, 2, 400))
     .deriv0_shifted("0.3"), "shift"),
    (lambda: zetacont.MellinZeta(zetacont.progression_stream(1.5, 2, 400))
     .deriv0_shifted(True), "shift"),
    (lambda: zetacont.shifted_from_base(zetacont.progression_stream(1.5, 2, 400),
                                        zetacont.zeta_data_exact(1.5, 2), "0.3"), "shift"),
    (lambda: zetacont.shifted_from_base(zetacont.progression_stream(1.5, 2, 400),
                                        zetacont.zeta_data_exact(1.5, 2), True), "shift"),
    (lambda: zetacont.SpectrumStream([[1.0, 2.0], [3.0, 4.0]]), "values"),
    (lambda: zetacont.SpectrumStream([[1.0], 2.0]), "values"),
    (lambda: zetacont.SpectrumStream(np.ones((2, 2))), "values"),
    (lambda: zetacont.SpectrumStream([1.0, 2.0], [[1.0], 2.0]), "mults"),
    (lambda: torus2(2.0, lattice=[["6.283185307179586", "0"], ["0", "6.283185307179586"]]),
     "lattice"),
    (lambda: torus2(2.0, lattice=[[True, 0], [0, True]]), "lattice"),
    (lambda: torus2(2.0).coclosed_spectrum(True), "degree"),
    (lambda: torus2(2.0).coclosed_spectrum(1.0), "degree"),
    (lambda: torus2(2.0).coclosed_spectrum("0"), "degree"),
    (lambda: zetacont.progression_stream(1.5, 2, 400).shifted("0.3"), "shift"),
    (lambda: zetacont.progression_stream(1.5, 2, 400).shifted(True), "shift"),
    (lambda: zetacont.progression_stream(1.5, 2, 400).shifted(math.nan), "shift"),
    (lambda: zetacont.progression_stream(1.5, 2, 400).shifted(math.inf), "shift"),
    (lambda: zetacont.progression_stream(1.5, 2, 400).shifted(-1.5), "shift"),
    (lambda: _base(betti=(1.7, 1.2)), "betti entry"),
    (lambda: _base(betti=("1", "1")), "betti entry"),
    (lambda: _base(betti=3), "betti"),
    (lambda: _base(scale=1.0, boundary_ok="no", degrees={
        0: circle(1.0, allow_boundary=True).coclosed_spectrum(0)}), "boundary_ok"),
    (lambda: _base(degrees=[circle(2.0).coclosed_spectrum(0)]), "degrees"),
    (lambda: _base(dim=2.5, betti=(1, 1, 1)), "dim"),
    (lambda: _base(dim=True), "dim"),
    (lambda: _base(dim="1"), "dim"),
    (lambda: _base(degrees={0: [4.0]}), "degree 0 must be a SpectrumStream"),
    (lambda: _base(degrees={True: circle(2.0).coclosed_spectrum(0)}), "degree key"),
    (lambda: _base(degrees={0.5: circle(2.0).coclosed_spectrum(0)}), "degree key"),
    (lambda: _base(degrees={0.0: circle(2.0).coclosed_spectrum(0)}), "^degree key"),
    (lambda: _base(dim=1.0), "^dim must be an integer >= 1, got 1.0$"),
    (lambda: _base(betti=(1.0, 1.0)), "^betti entry 0 must be an integer >= 0, got 1.0$"),
    (lambda: _base(name=3), "^name must be a string"),
    (lambda: _base(truncation_note=None), "^truncation_note must be a string"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0], name="pair").trace([0.0]),
     r"^spectrum stream 'pair' traces finite t > 0 only, got t = 0\.0$"),
    (lambda: torus2(2.0).coclosed_spectrum(0).trace([0.5, -1.0]),
     r"'torus2\(c=2, square\):deg0,1' traces .* got t = -1\.0$"),
    (lambda: circle(2.0).coclosed_spectrum(0).trace(np.array([0.5, math.nan, -1.0])),
     r"'circle\(c=2\):deg0' traces .* got t = nan$"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0]).trace(math.inf), "got t = inf$"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0]).trace(["0.5"]), "got t = '0.5'$"),
    (lambda: zetacont.SpectrumStream([2.0, 3.0]).trace([0.5, True]), "got t = True$"),
    (lambda: ModelOperator(10 ** 400), "^nu must be"),
    (lambda: ModelOperator(1.5, 10 ** 400), "^alpha must be"),
    (lambda: ModelOperator(1.5, -10 ** 400), "^alpha must be"),
    (lambda: frequency_log_term(10 ** 400, 0.5, SpectralParameter(-1.0), "odd"), "nu must be"),
], ids=["circle-str", "torus2-str", "torus2-bool", "nu_max-nan", "nu_max-inf",
        "nu_max-negative", "radius-str", "nu_angle-str", "first-summand-str",
        "first-summand-count", "lambda-str", "model-nu-str", "model-alpha-bool",
        "det-tol-str", "progression-mult", "shift-str", "det-count-str",
        "det-count-bool", "progression-stream-str", "progression-stream-mult",
        "progression-stream-nan", "lattice-str", "frequency-str",
        "allow-boundary-str", "stream-nan", "stream-inf", "stream-mults-shape",
        "pole-range-str", "exact-pole-range-huge", "numeric-pole-range-above",
        "lattice-pole-range-huge", "numeric-pole-range-bool", "stream-str", "stream-bool",
        "stream-mult-negative", "stream-mult-zero", "stream-mult-nan", "stream-mult-str",
        "exact-shift-str", "numeric-shift-str", "stream-bool-mixed",
        "stream-mult-bool-mixed", "stream-bool-0d-mixed", "direct-shift-str", "direct-shift-bool",
        "relation-shift-str", "relation-shift-bool", "stream-2d-list", "stream-ragged",
        "stream-2d-array", "stream-mult-ragged", "lattice-str-entries", "lattice-bool-entries",
        "coclosed-degree-bool", "coclosed-degree-float", "coclosed-degree-str",
        "stream-shifted-str", "stream-shifted-bool", "stream-shifted-nan",
        "stream-shifted-inf", "stream-shifted-past-floor", "base-betti-float",
        "base-betti-str", "base-betti-int", "base-boundary-str", "base-degrees-list",
        "base-dim-half", "base-dim-bool", "base-dim-str", "base-degree-list",
        "base-degree-key-bool", "base-degree-key-half", "base-degree-key-float",
        "base-dim-float", "base-betti-floats", "base-name-int",
        "base-truncation-note-none", "trace-zero", "trace-negative", "trace-nan",
        "trace-inf", "trace-str", "trace-bool",
        "model-nu-huge", "model-alpha-huge", "model-alpha-huge-negative", "frequency-huge"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_library_entry_points_refuse_instead_of_coercing(call, parameter):
    # strings were parsed, bools taken as numbers, counts truncated,
    # non-finite nu_max leaked ValueError/OverflowError, non-finite stream
    # values warned in the tie merge, unmatched mults leaked IndexError, and
    # negative, zero or nan multiplicities were accepted; a base stored
    # betti=(1.7, 1.2) as (1, 1) and a degree key True, took dim=True as 1 and
    # boundary_ok="no" as true (admitting the scaling boundary eta = 1), and
    # leaked TypeError or AttributeError on a betti list, degree map or degree
    # of the wrong type, and stored a name 3 that log_torsion reported as its
    # base_id; a trace answered t <= 0 (torus2's at t = -1 was -1.785, a
    # plain sum's 0.0) and warned at t = 0; an int beyond binary64 leaked
    # OverflowError from ModelOperator and frequency_log_term, and the
    # constructor took dim, Betti numbers and degree keys of 1.0 as integers
    with pytest.raises(ValidationError, match=parameter):
        call()


@pytest.mark.parametrize("radius", [1e200, 1e154, 1e-160, 1e-320, 5e-324])
def test_cone_length_keeps_the_disc_area_a_normal_float(radius):
    # pi R^2 overflowed to inf (log_torsion -inf) or underflowed to 0 or a
    # subnormal (a math domain error, or a log of lost precision)
    with pytest.raises(ValidationError, match="disc area pi R"):
        ConeOverS1Config(radius=radius)
    for ok in (1e-150, 1e150, 1.297):
        assert math.isfinite(theorem_main(ConeOverS1Config(radius=ok)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [1e-320, 1e-160, 1e200])
def test_numeric_first_summand_refuses_zeros_outside_the_float_range(radius):
    # (j_k / R)^2 overflowed (a bare math domain error after overflow
    # warnings) or underflowed to 0 ("values must be positive")
    with pytest.raises(ValidationError, match=f"^cone length {re.escape(repr(radius))} puts the "
                       r"squared scaled zeros \(j_k / R\)\^2 outside"):
        lemma_first_summand_numeric(radius, 700)


def test_spectral_parameter_derived_quantities():
    sp = SpectralParameter(-3.0)
    assert sp.z == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert sp.t == pytest.approx(0.5, rel=1e-15)
