"""Zeta continuation engine: closed forms vs the numeric Mellin-split route,
the shifted-spectrum relation, the square-root lift oracle, and the error
guards."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetorsion import basemanifold as bm
from conetorsion import zetacont
from conetorsion.errors import ConvergenceError, ValidationError
from conetorsion.specfun import LOG_2PI, riemann_zeta
from conetorsion.zetacont import (
    _lattice_points,
    _log_series_tail,
    _pow17,
    MellinZeta,
    SpectrumStream,
    merge_ties,
    progression_stream,
    shifted_from_base,
    shift_heat_powers,
    zeta_data_exact,
    zeta_data_numeric,
)

import oracles


# ---------------------------------------------------------------------------
# Stream plumbing.
# ---------------------------------------------------------------------------

def test_stream_validation():
    with pytest.raises(ValidationError):
        SpectrumStream([])
    with pytest.raises(ValidationError):
        SpectrumStream([1.0, -2.0])
    with pytest.raises(ValidationError):
        SpectrumStream([0.0, 1.0])


def test_stream_sorts_and_merges_ties():
    st = SpectrumStream([3.0, 1.0, 1.0 + 1e-15, 2.0], [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(st.values, [1.0, 2.0, 3.0])
    assert np.allclose(st.mults, [5.0, 4.0, 1.0])
    assert st.total_count() == 10.0
    assert st.min_value == 1.0 and st.max_value == 3.0


def _assert_merge_matches_loop(values, mults):
    got_v, got_m = merge_ties(values, mults)
    want_v, want_m = oracles.merge_ties(values, mults)
    assert got_v.shape == want_v.shape and got_m.shape == want_m.shape
    assert got_v.tobytes() == want_v.tobytes()
    assert got_m.tobytes() == want_m.tobytes()
    return got_v, got_m


def test_merge_ties_behaviour():
    v, m = _assert_merge_matches_loop([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    assert v.tolist() == [1.0, 2.0] and m.tolist() == [2.0, 1.0]
    v, m = _assert_merge_matches_loop([], [])
    assert v.size == 0 and m.size == 0
    v, m = _assert_merge_matches_loop([7.5], [3.0])
    assert v.tolist() == [7.5] and m.tolist() == [3.0]
    v, m = _assert_merge_matches_loop(np.full(40, 2.0), np.arange(1.0, 41.0))
    assert v.tolist() == [2.0] and m.tolist() == [820.0]


def test_merge_ties_splits_a_drifting_chain_at_its_group_starts():
    # each step is within tolerance of its predecessor, but a value joins a
    # group only within tolerance of the group's first value: 0.6e-12
    # steps on values near 1 pair up into 25 groups of two
    values = 1.0 + 0.6e-12 * np.arange(50)
    v, m = _assert_merge_matches_loop(values, np.ones(50))
    assert v.size == 25 and np.all(m == 2.0)
    # the chain embedded between plain gaps and exact ties
    values = np.concatenate([[0.5, 0.5], values, [3.0, 3.0, 3.0 + 1e-13]])
    _assert_merge_matches_loop(values, np.arange(1.0, values.size + 1.0))


@st.composite
def _tied_ascending(draw):
    """Ascending values built from segments: plain gaps, exact ties and
    drifting chains whose steps sit near the tie tolerance."""
    v = draw(st.floats(0.01, 1e6))
    values = []
    for _ in range(draw(st.integers(0, 12))):
        step = draw(st.sampled_from([0.0, 0.3, 0.6, 0.999, 1.0, 1.001, 1.5, 5.0]))
        if draw(st.booleans()):
            step = draw(st.floats(0.0, 2.0))
        for _ in range(draw(st.integers(1, 8))):
            values.append(v)
            v += step * 1e-12 * max(1.0, abs(v))
        v += draw(st.sampled_from([0.0, 1e-12, 1e-9, 1.0])) * max(1.0, abs(v))
    mults = draw(st.lists(st.integers(1, 9), min_size=len(values),
                          max_size=len(values)))
    return np.array(values), np.array(mults, dtype=float)


@settings(max_examples=200, deadline=None)
@given(_tied_ascending())
def test_merge_ties_equals_loop_bitwise(arrays):
    _assert_merge_matches_loop(*arrays)


def test_merge_ties_equals_loop_on_lattice_norms():
    # the inputs torus2 merges: squared norms of square, sheared and
    # stretched lattices, with their many exact and rounding-level ties
    for lattice in (np.eye(2), [[1.0, 0.0], [0.349, 1.0]], [[1.0, 0.0], [0.0, 1.3]]):
        sq = _lattice_points(2.0 * math.pi * np.asarray(lattice), 60.0)
        _assert_merge_matches_loop(sq, np.ones_like(sq))


def test_trace_matches_direct_sum():
    st = SpectrumStream([1.0, 4.0, 9.0], [1.0, 2.0, 1.0])
    t = np.array([0.3, 1.0])
    want = np.exp(-t) + 2.0 * np.exp(-4.0 * t) + np.exp(-9.0 * t)
    assert np.allclose(st.trace(t), want, rtol=1e-15)


@pytest.mark.parametrize("b", [0.25, 1.5, -0.5, -0.3])
def test_shift_heat_powers_matches_exact_series(b):
    # e^(-b t) sum c t^p = sum_m c (-b)^m / m! t^(p+m), truncated at the top
    # listed power; deriv0_shifted passes b < 0 when it lowers the eigenvalues
    powers = ((-1.0, 1.5), (-0.5, -0.25), (0.0, 0.75), (1.0, 0.0), (2.0, -0.125))
    fb = Fraction(b)
    want: dict = {}
    for p, c in powers:
        m = 0
        while p + m <= 2.0:
            want[p + m] = want.get(p + m, 0) + Fraction(c) * (-fb) ** m / math.factorial(m)
            m += 1
    got = shift_heat_powers(powers, b)
    assert [p for p, _ in got] == sorted(want)
    for p, c in got:
        assert c == pytest.approx(float(want[p]), rel=1e-15, abs=1e-15)
    assert shift_heat_powers(powers, 0.0) == powers


def test_progression_stream_structure():
    st = progression_stream(2.0, 3, 100)
    assert st.min_value == 2.0 and st.max_value == 200.0
    assert st.t_floor() == 0.0  # exact trace attached
    # exact trace equals the geometric closed form
    t = np.array([0.7])
    assert st.trace(t)[0] == pytest.approx(3.0 / math.expm1(1.4), rel=1e-15)
    with pytest.raises(ValidationError):
        progression_stream(0.0, 1, 10)


# ---------------------------------------------------------------------------
# Closed-form data for an arithmetic progression.
# ---------------------------------------------------------------------------

def test_zeta_data_exact_values():
    # zeta(s) = m c^-s zeta_R(s): at c=2, m=3
    ex = zeta_data_exact(2.0, 3, alphas=(0.5,), pole_range=3)
    assert ex.deriv0 == pytest.approx(3.0 * (0.5 * math.log(2.0) - 0.5 * LOG_2PI),
                                      rel=1e-15)
    assert ex.zeta0 == -1.5
    assert ex.residues[1] == pytest.approx(1.5, rel=1e-15)
    assert ex.residues[2] == 0.0 and ex.residues[3] == 0.0
    assert ex.pp[2] == pytest.approx(0.75 * riemann_zeta(2.0), rel=1e-14)
    # shifted derivative against the Hurwitz oracle:
    # zeta(s, a) = m c^-s zeta_H(s, 1 + a/c), d/ds at 0 gives
    # m [ log(c) (1/2 + a/c) + zeta_H'(0, 1 + a/c) ]
    want = 3.0 * (math.log(2.0) * 0.75 + oracles.hurwitz_zeta_prime0(1.25))
    assert ex.deriv0_shifted[0.5] == pytest.approx(want, rel=1e-14)
    assert ex.error_estimate == 0.0


def test_zeta_data_exact_guards():
    with pytest.raises(ValidationError):
        zeta_data_exact(-1.0, 1)
    with pytest.raises(ValidationError):
        zeta_data_exact(2.0, 1, alphas=(-2.0,))  # reaches the zero mode


# ---------------------------------------------------------------------------
# Numeric engine vs closed forms: exact-trace path.
# ---------------------------------------------------------------------------

def test_numeric_matches_exact_on_progression():
    ex = zeta_data_exact(2.0, 3, alphas=(0.7, -0.9), pole_range=3)
    st = progression_stream(2.0, 3, 4000)
    nu = zeta_data_numeric(st, alphas=(0.7, -0.9), pole_range=3)
    cap = max(10.0 * nu.error_estimate, 1e-10)
    assert abs(nu.deriv0 - ex.deriv0) < cap
    assert abs(nu.zeta0 - ex.zeta0) < 1e-12
    for i in (1, 2, 3):
        assert abs(nu.residues[i] - ex.residues[i]) < cap
        assert abs(nu.pp[i] - ex.pp[i]) < cap
    for a in (0.7, -0.9):
        assert abs(nu.deriv0_shifted[a] - ex.deriv0_shifted[a]) < cap
    assert nu.error_estimate < 1e-9


# ---------------------------------------------------------------------------
# Numeric engine: fitted-heat path (no exact trace available).
# ---------------------------------------------------------------------------

def test_numeric_fit_path_matches_exact_with_full_heat_data():
    # When the short-time expansion is supplied through c1, the fit only has
    # to pick up the t^3 correction and the continuation is essentially exact.
    ex = zeta_data_exact(2.0, 3, alphas=(0.7,), pole_range=2)
    st = SpectrumStream(2.0 * np.arange(1, 30001), 3 * np.ones(30000),
                        heat_powers=((-1.0, 1.5), (0.0, -1.5), (1.0, 0.5)))
    nu = zeta_data_numeric(st, alphas=(0.7,), pole_range=2)
    assert nu.error_estimate < 1e-7
    cap = nu.error_estimate + 1e-12
    assert abs(nu.deriv0 - ex.deriv0) < cap
    assert abs(nu.residues[1] - ex.residues[1]) < cap
    assert abs(nu.pp[1] - ex.pp[1]) < cap
    assert abs(nu.pp[2] - ex.pp[2]) < cap
    assert abs(nu.deriv0_shifted[0.7] - ex.deriv0_shifted[0.7]) < cap


def test_numeric_fit_path_estimate_covers_sparse_heat_data():
    # With only the leading heat coefficient supplied, the window fit cannot
    # exclude a t^(-1/2) contamination, so the estimate must stay honestly
    # large while the returned values land close to the exact data anyway.
    ex = zeta_data_exact(2.0, 3, alphas=(0.7,), pole_range=2)
    st = SpectrumStream(2.0 * np.arange(1, 30001), 3 * np.ones(30000),
                        heat_powers=((-1.0, 1.5),))
    nu = zeta_data_numeric(st, alphas=(0.7,), pole_range=2)
    d0 = abs(nu.deriv0 - ex.deriv0)
    assert d0 < 1e-3
    assert d0 < nu.error_estimate < 1.0
    assert abs(nu.residues[1] - ex.residues[1]) < nu.error_estimate
    assert abs(nu.deriv0_shifted[0.7] - ex.deriv0_shifted[0.7]) < nu.error_estimate
    with pytest.raises(ConvergenceError, match="exceeds the target"):
        zeta_data_numeric(st, alphas=(0.7,), pole_range=2, target_tol=1e-5)


def test_square_bessel_zero_spectrum_log_determinant():
    # {(k pi)^2}: zeta'(0) = -log 2 (the determinant of -d^2/dx^2 on [0,1])
    k = np.arange(1, 2001, dtype=float)
    st = SpectrumStream((np.pi * k) ** 2,
                        heat_powers=((-0.5, 1.0 / (2.0 * math.sqrt(math.pi))),))
    data = zeta_data_numeric(st, pole_range=1)
    assert data.error_estimate < 1e-6
    assert -data.deriv0 == pytest.approx(math.log(2.0),
                                         abs=max(10.0 * data.error_estimate, 1e-7))


# ---------------------------------------------------------------------------
# Shifted derivatives: three independent routes.
# ---------------------------------------------------------------------------

def test_shift_routes_agree_with_gamma_closed_form():
    # {k} with alpha = 1/2: zeta(s, 1/2-shift) = zeta_H(s, 3/2), so
    # zeta'(0, 1/2) = log Gamma(3/2) - log(2 pi)/2.
    target = math.lgamma(1.5) - 0.5 * LOG_2PI
    ex = zeta_data_exact(1.0, 1, alphas=(0.5,), pole_range=16)
    assert ex.deriv0_shifted[0.5] == pytest.approx(target, abs=1e-14)

    st = progression_stream(1.0, 1, 4000)
    direct = zeta_data_numeric(st, alphas=(0.5,), pole_range=1)
    assert direct.deriv0_shifted[0.5] == pytest.approx(
        target, abs=max(10.0 * direct.error_estimate, 1e-9))

    val, err = shifted_from_base(st, ex, 0.5)[0.5]
    assert val == pytest.approx(target, abs=max(10.0 * err, 1e-9))
    assert err < 1e-6


def test_shifted_from_base_zero_shift_passthrough():
    ex = zeta_data_exact(1.0, 1, pole_range=16)
    st = progression_stream(1.0, 1, 100)
    assert shifted_from_base(st, ex, 0.0) == {0.0: (ex.deriv0, ex.error_estimate)}


def test_shifted_from_base_guards():
    ex = zeta_data_exact(1.0, 1, pole_range=16)
    st = progression_stream(1.0, 1, 100)
    with pytest.raises(ValidationError):
        shifted_from_base(st, ex, -1.0)     # reaches the zero mode
    with pytest.raises(ValidationError):
        shifted_from_base(st, ex, 0.9)      # |alpha/x_min| too large to converge
    sparse = zeta_data_exact(1.0, 1, pole_range=2)  # values only up to i=2
    with pytest.raises(ValidationError, match="relation path needs"):
        shifted_from_base(st, sparse, 0.5)



_SHORT = np.sqrt(np.linspace(1.3, 64.0 ** 2, 126))


@pytest.mark.parametrize("values, settle_min", [
    pytest.param(_SHORT, None, id="short-126"),
    pytest.param(_SHORT, 1, id="short-126-settling"),
    pytest.param(np.sqrt(np.linspace(1.3, 256.0 ** 2, 8000)), None, id="listing-8000"),
    pytest.param(np.sort(np.exp(np.random.default_rng(4).uniform(0.0, 12.0, 3000))), None,
                 id="random-3000"),
    pytest.param(np.geomspace(1.5, 1e300, 2000), None, id="underflowing"),
])
@pytest.mark.parametrize("ratio", [0.7499, 0.5, 0.05, -0.05, -0.5, -0.7499])
def test_log_series_tail_is_bitwise_the_full_run(values, settle_min, ratio, monkeypatch):
    # the early stop drops entries only once later terms cannot move them
    # (a listing shorter than _SETTLE_MIN is never tested, unless the
    # threshold is lowered); one pass gives both signs of the shift, each the
    # full run of its own sign: every step is an exactly rounded + - * /, so
    # the powers and quotients at -w are bitwise (-1)^r times those at w
    if settle_min is not None:
        monkeypatch.setattr(zetacont, "_SETTLE_MIN", settle_min)
    w = ratio * values[0] / values
    tail, twin = _log_series_tail(w)
    assert np.array_equal(tail, oracles.log_series_tail(w))
    assert np.array_equal(twin, oracles.log_series_tail(-w))


def _python_pow17(x: float) -> float:
    x2 = x * x
    x4 = x2 * x2
    x8 = x4 * x4
    return x8 * x8 * x


def test_power_chain_is_odd_simd_free_and_within_sixteen_roundings():
    # w^17 as (((w^2)^2)^2)^2 w: five exactly rounded products, so the chain
    # is exactly odd, equals the same chain in Python floats whatever SIMD
    # kernels numpy dispatches to, and lies within 16 * 2^-53 relative of
    # w^17 wherever that is normal (underflowing entries included in the
    # first two checks)
    rng = np.random.default_rng(37)
    w = np.concatenate([
        rng.uniform(-0.75, 0.75, 4000),
        rng.choice([-1.0, 1.0], 2000) * 0.75 * 2.0 ** -rng.uniform(0.0, 70.0, 2000),
        [0.7499, -0.7499, 0.5, 2.0 ** -60, -(2.0 ** -61), 2.0 ** -64, 5e-324]])
    wr = _pow17(w)
    assert np.array_equal(_pow17(-w).view(np.int64), (-wr).view(np.int64))
    chain = np.array([_python_pow17(x) for x in w.tolist()])
    assert np.array_equal(wr.view(np.int64), chain.view(np.int64))
    normal = np.abs(wr) >= sys.float_info.min
    assert 3000 < np.count_nonzero(normal) < len(w)
    worst = 0.0
    with mpmath.workdps(40):
        for x, y in zip(w[normal].tolist(), wr[normal].tolist()):
            exact = mpmath.mpf(x) ** 17
            worst = max(worst, float(abs((mpmath.mpf(y) - exact) / exact)))
    assert 0.0 < worst <= 16 * 2.0 ** -53, worst


@pytest.mark.parametrize("stream, data", [
    pytest.param(progression_stream(1.0, 1, 4000), zeta_data_exact(1.0, 1, pole_range=16),
                 id="progression"),
    pytest.param(SpectrumStream(np.sqrt(np.linspace(4.25, 64.0 ** 2, 138)), np.full(138, 4.0)),
                 zeta_data_exact(2.0, 4, pole_range=16), id="short-138"),
])
@pytest.mark.parametrize("alpha", [0.5, -0.5, 0.3, -0.7, 0.0])
def test_paired_relation_path_is_bitwise_two_calls(stream, data, alpha):
    # every call answers alpha and -alpha from one pass; the call at the
    # other sign gives each entry bitwise, and the estimate depends on
    # |alpha| alone
    pair = shifted_from_base(stream, data, alpha)
    assert list(pair) == ([alpha, -alpha] if alpha else [alpha])
    twin = shifted_from_base(stream, data, -alpha)
    for s in pair:
        assert [x.hex() for x in pair[s]] == [x.hex() for x in twin[s]]
    assert len({err for _, err in pair.values()}) == 1

# ---------------------------------------------------------------------------
# Square-root lift (the oracle's): {k^2} -> {k}.
# ---------------------------------------------------------------------------

def _q_trace(u):
    """Exact theta trace of {k^2}, Poisson-switched for small u."""
    u = np.atleast_1d(np.asarray(u, float))
    out = np.empty_like(u)
    for i, ui in enumerate(u):
        if ui > 0.3:
            kk = np.arange(1, int(np.sqrt(50.0 / ui)) + 2)
            out[i] = math.fsum(np.exp(-kk ** 2 * ui).tolist())
        else:
            jj = np.arange(1, int(np.sqrt(50.0 * ui) / np.pi) + 3)
            out[i] = 0.5 * (math.sqrt(math.pi / ui)
                            * (1.0 + 2.0 * math.fsum(
                                np.exp(-np.pi ** 2 * jj ** 2 / ui).tolist()))
                            - 1.0)
    return out


def test_sqrt_lift_reproduces_linear_spectrum():
    kq = np.arange(1, 201, dtype=float)
    qst = SpectrumStream(kq ** 2, heat_fn=_q_trace,
                         heat_powers=((-0.5, math.sqrt(math.pi) / 2.0), (0.0, -0.5),
                                      (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)))
    qeng = MellinZeta(qst, s_max=1.0)
    lift = oracles.lift_stream(qeng)

    # lifted heat powers must reproduce 1/(e^t - 1) = 1/t - 1/2 + t/12 - ...
    pdict = dict(lift.heat_powers)
    assert pdict[-1.0] == pytest.approx(1.0, abs=1e-9)
    assert pdict[0.0] == pytest.approx(-0.5, abs=1e-9)

    for t in (1e-5, 1e-3, 0.05, 0.5, 2.0):
        got = float(lift.trace(np.array([t]))[0])
        want = 1.0 / math.expm1(t)
        assert got == pytest.approx(want, rel=1e-8)

    data = zeta_data_numeric(lift, alphas=(0.5,), pole_range=1)
    cap = max(10.0 * data.error_estimate, 1e-8)
    assert data.deriv0 == pytest.approx(-0.5 * LOG_2PI, abs=cap)
    assert data.residues[1] == pytest.approx(1.0, abs=cap)
    target = math.lgamma(1.5) - 0.5 * LOG_2PI
    assert data.deriv0_shifted[0.5] == pytest.approx(target, abs=cap)


# ---------------------------------------------------------------------------
# Convergence and validation guards of the engine.
# ---------------------------------------------------------------------------

def test_engine_rejects_spectrum_with_no_window():
    # 50 eigenvalues up to 50: trace floor 45/50 = 0.9 >= 0.05
    st = SpectrumStream(np.arange(1.0, 51.0), heat_powers=((-1.0, 1.0),))
    with pytest.raises(ConvergenceError, match="insufficient spectrum"):
        MellinZeta(st)


def test_engine_refuses_a_short_listing_before_tracing(monkeypatch):
    # the fit window is screened before the engine's one batch call: a
    # listing short of the fit's reach is refused without a trace
    st = SpectrumStream(np.arange(1.0, 4097.0) * 10.0, heat_powers=((-1.0, 0.1),))
    calls = []
    monkeypatch.setattr(SpectrumStream, "trace", lambda self, t: calls.append(t))
    with pytest.raises(ConvergenceError) as info:
        MellinZeta(st)
    assert str(info.value) == (
        "insufficient spectrum: no usable fitting window above the trace floor "
        "t=0.0011 of stream ''; the heat fit needs a largest eigenvalue of at least "
        "45000, got 40960")
    assert calls == []


def test_engine_rejects_spectrum_with_short_window():
    # floor 45/4096 ~ 0.011 < 0.05 but the window [floor, 0.05] spans < 50x
    st = SpectrumStream(np.arange(1.0, 4097.0), heat_powers=((-1.0, 1.0),))
    with pytest.raises(ConvergenceError, match="no usable fitting window"):
        MellinZeta(st)


def test_target_tol_triggers_convergence_error():
    st = progression_stream(1.0, 1, 500)
    with pytest.raises(ConvergenceError, match="exceeds the target"):
        zeta_data_numeric(st, target_tol=1e-30)


def test_value_and_residue_guards():
    st = progression_stream(1.0, 1, 2000)
    eng = MellinZeta(st, s_max=2.0)
    with pytest.raises(ValidationError):
        eng.value(1.0)       # pole: must use residue/pp
    with pytest.raises(ValidationError):
        eng.residue(0.0)
    with pytest.raises(ValidationError):
        eng.pp(-1.0)
    # regular points work and match Riemann zeta
    assert eng.value(2.0) == pytest.approx(riemann_zeta(2.0), abs=1e-9)
    assert eng.value(0.0) == pytest.approx(-0.5, abs=1e-12)
    # negative integer via the Gamma-pole branch: zeta(-1) = -1/12
    assert eng.value(-1.0) == pytest.approx(-1.0 / 12.0, abs=1e-12)


def test_value_refuses_a_negative_pole_and_skips_an_exact_zero_term():
    # a nonzero t^(1/2) heat term is a pole of zeta at s = -1/2: value(-0.5)
    # divided by zero in the pole sum, while value(0.5) refused by name
    eng = MellinZeta(bm.circle(2.0).coclosed_spectrum(0).shifted(0.25), s_max=1.0)
    assert eng.coefficient(0.5) == -0.25 * math.sqrt(math.pi) / 2.0
    with pytest.raises(ValidationError, match=r"^zeta has a pole at s=-0\.5$"):
        eng.value(-0.5)
    # an exact zero term has no pole: the zero-padded t^(1/2) term of an
    # exported torus listing divided 0 by 0; the value agrees with the
    # exact-trace engine on the same spectrum
    listing = MellinZeta(bm.custom(bm.torus2(2.0, nu_max=256).as_custom_mapping())
                         .coclosed_spectrum(0), s_max=1.0)
    assert (0.5, 0.0) in listing.powers
    exact = MellinZeta(bm.torus2(2.0).coclosed_spectrum(0), s_max=1.0)
    gap = abs(listing.value(-0.5) - exact.value(-0.5))
    assert gap <= listing.error_estimate([-0.5]) + exact.error_estimate([-0.5])


def test_inconsistent_supplied_heat_coefficient_is_rejected():
    # claim the wrong leading Weyl coefficient; the free refit must catch it
    # (60000 values so the fitting window clears the trace floor first)
    k = np.arange(1, 60001, dtype=float)
    st = SpectrumStream(k, heat_powers=((-1.0, 2.0),))
    with pytest.raises(ValidationError, match="inconsistent heat data"):
        MellinZeta(st)
