"""Special-function layer versus a 30-digit mpmath oracle; the log-Gamma
and digamma ports also bit for bit versus scipy.special."""

import math

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conetorsion import specfun
from conetorsion.besselzero import _f_dirichlet
from conetorsion.errors import ValidationError

import oracles

REL = 5e-14


def _close(got, want, rel=REL, abs_=1e-300):
    assert got == pytest.approx(want, rel=rel, abs=max(abs_, abs(want) * rel))


def test_constants_match_oracle():
    assert specfun.EULER_GAMMA == pytest.approx(oracles.EULER_GAMMA, rel=1e-15)
    assert specfun.LOG_2 == pytest.approx(oracles.LOG_2, rel=1e-15)
    assert specfun.LOG_2PI == pytest.approx(oracles.LOG_2PI, rel=1e-15)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.5, 2.0, 3.75, 10.0, 101.5])
def test_ln_gamma(x):
    _close(specfun.ln_gamma(x), oracles.lngamma(x))


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.5, 2.0, 3.75, 10.0, 101.5])
def test_digamma(x):
    _close(specfun.digamma(x), oracles.digamma(x))


def _same_bits(got, want):
    assert float(got).hex() == float(want).hex()


# Branch edges of the two Cephes algorithms (lgam: recurrence into [2, 3),
# Stirling at 13, its short series at 1000, its bare leading terms above 1e8,
# overflow above 2.556348e305; psi: harmonic sums at integers <= 10, the
# asymptotic series without its tail above 1e17), each with its two
# neighbouring floats.
_EDGES = (1.0, 2.0, 3.0, 10.0, 13.0, 1000.0, 1e8, 1e17, 2.556348e305)
_FIXED = sorted(
    {0.5 * n for n in range(1, 61)}            # integers and half-integers <= 30
    | {4.83, 4.082}                            # math.lgamma is 1 ulp off here
    | {y for e in _EDGES
       for y in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))})


@pytest.mark.parametrize("x", _FIXED)
def test_ports_match_scipy_bitwise_at_fixed_points(x):
    _same_bits(specfun.ln_gamma(x), scipy.special.gammaln(x))
    _same_bits(specfun.digamma(x), scipy.special.psi(x))


@settings(max_examples=1000, deadline=None)
@given(st.floats(math.log(5e-324), math.log(1e300)).map(math.exp))
def test_ports_match_scipy_bitwise_log_uniform(x):
    # subnormal to 1e300: near zero both sides overflow to the same inf
    _same_bits(specfun.ln_gamma(x), scipy.special.gammaln(x))
    _same_bits(specfun.digamma(x), scipy.special.psi(x))


@pytest.mark.parametrize("fn", [specfun.ln_gamma, specfun.digamma])
@pytest.mark.parametrize("x", [0.0, -0.0, -2.5, math.nan, math.inf, -math.inf])
def test_ports_refuse_non_positive_and_non_finite(fn, x):
    with pytest.raises(ValidationError, match="finite x > 0"):
        fn(x)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.7, 5.0])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 7.9, 40.0])
def test_bessel_j_and_derivative(nu, x):
    # J_nu and J_nu' as the zero solver evaluates them
    j, jp = _f_dirichlet(nu, x)
    _close(j, oracles.besselj(nu, x), rel=1e-12, abs_=1e-14)
    _close(jp, oracles.besselj_prime(nu, x), rel=1e-12, abs_=1e-14)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.7, 5.0])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 7.9, 40.0])
def test_bessel_i_and_derivative(nu, x):
    _close(specfun.bessel_i(nu, x), oracles.besseli(nu, x), rel=1e-12)
    _close(specfun.bessel_i_prime(nu, x), oracles.besseli_prime(nu, x), rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.7, 5.0])
@pytest.mark.parametrize("x", [0.5, 3.0, 50.0, 700.0])
def test_bessel_i_scaled_large_argument(nu, x):
    _close(specfun.bessel_i_scaled(nu, x), oracles.besseli_scaled(nu, x), rel=1e-12)
    _close(
        specfun.bessel_i_prime_scaled(nu, x),
        oracles.besseli_prime_scaled(nu, x),
        rel=1e-12,
    )


def test_scaled_unscaled_consistency():
    nu, x = 1.5, 4.0
    assert specfun.bessel_i_scaled(nu, x) * math.exp(x) == pytest.approx(
        specfun.bessel_i(nu, x), rel=1e-13
    )
    assert specfun.bessel_i_prime_scaled(nu, x) * math.exp(x) == pytest.approx(
        specfun.bessel_i_prime(nu, x), rel=1e-13
    )


@pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 5])
def test_sinpi_cospi_exact_at_integers(n):
    assert specfun.sinpi(float(n)) == 0.0
    assert specfun.cospi(float(n)) == (1.0 if n % 2 == 0 else -1.0)


@pytest.mark.parametrize("n", [-3, -1, 0, 2, 7])
def test_sinpi_cospi_at_half_integers(n):
    x = n + 0.5
    # argument reduction leaves at most one ulp of pi/2 rounding residue
    assert abs(specfun.cospi(x)) <= 1e-16
    # sin(pi(n + 1/2)) = (-1)^n, exact after reduction
    assert specfun.sinpi(x) == (1.0 if n % 2 == 0 else -1.0)


@pytest.mark.parametrize("x", [0.1, 0.37, 1.26, 12.8])
def test_sinpi_cospi_generic(x):
    import mpmath as mp

    _close(specfun.sinpi(x), float(mp.sinpi(mp.mpf(x))), rel=1e-14)
    _close(specfun.cospi(x), float(mp.cospi(mp.mpf(x))), rel=1e-14)


@pytest.mark.parametrize("s", [-3.0, -2.0, -1.0, 0.0, 0.5, 2.0, 3.0, 8.0])
def test_riemann_zeta(s):
    _close(specfun.riemann_zeta(s), oracles.riemann_zeta(s), rel=1e-13, abs_=1e-15)


def test_riemann_zeta_special_values():
    assert specfun.riemann_zeta(0.0) == pytest.approx(-0.5, rel=1e-15)
    assert specfun.riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-14)
    assert specfun.riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert specfun.riemann_zeta(-2.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("s", [-2.0, -1.0, 0.0, 0.5, 2.0, 4.0])
def test_riemann_zeta_prime(s):
    _close(
        specfun.riemann_zeta_prime(s), oracles.riemann_zeta_prime(s), rel=1e-12
    )


def test_riemann_zeta_prime_at_zero():
    # zeta'(0) = -log(2 pi)/2
    assert specfun.riemann_zeta_prime(0.0) == pytest.approx(
        -0.5 * oracles.LOG_2PI, rel=1e-13
    )


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 1.25, 2.5, 7.0])
@pytest.mark.parametrize("s", [-2.0, -1.0, 0.0, 2.0, 3.5])
def test_hurwitz_zeta(s, a):
    if s < 0.0:
        # Documented accuracy floor at negative s: round-off in the direct-sum
        # terms grows like (N+a)^(1-s) * eps with N ~ 16 summation terms.
        floor = 50.0 * (16.0 + a) ** (1.0 - s) * 2.2e-16
        _close(specfun.hurwitz_zeta(s, a), oracles.hurwitz_zeta(s, a),
               rel=1e-11, abs_=floor)
    else:
        _close(
            specfun.hurwitz_zeta(s, a), oracles.hurwitz_zeta(s, a),
            rel=1e-12, abs_=1e-14,
        )


def test_hurwitz_reduces_to_riemann():
    for s in (-1.0, 0.0, 2.0, 3.5):
        assert specfun.hurwitz_zeta(s, 1.0) == pytest.approx(
            specfun.riemann_zeta(s), rel=1e-13, abs=1e-15
        )


@pytest.mark.parametrize("fn", [specfun.hurwitz_zeta, specfun.hurwitz_zeta_sderiv])
@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_hurwitz_refuses_a_outside_the_positive_reals(fn, a):
    # nan and inf returned nan (or -inf) through the old a <= 0 guard
    with pytest.raises(ValidationError, match="finite a > 0"):
        fn(0.5, a)


@pytest.mark.parametrize("fn", [specfun.riemann_zeta, specfun.riemann_zeta_prime,
                                lambda s: specfun.hurwitz_zeta(s, 2.5),
                                lambda s: specfun.hurwitz_zeta_sderiv(s, 1.0)])
def test_zeta_refuses_its_pole(fn):
    with pytest.raises(ValidationError, match="pole at s=1"):
        fn(1.0)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 2.0])
def test_hurwitz_zeta_sderiv(s, a):
    _close(
        specfun.hurwitz_zeta_sderiv(s, a),
        oracles.hurwitz_zeta_sderiv(s, a),
        rel=5e-12,
        abs_=1e-13,
    )


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.25, 10.0])
def test_hurwitz_zeta_prime0_lerch_formula(a):
    want = specfun.ln_gamma(a) - 0.5 * specfun.LOG_2PI
    assert specfun.hurwitz_zeta_prime0(a) == pytest.approx(want, rel=1e-14, abs=1e-15)
    _close(specfun.hurwitz_zeta_prime0(a), oracles.hurwitz_zeta_prime0(a), rel=1e-12)


def test_hurwitz_zeta_prime0_matches_sderiv_limit():
    for a in (0.5, 1.25, 2.0):
        assert specfun.hurwitz_zeta_prime0(a) == pytest.approx(
            specfun.hurwitz_zeta_sderiv(0.0, a), rel=5e-12, abs=1e-13
        )
