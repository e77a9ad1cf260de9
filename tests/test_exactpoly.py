"""Exact-arithmetic polynomial layer: printed anchors, cross-identities,
an independent large-order Bessel oracle, and ring properties."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetorsion import exactpoly
from conetorsion.errors import OrderLimitError
from conetorsion.exactpoly import (
    AlphaPolynomial,
    RationalPolynomial,
    coeffs_x,
    coeffs_z,
    dm_identity_residual,
    gen_D,
    gen_M,
    gen_u,
    gen_v,
    xzsum_identity_residual,
    zsum_identity_residual,
)

import oracles

F = Fraction


def tpoly(*coeffs):
    return RationalPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Anchors: the classical low-order polynomials (DLMF 10.41.4-10.41.5 and the
# logarithms derived from them), fixed with exact Fractions.
# ---------------------------------------------------------------------------

def test_u1_exact():
    assert gen_u(0) == tpoly(1)
    assert gen_u(1) == tpoly(0, F(3, 24), 0, F(-5, 24))


def test_u2_exact():
    assert gen_u(2) == tpoly(0, 0, F(81, 1152), 0, F(-462, 1152), 0, F(385, 1152))


def test_v1_v2_exact():
    assert gen_v(1) == tpoly(0, F(-9, 24), 0, F(7, 24))
    assert gen_v(2) == tpoly(0, 0, F(-135, 1152), 0, F(594, 1152), 0, F(-455, 1152))


def test_d1_exact():
    assert gen_D(1) == tpoly(0, F(1, 8), 0, F(-5, 24))


def test_d2_exact():
    assert gen_D(2) == tpoly(0, 0, F(1, 16), 0, F(-3, 8), 0, F(5, 16))


def test_m1_exact():
    m = gen_M(1)
    assert m.t_powers() == [1, 3]
    assert m.t_coefficient(1) == RationalPolynomial((F(-3, 8), 1), "a")
    assert m.t_coefficient(3) == RationalPolynomial((F(7, 24),), "a")


def test_m2_exact():
    m = gen_M(2)
    assert m.t_powers() == [2, 4, 6]
    assert m.t_coefficient(2) == RationalPolynomial(
        (F(-3, 16), F(1, 2), F(-1, 2)), "a")
    assert m.t_coefficient(4) == RationalPolynomial((F(5, 8), F(-1, 2)), "a")
    assert m.t_coefficient(6) == RationalPolynomial((F(-7, 16),), "a")


def test_coefficient_tables_match_generators():
    for r in (1, 2, 3, 5):
        xs = coeffs_x(r)
        assert len(xs) == r + 1
        rebuilt = RationalPolynomial(())
        for b, x in enumerate(xs):
            rebuilt = rebuilt + tpoly(x).shift(r + 2 * b)
        assert rebuilt == gen_D(r)

        zs = coeffs_z(r)
        assert len(zs) == r + 1
        for alpha in (F(0), F(1, 2), F(-2)):
            direct = gen_M(r).substitute_alpha(alpha)
            rebuilt = RationalPolynomial(())
            for b, z in enumerate(zs):
                rebuilt = rebuilt + tpoly(z(alpha)).shift(r + 2 * b)
            assert rebuilt == direct


# ---------------------------------------------------------------------------
# Cross-identities, exact through order 10 over a spread of alpha values.
# ---------------------------------------------------------------------------

ALPHAS = (F(0), F(1, 2), F(-1, 2), F(1), F(2), F(1, 3), F(-7, 5))


@pytest.mark.parametrize("r", range(1, 11))
def test_dm_identity_exact(r):
    for alpha in ALPHAS:
        assert dm_identity_residual(r, alpha) == 0
        assert dm_identity_residual(r, alpha, sign=-1) == 0


@pytest.mark.parametrize("r", range(1, 11))
def test_zsum_identity_exact(r):
    for alpha in ALPHAS:
        assert zsum_identity_residual(r, alpha) == 0


@pytest.mark.parametrize("r", range(1, 11))
def test_xzsum_identity_exact(r):
    for alpha in ALPHAS:
        assert xzsum_identity_residual(r, alpha) == 0


def test_identity_checks_have_teeth():
    # Injecting a corrupted D_1 must produce a non-zero residual: the clean
    # checks above could not pass vacuously.
    bad = gen_D(1).scale(-1)
    res = dm_identity_residual(1, F(1, 2), d_poly=bad)
    assert res == F(-1, 6)
    bad_m = gen_M(1).scale(2)
    assert dm_identity_residual(1, F(1, 2), m_poly=bad_m) != 0


def test_polynomials_vanish_at_origin():
    for r in range(1, 9):
        assert gen_D(r).coefficient(0) == 0
        assert 0 not in gen_M(r).t_powers()


# ---------------------------------------------------------------------------
# The log-derivative recurrence behind gen_D/gen_M against the plain power
# series of the logarithm, order by order up to MAX_ORDER.
# ---------------------------------------------------------------------------

def _clear_caches():
    for fn in (gen_u, gen_v, gen_D, gen_M, exactpoly._m_term):
        fn.cache_clear()


@pytest.fixture(scope="module")
def log_series_reference():
    order = exactpoly.MAX_ORDER
    d_ref = oracles.series_log([gen_u(k) for k in range(order + 1)],
                               RationalPolynomial(()))
    # (1 + sum v_k/nu^k) + (alpha/nu) t (1 + sum u_k/nu^k), as in the docstring
    alpha_t = AlphaPolynomial({1: RationalPolynomial((0, 1), "a")})
    elems = [AlphaPolynomial({0: RationalPolynomial((1,), "a")})]
    for k in range(1, order + 1):
        elems.append(AlphaPolynomial.from_t_polynomial(gen_v(k))
                     + alpha_t * AlphaPolynomial.from_t_polynomial(gen_u(k - 1)))
    m_ref = oracles.series_log(elems, AlphaPolynomial.zero())
    return d_ref, m_ref


@pytest.mark.parametrize("first_call", ["ascending", "cold_top_order"])
def test_log_recurrence_matches_power_series(log_series_reference, first_call):
    d_ref, m_ref = log_series_reference
    _clear_caches()
    if first_call == "cold_top_order":
        gen_M(exactpoly.MAX_ORDER)          # recursion fills every lower order
    for r in range(1, exactpoly.MAX_ORDER + 1):
        assert gen_D(r) == d_ref[r]
        assert gen_M(r) == m_ref[r]
        assert all(type(c) is Fraction for c in gen_D(r).coeffs)


def test_cached_orders_are_read_only():
    # every higher order is built from the cached lower ones, so a write into
    # one would reach all of them
    with pytest.raises(TypeError):
        gen_M(3).tcoeffs[3] = RationalPolynomial((F(1),), "a")
    assert dm_identity_residual(3, F(1)) == 0
    assert dm_identity_residual(4, F(1)) == 0


def test_cold_build_does_few_alpha_products(monkeypatch):
    # one product per (order, lower order) pair plus one per alpha*t*u term;
    # rebuilding the whole series for every order took 1,079
    products = []
    multiply = AlphaPolynomial.__mul__

    def counting(self, other):
        products.append(None)
        return multiply(self, other)

    monkeypatch.setattr(AlphaPolynomial, "__mul__", counting)
    counts = []
    for _ in range(2):
        _clear_caches()
        products.clear()
        for r in range(1, exactpoly.MAX_ORDER + 1):
            gen_D(r)
            gen_M(r)
        counts.append(len(products))
    assert counts[0] == counts[1] <= 100


# ---------------------------------------------------------------------------
# Independent oracle: Olver's uniform large-order expansion of I_nu(nu z)
# and I_nu'(nu z) against mpmath, using the generated u_k / v_k.
# ---------------------------------------------------------------------------

def _olver_prediction(nu, z, order, polys):
    with mp.workdps(40):
        nu_, z_ = mp.mpf(nu), mp.mpf(z)
        root = mp.sqrt(1 + z_ ** 2)
        eta = root + mp.log(z_ / (1 + root))
        t = 1 / root
        series = mp.mpf(0)
        for k in range(order + 1):
            poly = polys[k]
            acc = mp.mpf(1) if k == 0 else mp.mpf(0)
            if k > 0:
                for p, c in poly.terms():
                    acc += mp.mpf(c.numerator) / mp.mpf(c.denominator) * t ** p
            series += acc / nu_ ** k
        return nu_, z_, root, eta, series


def test_u_series_matches_mpmath_bessel_i():
    nu, z, order = 100.0, 0.8, 4
    polys = [gen_u(k) for k in range(order + 1)]
    nu_, z_, root, eta, series = _olver_prediction(nu, z, order, polys)
    with mp.workdps(40):
        approx = mp.exp(nu_ * eta) / (mp.sqrt(2 * mp.pi * nu_) * mp.sqrt(root)) * series
        exact = mp.besseli(nu_, nu_ * z_)
        rel = abs(approx / exact - 1)
    assert rel < 1e-9  # remainder is O(nu^-5) = 1e-10 with a small constant


def test_v_series_matches_mpmath_bessel_i_prime():
    nu, z, order = 100.0, 0.8, 4
    polys = [gen_v(k) for k in range(order + 1)]
    nu_, z_, root, eta, series = _olver_prediction(nu, z, order, polys)
    with mp.workdps(40):
        approx = mp.exp(nu_ * eta) * mp.sqrt(root) / (
            mp.sqrt(2 * mp.pi * nu_) * z_) * series
        exact = mp.besseli(nu_, nu_ * z_, derivative=1)
        rel = abs(approx / exact - 1)
    assert rel < 1e-9


# ---------------------------------------------------------------------------
# Order guards.
# ---------------------------------------------------------------------------

def test_order_limits():
    with pytest.raises(OrderLimitError):
        gen_u(exactpoly.MAX_ORDER + 1)
    with pytest.raises(OrderLimitError):
        gen_D(0)
    with pytest.raises(OrderLimitError):
        gen_M(0)
    with pytest.raises(OrderLimitError):
        gen_M(13)
    with pytest.raises(OrderLimitError):
        gen_D(2.5)  # non-integer order
    # the limit itself is supported
    assert not gen_D(exactpoly.MAX_ORDER).is_zero()


def test_order_limit_is_a_validation_error():
    from conetorsion.errors import ValidationError

    assert issubclass(OrderLimitError, ValidationError)


# ---------------------------------------------------------------------------
# Ring and calculus properties (light property-based coverage).
# ---------------------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)
poly_strategy = st.lists(small_fracs, min_size=0, max_size=5).map(
    RationalPolynomial)


@settings(max_examples=40, deadline=None)
@given(poly_strategy, poly_strategy, small_fracs)
def test_poly_ring_laws(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q).coeffs == (q + p).coeffs
    assert (p * q).coeffs == (q * p).coeffs


@settings(max_examples=40, deadline=None)
@given(poly_strategy)
def test_derivative_inverts_integral(p):
    assert p.integral().derivative() == p


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_identities_hold_for_random_orders(r, alpha):
    assert dm_identity_residual(r, alpha) == 0
    assert zsum_identity_residual(r, alpha) == 0
    assert xzsum_identity_residual(r, alpha) == 0


def test_poly_evaluation_modes():
    p = tpoly(F(1, 2), 0, F(-1, 3))
    assert p(F(1, 2)) == F(1, 2) - F(1, 12)
    assert isinstance(p(0.5), float)
    assert p(0.5) == pytest.approx(float(F(1, 2) - F(1, 12)), rel=1e-15)


def test_alpha_polynomial_substitution_consistency():
    m = gen_M(3)
    alpha = F(2, 3)
    sub = m.substitute_alpha(alpha)
    # substituting then evaluating == evaluating coefficientwise
    t0 = F(3, 4)
    direct = sum(m.t_coefficient(p)(alpha) * t0 ** p for p in m.t_powers())
    assert sub(t0) == direct


def test_alpha_polynomial_degree_in_alpha():
    # M_r is degree r in the boundary parameter
    for r in (1, 2, 3, 4):
        assert gen_M(r).alpha_degree() == r
    assert AlphaPolynomial.zero().alpha_degree() == -1
