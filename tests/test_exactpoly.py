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
    Polynomial,
    dm_identity_residual,
    gen_D,
    gen_M,
    gen_u,
    gen_v,
    parity_bracket,
    xzsum_identity_residual,
    zsum_identity_residual,
)

import oracles

F = Fraction


def tpoly(*coeffs):
    """The polynomial sum_i coeffs[i] t^i."""
    return Polynomial({(i, 0): c for i, c in enumerate(coeffs)})


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
    # (i, j) keys the coefficient of t^i alpha^j
    assert gen_M(1).terms == {(1, 0): F(-3, 8), (1, 1): 1, (3, 0): F(7, 24)}


def test_m2_exact():
    assert gen_M(2).terms == {(2, 0): F(-3, 16), (2, 1): F(1, 2), (2, 2): F(-1, 2),
                              (4, 0): F(5, 8), (4, 1): F(-1, 2), (6, 0): F(-7, 16)}


# ---------------------------------------------------------------------------
# Cross-identities, exact through order 10 over a spread of alpha values.
# ---------------------------------------------------------------------------

ALPHAS = (F(0), F(1, 2), F(-1, 2), F(1), F(3, 2), F(2), F(1, 3), F(-7, 5))


@pytest.mark.parametrize("r", range(1, 11))
def test_dm_identity_exact(r):
    for alpha in ALPHAS:
        assert dm_identity_residual(r, alpha) == 0
        assert dm_identity_residual(r, -alpha) == 0


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
        assert all(i > 0 for i, _ in gen_D(r).terms)
        assert all(i > 0 for i, _ in gen_M(r).terms)


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
    d_ref = oracles.series_log([gen_u(k) for k in range(order + 1)], Polynomial({}))
    # (1 + sum v_k/nu^k) + (alpha/nu) t (1 + sum u_k/nu^k), as in the docstring
    alpha_t = Polynomial({(1, 1): 1})
    elems = [Polynomial({(0, 0): 1})]
    for k in range(1, order + 1):
        elems.append(gen_v(k) + alpha_t * gen_u(k - 1))
    m_ref = oracles.series_log(elems, Polynomial({}))
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
        assert all(type(c) is Fraction for c in gen_D(r).terms.values())
        assert all(type(c) is Fraction for c in gen_M(r).terms.values())


def _reference_bracket(d_ref, m_ref, r, alpha, parity):
    """parity_bracket's (c_{r,b}, power term) from the power-series D_r, M_r,
    by substituting +-alpha into whole polynomials."""
    m_minus, m_plus = m_ref[r].at_alpha(-alpha), m_ref[r].at_alpha(alpha)
    if parity == "odd":
        bracket, power = m_minus - m_plus, (alpha ** r - (-alpha) ** r) / r
    else:
        bracket = d_ref[r].scale(2) - m_minus - m_plus
        power = (alpha ** r + (-alpha) ** r) / r
    ladder = [(r + 2 * b, 0) for b in range(r + 1)]
    assert set(bracket.terms) <= set(ladder)
    return tuple(bracket.terms.get(ij, F(0)) for ij in ladder), power


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_parity_bracket_matches_power_series_oracle(log_series_reference, parity):
    d_ref, m_ref = log_series_reference
    for r in range(1, exactpoly.MAX_ORDER + 1):
        for alpha in ALPHAS:
            coeffs, power = parity_bracket(r, alpha, parity)
            assert all(type(c) is Fraction for c in coeffs)
            assert (coeffs, power) == _reference_bracket(d_ref, m_ref, r, alpha, parity)


@pytest.mark.parametrize("parity, name, stray", [
    ("odd", "gen_M", "M_2 has unexpected powers [3, 8]"),
    ("even", "gen_M", "M_2 has unexpected powers [3, 8]"),
    ("even", "gen_D", "D_2 has unexpected powers [3, 8]")])
def test_parity_bracket_refuses_stray_powers(monkeypatch, parity, name, stray):
    bad = Polynomial({(2, 0): 1, (3, 1): 1, (8, 0): 1})
    monkeypatch.setattr(exactpoly, name, lambda r: bad)
    parity_bracket.cache_clear()        # a cached bracket would not read the patched one
    with pytest.raises(AssertionError) as info:
        parity_bracket(2, F(1, 2), parity)
    assert str(info.value) == stray


def test_parity_bracket_is_cached_typed_and_immutable():
    # one entry per typed (r, alpha, parity): a second read is the same
    # tuple, which refuses writes, and True is not taken for the order 1
    first = parity_bracket(2, F(1, 2), "odd")
    assert parity_bracket(2, F(1, 2), "odd") is first
    assert type(first) is tuple and type(first[0]) is tuple
    with pytest.raises(TypeError):
        first[0][0] = F(1)
    parity_bracket(1, F(1, 2), "odd")
    with pytest.raises(OrderLimitError):
        parity_bracket(True, F(1, 2), "odd")


def test_cached_orders_are_read_only():
    # every higher order is built from the cached lower ones, so a write into
    # one would reach all of them
    with pytest.raises(TypeError):
        gen_M(3).terms[3, 0] = F(1)
    assert dm_identity_residual(3, F(1)) == 0
    assert dm_identity_residual(4, F(1)) == 0


def test_cached_polynomials_refuse_attribute_writes():
    # a new terms map on the cached D_1 would silently change D_2
    try:
        for poly, attr, value in ((gen_D(1), "terms", {(0, 0): F(1)}),
                                  (gen_M(1), "terms", {})):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(poly, attr, value)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(poly, attr)
        assert gen_D(2) == tpoly(0, 0, F(1, 16), 0, F(-3, 8), 0, F(5, 16))
    finally:
        _clear_caches()     # a write that got through must not reach later tests


def test_cold_build_does_few_alpha_products(monkeypatch):
    # one product per (order, lower order) pair plus one per alpha*t*u term;
    # rebuilding the whole series for every order took 1,079
    products = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        if any(j for _, j in self.terms) or any(j for _, j in other.terms):
            products.append(None)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
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
                for (p, _), c in poly.terms.items():
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
    assert gen_D(exactpoly.MAX_ORDER).terms


def test_order_limit_is_a_validation_error():
    from conetorsion.errors import ValidationError

    assert issubclass(OrderLimitError, ValidationError)


# ---------------------------------------------------------------------------
# Ring and calculus properties (light property-based coverage).
# ---------------------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)
# polynomials in t and alpha: (i, j) -> coefficient of t^i alpha^j
poly_strategy = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)), small_fracs,
    max_size=6).map(Polynomial)


def _value(p, t, alpha):
    return p.at_alpha(alpha)(t)


@settings(max_examples=40, deadline=None)
@given(poly_strategy, poly_strategy, small_fracs, small_fracs)
def test_poly_ring_laws(p, q, x, a):
    assert _value(p + q, x, a) == _value(p, x, a) + _value(q, x, a)
    assert _value(p - q, x, a) == _value(p, x, a) - _value(q, x, a)
    assert _value(p * q, x, a) == _value(p, x, a) * _value(q, x, a)
    assert _value(p.scale(a), x, a) == a * _value(p, x, a)
    assert _value(p.shift(2), x, a) == x ** 2 * _value(p, x, a)
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(poly_strategy)
def test_derivative_inverts_integral(p):
    assert p.integral().derivative() == p
    assert all(i > 0 for i, _ in p.integral().terms)


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
    with pytest.raises(ValueError, match="alpha"):
        gen_M(1)(0.5)


@pytest.mark.parametrize("r", [1, 5, 12])
def test_float_evaluation_is_dense_horner(r):
    # f_r reads brackets through float Horner over every power from the top,
    # zero coefficients included: the same float operations in the same order
    poly = gen_D(r)
    top = max(i for i, _ in poly.terms)
    dense = [poly.terms.get((i, 0), F(0)) for i in range(top + 1)]
    for t in (0.1, 0.37, 0.999):
        acc = 0.0
        for c in reversed(dense):
            acc = acc * t + float(c)
        assert poly(t) == acc


def test_alpha_polynomial_substitution_consistency():
    m = gen_M(3)
    alpha = F(2, 3)
    sub = m.at_alpha(alpha)
    # substituting then evaluating == evaluating term by term
    t0 = F(3, 4)
    direct = sum(c * alpha ** j * t0 ** i for (i, j), c in m.terms.items())
    assert sub(t0) == direct
    assert all(j == 0 for _, j in sub.terms)


def test_alpha_polynomial_degree_in_alpha():
    # M_r is degree r in the boundary parameter
    for r in (1, 2, 3, 4):
        assert oracles.alpha_degree(gen_M(r)) == r
    assert oracles.alpha_degree(gen_D(4)) == 0
    assert oracles.alpha_degree(Polynomial({})) == -1
