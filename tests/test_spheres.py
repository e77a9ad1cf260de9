"""Exact oracles for the cones over the unit round S^2 and S^3 (the unit
balls B^3 and B^4) and over RP^3 = S^3/{+-1}, solved from their coexact
listings on the numeric route.

S^3 reaches branches no built-in base does: a degree k = 1 term, dim N = 3,
an integer alpha_k (alpha_0 = 1) and the even-parity middle degree (k = 1,
alpha_1 = 0, weight -1/4).  Its exact continuation data come from Hurwitz
zeta derivatives at negative integers (``oracles.s3_zeta_data``), which
share nothing with the Mellin engine.  RP^3 keeps one parity of nu in each
degree; its exact data are Riemann zeta functions with powers of 2
(``oracles.rp3_zeta_data``).
"""

import math

import pytest

from conetorsion import basemanifold as bm
from conetorsion.modelops import harmonic_contribution
from conetorsion.torsion import degree_continuation, log_torsion, spectral_bracket
from conetorsion.zetacont import ZetaFunctionData

import oracles


@pytest.fixture(scope="module")
def s3():
    return bm.custom(oracles.round_sphere_mapping(3))


@pytest.mark.parametrize("k", [0, 1])
def test_s3_listing_matches_the_exact_degree_data(s3, k):
    exact = oracles.s3_zeta_data(k)
    dc = degree_continuation(s3, k)
    assert dc.alpha == (1 if k == 0 else 0)
    assert abs(dc.data.deriv0 - exact["deriv0"]) <= dc.data.error_estimate
    for shift, value in exact["deriv0_shifted"].items():
        assert abs(dc.data.deriv0_shifted[shift] - value) <= dc.shift_errors[shift]
    for i, value in exact["residues"].items():
        assert abs(dc.data.residues[i] - value) <= dc.data.error_estimate


def test_exact_s3_data_assemble_to_the_ball_value(s3):
    # log T(B^4) = harmonic term + sum_k weight_k * bracket_k over the exact
    # data; the weights are 1/2 (k = 0) and -1/2 * 1/2 (middle degree k = 1)
    terms = [harmonic_contribution(s3)]
    for k, weight in ((0, 0.5), (1, -0.25)):
        exact = oracles.s3_zeta_data(k)
        data = ZetaFunctionData(deriv0=exact["deriv0"],
                                deriv0_shifted=exact["deriv0_shifted"],
                                residues=exact["residues"])
        value, _ = spectral_bracket(data, degree_continuation(s3, k).alpha, 3)
        terms.append(weight * value)
    assert abs(math.fsum(terms) - oracles.BALL4_LOG_TORSION) <= 1e-15


def test_s3_cone_is_the_ball_within_its_estimate(s3):
    result = log_torsion(s3)
    assert result.parity == "even"
    assert [entry["weight"] for entry in result.per_degree.values()] == [0.5, -0.25]
    assert abs(result.log_torsion - oracles.BALL4_LOG_TORSION) <= result.error_estimate


def test_s2_cone_is_the_ball_within_its_estimate():
    result = log_torsion(bm.custom(oracles.round_sphere_mapping(2)))
    assert result.parity == "odd"
    assert abs(result.log_torsion - oracles.BALL3_LOG_TORSION) <= result.error_estimate


@pytest.fixture(scope="module")
def rp3():
    return bm.custom(oracles.rp3_mapping())


@pytest.mark.parametrize("k", [0, 1])
def test_rp3_listing_matches_the_exact_degree_data(rp3, k):
    exact = oracles.rp3_zeta_data(k)
    dc = degree_continuation(rp3, k)
    assert dc.alpha == (1 if k == 0 else 0)
    assert abs(dc.data.deriv0 - exact["deriv0"]) <= dc.data.error_estimate
    for shift, value in exact["deriv0_shifted"].items():
        assert abs(dc.data.deriv0_shifted[shift] - value) <= dc.shift_errors[shift]
    for i, value in exact["residues"].items():
        assert abs(dc.data.residues[i] - value) <= dc.data.error_estimate


def test_exact_rp3_data_assemble_to_its_cone_value(rp3):
    terms = [harmonic_contribution(rp3)]
    for k, weight in ((0, 0.5), (1, -0.25)):
        exact = oracles.rp3_zeta_data(k)
        data = ZetaFunctionData(deriv0=exact["deriv0"],
                                deriv0_shifted=exact["deriv0_shifted"],
                                residues=exact["residues"])
        value, _ = spectral_bracket(data, degree_continuation(rp3, k).alpha, 3)
        terms.append(weight * value)
    assert abs(math.fsum(terms) - oracles.RP3_LOG_TORSION) <= 1e-15


def test_rp3_cone_is_its_exact_value_within_its_estimate(rp3):
    result = log_torsion(rp3)
    assert result.parity == "even"
    assert [entry["weight"] for entry in result.per_degree.values()] == [0.5, -0.25]
    assert abs(result.log_torsion - oracles.RP3_LOG_TORSION) <= result.error_estimate
