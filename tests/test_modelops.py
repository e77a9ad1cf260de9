"""Model boundary operators: closed-form determinants, the independent
numeric route, recursion identities, and the harmonic sector."""

import math

import numpy as np
import pytest
from scipy.special import iv, ivp

from conetorsion import basemanifold as bm
from conetorsion import modelops as mo
from conetorsion.errors import ConvergenceError, SingularModelError, ValidationError
from conetorsion.specfun import LOG_2, LOG_2PI, ln_gamma

import oracles


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------

def test_det_closed_half_order_dirichlet_is_log2():
    d = mo.det_closed(mo.ModelOperator(0.5))
    assert abs(d.log_det - math.log(2.0)) <= 1e-15
    assert d.error_estimate == 0.0


def test_det_closed_formula_transcription():
    # log det = log(2 pi)/2 - nu log 2 - log Gamma(nu+1) [+ log(alpha+nu)]
    for nu in (0.5, 1.0, 2.5, 7.0):
        want = 0.5 * LOG_2PI - nu * LOG_2 - ln_gamma(nu + 1.0)
        assert mo.det_closed(mo.ModelOperator(nu)).log_det == pytest.approx(
            want, rel=1e-15)
        for alpha in (0.0, nu / 2.0, -nu / 2.0):
            got = mo.det_closed(mo.ModelOperator(nu, alpha)).log_det
            assert got == pytest.approx(want + math.log(alpha + nu), rel=1e-14)


@pytest.mark.parametrize("k", range(6))
def test_t_half_integer_matches_det_closed(k):
    assert oracles.t_half_integer(k) == pytest.approx(
        mo.det_closed(mo.ModelOperator(k + 0.5)).log_det, abs=1e-13)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.2, 5.0])
def test_determinant_recursion_in_the_order(nu):
    # raising the order: log det(nu+1, Dirichlet) = log det(nu) - log(2nu+2)
    a = mo.det_closed(mo.ModelOperator(nu + 1.0)).log_det
    b = mo.det_closed(mo.ModelOperator(nu)).log_det - math.log(2.0 * nu + 2.0)
    assert a == pytest.approx(b, abs=1e-13)
    # alias boundary alpha = nu+1 steps back down
    c = mo.det_closed(mo.ModelOperator(nu + 1.0, nu + 1.0)).log_det
    assert c == pytest.approx(mo.det_closed(mo.ModelOperator(nu)).log_det,
                              abs=1e-13)


# ---------------------------------------------------------------------------
# Numeric route (zeta-regularized over computed Bessel zeros).
# ---------------------------------------------------------------------------

def test_det_numeric_half_order_anchor():
    # nu = 1/2 Dirichlet eigenvalues are exactly (k pi)^2: the numeric route
    # must recover log 2 and its error estimate must cover the actual error
    dn = mo.det_numeric(mo.ModelOperator(0.5), tol=1e-7)
    err = abs(dn.log_det - math.log(2.0))
    assert err <= 1e-8
    assert err <= dn.error_estimate + 1e-12
    assert dn.source == "numeric"


@pytest.mark.parametrize("nu", [1.5, 4.0])
@pytest.mark.parametrize("alpha", [math.inf, 0.0, -1.0])
def test_det_numeric_matches_closed(nu, alpha):
    # subset of the full acceptance grid, kept quick; the complete grid runs
    # in the acceptance suite
    op = mo.ModelOperator(nu, alpha)
    dc = mo.det_closed(op).log_det
    dn = mo.det_numeric(op, tol=1e-7)
    assert abs(dc - dn.log_det) <= 1e-7
    assert abs(dc - dn.log_det) <= dn.error_estimate + 1e-10


def test_det_numeric_count_validation():
    with pytest.raises(ValidationError):
        mo.det_numeric(mo.ModelOperator(1.5), count=50)
    with pytest.raises(ValidationError):
        mo.det_numeric(mo.ModelOperator(1.5), tol=1e-9)   # below the floor
    with pytest.raises(ValidationError):
        mo.det_numeric(mo.ModelOperator(1.5), tol=0.1)    # above the ceiling


# ---------------------------------------------------------------------------
# Spectrum identities.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [1.2, 2.0, 3.7])
def test_spectral_shift_identity(nu):
    # zeros of J_nu == zeros of (nu+1) J_{nu+1} + z J_{nu+1}'
    za = mo.spectrum(mo.ModelOperator(nu), 15).zeros
    zb = mo.spectrum(mo.ModelOperator(nu + 1.0, nu + 1.0), 15).zeros
    assert np.max(np.abs(za - zb)) <= 1e-10


def test_alias_alpha_plus_nu_spectrum():
    za = mo.spectrum(mo.ModelOperator(3.0, 3.0), 10).zeros
    zb = mo.spectrum(mo.ModelOperator(2.0), 10).zeros
    assert np.max(np.abs(za - zb)) <= 1e-11


@pytest.mark.parametrize("nu,alpha,z", [(2.5, 1.0, 2.0), (1.5, -0.5, 0.5),
                                        (4.0, 0.0, 1.0)])
def test_boundary_function_product_identity(nu, alpha, z):
    # alpha I_nu(z) + z I_nu'(z) equals its Hadamard product over the
    # boundary zeros, up to the quantified truncation tail
    N = 200
    roots = mo.spectrum(mo.ModelOperator(nu, alpha), N).zeros
    lhs = alpha * iv(nu, z) + z * ivp(nu, z)
    pref = z ** nu / (2.0 ** nu * math.exp(ln_gamma(nu))) * (1.0 + alpha / nu)
    prod = pref * float(np.prod(1.0 + z * z / roots ** 2))
    tail = z * z / (math.pi ** 2 * (N - 2))
    bound = abs(prod) * (math.exp(tail) - 1.0) + 1e-12
    assert abs(lhs - prod) <= bound


# ---------------------------------------------------------------------------
# Harmonic sector.
# ---------------------------------------------------------------------------

def test_harmonic_contribution_closed_values():
    # bitwise equality is part of the contract for these two bases
    assert mo.harmonic_contribution(bm.circle(2.0)) == 0.5 * math.log(2.0)
    assert mo.harmonic_contribution(bm.torus2(2.0)) == -0.5 * math.log(3.0)


def test_harmonic_contribution_is_scale_free_and_betti_linear():
    # only Betti numbers enter the harmonic sector
    assert mo.harmonic_contribution(bm.circle(3.0)) == mo.harmonic_contribution(
        bm.circle(2.0))
    # a disjoint pair of circles (b = (2, 2)) doubles the circle value
    double = bm.BaseManifold(
        name="two-circles", dim=1, betti=(2, 2), scale=2.0, degrees={})
    assert mo.harmonic_contribution(double) == pytest.approx(
        2.0 * mo.harmonic_contribution(bm.circle(2.0)), rel=1e-15)


def test_harmonic_contribution_half_integer_consistency():
    # the circle's single harmonic pair contributes half the closed-form
    # determinant of the order-1/2 Dirichlet model operator
    assert mo.harmonic_contribution(bm.circle(2.0)) == pytest.approx(
        0.5 * oracles.t_half_integer(0), rel=1e-15)


# ---------------------------------------------------------------------------
# Validation and singular configurations.
# ---------------------------------------------------------------------------

def test_singular_model_rejected():
    with pytest.raises(SingularModelError):
        mo.ModelOperator(2.0, -2.0)
    # SingularModelError is a ValidationError (CLI maps both to exit 2)
    assert issubclass(SingularModelError, ValidationError)


def test_operator_validation():
    with pytest.raises(ValidationError):
        mo.ModelOperator(2.0, 3.0)     # alpha > nu
    with pytest.raises(ValidationError):
        mo.ModelOperator(2.0, -2.5)    # alpha < -nu
    with pytest.raises(ValidationError):
        mo.ModelOperator(-1.0)         # negative order
    # boundary alpha = +nu is legal (alias); alpha in (-nu, nu] accepted
    mo.ModelOperator(2.0, 2.0)
    mo.ModelOperator(2.0, -1.999)


def test_determinant_value_fields():
    d = mo.det_closed(mo.ModelOperator(1.5, 0.5))
    assert d.source == "closed-form"
    assert d.error_estimate == 0.0
    assert math.isfinite(d.log_det)
