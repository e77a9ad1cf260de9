"""Torsion assembly: closed forms vs the independent spectral routes, the
large-order remainder analysis, and the degree/parity bookkeeping."""

import dataclasses
import math

import pytest

from conetorsion.basemanifold import circle, torus2
from conetorsion.errors import ValidationError
from conetorsion.torsion import (
    ConeOverS1Config,
    SpectralParameter,
    asymptotic_remainder,
    corollary_2d,
    corollary_3d,
    corollary_3d_precancellation,
    degree_continuation,
    f_r,
    fit_remainder,
    frequency_log_term,
    lemma_first_summand,
    lemma_first_summand_numeric,
    log_torsion,
    remainder_asymptote,
    t_nu_k,
    theorem_main,
    zeta_k_prime0,
)


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
    assert abs(bd.recombined() - bd.log_torsion) < 1e-14
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
    wrong = dataclasses.replace(bd, per_degree=per_degree).recombined()
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

    # the spectra on the record are shared too: the lift cross-check of a
    # torus reads q_stream on first use (a doubled mults array moved
    # error_estimate from 5.4e-12 to 1.39)
    tor = torus2(2.0)
    dc = degree_continuation(tor, 0)
    for arr in (dc.nu.q_stream.mults, dc.nu.q_stream.values,
                dc.nu.nu_stream.values, dc.nu.nu_stream.mults):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] *= 2.0
    assert log_torsion(tor).error_estimate == log_torsion(torus2(2.0)).error_estimate


def test_breakdown_metadata():
    bd = log_torsion(circle(2.0))
    assert bd.base_id.startswith("circle")
    assert bd.scale == 2.0
    assert len(bd.per_degree) == 1
    assert bd.harmonic_term == 0.5 * math.log(2.0)


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
    assert abs(bd.recombined() - bd.log_torsion) < 1e-14
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


def test_spectral_parameter_derived_quantities():
    sp = SpectralParameter(-3.0)
    assert sp.z == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert sp.t == pytest.approx(0.5, rel=1e-15)
