"""Bessel-zero solver versus mpmath's independent zero finder."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import conetorsion
from conetorsion import besselzero
from conetorsion.besselzero import (ZeroList, ZeroRequest, _dirichlet_zeros,
                                    _scan_zeros, mcmahon_guess, zeros)
from conetorsion.errors import ConvergenceError, ValidationError

import oracles

ORDERS = [0.0, 0.5, 1.0, 2.7, 5.0]


@pytest.mark.parametrize("nu", ORDERS)
def test_dirichlet_zeros_match_mpmath(nu):
    zl = zeros(ZeroRequest(nu=nu, kind="dirichlet", count=10))
    for k in range(10):
        want = oracles.j_zero(nu, k + 1)
        assert zl.zeros[k] == pytest.approx(want, rel=5e-14)


@pytest.mark.parametrize("nu", ORDERS)
def test_neumann_zeros_match_mpmath(nu):
    zl = zeros(ZeroRequest(nu=nu, kind="neumann", count=10))
    for k in range(10):
        want = oracles.jprime_zero(nu, k + 1)
        assert zl.zeros[k] == pytest.approx(want, rel=5e-14)


@pytest.mark.parametrize("nu", [3.0, 2.7])
def test_scan_zeros_match_newton_and_mpmath(nu):
    scanned = _scan_zeros(nu, 10)
    assert scanned == pytest.approx(_dirichlet_zeros(nu, 10), rel=1e-14)
    for k in range(10):
        assert scanned[k] == pytest.approx(oracles.j_zero(nu, k + 1), rel=5e-14)


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(Path(conetorsion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, conetorsion.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


def test_zero_list_is_read_only():
    # the Dirichlet kind hands out the memoized array: a write must not
    # reach later solves
    req = ZeroRequest(2.0, "dirichlet", 50)
    first = zeros(req)
    before = first.zeros.copy()
    for arr in (first.zeros, first.residuals, first.fprimes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    again = zeros(req)
    assert again.zeros.tobytes() == before.tobytes()
    assert again.residuals.tobytes() == first.residuals.tobytes()
    assert again.fprimes.tobytes() == first.fprimes.tobytes()


# the reference side solves its anchors apart from the solver's own memo
_reference_anchors = functools.lru_cache(maxsize=None)(_dirichlet_zeros.__wrapped__)


def _bisect_every_sweep(nu, count, f, fpair, left_edge=0.0):
    """Reference: the interlaced bisection with all 54 sweeps over every
    element."""
    anchors = _reference_anchors(nu, count)
    lo = np.concatenate([[left_edge], anchors[:-1]])
    hi = anchors.copy()
    flo_sign = np.empty(count)
    flo_sign[0] = 1.0
    if count > 1:
        fa, _ = fpair(anchors[:-1])
        flo_sign[1:] = np.sign(fa)
    for _ in range(54):
        mid = 0.5 * (lo + hi)
        sm = np.sign(f(mid))
        take_lo = (sm == flo_sign) | (sm == 0.0)
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    z = 0.5 * (lo + hi)
    for _ in range(3):
        f, fp = fpair(z)
        step = np.where(fp != 0.0, f / fp, 0.0)
        z = np.clip(z - step, lo, hi)
    return z


def _outcome(req):
    try:
        zl = zeros(req)
    except ConvergenceError as exc:
        return str(exc)
    return tuple(arr.tobytes() for arr in (zl.zeros, zl.residuals, zl.fprimes))


def _bitwise_cases(nu):
    # +-1.0 are on the model-determinant-oracle grid, 0.854 is a benchmark request
    alphas = dict.fromkeys((0.0, 0.5 * nu, -0.5 * nu, nu, math.inf, 1.0, -1.0, 0.854))
    for count in (5, 50, 2000):
        yield ZeroRequest(nu, "dirichlet", count)
        yield ZeroRequest(nu, "neumann", count)
        for alpha in alphas:
            if alpha in (nu, math.inf) or alpha * alpha < nu * nu:
                yield ZeroRequest(nu, "mixed", count, alpha)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nu", [0.0, 1e-6, 0.945, 1.5, 2.5, 3.378, 4.0, 30.0])
def test_solver_is_bitwise_the_full_sweep_bisection(nu, monkeypatch):
    # the memoized anchors, the shrinking live set of the bisection and the
    # signs it takes from a checked enclosure instead of evaluating f are
    # work savings only: zeros, residuals and f' stay bitwise the same
    cases = list(_bitwise_cases(nu))
    fast = [_outcome(req) for req in cases]
    monkeypatch.setattr(besselzero, "_bisect_interlaced", _bisect_every_sweep)
    monkeypatch.setattr(besselzero, "_dirichlet_zeros", _reference_anchors)
    for req, got in zip(cases, fast):
        assert got == _outcome(req), req


def _count_bessel_points(monkeypatch, req):
    """Direct jv/jvp points of one solve, its Dirichlet anchors solved
    beforehand."""
    _dirichlet_zeros(req.nu, req.count)
    points = {"jv": 0, "jvp": 0}

    # the solver imports jv/jvp from scipy.special at each evaluation, so
    # the counters go on the scipy.special module itself
    def counted(name):
        original = getattr(scipy.special, name)

        def wrapper(order, z):
            points[name] += np.size(z)
            return original(order, z)
        return wrapper

    for name in points:
        monkeypatch.setattr(scipy.special, name, counted(name))
    zeros(req)
    return points


def test_neumann_sweep_evaluates_only_j_prime(monkeypatch):
    # the secant, the enclosure and the bisection read only f = J'; J itself
    # (for J'') is needed only by the three Newton polishes and the final
    # residuals.  Evaluating J' at every one of the 54 midpoints costs
    # about 52 points per zero; the enclosure leaves about 21.3.
    count = 200
    points = _count_bessel_points(monkeypatch, ZeroRequest(2.5, "neumann", count))
    assert points["jv"] == 4 * count
    assert points["jvp"] <= 22 * count


def test_mixed_sweep_evaluates_f_only_where_the_sign_is_in_doubt(monkeypatch):
    # f = alpha*J + z*J' takes one jv and one jvp point; every midpoint
    # would cost about 49 of each per zero, the enclosure leaves about 21
    count = 2000
    points = _count_bessel_points(monkeypatch, ZeroRequest(2.5, "mixed", count, 1.0))
    assert points["jv"] == points["jvp"] <= 22 * count


def test_half_integer_dirichlet_is_k_pi():
    # J_{1/2}(z) is proportional to sin(z)/sqrt(z): zeros exactly at k*pi.
    zl = zeros(ZeroRequest(nu=0.5, kind="dirichlet", count=8))
    for k, z in enumerate(zl.zeros, start=1):
        assert z == pytest.approx(k * math.pi, rel=1e-14)


def test_neumann_order_zero_skips_origin():
    # J_0'(0) = 0 is a stationary point, not a counted zero; the first
    # reported zero is the classical 3.8317...
    zl = zeros(ZeroRequest(nu=0.0, kind="neumann", count=3))
    assert zl.zeros[0] == pytest.approx(3.8317059702075123, rel=1e-12)
    assert zl.zeros[0] > 1.0


@pytest.mark.parametrize("nu,alpha", [(2.0, 0.0), (2.0, 1.0), (2.0, -1.5),
                                      (3.7, 0.5), (1.2, -1.0)])
def test_mixed_zeros_satisfy_equation(nu, alpha):
    zl = zeros(ZeroRequest(nu=nu, kind="mixed", count=8, alpha=alpha))
    for z in zl.zeros:
        refined = oracles.mixed_zero_refine(nu, alpha, z)
        assert z == pytest.approx(refined, rel=5e-13)
    # residuals reported by the solver are honest
    assert np.max(np.abs(zl.residuals)) < 1e-10


@pytest.mark.parametrize("nu,alpha", [(30.0, -27.0), (55.5, -49.95),
                                      (100.0, -90.0), (10.0, -9.9)])
def test_simple_zeros_where_j_is_exponentially_small(nu, alpha):
    # below z = nu, J_nu is exponentially small and so is f' at a simple
    # zero (f' = -2.07e-9 at the first zero for nu = 30); simplicity is judged
    # against the sizes of the terms f' sums (an absolute floor of 1e-8
    # refused all four requests as non-simple)
    zl = zeros(ZeroRequest(nu=nu, kind="mixed", count=5, alpha=alpha))
    first = float(zl.zeros[0])
    assert first < oracles.j_zero(nu, 1)         # the head interval's zero
    assert first == pytest.approx(oracles.mixed_zero_refine(nu, alpha, first), rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the Newton polish divides by f' = 0
def test_cancelling_derivative_terms_are_refused(monkeypatch):
    # f' whose two terms cancel is a double zero: still refused
    evaluate = besselzero._f_mixed

    def cancelled(nu, alpha, z):
        f, fp, size = evaluate(nu, alpha, z)
        return f, 0.0 * fp, size

    monkeypatch.setattr(besselzero, "_f_mixed", cancelled)
    with pytest.raises(ConvergenceError, match="non-simple zero"):
        zeros(ZeroRequest(nu=2.5, kind="mixed", count=5, alpha=1.0))


def test_mixed_alpha_plus_nu_matches_shifted_dirichlet():
    # alpha = +nu: nu J_nu(z) + z J_nu'(z) = z J_{nu-1}(z), so the zeros are
    # the Dirichlet zeros one order down.
    nu = 3.0
    mixed = zeros(ZeroRequest(nu=nu, kind="mixed", count=6, alpha=nu))
    dirich = zeros(ZeroRequest(nu=nu - 1.0, kind="dirichlet", count=6))
    assert np.allclose(mixed.zeros, dirich.zeros, rtol=1e-11, atol=0)


def test_mixed_alpha_inf_is_dirichlet():
    nu = 2.5
    mixed = zeros(ZeroRequest(nu=nu, kind="mixed", count=6, alpha=math.inf))
    dirich = zeros(ZeroRequest(nu=nu, kind="dirichlet", count=6))
    assert np.allclose(mixed.zeros, dirich.zeros, rtol=1e-12, atol=0)


def test_interlacing_of_dirichlet_and_neumann():
    nu = 1.3
    d = zeros(ZeroRequest(nu=nu, kind="dirichlet", count=12)).zeros
    n = zeros(ZeroRequest(nu=nu, kind="neumann", count=12)).zeros
    # j'_{nu,k} < j_{nu,k} < j'_{nu,k+1}
    assert np.all(n[:-1] < d[:-1])
    assert np.all(d[:-1] < n[1:])


def test_eigenvalues_are_squared_zeros():
    zl = zeros(ZeroRequest(nu=1.0, kind="dirichlet", count=5))
    assert np.array_equal(zl.eigenvalues(), zl.zeros ** 2)


def test_zero_list_carries_request_and_diagnostics():
    req = ZeroRequest(nu=1.0, kind="dirichlet", count=7)
    zl = zeros(req)
    assert isinstance(zl, ZeroList)
    assert zl.request is req
    assert zl.zeros.shape == zl.residuals.shape == zl.fprimes.shape == (7,)
    assert np.all(np.abs(zl.fprimes) > 0)


def test_mcmahon_guess_quality():
    # seeds land within half a spacing of the true zero, far out and near in
    for nu in (0.0, 2.7, 5.0):
        for k in (1, 5, 40):
            g = mcmahon_guess(nu, k)
            want = oracles.j_zero(nu, k)
            assert abs(g - want) < 0.5


def test_request_validation():
    with pytest.raises(ValidationError):
        ZeroRequest(nu=-1.0, kind="dirichlet", count=3)
    with pytest.raises(ValidationError):
        ZeroRequest(nu=math.inf, kind="dirichlet", count=3)
    with pytest.raises(ValidationError):
        ZeroRequest(nu=1.0, kind="robin", count=3)
    with pytest.raises(ValidationError):
        ZeroRequest(nu=1.0, kind="dirichlet", count=0)
    with pytest.raises(ValidationError):
        ZeroRequest(nu=1.0, kind="dirichlet", count=3, alpha=0.5)
    with pytest.raises(ValidationError):
        ZeroRequest(nu=1.0, kind="mixed", count=3)  # alpha missing
    with pytest.raises(ValidationError):
        ZeroRequest(nu=1.0, kind="mixed", count=3, alpha=2.0)  # alpha^2 >= nu^2
    with pytest.raises(ValidationError):
        ZeroRequest(nu=1.0, kind="mixed", count=3, alpha=-1.0)  # alpha = -nu
    # legal boundary cases construct fine
    ZeroRequest(nu=1.0, kind="mixed", count=3, alpha=1.0)
    ZeroRequest(nu=1.0, kind="mixed", count=3, alpha=math.inf)


@pytest.mark.parametrize("field,kwargs", [
    pytest.param("count", dict(nu=2.0, kind="dirichlet", count=True), id="count-bool"),
    pytest.param("count", dict(nu=2.0, kind="dirichlet", count=3.0), id="count-float"),
    pytest.param("nu", dict(nu="2", kind="dirichlet", count=3), id="nu-str"),
    pytest.param("nu", dict(nu=True, kind="dirichlet", count=3), id="nu-bool"),
    pytest.param("nu", dict(nu=None, kind="neumann", count=3), id="nu-none"),
    pytest.param("alpha", dict(nu=2.0, kind="mixed", count=3, alpha=True), id="alpha-bool"),
    pytest.param("alpha", dict(nu=2.0, kind="mixed", count=3, alpha="1"), id="alpha-str"),
    pytest.param("alpha", dict(nu=2.0, kind="dirichlet", count=3, alpha=False),
                 id="alpha-bool-dirichlet"),
])
def test_request_refuses_bools_and_non_numbers(field, kwargs):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        ZeroRequest(**kwargs)


def test_request_refuses_an_order_beyond_binary64():
    with pytest.raises(ValidationError, match="nu="):
        ZeroRequest(nu=10 ** 400, kind="dirichlet", count=3)


def test_tiny_order_neumann_first_zero():
    # j'_{nu,1} ~ sqrt(2 nu) as nu -> 0+: the solver must resolve that mode
    # instead of skipping to the order-zero ladder
    nu = 1e-6
    zl = zeros(ZeroRequest(nu=nu, kind="neumann", count=3))
    assert zl.zeros[0] == pytest.approx(oracles.jprime_zero(nu, 1), rel=1e-10)
    assert zl.zeros[1] == pytest.approx(oracles.jprime_zero(nu, 2), rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_underflow_order_fails_honestly():
    # at underflow scale the sqrt(2 nu) mode cannot be resolved in floats;
    # the solver must refuse rather than return a wrong list
    from conetorsion.errors import ConvergenceError

    with pytest.raises(ConvergenceError):
        zeros(ZeroRequest(nu=1e-45, kind="neumann", count=5))


@settings(max_examples=15, deadline=None)
@given(
    nu=st.one_of(st.just(0.0),
                 st.floats(min_value=1e-6, max_value=6.0, allow_nan=False)),
    kind=st.sampled_from(["dirichlet", "neumann"]),
)
def test_zero_streams_are_well_spaced(nu, kind):
    zl = zeros(ZeroRequest(nu=nu, kind=kind, count=30))
    z = zl.zeros
    assert np.all(z > 0)
    assert np.all(np.diff(z) > 0)
    # spacing approaches pi from whichever side, within 5% by index 30
    tail_gap = z[-1] - z[-2]
    assert abs(tail_gap - math.pi) < 0.05 * math.pi
    assert np.array_equal(zl.eigenvalues(), z ** 2)
