"""Array-pass trace evaluators against the per-point math.fsum loops.

Each reference below is the loop the evaluator replaced: one exactly
rounded math.fsum per t over the same terms.  The array pass builds the
same exponents and sums them with numpy row sums, so only the order of
summation differs.  Agreement is required within 1e-15 relative (about
4.5 ulp) of the largest quantity the evaluator forms: the trace itself
on a plain sum, and Z + 1 on a Poisson branch, whose formula
(prefactor) * (1 + s) - 1 subtracts the constant after the sum, so a
one-ulp change of the bracket there is up to (Z + 1) / Z ulps of Z.

The shared kernel builds only the terms binary64 exp does not flush to
zero; two more tests hold it to a full-row math.fsum and hold every
evaluator to the same value for a point whatever batch it comes in.
"""

import inspect
import math

import numpy as np
import pytest

from conetorsion.basemanifold import _DEFAULT_LATTICE, _lattice_points, circle, torus2
from conetorsion.zetacont import (MellinZeta, SpectrumStream, _exp_rowsum,
                                  _gauss_legendre, sqrt_stream)

REL = 1e-15
T_GRID = np.exp(np.linspace(math.log(1e-9), math.log(30.0), 3000))
SHEARED = ((2.0 * math.pi, 0.0), (2.0, 5.0))


def _closure(heat_fn) -> dict:
    """The data a basemanifold heat_fn closes over (its keyword defaults)."""
    return {k: p.default for k, p in inspect.signature(heat_fn).parameters.items()
            if k != "t"}


def _loop_torus2(heat_fn, t, lattice):
    """Per-point reference; returns (Z, scale) with scale = Z + 1 on the
    Poisson branch, which sums over every lattice vector, unmerged."""
    a = _closure(heat_fn)
    basis = np.asarray(lattice if lattice is not None else _DEFAULT_LATTICE)
    ell1 = math.sqrt(_lattice_points(basis, 1.0001 * min(
        math.hypot(*basis[0]), math.hypot(*basis[1])))[0])
    vsq = _lattice_points(basis, 17.5 * ell1)
    z, scale = np.empty_like(t), np.empty_like(t)
    for i, ti in enumerate(t):
        if ti >= a["_ts"]:
            z[i] = math.fsum((a["_em"] * np.exp(-a["_eta"] * ti)).tolist())
            scale[i] = z[i]
        else:
            s = math.fsum(np.exp(-vsq / (4.0 * a["_c2"] * ti)).tolist())
            scale[i] = a["_A"] / ti * (1.0 + s)
            z[i] = scale[i] - 1.0
    return z, scale


def _loop_circle(heat_fn, t):
    c2 = _closure(heat_fn)["_c2"]
    z, scale = np.empty_like(t), np.empty_like(t)
    for i, ti in enumerate(t):
        a = c2 * ti
        if a >= 0.3:
            mmax = int(math.sqrt(745.0 / a)) + 1
            z[i] = 2.0 * math.fsum(math.exp(-a * j * j) for j in range(1, mmax + 1))
            scale[i] = z[i]
        else:
            b = math.pi * math.pi / a
            s = math.fsum(math.exp(-b * j * j) for j in range(1, 6))
            scale[i] = math.sqrt(math.pi / a) * (1.0 + 2.0 * s)
            z[i] = scale[i] - 1.0
    return z, scale


def _loop_eigsum(values, mults, t):
    return np.array([math.fsum((mults * np.exp(-values * ti)).tolist()) for ti in t])


def _assert_close(got, want, scale):
    # multiplied out, so an underflowed trace (scale 0) must match exactly
    bad = np.abs(got - want) > REL * np.abs(scale)
    assert not np.any(bad), (
        f"{np.count_nonzero(bad)} points off, first at t index {np.argmax(bad)}")


@pytest.mark.parametrize("lattice", [None, SHEARED], ids=["square", "sheared"])
@pytest.mark.parametrize("c", [2.0, 2.885])
def test_torus2_trace_matches_loop(c, lattice):
    heat_fn = torus2(c, lattice)._degree(0).heat_fn
    t_switch = _closure(heat_fn)["_ts"]
    assert T_GRID[0] < t_switch < T_GRID[-1]
    want, scale = _loop_torus2(heat_fn, T_GRID, lattice)
    _assert_close(heat_fn(T_GRID), want, scale)
    # the direct branch is a plain sum: relative to Z itself
    direct = T_GRID >= t_switch
    assert np.array_equal(scale[direct], want[direct])


@pytest.mark.parametrize("c", [1.0, 2.0, 6.685])
def test_circle_trace_matches_loop(c):
    heat_fn = circle(c, allow_boundary=True)._degree(0).heat_fn
    a = c * c * T_GRID
    assert np.any(a < 0.3) and np.any(a >= 0.3)
    want, scale = _loop_circle(heat_fn, T_GRID)
    _assert_close(heat_fn(T_GRID), want, scale)


def test_eigenvalue_stream_trace_matches_loop():
    rng = np.random.default_rng(7)
    values = np.sort(rng.uniform(1.5, 4000.0, 2500))
    mults = rng.integers(1, 9, values.size).astype(float)
    stream = SpectrumStream(values, mults)
    t = np.exp(np.linspace(math.log(1e-4), math.log(30.0), 400))
    want = _loop_eigsum(stream.values, stream.mults, t)
    _assert_close(stream.trace(t), want, want)


def test_lift_direct_branch_matches_loop():
    q_stream = torus2(2.0).coclosed_spectrum(0, shift2=0.25)
    lift = sqrt_stream(q_stream, MellinZeta(q_stream, s_max=1.0))
    t_direct = 45.0 / math.sqrt(q_stream.max_value)
    t = np.exp(np.linspace(math.log(t_direct), math.log(30.0), 400))
    want = _loop_eigsum(np.sqrt(q_stream.values), q_stream.mults, t)
    _assert_close(lift.trace(t), want, want)


def _random_stream():
    rng = np.random.default_rng(7)
    values = np.sort(rng.uniform(1.5, 4000.0, 2500))
    return SpectrumStream(values, rng.integers(1, 9, values.size).astype(float))


def _torus2_lift():
    q_stream = torus2(2.0).coclosed_spectrum(0, shift2=0.25)
    return sqrt_stream(q_stream, MellinZeta(q_stream, s_max=1.0))


@pytest.mark.parametrize("make_trace", [
    lambda: torus2(2.0)._degree(0).heat_fn,
    lambda: torus2(2.885, SHEARED)._degree(0).heat_fn,
    lambda: circle(2.0)._degree(0).heat_fn,
    lambda: _random_stream().trace,
    lambda: _torus2_lift().trace,
], ids=["torus2-square", "torus2-sheared", "circle", "eigsum", "lift"])
def test_trace_value_does_not_depend_on_batch(make_trace):
    # bitwise: each point's kernel width comes from that point alone
    trace = make_trace()
    alone = [trace(T_GRID[i:i + 1])[0] for i in range(T_GRID.size)]
    assert np.array_equal(trace(T_GRID), alone)


@pytest.mark.parametrize("divide", [False, True], ids=["product", "quotient"])
def test_exp_kernel_drops_only_exact_zeros(divide):
    rng = np.random.default_rng(3)
    cols = np.sort(rng.uniform(700.0, 800.0, 300))
    weights = rng.integers(1, 9, cols.size).astype(float)
    # exponent -s x at column x: each row's first one lies in -630 .. -740
    # and its last near -720 .. -846, so most rows cross the underflow
    # point; the last row puts every exponent at -747 or below
    scales = np.append(rng.uniform(630.0, 740.0, 200), 747.0) / cols[0]
    rows = 1.0 / scales if divide else scales
    got = _exp_rowsum(rows, cols, weights, divide=divide)
    for g, r in zip(got, rows):
        expo = -cols / r if divide else r * -cols
        want = math.fsum((weights * np.exp(expo)).tolist())
        assert abs(g - want) <= REL * want
    assert 0.0 < got[:-1].min() and got[-1] == 0.0


def test_trace_keeps_shape_of_t():
    heat_fn = torus2(2.0)._degree(0).heat_fn
    t = np.array([1e-3, 0.5, 5.0])
    assert heat_fn(t).shape == t.shape
    assert SpectrumStream([2.0, 3.0]).trace(t).shape == t.shape
    assert SpectrumStream([2.0, 3.0]).trace(0.5).shape == (1,)


def test_gauss_legendre_rule_is_cached_read_only():
    x, w = _gauss_legendre(24)
    assert _gauss_legendre(24)[0] is x
    assert abs(math.fsum(w.tolist()) - 2.0) < 1e-14
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
