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
evaluator to the same value for a point whatever batch it comes in.  It
works in row tiles: two more hold it bitwise to the one-pass form and its
working set to a small multiple of the tile.  It stops each row where its
float sum stops moving, on numpy's summation tree (``oracles.pairwise_sum``
models it): seeded random calls hold it bitwise to the one-pass form over
the full widths, and one more bounds the terms it builds.  The quadrature panels and
the t_min probes of the Mellin engine are held bitwise to the per-panel
loop and the all-probes call they replaced (``oracles``), and the traces
it keeps from its one batch call to fresh calls on each grid alone.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conetorsion.basemanifold import _DEFAULT_LATTICE, circle, torus2
from conetorsion.modelops import ModelOperator, spectrum
from conetorsion.zetacont import (_EXP_ZERO, _NODES, _NORMAL_EXP, _PROBE_BLOCK, _TILE, RMAX,
                                  MellinZeta, SpectrumStream, _exp_rowsum, _gauss_legendre,
                                  _heat_eval, _lattice_points, _log_panels, _row_widths,
                                  progression_stream)

REL = 1e-15
T_GRID = np.exp(np.linspace(math.log(1e-9), math.log(30.0), 3000))
# one batch in the Mellin engine's order, which is not monotone: a fit window
# above t_min = 1e-4, the [t_min, 1] and [1, T] quadrature grids, their
# coarse error probes and T = 30
ENGINE_BATCH = np.concatenate(
    [np.exp(np.linspace(math.log(1e-4), math.log(0.03), 160))]
    + [_log_panels(a, b, nodes, per_decade)[0] for nodes in (_NODES, _NODES // 2 + 2)
       for a, b, per_decade in ((1e-4, 1.0, 1), (1.0, 30.0, 3))] + [np.array([30.0])])
SHEARED = ((2.0 * math.pi, 0.0), (2.0, 5.0))


def _shortest_norm(basis) -> float:
    return math.sqrt(_lattice_points(basis, 1.0001 * min(
        math.hypot(*row) for row in basis))[0])


def _switch(basis, c: float) -> float:
    """l1/(4 pi c^2 q1), for the shortest vectors l1 of L and q1 of L*."""
    dual = np.linalg.inv(basis).T
    return _shortest_norm(basis) / (4.0 * math.pi * c * c * _shortest_norm(dual))


def _loop_flat_torus(stream, t, basis, c):
    """Per-point reference for the theta trace of R^n/L at scale c, L
    spanned by the rows of ``basis``, derived from the lattice and c alone
    (the switch, A = |det B|/(4 pi c^2)^(n/2) and the Poisson norms), with
    the direct branch over the stream's listing; returns (Z, scale) with
    scale = Z + 1 on the Poisson branch, which sums over every lattice
    vector, unmerged."""
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    c2 = c * c
    t_switch = _switch(basis, c)
    lead = abs(float(np.linalg.det(basis))) / (4.0 * math.pi * c2) ** (0.5 * n)
    vsq = _lattice_points(basis, 17.5 * _shortest_norm(basis))
    z, scale = np.empty_like(t), np.empty_like(t)
    for i, ti in enumerate(t):
        if ti >= t_switch:
            z[i] = math.fsum((stream.mults * np.exp(-stream.values * ti)).tolist())
            scale[i] = z[i]
        else:
            s = math.fsum(np.exp(-vsq / (4.0 * c2 * ti)).tolist())
            scale[i] = lead / ti ** (0.5 * n) * (1.0 + s)
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
    stream = torus2(c, lattice).coclosed_spectrum(0)
    basis = np.array(lattice if lattice is not None else _DEFAULT_LATTICE)
    t_switch = _switch(basis, c)
    assert T_GRID[0] < t_switch < T_GRID[-1]
    want, scale = _loop_flat_torus(stream, T_GRID, basis, c)
    _assert_close(stream.heat_fn(T_GRID), want, scale)
    # the direct branch is a plain sum: relative to Z itself
    direct = T_GRID >= t_switch
    assert np.array_equal(scale[direct], want[direct])


@pytest.mark.parametrize("c", [1.0, 2.0, 6.685])
def test_circle_trace_matches_loop(c):
    stream = circle(c, allow_boundary=True).coclosed_spectrum(0)
    basis = np.array([[2.0 * math.pi]])
    assert T_GRID[0] < _switch(basis, c) < T_GRID[-1]
    want, scale = _loop_flat_torus(stream, T_GRID, basis, c)
    _assert_close(stream.heat_fn(T_GRID), want, scale)


def test_eigenvalue_stream_trace_matches_loop():
    rng = np.random.default_rng(7)
    values = np.sort(rng.uniform(1.5, 4000.0, 2500))
    mults = rng.integers(1, 9, values.size).astype(float)
    stream = SpectrumStream(values, mults)
    t = np.exp(np.linspace(math.log(1e-4), math.log(30.0), 400))
    want = _loop_eigsum(stream.values, stream.mults, t)
    _assert_close(stream.trace(t), want, want)


def test_lift_direct_branch_matches_loop():
    # the oracle lift's trace, held to the loop like the package's own
    q_stream = torus2(2.0).coclosed_spectrum(0).shifted(0.25)
    lift = oracles.lift_stream(MellinZeta(q_stream, s_max=1.0))
    t_direct = 45.0 / math.sqrt(q_stream.max_value)
    t = np.exp(np.linspace(math.log(t_direct), math.log(30.0), 400))
    want = _loop_eigsum(np.sqrt(q_stream.values), q_stream.mults, t)
    _assert_close(lift.trace(t), want, want)


def _random_stream():
    rng = np.random.default_rng(7)
    values = np.sort(rng.uniform(1.5, 4000.0, 2500))
    return SpectrumStream(values, rng.integers(1, 9, values.size).astype(float))


def _torus2_lift():
    q_stream = torus2(2.0).coclosed_spectrum(0).shifted(0.25)
    return oracles.lift_stream(MellinZeta(q_stream, s_max=1.0))


@pytest.mark.parametrize("make_trace", [
    lambda: torus2(2.0).coclosed_spectrum(0).heat_fn,
    lambda: torus2(2.885, SHEARED).coclosed_spectrum(0).heat_fn,
    lambda: circle(2.0).coclosed_spectrum(0).heat_fn,
    lambda: _random_stream().trace,
    lambda: _torus2_lift().trace,
    lambda: torus2(2.0).coclosed_spectrum(0).shifted(0.25).heat_fn,
    lambda: progression_stream(1.5, 2, 400).heat_fn,
], ids=["torus2-square", "torus2-sheared", "circle", "eigsum", "lift", "shifted",
        "progression"])
def test_trace_value_does_not_depend_on_batch(make_trace):
    # bitwise: each point's kernel width comes from that point alone, in an
    # ascending batch and in the engine's concatenated grids alike
    trace = make_trace()
    for batch in (T_GRID, ENGINE_BATCH):
        alone = [trace(batch[i:i + 1])[0] for i in range(batch.size)]
        assert np.array_equal(trace(batch), alone)


def _reachable_arrays(trace) -> list:
    """Every ndarray a trace reaches through its defaults and closure cells,
    following the functions, tuples and streams it holds there, each once.
    A bound method is not followed: the lift holds its square stream's
    ``trace``, whose listing is that stream's own."""
    arrays, seen, todo = [], set(), [trace]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, SpectrumStream):
            todo += [item.values, item.mults, item.heat_fn]
        elif isinstance(item, tuple):
            todo += item
        elif inspect.isfunction(item):
            todo += list(item.__defaults__ or ())
            todo += [cell.cell_contents for cell in item.__closure__ or ()]
    return arrays


@pytest.mark.parametrize("make_trace", [
    lambda: torus2(2.0).coclosed_spectrum(0).heat_fn,
    lambda: torus2(2.885, SHEARED).coclosed_spectrum(1).heat_fn,
    lambda: circle(2.0).coclosed_spectrum(0).heat_fn,
    lambda: torus2(2.0).coclosed_spectrum(0).shifted(0.25).heat_fn,
    lambda: _torus2_lift().heat_fn,
], ids=["torus2-square", "torus2-sheared", "circle", "shifted", "lift"])
def test_trace_arrays_are_read_only(make_trace):
    # the Poisson norms were writable defaults of the flat-torus trace (a
    # write through torus2(2.0).coclosed_spectrum(0).heat_fn.__defaults__
    # moved that base's next log_torsion from 0.6452734 to 0.6574427), and
    # so were the lift's square-root values in its closure
    arrays = _reachable_arrays(make_trace())
    assert len(arrays) >= 2
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[:] *= 2.0


@pytest.mark.parametrize("make_stream", [
    lambda: circle(2.0).coclosed_spectrum(0),
    lambda: torus2(2.0).coclosed_spectrum(0),
    lambda: torus2(2.885, SHEARED).coclosed_spectrum(0),
    _torus2_lift,
], ids=["circle", "torus2-square", "torus2-sheared", "lift"])
def test_exact_trace_reads_its_stream_listing(make_stream):
    # the flat-torus trace kept a second copy of the listing as keyword
    # defaults (eight settable values in all: _ts=1e9 forced the Poisson
    # branch at t = 5 on the circle, 1.9e-8 off), and the lift its own copy
    # of the square roots
    stream = make_stream()
    assert list(inspect.signature(stream.heat_fn).parameters) == ["t"]
    listed = [arr for arr in _reachable_arrays(stream.heat_fn) if arr.size == stream.values.size]
    assert len(listed) == 2
    assert all(arr is stream.values or arr is stream.mults for arr in listed)


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


def _one_pass(rows, cols, weights=None, divide=False):
    """The kernel without tiles: each width group's whole (rows x width)
    exponent matrix at once, over the same padded widths."""
    op = np.divide if divide else np.multiply
    counts = np.searchsorted(cols, _EXP_ZERO * rows if divide else _EXP_ZERO / rows)
    widths = np.where(counts > 0, np.minimum(
        np.left_shift(1, np.frexp(counts - 1)[1]), cols.size), 0)
    out = np.zeros(rows.shape)
    for width in np.unique(widths[widths > 0]):
        group = np.nonzero(widths == width)[0]
        expo = np.exp(op(-cols[:width], rows[group, None]))
        if weights is not None:
            expo *= weights[:width]
        out[group] = expo.sum(axis=1)
    return out


def _listing_call():
    """A listing-sized trace: the 160 fit-window rows against 8000 sorted
    eigenvalues up to 7e4, with integer multiplicities."""
    rng = np.random.default_rng(5)
    cols = np.sort(rng.uniform(1.0, 7e4, 8000))
    weights = rng.integers(1, 9, cols.size).astype(float)
    return np.exp(np.linspace(math.log(6e-4), math.log(0.2), 160)), cols, weights


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("divide", [False, True], ids=["product", "quotient"])
def test_tiled_kernel_is_bitwise_the_one_pass_form(divide, weighted):
    t, cols, weights = _listing_call()
    wide = np.sort(np.random.default_rng(9).uniform(0.0, 1.0, 3 * _TILE))
    # the full-width group spans several tiles; on ``wide`` one row
    # exceeds the tile and goes alone
    assert np.count_nonzero(_EXP_ZERO / t > cols[-1]) * cols.size > 3 * _TILE
    cases = [(t, cols), (np.array([2.0, 1e-3, 800.0, 1.0, 0.05]), wide)]
    for rows, c in cases:
        rows = 1.0 / rows if divide else rows
        w = np.random.default_rng(1).integers(1, 9, c.size).astype(float) if weighted else None
        got = _exp_rowsum(rows, c, w, divide=divide)
        assert np.array_equal(got, _one_pass(rows, c, w, divide)), (divide, weighted)
        assert got.min() > 0.0


def test_tiled_kernel_keeps_its_working_set_to_the_tile():
    # numpy reports its buffers to tracemalloc; the one-pass form peaked at
    # the whole 160 x 8000 exponent matrix (about 6 tiles) for this call
    t, cols, weights = _listing_call()
    tracemalloc.start()
    try:
        _exp_rowsum(t, cols, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _TILE * 8, f"kernel peaked at {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("n", [9, 128, 129, 257, 7262, 8193, 21515])
def test_row_sum_order_is_the_pairwise_model(n):
    # the stop rule of the kernel rests on this order; rows of one tile
    # block, as the kernel lays them out, summed with sum(axis=1)
    rng = np.random.default_rng(n)
    block = np.empty(3 * n + 7)[:3 * n].reshape(3, n)
    block[:] = rng.standard_normal((3, n)) * np.exp(rng.uniform(-40.0, 40.0, (3, n)))
    want = [oracles.pairwise_sum(row) for row in block]
    assert np.array_equal(block.sum(axis=1), want)


def _random_kernel_call(rng):
    """Ascending columns, positive rows and (mostly) weights up to a 1000
    ratio; rows include ones whose first eight terms are subnormal.  Half
    the calls space their columns by heavy-tailed gaps: clusters of terms of
    one size then a drop, so a row's sum settles at any prefix length."""
    n = int(rng.integers(1, 3000))
    if rng.integers(2):
        cols = np.sort(rng.uniform(0.1, rng.uniform(1.0, 1e5), n))
    else:
        cols = 0.1 + np.cumsum(np.exp(rng.normal(0.0, 3.0, n))) * rng.uniform(1e-3, 1.0)
    divide = bool(rng.integers(2))
    weights = None
    if rng.integers(4):
        weights = rng.uniform(1.0, np.exp(rng.uniform(0.0, math.log(1000.0))), n)
        if rng.integers(2):
            weights = np.rint(weights)
    t = np.exp(rng.uniform(-12.0, 6.0, int(rng.integers(1, 40))))
    x7 = cols[min(7, n - 1)]
    t = np.append(t, [rng.uniform(705.0, 745.0) / x7, 740.0 / cols[0]])
    return (1.0 / t if divide else t), cols, weights, divide


def test_kernel_stops_rows_without_changing_a_bit():
    rng = np.random.default_rng(28)
    guarded = 0
    for _ in range(400):
        rows, cols, weights, divide = _random_kernel_call(rng)
        got = _exp_rowsum(rows, cols, weights, divide=divide)
        assert np.array_equal(got, _one_pass(rows, cols, weights, divide))
        if cols.size > 8:
            # rows that keep nine columns but whose eighth term is subnormal
            m_lo = 1.0 if weights is None else weights[:8].min()
            lead = cols[7] / rows if divide else cols[7] * rows
            counts = np.searchsorted(cols, _EXP_ZERO * rows if divide else _EXP_ZERO / rows)
            guarded += np.count_nonzero((counts > 8) & (lead - math.log(m_lo) > _NORMAL_EXP))
    assert guarded >= 50


def _exp_terms(monkeypatch, call) -> int:
    """The number of terms ``call`` hands to numpy's exp."""
    seen = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        seen.append(np.size(x))
        return exp(x, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", counted)
        call()
    return sum(seen)


@pytest.mark.parametrize("divide", [False, True], ids=["product", "quotient"])
def test_kernel_builds_under_half_the_full_width_terms(monkeypatch, divide):
    t, cols, weights = _listing_call()
    rows = 1.0 / t if divide else t
    full = _exp_terms(monkeypatch, lambda: _one_pass(rows, cols, weights, divide))
    kept = _exp_terms(monkeypatch, lambda: _exp_rowsum(rows, cols, weights, divide=divide))
    assert kept == _row_widths(rows, cols, weights, divide).sum()
    assert kept <= 0.45 * full, (kept, full)


def test_trace_keeps_shape_of_t():
    heat_fn = torus2(2.0).coclosed_spectrum(0).heat_fn
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


@pytest.mark.parametrize("a,b,per_decade", [
    (0.5, 1.0, 1), (0.3, 2.9, 3), (1e-20, 1.0, 1), (1.0, 1e20, 1),
    (1e-3, 1.0, 3), (1.0, 37.5, 3), (2.5e-9, 50.0 / 1.25, 1)],
    ids=["one-panel", "one-panel-3", "20-decades-down", "20-decades-up",
         "3-per-decade", "tail", "lift-grid"])
@pytest.mark.parametrize("nodes", [14, 24])
def test_log_panels_are_bitwise_the_per_panel_loop(a, b, per_decade, nodes):
    ts, ws = _log_panels(a, b, nodes, per_decade)
    want_t, want_w = oracles.log_panels(a, b, nodes, per_decade)
    assert np.array_equal(ts, want_t) and np.array_equal(ws, want_w)


def _torus2_engines(c, lattice=None):
    """The squared-stream engine of degree 0, as the numeric route builds it
    over the torus's own stream, and the engine of its oracle lift."""
    q_engine = MellinZeta(torus2(c, lattice).coclosed_spectrum(0).shifted(0.25),
                          s_max=0.5 * RMAX)
    return q_engine, MellinZeta(oracles.lift_stream(q_engine))


def _all_probes(engine):
    return oracles.t_min_probes(engine.stream.trace, engine.powers)


@pytest.mark.parametrize("make_engine", [
    lambda: _torus2_engines(2.0)[0],
    lambda: _torus2_engines(2.0)[1],
    lambda: _torus2_engines(2.885, SHEARED)[0],
    lambda: _torus2_engines(2.885, SHEARED)[1],
    lambda: MellinZeta(circle(1.5).coclosed_spectrum(0)),
], ids=["torus2-squared", "torus2-lift", "sheared-squared", "sheared-lift", "circle"])
def test_t_min_is_the_probe_of_the_all_probes_call(make_engine):
    engine = make_engine()
    want, ratio = _all_probes(engine)
    assert ratio.min() <= 1e-13
    assert engine.t_min == want


def _truncated_progression(keep):
    """Engine on the exact geometric trace m / (e^(ct) - 1), given only the
    first ``keep`` of its Bernoulli heat powers."""
    full = progression_stream(1.5, 2, 400)
    return MellinZeta(SpectrumStream(full.values, full.mults, heat_fn=full.heat_fn,
                                     heat_powers=full.heat_powers[:keep]))


def test_t_min_past_the_first_probe_block_is_the_all_probes_probe():
    # powers through t^1 leave (ct)^4 / 720 relative: only t below 2e-3 pass
    engine = _truncated_progression(3)
    want, ratio = _all_probes(engine)
    assert np.nonzero(ratio <= 1e-13)[0][0] >= 2 * _PROBE_BLOCK
    assert engine.t_min == want


def test_t_min_without_a_passing_probe_is_the_smallest_ratio():
    # the leading power alone leaves about ct / 2 relative at every probe
    engine = _truncated_progression(1)
    want, ratio = _all_probes(engine)
    assert ratio.min() > 1e-13
    assert engine.t_min == want


def _bessel_listing():
    """The first 2000 squared Dirichlet zeros of J_(1/2), as ``det_numeric``
    lists them: the heat fit on this stream reads its refit window."""
    zl = spectrum(ModelOperator(0.5), 2000)
    return SpectrumStream(zl.eigenvalues(), heat_powers=((-0.5, 0.5 / math.sqrt(math.pi)),))


def _progression_listing():
    """A progression listed without its trace: its supplied powers already
    fit, so the heat fit returns early."""
    full = progression_stream(1.5, 2, 40000)
    return SpectrumStream(full.values, full.mults, heat_powers=full.heat_powers)


@pytest.mark.parametrize("make_stream,probes,refit", [
    (_progression_listing, 0, 0),
    (_bessel_listing, 0, 1),
    (lambda: torus2(2.0).coclosed_spectrum(0).shifted(0.25), 1, 0),
], ids=["listing", "bessel-refit", "exact"])
def test_engine_traces_its_grids_in_one_call(make_stream, probes, refit, monkeypatch):
    # every grid the engine reads is traced in one batch, after the t_min
    # probes of an exact trace; only the fit's refit window takes a second
    # call.  Each trace it keeps is bitwise a fresh call on that grid alone
    stream = make_stream()
    sizes, trace = [], SpectrumStream.trace
    with monkeypatch.context() as patch:
        patch.setattr(SpectrumStream, "trace",
                      lambda self, t: sizes.append(np.size(t)) or trace(self, t))
        engine = MellinZeta(stream, s_max=2.0)
        engine.error_estimate([0.0, 1.0, 2.0])
    ts2, _, ds2, tl2, _, zl2 = engine._probe
    grids = [engine._ts, engine._tl, ts2, tl2, np.array([engine._T])]
    if stream.heat_fn is None:
        hi, tw = engine._fit_window()
        grids.insert(0, tw)
        fitted, note = engine._fit_heat_powers(sorted(stream.heat_powers), hi, tw,
                                               stream.trace(tw))
        assert (tuple(fitted), note) == (engine.powers, engine._fit_note)
    batch = sum(grid.size for grid in grids)
    assert sizes == [_PROBE_BLOCK] * probes + [batch] + [160] * refit
    for kept, fresh in ((engine._zs, stream.trace(engine._ts)),
                        (engine._zl, stream.trace(engine._tl)),
                        (ds2, stream.trace(ts2) - _heat_eval(ts2, engine.powers)),
                        (zl2, stream.trace(tl2)),
                        (engine._zT, stream.trace(np.array([engine._T]))[0])):
        assert np.asarray(kept).tobytes() == np.asarray(fresh).tobytes()
