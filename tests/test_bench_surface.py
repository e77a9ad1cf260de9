"""The per-layer benchmark tracer (``perfbench/tracing.py``) wraps library
functions by swapping module attributes; a rename, or a call that bypasses
the module global, would silently empty its spans.  These tests run the
tracer over one solve per route and over ``conetorsion zeta`` and check what
it recorded.  Calls go through the module (``torsion.log_torsion``), as the
benchmark's own do."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conetorsion
from conetorsion import cli, exactpoly, torsion
from conetorsion.basemanifold import circle, torus2

import oracles

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    return tracing


def _traced(tracing, *calls):
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        for call in calls:
            call()
    finally:
        installed.uninstall()
    return tracer


def test_tracer_records_every_wrapped_layer(tracing):
    # torus2 solves on its lattice route; the same stream without its
    # lattice reaches the Mellin engine and the lift
    tracer = _traced(
        tracing,
        lambda: torsion.log_torsion(torus2(2.0)),
        lambda: torsion.log_torsion(oracles.without_lattice(torus2(2.0))),
        lambda: torsion.log_torsion(circle(2.0)),
        lambda: cli.run(["zeta", "--base", "torus2", "--scale", "2",
                         "--degree", "0", "--shift", "0.3"]))
    recorded = {span[0] for span in tracer.spans}
    assert {"torsion.nu_continuation_s", "torsion.spectral_bracket_s",
            "torsion.log_torsion_s", "zetacont.sqrt_stream_s",
            "zetacont.shifted_from_base_s",
            "zetacont.zeta_data_exact_s"} <= recorded


def test_zeta_command_skips_the_lift(tracing):
    # torus2's lattice route builds no engine and traces nothing
    tracer = _traced(tracing, lambda: cli.run(
        ["zeta", "--base", "torus2", "--scale", "2", "--degree", "0"]))
    assert tracer.counts["zetacont.mellin_engines"] == 0
    assert sum(n for key, n in tracer.counts.items() if ".trace_" in key) == 0
    # on the numeric route, continuation data alone: one engine on the
    # squared stream; the record's nu_stream is the square-root lift, but no
    # lifted trace is evaluated (the cross-check that solves it belongs to
    # the torsion error budget)
    base = oracles.without_lattice(torus2(2.0))
    tracer = _traced(tracing, lambda: cli._zeta_payload(base, 0, None, cli.TOL_DEFAULT))
    assert tracer.counts["zetacont.mellin_engines"] == 1
    assert "zetacont.trace_s.lift" not in {span[0] for span in tracer.spans}
    assert tracer.counts["zetacont.trace_calls.lift"] == 0


def test_cold_torus_solve_evaluates_every_node_in_few_calls(tracing):
    # the point counts are the quadrature nodes of a cold torus2(2) solve;
    # the lift's small-t branch evaluates all of a call's subordination
    # grids in one exact-trace call (91 calls when it made one per point);
    # the coarse error-probe grid is traced only where error_estimate reads
    # it (14219 exact points, 288 lift points in 5 calls when every engine
    # traced it on construction); the t_min probes are traced in blocks
    # from the largest t down, stopping at the first passing block (11315
    # exact points, 190 lift points in the same calls when every probe was
    # traced)
    # (counted on the numeric route: torus2's lattice route builds no engine)
    tracer = _traced(tracing, lambda: torsion.log_torsion(torus2(2.0)))
    assert tracer.counts["zetacont.mellin_engines"] == 0
    assert sum(n for key, n in tracer.counts.items() if ".trace_" in key) == 0
    tracer = _traced(tracing, lambda: torsion.log_torsion(oracles.without_lattice(torus2(2.0))))
    counts = tracer.counts
    assert counts["zetacont.trace_points.exact"] == 5849
    assert counts["zetacont.trace_points.lift"] == 172
    assert counts["zetacont.trace_calls.lift"] == 3
    assert counts["zetacont.trace_calls.exact"] < 91


def test_cold_recursive_expansion_build_is_traced(tracing):
    # gen_M recurses through its module global, which the tracer wraps: a
    # cold build must still record spans and return the untraced polynomial
    top = exactpoly.MAX_ORDER
    untraced = exactpoly.gen_M(top)
    for fn in (exactpoly.gen_u, exactpoly.gen_v, exactpoly.gen_D,
               exactpoly.gen_M, exactpoly._m_term):
        fn.cache_clear()
    built = []
    tracer = _traced(tracing, lambda: built.append(exactpoly.gen_M(top)))
    assert "exactpoly.gen_s" in {span[0] for span in tracer.spans}
    assert built == [untraced]


# the spans, by name, and counters of a cold traced `selftest` at 1e-8, as
# recorded when the battery still lived in cli.py, re-recorded when torus2
# moved to its lattice route (three-dim-dual-path built no engine, lift or
# exact-trace call any more) and again when that check gained its numeric-
# route solve of the same torus: one more log_torsion with its continuation,
# 2 engines, 25 engine evaluations, 8 exact and 3 lift trace calls, and 2
# relation-path and exactpoly calls; the eigenvalue-sum traces are unchanged.
# The residue multipliers are read once per (alpha_k, n): the 5 solves ask
# for 2 such pairs, so 3 repeats no longer call gen_M and gen_D (6 spans).
# The exact brackets are read once per (r, alpha_k, parity): the battery
# asks for 568 of them, 100 distinct, so gen_M and gen_D run 347 times, not
# 1095; and one relation-path call answers both shifts +-alpha_k (4 -> 2)
BATTERY_SPANS = {
    "basemanifold.build_s.circle": 4, "basemanifold.build_s.torus2": 2,
    "besselzero.zeros_s.dirichlet": 8, "besselzero.zeros_s.mixed": 9,
    "besselzero.zeros_s.neumann": 3, "exactpoly.gen_s": 347,
    "exactpoly.identity_s": 152, "modelops.det_numeric_s": 13, "specfun.zeta_s": 6,
    "torsion.log_torsion_s": 5, "torsion.nu_continuation_s": 1,
    "torsion.spectral_bracket_s": 5, "zetacont.mellin_build_s": 16,
    "zetacont.mellin_eval_s": 53, "zetacont.shifted_from_base_s": 2,
    "zetacont.sqrt_stream_s": 1, "zetacont.trace_s.eigsum": 98,
    "zetacont.trace_s.exact": 8, "zetacont.trace_s.lift": 3,
    "zetacont.zeta_data_exact_s": 3, "zetacont.zeta_data_numeric_s": 14,
}
BATTERY_COUNTS = {
    "besselzero.zeros_count": 28090, "zetacont.mellin_engines": 16,
    "zetacont.trace_calls.eigsum": 98, "zetacont.trace_points.eigsum": 8750,
    "zetacont.trace_calls.exact": 8, "zetacont.trace_points.exact": 5849,
    "zetacont.trace_calls.lift": 3, "zetacont.trace_points.lift": 172,
}
_TRACED_SELFTEST = r"""
import json, re, sys
from collections import Counter
import tracing
from conetorsion import cli
tracer = tracing.Tracer()
installed = tracing.install(tracer)
try:
    traced, _ = cli.run_selftest(1e-8)
finally:
    installed.uninstall()
plain, _ = cli.run_selftest(1e-8)
def details(rows):   # without the wall-clock verdict, which host load can flip
    return [[row["check"], re.sub(r" \[exceeded .*\]$", "", row["detail"])] for row in rows]
json.dump({"spans": Counter(span[0] for span in tracer.spans), "counts": tracer.counts,
           "details": details(traced), "plain": details(plain)}, sys.stdout)
"""


def test_traced_selftest_records_every_layer_of_the_battery():
    # the battery calls the library through its modules, so the tracer sees
    # every call; a fresh process makes every cache cold, as in the benchmark
    src = str(Path(conetorsion.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, PERFBENCH]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_SELFTEST], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    checks = {f"cli.check_s.{name}": 1 for name, _, _ in cli.ACCEPTANCE_CHECKS}
    assert out["spans"] == {**BATTERY_SPANS, **checks}
    assert out["counts"] == BATTERY_COUNTS
    assert out["details"] == out["plain"]
