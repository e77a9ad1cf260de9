"""The per-layer benchmark tracer (``perfbench/tracing.py``) wraps library
functions by swapping module attributes; a rename, or a call that bypasses
the module global, would silently empty its spans.  These tests run the
tracer over one solve per route and over ``conetorsion zeta`` and check what
it recorded.  Calls go through the module (``torsion.log_torsion``), as the
benchmark's own do."""

from pathlib import Path

import pytest

from conetorsion import cli, torsion
from conetorsion.basemanifold import circle, torus2

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
    tracer = _traced(
        tracing,
        lambda: torsion.log_torsion(torus2(2.0)),
        lambda: torsion.log_torsion(circle(2.0)),
        lambda: cli.run(["zeta", "--base", "torus2", "--scale", "2",
                         "--degree", "0", "--shift", "0.3"]))
    recorded = {span[0] for span in tracer.spans}
    assert {"torsion.nu_continuation_s", "torsion.spectral_bracket_s",
            "torsion.log_torsion_s", "zetacont.sqrt_stream_s",
            "zetacont.shifted_from_base_s",
            "zetacont.zeta_data_exact_s"} <= recorded


def test_zeta_command_skips_the_lift(tracing):
    # continuation data alone: one engine on the squared stream, no
    # square-root lift (that cross-check belongs to the torsion error budget)
    tracer = _traced(tracing, lambda: cli.run(
        ["zeta", "--base", "torus2", "--scale", "2", "--degree", "0"]))
    assert tracer.counts["zetacont.mellin_engines"] == 1
    assert "zetacont.sqrt_stream_s" not in {span[0] for span in tracer.spans}


def test_cold_torus_solve_evaluates_every_node_in_few_calls(tracing):
    # the point counts are the quadrature nodes of a cold torus2(2) solve;
    # the lift's small-t branch evaluates all of a call's subordination
    # grids in one exact-trace call (91 calls when it made one per point)
    tracer = _traced(tracing, lambda: torsion.log_torsion(torus2(2.0)))
    counts = tracer.counts
    assert counts["zetacont.trace_points.exact"] == 14219
    assert counts["zetacont.trace_points.lift"] == 288
    assert counts["zetacont.trace_calls.lift"] == 5
    assert counts["zetacont.trace_calls.exact"] < 91
