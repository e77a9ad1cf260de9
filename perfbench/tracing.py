"""Out-of-tree tracing: timing wrappers around conetorsion's public calls.

The wrappers live here, not in ``src/``.  ``install`` replaces each traced
function at every import site inside the package (``torsion`` and ``cli``
import names directly from ``zetacont`` and friends) and the two traced
methods on their classes; ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op]``; spans stay in memory and are
written out by the caller when the run ends.  A span's self time is its
duration minus the time its direct children cover (acceptance checks
report their whole duration).  Span names are the
per-layer metric names they feed (``zetacont.trace_s.exact`` ...), so
aggregation is a sum of self times per name.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import Counter

import numpy as np

INCLUSIVE = ("cli.check_s.",)
MODULES = ("specfun", "zetacont", "basemanifold", "besselzero", "exactpoly",
           "modelops", "torsion", "cli")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = None
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name; spans named in INCLUSIVE (the
        acceptance checks, which only orchestrate layers) keep their whole
        duration instead."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            if name.startswith(INCLUSIVE):
                covered = 0.0
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)


def _modules():
    return [importlib.import_module(f"conetorsion.{name}") for name in MODULES]


class Installation:
    """The wrappers installed by :func:`install`; ``uninstall`` reverts."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def _wrap(tracer: Tracer, fn, name, after=None):
    """Wrapper recording one span; ``name`` may be a callable of the args."""
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        result = tracer.call(label, fn, args, kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapper


def install(tracer: Tracer) -> Installation:
    """Install every wrapper; returns the handle that removes them."""
    mods = {m.__name__.rsplit(".", 1)[1]: m for m in _modules()}
    zc, bm, bz, ep = (mods["zetacont"], mods["basemanifold"],
                      mods["besselzero"], mods["exactpoly"])
    inst = Installation()
    lifted = weakref.WeakSet()

    def everywhere(module, attr: str, name, after=None) -> None:
        original = getattr(module, attr)
        wrapper = _wrap(tracer, original, name, after)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    inst.replace(mod, key, wrapper)

    # zetacont: traces by stream kind, engines, lift, relation path
    def trace_kind(stream, t):
        if stream.heat_fn is None:
            return "eigsum"
        return "lift" if stream in lifted else "exact"

    def count_trace(_result, stream, t):
        kind = trace_kind(stream, t)
        tracer.counts[f"zetacont.trace_points.{kind}"] += int(np.size(t))
        tracer.counts[f"zetacont.trace_calls.{kind}"] += 1

    inst.replace(zc.SpectrumStream, "trace", _wrap(
        tracer, zc.SpectrumStream.trace,
        lambda stream, t: f"zetacont.trace_s.{trace_kind(stream, t)}", count_trace))

    def count_engine(*_args, **_kwargs):
        tracer.counts["zetacont.mellin_engines"] += 1

    inst.replace(zc.MellinZeta, "__init__", _wrap(
        tracer, zc.MellinZeta.__init__, "zetacont.mellin_build_s", count_engine))
    for method in ("integral", "deriv0_shifted"):
        inst.replace(zc.MellinZeta, method, _wrap(
            tracer, getattr(zc.MellinZeta, method), "zetacont.mellin_eval_s"))

    everywhere(zc, "sqrt_stream", "zetacont.sqrt_stream_s",
               lambda lift, *a, **k: lifted.add(lift))
    everywhere(zc, "shifted_from_base", "zetacont.shifted_from_base_s")
    everywhere(zc, "zeta_data_exact", "zetacont.zeta_data_exact_s")
    everywhere(zc, "zeta_data_numeric", "zetacont.zeta_data_numeric_s")

    for fn in ("riemann_zeta", "riemann_zeta_prime", "hurwitz_zeta",
               "hurwitz_zeta_sderiv", "hurwitz_zeta_prime0"):
        everywhere(mods["specfun"], fn, "specfun.zeta_s")

    for builder in ("circle", "torus2", "custom"):
        everywhere(bm, builder, f"basemanifold.build_s.{builder}")

    def zero_kind(req):
        if req.kind == "mixed" and req.alpha == float("inf"):
            return "dirichlet"
        return req.kind

    def count_zeros(result, req):
        tracer.counts["besselzero.zeros_count"] += int(result.zeros.size)

    everywhere(bz, "zeros", lambda req: f"besselzero.zeros_s.{zero_kind(req)}",
               count_zeros)
    everywhere(mods["modelops"], "det_numeric", "modelops.det_numeric_s")

    for fn in ("gen_D", "gen_M"):
        everywhere(ep, fn, "exactpoly.gen_s")
    for fn in ("dm_identity_residual", "zsum_identity_residual",
               "xzsum_identity_residual"):
        everywhere(ep, fn, "exactpoly.identity_s")

    ts = mods["torsion"]

    def note_error(breakdown, *_args, **_kwargs):
        tracer.note_max("torsion.err_budget_max", breakdown.error_estimate)

    everywhere(ts, "log_torsion", "torsion.log_torsion_s", note_error)
    everywhere(ts, "spectral_bracket", "torsion.spectral_bracket_s")
    everywhere(ts, "nu_continuation_data", "torsion.nu_continuation_s")

    cli = mods["cli"]
    inst.replace(cli, "ACCEPTANCE_CHECKS", tuple(
        (check, budget, _wrap(tracer, fn, f"cli.check_s.{check}"))
        for check, budget, fn in cli.ACCEPTANCE_CHECKS))
    return inst

