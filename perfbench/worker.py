"""One benchmark process; ``run.py`` starts it once per phase.

    python3 perfbench/worker.py --phase PHASE [--workload W --seed N
                                 --seconds S --out DIR] [-- CLI ARGS]

Phases:
  setup         imports plus input generation, nothing else
  run           set-up, then whole catalogue cycles for about --seconds
  trace         set-up, then each op of one cycle untraced and traced
  tracedcli     one CLI invocation in this process, traced
  listingprobe  one listing load-and-solve, traced
  coldimport    a fresh ``import conetorsion.cli``, then a cold exactpoly build

Each prints one JSON object as its last line.  Nothing here imports numpy
before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

import workloads

MIN_OPS = 5


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def _versions() -> dict:
    np = sys.modules.get("numpy")
    scipy = sys.modules.get("scipy")
    blas = None
    if np is not None:
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            blas = None
    return {"python": sys.version.split()[0],
            "numpy": getattr(np, "__version__", None),
            "scipy": getattr(scipy, "__version__", None),
            "blas": blas}


def setup(name: str):
    """Imports and input generation; returns (state, seconds)."""
    started = time.perf_counter()
    reference = workloads.load_reference()
    if name in ("cone_exact", "cone_listing"):
        state = workloads.LibraryWorkload(name, reference)
    else:
        import conetorsion.cli  # noqa: F401  (what every CLI op imports)
        state = workloads.cli_entries(name, reference)
    return state, time.perf_counter() - started


def _cycle(entries: list, seed: int, cycle: int, run_op, kernel) -> list:
    """One catalogue cycle; each op carries the mean of the calibration
    kernel timed just before and just after it."""
    ops = []
    before = kernel()
    for entry in workloads.cycle_order(entries, seed, cycle):
        op = run_op(entry)
        after = kernel()
        op["kernel_s"] = 0.5 * (before + after)
        before = after
        ops.append(op)
    return ops


def _library_op(state):
    def run(entry: dict) -> dict:
        try:
            return state.op(entry)
        except Exception as exc:   # a refused or crashed op is a failure
            return {"id": entry["id"], "wall": None, "warm": [],
                    "error_estimate": None, "problem": repr(exc)}
    return run


def _cli_op(entry: dict, argv_prefix=None) -> dict:
    """One fresh CLI process, plain or (with ``argv_prefix``) traced."""
    command = (argv_prefix or []) + list(entry["argv"])
    try:
        if argv_prefix is None:
            code, out, wall = workloads.run_cli(command, os.environ, 150.0)
            summary = None
            overruns = (workloads.budget_overruns(out)
                        if entry["id"] == "selftest" and code == 1 else [])
            rechecked = workloads.recheck(overruns)
        else:
            started = time.perf_counter()
            proc = subprocess.run(command, capture_output=True, timeout=150.0,
                                  check=False)
            wall = time.perf_counter() - started
            summary = json.loads(proc.stdout.splitlines()[-1])
            code, out = summary.pop("code"), summary.pop("output").encode()
            rechecked = summary.pop("rechecked")
        problem = workloads.check_cli(entry, code, out, rechecked)
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        return {"id": entry["id"], "wall": None, "problem": repr(exc)}
    return {"id": entry["id"], "wall": wall, "problem": problem,
            "budget_overruns": sorted(rechecked), "summary": summary}


def phase_run(args) -> dict:
    state, setup_s = setup(args.workload)
    library = isinstance(state, workloads.LibraryWorkload)
    entries = state.entries if library else state
    run_op = _library_op(state) if library else _cli_op
    kernel = workloads.calibrate if library else workloads.calibrate_process
    ops, cycle, rss = [], 0, None
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        ops += _cycle(entries, args.seed, cycle, run_op, kernel)
        cycle += 1
        if rss is None:
            # after exactly one cycle, so the figure does not grow with
            # the number of cycles a faster program fits into the run
            rss = _rss_mb() if library else _rss_mb(resource.RUSAGE_CHILDREN)
        # whole cycles only; stop where the run ends nearest --seconds,
        # once there are enough ops for a median (one-op cycles: selftest)
        now = time.perf_counter()
        if (now - started + 0.5 * (now - cycle_started) >= args.seconds
                and len(ops) >= MIN_OPS):
            break
    return {"setup_s": setup_s, "elapsed_s": time.perf_counter() - started,
            "cycles": cycle, "ops": ops, "peak_rss_mb": rss,
            "versions": _versions()}


def phase_trace(args) -> dict:
    """Each op of one cycle twice, untraced and traced back to back, so the
    tracing overhead is a sum of paired differences, not of runs minutes
    apart."""
    state, setup_s = setup(args.workload)
    if isinstance(state, workloads.LibraryWorkload):
        import tracing
        entries, run_op, tracer = state.entries, _library_op(state), tracing.Tracer()

        def traced_op(entry: dict) -> dict:
            installed = tracing.install(tracer)
            tracer.op = entry["id"]
            try:
                return run_op(entry)
            finally:
                installed.uninstall()
    else:
        entries, run_op = state, _cli_op
        prefix = [sys.executable, os.path.abspath(__file__), "--phase",
                  "tracedcli", "--out", args.out,
                  "--tag", f"{args.workload}-seed{args.seed}", "--"]

        def traced_op(entry: dict) -> dict:
            return _cli_op(entry, prefix)
    untraced, ops = [], []
    for i, entry in enumerate(workloads.cycle_order(entries, args.seed, 0)):
        # alternate which runs first: a repeated op runs faster the second
        # time (allocator, caches), which would bias the difference
        if i % 2 == 0:
            untraced.append(run_op(entry))
            ops.append(traced_op(entry))
        else:
            ops.append(traced_op(entry))
            untraced.append(run_op(entry))
    if isinstance(state, workloads.LibraryWorkload):
        _write_spans(args, tracer)
        summary = summarize(tracer)
    else:
        summary = merge([op.pop("summary") for op in ops if op.get("summary")])
    return {"setup_s": setup_s, "untraced": untraced, "traced": ops,
            "summary": summary, "versions": _versions()}


def summarize(tracer) -> dict:
    return {"self": tracer.self_times(), "counts": dict(tracer.counts),
            "maxima": dict(tracer.maxima)}


def merge(summaries: list) -> dict:
    """Sum self times and counts; take the largest maxima."""
    out = {"self": {}, "counts": {}, "maxima": {}}
    for s in summaries:
        for key in ("self", "counts"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in s["maxima"].items():
            out["maxima"][name] = max(out["maxima"].get(name, value), value)
    return out


def _write_spans(args, tracer) -> None:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"spans-{args.tag or args.workload}-"
                                  f"{args.phase}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


def phase_tracedcli(args) -> dict:
    from conetorsion import cli
    from conetorsion.errors import ConvergenceError, ValidationError
    import tracing
    tracer = tracing.Tracer()
    tracer.op = " ".join(args.cli)
    installed = tracing.install(tracer)
    try:
        text, code = cli.run(args.cli)
        output = text + "\n"
    except ValidationError:
        output, code = "", 2
    except ConvergenceError:
        output, code = "", 3
    installed.uninstall()
    # untraced, so the re-run adds no spans
    overruns = (workloads.budget_overruns(output.encode())
                if args.cli[:1] == ["selftest"] and code == 1 else [])
    _write_spans(args, tracer)
    return {"code": code, "output": output,
            "rechecked": workloads.recheck(overruns), **summarize(tracer)}


def phase_listingprobe(args) -> dict:
    from conetorsion import basemanifold, torsion
    import tracing
    entry = workloads.load_reference()["probe_listing"][0]
    listing = workloads.export_listing(basemanifold, entry)
    tracer = tracing.Tracer()
    tracer.op = entry["id"]
    tracing.install(tracer)
    try:
        breakdown = torsion.log_torsion(basemanifold.custom(listing))
        problem = workloads.check_breakdown(entry, breakdown)
    except Exception as exc:   # reported as a failed probe op
        problem = repr(exc)
    _write_spans(args, tracer)
    return {"problem": problem, **summarize(tracer)}


def phase_coldimport(args) -> dict:
    started = time.perf_counter()
    import conetorsion.cli  # noqa: F401
    import_s = time.perf_counter() - started
    from conetorsion import exactpoly
    started = time.perf_counter()
    for r in range(1, exactpoly.MAX_ORDER + 1):
        exactpoly.gen_D(r)
        exactpoly.gen_M(r)
    return {"cli.import_s": import_s,
            "exactpoly.cold_build_s": time.perf_counter() - started}


PHASES = {"run": phase_run, "trace": phase_trace, "tracedcli": phase_tracedcli,
          "listingprobe": phase_listingprobe, "coldimport": phase_coldimport}


def main() -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", required=True,
                        choices=("setup",) + tuple(PHASES))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out", default=".perfbench_out")
    parser.add_argument("--tag", default=None)
    parser.add_argument("cli", nargs="*")
    args = parser.parse_args()
    if args.phase == "setup":
        result = {"setup_s": setup(args.workload)[1]}
    else:
        result = PHASES[args.phase](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
