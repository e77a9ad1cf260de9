"""conetorsion benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the library and CLI under
``src/`` there and writes its records to ``.perfbench_out/``.  Workloads,
metrics and the layer map are described in ``perfbench/README.md``.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics (self time per layer from out-of-tree wrappers, work
counts, tracing overhead).  Either way the last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads
from worker import merge

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3            # fresh set-up processes, besides the worker's own
CHILD_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """A benchmark process failed; there is no result to print."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> dict:
    """Environment for every child: the checkout's sources first, thread
    pools capped at nproc, fixed hash seed."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cap = nproc()
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), cap)))
        except (KeyError, ValueError):
            env[var] = str(cap)
    return env


def environment(env: dict, versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {"nproc": nproc(), "cpu": cpu, **versions,
            "threads": {var: env[var] for var in THREAD_VARS}}


def worker(env: dict, *argv: str) -> dict:
    """Run one worker phase; return the JSON object it printed last."""
    with subprocess.Popen([sys.executable, WORKER, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException:
            # SIGTERM, not SIGKILL: the worker then stops its own children
            proc.terminate()
            proc.communicate()
            raise
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise BenchError(f"worker {' '.join(argv[:2])} exited with "
                         f"{proc.returncode}: " + " | ".join(tail))
    return json.loads(out.splitlines()[-1])


def high_percentile(values: list):
    """(q, value) for the highest of p99/p95/p90/p75 with at least ten
    samples beyond it, or None."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def describe(name: str, value: float, unit: str, samples=None, alias="") -> str:
    text = f"  {name:<34} {value:>14.6g} {unit:<6}"
    if samples is not None:
        text += f" n={len(samples)}"
        hp = high_percentile(samples)
        if hp is not None:
            text += f" p{hp[0]}={hp[1]:.6g}"
    return text + (f"  ({alias})" if alias else "")


def overrun_lines(ops: list) -> list[str]:
    """Report lines for selftest checks that ran over their wall-clock
    budget and passed when re-run (see ``workloads.check_cli``)."""
    return [f"  BUDGET {op['id']}: {name} over its wall-clock budget; "
            "its numerics pass when re-run (not gated)"
            for op in ops if not op.get("problem")
            for name in op.get("budget_overruns", ())]


def end_to_end(args, env, spec, out_dir) -> tuple[dict, dict]:
    setups = [worker(env, "--phase", "setup", "--workload", args.workload,
                     "--seed", str(args.seed))["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    res = worker(env, "--phase", "run", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds))
    setups.append(res["setup_s"])
    ops = res["ops"]
    problems = [f"{op['id']}: {op['problem']}" for op in ops if op["problem"]]
    timed = [op for op in ops if op["wall"] is not None]
    walls = [op["wall"] for op in timed] or [res["elapsed_s"]]
    kernels = [op["kernel_s"] for op in ops]
    costs = ([op["wall"] / op["kernel_s"] for op in timed]
             or [res["elapsed_s"] / statistics.median(kernels)])
    done = len(ops) - len(problems)
    values = {"setup_s": statistics.median(setups),
              "op_cost": statistics.median(costs),
              "peak_rss_mb": res["peak_rss_mb"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    op_alias = {"cli_selftest": "selftest_s", "cli_oneshot": "cli_cold_s"}.get(
        args.workload, "solve_s")
    lines = [f"workload {args.workload} seed {args.seed}: {len(ops)} ops in "
             f"{res['cycles']} cycles, {res['elapsed_s']:.2f} s",
             describe("setup_s", values["setup_s"], "s", setups),
             describe("op_cost", values["op_cost"], "kernels", costs,
                      f"{op_alias} / kernel_s"),
             describe("peak_rss_mb", values["peak_rss_mb"], "MB", None,
                      "after the first cycle"),
             describe(op_alias, statistics.median(walls), "s", walls, "not gated"),
             describe("kernel_s", statistics.median(kernels), "s", kernels,
                      "calibration kernel, not gated"),
             describe("ops_per_s", done / res["elapsed_s"], "1/s", None,
                      ("bases_per_s, " if op_alias == "solve_s" else "")
                      + "not gated")]
    warm = [w for op in ops for w in op.get("warm", ())]
    errs = [op["error_estimate"] for op in ops if op.get("error_estimate") is not None]
    if warm and errs:
        lines.append(describe("warm_s", statistics.median(warm), "s", warm,
                              "not gated"))
        lines.append(describe("err_budget_max", max(errs), "1", errs, "not gated"))
    lines.append(describe("fail_rate", (len(ops) - done) / len(ops), "1",
                          None, "reported as attempted/failed"))
    lines += overrun_lines(ops)
    lines += [f"  FAILED {p}" for p in problems]
    result = {"correct": not problems, "attempted": len(ops),
              "failed": len(problems),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    record = {"setup_samples": setups, "ops": ops, "cycles": res["cycles"],
              "elapsed_s": res["elapsed_s"], "versions": res["versions"]}
    return result, {"lines": lines, "record": record}


def per_layer(args, env, spec, out_dir) -> tuple[dict, dict]:
    tag = f"{args.workload}-seed{args.seed}"
    res = worker(env, "--phase", "trace", "--workload", args.workload,
                 "--seed", str(args.seed), "--out", out_dir, "--tag", tag)
    ops = res["untraced"] + res["traced"]
    # the layer probe: every layer's public calls, on every workload, so a
    # layer a workload bypasses still reads as a measured (flat) time
    probes = [worker(env, "--phase", "listingprobe", "--out", out_dir,
                     "--tag", tag)]
    if args.workload != "cli_selftest":    # there the traced ops are the selftest
        probe = worker(env, "--phase", "tracedcli", "--out", out_dir,
                       "--tag", tag, "--", "selftest")
        code, output = probe.pop("code"), probe.pop("output").encode()
        probe["budget_overruns"] = sorted(probe["rechecked"])
        probe["problem"] = workloads.check_cli({"id": "selftest"}, code, output,
                                               probe.pop("rechecked"))
        probes.append(probe)
    cold = worker(env, "--phase", "coldimport")
    problems = [f"{op['id']}: {op['problem']}" for op in ops if op["problem"]]
    problems += [f"probe: {p['problem']}" for p in probes if p["problem"]]
    summary = merge([res["summary"]] + probes)
    traced = sum(op["wall"] or 0.0 for op in res["traced"])
    untraced = sum(op["wall"] or 0.0 for op in res["untraced"])
    found = {**summary["self"], **summary["counts"], **summary["maxima"], **cold,
             "trace.overhead_s": traced - untraced}
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]}
               for m in spec["per_layer"]}
    lines = [f"workload {args.workload} seed {args.seed} traced: "
             f"{len(res['traced'])} ops traced, {len(probes) + 1} probe processes",
             f"  tracing overhead {traced - untraced:+.4f} s on "
             f"{untraced:.4f} s untraced ({(traced - untraced) / untraced:+.2%})"]
    lines += [describe(name, m["value"], m["unit"]) for name, m in metrics.items()]
    lines += overrun_lines(ops + [dict(p, id="probe selftest") for p in probes])
    lines += [f"  FAILED {p}" for p in problems]
    result = {"correct": not problems, "attempted": len(ops) + len(probes),
              "failed": len(problems), "metrics": metrics}
    record = {"workload_summary": res["summary"], "probes": probes,
              "coldimport": cold, "ops": ops, "versions": res["versions"]}
    return result, {"lines": lines, "record": record}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so worker() stops its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "conetorsion", "cli.py")):
        print("error: no src/conetorsion here; run from the root of a "
              "conetorsion checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = child_env(root)
    # byte-compile once, so no run pays for compiling in its import times
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    try:
        run = per_layer if args.trace else end_to_end
        result, report = run(args, env, spec, out_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env_record = environment(env, report["record"].pop("versions"))
    report["lines"].append("  environment: " + json.dumps(env_record))
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env_record,
                   "wall_s": time.perf_counter() - started, "result": result,
                   **report["record"]}, fh, indent=1)
    print("\n".join(report["lines"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
