"""Workload catalogue, operations and correctness checks.

The inputs of every workload come from ``reference.json``: a catalogue of
admissible bases, listings and CLI invocations drawn by ``record.py`` from a
fixed catalogue seed, with the outputs the library gave for each at the
commit that recorded them.  A run's ``--seed`` orders the catalogue afresh
for every cycle after the first; a cycle runs every entry once, so every run
covers the same inputs (steady medians, exact counts), in a seed-dependent
order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
TOL_DEFAULT = 1e-8          # the CLI's default tolerance
WARM_REPEATS = 10

WORKLOADS = ("cone_exact", "cone_listing", "cli_selftest", "cli_oneshot")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def cycle_order(entries: list, seed: int, cycle: int) -> list:
    """The catalogue in the order the seed gives it for one cycle.  The first
    cycle keeps catalogue order, so the memory high-water mark read after it
    does not depend on the seed."""
    order = list(entries)
    if cycle > 0:
        random.Random(f"{seed}:{cycle}").shuffle(order)
    return order


def calibrate() -> float:
    """Wall time of a fixed in-process kernel of about 40 ms: the machine's
    speed right now, for ops that run in this process.

    The kernel mixes what the library's hot paths do (Python arithmetic,
    list building, math.fsum over numpy exp).  On a shared host, op times
    divided by it vary far less from run to run than raw op times.
    """
    import math
    import numpy as np
    started = time.perf_counter()
    total = 0
    for j in range(200_000):
        total += j * j
    grid = np.linspace(0.0, 1.0, 20_000)
    for _ in range(15):
        math.fsum(np.exp(-grid).tolist())
    return time.perf_counter() - started


def calibrate_process() -> float:
    """Wall time of a fresh interpreter that imports numpy (about 0.2 s): the
    machine's speed right now, for ops that are fresh processes.  Start-up
    and imports track this far better than they track ``calibrate``."""
    import subprocess
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - started


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "conetorsion.cli", *argv]


# ---------------------------------------------------------------------------
# library workloads

def build_base(bm, entry: dict):
    """Base of a cone_exact entry (construction is part of the op)."""
    if entry["base"] == "circle":
        return bm.circle(entry["c"])
    return bm.torus2(entry["c"], entry["lattice"])


def export_listing(bm, entry: dict) -> str:
    """JSON listing of a cone_listing entry, exported with enough modes
    for the heat-fit window (the default nu_max=64 export has too few)."""
    source = bm.torus2(entry["c"], entry["lattice"], nu_max=entry["nu_max"])
    return json.dumps(source.as_custom_mapping())


def check_breakdown(entry: dict, breakdown) -> str | None:
    """None when the solve matches the stored reference, else the reason."""
    value, est = breakdown.log_torsion, breakdown.error_estimate
    ref = entry["ref"]
    if entry["route"] == "exact":
        if value != ref["log_torsion"] or est != ref["error_estimate"]:
            return f"exact route {value!r} differs from reference {ref['log_torsion']!r}"
        return None
    if not est <= TOL_DEFAULT:
        return f"error_estimate {est:.3e} exceeds {TOL_DEFAULT:g}"
    if not abs(value - ref["log_torsion"]) <= est:
        return (f"|{value!r} - reference {ref['log_torsion']!r}| exceeds "
                f"error_estimate {est:.3e}")
    source = entry.get("source")
    if source is not None:
        gap = abs(value - source["log_torsion"])
        if not gap <= est + source["error_estimate"]:
            return (f"listing differs from its exact-trace torus by {gap:.3e} "
                    f"> {est + source['error_estimate']:.3e}")
    return None


class LibraryWorkload:
    """cone_exact / cone_listing: in-process cold solves of seeded inputs."""

    def __init__(self, name: str, reference: dict):
        from conetorsion import basemanifold, torsion
        self.bm, self.ts = basemanifold, torsion
        self.name = name
        self.entries = reference[name]
        # input generation: listings are exported here, in set-up
        self.listings = {}
        if name == "cone_listing":
            for entry in self.entries:
                self.listings[entry["id"]] = export_listing(basemanifold, entry)

    def op(self, entry: dict) -> dict:
        """Construct or load, solve cold, check; then time warm re-solves."""
        started = time.perf_counter()
        if self.name == "cone_listing":
            base = self.bm.custom(self.listings[entry["id"]])
        else:
            base = build_base(self.bm, entry)
        breakdown = self.ts.log_torsion(base)
        problem = check_breakdown(entry, breakdown)
        wall = time.perf_counter() - started
        warm = []
        for _ in range(WARM_REPEATS):
            t0 = time.perf_counter()
            again = self.ts.log_torsion(base)
            warm.append(time.perf_counter() - t0)
            if problem is None and again.log_torsion != breakdown.log_torsion:
                problem = "warm re-solve differs from the cold solve"
        return {"id": entry["id"], "wall": wall, "warm": warm,
                "error_estimate": breakdown.error_estimate, "problem": problem}


# ---------------------------------------------------------------------------
# CLI workloads

def run_cli(argv, env, timeout: float) -> tuple[int, bytes, float]:
    """One fresh CLI process; returns (exit code, stdout, wall seconds)."""
    import subprocess
    started = time.perf_counter()
    proc = subprocess.run(cli_command(argv), env=env, capture_output=True,
                          timeout=timeout, check=False)
    return proc.returncode, proc.stdout, time.perf_counter() - started


def _budget_suffix(row: dict) -> str:
    """What ``conetorsion selftest`` appends to a check's detail when the
    check ran over its wall-clock budget."""
    return f" [exceeded {row['budget_seconds']:g}s budget]"


def budget_overruns(stdout: bytes) -> list[str]:
    """Names of the selftest checks reported failed with an over-budget
    suffix.  Whether their numerics passed is not in the output, so
    ``recheck`` runs them again."""
    rows = json.loads(stdout)["checks"]
    return [row["check"] for row in rows
            if not row["passed"] and row["detail"].endswith(_budget_suffix(row))]


def recheck(names) -> dict:
    """Run the named acceptance checks in this process, without their
    wall-clock budgets; returns ``{name: [passed, detail]}``."""
    if not names:
        return {}
    from conetorsion.cli import ACCEPTANCE_CHECKS
    checks = {name: fn for name, _budget, fn in ACCEPTANCE_CHECKS}
    out = {}
    for name in names:
        try:
            ok, detail = checks[name](TOL_DEFAULT)
        except Exception as exc:   # the selftest would report it failed
            ok, detail = False, repr(exc)
        out[name] = [bool(ok), detail]
    return out


def check_cli(entry: dict, code: int, stdout: bytes,
              rechecked: dict | None = None) -> str | None:
    """None when a CLI process gave the right output, else the reason.

    A selftest check that failed only on its wall-clock budget counts as
    correct when ``rechecked`` (see ``recheck``) shows it passing with the
    same detail: the budget measures the host's load as much as the
    program, and timing is what the benchmark reports, not what it gates.
    """
    if entry["id"] == "selftest" and stdout:
        payload = json.loads(stdout)
        failed = []
        for row in payload["checks"]:
            suffix = _budget_suffix(row)
            if row["passed"] or (
                    row["detail"].endswith(suffix)
                    and (rechecked or {}).get(row["check"])
                    == [True, row["detail"][:-len(suffix)]]):
                continue
            failed.append(f"{row['check']}: {row['detail']}")
        if code != (0 if payload["passed"] else 1) or failed:
            return f"selftest exit code {code}, failures: {failed}"
        return None
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != entry["ref"]["sha256"]:
        return f"output bytes differ from the reference ({digest[:12]})"
    return None


def cli_entries(name: str, reference: dict) -> list:
    if name == "cli_selftest":
        return [{"id": "selftest", "argv": ["selftest"]}]
    return reference["cli_oneshot"]

