"""Draw the benchmark catalogue and record the reference outputs.

    PYTHONPATH=src python3 perfbench/record.py

Run from the repository root.  It rewrites ``perfbench/reference.json``: the
admissible inputs drawn from CATALOGUE_SEED and, for each, the output the
library gives at the current commit.  Recording at a later commit would
silently re-base the correctness gate, so do it only when the catalogue
itself changes, and on the commit the benchmark is meant to hold later
commits to.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import sys
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

CATALOGUE_SEED = 808449          # arXiv:0808.0449
SCALING_MARGIN = 1.2             # smallest base eigenvalue drawn, > 1
TWO_PI = 2.0 * math.pi


def shortest_dual_sq(shape: np.ndarray) -> float:
    """Squared length of the shortest nonzero vector of the dual lattice of
    the rows of ``shape`` (Lagrange-Gauss reduction)."""
    dual = np.linalg.inv(shape).T
    u, v = dual[0], dual[1]
    while True:
        if u @ u > v @ v:
            u, v = v, u
        mu = round(float(u @ v) / float(u @ u))
        if mu == 0:
            return float(u @ u)
        v = v - mu * u


def draw_torus(rng: random.Random, kind: str, c_range) -> dict:
    """A torus2 entry whose smallest eigenvalue c^2 |mu_min|^2 clears the
    scaling condition; lattice = 2 pi * shape, so square is the default."""
    if kind == "square":
        shape = np.eye(2)
    elif kind == "sheared":
        shape = np.array([[1.0, 0.0], [round(rng.uniform(0.2, 0.5), 3), 1.0]])
    else:
        shape = np.array([[1.0, 0.0], [0.0, round(rng.uniform(1.2, 1.8), 3)]])
    lam = shortest_dual_sq(shape)
    while True:
        c = round(rng.uniform(*c_range), 3)
        if c * c * lam >= SCALING_MARGIN:
            break
    lattice = None if kind == "square" else (TWO_PI * shape).tolist()
    return {"base": "torus2", "shape": kind, "c": c, "lattice": lattice}


def catalogue(rng: random.Random) -> dict:
    exact = [draw_torus(rng, "square", (1.2, 3.5)) for _ in range(4)]
    exact += [draw_torus(rng, "sheared", (1.3, 3.0)) for _ in range(3)]
    exact += [draw_torus(rng, "stretched", (1.2, 3.5)) for _ in range(3)]
    exact += [{"base": "circle", "c": round(rng.uniform(1.1, 12.0), 3)}
              for _ in range(3)]
    listing = [draw_torus(rng, "square", (1.5, 3.0)) for _ in range(3)]
    listing += [draw_torus(rng, "sheared", (2.0, 3.0)) for _ in range(2)]
    listing += [draw_torus(rng, "stretched", (2.0, 3.5)) for _ in range(3)]
    for entry in listing:
        entry["nu_max"] = 256.0

    def num(lo, hi):
        return repr(round(rng.uniform(lo, hi), 3))

    oneshot = [
        ["torsion", "disc", "--nu", num(1.0, 4.0), "--radius", num(0.5, 3.0)],
        ["torsion", "disc", "--nu", num(1.0, 4.0), "--radius", num(0.5, 3.0)],
        ["torsion", "cone", "--base", "s1", "--scale", num(1.1, 8.0)],
        ["torsion", "cone", "--base", "s1", "--scale", num(1.1, 8.0)],
        ["zeros", "--kind", "j", "--nu", num(0.0, 5.0), "--count", "50"],
        ["zeros", "--kind", "jprime", "--nu", num(0.5, 5.0), "--count", "50"],
        ["zeros", "--kind", "mixed", "--nu", num(0.5, 5.0),
         "--alpha", num(0.1, 3.0), "--count", "50"],
        ["olver", "--order", str(rng.randint(3, 12))],
        ["modeldet", "--nu", num(0.5, 5.0), "--alpha", num(0.1, 3.0)],
        ["modeldet", "--nu", num(0.5, 5.0), "--alpha", "inf"],
    ]
    probe = draw_torus(rng, "square", (2.5, 3.5))
    probe["nu_max"] = 256.0
    return {"cone_exact": exact, "cone_listing": listing,
            "cli_oneshot": [{"argv": argv} for argv in oneshot],
            "probe_listing": [probe]}


def main() -> int:
    from conetorsion import basemanifold as bm
    from conetorsion import torsion as ts

    cat = catalogue(random.Random(CATALOGUE_SEED))
    for i, entry in enumerate(cat["cone_exact"]):
        entry["id"] = f"exact{i:02d}"
        entry["route"] = "exact" if entry["base"] == "circle" else "numeric"
        bd = ts.log_torsion(workloads.build_base(bm, entry))
        entry["ref"] = {"log_torsion": bd.log_torsion,
                        "error_estimate": bd.error_estimate}
    for key, prefix in (("cone_listing", "listing"), ("probe_listing", "probe")):
        for i, entry in enumerate(cat[key]):
            entry["id"] = f"{prefix}{i:02d}"
            entry["route"] = "numeric"
            src = ts.log_torsion(bm.torus2(entry["c"], entry["lattice"]))
            entry["source"] = {"log_torsion": src.log_torsion,
                               "error_estimate": src.error_estimate}
            bd = ts.log_torsion(bm.custom(workloads.export_listing(bm, entry)))
            entry["ref"] = {"log_torsion": bd.log_torsion,
                            "error_estimate": bd.error_estimate}
    env = dict(os.environ)
    for i, entry in enumerate(cat["cli_oneshot"]):
        entry["id"] = f"cli{i:02d}"
        code, out, _ = workloads.run_cli(entry["argv"], env, 120.0)
        if code != 0:
            raise SystemExit(f"{entry['argv']} exited with {code}")
        entry["ref"] = {"sha256": hashlib.sha256(out).hexdigest(),
                        "bytes": len(out)}

    problems = [f"{e['id']}: {p}" for key in ("cone_exact", "cone_listing",
                                              "probe_listing")
                for e in cat[key]
                if (p := workloads.check_breakdown(
                    e, SimpleNamespace(**e["ref"]))) is not None]
    if problems:
        raise SystemExit("catalogue entries fail their own gate:\n"
                         + "\n".join(problems))
    cat["catalogue_seed"] = CATALOGUE_SEED
    cat["recorded_with"] = {"python": platform.python_version(),
                            "numpy": np.__version__,
                            "scipy": __import__("scipy").__version__}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(cat, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
