"""Command-line interface and serialization.

Subcommands (grammar frozen):

    torsion cone --base {s1|torus2|custom:<path>} --scale <c>
                 [--lattice a1x,a1y,a2x,a2y]
    torsion disc --nu <v> --radius <R>
    zeros --kind {j|jprime|mixed} --nu <v> [--alpha <a>] --count <k>
    zeta --base ... --degree <k> [--shift <a>]
    olver --order <r>
    modeldet --nu <v> --alpha <a|inf> [--numeric]
    selftest [--tol <t>]

Every subcommand accepts ``--format {json,table}`` (default json) and
``--tolerance <t>`` (default 1e-8, valid range [1e-12, 1e-4]); for
``selftest``, ``--tol`` is another spelling of ``--tolerance``.  JSON output
is deterministic: keys sorted, floats printed with 17 significant digits, so
identical invocations produce byte-identical bytes.  Exit codes: 0 success,
2 validation error (violated hypothesis, bad flags, schema), 3 numeric
non-convergence (an error estimate above the requested tolerance).

Start-up cost is part of every invocation, so this module imports at load
time only what parsing and rendering need, plus the numpy-free closed forms
(``modelops``, ``exactpoly``): ``torsion disc``, ``olver`` and ``modeldet``
without ``--numeric`` never load numpy.  Every other handler imports its
layer when it runs, and the acceptance battery (``ACCEPTANCE_CHECKS``) loads
on first access.  ``torsion cone --base s1`` and ``zeta --base s1`` load no
numpy either: the circle's exact route is scalar arithmetic (``zetadata``),
and its listing stream is built only when something reads it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json as _json
import math
import numbers
import sys
import time

from .errors import ConvergenceError, ValidationError
from .exactpoly import MAX_ORDER, gen_D, gen_M
from .modelops import ConeOverS1Config, ModelOperator, det_closed, theorem_main

__all__ = ["main", "run", "run_selftest"]

TOL_MIN, TOL_MAX, TOL_DEFAULT = 1e-12, 1e-4, 1e-8


def __getattr__(name):
    # ACCEPTANCE_CHECKS stays a module attribute, but the battery (numpy and
    # every layer) loads only when something reads it
    if name == "ACCEPTANCE_CHECKS":
        from .selftest import ACCEPTANCE_CHECKS
        return ACCEPTANCE_CHECKS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# deterministic serialization

def _emit_json(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj, key=str)
        for pos, key in enumerate(keys):
            out.append(f'{pad}  {_json.dumps(str(key))}: ')
            _emit_json(obj[key], indent + 1, out)
            out.append(",\n" if pos < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for pos, item in enumerate(obj):
            out.append(pad + "  ")
            _emit_json(item, indent + 1, out)
            out.append(",\n" if pos < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif (isinstance(obj, numbers.Integral)     # bool, int, numpy integers
          or isinstance(obj, float) and math.isfinite(obj)):
        out.append(_scalar_str(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(_json.dumps(str(obj)))


def render_json(payload) -> str:
    out: list[str] = []
    _emit_json(payload, 0, out)
    return "".join(out)


def _scalar_str(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else str(value)
    return str(value)


def _flatten_value(path: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            _flatten_value(f"{path}.{key}" if path else str(key), value[key], rows)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten_value(f"{path}[{i}]", item, rows)
    else:
        rows.append((path, _scalar_str(value)))


def render_table(payload) -> str:
    rows: list[tuple[str, str]] = []
    _flatten_value("", payload, rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_alpha(text: str) -> float:
    low = text.strip().lower()
    if low in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(
            f"boundary parameter must be a real number or 'inf', got {text!r}") from exc


def _parse_lattice(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(
            "lattice must be four comma-separated numbers a1x,a1y,a2x,a2y")
    try:
        a1x, a1y, a2x, a2y = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"malformed lattice entry: {exc}") from exc
    return [[a1x, a1y], [a2x, a2y]]


def _build_base(args: argparse.Namespace):
    from .basemanifold import circle, custom, torus2
    spec, scale, lattice = args.base, args.scale, args.lattice
    if lattice is not None and spec != "torus2":
        raise ValidationError("--lattice applies only to --base torus2")
    if spec.startswith("custom:"):
        path = spec[len("custom:"):]
        if not path:
            raise ValidationError("custom base needs a file path after 'custom:'")
        if scale is not None:
            raise ValidationError(
                "custom bases carry their scale inside the spectrum file; "
                "drop --scale")
        return custom(path)
    if scale is None:
        raise ValidationError(f"--scale is required for --base {spec}")
    if spec == "s1":
        return circle(scale)
    if spec == "torus2":
        return torus2(scale, lattice=_parse_lattice(lattice) if lattice else None)
    raise ValidationError(
        f"base must be one of s1, torus2, custom:<path>; got {spec!r}")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-ready payload)

def _check_tolerance(error_estimate: float, tolerance: float) -> None:
    if error_estimate > tolerance:
        raise ConvergenceError(
            f"continuation error estimate {error_estimate:.3e} exceeds the "
            f"requested tolerance {tolerance:g}")


def _cmd_torsion_disc(args: argparse.Namespace) -> dict:
    cone = ConeOverS1Config(radius=args.radius, nu_angle=args.nu)
    return {
        "log_torsion": theorem_main(cone),
        "nu": cone.nu_angle,
        "radius": cone.radius,
        "source": "closed-form",
    }


def _cmd_torsion_cone(args: argparse.Namespace) -> dict:
    from .torsion import log_torsion
    breakdown = log_torsion(_build_base(args))
    _check_tolerance(breakdown.error_estimate, args.tolerance)
    return dataclasses.asdict(breakdown)


def _cmd_zeros(args: argparse.Namespace) -> dict:
    import numpy as np

    from .besselzero import ZeroRequest, zeros
    kind_map = {"j": "dirichlet", "jprime": "neumann", "mixed": "mixed"}
    kind = kind_map[args.kind]
    request = ZeroRequest(nu=args.nu, kind=kind, count=args.count, alpha=args.alpha)
    zl = zeros(request)
    payload = {
        "kind": args.kind,
        "nu": request.nu,
        "count": request.count,
        "zeros": [float(z) for z in zl.zeros],
        "max_residual": float(np.max(np.abs(zl.residuals))),
    }
    if kind == "mixed":
        payload["alpha"] = request.alpha
    return payload


def _zeta_payload(base, k: int, shift: float | None, tolerance: float) -> dict:
    from .torsion import degree_continuation
    dc = degree_continuation(base, k)
    data = dc.data
    n = base.dim
    pole_top = max(n, 1)
    shift_value, shift_error = dc.shifted(shift) if shift is not None else (None, None)
    _check_tolerance(data.error_estimate + (shift_error or 0.0), tolerance)
    payload = {
        "base_id": base.name,
        "scale": base.scale,
        "dim": n,
        "degree": k,
        "alpha": float(dc.alpha),
        "deriv0": data.deriv0,
        "zeta0": data.zeta0,
        "residues": {str(i): data.residues.get(i, 0.0)
                     for i in range(1, pole_top + 1)},
        "error_estimate": data.error_estimate,
        "source": "closed-form" if dc.route == "exact" else "numeric",
    }
    if shift is not None:
        payload["shift"] = {
            "alpha": float(shift),
            "deriv0_shifted": shift_value,
            "error_estimate": shift_error,
        }
    return payload


def _cmd_zeta(args: argparse.Namespace) -> dict:
    return _zeta_payload(_build_base(args), args.degree, args.shift, args.tolerance)


def _cmd_olver(args: argparse.Namespace) -> dict:
    order = args.order
    m_rows: dict = {}                   # t power -> {alpha power: coefficient}
    for (p, j), c in gen_M(order).terms.items():
        m_rows.setdefault(p, {})[j] = c
    return {
        "order": order,
        "max_order": MAX_ORDER,
        "D": [{"t_power": p, "coefficient": str(c)}
              for (p, _), c in sorted(gen_D(order).terms.items())],
        "M": [{"t_power": p,
               "alpha_coefficients": [str(row.get(j, 0)) for j in range(max(row) + 1)]}
              for p, row in sorted(m_rows.items())],
        "source": "exact",
    }


def _cmd_modeldet(args: argparse.Namespace) -> dict:
    op = ModelOperator(nu=args.nu, alpha=args.alpha)
    closed = det_closed(op)
    payload = {
        "nu": op.nu,
        "alpha": "inf" if op.dirichlet else op.alpha,
        "log_det": closed.log_det,
        "source": closed.source,
    }
    if args.numeric:
        from .modelops import det_numeric
        numeric = det_numeric(op, tol=max(args.tolerance, 1e-8))
        payload["log_det_numeric"] = numeric.log_det
        payload["error_estimate"] = numeric.error_estimate
        payload["difference"] = numeric.log_det - closed.log_det
        payload["source"] = "closed-form+numeric"
    return payload


# ---------------------------------------------------------------------------
# self-test

def run_selftest(tol: float = TOL_DEFAULT):
    """Run every acceptance check; returns (results, all_passed).

    Each result row carries the check name, pass/fail, a deterministic
    detail string, and the elapsed seconds (reported in tables only, so the
    JSON output stays byte-identical across runs).
    """
    results = []
    all_passed = True
    # read through the module: a caller may replace the attribute
    for name, budget, fn in sys.modules[__name__].ACCEPTANCE_CHECKS:
        started = time.perf_counter()
        try:
            ok, detail = fn(tol)
        except ConvergenceError as exc:
            ok, detail = False, f"non-convergence: {exc}"
        except ValidationError as exc:
            ok, detail = False, f"validation: {exc}"
        elapsed = time.perf_counter() - started
        if elapsed > budget:
            ok = False
            detail += f" [exceeded {budget:g}s budget]"
        all_passed = all_passed and ok
        results.append({"check": name, "passed": bool(ok), "detail": detail,
                        "budget_seconds": budget, "seconds": elapsed})
    return results, all_passed


def _cmd_selftest(args: argparse.Namespace) -> tuple[str, int]:
    results, all_passed = run_selftest(args.tolerance)
    if args.format == "json":
        payload = {
            "tolerance": args.tolerance,
            "passed": all_passed,
            "checks": [{key: row[key] for key in ("check", "passed", "detail",
                                                  "budget_seconds")}
                       for row in results],
        }
        text = render_json(payload)
    else:
        width = max(len(row["check"]) for row in results)
        lines = [f"self-test at tolerance {args.tolerance:g}"]
        for row in results:
            status = "pass" if row["passed"] else "FAIL"
            lines.append(f"{row['check']:<{width}}  {status}  "
                         f"{row['seconds']:7.3f}s  {row['detail']}")
        lines.append("result: " + ("all checks passed" if all_passed
                                   else "FAILURES present"))
        text = "\n".join(lines)
    return text, 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parser and dispatch

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format (default json)")
    common.add_argument("--tolerance", type=float, default=TOL_DEFAULT,
                        help="requested accuracy for numeric paths "
                             "(default 1e-8, range [1e-12, 1e-4])")

    base_flags = argparse.ArgumentParser(add_help=False)
    base_flags.add_argument("--base", required=True,
                            help="cross-section: s1, torus2, or custom:<path>")
    base_flags.add_argument("--scale", type=float, default=None,
                            help="metric scale c (required for s1/torus2)")
    base_flags.add_argument("--lattice", default=None,
                            help="torus lattice basis a1x,a1y,a2x,a2y")

    parser = argparse.ArgumentParser(
        prog="conetorsion",
        description="Analytic torsion of bounded generalized cones: closed "
                    "forms with independent numeric verification paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_torsion = sub.add_parser("torsion", help="log-torsion of a cone")
    shape = p_torsion.add_subparsers(dest="shape", required=True)
    shape.add_parser("cone", parents=[common, base_flags],
                     help="cone over a cross-section, assembled per degree"
                     ).set_defaults(handler=_cmd_torsion_cone)
    p_disc = shape.add_parser("disc", parents=[common],
                              help="cone over a circle (closed form)")
    p_disc.set_defaults(handler=_cmd_torsion_disc)
    p_disc.add_argument("--nu", type=float, required=True,
                        help="angle parameter nu >= 1 (1 = flat disc)")
    p_disc.add_argument("--radius", type=float, required=True,
                        help="cone length R > 0")

    p_zeros = sub.add_parser("zeros", parents=[common],
                             help="positive Bessel-type zeros")
    p_zeros.set_defaults(handler=_cmd_zeros)
    p_zeros.add_argument("--kind", choices=("j", "jprime", "mixed"),
                         required=True,
                         help="J zeros, J' zeros, or alpha*J + z*J' zeros")
    p_zeros.add_argument("--nu", type=float, required=True, help="order nu >= 0")
    p_zeros.add_argument("--alpha", type=_parse_alpha, default=None,
                         help="boundary parameter (mixed kind only; 'inf' allowed)")
    p_zeros.add_argument("--count", type=int, required=True,
                         help="how many zeros")

    p_zeta = sub.add_parser("zeta", parents=[common, base_flags],
                            help="continuation data of a degree's frequency set")
    p_zeta.set_defaults(handler=_cmd_zeta)
    p_zeta.add_argument("--degree", type=int, required=True,
                        help="form degree k on the cross-section")
    p_zeta.add_argument("--shift", type=float, default=None,
                        help="also evaluate the shifted derivative at this shift")

    p_olver = sub.add_parser("olver", parents=[common],
                             help="exact large-order expansion polynomials")
    p_olver.set_defaults(handler=_cmd_olver)
    p_olver.add_argument("--order", type=int, required=True,
                         help=f"expansion order r in 1..{MAX_ORDER}")

    p_det = sub.add_parser("modeldet", parents=[common],
                           help="zeta determinant of a radial model operator")
    p_det.set_defaults(handler=_cmd_modeldet)
    p_det.add_argument("--nu", type=float, required=True, help="order nu >= 0")
    p_det.add_argument("--alpha", type=_parse_alpha, required=True,
                       help="boundary parameter, a real number or 'inf'")
    p_det.add_argument("--numeric", action="store_true",
                       help="recompute from the Bessel-zero spectrum as well")

    p_self = sub.add_parser("selftest", parents=[common],
                            help="run the acceptance checks")
    p_self.add_argument("--tol", dest="tolerance", type=float,
                        default=TOL_DEFAULT,
                        help="same as --tolerance; looser values use fewer "
                             "spectrum terms")
    return parser


def run(argv=None) -> tuple[str, int]:
    """Parse argv, execute, and return (output text, exit code)."""
    args = _build_parser().parse_args(argv)
    if not TOL_MIN <= args.tolerance <= TOL_MAX:
        raise ValidationError(
            f"tolerance must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {args.tolerance!r}")
    if args.command == "selftest":      # renders its own text and exit code
        return _cmd_selftest(args)
    payload = args.handler(args)
    return (render_json(payload) if args.format == "json"
            else render_table(payload)), 0


def main(argv=None) -> int:
    try:
        text, code = run(argv)
    except (ValidationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
