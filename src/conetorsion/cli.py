"""Command-line interface, configuration, and serialization.

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
"""

from __future__ import annotations

import argparse
import json as _json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basemanifold import BaseManifold, circle, custom, torus2
from .besselzero import ZeroRequest, zeros
from .errors import ConvergenceError, ValidationError
from .exactpoly import (MAX_ORDER, dm_identity_residual, gen_D, gen_M,
                        xzsum_identity_residual, zsum_identity_residual)
from .modelops import (ModelOperator, det_closed, det_numeric,
                       harmonic_contribution)
from .specfun import LOG_2
from .torsion import (ConeOverS1Config, SpectralParameter,
                      asymptotic_remainder, corollary_3d,
                      corollary_3d_precancellation, degree_continuation,
                      fit_remainder, lemma_first_summand,
                      lemma_first_summand_numeric, log_torsion,
                      remainder_asymptote, theorem_main)

__all__ = ["CommandConfig", "main", "run", "run_selftest"]

TOL_MIN, TOL_MAX, TOL_DEFAULT = 1e-12, 1e-4, 1e-8


@dataclass(frozen=True)
class CommandConfig:
    """Parsed invocation: subcommand, its flags, output format, tolerance."""

    subcommand: str
    flags: dict
    output_format: str = "json"
    tolerance: float = TOL_DEFAULT

    def __post_init__(self):
        if self.output_format not in ("json", "table"):
            raise ValidationError(
                f"output format must be 'json' or 'table', got {self.output_format!r}")
        tol = float(self.tolerance)
        if not (TOL_MIN <= tol <= TOL_MAX):
            raise ValidationError(
                f"tolerance must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", tol)


# ---------------------------------------------------------------------------
# deterministic serialization

def _format_float(x: float) -> str:
    return format(x, ".17g")


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
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(_format_float(obj) if math.isfinite(obj) else _json.dumps(str(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, Fraction):
        out.append(_json.dumps(str(obj)))
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
        return _format_float(value) if math.isfinite(value) else str(value)
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


def _render(payload, fmt: str) -> str:
    return render_json(payload) if fmt == "json" else render_table(payload)


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


def _build_base(flags: dict) -> BaseManifold:
    spec = flags["base"]
    scale = flags.get("scale")
    lattice = flags.get("lattice")
    if spec.startswith("custom:"):
        path = spec[len("custom:"):]
        if not path:
            raise ValidationError("custom base needs a file path after 'custom:'")
        if scale is not None:
            raise ValidationError(
                "custom bases carry their scale inside the spectrum file; "
                "drop --scale")
        if lattice is not None:
            raise ValidationError("--lattice applies only to --base torus2")
        return custom(path)
    if scale is None:
        raise ValidationError(f"--scale is required for --base {spec}")
    if spec == "s1":
        if lattice is not None:
            raise ValidationError("--lattice applies only to --base torus2")
        return circle(scale)
    if spec == "torus2":
        return torus2(scale, lattice=_parse_lattice(lattice) if lattice else None)
    raise ValidationError(
        f"base must be one of s1, torus2, custom:<path>; got {spec!r}")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-ready payload)

def _cmd_torsion_disc(cfg: CommandConfig) -> dict:
    cone = ConeOverS1Config(radius=cfg.flags["radius"], nu_angle=cfg.flags["nu"])
    return {
        "log_torsion": theorem_main(cone),
        "nu": cone.nu_angle,
        "radius": cone.radius,
        "source": "closed-form",
    }


def _cmd_torsion_cone(cfg: CommandConfig) -> dict:
    base = _build_base(cfg.flags)
    breakdown = log_torsion(base)
    if breakdown.error_estimate > cfg.tolerance:
        raise ConvergenceError(
            f"continuation error estimate {breakdown.error_estimate:.3e} exceeds "
            f"the requested tolerance {cfg.tolerance:g}")
    return {
        "log_torsion": breakdown.log_torsion,
        "harmonic_term": breakdown.harmonic_term,
        "per_degree": {
            str(k): dict(entry) for k, entry in breakdown.per_degree.items()
        },
        "parity": breakdown.parity,
        "base_id": breakdown.base_id,
        "scale": breakdown.scale,
        "error_estimate": breakdown.error_estimate,
    }


def _cmd_zeros(cfg: CommandConfig) -> dict:
    kind_map = {"j": "dirichlet", "jprime": "neumann", "mixed": "mixed"}
    kind = kind_map[cfg.flags["kind"]]
    alpha = cfg.flags.get("alpha")
    if alpha is not None and kind != "mixed":
        raise ValidationError("alpha is only meaningful for kind 'mixed'")
    request = ZeroRequest(nu=cfg.flags["nu"], kind=kind,
                          count=cfg.flags["count"],
                          alpha=alpha if kind == "mixed" else None)
    zl = zeros(request)
    payload = {
        "kind": cfg.flags["kind"],
        "nu": request.nu,
        "count": request.count,
        "zeros": [float(z) for z in zl.zeros],
        "max_residual": float(np.max(np.abs(zl.residuals))),
    }
    if kind == "mixed":
        payload["alpha"] = request.alpha
    return payload


def _zeta_payload(base: BaseManifold, k: int, shift: float | None,
                  tolerance: float) -> dict:
    dc = degree_continuation(base, k)
    data = dc.data
    n = base.dim
    pole_top = max(n, 1)
    shift_value, shift_error = dc.shifted(shift) if shift is not None else (None, None)
    total_err = data.error_estimate + (shift_error or 0.0)
    if total_err > tolerance:
        raise ConvergenceError(
            f"continuation error estimate {total_err:.3e} exceeds the requested "
            f"tolerance {tolerance:g}")
    payload = {
        "base_id": base.name,
        "scale": base.scale,
        "dim": n,
        "degree": k,
        "alpha": float(dc.nu.alpha) + 0.0,    # normalizes -0.0
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


def _cmd_zeta(cfg: CommandConfig) -> dict:
    base = _build_base(cfg.flags)
    return _zeta_payload(base, cfg.flags["degree"], cfg.flags.get("shift"),
                         cfg.tolerance)


def _cmd_olver(cfg: CommandConfig) -> dict:
    order = cfg.flags["order"]
    d_poly = gen_D(order)
    m_poly = gen_M(order)
    return {
        "order": order,
        "max_order": MAX_ORDER,
        "D": [{"t_power": p, "coefficient": str(c)} for p, c in d_poly.terms()],
        "M": [{"t_power": p,
               "alpha_coefficients": [str(c)
                                      for c in m_poly.t_coefficient(p).coeffs]}
              for p in m_poly.t_powers()],
        "source": "exact",
    }


def _cmd_modeldet(cfg: CommandConfig) -> dict:
    op = ModelOperator(nu=cfg.flags["nu"], alpha=cfg.flags["alpha"])
    closed = det_closed(op)
    payload = {
        "nu": op.nu,
        "alpha": "inf" if op.dirichlet else op.alpha,
        "log_det": closed.log_det,
        "source": closed.source,
    }
    if cfg.flags.get("numeric"):
        numeric = det_numeric(op, tol=max(cfg.tolerance, 1e-8))
        payload["log_det_numeric"] = numeric.log_det
        payload["error_estimate"] = numeric.error_estimate
        payload["difference"] = numeric.log_det - closed.log_det
        payload["source"] = "closed-form+numeric"
    return payload


# ---------------------------------------------------------------------------
# self-test registry (shared with the acceptance test suite)

def _chk_disc_value(tol: float):
    value = theorem_main(ConeOverS1Config(radius=1.0, nu_angle=1.0))
    reference = 0.5 * (-math.log(math.pi) - 1.0)
    diff = value - reference
    return abs(diff) <= 1e-12, f"log_torsion={_format_float(value)} diff={diff:.1e}"


def _chk_angle_formula(tol: float):
    ok = True
    for radius, nu in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        value = theorem_main(ConeOverS1Config(radius=radius, nu_angle=nu))
        transcription = 0.5 * (-math.log(math.pi * radius * radius)
                               + math.log(nu) - 1.0 / nu)
        ok = ok and value == transcription
    return ok, "three (R, nu) pairs reproduce the closed form exactly"


def _chk_cone_vs_disc(tol: float):
    worst = 0.0
    for c in (1.5, 2.0, 3.0):
        breakdown = log_torsion(circle(c))
        closed = theorem_main(ConeOverS1Config(radius=1.0, nu_angle=c))
        worst = max(worst, abs(breakdown.log_torsion - closed))
    return worst <= 1e-10, f"worst |assembly - closed form| = {worst:.2e}"


def _chk_model_determinant(tol: float):
    # 600 eigenvalues leave error estimates up to 1.82e-5 on this grid
    count = 2000 if tol < 2e-5 else 600
    eff_half = max(1e-8, tol)
    eff_grid = max(1e-7, tol)
    half = det_numeric(ModelOperator(0.5, math.inf), tol=eff_half, count=count)
    half_diff = abs(half.log_det - LOG_2)
    worst = 0.0
    for nu in (1.5, 2.5, 4.0):
        for alpha in (math.inf, 0.0, 1.0, -1.0):
            op = ModelOperator(nu, alpha)
            numeric = det_numeric(op, tol=eff_grid, count=count)
            worst = max(worst, abs(numeric.log_det - det_closed(op).log_det))
    ok = half_diff <= eff_half and worst <= eff_grid
    return ok, (f"half-order diff={half_diff:.2e}, grid worst={worst:.2e} "
                f"({count} eigenvalues)")


def _chk_first_sector_sum(tol: float):
    count = 2000 if tol < 1e-5 else 700
    eff = max(1e-6, tol)
    value, err = lemma_first_summand_numeric(1.0, count)
    diff = abs(value - lemma_first_summand(1.0))
    return diff <= eff, f"diff={diff:.2e} error_estimate={err:.2e} ({count} zeros)"


def _chk_expansion_polynomials(tol: float):
    half = Fraction(1, 2)
    d1 = gen_D(1)
    ok = [(p, c) for p, c in d1.terms()] == [(1, Fraction(1, 8)),
                                             (3, Fraction(-5, 24))]
    m1 = gen_M(1)
    ok = ok and m1.t_powers() == [1, 3]
    ok = ok and m1.t_coefficient(1).coeffs == (Fraction(-3, 8), Fraction(1))
    ok = ok and m1.t_coefficient(3).coeffs == (Fraction(7, 24),)
    m2 = gen_M(2)
    ok = ok and m2.t_powers() == [2, 4, 6]
    ok = ok and m2.t_coefficient(2).coeffs == (Fraction(-3, 16), half, -half)
    ok = ok and m2.t_coefficient(4).coeffs == (Fraction(5, 8), -half)
    ok = ok and m2.t_coefficient(6).coeffs == (Fraction(-7, 16),)
    for r in range(1, 11):
        for alpha in (Fraction(0), half, -half, Fraction(1), Fraction(2)):
            ok = ok and dm_identity_residual(r, alpha) == 0
            ok = ok and zsum_identity_residual(r, alpha) == 0
            ok = ok and xzsum_identity_residual(r, alpha) == 0
    return bool(ok), "printed polynomials and all three identities, orders 1..10"


def _chk_zero_shift_identity(tol: float):
    worst = 0.0
    for nu in (1.2, 2.0, 3.7):
        plain = zeros(ZeroRequest(nu=nu, kind="dirichlet", count=15)).zeros
        shifted = zeros(ZeroRequest(nu=nu + 1.0, kind="mixed", count=15,
                                    alpha=nu + 1.0)).zeros
        worst = max(worst, float(np.max(np.abs(plain - shifted))))
    return worst <= 1e-10, f"worst zero mismatch = {worst:.2e}"


def _chk_remainder_asymptotics(tol: float):
    collapse = SpectralParameter(-1e-8)
    worst_collapse = worst_fit = 0.0
    for nu in (2.0, 5.0, 10.0):
        for k, n in ((0, 2), (0, 3)):       # odd / even total dimension
            worst_collapse = max(worst_collapse,
                                 abs(asymptotic_remainder(nu, k, n, collapse)))
            slope_p, intercept_p = remainder_asymptote(nu, k, n)
            slope_f, intercept_f = fit_remainder(nu, k, n)
            worst_fit = max(worst_fit, abs(slope_f - slope_p),
                            abs(intercept_f - intercept_p))
    ok = worst_collapse <= 1e-6 and worst_fit <= 1e-3
    return ok, (f"collapse worst={worst_collapse:.2e}, "
                f"fit worst={worst_fit:.2e}")


def _chk_three_dim_dual_path(tol: float):
    eff = max(1e-8, tol)
    nu_max = 64.0 if tol < 1e-5 else 44.0
    base = torus2(2.0, nu_max=nu_max)
    breakdown = log_torsion(base)
    reduced = corollary_3d(base)
    pre = corollary_3d_precancellation(base)
    diff = abs(breakdown.log_torsion - reduced)
    ok = (diff <= eff and breakdown.error_estimate <= eff
          and abs(pre - reduced) <= 1e-12)
    return ok, (f"|assembly - reduced form|={diff:.2e}, "
                f"error_estimate={breakdown.error_estimate:.2e}")


def _chk_harmonic_sector(tol: float):
    h_circle = harmonic_contribution(circle(2.0))
    h_torus = harmonic_contribution(torus2(2.0))
    ok = h_circle == 0.5 * LOG_2 and h_torus == -0.5 * math.log(3.0)
    return ok, "circle gives log(2)/2 and torus gives -log(3)/2 exactly"


def _chk_mutation_sensitivity(tol: float):
    clean = dm_identity_residual(1, Fraction(1, 2))
    flipped = dm_identity_residual(1, Fraction(1, 2), d_poly=gen_D(1).scale(-1))
    ok = clean == 0 and flipped != 0
    return ok, f"sign-flipped first polynomial leaves residual {flipped}"


#: (name, wall-clock budget in seconds, check function)
ACCEPTANCE_CHECKS = (
    ("disc-value", 0.001, _chk_disc_value),
    ("angle-closed-form", 0.001, _chk_angle_formula),
    ("cone-vs-disc", 1.0, _chk_cone_vs_disc),
    ("model-determinant-oracle", 30.0, _chk_model_determinant),
    ("first-sector-regularized-sum", 10.0, _chk_first_sector_sum),
    ("expansion-polynomials", 1.0, _chk_expansion_polynomials),
    ("zero-shift-identity", 1.0, _chk_zero_shift_identity),
    ("remainder-collapse-asymptote", 5.0, _chk_remainder_asymptotics),
    ("three-dim-dual-path", 60.0, _chk_three_dim_dual_path),
    ("harmonic-sector", 1.0, _chk_harmonic_sector),
    ("mutation-sensitivity", 1.0, _chk_mutation_sensitivity),
)


def run_selftest(tol: float = TOL_DEFAULT):
    """Run every acceptance check; returns (results, all_passed).

    Each result row carries the check name, pass/fail, a deterministic
    detail string, and the elapsed seconds (reported in tables only, so the
    JSON output stays byte-identical across runs).
    """
    results = []
    all_passed = True
    for name, budget, fn in ACCEPTANCE_CHECKS:
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


def _cmd_selftest(cfg: CommandConfig) -> tuple[str, int]:
    results, all_passed = run_selftest(cfg.tolerance)
    if cfg.output_format == "json":
        payload = {
            "tolerance": cfg.tolerance,
            "passed": all_passed,
            "checks": [{key: row[key] for key in ("check", "passed", "detail",
                                                  "budget_seconds")}
                       for row in results],
        }
        text = render_json(payload)
    else:
        width = max(len(row["check"]) for row in results)
        lines = [f"self-test at tolerance {cfg.tolerance:g}"]
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
                     help="cone over a cross-section, assembled per degree")
    p_disc = shape.add_parser("disc", parents=[common],
                              help="cone over a circle (closed form)")
    p_disc.add_argument("--nu", type=float, required=True,
                        help="angle parameter nu >= 1 (1 = flat disc)")
    p_disc.add_argument("--radius", type=float, required=True,
                        help="cone length R > 0")

    p_zeros = sub.add_parser("zeros", parents=[common],
                             help="positive Bessel-type zeros")
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
    p_zeta.add_argument("--degree", type=int, required=True,
                        help="form degree k on the cross-section")
    p_zeta.add_argument("--shift", type=float, default=None,
                        help="also evaluate the shifted derivative at this shift")

    p_olver = sub.add_parser("olver", parents=[common],
                             help="exact large-order expansion polynomials")
    p_olver.add_argument("--order", type=int, required=True,
                         help=f"expansion order r in 1..{MAX_ORDER}")

    p_det = sub.add_parser("modeldet", parents=[common],
                           help="zeta determinant of a radial model operator")
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


_HANDLERS = {
    "torsion cone": _cmd_torsion_cone,
    "torsion disc": _cmd_torsion_disc,
    "zeros": _cmd_zeros,
    "zeta": _cmd_zeta,
    "olver": _cmd_olver,
    "modeldet": _cmd_modeldet,
}


def run(argv=None) -> tuple[str, int]:
    """Parse argv, execute, and return (output text, exit code)."""
    args = _build_parser().parse_args(argv)
    flags = dict(vars(args))
    command = flags.pop("command")
    if command == "torsion":
        command = f"torsion {flags.pop('shape')}"
    fmt = flags.pop("format")
    tolerance = flags.pop("tolerance")
    cfg = CommandConfig(subcommand=command, flags=flags, output_format=fmt,
                        tolerance=tolerance)
    if command == "selftest":
        return _cmd_selftest(cfg)
    payload = _HANDLERS[command](cfg)
    return _render(payload, cfg.output_format), 0


def main(argv=None) -> int:
    try:
        text, code = run(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
