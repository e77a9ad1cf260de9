"""The acceptance battery behind ``conetorsion selftest``: each check maps a
tolerance to (passed, deterministic detail).  Library functions are called
through their modules (``torsion.log_torsion``), so a tool that swaps a
module attribute, such as the benchmark's per-layer tracer, sees each call.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import basemanifold, besselzero, exactpoly, modelops, torsion
from .besselzero import ZeroRequest
from .derivation import (SpectralParameter, asymptotic_remainder,
                         fit_remainder, remainder_asymptote)
from .modelops import ModelOperator
from .specfun import EULER_GAMMA, LOG_2
from .torsion import ConeOverS1Config

__all__ = ["ACCEPTANCE_CHECKS", "corollary_3d_precancellation"]


def corollary_3d_precancellation(base) -> float:
    """Intermediate three-dimensional form with digamma values unsimplified.

    Replaces the last two terms of ``torsion.corollary_3d`` by
    -(gamma/4) Res(1) + [Res(1)(gamma + 2 log2) + Res(2)/2]/4; identical by
    cancellation of the gamma terms, kept as a regression guard on the
    simplification step.
    """
    head, res1, res2 = torsion._corollary_3d_parts(base)
    return (head - 0.25 * EULER_GAMMA * res1
            + 0.25 * (res1 * (EULER_GAMMA + 2.0 * LOG_2) + 0.5 * res2))


def _chk_disc_value(tol: float):
    value = torsion.theorem_main(ConeOverS1Config(radius=1.0, nu_angle=1.0))
    reference = 0.5 * (-math.log(math.pi) - 1.0)
    diff = value - reference
    return abs(diff) <= 1e-12, f"log_torsion={value:.17g} diff={diff:.1e}"


def _chk_angle_formula(tol: float):
    ok = True
    for radius, nu in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        value = torsion.theorem_main(ConeOverS1Config(radius=radius, nu_angle=nu))
        transcription = 0.5 * (-math.log(math.pi * radius * radius)
                               + math.log(nu) - 1.0 / nu)
        ok = ok and value == transcription
    return ok, "three (R, nu) pairs reproduce the closed form exactly"


def _chk_cone_vs_disc(tol: float):
    worst = 0.0
    for c in (1.5, 2.0, 3.0):
        breakdown = torsion.log_torsion(basemanifold.circle(c))
        closed = torsion.theorem_main(ConeOverS1Config(radius=1.0, nu_angle=c))
        worst = max(worst, abs(breakdown.log_torsion - closed))
    return worst <= 1e-10, f"worst |assembly - closed form| = {worst:.2e}"


def _chk_model_determinant(tol: float):
    # 600 eigenvalues leave error estimates up to 1.82e-5 on this grid
    count = 2000 if tol < 2e-5 else 600
    eff_half = max(1e-8, tol)
    eff_grid = max(1e-7, tol)
    half = modelops.det_numeric(ModelOperator(0.5, math.inf), tol=eff_half, count=count)
    half_diff = abs(half.log_det - LOG_2)
    worst = 0.0
    for nu in (1.5, 2.5, 4.0):
        for alpha in (math.inf, 0.0, 1.0, -1.0):
            op = ModelOperator(nu, alpha)
            numeric = modelops.det_numeric(op, tol=eff_grid, count=count)
            worst = max(worst, abs(numeric.log_det - modelops.det_closed(op).log_det))
    ok = half_diff <= eff_half and worst <= eff_grid
    return ok, (f"half-order diff={half_diff:.2e}, grid worst={worst:.2e} "
                f"({count} eigenvalues)")


def _chk_first_sector_sum(tol: float):
    count = 2000 if tol < 1e-5 else 700
    eff = max(1e-6, tol)
    value, err = torsion.lemma_first_summand_numeric(1.0, count)
    diff = abs(value - torsion.lemma_first_summand(1.0))
    return diff <= eff, f"diff={diff:.2e} error_estimate={err:.2e} ({count} zeros)"


def _chk_expansion_polynomials(tol: float):
    half = Fraction(1, 2)
    ok = exactpoly.gen_D(1).terms == {(1, 0): Fraction(1, 8), (3, 0): Fraction(-5, 24)}
    ok = ok and exactpoly.gen_M(1).terms == {
        (1, 0): Fraction(-3, 8), (1, 1): 1, (3, 0): Fraction(7, 24)}
    ok = ok and exactpoly.gen_M(2).terms == {
        (2, 0): Fraction(-3, 16), (2, 1): half, (2, 2): -half,
        (4, 0): Fraction(5, 8), (4, 1): -half, (6, 0): Fraction(-7, 16)}
    for r in range(1, 11):
        for alpha in (Fraction(0), half, -half, Fraction(1), Fraction(2)):
            ok = ok and exactpoly.dm_identity_residual(r, alpha) == 0
            ok = ok and exactpoly.zsum_identity_residual(r, alpha) == 0
            ok = ok and exactpoly.xzsum_identity_residual(r, alpha) == 0
    return bool(ok), "printed polynomials and all three identities, orders 1..10"


def _chk_zero_shift_identity(tol: float):
    worst = 0.0
    for nu in (1.2, 2.0, 3.7):
        plain = besselzero.zeros(ZeroRequest(nu=nu, kind="dirichlet", count=15)).zeros
        shifted = besselzero.zeros(ZeroRequest(nu=nu + 1.0, kind="mixed", count=15,
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
    base = basemanifold.torus2(2.0, nu_max=nu_max)
    breakdown = torsion.log_torsion(base)
    reduced = torsion.corollary_3d(base)
    pre = corollary_3d_precancellation(base)
    diff = abs(breakdown.log_torsion - reduced)
    ok = (diff <= eff and breakdown.error_estimate <= eff
          and abs(pre - reduced) <= 1e-12)
    return ok, (f"|assembly - reduced form|={diff:.2e}, "
                f"error_estimate={breakdown.error_estimate:.2e}")


def _chk_harmonic_sector(tol: float):
    h_circle = modelops.harmonic_contribution(basemanifold.circle(2.0))
    h_torus = modelops.harmonic_contribution(basemanifold.torus2(2.0))
    ok = h_circle == 0.5 * LOG_2 and h_torus == -0.5 * math.log(3.0)
    return ok, "circle gives log(2)/2 and torus gives -log(3)/2 exactly"


def _chk_mutation_sensitivity(tol: float):
    clean = exactpoly.dm_identity_residual(1, Fraction(1, 2))
    flipped = exactpoly.dm_identity_residual(1, Fraction(1, 2),
                                             d_poly=exactpoly.gen_D(1).scale(-1))
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
