"""Acceptance gate: every shipped guarantee, one pass/fail line each.

The checks live in ``conetorsion.selftest`` and run as
``conetorsion.cli.ACCEPTANCE_CHECKS`` — the identical battery behind
``conetorsion selftest`` — and each enforces both its numeric tolerance and
its wall-clock budget.  Criteria covered, in order:

 1.  disc-value                    closed-form flat-disc value, 1e-12
 2.  angle-closed-form             closed form at (1,1), (1,2), (2,1), exact
 3.  cone-vs-disc                  assembled circle cone == closed form, 1e-10
 4.  model-determinant-oracle      numeric log-det anchor + full dual grid
 5.  first-sector-regularized-sum  2000-zero regularized sum vs closed form
 6.  expansion-polynomials         exact polynomials + cross-identities r<=10
 7.  zero-shift-identity           J_nu zeros == shifted-boundary zeros, 1e-10
 8.  remainder-collapse-asymptote  collapse at 0- and deep-lambda (a, b) fits
 9.  three-dim-dual-path           torus cone lattice route == numeric route within
                                   their estimates; assembly == 3d closed form, 1e-8
 10. harmonic-sector               bitwise harmonic values for both bases
 11. mutation-sensitivity          the identity checks can actually fail
"""

import time

import pytest

from conetorsion.cli import ACCEPTANCE_CHECKS, TOL_DEFAULT


@pytest.mark.parametrize(
    "name,budget,fn",
    ACCEPTANCE_CHECKS,
    ids=[name for name, _, _ in ACCEPTANCE_CHECKS],
)
def test_acceptance(name, budget, fn):
    started = time.perf_counter()
    ok, detail = fn(TOL_DEFAULT)
    elapsed = time.perf_counter() - started
    assert ok, f"{name}: {detail}"
    assert elapsed <= budget, (
        f"{name} exceeded its {budget:g}s budget: {elapsed:.3f}s ({detail})")


@pytest.mark.parametrize("tol", [1e-5, 1.25e-5, 2e-5, 1e-4])
def test_model_determinant_oracle_at_loose_tolerances(tol):
    # the check may use fewer eigenvalues only where their error estimates
    # still meet the tolerance
    check = {name: fn for name, _, fn in ACCEPTANCE_CHECKS}
    ok, detail = check["model-determinant-oracle"](tol)
    assert ok, detail


@pytest.mark.parametrize("tol", [1e-5, 1e-4])
@pytest.mark.parametrize("name", ["first-sector-regularized-sum", "three-dim-dual-path"])
def test_reduced_spectrum_checks_at_loose_tolerances(name, tol):
    # from 1e-5 on these checks run on 700 zeros and on nu_max 44
    check = {check_name: fn for check_name, _, fn in ACCEPTANCE_CHECKS}
    ok, detail = check[name](tol)
    assert ok, detail
