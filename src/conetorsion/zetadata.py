"""Continuation data records and the closed form over an arithmetic progression.

``ZetaFunctionData`` is the record every continuation route returns (the
exact progression and lattice routes, the numeric Mellin route), and
``zeta_data_exact`` is the closed form the cone over a circle reads.  Both
are numpy-free, so a circle solve runs without the numeric layers.  They
live apart from ``specfun``, which every closed-form CLI command imports:
creating the frozen dataclass takes about 1.4 ms at import (Python 3.11, a
2-vCPU Xeon), which only the spectral layers (``torsion``, and ``zetacont``,
which re-exports these names as the same objects) should pay.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import ValidationError, integer, number, positive

#: depth of the shift relation / residue ladder used on the numeric path
RMAX = 16


def _shifts(alphas) -> list[float]:
    """The shifts as floats, each screened before ``float`` could parse it."""
    return [number(a, "shift", "a finite real") for a in alphas]


def _check_shift(a: float, smallest: float) -> None:
    if a <= -smallest:
        raise ValidationError(f"shift {a} reaches past the smallest eigenvalue {smallest}")


@dataclass(frozen=True)
class ZetaFunctionData:
    """Continuation outputs, read-only once built: the mappings are copied
    into read-only views.  pp[i] stores the plain value zeta(i) wherever
    residues[i] == 0.  ``pp_errors`` bounds, where given, the error of
    Res(i)(gamma + psi(i)) + PP(i) beyond ``error_estimate``: the lattice
    route's high orders cancel terms of size a^(-i), and the relation path
    weighs them by |alpha|^i / i."""
    deriv0: float
    deriv0_shifted: Mapping = field(default_factory=dict)
    residues: Mapping = field(default_factory=dict)
    pp: Mapping = field(default_factory=dict)
    error_estimate: float = 0.0
    zeta0: float = math.nan
    pp_errors: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for name in ("deriv0_shifted", "residues", "pp", "pp_errors"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


def zeta_data_exact(c: float, m: int, alphas=(), pole_range: int = 1) -> ZetaFunctionData:
    """Closed-form data for the arithmetic progression {c k}, multiplicity m.

    zeta(s) = m c^(-s) zeta_R(s) and zeta(s, a) = m c^(-s) zeta_H(s, 1+a/c);
    everything below is the s-expansion of those at s = 0 and s = i.
    """
    # read from specfun at each call, so a wrapper put on its functions (the
    # benchmark's per-layer tracing) sees these calls
    from .specfun import EULER_GAMMA, LOG_2PI, hurwitz_zeta_prime0, riemann_zeta
    c, m = positive(c, "c"), integer(m, "m", 1)
    pole_range = integer(pole_range, "pole_range", 0, RMAX)
    lc = math.log(c)
    shifted = {}
    for a in _shifts(alphas):
        _check_shift(a, c)
        shifted[a] = m * (lc * (0.5 + a / c) + hurwitz_zeta_prime0(1.0 + a / c))
    residues, pp = {}, {}
    for i in range(1, pole_range + 1):
        if i == 1:
            residues[1] = m / c
            pp[1] = m * (EULER_GAMMA - lc) / c
        else:
            residues[i] = 0.0
            pp[i] = m * c ** (-i) * riemann_zeta(float(i))
    return ZetaFunctionData(deriv0=m * (0.5 * lc - 0.5 * LOG_2PI),
                            deriv0_shifted=shifted, residues=residues, pp=pp,
                            error_estimate=0.0, zeta0=-m / 2.0)
