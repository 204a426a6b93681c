"""A calibration loop: fixed work, independent of blowup_lab, timed beside the
benchmark's own work to tell how fast the machine runs at that moment.

On a shared host the same work can take 1.3 to 1.9 times as long from one
minute to the next, and the factor depends on the kind of work: Python
callbacks slow down most, sparse LU least.  The loop mixes the two in about
equal time, as blowup_lab's workloads do: adaptive quadrature and root
finding from scipy on Python callbacks that make scalar numpy calls, and a
sparse LU solve of a 9-point stencil on the 65 x 65 grid that pde2d uses.
"""
from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import integrate, optimize

REFERENCE_S = 0.06      # loop time at the speed wall_s and setup_s are scaled to

_N = 65
_STENCIL = (sp.kron(sp.identity(_N), sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N)))
            + sp.kron(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N)), sp.identity(_N))
            + 0.1 * sp.kron(sp.diags([1.0, 1.0], [-1, 1], shape=(_N, _N)),
                            sp.diags([1.0, 1.0], [-1, 1], shape=(_N, _N)))).tocsc()


def _integrand(t: float) -> float:
    return math.exp(-t * t) * float(np.hypot(t, 1.0))


def loop_s() -> float:
    """Seconds one run of the loop takes now."""
    start = time.perf_counter()
    total = 0.0
    for k in range(1, 301):
        total += integrate.quad(_integrand, 0.0, 0.006 * k)[0]
        total += optimize.brentq(lambda x: x ** 3 + x - 0.003 * k, 0.0, 2.0)
    total += float(spla.splu(_STENCIL).solve(np.ones(_N * _N))[0])
    if not math.isfinite(total):
        raise ArithmeticError("calibration loop gave a non-finite sum")
    return time.perf_counter() - start
