"""Shared quadrature kernel for the blow-up functionals.

Improper integrals of the shape int 1/B^-1{F(s) - F(v0)} ds appear
throughout: over [r, inf) for the Keller-Osserman tail, over (0, r] for the
Osgood/dead-core side, and with an integrable algebraic singularity at the
lower endpoint s = v0.  Strategy:

* infinite tails: doubling blocks [T, 2T] (each via adaptive Gauss-Kronrod)
  until the remainder is negligible or the block ratio has stabilized, then
  a geometric extrapolation of the remainder.  The extrapolation is exact
  for power-law tails, which keeps the result at ~1e-12 relative accuracy
  even one part in 1e6 away from the convergence frontier.
* divergence: declared when the last three block ratios are all >= 1 - 1e-7.
  A logarithmically divergent tail gives ratios == 1, while the closest
  convergent cases of interest give ratios below 1 - 3e-7, so the rule
  separates them with two decades of margin.
* the 0+ endpoint: the same ladder with halving blocks [e/2, e].
* the s = v0 endpoint (exponent 1/p for p-laplace): exact removal by the
  substitution s = v0 + u^k, k = p/(p-1); tanh-sinh quadrature for general
  operators and for the v0 = 0 endpoint.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad, tanhsinh

from .errors import DivergenceError, DomainExceededError
from .registry import Force, Operator

BLOCK_EPSREL = 1e-12
DIVERGENCE_RATIO = 1.0 - 1e-7
MAX_BLOCKS = 48


def integrate_block(g: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of a proper integral with a smooth integrand.

    Roundoff warnings at the aggressive inner tolerance are silenced; the
    ladder's cap-refinement stability checks guard the reported accuracy.
    """
    if a == b:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(g, a, b, epsabs=0.0, epsrel=BLOCK_EPSREL, limit=200)
    return val


def integrate_doubling(g: Callable[[float], float], a: float, b: float) -> float:
    """int_a^b g for 0 < a in doubling blocks [T, min(2T, b)]: an interval
    spanning many decades (a << b) keeps each quad call well-conditioned."""
    total = 0.0
    T = a
    while T < b:
        T_next = min(2.0 * T, b)
        total += integrate_block(g, T, T_next)
        T = T_next
    return total


@dataclass(frozen=True)
class TailEstimate:
    value: float
    converged: bool
    blocks_used: int
    cap: float                 # last block boundary actually integrated
    extrapolated: float        # geometric remainder added beyond the cap
    last_ratio: Optional[float]


def _block_ladder(g, T: float, total: float, step: float,
                  max_blocks: int) -> TailEstimate:
    """Add blocks between T and step*T (step 2 toward inf, 1/2 toward 0+)
    to ``total`` until they are negligible, else extrapolate geometrically
    or flag divergence."""
    blocks: list[float] = []
    ratios: list[float] = []
    for k in range(max_blocks):
        T_next = T * step
        c = integrate_block(g, min(T, T_next), max(T, T_next))
        blocks.append(c)
        if len(blocks) >= 2 and blocks[-2] > 0.0:
            ratios.append(blocks[-1] / blocks[-2])
        total += c
        T = T_next
        if c <= 1e-14 * abs(total):
            return TailEstimate(total, True, k + 1, T, 0.0, ratios[-1] if ratios else None)
    rho = ratios[-1] if ratios else None
    if len(ratios) >= 3 and all(r < DIVERGENCE_RATIO for r in ratios[-3:]):
        tail = blocks[-1] * rho / (1.0 - rho)
        return TailEstimate(total + tail, True, max_blocks, T, tail, rho)
    return TailEstimate(total, False, max_blocks, T, 0.0, rho)


def integrate_to_infinity(g, start: float, *, max_blocks: int = MAX_BLOCKS) -> TailEstimate:
    """int_start^inf g(s) ds by the doubling ladder from T0 = max(2 start,
    start + 1, 10), with [start, T0] in doubling blocks.

    ``converged=False`` flags a divergent tail; the partial value then holds
    the integral up to the cap (useful for diagnostics).
    """
    T0 = max(2.0 * start, start + 1.0, 10.0)
    return _block_ladder(g, T0, integrate_doubling(g, start, T0), 2.0, max_blocks)


def integrate_to_zero(g, end: float, *, max_blocks: int = MAX_BLOCKS) -> TailEstimate:
    """int_0^end g(s) ds by halving blocks [e/2, e]; detects a divergent 0+ end."""
    return _block_ladder(g, end / 2.0, integrate_block(g, end / 2.0, end), 0.5, max_blocks)


# ---------------------------------------------------------------------------
# integrands 1 / B^-1{F(s) - F(v0)}
# ---------------------------------------------------------------------------

def ceiling_crossing(op: Operator, force: Force, shift: float = 0.0) -> Optional[float]:
    """Smallest s with F(s) - shift >= B_sup, or None when B_sup = inf."""
    if math.isinf(op.energy_sup):
        return None
    target = op.energy_sup + shift
    lo, hi = 0.0, 1.0
    while float(np.asarray(force.primitive(hi))) < target:
        lo, hi = hi, hi * 2.0
        if hi > 1e300:
            return None
    from scipy.optimize import brentq
    return brentq(lambda s: float(np.asarray(force.primitive(s))) - target, lo, hi, xtol=1e-14)


def primitive_gap(force: Force, v0: float, gap: float) -> float:
    """F(v0 + gap) - F(v0) without the cancellation that kills accuracy for
    small gaps: a Simpson step of f over [v0, v0 + gap] (exact through cubic
    f, relative error O(gap^4) otherwise).  Callers pass the gap itself so
    sub-ulp-of-v0 gaps stay meaningful."""
    if v0 > 0.0 and 0.0 < gap < 1e-3 * max(v0, 1.0):
        fm = float(np.asarray(force.value(v0 + 0.5 * gap)))
        return gap / 6.0 * (float(np.asarray(force.value(v0)))
                            + 4.0 * fm + float(np.asarray(force.value(v0 + gap))))
    return float(np.asarray(force.primitive(v0 + gap))) - (
        float(np.asarray(force.primitive(v0))) if v0 > 0.0 else 0.0)


def shifted_integrand(op: Operator, force: Force, v0: float) -> Callable[[float], float]:
    """Scalar integrand s -> 1/B^-1{F(s) - F(v0)}, 0 on overflow of F."""
    sup = op.energy_sup
    einv = op.energy_inverse

    def g(s: float) -> float:
        try:
            y = primitive_gap(force, v0, s - v0)
        except OverflowError:
            return 0.0
        if y <= 0.0:
            return math.inf
        if y >= sup:
            raise DomainExceededError(
                f"F({s:g}) - F({v0:g}) = {y:g} reached the energy ceiling B_sup = {sup:g}")
        if math.isinf(y):
            return 0.0
        return 1.0 / float(np.asarray(einv(y)))

    return g


@dataclass(frozen=True)
class HeadSubstitution:
    """s = v0 + u^k, under which int_{v0}^{S} ds / B^-1{F(s) - F(v0)} becomes
    int_0^{u(S)} density(u) du with a density finite at u = 0."""

    v0: float
    k: float
    inv_k: float                        # 1/k, kept in closed form
    density: Callable[[float], float]

    def u_of(self, s: float) -> float:
        return (s - self.v0) ** self.inv_k

    def s_of(self, u: float) -> float:
        return self.v0 + u ** self.k


def head_substitution(op: Operator, force: Force, v0: float) -> Optional[HeadSubstitution]:
    """The power substitution that removes the head singularity, or None.

    p-laplace only, where B^-1(y) = (p y / (p-1))^(1/p), so the integrand
    behaves like (F(s) - F(v0))^(-1/p) near s = v0:

    * v0 > 0: F(s) - F(v0) ~ f(v0)(s - v0), so k = p/(p-1);
    * v0 = 0 with f(t) ~ t^a near 0 (``growth_zero`` = a) and a + 1 < p:
      F(s) ~ s^(a+1), so k = p/(p-1-a).
    """
    if op.kind != "p-laplace":
        return None
    p = op.p
    if v0 > 0.0:
        k, km1, inv_k = p / (p - 1.0), 1.0 / (p - 1.0), (p - 1.0) / p
        fv0 = float(np.asarray(force.value(v0)))
        limit0 = k * ((p - 1.0) / (p * fv0)) ** (1.0 / p)
    elif force.growth_zero is not None and force.growth_zero + 1.0 < p:
        a = force.growth_zero
        k, km1, inv_k = p / (p - 1.0 - a), (1.0 + a) / (p - 1.0 - a), (p - 1.0 - a) / p
        limit0 = 0.0    # F(u^k) = 0 only once u^k underflows
    else:
        return None
    einv = op.energy_inverse

    def density(u: float) -> float:
        y = primitive_gap(force, v0, u ** k)
        if y <= 0.0:
            return limit0
        return k * u ** km1 / float(np.asarray(einv(y)))

    return HeadSubstitution(v0, k, inv_k, density)


def singular_head(op: Operator, force: Force, v0: float, upper: float) -> float:
    """int_{v0}^{upper} ds / B^-1{F(s) - F(v0)} with the singular lower endpoint.

    For p-laplace with v0 > 0 the substitution of :func:`head_substitution`
    removes the (s - v0)^(-1/p) singularity exactly.  Otherwise, the v0 = 0
    head included, tanh-sinh: it stays independent of the substituted
    Newton solve that ``ode1d`` runs on the v0 = 0 head.
    """
    if upper <= v0:
        return 0.0
    sup = op.energy_sup
    if not math.isinf(sup):
        yh = float(np.asarray(force.primitive(upper))) - (float(np.asarray(force.primitive(v0))) if v0 else 0.0)
        if yh >= sup:
            raise DomainExceededError(
                f"F({upper:g}) - F({v0:g}) reaches the energy ceiling B_sup = {sup:g}")

    sub = head_substitution(op, force, v0) if v0 > 0.0 else None
    if sub is not None:
        return integrate_block(sub.density, 0.0, sub.u_of(upper))

    # general operator (or the degenerate v0 = 0 endpoint): tanh-sinh in the
    # gap variable t = s - v0, so nodes arbitrarily close to the singular
    # endpoint keep full precision (s itself would round to the ulp of v0)
    einv = op.energy_inverse

    def vec_integrand(t):
        t = np.asarray(t, dtype=float)
        y = np.array([primitive_gap(force, v0, float(ti)) for ti in t.ravel()]
                     ).reshape(t.shape)
        out = np.empty_like(y)
        pos = y > 0.0
        out[~pos] = 0.0
        out[pos] = 1.0 / np.asarray(einv(y[pos]), dtype=float)
        return out

    res = tanhsinh(vec_integrand, 0.0, upper - v0, rtol=1e-12, atol=0.0)
    return float(res.integral)


def shifted_tail(op: Operator, force: Force, v0: float, start: float,
                 *, max_blocks: int = MAX_BLOCKS) -> TailEstimate:
    """int_start^inf ds / B^-1{F(s) - F(v0)}; raises on a finite ceiling in range."""
    crossing = ceiling_crossing(op, force, float(np.asarray(force.primitive(v0))) if v0 else 0.0)
    if crossing is not None:
        raise DomainExceededError(
            f"F(s) - F({v0:g}) reaches B_sup = {op.energy_sup:g} at s ~ {crossing:.6g}; "
            "the tail integral is not defined for this operator")
    return integrate_to_infinity(shifted_integrand(op, force, v0), start, max_blocks=max_blocks)


def require_converged(est: TailEstimate, what: str) -> float:
    if not est.converged:
        raise DivergenceError(
            f"{what} diverges: block ratio {est.last_ratio} after {est.blocks_used} doublings "
            f"(cap {est.cap:.3g})")
    return est.value
