"""Blow-up functionals and growth-condition classification.

Psi(r) = int_r^inf ds / B^-1{F(s)} is the distance-to-blow-up functional:
its convergence for every r > 0 is the Keller-Osserman condition.  The
behaviour of the same integrand at 0+ separates the Osgood regime
(divergent, solutions cannot leave zero data) from the dead-core regime
(convergent, with a finite total length L = int_0^inf).  :func:`phi` is
the inverse of :func:`psi` and gives the universal boundary blow-up rate
Phi(d) at distance d; it is cached per (operator, force, d), so every caller
shares one inversion.  :func:`increasing_root` is the one log-scale root
finder behind Phi and every other monotone inversion of the lab, and
:func:`power_law_root` the one start of those that follow a power law.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from . import quadrature as qk
from .errors import BracketError, DivergenceError, DomainExceededError
from .registry import Force, Operator


def psi(op: Operator, force: Force, r):
    """Tail integral int_r^inf ds / B^-1{F(s)}, elementwise (a float for
    scalar r).  Measured against the closed forms for f = t^3 at 91 r in
    [1e-3, 1e6]: 9.3e-15 relative at p = 2 and 1.3e-15 at p = 3.

    Raises :class:`DivergenceError` when the tail does not decay (the
    Keller-Osserman condition fails) and :class:`DomainExceededError` when a
    finite energy ceiling is reached inside the range.
    """
    ra = np.asarray(r, dtype=float)
    if not all(x > 0.0 for x in ra.flat):
        raise ValueError("psi needs r > 0")
    est = qk.shifted_tail(op, force, 0.0, r)
    if not ra.ndim:
        return qk.require_converged(est, f"Psi({r:g})")
    return np.reshape([qk.require_converged(e, f"Psi({x:g})") for e, x in zip(est, ra.flat)],
                      ra.shape)


def length_scale(op: Operator, force: Force, max_blocks: int = qk.MAX_BLOCKS) -> float:
    """L = int_0^inf ds / B^-1{F(s)} as :func:`classify` measures it; finite
    only in the dead-core regime.  Raises :class:`DomainExceededError` at a
    finite energy ceiling and :class:`DivergenceError` when either end diverges."""
    report = classify(op, force) if max_blocks == qk.MAX_BLOCKS else classify(op, force, max_blocks)
    if report.L is not None:
        return report.L
    if report.ko_holds is None:
        raise DomainExceededError(report.diagnostics["domain_exceeded"])
    end = "0+ end (Osgood)" if report.osgood_holds else "tail (KO fails)"
    raise DivergenceError(f"L = int_0^inf ds/B^-1{{F}} diverges at its {end}")


@dataclass(frozen=True)
class KOReport:
    """Classification of the growth conditions for one (operator, force) pair.

    ``ko_holds`` is None when the tail is undecidable at a finite energy
    ceiling B_sup; the diagnostics then carry the crossing location.  The
    cached report is shared: never mutate ``diagnostics`` (``to_dict`` copies).
    """

    ko_holds: Optional[bool]
    osgood_holds: Optional[bool]
    a3_holds: Optional[bool]
    L: Optional[float]
    frontier: Optional[str]
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _frontier_note(op: Operator, force: Force) -> Optional[str]:
    if op.kind != "p-laplace":
        return None
    p = op.p
    parts = []
    if force.growth_inf is not None:
        e = (force.growth_inf + 1.0) / p
        verdict = "convergent (KO holds)" if e > 1.0 else "divergent (KO fails)"
        parts.append(f"tail exponent (q_inf+1)/p = {e:.6g} vs 1 -> {verdict}")
    e0 = (force.growth_zero + 1.0) / p
    verdict = "divergent (Osgood)" if e0 >= 1.0 else "convergent (dead-core side)"
    parts.append(f"zero exponent (q_0+1)/p = {e0:.6g} vs 1 -> {verdict}")
    return "; ".join(parts)


@lru_cache(maxsize=32)
def classify(op: Operator, force: Force, max_blocks: int = qk.MAX_BLOCKS) -> KOReport:
    """Classify KO / Osgood / dead-core by quadrature, cached; each ladder is at
    most ``max_blocks`` blocks long (passed only off the default, which the cache
    keys apart).  Never decides past a finite energy ceiling (reports the crossing)."""
    diagnostics: dict = {}
    crossing = qk.ceiling_crossing(op, force)
    g = qk.shifted_integrand(op, force, 0.0)

    ko: Optional[bool]
    if crossing is not None:
        ko = None
        diagnostics["domain_exceeded"] = (
            f"F(s) reaches B_sup = {op.energy_sup:g} at s ~ {crossing:.6g}; "
            "the tail condition is undecidable for this operator")
        diagnostics["ceiling_crossing"] = crossing
    else:   # F stays below B_sup, so the integrand cannot raise a domain error
        est = qk.integrate_to_infinity(g, 1.0, max_blocks=max_blocks)
        ko = est.converged if est.cut is None else None
        if ko is None:
            diagnostics["domain_exceeded"] = (f"F overflows by s ~ {est.cut:.3g}, before the "
                                              "tail decays; the tail condition is undecidable")
        elif ko:
            diagnostics["psi_at_1"] = est.value
            diagnostics["tail_cap"] = est.cap
        else:
            diagnostics["tail_last_ratio"] = est.last_ratio

    # 0+ side; only needs F below the ceiling on (0, s_hi]
    s_hi = 1.0 if crossing is None else min(1.0, 0.5 * crossing)
    zero_est = qk.integrate_to_zero(g, s_hi, max_blocks=max_blocks)
    if zero_est.converged:
        osgood, a3 = False, True
        diagnostics["zero_integral"] = zero_est.value
    else:
        osgood, a3 = True, False
        diagnostics["zero_last_ratio"] = zero_est.last_ratio

    L: Optional[float] = None
    if a3 and ko:   # ko is decided only without a ceiling, where s_hi = 1
        L = zero_est.value + est.value
        diagnostics["zero_blocks"] = zero_est.blocks_used

    return KOReport(ko, osgood, a3, L, _frontier_note(op, force), diagnostics)


# ---------------------------------------------------------------------------
# monotone inversion on a log scale, and the blow-up rate Phi = Psi^-1
# ---------------------------------------------------------------------------

# |log Psi| or |log ell| misfit that ends the inversions of Psi and ell(v0):
# 1e-13 / kappa in t, inside brentq's xtol 1e-12 for kappa >= 0.1
LOG_FTOL = 1e-13


class _Hit(Exception):
    """A point landed within the function tolerance; carries its t."""


def increasing_root(g, limit: float, ftol: float, name: str, goal: str, start=0.0) -> float:
    """t with g(t) = 0 for g increasing in t, |t| <= limit.

    t is the log of the sought argument, where power laws are straight lines.
    From t = start the search steps by log 4 toward the sign change, then brentq
    (xtol 1e-12) runs on the last step.  Every t is evaluated once, so the
    bracket ends cost nothing twice; a point with |g| <= ftol ends the
    search.  Raises :class:`BracketError` when no sign change lies within
    the limit.
    """
    seen: dict = {}

    def shot(t: float) -> float:
        if t not in seen:
            seen[t] = g(t)
            if abs(seen[t]) <= ftol:
                raise _Hit(t)
        return seen[t]

    try:
        step = math.log(4.0) if shot(start) < 0.0 else -math.log(4.0)
        a = start
        while abs(a + step) <= limit and shot(a + step) * seen[a] > 0.0:
            a += step
        if abs(a + step) > limit:
            raise BracketError(f"no {name} in [{math.exp(-limit):g}, "
                               f"{math.exp(limit):g}] {goal}")
        return brentq(shot, min(a, a + step), max(a, a + step), xtol=1e-12)
    except _Hit as hit:
        return hit.args[0]


def power_law_root(op: Operator, force: Force, g, limit: float) -> float:
    """Start of a log-scale inversion g(t) = 0, t = log x, of Psi(x), ell(x) or
    R(x): each ~ x^-kappa for f ~ t^q, kappa = (q - r + 1)/r with r =
    ``op.order_zero``, so g(t) = g(0) + kappa t and the root -g(0)/kappa is
    returned, clamped to |t| <= limit; 0.0, g unevaluated, without ``growth_inf``."""
    if force.growth_inf is None:
        return 0.0
    kappa = (force.growth_inf - op.order_zero + 1.0) / op.order_zero
    return min(max(-g(0.0) / kappa, -limit), limit)


@lru_cache(maxsize=64)      # a cylinder family asks once per mesh width h
def phi(op: Operator, force: Force, d: float) -> float:
    """Phi(d) = Psi^-1(d): r with Psi(r) = d, by :func:`increasing_root` on
    t = log r to LOG_FTOL in log Psi, from :func:`power_law_root` (2 Psi calls
    for f = t^q).  Raises :class:`BracketError` when r would leave [1e-14,
    1e14], as for d >= L in the dead-core regime, or Psi reads 0 on the way,
    and like :func:`psi` otherwise."""
    if not d > 0.0:
        raise ValueError("phi needs d > 0")
    log_d, limit = math.log(d), math.log(1e14)

    def g(t: float) -> float:
        if (value := psi(op, force, math.exp(t))) == 0.0:
            raise BracketError(f"Psi({math.exp(t):g}) reads 0: F overflows")
        return log_d - math.log(value)

    return math.exp(increasing_root(g, limit, LOG_FTOL, "r", f"has Psi(r) = {d:g}",
                                    power_law_root(op, force, g, limit)))


# ---------------------------------------------------------------------------
# asymptotic-uniqueness ratio check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class A5Report:
    """Sampled infimum of Psi(beta*t)/Psi(t) per beta on a log grid in t.

    A limit statement is not finitely checkable: ``likely_holds`` only means
    the sampled infimum stayed above 1 + margin on the grid tail.
    """

    betas: tuple
    infima: tuple
    margins: tuple
    likely_holds: bool
    t_grid: tuple
    ratios: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("betas", "infima", "margins", "likely_holds")}


A5_T_GRID = np.logspace(2.0, 6.0, 17)  # t in [1e2, 1e6]
A5_MARGIN = 1e-3                        # likely_holds needs every margin above this


def check_a5(force: Force, op: Operator, betas: Sequence[float]) -> A5Report:
    """Evaluate Psi(beta*t)/Psi(t) on A5_T_GRID, where Psi(t) > 0, and report running infima."""
    for b in betas:
        if not 0.0 < b < 1.0:
            raise ValueError(f"beta must lie in (0,1), got {b}")
    table = psi(op, force, np.outer([1.0, *betas], A5_T_GRID))     # rows t, then beta t per beta
    keep = table[0] > 0.0
    ts = A5_T_GRID[keep].tolist()
    if not ts:
        raise DomainExceededError(f"Psi(t) reads 0 from t = {A5_T_GRID[0]:g}: F(t) overflows")
    infima, margins, ratios = [], [], {}
    for b, row in zip(betas, table[1:]):
        ratios[b] = rs = (row[keep] / table[0][keep]).tolist()
        inf_tail = min(rs[len(rs) // 2:])   # sampled infimum on the grid tail
        infima.append(min(rs))
        margins.append(inf_tail - 1.0)
    likely = all(m > A5_MARGIN for m in margins)
    return A5Report(tuple(float(b) for b in betas), tuple(infima), tuple(margins),
                    likely, tuple(ts), ratios)
