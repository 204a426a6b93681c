"""Blow-up functionals and growth-condition classification.

Psi(r) = int_r^inf ds / B^-1{F(s)} is the distance-to-blow-up functional:
its convergence for every r > 0 is the Keller-Osserman condition.  The
behaviour of the same integrand at 0+ separates the Osgood regime
(divergent, solutions cannot leave zero data) from the dead-core regime
(convergent, with a finite total length L = int_0^inf).  Phi is the inverse
of Psi and gives the universal boundary blow-up rate Phi(d) at distance d.
:func:`increasing_root` is the one log-scale root finder behind Phi and every
other monotone inversion of the lab.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from . import quadrature as qk
from .errors import BracketError, DivergenceError, DomainExceededError
from .registry import Force, Operator


def psi(op: Operator, force: Force, r: float) -> float:
    """Tail integral int_r^inf ds / B^-1{F(s)} to ~1e-9 relative.

    Raises :class:`DivergenceError` when the tail does not decay (the
    Keller-Osserman condition fails) and :class:`DomainExceededError` when a
    finite energy ceiling is reached inside the range.
    """
    if not r > 0.0:
        raise ValueError("psi needs r > 0")
    est = qk.shifted_tail(op, force, 0.0, r)
    return qk.require_converged(est, f"Psi({r:g})")


def length_scale(op: Operator, force: Force, max_blocks: int = qk.MAX_BLOCKS) -> float:
    """L = int_0^inf ds / B^-1{F(s)}; finite only in the dead-core regime."""
    crossing = qk.ceiling_crossing(op, force)
    if crossing is not None:
        raise DomainExceededError(
            f"F reaches B_sup = {op.energy_sup:g} at s ~ {crossing:.6g}")
    g = qk.shifted_integrand(op, force, 0.0)
    low = qk.require_converged(qk.integrate_to_zero(g, 1.0, max_blocks=max_blocks),
                               "int_0^1 ds/B^-1{F}")
    high = qk.require_converged(qk.integrate_to_infinity(g, 1.0, max_blocks=max_blocks),
                                "Psi(1)")
    return low + high


@dataclass(frozen=True)
class KOReport:
    """Classification of the growth conditions for one (operator, force) pair.

    ``ko_holds`` / ``osgood_holds`` / ``a3_holds`` are None when the check is
    undecidable because the operator's energy ceiling is reached (finite
    B_sup); the diagnostics then carry the crossing location.
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


def classify(op: Operator, force: Force) -> KOReport:
    """Classify KO / Osgood / dead-core by quadrature; never decides past a
    finite energy ceiling (reports the crossing instead)."""
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
        est = qk.integrate_to_infinity(g, 1.0)
        ko = est.converged
        if ko:
            diagnostics["psi_at_1"] = est.value
            diagnostics["tail_cap"] = est.cap
        else:
            diagnostics["tail_last_ratio"] = est.last_ratio

    # 0+ side; only needs F below the ceiling on (0, s_hi]
    s_hi = 1.0 if crossing is None else min(1.0, 0.5 * crossing)
    zero_est = qk.integrate_to_zero(g, s_hi)
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


@dataclass
class BlowupRateFn:
    """Psi and its monotone inverse Phi, for d in [Psi(1e14), Psi(1e-14)]."""

    op: Operator
    force: Force

    def psi(self, r: float) -> float:
        return psi(self.op, self.force, r)

    def phi(self, d: float) -> float:
        """r with Psi(r) = d, by :func:`increasing_root` on t = log r, from the
        log-log secant through Psi(1) and Psi(e) when f grows like a power (log
        Psi is then linear in t), else from t = 0.  Raises :class:`BracketError`
        when r would leave [1e-14, 1e14], as for d >= L in the dead-core regime."""
        if not d > 0.0:
            raise ValueError("phi needs d > 0")
        log_d, limit = math.log(d), math.log(1e14)
        start = 0.0
        if self.force.growth_inf is not None:
            at_1 = math.log(self.psi(1.0))
            start = min(max((log_d - at_1) / (math.log(self.psi(math.e)) - at_1), -limit), limit)
        return math.exp(increasing_root(
            lambda t: log_d - math.log(self.psi(math.exp(t))), limit, 0.0,
            "r", f"has Psi(r) = {d:g}", start))


def phi(rate: BlowupRateFn, d: float) -> float:
    return rate.phi(d)


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


def check_a5(force: Force, op: Operator, betas: Sequence[float],
             t_lo: float = 1e2, t_hi: float = 1e6, n_t: int = 17,
             margin: float = 1e-3) -> A5Report:
    """Evaluate Psi(beta*t)/Psi(t) on a log grid, where Psi(t) > 0, and report running infima."""
    for b in betas:
        if not 0.0 < b < 1.0:
            raise ValueError(f"beta must lie in (0,1), got {b}")
    ts = np.logspace(math.log10(t_lo), math.log10(t_hi), n_t)
    psi_t = {float(t): psi(op, force, float(t)) for t in ts}
    ts = [t for t, v in psi_t.items() if v > 0.0]
    if not ts:
        raise DomainExceededError(f"Psi(t) reads 0 from t = {t_lo:g}: F(t) overflows")
    infima, margins, ratios = [], [], {}
    for b in betas:
        rs = [psi(op, force, b * t) / psi_t[t] for t in ts]
        ratios[b] = rs
        inf_tail = min(rs[len(rs) // 2:])   # sampled infimum on the grid tail
        infima.append(min(rs))
        margins.append(inf_tail - 1.0)
    likely = all(m > margin for m in margins)
    return A5Report(tuple(float(b) for b in betas), tuple(infima), tuple(margins),
                    likely, tuple(ts), ratios)
