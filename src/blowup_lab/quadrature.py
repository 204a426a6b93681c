"""Shared quadrature kernel for the blow-up functionals.

Improper integrals of the shape int 1/B^-1{F(s) - F(v0)} ds appear
throughout: over [r, inf) for the Keller-Osserman tail, over (0, r] for the
Osgood/dead-core side, and with an integrable algebraic singularity at the
lower endpoint s = v0.  Strategy:

* proper blocks: :func:`integrate_block`, adaptive Gauss-Kronrod (G10/K21)
  in numpy over arrays of blocks, with array integrands.
* infinite tails: doubling blocks [T, 2T] until the remainder is negligible
  or the block ratio has stabilized, then a geometric extrapolation of the
  remainder, exact for power-law tails (~1e-12 relative even one part in 1e6
  from the convergence frontier).  The ladders of many lower limits advance
  together: each kernel call takes BLOCK_CHUNK blocks of every one running.
* divergence: declared when the last three block ratios are all >= 1 - 1e-7.
  A logarithmically divergent tail gives ratios == 1, while the closest
  convergent cases of interest give ratios below 1 - 3e-7, so the rule
  separates them with two decades of margin.
* the 0+ endpoint: the same ladder with halving blocks [e/2, e].
* the s = v0 endpoint: exact removal by the substitution s = v0 + u^k, with
  k keyed on the order r of B(x) ~ c x^r at 0 (k = r/(r-1) for v0 > 0,
  r/(r-1-a) at the dead-core endpoint v0 = 0), for every operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import DivergenceError, DomainExceededError, ProfileDomainError
from .registry import Force, Operator

BLOCK_EPSREL = 1e-12
DIVERGENCE_RATIO = 1.0 - 1e-7
MAX_BLOCKS = 48
MAX_INTERVALS = 200     # subintervals per block, as quad's ``limit``
BLOCK_CHUNK = 16        # ladder or branch-table blocks per kernel call

# Gauss-Kronrod 10/21 pair on [-1, 1] (QUADPACK qk21): the Kronrod abscissae
# in [0, 1), every second one a 10-point Gauss node, with both weight sets
_XGK = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0])
_WGK = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.array([
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
    0.29552422471475287])
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_W_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W_GAUSS = np.zeros(21)
_W_GAUSS[1:10:2] = _WG
_W_GAUSS[19:10:-2] = _WG
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _gk21(g, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 value and QUADPACK's error estimate on each interval [lo, hi], by
    row sums, not matrix products, so that no row depends on the others."""
    half = 0.5 * (hi - lo)
    fx = g(0.5 * (lo + hi)[:, None] + half[:, None] * _NODES)
    resk = (fx * _W_KRONROD).sum(axis=1)
    scale = np.abs(half)
    resasc = (np.abs(fx - 0.5 * resk[:, None]) * _W_KRONROD).sum(axis=1) * scale
    err = np.abs((resk - (fx * _W_GAUSS).sum(axis=1)) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0.0) & (err != 0.0),
                       resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    return resk * half, np.maximum(err, _ROUNDOFF * (np.abs(fx) * _W_KRONROD).sum(axis=1) * scale)


def integrate_block(g: Callable, a, b):
    """int_a^b g of an array integrand, for float bounds or arrays of them.

    Adaptive G10/K21 over all blocks at once: each pass bisects, in every
    block whose summed error estimate exceeds BLOCK_EPSREL * |value|, the
    subintervals holding more than their length's share of that tolerance.
    A block stops once converged, at MAX_INTERVALS subintervals, or when no
    subinterval can be bisected.  Blocks never share subintervals, so a
    block's value does not depend on the others in the call.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    n = a.size
    owner = np.flatnonzero(a != b)
    lo, hi = a.ravel()[owner], b.ravel()[owner]
    width = np.abs(b - a).ravel()
    val, err = _gk21(g, lo, hi) if owner.size else (lo, lo)
    result = np.zeros(n)
    while owner.size:
        tol = BLOCK_EPSREL * np.abs(np.bincount(owner, val, n))
        mid = 0.5 * (lo + hi)
        split = ((err > tol[owner] * np.abs(hi - lo) / width[owner])
                 & (lo != mid) & (mid != hi))
        active = ((np.bincount(owner, err, n) > tol)
                  & (np.bincount(owner, minlength=n) < MAX_INTERVALS)
                  & (np.bincount(owner, split, n) > 0))[owner]
        result += np.bincount(owner[~active], val[~active], n)
        split &= active
        if not split.any():
            break
        stay = active & ~split
        new_lo = np.concatenate((lo[split], mid[split]))
        new_hi = np.concatenate((mid[split], hi[split]))
        new_val, new_err = _gk21(g, new_lo, new_hi)
        owner = np.concatenate((owner[stay], owner[split], owner[split]))
        lo, hi = np.concatenate((lo[stay], new_lo)), np.concatenate((hi[stay], new_hi))
        val, err = np.concatenate((val[stay], new_val)), np.concatenate((err[stay], new_err))
    return result.reshape(a.shape) if a.ndim else float(result[0])


@dataclass(frozen=True)
class TailEstimate:
    value: float
    converged: bool
    blocks_used: int
    cap: float                 # last block boundary actually integrated
    extrapolated: float        # geometric remainder added beyond the cap
    last_ratio: Optional[float]
    cut: Optional[float] = None     # s where the integrand read 0 (F overflowed) mid-tail


def _block_ladders(g, heads: list, step: float, max_blocks: int) -> list[TailEstimate]:
    """Per knot list in ``heads``: its blocks, then blocks between T and step*T
    (step 2 toward inf, 1/2 toward 0+) from its last knot until negligible,
    else a geometric extrapolation or a divergence flag; a block reading 0
    mid-tail marks the ladder ``cut`` (not converged).  One kernel call takes
    all heads, then each the next BLOCK_CHUNK blocks of every ladder still
    running, read row by row; rows are independent, so no ladder sees another."""
    lo, hi = [a for k in heads for a in k[:-1]], [b for k in heads for b in k[1:]]
    head = iter(integrate_block(g, *((lo, hi) if step > 1.0 else (hi, lo))).tolist())
    total = [sum(next(head) for _ in k[1:]) for k in heads]
    T, blocks, cut = [k[-1] for k in heads], [[] for _ in heads], [None] * len(heads)
    live, used = list(range(len(heads))), 0
    while live and used < max_blocks:
        n = min(BLOCK_CHUNK, max_blocks - used)
        used += n
        # exact: step is a power of two
        edges = np.multiply.outer([T[i] for i in live], step ** np.arange(n + 1.0))
        lo, hi = (edges[:, :-1], edges[:, 1:])[::1 if step > 1.0 else -1]
        chunk = integrate_block(g, lo, hi)
        running = []
        for i, row, ends in zip(live, chunk.tolist(), edges[:, 1:].tolist()):
            b, acc = blocks[i], total[i]
            for c, t in zip(row, ends):
                b.append(c)
                acc += c
                if c <= 1e-14 * abs(acc):
                    # 0 right after a block above this share (as every earlier
                    # block is): g reads 0 where F overflowed, not a decayed tail
                    if c == 0.0 and len(b) > 1:
                        cut[i] = t / step
                    break
            else:
                running.append(i)
            total[i], T[i] = acc, t
        live = running
    out = []
    for i, b in enumerate(blocks):      # ladders still live ran out of blocks
        rs = [c / prev for prev, c in zip(b, b[1:]) if prev > 0.0]
        rho = rs[-1] if rs else None
        geometric = i in live and len(rs) >= 3 and all(r < DIVERGENCE_RATIO for r in rs[-3:])
        tail = b[-1] * rho / (1.0 - rho) if geometric else 0.0
        out.append(TailEstimate(total[i] + tail, geometric or i not in live and cut[i] is None,
                                len(b), T[i], tail, rho, cut[i]))
    return out


def _doubling_head(start: float) -> list[float]:
    """Knots doubling from start to T0 = max(2 start, start + 1, 10): well-conditioned blocks."""
    knots, T0 = [start], max(2.0 * start, start + 1.0, 10.0)
    while knots[-1] < T0:
        knots.append(min(2.0 * knots[-1], T0))
    return knots


def integrate_to_infinity(g, start: float, *, max_blocks: int = MAX_BLOCKS) -> TailEstimate:
    """int_start^inf g(s) ds: the blocks of :func:`_doubling_head`, then the
    doubling ladder from T0; ``converged=False`` flags a divergent tail, whose
    partial value holds the integral up to the cap (useful for diagnostics)."""
    return _block_ladders(g, [_doubling_head(start)], 2.0, max_blocks)[0]


def integrate_to_zero(g, end: float, *, max_blocks: int = MAX_BLOCKS) -> TailEstimate:
    """int_0^end g(s) ds by halving blocks [e/2, e]; detects a divergent 0+ end."""
    return _block_ladders(g, [[end, end / 2.0]], 0.5, max_blocks)[0]


# ---------------------------------------------------------------------------
# integrands 1 / B^-1{F(s) - F(v0)}
# ---------------------------------------------------------------------------

def ceiling_crossing(op: Operator, force: Force, shift: float = 0.0) -> Optional[float]:
    """Smallest s with F(s) - shift >= B_sup, or None when B_sup = inf."""
    if math.isinf(op.energy_sup):
        return None
    target = op.energy_sup + shift
    lo, hi = 0.0, 1.0
    while force.primitive(hi) < target:
        lo, hi = hi, hi * 2.0
        if hi > 1e300:
            return None
    return brentq(lambda s: force.primitive(s) - target, lo, hi, xtol=1e-14)


def primitive_gap(force: Force, v0: float, gap):
    """F(v0 + gap) - F(v0), elementwise, without the cancellation that kills
    accuracy for gaps below 1e-3 v0: there a Simpson step of f over [v0, v0 +
    gap] (exact through cubic f, relative error O((gap/v0)^4) otherwise for
    f ~ t^q).  Callers pass the gap itself so sub-ulp-of-v0 gaps stay
    meaningful.  A float for scalar input."""
    t = np.atleast_1d(np.asarray(gap, dtype=float))
    y = force.primitive(v0 + t) - force.primitive(v0)       # F(0) = 0 exactly
    near = (0.0 < t) & (t < 1e-3 * v0)
    if near.any():
        t = t[near]
        y[near] = t / 6.0 * (force.value(v0) + 4.0 * force.value(v0 + 0.5 * t) + force.value(v0 + t))
    return y if np.ndim(gap) else float(y[0])


def shifted_integrand(op: Operator, force: Force, v0: float) -> Callable:
    """Array integrand s -> 1/B^-1{F(s) - F(v0)} (a float for scalar s): 0
    where F overflows and inf where F(s) <= F(v0).  Callers keep s below a
    finite energy ceiling (:func:`ceiling_crossing`); past it B^-1 raises."""
    einv = op.energy_inverse

    def g(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.atleast_1d(primitive_gap(force, v0, s - v0))
            out = np.where(y <= 0.0, math.inf, 0.0)     # 0 where F overflowed
            pos = np.isfinite(y) & (y > 0.0)
            out[pos] = 1.0 / einv(y[pos])
        return out if s.ndim else float(out[0])

    return g


@dataclass(frozen=True)
class HeadSubstitution:
    """s = v0 + u^k, under which int_{v0}^{S} ds / B^-1{F(s) - F(v0)} becomes
    int_0^{u(S)} density(u) du with an array density finite at u = 0."""

    v0: float
    k: float
    inv_k: float                        # 1/k, kept in closed form
    density: Callable

    def u_of(self, s: float) -> float:
        return (s - self.v0) ** self.inv_k

    def s_of(self, u):
        """v0 + u^k elementwise (a float for scalar u), by Python's pow: for
        about 5 % of inputs numpy's power differs from it in the last ulp."""
        s = np.array([self.v0 + w ** self.k for w in np.atleast_1d(u).tolist()])
        return s if np.ndim(u) else float(s[0])


def head_substitution(op: Operator, force: Force, v0: float) -> HeadSubstitution:
    """The power substitution that removes the head singularity, keyed on
    B(x) ~ c x^r at 0 (``op.order_zero``, ``op.coef_zero``): the integrand
    behaves like (F(s) - F(v0))^(-1/r) near s = v0, so

    * v0 > 0: F(s) - F(v0) ~ f(v0)(s - v0) and k = r/(r-1); raises
      :class:`ProfileDomainError` when f(v0) underflows to 0;
    * v0 = 0 with f(t) ~ t^a near 0 (``growth_zero`` = a): F(s) ~ s^(a+1) and
      k = r/(r-1-a); raises :class:`DivergenceError` (Osgood) when a + 1 >= r.
    """
    r, a = op.order_zero, force.growth_zero
    if v0 > 0.0:
        fv0 = force.value(v0)
        if not fv0 > 0.0:
            raise ProfileDomainError(f"f(v0) = 0 at v0 = {v0:g} (underflow): no head to integrate")
        k, km1, inv_k = r / (r - 1.0), 1.0 / (r - 1.0), (r - 1.0) / r
        limit0 = k * (op.coef_zero / fv0) ** (1.0 / r)
    elif a + 1.0 < r:
        k, km1, inv_k = r / (r - 1.0 - a), (1.0 + a) / (r - 1.0 - a), (r - 1.0 - a) / r
        limit0 = 0.0    # F(u^k) = 0 only once u^k underflows
    else:
        raise DivergenceError(f"the 0+ head diverges (Osgood): f ~ t^{a:g}, B ~ x^{r:g} at 0")
    einv = op.energy_inverse

    def density(u):
        u = np.asarray(u, dtype=float)
        ua = np.atleast_1d(u)
        y = primitive_gap(force, v0, ua ** k)
        out = np.full_like(y, limit0)
        pos = y > 0.0
        out[pos] = k * ua[pos] ** km1 / einv(y[pos])
        return out if u.ndim else float(out[0])

    return HeadSubstitution(v0, k, inv_k, density)


def singular_head(op: Operator, force: Force, v0: float, upper: float) -> float:
    """int_{v0}^{upper} ds / B^-1{F(s) - F(v0)} with the singular lower endpoint,
    as ``integrate_block`` over the density of :func:`head_substitution`."""
    if upper <= v0:
        return 0.0
    sup = op.energy_sup
    if sup < math.inf and force.primitive(upper) - force.primitive(v0) >= sup:
        raise DomainExceededError(
            f"F({upper:g}) - F({v0:g}) reaches the energy ceiling B_sup = {sup:g}")
    sub = head_substitution(op, force, v0)
    return integrate_block(sub.density, 0.0, sub.u_of(upper))


def shifted_tail(op: Operator, force: Force, v0: float, start):
    """int_start^inf ds / B^-1{F(s) - F(v0)}, one ladder per element of an
    array of starts (a list); raises on a finite ceiling in range."""
    crossing = ceiling_crossing(op, force, force.primitive(v0))
    if crossing is not None:
        raise DomainExceededError(
            f"F(s) - F({v0:g}) reaches B_sup = {op.energy_sup:g} at s ~ {crossing:.6g}; "
            "the tail integral is not defined for this operator")
    g = shifted_integrand(op, force, v0)
    if np.asarray(start).ndim:
        return _block_ladders(g, [_doubling_head(s) for s in np.ravel(start)], 2.0, MAX_BLOCKS)
    return integrate_to_infinity(g, start)


def require_converged(est: TailEstimate, what: str) -> float:
    if est.cut is not None:
        raise DomainExceededError(f"{what}: F overflows by s ~ {est.cut:.3g}, "
                                  "before the tail decays")
    if not est.converged:
        raise DivergenceError(
            f"{what} diverges: block ratio {est.last_ratio} after {est.blocks_used} doublings "
            f"(cap {est.cap:.3g})")
    return est.value
