"""One-dimensional large solutions via the implicit integral relation.

The even solution of (A(v'))' = f(v) on (-ell, ell) with v -> inf at both
ends and minimum v0 = v(0) satisfies

    int_{v0}^{v(x)} ds / B^-1{F(s) - F(v0)} = |x|,

and the blow-up half-length is ell(v0) = int_{v0}^inf of the same integrand.
This module evaluates profiles by one safeguarded Newton iteration on the
implicit relation, batched over every sample point and bracketed by a
cumulative table of that integral, maps ell <-> v0, and builds dead-core
profiles (v0 = 0, flat zero core of half-width ell - L) when the 0+ integral
converges; :func:`large_solution` alone picks between the two.  Every value
v(x), sampled for export or read at given points, comes from :meth:`Profile1D.value`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import cubature, tanhsinh

from . import ko as ko_mod
from . import quadrature as qk
from .artifacts import write_csv, write_json
from .errors import DivergenceError, ProfileDomainError, SolverError
from .registry import Force, Operator

_V_LIMIT = 1e280
_NEWTON_RTOL = 1e-14       # stop once a Newton step is below this * |iterate|
_NEWTON_MAX_STEPS = 100    # bisection from a full bracket needs about 50
_CORE_RTOL = 1e-12         # ell >= L (1 - _CORE_RTOL) is a dead core
N_BODY = 161               # uniform profile samples on [0, 0.95 ell)
N_EDGE = 40                # geometric profile samples toward ell


def ell_of_v0(op: Operator, force: Force, v0: float) -> float:
    """Blow-up half-length ell(v0) = int_{v0}^inf ds / B^-1{F(s) - F(v0)}.

    Raises :class:`DivergenceError` when the Keller-Osserman tail fails and
    :class:`DomainExceededError` for operators with a finite energy ceiling.
    """
    if not v0 > 0.0:
        raise ValueError("ell_of_v0 needs v0 > 0")
    return _head_and_total(op, force, v0)[2]


@lru_cache(maxsize=64)
def _head_and_total(op: Operator, force: Force, v0: float) -> tuple[float, float, float]:
    """(h0, head, head + tail) of int_{v0}^inf ds / B^-1{F(s) - F(v0)}, split
    at v0 + h0 with h0 = max(v0, 1)/2; raises like :func:`ell_of_v0`.  Cached
    like :func:`_branch`, which reuses the evaluation at the root of
    :func:`v0_of_ell`."""
    h0 = 0.5 * max(v0, 1.0)
    head = qk.singular_head(op, force, v0, v0 + h0)
    tail = qk.require_converged(qk.shifted_tail(op, force, v0, v0 + h0),
                                f"the blow-up integral from {v0:g}: tail")
    return h0, head, head + tail


def _invert_integral(h, a, b, target, z):
    """z in [a, b] with int_a^z h = target, for h > 0 and the root in [a, b],
    elementwise over arrays of (a, b, target, start z).

    Safeguarded Newton from the start z: each step
    z += (target - int_a^z h) / h(z) advances the integral by one quadrature
    from the old iterate to the new one; a step that leaves the bracket
    bisects it instead.  A point leaves the batch once its step is below
    _NEWTON_RTOL * |z| (a zero step included), never on the bracket width.
    Each step is one h(z) and one ``integrate_block`` call over the points
    left; their rows are independent, so no point depends on the others.
    Raises :class:`SolverError` when points still move after
    _NEWTON_MAX_STEPS steps.
    """
    a, b, target, z = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b, target, z))
    out, live = z.copy(), np.arange(z.size)
    acc = qk.integrate_block(h, a, z)
    for _ in range(_NEWTON_MAX_STEPS):
        r = target - acc
        moving = r != 0.0
        out[live[~moving]] = z[~moving]
        live, a, b, target, z, r, acc = (v[moving] for v in (live, a, b, target, z, r, acc))
        a, b = np.where(r > 0.0, z, a), np.where(r > 0.0, b, z)
        d = h(z)
        with np.errstate(divide="ignore", over="ignore"):
            z_new = np.where(d > 0.0, z + r / d, math.nan)   # h = 0 past overflow: bisect
        z_new = np.where((a <= z_new) & (z_new <= b), z_new, 0.5 * (a + b))
        moving = ~(np.abs(z_new - z) <= _NEWTON_RTOL * np.abs(z))
        out[live[~moving]] = z_new[~moving]
        live, a, b, target, z, z_new, acc = (v[moving] for v in (live, a, b, target, z, z_new, acc))
        if not live.size:
            return out
        acc = acc + qk.integrate_block(h, z, z_new)
        z = z_new
    raise SolverError(f"the implicit relation left {live.size} point(s) unconverged "
                      f"after {_NEWTON_MAX_STEPS} Newton steps")


class _ImplicitBranch:
    """Monotone inverse of I(V) = int_{v0}^V ds / B^-1{F(s) - F(v0)}.

    A cumulative table at half-doubling knots V_j brackets V for given
    x = I(V), and safeguarded Newton on the implicit relation, with
    dI/dV = 1/B^-1{F(V) - F(v0)}, solves inside the bracket.  The head
    [v0, v0 + h0] is solved in the variable u of
    :func:`quadrature.head_substitution`, whose density is finite at u = 0,
    for every operator.  ``upper_value`` has one array body: all head points
    are one Newton batch in u, all others one batch in V.  The table extends
    itself on demand toward the blow-up value of x (= ell(v0) for v0 > 0,
    = L for v0 = 0).
    """

    def __init__(self, op: Operator, force: Force, v0: float):
        self.op, self.force, self.v0 = op, force, v0
        self._g = qk.shifted_integrand(op, force, v0)
        self._sub = qk.head_substitution(op, force, v0)
        self.h0, self.head_full, self.total = _head_and_total(op, force, v0)
        self._knots = [v0 + self.h0]
        self._cum = [self.head_full]
        self._cover(self.total * (1.0 - 1e-3))

    def _cover(self, x: float) -> None:
        """Extend knots until I(last) >= x or the value limit is hit, with
        up to BLOCK_CHUNK new segments per kernel call."""
        while self._cum[-1] < x and self._knots[-1] < _V_LIMIT:
            new = [self._knots[-1]]
            while len(new) <= qk.BLOCK_CHUNK and new[-1] < _V_LIMIT:
                new.append(self.v0 + (new[-1] - self.v0) * math.sqrt(2.0))
            for nxt, seg in zip(new[1:], qk.integrate_block(self._g, new[:-1], new[1:]).tolist()):
                self._knots.append(nxt)
                self._cum.append(self._cum[-1] + seg)

    def upper_value(self, x):
        """V with I(V) = x, for 0 <= x < total, elementwise (a float for scalar x)."""
        xa = np.asarray(x, dtype=float)
        xs = np.atleast_1d(xa)
        bad = ~((0.0 <= xs) & (xs < self.total))
        if bad.any():
            raise ProfileDomainError(f"coordinate {xs[bad][0]:g} outside [0, {self.total:g})")
        v = np.full(xs.shape, self.v0)
        head = (0.0 < xs) & (xs < self.head_full)
        if head.any():
            U = self._sub.u_of(self.v0 + self.h0)
            v[head] = self._sub.s_of(_invert_integral(
                self._sub.density, 0.0, U, xs[head], U * xs[head] / self.head_full))
        rest = xs >= self.head_full
        if rest.any():
            xr = xs[rest]
            self._cover(xr.max())
            if self._cum[-1] < xr.max():
                raise ProfileDomainError(
                    f"coordinate {xr.max():g} is within {self.total - xr.max():.3g} of blow-up; "
                    "beyond the supported value range")
            cum, knots = np.array(self._cum), np.array(self._knots)
            j = np.searchsorted(cum, xr)
            vr = knots[j]                   # exact where cum[j] == x
            inner = cum[j] != xr
            j = j[inner]
            lo, hi, target = knots[j - 1], knots[j], xr[inner] - cum[j - 1]
            vr[inner] = _invert_integral(self._g, lo, hi, target,
                                         lo + (hi - lo) * target / (cum[j] - cum[j - 1]))
            v[rest] = vr
        return v if xa.ndim else float(v[0])

    @cached_property
    def _kink_gaps(self) -> np.ndarray:
        """Sorted gaps s_k - v0 to the integrand's kinks: F(s_k) - F(v0) = B_k
        for the operator's kink energies B_k, by :func:`ko.increasing_root`
        on t = log(s_k - v0), and the force's knots t_k > v0."""
        energy = [math.exp(ko_mod.increasing_root(
            lambda t, b=b: qk.primitive_gap(self.force, self.v0, math.exp(t)) - b,
            math.log(1e300), 0.0, "kink", f"at the energy {b:g}"))
            for b in self.op.energy_knots]
        return np.sort(energy + [t - self.v0 for t in self.force.knots if t > self.v0])

    def integral_to(self, V):
        """Independent re-quadrature of I(V) on scipy alone (no table, head
        substitution or ``integrate_block``), elementwise (a float for scalar
        V): one tanh-sinh call in the gap t = s - v0 (nodes next to the
        singular endpoint keep full precision) over the head [v0, min(V, v0 +
        h0)] of every point, then one Gauss-Kronrod ``cubature`` vectorised over
        the doubling blocks from v0 + h0 up to every larger V, both split at
        the kinks s_k, which neither rule resolves to 1e-12."""
        vs = np.asarray(V, dtype=float)
        gaps, owner = np.unique(np.minimum(vs.ravel(), self.v0 + self.h0) - self.v0,
                                return_inverse=True)
        edges = [np.concatenate(([0.0], self._kink_gaps[self._kink_gaps < gap], [gap]))
                 for gap in gaps.tolist()]

        def head(t):        # tanhsinh passes arrays
            y = qk.primitive_gap(self.force, self.v0, t)
            out = np.zeros_like(y)
            pos = y > 0.0
            out[pos] = 1.0 / self.op.energy_inverse(y[pos])
            return out

        pieces = tanhsinh(head, np.concatenate([e[:-1] for e in edges]),
                          np.concatenate([e[1:] for e in edges]), rtol=1e-12, atol=0.0).integral
        out = np.bincount(np.repeat(np.arange(gaps.size), [e.size - 1 for e in edges]),
                          pieces, gaps.size)[owner]
        lo, w, block_owner = [], [], []
        for i, v in enumerate(vs.ravel().tolist()):
            knots = [self.v0 + self.h0]
            while knots[-1] < v:
                knots.append(min(2.0 * knots[-1], v))
            knots = np.union1d(knots, [s for s in self.v0 + self._kink_gaps if knots[0] < s < v])
            lo.append(knots[:-1])
            w.append(np.diff(knots))
            block_owner += [i] * (knots.size - 1)
        if block_owner:
            lo, w = np.concatenate(lo), np.concatenate(w)
            # column-major, so that numpy sums each block's nodes in one order
            # however many blocks the batch holds
            out += np.bincount(block_owner, cubature(
                lambda tau: np.asfortranarray(self._g(lo + tau * w) * w), [0.0], [1.0],
                rule="gk21", rtol=qk.BLOCK_EPSREL, atol=0.0).estimate, out.size)
        return np.reshape(out, vs.shape) if vs.ndim else float(out[0])


@lru_cache(maxsize=64)
def _branch(op: Operator, force: Force, v0: float) -> _ImplicitBranch:
    return _ImplicitBranch(op, force, v0)


@dataclass(frozen=True, eq=False)
class Profile1D:
    """A sampled even large solution on (-ell, ell) with minimum v0 at 0.

    Evaluation is exact inversion of the implicit relation (not sample
    interpolation); ``samples`` exist for export and plotting.  A dead-core
    profile has v0 = 0 and is identically zero on [-core, core].
    """

    op: Operator
    force: Force
    v0: float
    ell: float
    samples: tuple              # ((x, v), ...) on [0, x_max], x_max < ell; () unsampled
    dead_core: Optional[tuple]  # (-core, core) or None

    def value(self, x):
        """v(x), elementwise over an array of x (a float for scalar x)."""
        ax = np.abs(np.asarray(x, dtype=float))
        if not np.all(ax < self.ell):      # NaN included
            raise ProfileDomainError(f"|x| = {np.max(ax):g} >= blow-up half-length {self.ell:g}")
        core = self.dead_core[1] if self.dead_core else 0.0
        v = np.full(ax.shape, self.v0)
        v[ax > core] = _branch(self.op, self.force, self.v0).upper_value(ax[ax > core] - core)
        return v if v.ndim else float(v)

    def implicit_residual(self, x):
        """|I(value(x)) - max(|x| - core, 0)| by the oracle, elementwise (a
        float for scalar x), all points in one oracle call; the relation
        check (0 inside a dead core, where v = v0 = 0)."""
        core = self.dead_core[1] if self.dead_core else 0.0
        shifted = np.maximum(np.abs(np.asarray(x, dtype=float)) - core, 0.0)
        res = np.abs(_branch(self.op, self.force, self.v0).integral_to(self.value(x)) - shifted)
        return res if res.ndim else float(res)

    def to_csv(self, path) -> None:
        write_csv(path, "x,v", self.samples)

    def to_json(self, path) -> None:
        write_json(path, {
            "v0": self.v0,
            "ell": self.ell,
            "dead_core": list(self.dead_core) if self.dead_core else None,
            "operator": self.op.describe(),
            "force": self.force.describe(),
            "samples": [[float(x), float(v)] for x, v in self.samples],
        })


def _sampled(profile: Profile1D) -> Profile1D:
    """``profile`` with ``value`` sampled on N_BODY uniform points of
    [0, 0.95 ell) and N_EDGE geometric ones toward ell, down to 1e-4 ell."""
    ell = profile.ell
    xs = np.concatenate((np.linspace(0.0, 0.95 * ell, N_BODY, endpoint=False),
                         ell - 0.05 * ell * np.logspace(0.0, -3.0, N_EDGE)))
    return replace(profile, samples=tuple(zip(xs.tolist(), profile.value(xs).tolist())))


def _large(op: Operator, force: Force, v0: float) -> Profile1D:
    """The unsampled large solution with minimum v0 > 0."""
    return Profile1D(op, force, v0, _branch(op, force, v0).total, (), None)


def large_profile(op: Operator, force: Force, v0: float) -> Profile1D:
    """Construct the even large solution with minimum v0 (sampled on [0, x_max])."""
    return _sampled(_large(op, force, v0))


def eval_profile(op: Operator, force: Force, v0: float, x):
    """v(x) for the large solution with minimum v0; even in x, elementwise
    over an array of x (a float for scalar x)."""
    if not v0 > 0.0:
        raise ValueError("eval_profile needs v0 > 0 (see dead_core_profile)")
    return _large(op, force, v0).value(x)


def v0_of_ell(op: Operator, force: Force, ell: float) -> float:
    """Invert the strictly decreasing map ell(v0) by
    :func:`ko.increasing_root` on t = log v0, to ``ko.LOG_FTOL`` in log ell
    (else brentq's xtol 1e-12 in t), from :func:`ko.power_law_root`: 2
    evaluations of ell(v0) for f = t^q, which :func:`_head_and_total` caches.

    In the dead-core regime (finite L in the cached :func:`ko.classify`)
    returns 0.0 for ell >= L (1 - _CORE_RTOL); otherwise searches
    [1e-12, 1e12] and raises :class:`BracketError` when ell(v0) = ell has no root there.
    """
    if not ell > 0.0:
        raise ValueError("v0_of_ell needs ell > 0")
    L = ko_mod.classify(op, force).L
    if L is not None and ell >= L * (1.0 - _CORE_RTOL):
        return 0.0

    log_ell, limit = math.log(ell), math.log(1e12)

    def g(t: float) -> float:
        return log_ell - math.log(ell_of_v0(op, force, math.exp(t)))

    return math.exp(ko_mod.increasing_root(g, limit, ko_mod.LOG_FTOL, "v0",
                                           f"has the half-length {ell:g}",
                                           ko_mod.power_law_root(op, force, g, limit)))


def _dead_core(op: Operator, force: Force, ell: float) -> Profile1D:
    """The unsampled dead core on (-ell, ell), for ell >= L (1 - _CORE_RTOL); empty below L."""
    try:
        L = ko_mod.length_scale(op, force)
    except DivergenceError as exc:
        raise DivergenceError(
            "dead-core profiles need a convergent 0+ integral "
            f"(Osgood regime detected): {exc}") from exc
    if not ell >= L * (1.0 - _CORE_RTOL):
        raise ValueError(f"dead core needs ell >= L = {L:g}, got ell = {ell:g}")
    core = max(ell - L, 0.0)
    return Profile1D(op, force, 0.0, ell, (), (-core, core))


def dead_core_profile(op: Operator, force: Force, ell: float) -> Profile1D:
    """Large solution with a flat zero core [-(ell-L), ell-L] for ell > L."""
    return _sampled(_dead_core(op, force, ell))


def large_solution(op: Operator, force: Force, ell: float) -> Profile1D:
    """The unsampled large solution on (-ell, ell): minimum v0_of_ell(ell) > 0,
    or the dead core where that is 0.  The only code that decides which."""
    v0 = v0_of_ell(op, force, ell)
    return _dead_core(op, force, ell) if v0 == 0.0 else _large(op, force, v0)


@dataclass(frozen=True)
class DecayRow:
    ell: float
    v0: float
    value: float
    dead_core: bool


def decay_sweep(op: Operator, force: Force, ells: Sequence[float],
                x_probe: float) -> list[DecayRow]:
    """v_ell(x_probe) over increasing half-lengths; decays to 0 (or hits 0
    exactly once a dead core covers the probe)."""
    if list(ells) != sorted(ells):
        raise ValueError("ells must be increasing")
    rows = []
    for ell in ells:
        if ell <= abs(x_probe):
            raise ValueError(f"probe {x_probe:g} outside (-{ell:g}, {ell:g})")
        prof = large_solution(op, force, ell)
        rows.append(DecayRow(float(ell), prof.v0, prof.value(x_probe), prof.v0 == 0.0))
    return rows
