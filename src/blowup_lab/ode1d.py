"""One-dimensional large solutions via the implicit integral relation.

The even solution of (A(v'))' = f(v) on (-ell, ell) with v -> inf at both
ends and minimum v0 = v(0) satisfies

    int_{v0}^{v(x)} ds / B^-1{F(s) - F(v0)} = |x|,

and the blow-up half-length is ell(v0) = int_{v0}^inf of the same integrand.
This module evaluates profiles by safeguarded Newton on the implicit
relation, bracketed by a cumulative table of that integral, maps ell <-> v0,
and builds dead-core profiles (v0 = 0, flat zero core of half-width ell - L)
when the 0+ integral converges.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from . import ko as ko_mod
from . import quadrature as qk
from .errors import BracketError, DivergenceError, ProfileDomainError
from .registry import Force, Operator

_V_LIMIT = 1e280
_NEWTON_RTOL = 1e-14       # stop once a Newton step is below this * |iterate|
_NEWTON_MAX_STEPS = 100    # bisection from a full bracket needs about 50


def ell_of_v0(op: Operator, force: Force, v0: float) -> float:
    """Blow-up half-length ell(v0) = int_{v0}^inf ds / B^-1{F(s) - F(v0)}.

    Raises :class:`DivergenceError` when the Keller-Osserman tail fails and
    :class:`DomainExceededError` for operators with a finite energy ceiling.
    """
    if not v0 > 0.0:
        raise ValueError("ell_of_v0 needs v0 > 0")
    h0 = 0.5 * max(v0, 1.0)
    head = qk.singular_head(op, force, v0, v0 + h0)
    tail = qk.require_converged(qk.shifted_tail(op, force, v0, v0 + h0),
                                f"ell({v0:g}) tail")
    return head + tail


def _invert_integral(h, a: float, b: float, target: float, z: float) -> float:
    """z in [a, b] with int_a^z h = target, for h > 0 and the root in [a, b].

    Safeguarded Newton from the start z: each step
    z += (target - int_a^z h) / h(z) advances the integral by one quadrature
    from the old iterate to the new one; a step that leaves the bracket
    bisects it instead.  Stops once a step is below _NEWTON_RTOL * |z| (a
    zero step included), never on the bracket width.
    """
    acc = qk.integrate_block(h, a, z)
    for _ in range(_NEWTON_MAX_STEPS):
        r = target - acc
        if r == 0.0:
            return z
        if r > 0.0:
            a = z
        else:
            b = z
        d = h(z)
        z_new = z + r / d if d > 0.0 else math.nan   # h = 0 past overflow: bisect
        if not a <= z_new <= b:
            z_new = 0.5 * (a + b)
        if abs(z_new - z) <= _NEWTON_RTOL * abs(z):
            return z_new
        acc += qk.integrate_block(h, z, z_new)
        z = z_new
    return z


class _ImplicitBranch:
    """Monotone inverse of I(V) = int_{v0}^V ds / B^-1{F(s) - F(v0)}.

    A cumulative table at half-doubling knots V_j brackets V for given
    x = I(V), and safeguarded Newton on the implicit relation, with
    dI/dV = 1/B^-1{F(V) - F(v0)}, solves inside the bracket.  The head
    [v0, v0 + h0] is solved in the variable u of
    :func:`quadrature.head_substitution`, whose density is finite at u = 0;
    heads without one fall back to bracketed root finding on
    :func:`quadrature.singular_head`.  The table extends itself on demand
    toward the blow-up value of x (= ell(v0) for v0 > 0, = L for v0 = 0).
    """

    def __init__(self, op: Operator, force: Force, v0: float):
        self.op, self.force, self.v0 = op, force, v0
        self._g = qk.shifted_integrand(op, force, v0)
        self._sub = qk.head_substitution(op, force, v0)
        self.h0 = 0.5 * max(v0, 1.0)
        self.head_full = qk.singular_head(op, force, v0, v0 + self.h0)
        self.total = self.head_full + qk.require_converged(
            qk.shifted_tail(op, force, v0, v0 + self.h0), "blow-up integral tail")
        self._knots = [v0 + self.h0]
        self._cum = [self.head_full]
        self._cover(self.total * (1.0 - 1e-3))

    def _cover(self, x: float) -> None:
        """Extend knots until I(last) >= x or the value limit is hit."""
        while self._cum[-1] < x and self._knots[-1] < _V_LIMIT:
            nxt = self.v0 + (self._knots[-1] - self.v0) * math.sqrt(2.0)
            seg = qk.integrate_block(self._g, self._knots[-1], nxt)
            self._knots.append(nxt)
            self._cum.append(self._cum[-1] + seg)

    def upper_value(self, x: float) -> float:
        """V with I(V) = x, for 0 <= x < total."""
        if x == 0.0:
            return self.v0
        if not 0.0 < x < self.total:
            raise ProfileDomainError(f"coordinate {x:g} outside [0, {self.total:g})")
        if x < self.head_full:
            if self._sub is None:
                return brentq(
                    lambda V: qk.singular_head(self.op, self.force, self.v0, V) - x,
                    self.v0, self.v0 + self.h0, xtol=1e-300, rtol=1e-14)
            U = self._sub.u_of(self.v0 + self.h0)
            return self._sub.s_of(_invert_integral(
                self._sub.density, 0.0, U, x, U * x / self.head_full))
        self._cover(x)
        if self._cum[-1] < x:
            raise ProfileDomainError(
                f"coordinate {x:g} is within {self.total - x:.3g} of blow-up; "
                "beyond the supported value range")
        j = int(np.searchsorted(self._cum, x))
        if self._cum[j] == x:
            return self._knots[j]
        lo, hi = self._knots[j - 1], self._knots[j]
        target = x - self._cum[j - 1]
        return _invert_integral(self._g, lo, hi, target,
                                 lo + (hi - lo) * target / (self._cum[j] - self._cum[j - 1]))

    def integral_to(self, V: float) -> float:
        """Independent re-quadrature of I(V) (fresh subdivision, no table):
        the head, then doubling blocks from v0 + h0 to V."""
        if V <= self.v0:
            return 0.0
        hi = min(V, self.v0 + self.h0)
        out = qk.singular_head(self.op, self.force, self.v0, hi)
        if V > self.v0 + self.h0:
            out += qk.integrate_doubling(self._g, self.v0 + self.h0, V)
        return out


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
    samples: tuple              # ((x, v), ...) on [0, x_max], x_max < ell
    dead_core: Optional[tuple]  # (-core, core) or None

    def value(self, x: float) -> float:
        ax = abs(x)
        if ax >= self.ell:
            raise ProfileDomainError(f"|x| = {ax:g} >= blow-up half-length {self.ell:g}")
        if self.dead_core is not None:
            core = self.dead_core[1]
            if ax <= core:
                return 0.0
            return _branch(self.op, self.force, 0.0).upper_value(ax - core)
        return _branch(self.op, self.force, self.v0).upper_value(ax)

    def implicit_residual(self, x: float) -> float:
        """|I(value(x)) - shifted x| by fresh quadrature; the relation check."""
        ax = abs(x)
        v = self.value(x)
        if self.dead_core is not None:
            core = self.dead_core[1]
            if ax <= core:
                return 0.0
            return abs(_branch(self.op, self.force, 0.0).integral_to(v) - (ax - core))
        return abs(_branch(self.op, self.force, self.v0).integral_to(v) - ax)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x,v\n")
            for x, v in self.samples:
                fh.write(f"{format(float(x), '.17g')},{format(float(v), '.17g')}\n")

    def to_json(self, path) -> None:
        doc = {
            "v0": self.v0,
            "ell": self.ell,
            "dead_core": list(self.dead_core) if self.dead_core else None,
            "operator": self.op.describe(),
            "force": self.force.describe(),
            "samples": [[float(x), float(v)] for x, v in self.samples],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def _sample_grid(ell: float, n_body: int, n_edge: int) -> np.ndarray:
    body = np.linspace(0.0, 0.95 * ell, n_body, endpoint=False)
    # geometric approach to the blow-up end, down to distance 1e-4 * ell
    d = 0.05 * ell * np.logspace(0.0, -3.0, n_edge)
    return np.concatenate((body, ell - d))


def large_profile(op: Operator, force: Force, v0: float,
                  n_body: int = 161, n_edge: int = 40) -> Profile1D:
    """Construct the even large solution with minimum v0 (sampled on [0, x_max])."""
    br = _branch(op, force, v0)
    xs = _sample_grid(br.total, n_body, n_edge)
    samples = tuple((float(x), br.upper_value(float(x))) for x in xs)
    return Profile1D(op, force, v0, br.total, samples, None)


def eval_profile(op: Operator, force: Force, v0: float, x: float) -> float:
    """v(x) for the large solution with minimum v0; even in x."""
    if not v0 > 0.0:
        raise ValueError("eval_profile needs v0 > 0 (see dead_core_profile)")
    br = _branch(op, force, v0)
    ax = abs(x)
    if ax >= br.total:
        raise ProfileDomainError(f"|x| = {ax:g} >= ell(v0) = {br.total:g}")
    return br.upper_value(ax)


@lru_cache(maxsize=64)
def v0_of_ell(op: Operator, force: Force, ell: float) -> float:
    """Invert the strictly decreasing map ell(v0); rel tol 1e-8 on v0.

    Cached like :func:`_branch`: every field of a cylinder family asks for
    the same barrier half-length.

    In the dead-core regime (0+ integral convergent) returns 0.0 for
    ell >= L; otherwise brackets within [1e-12, 1e12] and raises
    :class:`BracketError` when no bracket exists there.
    """
    if not ell > 0.0:
        raise ValueError("v0_of_ell needs ell > 0")
    try:
        if ell >= ko_mod.length_scale(op, force) * (1.0 - 1e-12):
            return 0.0
    except DivergenceError:
        pass    # Osgood regime (no dead core), or a KO failure ell_of_v0 reports

    lo = hi = 1.0
    e1 = ell_of_v0(op, force, 1.0)
    if e1 > ell:        # need larger v0 (ell decreasing)
        while ell_of_v0(op, force, hi) > ell:
            hi *= 4.0
            if hi > 1e12:
                raise BracketError(f"v0_of_ell({ell:g}): no bracket below v0 = 1e12")
        lo = hi / 4.0
    else:
        while ell_of_v0(op, force, lo) < ell:
            lo /= 4.0
            if lo < 1e-12:
                raise BracketError(f"v0_of_ell({ell:g}): no bracket above v0 = 1e-12")
        hi = lo * 4.0
    t = brentq(lambda lv: ell_of_v0(op, force, math.exp(lv)) - ell,
               math.log(lo), math.log(hi), xtol=1e-10, rtol=8.9e-16)
    return math.exp(t)


def dead_core_profile(op: Operator, force: Force, ell: float,
                      n_body: int = 161, n_edge: int = 40) -> Profile1D:
    """Large solution with a flat zero core [-(ell-L), ell-L] for ell > L."""
    try:
        L = ko_mod.length_scale(op, force)
    except DivergenceError as exc:
        raise DivergenceError(
            "dead-core profiles need a convergent 0+ integral "
            f"(Osgood regime detected): {exc}") from exc
    if not ell > L:
        raise ValueError(f"dead core needs ell > L = {L:g}, got ell = {ell:g}")
    core = ell - L
    br = _branch(op, force, 0.0)
    xs = _sample_grid(ell, n_body, n_edge)
    samples = []
    for x in xs:
        x = float(x)
        samples.append((x, 0.0 if x <= core else br.upper_value(x - core)))
    return Profile1D(op, force, 0.0, ell, tuple(samples), (-core, core))


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
        v0 = v0_of_ell(op, force, ell)
        if v0 == 0.0:
            prof = dead_core_profile(op, force, ell, n_body=2, n_edge=2)
            rows.append(DecayRow(float(ell), 0.0, prof.value(x_probe), True))
        else:
            rows.append(DecayRow(float(ell), v0,
                                 eval_profile(op, force, v0, x_probe), False))
    return rows
