"""Radially symmetric blow-up solutions in dimension n.

The radial p-Laplace equation (|w'|^{p-2}w')' + (n-1)/r |w'|^{p-2}w' = f(w)
is integrated as a first-order system in (w, z = A(w')) by adaptive RK.
The origin is doubly awkward (singular (n-1)/r term, degenerate |w'|^{p-2}
at w' = 0), so integration starts from an analytic expansion stepped to
r0 = 1e-6.  Blow-up locations are extrapolated from a finite cap w = 1e8 by
the tail functional Psi, which is exact in 1D and subdominant-error in the
radial case.

Only shots whose profile is sampled (`shoot_ball`, the accepted annulus
shot) keep DOP853's dense interpolant; every other shot integrates to the
cap event alone.  The ball's center value and the annulus' outer slope are
found on a log scale, where R is a power of v0 for power forces, by one
bracketed brentq that shoots each point once; the annulus stops within
1e-8 (relative) of r_inner.

This doubles as the independent IVP oracle for the implicit-relation
profiles of the 1D module (n = 1 removes the curvature term).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from . import ko as ko_mod
from . import ode1d
from .errors import BlowupLabError, BracketError, DivergenceError, ValidationError
from .registry import Force, Operator

W_CAP = 1e8
RTOL = 1e-11
ATOL = 1e-12
R_START = 1e-6


@lru_cache(maxsize=32)
def _require_ko(op: Operator, force: Force) -> None:
    report = ko_mod.classify(op, force)
    if report.ko_holds is False:
        raise DivergenceError("Keller-Osserman tail diverges; no blow-up solution exists")
    if report.ko_holds is None:
        raise DivergenceError(f"blow-up classification undecidable: {report.diagnostics}")


def _check_operator(op: Operator, n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if n > 1 and op.kind != "p-laplace":
        raise ValidationError("radial shooting for n > 1 supports p-laplace operators only")


def _prestep(op: Operator, force: Force, n: int, v0: float, r0: float) -> tuple[float, float]:
    """(w, z) at r0 from the symmetric expansion: z ~ f(v0) r / n and
    w(r0) = v0 + int_0^{r0} A^-1(f(v0) t / n) dt."""
    fv0 = force.value(v0)
    z0 = fv0 * r0 / n
    dw, _ = quad(lambda t: op.flux_inverse(fv0 * t / n), 0.0, r0, epsabs=0.0, epsrel=1e-12)
    return v0 + dw, z0


def _rhs(op: Operator, force: Force, n: int):
    Ainv = op.flux_inverse
    fval = force.value

    def rhs(r, y):
        w, z = y
        return Ainv(z), fval(w if w > 0.0 else 0.0) - (n - 1) / r * z

    return rhs


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Sampled radial solution with blow-up radius R (ball) or an inner
    blow-up / outer zero pair (annulus barrier)."""

    op: Operator
    force: Force
    n: int
    v0: float                   # center value (ball); 0 outer value for annulus
    R: float                    # blow-up radius
    r: np.ndarray
    w: np.ndarray
    wprime: np.ndarray
    kind: str                   # "ball" | "annulus-barrier"
    annulus: Optional[tuple]    # (r_inner, r_outer) for barriers
    _sol: object = None         # dense IVP output over the integrated range

    def value(self, r: float) -> float:
        if self.kind == "ball" and r <= R_START:
            return self.v0
        return float(self._sol.sol(r)[0])

    def slope(self, r: float) -> float:
        return self.op.flux_inverse(float(self._sol.sol(r)[1]))

    def residual(self, r_pts: np.ndarray) -> np.ndarray:
        """Scaled equation residual from the dense output:
        (dz/dr + (n-1)/r z - f(w)) / max(1, f(w)) with a centered step
        proportional to the local distance to the singular ends."""
        r = np.asarray(r_pts, dtype=float)
        h = 3e-4 * np.minimum(np.abs(self.R - r), r)
        w, z = self._sol.sol(r)
        dz = (self._sol.sol(r + h)[1] - self._sol.sol(r - h)[1]) / (2.0 * h)
        fw = self.force.value(np.maximum(w, 0.0))
        return (dz + (self.n - 1) / r * z - fw) / np.maximum(1.0, fw)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("r,w,wprime\n")
            for r, w, wp in zip(self.r, self.w, self.wprime):
                fh.write(",".join(format(float(v), ".17g") for v in (r, w, wp)) + "\n")

    def to_json(self, path) -> None:
        doc = {
            "n": self.n, "v0": self.v0, "R": self.R, "kind": self.kind,
            "annulus": list(self.annulus) if self.annulus else None,
            "operator": self.op.describe(), "force": self.force.describe(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


class _Hit(Exception):
    """A shot landed within the function tolerance; carries its t."""


def _increasing_root(g, limit: float, ftol: float, name: str, goal: str) -> float:
    """t with g(t) = 0 for g increasing in t, |t| <= limit.

    From t = 0 the shots step by log 4 toward the sign change, then brentq
    (xtol 1e-12) runs on the last step.  Every t is shot once, so the
    bracket ends cost nothing twice; a shot with |g| <= ftol ends the search.
    """
    seen: dict = {}

    def shot(t: float) -> float:
        if t not in seen:
            seen[t] = g(t)
            if abs(seen[t]) <= ftol:
                raise _Hit(t)
        return seen[t]

    try:
        step = math.log(4.0) if shot(0.0) < 0.0 else -math.log(4.0)
        a = 0.0
        while abs(a + step) <= limit and shot(a + step) * seen[a] > 0.0:
            a += step
        if abs(a + step) > limit:
            raise BracketError(f"no {name} in [{math.exp(-limit):g}, "
                               f"{math.exp(limit):g}] {goal}")
        return brentq(shot, min(a, a + step), max(a, a + step), xtol=1e-12)
    except _Hit as hit:
        return hit.args[0]


def _shoot(rhs, r_span: tuple, y0: tuple, w_cap: float, dense: bool):
    """One DOP853 shot toward the event w = w_cap; the dense interpolant is
    built only when the profile will be sampled."""
    def hit_cap(r, y):
        return y[0] - w_cap
    hit_cap.terminal = True
    hit_cap.direction = 1.0

    sol = solve_ivp(rhs, r_span, y0, method="DOP853", rtol=RTOL, atol=ATOL,
                    events=hit_cap, dense_output=dense)
    if sol.status < 0:
        raise BlowupLabError(f"integrator stopped at r = {sol.t[-1]:.6g}, "
                             f"w = {sol.y[0, -1]:.6g}: {sol.message}")
    return sol


def _integrate_outward(op, force, n, v0, w_cap, dense):
    sol = _shoot(_rhs(op, force, n), (R_START, 1e6), _prestep(op, force, n, v0, R_START),
                 w_cap, dense)
    if not sol.t_events[0].size:
        raise BlowupLabError(f"no blow-up reached by r = 1e+06 (w ended at {sol.y[0, -1]:.3g})")
    return sol


def shoot_ball(op: Operator, force: Force, n: int, v0: float,
               w_cap: float = W_CAP, n_samples: int = 400) -> RadialProfile:
    """Integrate from the center; blow-up radius R = r_cap + Psi(w(r_cap))."""
    _check_operator(op, n)
    if not v0 > 0.0:
        raise ValueError("shoot_ball needs v0 > 0")
    _require_ko(op, force)
    sol = _integrate_outward(op, force, n, v0, w_cap, dense=True)
    r_evt = float(sol.t_events[0][0])
    w_evt = float(sol.y_events[0][0][0])
    R = r_evt + ko_mod.psi(op, force, w_evt)
    rs = np.linspace(R_START, r_evt, n_samples)
    ws, zs = sol.sol(rs)
    wps = op.flux_inverse(zs)
    rs = np.concatenate(([0.0], rs))
    ws = np.concatenate(([v0], ws))
    wps = np.concatenate(([0.0], wps))
    return RadialProfile(op, force, n, v0, R, rs, ws, wps, "ball", None, sol)


def blowup_radius(op: Operator, force: Force, n: int, v0: float,
                  w_cap: float = W_CAP) -> float:
    """R(v0) alone (no sampling); strictly decreasing in v0."""
    _check_operator(op, n)
    _require_ko(op, force)
    sol = _integrate_outward(op, force, n, v0, w_cap, dense=False)
    return float(sol.t_events[0][0]) + ko_mod.psi(op, force, float(sol.y_events[0][0][0]))


def ball_large_solution(op: Operator, force: Force, n: int, R_target: float,
                        rel_tol: float = 1e-6) -> RadialProfile:
    """Find v0 with R(v0) = R_target by root finding on t = log v0.

    log R is linear in t for power forces (R(lam v0) = lam^(-(q-p+1)/p) R(v0)),
    so once bracketed, one secant step lands on the root."""
    _check_operator(op, n)
    if not R_target > 0.0:
        raise ValueError("ball_large_solution needs R_target > 0")
    log_target = math.log(R_target)
    t = _increasing_root(
        lambda t: log_target - math.log(blowup_radius(op, force, n, math.exp(t))),
        math.log(1e12), 0.0, "v0", f"reaches the radius {R_target:g}")
    prof = shoot_ball(op, force, n, math.exp(t))
    if abs(prof.R - R_target) > rel_tol * R_target:
        raise BlowupLabError(
            f"radius match {prof.R:g} vs {R_target:g} misses rel tol {rel_tol:g}")
    return prof


def annulus_barrier(op: Operator, force: Force, n: int, r_inner: float,
                    r_outer: float, loc_tol: float = 1e-8,
                    w_cap: float = W_CAP, n_samples: int = 400) -> RadialProfile:
    """Barrier on the annulus: zero at r_outer, blow-up at r_inner, found by
    root finding on t = log s for the outer slope w'(r_outer) = -s."""
    _check_operator(op, n)
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    _require_ko(op, force)
    rhs = _rhs(op, force, n)
    r_floor = 0.25 * r_inner

    def inward_blowup(t: float, dense: bool = False):
        sol = _shoot(rhs, (r_outer, r_floor), (0.0, op.flux(-math.exp(t))), w_cap, dense)
        if not sol.t_events[0].size:
            return r_floor, sol          # too shallow: no blow-up above the floor
        r_evt = float(sol.t_events[0][0])
        w_evt = float(sol.y_events[0][0][0])
        return r_evt - ko_mod.psi(op, force, w_evt), sol

    # the blow-up location rises with s
    t = _increasing_root(lambda t: inward_blowup(t)[0] - r_inner, math.log(1e10),
                         loc_tol * r_inner, "outer slope", f"blows up at r = {r_inner:g}")
    r_b, sol = inward_blowup(t, dense=True)
    if abs(r_b - r_inner) > loc_tol * r_inner:
        raise BracketError(f"the outer slope converged with the blow-up at r = {r_b:.12g}, "
                           f"beyond loc_tol = {loc_tol:g} of r = {r_inner:g}")

    r_lo_int = float(sol.t_events[0][0]) if sol.t_events[0].size else r_floor
    rs = np.linspace(r_outer, r_lo_int, n_samples)
    ws, zs = sol.sol(rs)
    wps = op.flux_inverse(zs)
    return RadialProfile(op, force, n, 0.0, r_b, rs[::-1].copy(), ws[::-1].copy(),
                         wps[::-1].copy(), "annulus-barrier", (r_inner, r_outer), sol)


# ---------------------------------------------------------------------------
# interior bound against the 1D barrier (consumes 2D fields)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalBoundReport:
    passed: bool
    max_u: float
    bound: float
    slack: float
    n_nodes: int


def require_ball_inside(grid, center: tuple, R: float) -> None:
    """Raise ValueError unless the ball B_R(center) lies in the grid's domain."""
    cx, cy = center
    if abs(cx) + R > grid.half_widths[0] or abs(cy) + R > grid.half_widths[1]:
        raise ValueError(f"ball of radius {R:g} at {center} leaves the domain")


def local_bound_check(field, center: tuple, R: float) -> LocalBoundReport:
    """max of the field over B_{R/2}(center) <= omega(R/2) + interpolation slack,
    where omega is the 1D large solution on (-R, R) for the field's data.

    The slack is the variation of omega over two grid cells at R/2 (linear
    interpolation allowance at the discrete ball boundary).
    """
    grid = field.grid
    cx, cy = center
    require_ball_inside(grid, center, R)
    op, force = field.op, field.force
    v0R = ode1d.v0_of_ell(op, force, R)
    omega_half = ode1d.eval_profile(op, force, v0R, R / 2.0)
    hbar = max(grid.hx, grid.hy)
    slack = ode1d.eval_profile(op, force, v0R, min(R / 2.0 + 2.0 * hbar, R * (1 - 1e-9))) - omega_half
    X, Y = np.meshgrid(grid.x_nodes, grid.y_nodes, indexing="ij")
    mask = (X - cx) ** 2 + (Y - cy) ** 2 <= (R / 2.0) ** 2
    max_u = float(np.max(field.values[mask]))
    return LocalBoundReport(max_u <= omega_half + slack, max_u, omega_half,
                            slack, int(mask.sum()))
