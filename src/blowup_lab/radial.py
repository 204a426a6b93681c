"""Radially symmetric blow-up solutions in dimension n.

The radial p-Laplace equation (|w'|^{p-2}w')' + (n-1)/r |w'|^{p-2}w' = f(w)
is integrated by DOP853 in two phases.  Phase 1 runs in r on (w, z = A(w'))
from an analytic expansion stepped to r0 = 1e-6 (the origin is doubly
awkward: singular (n-1)/r term, degenerate |w'|^{p-2} at w' = 0) until w
reaches 4 max(w0, 1).  Phase 2 takes w itself as the clock (Stuart & Floater,
Eur. J. Appl. Math. 1, 1990): in t = log w it integrates dr/dt = w/w' and
d log|z|/dt = (f(w)/z - (n-1)/r) w/w' over a fixed interval, so the singular
end costs a bounded number of steps (a p = 2 ball to w = 1e8 takes about
1,000 RHS calls, against 3,400 in r alone).  A shot ends at w = 1e8, or where
Psi(w) = 1e-14 if that comes first (exponential forces); the blow-up location
is extrapolated from there by the tail functional Psi, which is exact in 1D
and subdominant-error in the radial case.

Only sampled shots (`shoot_ball`, the accepted annulus shot) keep DOP853's
dense interpolants.  The ball's center value and the annulus' outer slope are
found on a log scale, where R is a power of v0 for power forces, by the lab's
one monotone root finder (:func:`ko.increasing_root`), which shoots each
point once; the annulus stops within 1e-8 (relative) of r_inner.

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

from . import ko as ko_mod
from . import ode1d
from .errors import BlowupLabError, BracketError, DivergenceError, ValidationError
from .registry import Force, Operator

W_CAP = 1e8
PSI_FLOOR = 1e-14
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


@lru_cache(maxsize=32)
def _end_point(op: Operator, force: Force, w_cap: float) -> tuple[float, float]:
    """(w, Psi(w)) where a shot toward the value cap w_cap ends: w_cap, unless
    Psi(W_CAP) < PSI_FLOOR; then where Psi = PSI_FLOOR * W_CAP / w_cap if that
    comes first, so a cap 100 times further out puts the floor 100 times nearer."""
    _require_ko(op, force)
    w_end = w_cap
    if ko_mod.psi(op, force, W_CAP) < PSI_FLOOR:
        w_end = min(w_cap, ko_mod.BlowupRateFn(op, force).phi(PSI_FLOOR * W_CAP / w_cap))
    return w_end, ko_mod.psi(op, force, w_end)


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


def _shoot(op: Operator, force: Force, n: int, r_span: tuple, y0: tuple, w_end: float,
           dense: bool):
    """One shot from (w, z) = y0 at r_span[0] toward w = w_end, stopped at
    r = r_span[1].  Phase 1 hands over at w = 4 max(w0, 1) (or w_end), so the
    profile's body keeps the r-steps of a shot in r alone.  Returns r at w_end
    (None if r_span[1] came first) and, if dense, the map r -> (w, z)."""
    Ainv, fval = op.flux_inverse, force.value
    sign = math.copysign(1.0, r_span[1] - r_span[0])    # the sign of z
    w_switch = min(4.0 * max(y0[0], 1.0), w_end)

    def in_r(r, y):
        w, z = y
        return Ainv(z), fval(w if w > 0.0 else 0.0) - (n - 1) / r * z

    def in_log_w(t, y):       # numpy scalars: a zero w' gives inf, not ZeroDivisionError
        r, s = y
        w, z = np.exp(t), sign * np.exp(s)
        drdt = w / Ainv(z)
        return drdt, (fval(w) / z - (n - 1) / r) * drdt

    def switch(r, y):
        return y[0] - w_switch

    def r_limit(t, y):
        return y[0] - r_span[1]
    switch.terminal = r_limit.terminal = True

    near = sol = solve_ivp(in_r, r_span, y0, method="DOP853", rtol=RTOL, atol=ATOL,
                           events=switch, dense_output=dense)
    far, (r, w) = None, (near.t[-1], near.y[0, -1])
    if near.status == 1:      # w reached w_switch
        w_sw, z_sw = near.y[:, -1]
        far = sol = solve_ivp(in_log_w, (math.log(w_sw), math.log(w_end)),
                              (r, math.log(abs(z_sw))), method="DOP853", rtol=RTOL,
                              atol=ATOL, events=r_limit, dense_output=dense)
        r, w = far.y[0, -1], math.exp(far.t[-1])
    if sol.status < 0:
        raise BlowupLabError(f"integrator stopped at r = {r:.6g}, w = {w:.6g}: {sol.message}")

    def state(r_pts) -> tuple[np.ndarray, np.ndarray]:
        """(w, z) at the radii r_pts (1-D).  Past the switch, Newton steps with
        dr/dt from the state invert r(t) from its step-grid interpolant."""
        r_pts = np.asarray(r_pts, dtype=float)
        w, z = near.sol(r_pts)
        past = sign * (r_pts - near.t[-1]) > 0.0
        if past.any():
            r_far = r_pts[past]
            t = np.interp(sign * r_far, sign * far.y[0], far.t)
            for _ in range(4):
                y = far.sol(t)
                t = t - (y[0] - r_far) / in_log_w(t, y)[0]
            w[past], z[past] = np.exp(t), sign * np.exp(far.sol(t)[1])
        return w, z

    return (float(r) if far is not None and far.status == 0 else None), state


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
    _state: object = None       # r -> (w, z) over the integrated range

    def value(self, r: float) -> float:
        if self.kind == "ball" and r <= R_START:
            return self.v0
        return float(self._state([r])[0][0])

    def slope(self, r: float) -> float:
        return self.op.flux_inverse(float(self._state([r])[1][0]))

    def residual(self, r_pts: np.ndarray) -> np.ndarray:
        """Scaled equation residual from the dense output:
        (dz/dr + (n-1)/r z - f(w)) / max(1, f(w)) with a centered step
        proportional to the local distance to the singular ends."""
        r = np.asarray(r_pts, dtype=float)
        h = 3e-4 * np.minimum(np.abs(self.R - r), r)
        w, z = self._state(r)
        dz = (self._state(r + h)[1] - self._state(r - h)[1]) / (2.0 * h)
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


def _integrate_outward(op, force, n, v0, w_cap, dense):
    """r_end, R = r_end + Psi(w_end) and the state map of the shot from the center."""
    w_end, psi_end = _end_point(op, force, w_cap)
    r_end, state = _shoot(op, force, n, (R_START, 1e6),
                          _prestep(op, force, n, v0, R_START), w_end, dense)
    if r_end is None:
        raise BlowupLabError("no blow-up reached by r = 1e+06")
    return r_end, r_end + psi_end, state


def shoot_ball(op: Operator, force: Force, n: int, v0: float,
               w_cap: float = W_CAP, n_samples: int = 400) -> RadialProfile:
    """Integrate from the center; blow-up radius R = r_end + Psi(w_end)."""
    _check_operator(op, n)
    if not v0 > 0.0:
        raise ValueError("shoot_ball needs v0 > 0")
    r_end, R, state = _integrate_outward(op, force, n, v0, w_cap, dense=True)
    rs = np.linspace(R_START, r_end, n_samples)
    ws, zs = state(rs)
    wps = op.flux_inverse(zs)
    rs = np.concatenate(([0.0], rs))
    ws = np.concatenate(([v0], ws))
    wps = np.concatenate(([0.0], wps))
    return RadialProfile(op, force, n, v0, R, rs, ws, wps, "ball", None, state)


def blowup_radius(op: Operator, force: Force, n: int, v0: float,
                  w_cap: float = W_CAP) -> float:
    """R(v0) alone (no sampling); strictly decreasing in v0."""
    _check_operator(op, n)
    return _integrate_outward(op, force, n, v0, w_cap, dense=False)[1]


def ball_large_solution(op: Operator, force: Force, n: int,
                        R_target: float) -> RadialProfile:
    """Find v0 with R(v0) = R_target by root finding on t = log v0.

    log R is linear in t for power forces (R(lam v0) = lam^(-(q-p+1)/p) R(v0)),
    so once bracketed, one secant step lands on the root.  How close the
    profile's R came to R_target is for the caller to grade."""
    _check_operator(op, n)
    if not R_target > 0.0:
        raise ValueError("ball_large_solution needs R_target > 0")
    log_target = math.log(R_target)
    w_end, goal = _end_point(op, force, W_CAP)[0], f"reaches the radius {R_target:g}"

    def g(t: float) -> float:       # no shot starts past its end point w_end
        if math.exp(t) >= w_end:
            raise BracketError(f"no v0 below the shots' end point {w_end:g} {goal}")
        return log_target - math.log(blowup_radius(op, force, n, math.exp(t)))

    t = ko_mod.increasing_root(g, math.log(1e12), 0.0, "v0", goal)
    return shoot_ball(op, force, n, math.exp(t))


def annulus_barrier(op: Operator, force: Force, n: int, r_inner: float,
                    r_outer: float, loc_tol: float = 1e-8,
                    w_cap: float = W_CAP, n_samples: int = 400) -> RadialProfile:
    """Barrier on the annulus: zero at r_outer, blow-up at r_inner, found by
    root finding on t = log s for the outer slope w'(r_outer) = -s."""
    _check_operator(op, n)
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    w_end, psi_end = _end_point(op, force, w_cap)
    r_floor = 0.25 * r_inner

    def inward_blowup(t: float, dense: bool = False):
        r_end, state = _shoot(op, force, n, (r_outer, r_floor),
                              (0.0, op.flux(-math.exp(t))), w_end, dense)
        # r_end is None for a shot too shallow to blow up above the floor
        return (r_floor if r_end is None else r_end - psi_end), r_end, state

    # the blow-up location rises with s
    t = ko_mod.increasing_root(lambda t: inward_blowup(t)[0] - r_inner, math.log(1e10),
                               loc_tol * r_inner, "outer slope", f"blows up at r = {r_inner:g}")
    r_b, r_end, state = inward_blowup(t, dense=True)
    if abs(r_b - r_inner) > loc_tol * r_inner:
        raise BracketError(f"the outer slope converged with the blow-up at r = {r_b:.12g}, "
                           f"beyond loc_tol = {loc_tol:g} of r = {r_inner:g}")

    rs = np.linspace(r_outer, r_end, n_samples)
    ws, zs = state(rs)
    wps = op.flux_inverse(zs)
    return RadialProfile(op, force, n, 0.0, r_b, rs[::-1].copy(), ws[::-1].copy(),
                         wps[::-1].copy(), "annulus-barrier", (r_inner, r_outer), state)


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
