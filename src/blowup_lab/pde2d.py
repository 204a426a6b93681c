"""Finite-difference solver for div(|grad u|^{p-2} grad u) = f(u) on rectangles.

Discretization: face fluxes gamma_face * (du/dn)/h with
gamma = (|grad u|^2 + eps^2)^{(p-2)/2}; the face gradient takes the normal
difference plus an averaged tangential difference.  Each formula lives once:
_face_differences (the y-faces are the x-face call on u.T), _face_gamma, and
_flux_derivatives for every Jacobian.  For p = 2 the scheme is exactly the
5-point Laplacian.  Solved by chord/damped Newton on the exact Jacobian
(9-point, or 5-point for p = 2, where the tangential entries vanish), for
p > 2 from the half-line boundary-layer profile U(d) = Phi(Psi(m) + d) of
Bandle & Marcus (J. Anal. Math. 58, 1992), where u = m would leave gamma =
eps^{p-2} and a flat Newton step; a stalled solve restarts once from it.
The sparse LU of the last Jacobian is kept, also across m levels: a chord
step with it is accepted when it at least halves the scaled residual
(_CHORD_CONTRACTION); otherwise the Jacobian is refactored at the current
iterate for a damped Newton step.  Both reject a trial outside [0, m].

Boundary blow-up is approached through finite constant data m, doubled per
level as a continuation in m (Allgower & Georg 1990, ch. 2) with a tangent
predictor.  A fixed grid cannot follow the boundary layer once
its width Psi_p(m) drops below the mesh size - past that point the discrete
solution at boundary-adjacent nodes grows without bound (there is no
discrete analogue of the interior blow-up bound), so besides the increment
plateau test the escalation ends at the m* with Psi_p(m*) = layer_factor * h:
the doubling that would pass m* steps to m* itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from . import ko as ko_mod
from . import ode1d
from .artifacts import write_csv, write_json
from .errors import BracketError, DivergenceError, SolverError, ValidationError
from .registry import Force, Operator

_CHORD_CONTRACTION = 0.5    # a chord step must cut the scaled residual by this


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on (-1, 1) x (-ell, ell)."""

    ell: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValidationError("grid needs nx, ny >= 8")
        if not self.ell > 0.0:
            raise ValidationError("grid needs ell > 0")

    @property
    def half_widths(self) -> tuple[float, float]:
        return (1.0, self.ell)

    @property
    def hx(self) -> float:
        return 2.0 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 2.0 * self.ell / (self.ny - 1)

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.nx)

    @property
    def y_nodes(self) -> np.ndarray:
        return np.linspace(-self.ell, self.ell, self.ny)

    def node_index(self, y: float) -> int:
        """Index j of the y-node at y; ValueError when y is not a node."""
        j = int(round((y + self.ell) / self.hy))
        if not 0 <= j < self.ny or abs(self.y_nodes[j] - y) > 1e-9 * max(1.0, abs(y)):
            raise ValueError(f"y = {y:g} is not a grid node")
        return j


def nested_offset(inner: Grid2D, outer: Grid2D) -> int:
    """Index of the outer y-node at -inner.ell; ValueError unless the inner
    y-nodes are outer nodes from there on (grid_for_ell nests integer ells)."""
    offset = int(round((outer.ell - inner.ell) / outer.hy))
    if not np.allclose(outer.y_nodes[offset:offset + inner.ny], inner.y_nodes, atol=1e-9):
        raise ValueError(f"grids for ell = {inner.ell:g} and {outer.ell:g} do not nest")
    return offset


def grid_for_ell(ell: float, nx: int = 65) -> Grid2D:
    """Grid with hy = hx whose y-nodes nest across integer ell (ny = (nx-1)ell + 1)."""
    ny = int(round((nx - 1) * ell)) + 1
    return Grid2D(ell, nx, ny)


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-8            # gradient regularization
    tol_res: float = 1e-9        # scaled residual sup-norm
    max_newton: int = 60
    max_halvings: int = 30
    m_start: float = 2.0
    m_factor: float = 2.0
    max_levels: int = 24
    tol_m: float = 1e-4          # increment plateau tolerance on K
    layer_factor: float = 0.5    # cap: stop once Psi_p(m) <= layer_factor * h
    compact_scale: float = 0.75  # K = centered sub-rectangle at this scale

    def __post_init__(self):
        if not (self.eps > 0 and self.tol_res > 0):
            raise ValidationError("eps and tol_res must be positive")


@dataclass(frozen=True, eq=False)
class DiscreteField:
    grid: Grid2D
    values: np.ndarray          # (nx, ny), boundary rows/cols hold m
    m: float
    eps: float
    op: Operator
    force: Force
    diagnostics: dict = field(default_factory=dict)

    def mid_slice(self) -> tuple[np.ndarray, np.ndarray]:
        """(x_nodes, u(x, 0)); the grid always carries a y = 0 node."""
        j = (self.grid.ny - 1) // 2
        return self.grid.x_nodes, self.values[:, j].copy()

    def slice_at(self, y: float) -> np.ndarray:
        return self.values[:, self.grid.node_index(y)].copy()

    def compact_mask(self, scale: float = 0.75) -> np.ndarray:
        X, Y = np.meshgrid(self.grid.x_nodes, self.grid.y_nodes, indexing="ij")
        return (np.abs(X) <= scale) & (np.abs(Y) <= scale * self.grid.ell)

    def to_csv(self, path) -> None:
        X, Y = np.meshgrid(self.grid.x_nodes, self.grid.y_nodes, indexing="ij")
        write_csv(path, "x,y,u", zip(X.ravel(), Y.ravel(), self.values.ravel()))

    def to_json(self, path) -> None:
        write_json(path, {
            "grid": {"ell": self.grid.ell, "nx": self.grid.nx, "ny": self.grid.ny},
            "m": self.m, "eps": self.eps,
            "operator": self.op.describe(), "force": self.force.describe(),
            "diagnostics": self.diagnostics,
        })


def mid_slice_to_csv(field_: DiscreteField, path) -> None:
    write_csv(path, "x,u", zip(*field_.mid_slice()))


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------

def _face_differences(v, hn, ht):
    """Normal and averaged tangential differences (g_n, g_t) on the faces
    between (i, j) and (i+1, j), j interior.  The faces between (i, j) and
    (i, j+1) are this call on u.T with (hy, hx), transposed back."""
    gn = (v[1:, 1:-1] - v[:-1, 1:-1]) / hn
    gt = (v[:-1, 2:] + v[1:, 2:] - v[:-1, :-2] - v[1:, :-2]) / (4.0 * ht)
    return gn, gt


def _face_gamma(gn, gt, p, eps):
    """The regularized coefficient gamma = (|grad u|^2 + eps^2)^{(p-2)/2}."""
    return (gn * gn + gt * gt + eps * eps) ** ((p - 2.0) / 2.0)


def _flux_derivatives(gn, gt, p, eps):
    """dF/dg_n = gamma (1 + (p-2) g_n^2/w) and dF/dg_t = (p-2) gamma g_n g_t/w
    of the face flux F = gamma g_n, w = g_n^2 + g_t^2 + eps^2; finite wherever
    gamma is, as the ratios lie in [-1, 1] and read 0 where w underflows."""
    w = gn * gn + gt * gt + eps * eps
    w = np.where(w > 0.0, w, 1.0)       # w = 0 only where g_n^2 = g_t^2 = 0
    gam = _face_gamma(gn, gt, p, eps)
    return gam * (1.0 + (p - 2.0) * (gn * gn / w)), (p - 2.0) * gam * (gn * gt / w)


def _face_flux(v, hn, ht, p, eps):
    gn, gt = _face_differences(v, hn, ht)
    return _face_gamma(gn, gt, p, eps) * gn


def _residual_interior(u, grid, p, eps, force):
    """div of the regularized face fluxes minus f(u) at interior nodes, and
    f(u); SolverError when the residual is not finite (f or gamma overflowed)."""
    Fx = _face_flux(u, grid.hx, grid.hy, p, eps)
    Fy = _face_flux(u.T, grid.hy, grid.hx, p, eps).T
    fu = force.value(u[1:-1, 1:-1])
    R = (Fx[1:, :] - Fx[:-1, :]) / grid.hx + (Fy[:, 1:] - Fy[:, :-1]) / grid.hy - fu
    if not np.all(np.isfinite(R)):
        raise SolverError(f"non-finite residual on the current field (eps = {eps:g})")
    return R, fu


def residual(field_: DiscreteField) -> np.ndarray:
    """The interior residual of the field, zero-padded on the boundary."""
    R, _ = _residual_interior(field_.values, field_.grid, field_.op.p, field_.eps,
                              field_.force)
    return np.pad(R, 1)


def _scaled_norm(R, fu):
    return float(np.max(np.abs(R) / np.maximum(1.0, fu)))


def _assemble_jacobian(u, grid, p, eps, force):
    """Exact Jacobian of the interior residual, in CSC form.

    9-point stencil; for p = 2 the tangential entries are identically zero
    (dF/dg_t carries the factor p - 2) and are not stored, leaving the
    5-point pattern."""
    nx, ny = grid.nx, grid.ny
    N = (nx - 2) * (ny - 2)
    index = np.full((nx, ny), -1)       # unknown number of each node, -1 on the boundary
    index[1:-1, 1:-1] = np.arange(N).reshape(nx - 2, ny - 2)
    rows, cols, vals = [], [], []

    def add(ii, jj, kk, ll, v):
        r, c = index[ii, jj], index[kk, ll]
        mask = (r >= 0) & (c >= 0)
        rows.append(r[mask]); cols.append(c[mask]); vals.append(v[mask])

    # faces between (i, j) and (i, j) + n with tangent t; the faces along y
    # are computed on u.T and their quantities transposed back
    for n, t, hn, ht, transposed in (((1, 0), (0, 1), grid.hx, grid.hy, False),
                                     ((0, 1), (1, 0), grid.hy, grid.hx, True)):
        gn, gt = _face_differences(u.T if transposed else u, hn, ht)
        dF_dgn, dF_dgt = _flux_derivatives(gn, gt, p, eps)
        if transposed:
            dF_dgn, dF_dgt = dF_dgn.T, dF_dgt.T
        iF, jF = np.meshgrid(np.arange(t[0], nx - 1), np.arange(t[1], ny - 1), indexing="ij")
        deps = [((0, 0), -dF_dgn / hn), (n, dF_dgn / hn)]
        if p != 2.0:
            dt = dF_dgt / (4 * ht)
            deps += [(t, dt), ((n[0] + t[0], n[1] + t[1]), dt),
                     ((-t[0], -t[1]), -dt), ((n[0] - t[0], n[1] - t[1]), -dt)]
        # the flux enters the residual at (i, j) with +1/hn, at (i, j) + n with -1/hn
        for (di, dj), dv in deps:
            kk, ll = iF + di, jF + dj
            add(iF, jF, kk, ll, dv / hn)
            add(iF + n[0], jF + n[1], kk, ll, -dv / hn)

    flat = np.arange(N)
    rows.append(flat)
    cols.append(flat)
    vals.append(-force.derivative(u[1:-1, 1:-1]).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N)).tocsc()


def _jacobian_times(u, v, grid, p, eps, force):
    """The derivative of the interior residual at u along a whole field v
    (boundary nodes included), without assembling the Jacobian."""
    dF = []
    for uu, vv, hn, ht in ((u, v, grid.hx, grid.hy), (u.T, v.T, grid.hy, grid.hx)):
        dF_dgn, dF_dgt = _flux_derivatives(*_face_differences(uu, hn, ht), p, eps)
        dgn, dgt = _face_differences(vv, hn, ht)
        dF.append(dF_dgn * dgn + dF_dgt * dgt)
    dFx, dFy = dF[0], dF[1].T
    return ((dFx[1:, :] - dFx[:-1, :]) / grid.hx + (dFy[:, 1:] - dFy[:, :-1]) / grid.hy
            - force.derivative(u[1:-1, 1:-1]) * v[1:-1, 1:-1])


def _layer_profile(grid, op, force, m):
    """U(d) = Phi(Psi(m) + d) at every node, d its distance to the boundary:
    one shot of U' = -B^-1(F(U)), U(0) = m, sampled at the distinct node
    distances; SolverError when the shot fails or is not finite."""
    dx = np.minimum(np.arange(grid.nx), np.arange(grid.nx)[::-1]) * grid.hx
    dy = np.minimum(np.arange(grid.ny), np.arange(grid.ny)[::-1]) * grid.hy
    dist, node = np.unique(np.minimum.outer(dx, dy).ravel(), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(lambda d, U: -op.energy_inverse(force.primitive(np.maximum(U, 0.0))),
                        (0.0, dist[-1]), [float(m)], method="DOP853", t_eval=dist,
                        rtol=1e-6)
    if sol.status != 0 or not np.all(np.isfinite(sol.y)):
        raise SolverError(f"the boundary-layer shot failed (m = {m:g}): {sol.message}")
    return np.maximum(sol.y[0], 0.0)[node].reshape(grid.nx, grid.ny)


def solve_dirichlet(grid: Grid2D, op: Operator, force: Force, m: float,
                    cfg: SolverConfig = SolverConfig(),
                    initial: Optional[np.ndarray] = None, *,
                    factor: Optional[list] = None) -> DiscreteField:
    """Converged field for boundary data m, from the given start, else from
    the boundary-layer profile of :func:`_layer_profile` for p > 2 and from
    u = m for p <= 2 (where gamma = eps^{p-2} >= 1 on the flat start).

    Chord/damped Newton (Kelley 2003, ch. 2 and 5) with one acceptance rule:
    a trial that leaves [0, m] or has a non-finite residual is rejected like
    one whose scaled residual is too large.  While an LU of the Jacobian is
    kept, each step first tries the full chord step with it, accepted at
    most _CHORD_CONTRACTION times the current scaled residual.  Otherwise
    the Jacobian (finite wherever the residual is) is assembled and factored
    (MMD ordering on A^T + A) at the current iterate for a damped Newton
    step: halvings until the scaled residual falls.  When no halving helps,
    the solve restarts from the boundary-layer profile (counted in
    ``gs_rescues``) and scales each later trial's residual by the current
    iterate's max(1, f(u)), not its own; a second stall raises SolverError.
    The LU is dropped after a damped step with alpha < 1 and at a restart.
    The one-slot list ``factor`` carries an LU in (tried first) and the last
    LU out, and is emptied before each factorisation.  ``iterations`` counts
    accepted steps of either kind, ``factorizations`` the LUs; the final
    scaled residual lands just under ``tol_res``."""
    if op.kind != "p-laplace":
        raise ValidationError("the 2D solver supports p-laplace operators only")
    if m < 0.0:
        raise ValueError("boundary value m must be >= 0")
    p = op.p
    u = (initial.copy() if initial is not None else _layer_profile(grid, op, force, m)
         if p > 2.0 else np.full((grid.nx, grid.ny), float(m)))
    u[0, :] = m; u[-1, :] = m; u[:, 0] = m; u[:, -1] = m
    if m == 0.0:
        return DiscreteField(grid, u * 0.0, 0.0, cfg.eps, op, force,
                             {"iterations": 0, "factorizations": 0, "final_residual": 0.0,
                              "clip_activations": 0, "gs_rescues": 0})

    def score(v):
        """(R, f(v), merit) at a trial field; the merit is inf for a rejected one."""
        if ((v < -1e-12) | (v > m * (1.0 + 1e-12))).any():
            return None, None, math.inf
        try:
            R_v, fu_v = _residual_interior(v, grid, p, cfg.eps, force)
        except SolverError:
            return None, None, math.inf
        return R_v, fu_v, _scaled_norm(R_v, fu if frozen else fu_v)

    restarts, frozen, factorizations = 0, False, 0
    lu = [None] if factor is None else factor      # the one slot for the LU
    R, fu = _residual_interior(u, grid, p, cfg.eps, force)
    rn = _scaled_norm(R, fu)
    it = 0
    while rn > cfg.tol_res:
        if it >= cfg.max_newton:
            raise SolverError(
                f"no convergence in {cfg.max_newton} Newton iterations "
                f"(m = {m:g}, last scaled residual {rn:.3e})")
        if lu[0] is not None:
            u_try = u.copy()
            u_try[1:-1, 1:-1] += lu[0].solve(-R.ravel()).reshape(R.shape)
            R_try, fu_try, rn_try = score(u_try)
            if rn_try <= _CHORD_CONTRACTION * rn:
                u, R, fu, rn = u_try, R_try, fu_try, _scaled_norm(R_try, fu_try)
                it += 1
                continue
        lu[0] = None    # free the old factor before the new one is built
        lu[0] = spla.splu(_assemble_jacobian(u, grid, p, cfg.eps, force),
                          permc_spec="MMD_AT_PLUS_A")
        factorizations += 1
        delta = lu[0].solve(-R.ravel()).reshape(R.shape)
        alpha = 1.0
        for _ in range(cfg.max_halvings):
            u_try = u.copy()
            u_try[1:-1, 1:-1] += alpha * delta
            R_try, fu_try, rn_try = score(u_try)
            if rn_try < rn:
                u, R, fu, rn = u_try, R_try, fu_try, _scaled_norm(R_try, fu_try)
                if alpha < 1.0:
                    lu[0] = None
                break
            alpha *= 0.5
        else:
            if frozen:
                raise SolverError("Newton stalled from the boundary-layer profile "
                                  f"(m = {m:g}, scaled residual {rn:.3e})")
            # a flat interior scores 1 at any level; under a scaling frozen at
            # the current iterate the merit is one norm, along which Newton descends
            lu[0], restarts, frozen = None, 1, True
            u = _layer_profile(grid, op, force, m)
            R, fu = _residual_interior(u, grid, p, cfg.eps, force)
            rn = _scaled_norm(R, fu)
        it += 1
    # nothing is clipped and gs_rescues counts restarts; bench/tracing.py reads both keys
    return DiscreteField(grid, u, float(m), cfg.eps, op, force,
                         {"iterations": it, "factorizations": factorizations,
                          "final_residual": rn, "clip_activations": 0,
                          "gs_rescues": restarts})


# ---------------------------------------------------------------------------
# escalation in m and the cylinder family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EscalationLevel:
    m: float
    center: float
    sup_increment_K: Optional[float]   # vs the previous level, None at the first
    min_increment: Optional[float]     # pointwise monotonicity floor
    grad_energy_K: float
    iterations: int


@dataclass(frozen=True)
class EscalationResult:
    field: DiscreteField
    levels: tuple
    stop_reason: str            # "plateau" | "layer-cap" | "schedule-exhausted"
    ko_violated: bool


def gradient_energy(field_: DiscreteField, mask: np.ndarray) -> float:
    """Discrete int_K |grad u|^p over cells whose four corners lie in the mask."""
    g = field_.grid
    u = field_.values
    ux = (u[1:, :-1] + u[1:, 1:] - u[:-1, :-1] - u[:-1, 1:]) / (2.0 * g.hx)
    uy = (u[:-1, 1:] + u[1:, 1:] - u[:-1, :-1] - u[1:, :-1]) / (2.0 * g.hy)
    cell_in = mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]
    mag = np.sqrt(ux * ux + uy * uy)
    return float(np.sum((mag[cell_in] ** field_.op.p)) * g.hx * g.hy)


def layer_cap_m(op: Operator, force: Force, grid: Grid2D, cfg: SolverConfig) -> Optional[float]:
    """The m* = Phi_p(layer_factor * h), where Psi_p(m*) = layer_factor * h, or
    None when the tail functional diverges (KO fails: no cap, escalation must
    be caught by the no-plateau detector).

    m* is solved for (to about 1e-12 relative) rather than rounded to the
    doubling schedule, so grids of every mesh width stop at the same layer
    resolution.  The cap is clamped to the schedule [m_start, m_start *
    m_factor^max_levels]; when Phi cannot bracket m* in [1e-14, 1e14] (or
    layer_factor * h reaches a dead core's L), Psi_p(m_start) tells which
    end it is."""
    target = cfg.layer_factor * max(grid.hx, grid.hy)
    try:
        m = ko_mod.BlowupRateFn(op, force).phi(target)
    except DivergenceError:
        return None
    except BracketError:
        m = 0.0 if ko_mod.psi(op, force, cfg.m_start) <= target else math.inf
    with np.errstate(over="ignore"):    # a long schedule may end at inf
        m_end = cfg.m_start * np.float64(cfg.m_factor) ** cfg.max_levels
    return float(min(max(m, cfg.m_start), m_end))


def escalate_m(grid: Grid2D, op: Operator, force: Force,
               cfg: SolverConfig = SolverConfig()) -> EscalationResult:
    """Escalate the boundary data m (doubling) toward the blow-up limit.
    Each level starts from the tangent predictor u_prev + (m - m_prev) du/dm,
    J du/dm = -J e (e = 1 on the boundary), solved with the previous level's
    last LU, which its solve then reuses; without an LU, from u_prev.  Stops
    at the increment plateau on the interior compact K
    or at the layer-resolution cap m* of :func:`layer_cap_m`, whichever comes
    first; a doubling that would pass m* steps to m* instead, so a capped
    escalation ends exactly at Psi_p(m) = layer_factor * h.  A schedule that
    exhausts with non-decreasing increments is flagged as numerically
    violating the blow-up growth condition."""
    if op.kind != "p-laplace":
        raise ValidationError("the 2D solver supports p-laplace operators only")
    m_cap = layer_cap_m(op, force, grid, cfg)
    lu = [None]         # the last LU of a level, carried into the next
    mask = None
    prev = None
    levels: list[EscalationLevel] = []
    field_ = None
    m = cfg.m_start
    stop = "schedule-exhausted"
    sup_incs: list[float] = []
    for _ in range(cfg.max_levels):
        start = None if prev is None else prev.values
        if prev is not None and lu[0] is not None:      # the tangent predictor
            e = np.pad(np.zeros((grid.nx - 2, grid.ny - 2)), 1, constant_values=1.0)
            Je = _jacobian_times(start, e, grid, op.p, cfg.eps, force)
            du = np.pad(lu[0].solve(-Je.ravel()).reshape(Je.shape), 1)
            start = start + (m - prev.m) * (e + du)
        field_ = solve_dirichlet(grid, op, force, m, cfg, initial=start, factor=lu)
        if mask is None:
            mask = field_.compact_mask(cfg.compact_scale)
        center = float(field_.values[(grid.nx - 1) // 2, (grid.ny - 1) // 2])
        if prev is None:
            sup_inc, min_inc = None, None
        else:
            diff = field_.values - prev.values
            sup_inc = float(np.max(diff[mask]))
            min_inc = float(np.min(diff))
            sup_incs.append(sup_inc)
        levels.append(EscalationLevel(m, center, sup_inc, min_inc,
                                      gradient_energy(field_, mask),
                                      field_.diagnostics["iterations"]))
        if sup_inc is not None and sup_inc <= cfg.tol_m:
            stop = "plateau"
            break
        if m_cap is not None and m >= m_cap:
            stop = "layer-cap"
            break
        prev = field_
        m *= cfg.m_factor
        if m_cap is not None:
            m = min(m, m_cap)

    ko_violated = False
    if stop == "schedule-exhausted":
        centers = [lv.center for lv in levels]
        increasing = all(b > a for a, b in zip(centers, centers[1:]))
        last = sup_incs[-3:]
        nondecreasing_incs = (len(sup_incs) >= 3
                              and all(b >= a * (1.0 - 1e-6)
                                      for a, b in zip(last, last[1:])))
        ko_violated = increasing and nondecreasing_incs
    return EscalationResult(field_, tuple(levels), stop, ko_violated)


@dataclass(frozen=True)
class CylinderReport:
    ells: tuple
    monotone_in_ell: bool
    max_ell_violation: float
    symmetry_defects: tuple
    stop_reasons: tuple


def cylinder_family(op: Operator, force: Force, ells: Sequence[float],
                    cfg: SolverConfig = SolverConfig(), nx: int = 65
                    ) -> tuple[list[DiscreteField], CylinderReport]:
    """Escalated fields on (-1,1) x (-ell, ell) for increasing ell, with the
    anti-monotonicity check on shared y-nodes (grids nest for integer ell)."""
    results = [escalate_m(grid, op, force, cfg) for grid in family_grids(ells, nx)]
    fields = [res.field for res in results]
    worst = max(0.0, ell_monotonicity_violation(fields))
    defects = tuple(symmetry_defect(f) for f in fields)
    report = CylinderReport(tuple(float(e) for e in ells), worst <= 1e-6, worst,
                            defects, tuple(res.stop_reason for res in results))
    return fields, report


def family_grids(ells: Sequence[float], nx: int) -> list[Grid2D]:
    """grid_for_ell for each ell; ValueError unless the ells strictly increase,
    each grid nests in the next, and each has nodes at y = 0 and +-ell/2 (the
    mid-slice and cross_section_compare read them)."""
    if not all(a < b for a, b in zip(ells, ells[1:])):
        raise ValueError(f"ells must be strictly increasing, got {list(ells)}")
    grids = [grid_for_ell(float(ell), nx) for ell in ells]
    for grid in grids:
        for y in (0.0, -grid.ell / 2.0, grid.ell / 2.0):
            grid.node_index(y)
    for a, b in zip(grids, grids[1:]):
        nested_offset(a, b)
    return grids


def ell_monotonicity_violation(fields: Sequence[DiscreteField]) -> float:
    """Largest pointwise increase from a shorter to a longer cylinder on the
    shared (nested) y-nodes; negative values mean strict decrease, -inf for
    fewer than two fields."""
    worst = -math.inf
    for a, b in zip(fields, fields[1:]):
        offset = nested_offset(a.grid, b.grid)
        worst = max(worst, float(np.max(b.values[:, offset:offset + a.grid.ny] - a.values)))
    return worst


def symmetry_defect(field_: DiscreteField) -> float:
    u = field_.values
    return float(max(np.max(np.abs(u - u[::-1, :])), np.max(np.abs(u - u[:, ::-1]))))


def discrete_cross_section(field_: DiscreteField) -> np.ndarray:
    """w on the field's x-nodes: the y-independent solution of the same
    face-flux scheme with the field's m, eps, force and x-grid.

    Away from the ends y = +-ell the mid-slice u(x, 0) converges to w as ell
    grows; w differs from the 1D large solution v by the discretisation error
    of the cross-section at this m.  Damped Newton on the tridiagonal 1D
    reduction, started from the mid-slice."""
    g, force = field_.grid, field_.force
    p, eps, hx = field_.op.p, field_.eps, g.hx
    _, w = field_.mid_slice()

    def residual_1d(w):
        # the 2D residual of a strip constant in y: tangential differences
        # and the y-fluxes vanish, so this is the scheme's 1D reduction
        R, fu = _residual_interior(np.repeat(w[:, None], 3, axis=1), g, p, eps, force)
        return R[:, 0], _scaled_norm(R, fu)

    R, rn = residual_1d(w)
    for _ in range(60):
        if rn <= 1e-12:
            return w
        dF = _flux_derivatives(np.diff(w) / hx, 0.0, p, eps)[0] / (hx * hx)   # g_t = 0
        bands = np.zeros((3, g.nx - 2))
        bands[0, 1:] = dF[1:-1]
        bands[1] = -(dF[1:] + dF[:-1]) - force.derivative(w[1:-1])
        bands[2, :-1] = dF[1:-1]
        if not np.all(np.isfinite(bands)):
            raise SolverError("non-finite Jacobian on the discrete cross-section "
                              f"(eps = {eps:g})")
        delta = solve_banded((1, 1), bands, -R)
        alpha = 1.0
        for _ in range(30):
            w_try = w.copy()
            w_try[1:-1] += alpha * delta
            try:
                R_try, rn_try = residual_1d(w_try)
            except SolverError:
                rn_try = math.inf
            if rn_try < rn:
                break
            alpha *= 0.5
        else:
            raise SolverError("Newton stalled on the discrete cross-section "
                              f"(scaled residual {rn:.3e})")
        w, R, rn = w_try, R_try, rn_try
    raise SolverError("no convergence of the discrete cross-section in 60 Newton "
                      f"iterations (last scaled residual {rn:.3e})")


@dataclass(frozen=True)
class CrossSectionReport:
    sup_error_mid: float        # sup |u(x, 0) - v(x)| on |x| <= x_window
    rel_error_mid: float        # sup error / sup |v| on the window
    sup_error_quarter: float    # same at y = +-ell/2 (decay diagnostic)
    x_window: float


def cross_section_compare(field_: DiscreteField, profile: ode1d.Profile1D,
                          x_window: float = 0.9) -> CrossSectionReport:
    """Mid-slice against the 1D cross-section large solution."""
    xs, mid = field_.mid_slice()
    mask = np.abs(xs) <= x_window + 1e-12
    v = profile.value(xs[mask])
    err_mid = float(np.max(np.abs(mid[mask] - v)))
    ell = field_.grid.ell
    half = ell / 2.0
    quarter_errs = []
    for ysl in (-half, half):
        sl = field_.slice_at(ysl)
        quarter_errs.append(float(np.max(np.abs(sl[mask] - v))))
    return CrossSectionReport(err_mid, err_mid / float(np.max(np.abs(v))),
                              max(quarter_errs), x_window)
