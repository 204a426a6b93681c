"""Finite-difference solver for div(|grad u|^{p-2} grad u) = f(u) on rectangles.

Discretization: face fluxes gamma_face * (du/dn)/h with
gamma = (|grad u|^2 + eps^2)^{(p-2)/2}; the face gradient takes the normal
difference plus an averaged tangential difference.  For p = 2 the scheme is
exactly the 5-point Laplacian.  Solved by chord/damped Newton on the exact
Jacobian (9-point, or 5-point for p = 2, where the tangential entries vanish)
with a red-black nonlinear Gauss-Seidel fallback for the degenerate flat
start.  Within one solve the sparse LU of the last Jacobian is kept: a
full-length chord step with it is accepted when it stays in [0, m] and at
least halves the scaled residual (_CHORD_CONTRACTION); otherwise the
Jacobian is refactored at the current iterate for a damped Newton step.

Boundary blow-up is approached through finite constant data m, doubled per
level with warm starts.  A fixed grid cannot follow the boundary layer once
its width Psi_p(m) drops below the mesh size - past that point the discrete
solution at boundary-adjacent nodes grows without bound (there is no
discrete analogue of the interior blow-up bound), so besides the increment
plateau test the escalation ends at the m* with Psi_p(m*) = layer_factor * h:
the doubling that would pass m* steps to m* itself.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from . import ko as ko_mod
from . import ode1d
from .errors import DivergenceError, SolverError, ValidationError
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
    gs_sweeps: int = 200
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

    def interior(self) -> np.ndarray:
        return self.values[1:-1, 1:-1]

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
        xs, ys = self.grid.x_nodes, self.grid.y_nodes
        with open(path, "w") as fh:
            fh.write("x,y,u\n")
            for i in range(self.grid.nx):
                for j in range(self.grid.ny):
                    fh.write(f"{format(float(xs[i]), '.17g')},"
                             f"{format(float(ys[j]), '.17g')},"
                             f"{format(float(self.values[i, j]), '.17g')}\n")

    def to_json(self, path) -> None:
        doc = {
            "grid": {"ell": self.grid.ell, "nx": self.grid.nx, "ny": self.grid.ny},
            "m": self.m, "eps": self.eps,
            "operator": self.op.describe(), "force": self.force.describe(),
            "diagnostics": {k: v for k, v in sorted(self.diagnostics.items())
                            if k != "wall_time"},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def mid_slice_to_csv(field_: DiscreteField, path) -> None:
    xs, mid = field_.mid_slice()
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for x, u in zip(xs, mid):
            fh.write(f"{format(float(x), '.17g')},{format(float(u), '.17g')}\n")


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------

def _face_quantities(u, hx, hy, p, eps):
    """Fluxes on vertical faces (between (i,j),(i+1,j), j interior) and
    horizontal faces (between (i,j),(i,j+1), i interior)."""
    gnx = (u[1:, 1:-1] - u[:-1, 1:-1]) / hx
    gty = (u[:-1, 2:] + u[1:, 2:] - u[:-1, :-2] - u[1:, :-2]) / (4.0 * hy)
    wv = gnx * gnx + gty * gty + eps * eps
    gam_v = wv ** ((p - 2.0) / 2.0)
    Fx = gam_v * gnx

    gny = (u[1:-1, 1:] - u[1:-1, :-1]) / hy
    gtx = (u[2:, :-1] + u[2:, 1:] - u[:-2, :-1] - u[:-2, 1:]) / (4.0 * hx)
    wh = gny * gny + gtx * gtx + eps * eps
    gam_h = wh ** ((p - 2.0) / 2.0)
    Fy = gam_h * gny
    return Fx, Fy


def _residual_interior(u, grid, p, eps, force):
    """div of the regularized face fluxes minus f(u) at interior nodes, and f(u)."""
    Fx, Fy = _face_quantities(u, grid.hx, grid.hy, p, eps)
    fu = np.asarray(force.value(u[1:-1, 1:-1]), dtype=float)
    if not np.all(np.isfinite(fu)):
        raise SolverError("force evaluation overflowed on the current field")
    return ((Fx[1:, :] - Fx[:-1, :]) / grid.hx
            + (Fy[:, 1:] - Fy[:, :-1]) / grid.hy - fu), fu


def residual(field_: DiscreteField) -> np.ndarray:
    """The interior residual of the field, zero-padded on the boundary."""
    R, _ = _residual_interior(field_.values, field_.grid, field_.op.p, field_.eps,
                              field_.force)
    return np.pad(R, 1)


def _scaled_norm(R, fu):
    return float(np.max(np.abs(R) / np.maximum(1.0, fu)))


def _force_prime(force: Force, u: np.ndarray, eps_fd: float = 1e-7) -> np.ndarray:
    """df/du; analytic for the enumerated kinds, centered difference otherwise."""
    kind = force.kind
    if kind == "power":
        q = force.params["q"]
        return q * np.maximum(u, 1e-300) ** (q - 1.0)
    if kind == "exp-minus-one":
        return np.exp(u)
    if kind == "piecewise-power":
        a, b = force.params["a"], force.params["b"]
        um = np.maximum(u, 1e-300)
        return np.where(u <= 1.0, a * um ** (a - 1.0), b * um ** (b - 1.0))
    h = eps_fd * np.maximum(1.0, np.abs(u))
    return (np.asarray(force.value(u + h), dtype=float)
            - np.asarray(force.value(np.maximum(u - h, 0.0)), dtype=float)) / (
        h + np.minimum(u, h))


def _assemble_jacobian(u, grid, p, eps, force):
    """Exact Jacobian of the interior residual, in CSC form.

    9-point stencil; for p = 2 the tangential entries are identically zero
    ((p - 2)/2 = 0) and are not stored, leaving the 5-point pattern."""
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    Ni, Nj = nx - 2, ny - 2
    N = Ni * Nj
    tangential = p != 2.0
    rows, cols, vals = [], [], []

    def add(ii, jj, kk, ll, v):
        mask = (kk >= 1) & (kk <= nx - 2) & (ll >= 1) & (ll <= ny - 2)
        rows.append(((ii - 1) * Nj + (jj - 1))[mask])
        cols.append(((kk - 1) * Nj + (ll - 1))[mask])
        vals.append(v[mask])

    # vertical faces: i in 0..nx-2, j in 1..ny-2
    iF, jF = np.meshgrid(np.arange(0, nx - 1), np.arange(1, ny - 1), indexing="ij")
    gn = (u[iF + 1, jF] - u[iF, jF]) / hx
    gt = (u[iF, jF + 1] + u[iF + 1, jF + 1] - u[iF, jF - 1] - u[iF + 1, jF - 1]) / (4 * hy)
    w = gn * gn + gt * gt + eps * eps
    gam = w ** ((p - 2.0) / 2.0)
    dgam_dw = (p - 2.0) / 2.0 * w ** ((p - 4.0) / 2.0)
    dF_dgn = gam + 2.0 * gn * gn * dgam_dw
    deps = {(0, 0): -dF_dgn / hx, (1, 0): dF_dgn / hx}
    if tangential:
        dF_dgt = 2.0 * gn * gt * dgam_dw
        deps.update({(0, 1): dF_dgt / (4 * hy), (1, 1): dF_dgt / (4 * hy),
                     (0, -1): -dF_dgt / (4 * hy), (1, -1): -dF_dgt / (4 * hy)})
    own_e = iF >= 1              # face is the E-face of (iF, jF): +1/hx
    own_w = (iF + 1) <= nx - 2   # and the W-face of (iF+1, jF): -1/hx
    for (di, dj), dv in deps.items():
        kk, ll = iF + di, jF + dj
        add(iF[own_e], jF[own_e], kk[own_e], ll[own_e], (dv / hx)[own_e])
        add(iF[own_w] + 1, jF[own_w], kk[own_w], ll[own_w], (-dv / hx)[own_w])

    # horizontal faces: i in 1..nx-2, j in 0..ny-2
    iF, jF = np.meshgrid(np.arange(1, nx - 1), np.arange(0, ny - 1), indexing="ij")
    gn = (u[iF, jF + 1] - u[iF, jF]) / hy
    gt = (u[iF + 1, jF] + u[iF + 1, jF + 1] - u[iF - 1, jF] - u[iF - 1, jF + 1]) / (4 * hx)
    w = gn * gn + gt * gt + eps * eps
    gam = w ** ((p - 2.0) / 2.0)
    dgam_dw = (p - 2.0) / 2.0 * w ** ((p - 4.0) / 2.0)
    dF_dgn = gam + 2.0 * gn * gn * dgam_dw
    deps = {(0, 0): -dF_dgn / hy, (0, 1): dF_dgn / hy}
    if tangential:
        dF_dgt = 2.0 * gn * gt * dgam_dw
        deps.update({(1, 0): dF_dgt / (4 * hx), (1, 1): dF_dgt / (4 * hx),
                     (-1, 0): -dF_dgt / (4 * hx), (-1, 1): -dF_dgt / (4 * hx)})
    own_n = jF >= 1
    own_s = (jF + 1) <= ny - 2
    for (di, dj), dv in deps.items():
        kk, ll = iF + di, jF + dj
        add(iF[own_n], jF[own_n], kk[own_n], ll[own_n], (dv / hy)[own_n])
        add(iF[own_s], jF[own_s] + 1, kk[own_s], ll[own_s], (-dv / hy)[own_s])

    flat = np.arange(N)
    rows.append(flat)
    cols.append(flat)
    vals.append(-_force_prime(force, u[1:-1, 1:-1]).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N)).tocsc()


def _gauss_seidel(u, grid, p, eps, force, m, nsweeps):
    """Red-black sweeps with one frozen-coefficient scalar Newton step per
    node; builds usable gradients when the flat start stalls Newton."""
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    interior = np.zeros((nx, ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    colors = [((I + J) % 2 == 0) & interior, ((I + J) % 2 == 1) & interior]
    u = u.copy()
    for _ in range(nsweeps):
        for color in colors:
            uN = np.roll(u, -1, 1); uS = np.roll(u, 1, 1)
            uE = np.roll(u, -1, 0); uW = np.roll(u, 1, 0)
            gE = (uE - u) / hx; gW = (u - uW) / hx
            gN = (uN - u) / hy; gS = (u - uS) / hy
            gamE = (gE * gE + eps * eps) ** ((p - 2) / 2)
            gamW = (gW * gW + eps * eps) ** ((p - 2) / 2)
            gamN = (gN * gN + eps * eps) ** ((p - 2) / 2)
            gamS = (gS * gS + eps * eps) ** ((p - 2) / 2)
            fu = np.asarray(force.value(np.maximum(u, 0.0)), dtype=float)
            R = (gamE * gE - gamW * gW) / hx + (gamN * gN - gamS * gS) / hy - fu
            aP = ((gamE + gamW) / hx ** 2 + (gamN + gamS) / hy ** 2
                  + _force_prime(force, np.maximum(u, 0.0)))
            u = np.where(color, u + R / aP, u)
    u[0, :] = m; u[-1, :] = m; u[:, 0] = m; u[:, -1] = m
    return u


def solve_dirichlet(grid: Grid2D, op: Operator, force: Force, m: float,
                    cfg: SolverConfig = SolverConfig(),
                    initial: Optional[np.ndarray] = None) -> DiscreteField:
    """Converged field for boundary data m, from u = m (or the warm start).

    Chord/damped Newton (Kelley 2003, ch. 2 and 5): while an LU of the
    Jacobian is kept, each step first tries the full chord step with it and
    accepts it when it stays in [0, m] and its scaled residual is at most
    _CHORD_CONTRACTION times the current one.  Otherwise the Jacobian is
    assembled and factored (MMD ordering on A^T + A) at the current iterate
    for a damped Newton step: halvings until the scaled residual falls, with
    a projection onto [0, m] counted in ``clip_activations``, and a red-black
    Gauss-Seidel rescue when no halving helps or the Jacobian is singular.
    The LU is dropped after a damped step with alpha < 1 and after a rescue.
    ``iterations`` counts accepted steps of either kind, ``factorizations``
    the LUs; the final scaled residual lands just under ``tol_res``."""
    if op.kind != "p-laplace":
        raise ValidationError("the 2D solver supports p-laplace operators only")
    if m < 0.0:
        raise ValueError("boundary value m must be >= 0")
    p = op.p
    u = np.full((grid.nx, grid.ny), float(m)) if initial is None else initial.copy()
    u[0, :] = m; u[-1, :] = m; u[:, 0] = m; u[:, -1] = m
    if m == 0.0:
        return DiscreteField(grid, u * 0.0, 0.0, cfg.eps, op, force,
                             {"iterations": 0, "factorizations": 0, "final_residual": 0.0,
                              "clip_activations": 0, "gs_rescues": 0})

    def outside(v):
        return (v < -1e-12) | (v > m * (1.0 + 1e-12))

    clip_count = 0
    gs_rescues = 0
    factorizations = 0
    lu = None
    R, fu = _residual_interior(u, grid, p, cfg.eps, force)
    rn = _scaled_norm(R, fu)
    it = 0
    while rn > cfg.tol_res:
        if it >= cfg.max_newton:
            raise SolverError(
                f"no convergence in {cfg.max_newton} Newton iterations "
                f"(m = {m:g}, last scaled residual {rn:.3e})")
        if lu is not None:
            u_try = u.copy()
            u_try[1:-1, 1:-1] += lu.solve(-R.ravel()).reshape(R.shape)
            if not outside(u_try).any():
                try:
                    R_try, fu_try = _residual_interior(u_try, grid, p, cfg.eps, force)
                except SolverError:
                    rn_try = math.inf
                else:
                    rn_try = _scaled_norm(R_try, fu_try)
                if rn_try <= _CHORD_CONTRACTION * rn:
                    u, R, rn = u_try, R_try, rn_try
                    it += 1
                    continue
        lu = None       # free the old factor before the new one is built
        J = _assemble_jacobian(u, grid, p, cfg.eps, force)
        try:
            lu = spla.splu(J, permc_spec="MMD_AT_PLUS_A")
            factorizations += 1
        except RuntimeError:    # exactly singular, e.g. NaN entries where eps^2
            pass                # underflows on a flat field: rescue below
        alpha, improved = 1.0, False
        if lu is not None:
            delta = lu.solve(-R.ravel()).reshape(R.shape)
            for _ in range(cfg.max_halvings):
                u_try = u.copy()
                u_try[1:-1, 1:-1] += alpha * delta
                over = outside(u_try)
                if over.any():
                    clip_count += int(over.sum())
                    np.clip(u_try, 0.0, m, out=u_try)
                try:
                    R_try, fu_try = _residual_interior(u_try, grid, p, cfg.eps, force)
                except SolverError:
                    alpha *= 0.5
                    continue
                rn_try = _scaled_norm(R_try, fu_try)
                if rn_try < rn:
                    improved = True
                    break
                alpha *= 0.5
        if improved:
            u, R, rn = u_try, R_try, rn_try
            if alpha < 1.0:
                lu = None
        else:
            lu = None
            gs_rescues += 1
            if gs_rescues > 5:
                raise SolverError(f"Newton stalled despite Gauss-Seidel rescues (m = {m:g})")
            u = _gauss_seidel(u, grid, p, cfg.eps, force, m, cfg.gs_sweeps)
            np.clip(u, 0.0, m, out=u)
            R, fu = _residual_interior(u, grid, p, cfg.eps, force)
            rn = _scaled_norm(R, fu)
        it += 1
    return DiscreteField(grid, u, float(m), cfg.eps, op, force,
                         {"iterations": it, "factorizations": factorizations,
                          "final_residual": rn, "clip_activations": clip_count,
                          "gs_rescues": gs_rescues})


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

    def table(self) -> list[dict]:
        return [level.__dict__ for level in self.levels]


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
    """The m* with Psi_p(m*) = layer_factor * h, or None when the tail
    functional diverges (KO fails: no cap, escalation must be caught by the
    no-plateau detector).

    The schedule is walked to its first value m with Psi_p(m) <= layer_factor
    * h; m* is then solved for on [m / m_factor, m] (relative tolerance 1e-10)
    rather than rounded up to m, so grids of every mesh width stop at the same
    layer resolution.  A cap at or below m_start is m_start itself."""
    h = max(grid.hx, grid.hy)
    target = cfg.layer_factor * h
    m = cfg.m_start
    try:
        for _ in range(cfg.max_levels):
            if ko_mod.psi(op, force, m) <= target:
                break
            m *= cfg.m_factor
        else:
            return m
    except DivergenceError:
        return None
    if m == cfg.m_start:
        return m
    return float(brentq(lambda r: ko_mod.psi(op, force, r) - target,
                        m / cfg.m_factor, m, rtol=1e-10))


def escalate_m(grid: Grid2D, op: Operator, force: Force,
               cfg: SolverConfig = SolverConfig()) -> EscalationResult:
    """Escalate the boundary data m (doubling, warm starts) toward the
    blow-up limit.  Stops at the increment plateau on the interior compact K
    or at the layer-resolution cap m* of :func:`layer_cap_m`, whichever comes
    first; a doubling that would pass m* steps to m* instead, so a capped
    escalation ends exactly at Psi_p(m) = layer_factor * h.  A schedule that
    exhausts with non-decreasing increments is flagged as numerically
    violating the blow-up growth condition."""
    if op.kind != "p-laplace":
        raise ValidationError("the 2D solver supports p-laplace operators only")
    m_cap = layer_cap_m(op, force, grid, cfg)
    mask = None
    prev = None
    levels: list[EscalationLevel] = []
    field_ = None
    m = cfg.m_start
    stop = "schedule-exhausted"
    sup_incs: list[float] = []
    for _ in range(cfg.max_levels):
        field_ = solve_dirichlet(grid, op, force, m,
                                 cfg, initial=None if prev is None else prev.values)
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
    fields = []
    reasons = []
    for grid in family_grids(ells, nx):
        res = escalate_m(grid, op, force, cfg)
        fields.append(res.field)
        reasons.append(res.stop_reason)

    worst = max(0.0, ell_monotonicity_violation(fields))
    defects = tuple(symmetry_defect(f) for f in fields)
    report = CylinderReport(tuple(float(e) for e in ells), worst <= 1e-6, worst,
                            defects, tuple(reasons))
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
        d = np.diff(w) / hx
        s = d * d + eps * eps
        dF = s ** ((p - 4.0) / 2.0) * ((p - 1.0) * d * d + eps * eps) / (hx * hx)
        bands = np.zeros((3, g.nx - 2))
        bands[0, 1:] = dF[1:-1]
        bands[1] = -(dF[1:] + dF[:-1]) - _force_prime(force, w[1:-1])
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
    v = np.array([profile.value(float(x)) for x in xs[mask]])
    err_mid = float(np.max(np.abs(mid[mask] - v)))
    ell = field_.grid.ell
    half = ell / 2.0
    quarter_errs = []
    for ysl in (-half, half):
        sl = field_.slice_at(ysl)
        quarter_errs.append(float(np.max(np.abs(sl[mask] - v))))
    return CrossSectionReport(err_mid, err_mid / float(np.max(np.abs(v))),
                              max(quarter_errs), x_window)
