"""Finite-difference solver for div(|grad u|^{p-2} grad u) = f(u) on rectangles.

Discretization: face fluxes gamma_face * (du/dn)/h with
gamma = (|grad u|^2 + EPS^2)^{(p-2)/2}; the face gradient takes the normal
difference plus an averaged tangential difference.  Each formula lives once:
_face_differences (the y-faces are the x-face call on u.T), _face_gamma, and
_flux_derivatives for every Jacobian.  For p = 2 the scheme is exactly the
5-point Laplacian.  Solved by chord/damped Newton on the exact Jacobian
(9-point, or 5-point for p = 2, where the tangential entries vanish), for
p > 2 from the half-line boundary-layer profile U(d) = Phi(Psi(m) + d) of
Bandle & Marcus (J. Anal. Math. 58, 1992), where u = m would leave gamma =
EPS^{p-2} and a flat Newton step; a stalled solve restarts once from it.
Constant data and a mirror-invariant scheme make the solution even in each
axis, so residual, Jacobian, LU and predictor act only on the nodes with
k <= n-1-k per axis (Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal.
29, 1992), a quarter in 2D, plus a halo node per axis that copies its mirror.
Numbered with the shorter axis fastest, the Jacobian is a band: its pattern is
built once per grid, each step sums its terms straight into LAPACK band
storage, and the LU is LAPACK's band LU with partial pivoting (dgbtrf/dgbtrs;
Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM 1999).  The last LU is
kept, also across m levels: a chord step with it is accepted when it at least
halves the scaled residual (_CHORD_CONTRACTION); otherwise the Jacobian is
refactored at the current iterate for a damped Newton step.  Both reject a trial outside [0, m].  One loop, _newton, solves the field and
its discrete cross-section alike.

Boundary blow-up is approached through finite constant data m, doubled per
level as a continuation in m (Allgower & Georg 1990, ch. 2) with a tangent
predictor.  A fixed grid cannot follow the boundary layer once
its width Psi_p(m) drops below the mesh size - past that point the discrete
solution at boundary-adjacent nodes grows without bound (there is no
discrete analogue of the interior blow-up bound), so the escalation ends at
the m* with Psi_p(m*) = LAYER_FACTOR * h: the doubling that would pass m*
steps to m* itself.  The method's settings are the constants below; only the
number of levels is a caller's choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import ko as ko_mod
from . import ode1d
from .artifacts import write_csv, write_grid_csv, write_json
from .errors import BracketError, DivergenceError, SolverError, ValidationError
from .registry import Force, Operator

_CHORD_CONTRACTION = 0.5    # a chord step must cut the scaled residual by this
MAX_NEWTON = 60             # Newton steps per solve, in 2D and on the cross-section
MAX_HALVINGS = 30           # line-search halvings per damped step, likewise
EPS = 1e-8                  # gradient regularization
TOL_RES = 1e-9              # scaled residual sup-norm of a converged field
M_START = 2.0               # boundary data of the first level
M_FACTOR = 2.0              # the escalation doubles m per level
MAX_LEVELS = 24             # default cap on the number of levels
LAYER_FACTOR = 0.5          # cap: stop once Psi_p(m) <= LAYER_FACTOR * h
COMPACT_SCALE = 0.75        # K = the centered sub-rectangle at this scale
X_WINDOW = 0.9              # slices are graded on |x| <= X_WINDOW


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
    def edge_distances(self) -> tuple[np.ndarray, np.ndarray]:
        """Distance of each x-node and of each y-node to the nearer end of its axis."""
        return tuple(k.ravel() * h for k, h in zip(_mirror((self.nx, self.ny)),
                                                   (self.hx, self.hy)))

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.nx)

    @property
    def y_nodes(self) -> np.ndarray:
        return np.linspace(-self.ell, self.ell, self.ny)

    @property
    def window(self) -> np.ndarray:
        """The x-nodes with |x| <= X_WINDOW, where slices are graded."""
        return np.abs(self.x_nodes) <= X_WINDOW + 1e-12

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


@dataclass(frozen=True, eq=False)
class DiscreteField:
    grid: Grid2D
    values: np.ndarray          # (nx, ny), boundary rows/cols hold m
    m: float
    op: Operator
    force: Force
    diagnostics: dict = field(default_factory=dict)

    def mid_slice(self) -> tuple[np.ndarray, np.ndarray]:
        """(x_nodes, u(x, 0)); the grid always carries a y = 0 node."""
        j = (self.grid.ny - 1) // 2
        return self.grid.x_nodes, self.values[:, j].copy()

    def slice_at(self, y: float) -> np.ndarray:
        return self.values[:, self.grid.node_index(y)].copy()

    def compact_mask(self) -> np.ndarray:
        X, Y = np.meshgrid(self.grid.x_nodes, self.grid.y_nodes, indexing="ij")
        return (np.abs(X) <= COMPACT_SCALE) & (np.abs(Y) <= COMPACT_SCALE * self.grid.ell)

    def to_csv(self, path) -> None:
        write_grid_csv(path, "x,y,u", (self.grid.x_nodes, self.grid.y_nodes), self.values)

    def to_json(self, path) -> None:
        write_json(path, {
            "grid": {"ell": self.grid.ell, "nx": self.grid.nx, "ny": self.grid.ny},
            "m": self.m, "eps": EPS,
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
    R, _ = _residual_interior(field_.values, field_.grid, field_.op.p, EPS, field_.force)
    return np.pad(R, 1)


def _scaled_norm(R, fu):
    return float(np.max(np.abs(R) / np.maximum(1.0, fu)))


@lru_cache(maxsize=4)     # a grid's field and its cross-section
def _band_layout(shape):
    """(number, order): the mirror representatives of a field of this shape
    numbered with the axis of fewer fastest, which makes the Jacobian a band of
    about that half-width; number[k] is the unknown at :func:`_quarter` node k
    (its mirror's on the halo, -1 on the boundary), np.append(R, 0)[order]
    lists R at the representatives in that numbering."""
    reps = tuple((n - 1) // 2 for n in shape)
    x_first = reps[0] < reps[-1]
    inner = np.arange(math.prod(reps)).reshape(reps[::-1] if x_first else reps)
    inner = inner.T if x_first else inner
    return (np.pad(inner, 1, constant_values=-1)[_quarter(shape)],
            np.append(np.argsort(inner, axis=None), inner.size))


@lru_cache(maxsize=1)     # one grid per escalation; more measured a higher peak RSS
def _jacobian_pattern(nx, ny, nine_point):
    """(positions, source, shape) of the 5- or 9-point Jacobian at the mirror
    representatives of an nx x ny grid, from the faces of its :func:`_quarter`:
    term k is entry source[k] of the vector that :func:`_assemble_jacobian`
    builds, at flat position positions[k] of Fortran-ordered band storage of
    this shape (A[i, j] at [2 bw + i - j, j], bw the half-bandwidth)."""
    col = _band_layout((nx, ny))[0]     # each quarter node's unknown; columns fold the halo
    row = col.copy()                    # rows drop it
    row[-1, :] = row[:, -1] = -1
    rows, cols, source = [], [], []
    offset = 0
    # faces between (i, j) and (i, j) + n, i >= t[0] and j >= t[1]; the flux
    # enters the residual at (i, j) with +1/hn and at (i, j) + n with -1/hn
    for n, t in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        shape = (row.shape[0] - 1 - t[0], row.shape[1] - 1 - t[1])

        def node(index, d):     # index at face + d, for each face
            return index[t[0] + d[0]:t[0] + d[0] + shape[0], t[1] + d[1]:t[1] + d[1] + shape[1]]

        # (node the flux depends on, its term in the row of the face's first
        # node: 0 = s, 1 = -s, 2 = c, 3 = -c); the second node's row takes v ^ 1
        deps = [((0, 0), 1), (n, 0)]
        if nine_point:
            deps += [(t, 2), ((n[0] + t[0], n[1] + t[1]), 2),
                     ((-t[0], -t[1]), 3), ((n[0] - t[0], n[1] - t[1]), 3)]
        for d, v in deps:
            c = node(col, d)
            for r, value in ((node(row, (0, 0)), v), (node(row, n), v ^ 1)):
                keep = (r >= 0) & (c >= 0)
                rows.append(r[keep]); cols.append(c[keep])
                source.append(np.flatnonzero(keep) + (offset + value * r.size))
        offset += 4 * r.size
    diagonal = row[1:-1, 1:-1].ravel()     # -f'(u) in C order
    rows.append(diagonal); cols.append(diagonal)
    source.append(np.arange(diagonal.size) + offset)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    bw = int(np.max(np.abs(rows - cols)))
    positions = (3 * bw + 1) * cols + 2 * bw + rows - cols
    sweep = np.argsort(positions, kind="stable")   # in band order, each entry's sum kept
    pattern = (positions[sweep], np.concatenate(source)[sweep], (3 * bw + 1, diagonal.size))
    for a in pattern[:2]:
        a.flags.writeable = False   # shared by every Jacobian on the grid
    return pattern


def _assemble_jacobian(u, grid, p, eps, force):
    """Exact Jacobian of the residual at the mirror representatives along even
    directions, at the grid's :func:`_quarter` u, as the Fortran-ordered band
    of :func:`_jacobian_pattern`, 5-point for p = 2 (dF/dg_t carries p - 2);
    each entry sums its terms in the pattern's order."""
    positions, source, shape = _jacobian_pattern(grid.nx, grid.ny, p != 2.0)
    values = []     # per face axis s, -s, c, -c; then -f'(u)
    for uu, hn, ht, transposed in ((u, grid.hx, grid.hy, False),
                                   (u.T, grid.hy, grid.hx, True)):
        dF_dgn, dF_dgt = _flux_derivatives(*_face_differences(uu, hn, ht), p, eps)
        # a COO term is (+-dF_dgn / hn) / hn or (+-dF_dgt / (4 ht)) / hn, and
        # (-x) / h is -(x / h) bit for bit
        s, c = dF_dgn / hn / hn, dF_dgt / (4 * ht) / hn
        values += [(a.T if transposed else a).ravel() for a in (s, -s, c, -c)]
    values = np.concatenate(values + [-force.derivative(u[1:-1, 1:-1]).ravel()])
    return np.bincount(positions, values[source], shape[0] * shape[1]).reshape(shape[::-1]).T


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


def _layer_profile(dist, op, force, m):
    """U(d) = Phi(Psi(m) + d) at every node, d its distance to the boundary
    (an array of any shape): one shot of U' = -B^-1(F(U)), U(0) = m, sampled
    at the distinct distances; SolverError when the shot fails or is not finite."""
    d, node = np.unique(dist.ravel(), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(lambda d, U: -op.energy_inverse(force.primitive(np.maximum(U, 0.0))),
                        (0.0, d[-1]), [float(m)], method="DOP853", t_eval=d,
                        rtol=1e-6)
    if sol.status != 0 or not np.all(np.isfinite(sol.y)):
        raise SolverError(f"the boundary-layer shot failed (m = {m:g}): {sol.message}")
    return np.maximum(sol.y[0], 0.0)[node].reshape(dist.shape)


def _mirror(shape):
    """The np.ix_ mesh of mirror representatives, k -> min(k, n-1-k) per axis."""
    return np.ix_(*(np.minimum(np.arange(n), np.arange(n)[::-1]) for n in shape))


def _quarter(shape):
    """:func:`_mirror` on the nodes k <= (n-1)//2 + 1 per axis: indexing a field
    of this shape with it gives its quarter (the representatives, the boundary
    before them and one halo node per axis), indexing a quarter refills its halo."""
    return np.ix_(*(k.ravel()[:(n - 1) // 2 + 2] for n, k in zip(shape, _mirror(shape))))


def _factor(band, shape, where):
    """The band LU with partial pivoting (dgbtrf, in place) of a Jacobian in
    Fortran-ordered band storage with kl = ku = (rows - 1) / 3, and the
    :func:`_band_layout` of its field's shape; SolverError at a zero pivot."""
    bw = (band.shape[0] - 1) // 3
    lu, piv, info = dgbtrf(band, bw, bw, overwrite_ab=True)
    if info > 0:
        raise SolverError(f"singular Jacobian{where}: zero pivot in column {info - 1}")
    return (lu, piv, bw) + _band_layout(shape)


def _correction(factor, R):
    """-J^-1 R on the quarter, by dgbtrs; its trailing 0 is the boundary's."""
    lu, piv, bw, number, order = factor
    return dgbtrs(lu, bw, bw, np.append(-R, 0.0)[order], piv, overwrite_b=True)[0][number]


def _newton(u, m, dist, op, force, residual, jacobian, tol, lu, where):
    """Chord/damped Newton (Kelley 2003, ch. 2 and 5) on the interior of an
    even field u of any dimension with boundary values m, to a scaled residual
    max |R| / max(1, f(u)) <= tol; returns the field and its diagnostics.  The
    iterate is u's :func:`_quarter`, whose halo moves with its mirror, and is
    mirrored out on return: ``residual(v)`` gives (R, f(v)) at its
    representatives or raises SolverError, and ``jacobian(v)`` the Jacobian
    there, each halo column folded onto its mirror's, in the band storage of
    :func:`_factor` on the :func:`_band_layout` numbering.

    A trial that leaves [0, m] or has a non-finite residual is rejected like
    one whose scaled residual is too large.  While an LU is kept, each step
    first tries the full chord step with it, accepted at most
    _CHORD_CONTRACTION times the current scaled residual; otherwise the
    Jacobian is factored (:func:`_factor`) at the iterate for
    a damped Newton step, halved until the scaled residual falls.  When no
    halving helps, the solve restarts once from :func:`_layer_profile` at the
    node distances ``dist`` (counted in ``gs_rescues``) and scales later
    trials by the current iterate's max(1, f(u)); a second stall, MAX_NEWTON
    steps or a zero pivot raise SolverError naming ``where``.  The LU is dropped
    after a damped step with alpha < 1 and at a restart.  The one-slot list
    ``lu`` carries an LU in and the last LU out, and is emptied before each
    factorisation.  ``iterations`` counts accepted steps, ``factorizations``
    the LUs."""
    shape, fill = u.shape, _quarter(u.shape)
    u = u[fill]

    def score(v):
        """(R, f(v), merit) at a trial field; the merit is inf for a rejected one."""
        if ((v < -1e-12) | (v > m * (1.0 + 1e-12))).any():
            return None, None, math.inf
        try:
            R_v, fu_v = residual(v)
        except SolverError:
            return None, None, math.inf
        return R_v, fu_v, _scaled_norm(R_v, fu if frozen else fu_v)

    restarts, frozen, factorizations = 0, False, 0
    R, fu = residual(u)
    rn = _scaled_norm(R, fu)
    it = 0
    while rn > tol:
        if it >= MAX_NEWTON:
            raise SolverError(
                f"no convergence{where} in {MAX_NEWTON} Newton iterations "
                f"(m = {m:g}, last scaled residual {rn:.3e})")
        if lu[0] is not None:
            u_try = u + _correction(lu[0], R)
            R_try, fu_try, rn_try = score(u_try)
            if rn_try <= _CHORD_CONTRACTION * rn:
                u, R, fu, rn = u_try, R_try, fu_try, _scaled_norm(R_try, fu_try)
                it += 1
                continue
        lu[0] = None    # free the old factor before the new one is built
        lu[0] = _factor(jacobian(u), shape, where)
        factorizations += 1
        delta = _correction(lu[0], R)
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            u_try = u + alpha * delta
            R_try, fu_try, rn_try = score(u_try)
            if rn_try < rn:
                u, R, fu, rn = u_try, R_try, fu_try, _scaled_norm(R_try, fu_try)
                if alpha < 1.0:
                    lu[0] = None
                break
            alpha *= 0.5
        else:
            if frozen:
                raise SolverError(f"Newton stalled{where} from the boundary-layer profile "
                                  f"(m = {m:g}, scaled residual {rn:.3e})")
            # a flat interior scores 1 at any level; under a scaling frozen at
            # the current iterate the merit is one norm, along which Newton descends
            lu[0], restarts, frozen = None, 1, True
            u = _layer_profile(dist[fill], op, force, m)
            R, fu = residual(u)
            rn = _scaled_norm(R, fu)
        it += 1
    # nothing is clipped and gs_rescues counts restarts; bench/tracing.py reads both keys
    return u[_mirror(shape)], {"iterations": it, "factorizations": factorizations,
                               "clip_activations": 0, "gs_rescues": restarts}


def solve_dirichlet(grid: Grid2D, op: Operator, force: Force, m: float,
                    initial: Optional[np.ndarray] = None, *,
                    factor: Optional[list] = None) -> DiscreteField:
    """Converged field for boundary data m, from the given start, else from
    the boundary-layer profile of :func:`_layer_profile` for p > 2 and from
    u = m for p <= 2 (where gamma = EPS^{p-2} >= 1 on the flat start), by
    :func:`_newton` to TOL_RES with the LU slot ``factor``.  ``final_residual``
    is read on every node: at p != 2 the residual is not exactly even."""
    if op.kind != "p-laplace":
        raise ValidationError("the 2D solver supports p-laplace operators only")
    if m < 0.0:
        raise ValueError("boundary value m must be >= 0")
    p = op.p
    dist = np.minimum.outer(*grid.edge_distances)
    u = (initial.copy() if initial is not None else _layer_profile(dist, op, force, m)
         if p > 2.0 else np.full((grid.nx, grid.ny), float(m)))
    u[0, :] = m; u[-1, :] = m; u[:, 0] = m; u[:, -1] = m
    u, diagnostics = _newton(u, m, dist, op, force,
                             lambda v: _residual_interior(v, grid, p, EPS, force),
                             lambda v: _assemble_jacobian(v, grid, p, EPS, force),
                             TOL_RES, [None] if factor is None else factor, "")
    diagnostics["final_residual"] = _scaled_norm(*_residual_interior(u, grid, p, EPS, force))
    return DiscreteField(grid, u, float(m), op, force, diagnostics)


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
    stop_reason: str            # "layer-cap" | "schedule-exhausted"
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


def layer_cap_m(op: Operator, force: Force, grid: Grid2D) -> float:
    """The m* = Phi_p(LAYER_FACTOR * h), where Psi_p(m*) = LAYER_FACTOR * h, or
    inf when the tail functional diverges (KO fails: no cap; the schedule
    runs out and :func:`escalate_m` grades the growth of its increments).

    m* is solved for (to about 1e-12 relative) rather than rounded to the
    doubling schedule, so grids of every mesh width stop at the same layer
    resolution; :func:`ko.phi` caches it per (op, force, h).  When Phi cannot
    bracket m* in [1e-14, 1e14] (or LAYER_FACTOR * h reaches a dead core's L),
    Psi_p(M_START) tells which end it is: 0.0 (the first level stops) or inf
    (the cap never stops).  :func:`escalate_m`'s schedule bounds the cap: one
    at or below M_START stops after the first level, and one past the last
    level's m is never reached."""
    target = LAYER_FACTOR * max(grid.hx, grid.hy)
    try:
        return ko_mod.phi(op, force, target)
    except DivergenceError:
        return math.inf
    except BracketError:
        return 0.0 if ko_mod.psi(op, force, M_START) <= target else math.inf


def escalate_m(grid: Grid2D, op: Operator, force: Force, *,
               max_levels: int = MAX_LEVELS) -> EscalationResult:
    """Escalate the boundary data m (doubling from M_START, at most
    ``max_levels`` levels) toward the blow-up limit.
    Each level starts from the tangent predictor u_prev + (m - m_prev) du/dm,
    J du/dm = -J e (e = 1 on the boundary), solved on the quarter with the
    previous level's last LU, which its solve then reuses; without an LU,
    from u_prev.  Stops at the layer-resolution cap m* of
    :func:`layer_cap_m` or when the schedule runs out; a doubling that would
    pass m* steps to m* instead, so a capped escalation ends exactly at
    Psi_p(m) = LAYER_FACTOR * h.  A schedule that exhausts with non-decreasing
    increments on the interior compact K is flagged as numerically violating
    the blow-up growth condition."""
    if op.kind != "p-laplace":
        raise ValidationError("the 2D solver supports p-laplace operators only")
    m_cap = layer_cap_m(op, force, grid)
    lu = [None]         # the last LU of a level, carried into the next
    prev = None
    levels: list[EscalationLevel] = []
    field_ = None
    m = M_START
    stop = "schedule-exhausted"
    for _ in range(max_levels):
        start = None if prev is None else prev.values
        if prev is not None and lu[0] is not None:      # the tangent predictor
            e = np.pad(np.zeros((grid.nx - 2, grid.ny - 2)), 1, constant_values=1.0)
            quarter = _quarter(e.shape)
            Je = _jacobian_times(start[quarter], e[quarter], grid, op.p, EPS, force)
            du = _correction(lu[0], Je)[_mirror(e.shape)]
            start = start + (m - prev.m) * (e + du)
        field_ = solve_dirichlet(grid, op, force, m, initial=start, factor=lu)
        center = float(field_.values[(grid.nx - 1) // 2, (grid.ny - 1) // 2])
        if prev is None:
            sup_inc, min_inc, mask = None, None, field_.compact_mask()
        else:
            diff = field_.values - prev.values
            sup_inc = float(np.max(diff[mask]))
            min_inc = float(np.min(diff))
        levels.append(EscalationLevel(m, center, sup_inc, min_inc,
                                      gradient_energy(field_, mask),
                                      field_.diagnostics["iterations"]))
        if m >= m_cap:
            stop = "layer-cap"
            break
        prev = field_
        m = min(m * M_FACTOR, m_cap)

    centers = [lv.center for lv in levels]
    last = [lv.sup_increment_K for lv in levels[1:]][-3:]
    ko_violated = (stop == "schedule-exhausted" and len(last) >= 3
                   and all(b > a for a, b in zip(centers, centers[1:]))
                   and all(b >= a * (1.0 - 1e-6) for a, b in zip(last, last[1:])))
    return EscalationResult(field_, tuple(levels), stop, ko_violated)


def family_grids(ells: Sequence[float], nx: int) -> list[Grid2D]:
    """grid_for_ell for each ell; ValueError unless the ells strictly increase,
    each grid nests in the next, and each has nodes at y = 0 and ell/2 (the
    mid-slice and cross_section_compare read them)."""
    if not all(a < b for a, b in zip(ells, ells[1:])):
        raise ValueError(f"ells must be strictly increasing, got {list(ells)}")
    grids = [grid_for_ell(float(ell), nx) for ell in ells]
    for grid in grids:
        for y in (0.0, grid.ell / 2.0):
            grid.node_index(y)
    for a, b in zip(grids, grids[1:]):
        nested_offset(a, b)
    return grids


def ell_monotonicity_violation(fields: Sequence[DiscreteField]) -> float:
    """Largest pointwise increase from a shorter to a longer cylinder on the
    shared (nested) y-nodes of the interior x-rows (both fields hold m on
    the x-boundary); negative values mean strict decrease, -inf for fewer
    than two fields."""
    worst = -math.inf
    for a, b in zip(fields, fields[1:]):
        offset = nested_offset(a.grid, b.grid)
        worst = max(worst, float(np.max(b.values[1:-1, offset:offset + a.grid.ny]
                                        - a.values[1:-1])))
    return worst


def discrete_cross_section(field_: DiscreteField) -> np.ndarray:
    """w on the field's x-nodes: the y-independent solution of the same
    face-flux scheme with the field's m, force and x-grid.

    Away from the ends y = +-ell the mid-slice u(x, 0) converges to w as ell
    grows; w differs from the 1D large solution v by the discretisation error
    of the cross-section at this m.  Solved by the field's own Newton loop,
    :func:`_newton`, on the tridiagonal 1D reduction to a scaled residual of
    1e-12, started from the mid-slice."""
    g, force = field_.grid, field_.force
    p, hx = field_.op.p, g.hx

    def residual_1d(w):
        # the 2D residual of a strip constant in y: tangential differences
        # and the y-fluxes vanish, so this is the scheme's 1D reduction
        R, fu = _residual_interior(np.repeat(w[:, None], 3, axis=1), g, p, EPS, force)
        return R[:, 0], fu[:, 0]

    halo = _quarter((g.nx,))[0][-1] - 1     # the column of the halo's mirror

    def jacobian_1d(w):     # a band with kl = ku = 1: A[i, j] at [2 + i - j, j]
        dF = _flux_derivatives(np.diff(w) / hx, 0.0, p, EPS)[0] / (hx * hx)   # g_t = 0
        band = np.zeros((4, w.size - 2), order="F")
        band[1, 1:] = band[3, :-1] = dF[1:-1]
        band[2] = -(dF[1:] + dF[:-1]) - force.derivative(w[1:-1])
        band[2 + w.size - 3 - halo, halo] += dF[-1]
        return band

    return _newton(field_.mid_slice()[1], field_.m, g.edge_distances[0], field_.op, force,
                   residual_1d, jacobian_1d, 1e-12, [None],
                   " on the discrete cross-section")[0]


@dataclass(frozen=True)
class CrossSectionReport:
    sup_error_mid: float        # sup |u(x, 0) - v(x)| on |x| <= X_WINDOW
    rel_error_mid: float        # sup error / sup |v| on the window; inf if sup |v| = 0
    sup_error_quarter: float    # same at y = +-ell/2 (decay diagnostic)


def cross_section_compare(field_: DiscreteField, profile: ode1d.Profile1D
                          ) -> CrossSectionReport:
    """Mid-slice against the 1D cross-section large solution; the quarter slice
    is read at y = +ell/2 alone (the field is mirror-exact in y)."""
    xs, mid = field_.mid_slice()
    mask = field_.grid.window
    v = profile.value(xs[mask])
    err_mid = float(np.max(np.abs(mid[mask] - v)))
    sup_v = float(np.max(np.abs(v)))
    quarter = field_.slice_at(field_.grid.ell / 2.0)[mask]
    return CrossSectionReport(err_mid, err_mid / sup_v if sup_v > 0.0 else math.inf,
                              float(np.max(np.abs(quarter - v))))
