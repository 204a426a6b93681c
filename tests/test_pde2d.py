import itertools
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from blowup_lab import (Grid2D, SolverError, ValidationError, escalate_m,
                        grid_for_ell, large_profile, make_force, make_operator,
                        residual, solve_dirichlet, v0_of_ell)
from blowup_lab import pde2d
from blowup_lab.pde2d import (DiscreteField, _assemble_jacobian, _face_differences,
                              _flux_derivatives, _jacobian_times, _residual_interior)

from conftest import psi_power_closed_form


def make_field(grid, op, force, values, m):
    return DiscreteField(grid, values, m, op, force)


def even(u):
    """u mirrored from its low-index quarter: even in each axis."""
    return u[pde2d._mirror(u.shape)]


def quarter(u):
    """The quarter of u that the Newton loop keeps, its halo refilled."""
    return u[pde2d._quarter(u.shape)]


def symmetry_defect(field_):
    """The largest change of the field under the mirror of either axis."""
    u = field_.values
    return float(max(np.max(np.abs(u - u[::-1, :])), np.max(np.abs(u - u[:, ::-1]))))


def representatives(grid):
    return (grid.nx - 1) // 2, (grid.ny - 1) // 2


def spread(values, shape):
    """The even field of this shape with these values at the representatives
    and 0 on the boundary."""
    return np.pad(values, 1)[pde2d._mirror(shape)]


def band_to_dense(band, shape):
    """The matrix held in a Fortran-ordered LAPACK band of half-bandwidth
    (rows - 1) / 3 on the unknowns of a field of this shape, as a dense matrix
    on its representatives in C order; the fill-in rows and the slots past the
    matrix's corners must hold 0."""
    bw, N = (band.shape[0] - 1) // 3, band.shape[1]
    r, j = np.mgrid[:band.shape[0], :N]
    i = r - 2 * bw + j
    inside = (r >= bw) & (i >= 0) & (i < N)
    assert not band[~inside].any()
    A = np.zeros((N, N))
    A[i[inside], j[inside]] = band[inside]
    order = pde2d._band_layout(shape)[1][:-1]     # C index of each unknown
    C = np.empty_like(A)
    C[np.ix_(order, order)] = A
    return C


def jacobian_matrix(u, grid, p, eps, force):
    """_assemble_jacobian at an even field's quarter, dense on its representatives."""
    return band_to_dense(_assemble_jacobian(quarter(u), grid, p, eps, force), u.shape)


class TestResidual:
    def test_zero_field_exact(self, op_p2, force_cubic):
        g = grid_for_ell(1.0, 17)
        u = np.zeros((g.nx, g.ny))
        R = residual(make_field(g, op_p2, force_cubic, u, 0.0))
        assert np.max(np.abs(R)) == 0.0

    def test_five_point_laplacian_on_quadratics(self, op_p2, monkeypatch):
        # for p = 2 the scheme is the plain 5-point stencil, exact on x^2 + y^2
        monkeypatch.setattr(pde2d, "EPS", 0.0)
        g = grid_for_ell(1.0, 17)
        X, Y = np.meshgrid(g.x_nodes, g.y_nodes, indexing="ij")
        u = X ** 2 + Y ** 2
        # force contributing zero: evaluate with f = t - t (table not allowed);
        # compare against f(u) added back instead
        force = make_force(kind="power", q=1)
        R = residual(make_field(g, op_p2, force, u, 4.0))
        lap = R[1:-1, 1:-1] + u[1:-1, 1:-1]   # add f(u) = u back
        assert np.max(np.abs(lap - 4.0)) < 1e-11

    @pytest.mark.parametrize("p, force", [
        (1.5, {"kind": "power", "q": 3}),
        (2.0, {"kind": "power", "q": 3}),
        (3.0, {"kind": "power", "q": 3}),
        # u in [1, 2] meets two segments and the power-law tail past t = 1.6
        (3.0, {"kind": "table", "points": [[0, 0], [0.5, 0.2], [1.2, 1.5], [1.6, 4.0]]}),
    ], ids=["1.5", "2.0", "3.0", "3.0-table"])
    def test_jacobian_matches_finite_differences(self, p, force):
        # column k moves representative k and its mirror images: the full
        # residual's derivative along that even direction, read at the
        # representatives
        rng = np.random.default_rng(2)
        g = Grid2D(1.2, 8, 9)
        force = make_force(force)
        u = even(1.0 + rng.random((g.nx, g.ny)))
        J = jacobian_matrix(u, g, p, 1e-8, force)
        reps = representatives(g)
        R0, _ = _residual_interior(u, g, p, 1e-8, force)
        h = 1e-7
        cols = []
        for k in range(J.shape[1]):
            up = u + h * spread((np.arange(J.shape[1]) == k).reshape(reps), u.shape)
            Rp, _ = _residual_interior(up, g, p, 1e-8, force)
            cols.append((Rp - R0)[:reps[0], :reps[1]].ravel() / h)
        Jfd = np.array(cols).T
        assert np.max(np.abs(J - Jfd)) <= 1e-5 * np.max(np.abs(J))

    @pytest.mark.parametrize("p, force", [
        (1.5, {"kind": "power", "q": 3}),
        (2.0, {"kind": "power", "q": 3}),
        (3.0, {"kind": "power", "q": 3}),
        (3.0, {"kind": "table", "points": [[0, 0], [0.5, 0.2], [1.2, 1.5], [1.6, 4.0]]}),
    ], ids=["1.5", "2.0", "3.0", "3.0-table"])
    def test_jacobian_times_matches_the_assembled_jacobian(self, p, force):
        # on the quarter, along an even direction
        rng = np.random.default_rng(4)
        g = Grid2D(1.2, 8, 9)
        force = make_force(force)
        u = even(1.0 + rng.random((g.nx, g.ny)))
        v = rng.standard_normal(representatives(g))
        Jv = jacobian_matrix(u, g, p, 1e-8, force) @ v.ravel()
        got = _jacobian_times(quarter(u), quarter(spread(v, u.shape)), g, p, 1e-8,
                              force).ravel()
        # rounding is relative to the terms that each entry sums: on the 8-node
        # axis the middle face has g_n = 0, so at p = 1.5 and the corner its
        # gamma is EPS^(-1/2) and its terms, about 1e5, cancel in the fold
        terms = folded_terms(u, g, p, 1e-8, force)
        scale = (sp.coo_matrix((np.abs(terms.data), (terms.row, terms.col))).tocsc()
                 @ np.abs(v.ravel()))
        assert np.max(np.abs(got - Jv)) <= 1e-14 * np.max(scale)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_jacobian_times_boundary_direction_is_the_m_derivative(self, p, force_cubic):
        # along e (1 on the boundary, 0 inside) J e is dR/dm at a fixed interior
        rng = np.random.default_rng(5)
        g = Grid2D(1.0, 9, 10)
        u = 1.0 + rng.random((g.nx, g.ny))
        e = np.ones_like(u)
        e[1:-1, 1:-1] = 0.0
        h = 1e-5
        Rp, _ = _residual_interior(u + h * e, g, p, 1e-8, force_cubic)
        Rm, _ = _residual_interior(u - h * e, g, p, 1e-8, force_cubic)
        fd = (Rp - Rm) / (2.0 * h)
        got = _jacobian_times(u, e, g, p, 1e-8, force_cubic)
        assert np.max(np.abs(got - fd)) <= 1e-8 * np.max(np.abs(fd))

    def test_jacobian_five_point_pattern_for_p2(self, force_cubic):
        # the tangential entries vanish identically for p = 2 and are not
        # stored: the band is one narrower than at p != 2
        g = grid_for_ell(1.0, 17)
        u = even(1.0 + np.random.default_rng(3).random((g.nx, g.ny)))
        band = _assemble_jacobian(quarter(u), g, 2.0, 1e-8, force_cubic)
        assert band.shape == (3 * 8 + 1, 64)
        assert np.count_nonzero(band_to_dense(band, u.shape)) <= 5 * band.shape[1]

    @pytest.mark.parametrize("p,min_rate", [(2.0, 1.8), (3.0, 0.9)])
    def test_manufactured_solution_convergence(self, p, min_rate):
        # seed u(x, y) = v(x) from the 1D profile; the interior residual on
        # the compact |x| <= 0.75 must shrink at the scheme's order
        op = make_operator(kind="p-laplace", p=p)
        q = 3.0 * (p - 1.0)
        force = make_force(kind="power", q=q)
        v0 = v0_of_ell(op, force, 1.0)
        prof = large_profile(op, force, v0)
        sups = []
        for nx in (33, 65, 129):
            g = grid_for_ell(1.0, nx)
            vx = np.array([prof.value(float(x)) if abs(x) < 1.0 else 0.0
                           for x in g.x_nodes])
            u = np.tile(vx[:, None], (1, g.ny))
            m = float(np.max(vx))
            fld = make_field(g, op, force, u, m)
            R = residual(fld)
            mask = (np.abs(g.x_nodes)[:, None] <= 0.75) & np.ones(g.ny, bool)[None, :]
            mask[:, 0] = mask[:, -1] = False
            sups.append(float(np.max(np.abs(R[mask]))))
        rate = math.log2(sups[0] / sups[1])
        rate2 = math.log2(sups[1] / sups[2])
        assert min(rate, rate2) >= min_rate, sups


def coo_terms(u, grid, p, eps, force):
    """The Jacobian's terms as a COO matrix, face by face, duplicates unsummed."""
    nx, ny = grid.nx, grid.ny
    N = (nx - 2) * (ny - 2)
    index = np.full((nx, ny), -1)
    index[1:-1, 1:-1] = np.arange(N).reshape(nx - 2, ny - 2)
    rows, cols, vals = [], [], []

    def add(ii, jj, kk, ll, v):
        r, c = index[ii, jj], index[kk, ll]
        mask = (r >= 0) & (c >= 0)
        rows.append(r[mask]); cols.append(c[mask]); vals.append(v[mask])

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
        for (di, dj), dv in deps:
            kk, ll = iF + di, jF + dj
            add(iF, jF, kk, ll, dv / hn)
            add(iF + n[0], jF + n[1], kk, ll, -dv / hn)

    flat = np.arange(N)
    rows.append(flat)
    cols.append(flat)
    vals.append(-force.derivative(u[1:-1, 1:-1]).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))


def coo_jacobian(u, grid, p, eps, force):
    """The Jacobian as a COO assembly converted by scipy's tocsc."""
    return coo_terms(u, grid, p, eps, force).tocsc()


def folded_terms(u, grid, p, eps, force):
    """coo_terms restricted to the rows of the mirror representatives, each
    column moved onto its node's representative, numbered on them."""
    A = coo_terms(u, grid, p, eps, force)
    i, j = np.divmod(np.arange(A.shape[0]), grid.ny - 2)    # interior indices
    mi, mj = np.minimum(i, grid.nx - 3 - i), np.minimum(j, grid.ny - 3 - j)
    rep = mi * representatives(grid)[1] + mj
    keep = ((mi == i) & (mj == j))[A.row]
    return sp.coo_matrix((A.data[keep], (rep[A.row[keep]], rep[A.col[keep]])),
                         shape=(math.prod(representatives(grid)),) * 2)


def folded_jacobian(u, grid, p, eps, force):
    """folded_terms summed by scipy's tocsc, dense."""
    return folded_terms(u, grid, p, eps, force).tocsc().toarray()


def summed_in_order(terms, data=None):
    """The dense matrix of COO terms (or of ``data`` at their places), each
    entry summed from 0.0 in the terms' order: the reference whose bits the
    band assembly must reproduce."""
    A = np.zeros(terms.shape)
    np.add.at(A, (terms.row, terms.col), terms.data if data is None else data)
    return A


class TestJacobianPattern:
    FORCES = {"power": {"kind": "power", "q": 3},
              "table": {"kind": "table", "points": [[0, 0], [0.5, 0.2], [1.2, 1.5], [1.6, 4.0]]},
              "exp": {"kind": "exp-minus-one"}}

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("grid", [Grid2D(1.2, 8, 9), Grid2D(0.7, 11, 8),
                                      grid_for_ell(1, 17), grid_for_ell(2, 33)],
                             ids=["8x9", "11x8", "ell1-17", "ell2-33"])
    def test_bit_identical_to_the_coo_assembly(self, grid, p):
        # random even fields, and the flat start, where eps = 1e-300 underflows
        # and the terms include +-0, inf (p = 1.5) and NaN (p = 1.5).  The band
        # sums each entry's terms in the order folded_terms lists them, so it
        # keeps the bits of that sum; scipy's tocsc sums them in its sort's
        # order, so against it an entry may differ in rounding, read +0 for
        # its -0 and carry the other sign on a NaN
        rng = np.random.default_rng(11)
        flat = np.full((grid.nx, grid.ny), 2.0)
        for name, spec in self.FORCES.items():
            force = make_force(spec)
            for u, eps in ((even(1.0 + rng.random(flat.shape)), 1e-8), (flat, 1e-8),
                           (flat, 1e-300)):
                with np.errstate(all="ignore"):
                    terms = folded_terms(u, grid, p, eps, force)
                    want = summed_in_order(terms)
                    got = jacobian_matrix(u, grid, p, eps, force)
                    scale = summed_in_order(terms, np.abs(terms.data))
                    coo = folded_jacobian(u, grid, p, eps, force)
                    close = (got == coo) | (np.abs(got - coo) <= 1e-15 * scale)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan), name
                assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)), name
                assert np.array_equal(np.isnan(coo), nan) and np.all(close[~nan]), name

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("grid", [Grid2D(1.2, 8, 9), grid_for_ell(2, 65),
                                      grid_for_ell(0.5, 65), grid_for_ell(1, 17)],
                             ids=["8x9", "ell2-65", "ell0.5-65", "ell1-17"])
    def test_one_stored_index_per_term(self, grid, p):
        # no padding: one band position per term, every one inside the band,
        # whose half-bandwidth is the shorter axis' count of representatives
        # (plus one for 9 points), whichever axis that is
        positions, source, shape = pde2d._jacobian_pattern(grid.nx, grid.ny, p != 2.0)
        u = np.full((grid.nx, grid.ny), 2.0)
        terms = folded_terms(u, grid, p, 1e-8, make_force(kind="power", q=3)).nnz
        assert positions.size == source.size == terms
        bw = min(representatives(grid)) + (p != 2.0)
        assert shape == (3 * bw + 1, math.prod(representatives(grid)))
        assert np.all(positions % shape[0] >= bw) and positions.max() < math.prod(shape)

    def test_build_and_assembly_peak_below_the_coo_assembly(self):
        g = grid_for_ell(2, 65)
        u = 1.0 + np.random.default_rng(12).random((g.nx, g.ny))
        force = make_force(kind="power", q=6)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        coo_jacobian(u, g, 3.0, 1e-8, force)     # warm both paths outside the trace
        pde2d._jacobian_pattern.cache_clear()
        build = peak(lambda: pde2d._jacobian_pattern(g.nx, g.ny, True))
        assembly = peak(lambda: _assemble_jacobian(quarter(u), g, 3.0, 1e-8, force))
        reference = peak(lambda: coo_jacobian(u, g, 3.0, 1e-8, force))
        assert build <= reference and assembly <= reference, (build, assembly, reference)


class TestSolveDirichlet:
    def test_m_zero_gives_zero(self, op_p2, force_cubic):
        fld = solve_dirichlet(grid_for_ell(1.0, 17), op_p2, force_cubic, 0.0)
        assert np.all(fld.values == 0.0)

    def test_interior_dip_and_fixed_point_oracle(self, op_p2, force_cubic):
        # small data: u = m - O(m^3) interior dip, cross-checked by a damped
        # Jacobi fixed-point iteration on the 5-point Laplacian
        g = grid_for_ell(1.0, 17)
        m = 0.25
        fld = solve_dirichlet(g, op_p2, force_cubic, m)
        interior = fld.values[1:-1, 1:-1]
        assert np.all(interior < m)
        assert np.min(interior) > m - 2 * m ** 3

        u = np.full((g.nx, g.ny), m)
        h2 = g.hx ** 2
        for _ in range(4000):
            rhs = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
                   - h2 * u[1:-1, 1:-1] ** 3) / 4.0
            new = u.copy()
            new[1:-1, 1:-1] = rhs
            if np.max(np.abs(new - u)) < 1e-14:
                u = new
                break
            u = new
        assert np.max(np.abs(u - fld.values)) < 1e-8

    def test_bounds_and_diagnostics(self, op_p2, force_cubic):
        fld = solve_dirichlet(grid_for_ell(1.0, 17), op_p2, force_cubic, 16.0)
        assert np.all(fld.values >= 0.0) and np.all(fld.values <= 16.0)
        assert fld.diagnostics["final_residual"] <= 1e-9
        assert fld.diagnostics["clip_activations"] == 0

    def test_discrete_comparison_in_m(self, op_p2, force_cubic):
        g = grid_for_ell(1.0, 17)
        a = solve_dirichlet(g, op_p2, force_cubic, 4.0)
        b = solve_dirichlet(g, op_p2, force_cubic, 8.0)
        assert np.min(b.values - a.values) >= -1e-10

    def test_p3_first_level_converges(self, op_p3):
        # the flat start is degenerate for p > 2 (gamma = eps^(p-2)); the
        # boundary-layer profile start converges without a restart
        f6 = make_force(kind="power", q=6)
        fld = solve_dirichlet(grid_for_ell(1.0, 17), op_p3, f6, 2.0)
        assert fld.diagnostics["final_residual"] <= 1e-9
        assert fld.diagnostics["gs_rescues"] == 0
        center = fld.values[8, 8]
        assert 0.0 < center < 2.0

    def test_jacobian_finite_where_eps_underflows(self, op_p2, force_cubic, monkeypatch):
        # eps^2 underflows to 0 on the flat start, where w = 0 on every face;
        # the flux derivatives read (p - 2) gamma / w as 0 there
        g = grid_for_ell(1.0, 17)
        u = np.full((g.nx, g.ny), 2.0)
        for p in (2.0, 3.0):
            band = _assemble_jacobian(quarter(u), g, p, 1e-300, force_cubic)
            assert np.all(np.isfinite(band))
        monkeypatch.setattr(pde2d, "EPS", 1e-300)
        fld = solve_dirichlet(g, op_p2, force_cubic, 2.0)
        assert fld.diagnostics["gs_rescues"] == 0
        assert fld.diagnostics["final_residual"] <= 1e-9

    def test_overflowing_eps_raises(self, op_p3, monkeypatch):
        # eps^2 = inf makes gamma = inf, and inf * 0 a NaN flux on the flat
        # start: a non-finite residual must not pass the convergence test
        monkeypatch.setattr(pde2d, "EPS", 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="non-finite residual"):
                solve_dirichlet(grid_for_ell(1.0, 17), op_p3, make_force(kind="power", q=6),
                                2.0)

    def test_flat_start_at_large_m_takes_the_rescue(self, op_p2, force_cubic):
        # in the flat interior |R| / max(1, f(u)) = 1 for any flat u, so the
        # damped Newton step from u = m stalls and the restart is live
        fld = solve_dirichlet(grid_for_ell(1.0, 65), op_p2, force_cubic, 100.0)
        assert fld.diagnostics["gs_rescues"] == 1
        assert fld.diagnostics["final_residual"] <= 1e-9

    @pytest.mark.parametrize("m", [0.0, 2.0])
    def test_diagnostics_keep_the_traced_keys(self, op_p2, force_cubic, m):
        # bench/tracing.py reads these three keys of every solve
        fld = solve_dirichlet(grid_for_ell(1.0, 17), op_p2, force_cubic, m)
        assert {"iterations", "gs_rescues", "clip_activations"} <= fld.diagnostics.keys()

    def test_rejects_general_operator(self, op_mc, force_cubic):
        with pytest.raises(ValidationError):
            solve_dirichlet(grid_for_ell(1.0, 17), op_mc, force_cubic, 1.0)

    def test_symmetry(self, op_p2, force_cubic):
        fld = solve_dirichlet(grid_for_ell(1.0, 17), op_p2, force_cubic, 8.0)
        assert symmetry_defect(fld) <= 1e-8

    def test_regularization_insensitivity(self, op_p3, monkeypatch):
        f6 = make_force(kind="power", q=6)
        g = grid_for_ell(1.0, 17)
        monkeypatch.setattr(pde2d, "EPS", 1e-8)
        a = solve_dirichlet(g, op_p3, f6, 8.0)
        monkeypatch.setattr(pde2d, "EPS", 1e-9)
        b = solve_dirichlet(g, op_p3, f6, 8.0)
        mask = a.compact_mask()
        assert float(np.max(np.abs(a.values - b.values)[mask])) <= 1e-6


def full_grid_newton(grid, op, force, u):
    """_newton's chord/damped Newton on the whole interior: each step solves
    with the full Jacobian of coo_jacobian; no restart and no [0, m] test, as
    no trial leaves [0, m] on the inputs below.  Returns (field, steps)."""
    def scored(v):
        R, fu = _residual_interior(v, grid, op.p, pde2d.EPS, force)
        return R, np.max(np.abs(R) / np.maximum(1.0, fu))

    def step(v, lu, R, alpha=1.0):
        w = v.copy()
        w[1:-1, 1:-1] += alpha * lu.solve(-R.ravel()).reshape(R.shape)
        return (w,) + scored(w)

    (R, rn), lu, steps = scored(u), None, 0
    while rn > pde2d.TOL_RES:
        steps += 1
        if lu is not None:
            trial = step(u, lu, R)
            if trial[2] <= 0.5 * rn:
                u, R, rn = trial
                continue
        lu, alpha = spla.splu(coo_jacobian(u, grid, op.p, pde2d.EPS, force)), 1.0
        while (trial := step(u, lu, R, alpha))[2] >= rn:
            alpha /= 2
        u, R, rn = trial
        lu = lu if alpha == 1.0 else None
    return u, steps


class TestSymmetricFold:
    """Newton runs on the quarter of the mirror representatives plus one halo
    node per axis, so fields are even to the bit; these tests are the oracle
    for that evenness, which a cylinder run does not check."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("grid", [Grid2D(1.2, 8, 9), Grid2D(1.2, 9, 8), grid_for_ell(1, 17)],
                             ids=["8x9", "9x8", "ell1-17"])
    def test_folded_correction_is_the_full_solve(self, grid, p):
        rng = np.random.default_rng(5)
        force = make_force(kind="power", q=3)
        for _ in range(3):
            u = even(1.0 + rng.random((grid.nx, grid.ny)))
            R, _ = _residual_interior(quarter(u), grid, p, pde2d.EPS, force)
            factor = pde2d._factor(_assemble_jacobian(quarter(u), grid, p, pde2d.EPS, force),
                                   u.shape, "")
            got = pde2d._correction(factor, R)[pde2d._mirror(u.shape)]
            R_full, _ = _residual_interior(u, grid, p, pde2d.EPS, force)
            want = spla.spsolve(coo_jacobian(u, grid, p, pde2d.EPS, force), -R_full.ravel())
            assert factor[0].shape[1] == math.prod(representatives(grid))
            assert np.all(got[[0, -1], :] == 0.0) and np.all(got[:, [0, -1]] == 0.0)
            got = got[1:-1, 1:-1].ravel()
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("g, p, q, m", [
        pytest.param(grid_for_ell(1.0, 17), p, q, m, id=f"{p}-{q}-{m}")
        for p, q, m in [(1.5, 3.0, 2.0), (1.5, 3.0, 16.0), (2.0, 3.0, 2.0),
                        (2.0, 3.0, 16.0), (3.0, 6.0, 2.0), (3.0, 6.0, 8.0)]
    ] + [
        # an even interior count, along x or along both axes: there the halo
        # node mirrors the last representative instead of the one before it
        pytest.param(Grid2D(1.2, 18, ny), p, q, m, id=f"18x{ny}-{p}-{q}-{m}")
        for ny in (21, 20) for p, q, m in [(1.5, 3.0, 16.0), (2.0, 3.0, 16.0), (3.0, 6.0, 8.0)]
    ])
    def test_same_iterates_as_a_full_grid_newton(self, g, p, q, m):
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        start = (pde2d._layer_profile(np.minimum.outer(*g.edge_distances), op, force, m)
                 if p > 2.0 else np.full((g.nx, g.ny), m))
        want, steps = full_grid_newton(g, op, force, start)
        fld = solve_dirichlet(g, op, force, m)
        assert fld.diagnostics["iterations"] == steps
        assert np.max(np.abs(fld.values - want)) <= 1e-12 * np.max(np.abs(want))
        # the stopping test holds at every interior node, not only on a quarter
        R, fu = _residual_interior(fld.values, g, p, pde2d.EPS, force)
        assert np.all(np.abs(R) / np.maximum(1.0, fu) <= pde2d.TOL_RES)
        assert symmetry_defect(fld) == 0.0

    def test_an_asymmetric_start_is_mirrored(self, op_p2, force_cubic):
        g = grid_for_ell(1.0, 17)
        start = np.full((g.nx, g.ny), 4.0)
        start[9:, :] = 1.0      # the low-index quarter is flat at m
        fld = solve_dirichlet(g, op_p2, force_cubic, 4.0, initial=start)
        assert np.array_equal(fld.values, solve_dirichlet(g, op_p2, force_cubic, 4.0).values)

    def test_escalation_factors_a_quarter_of_the_unknowns(self, op_p3, monkeypatch):
        # 2,048 of N = 63 * 127 = 8001 unknowns, numbered along x first: a
        # 9-point band of half-width 32 + 1
        slots = []
        solve = pde2d.solve_dirichlet

        def recorded(*args, **kwargs):
            slots.append(kwargs["factor"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(pde2d, "solve_dirichlet", recorded)
        escalate_m(grid_for_ell(2.0, 65), op_p3, make_force(kind="power", q=6))
        assert slots[-1][0][0].shape == (3 * 33 + 1, 2048)

    @pytest.mark.parametrize("grid", [grid_for_ell(1.0, 17), Grid2D(1.2, 18, 21),
                                      Grid2D(1.2, 18, 20)], ids=["17x17", "18x21", "18x20"])
    @pytest.mark.parametrize("p, q", [(2.0, 3.0), (3.0, 6.0)])
    def test_quarter_residual_is_the_full_residual(self, grid, p, q, monkeypatch):
        # each iterate's residual, read on the quarter and its halo, is bit for
        # bit the residual at the representatives of the field mirrored out
        # from them; a halo left stale after an update breaks this
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        full, reps = (grid.nx, grid.ny), representatives(grid)
        residual_interior = pde2d._residual_interior
        same = []

        def compared(v, *args):
            R, fu = residual_interior(v, *args)
            if v.shape != full:     # a quarter; _mirror reads none of its halo
                want = residual_interior(v[pde2d._mirror(full)], *args)
                same.append(all(np.array_equal(a, b[:reps[0], :reps[1]])
                                for a, b in zip((R, fu), want)))
            return R, fu

        monkeypatch.setattr(pde2d, "_residual_interior", compared)
        solve_dirichlet(grid, op, force, 8.0)
        assert len(same) > 2 and all(same)


class TestLayerProfile:
    @staticmethod
    def distances(g):
        X, Y = np.meshgrid(g.x_nodes, g.y_nodes, indexing="ij")
        return np.minimum(1.0 - np.abs(X), g.ell - np.abs(Y))

    @pytest.mark.parametrize("m", [2.0, 100.0])
    @pytest.mark.parametrize("g", [grid_for_ell(2.0, 65), Grid2D(1.3, 9, 12)],
                             ids=["nested", "hx-ne-hy"])
    def test_p2_q3_closed_form(self, op_p2, force_cubic, m, g):
        # U' = -sqrt(2 F(U)) = -U^2/sqrt(2) gives U(d) = m / (1 + m d / sqrt(2))
        U = pde2d._layer_profile(self.distances(g), op_p2, force_cubic, m)
        exact = m / (1.0 + m * self.distances(g) / math.sqrt(2.0))
        np.testing.assert_allclose(U, exact, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("p, q", [(2.0, 3.0), (3.0, 6.0)])
    @pytest.mark.parametrize("ell", [1.0, 2.0])
    def test_below_the_converged_field(self, p, q, ell):
        # a subsolution with data m: equal to m on the boundary, below the field
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        g = grid_for_ell(ell, 65)
        U = pde2d._layer_profile(self.distances(g), op, force, 2.0)
        fld = solve_dirichlet(g, op, force, 2.0)
        boundary = self.distances(g) == 0.0
        assert np.all(U[boundary] == 2.0)
        assert np.all(U <= fld.values)

    def test_failed_shot_raises(self, op_p3):
        # F(1000) = e^1000 overflows: the shot stops at its first step
        with pytest.raises(SolverError, match="boundary-layer shot failed"):
            pde2d._layer_profile(self.distances(grid_for_ell(1.0, 17)), op_p3,
                                 make_force(kind="exp-minus-one"), 1000.0)

    def test_stall_from_the_profile_raises(self, force_cubic):
        # p = 1.2 stalls from u = m and again after the restart from the
        # profile, there at a scaled residual of about 2e-9
        op = make_operator(kind="p-laplace", p=1.2)
        with pytest.raises(SolverError, match="stalled from the boundary-layer profile"):
            solve_dirichlet(grid_for_ell(1.0, 33), op, force_cubic, 2.0)

    @pytest.mark.parametrize("force, p, m, center", [
        ({"kind": "power", "q": 5.73}, 2.98, 482.0, 1.692050331463194),
        ({"kind": "exp-minus-one"}, 1.5, 375.0, 1.663994217925638),
        ({"kind": "exp-minus-one"}, 3.9, 284.0, 6.429071911826298),
        ({"kind": "piecewise-power", "a": 0.3, "b": 5.59}, 1.5, 348.0, 1.1626307194454542),
    ], ids=["power-p2.98", "exp-p1.5", "exp-p3.9", "piecewise-p1.5"])
    def test_overshoot_into_a_flat_interior_converges(self, force, p, m, center):
        # far past the layer cap the first full step from the profile lands on a
        # flat interior, where a trial scaled by its own f reads 1 at any level;
        # after the restart the scaling is frozen and the solve converges to the
        # centre that the red-black Gauss-Seidel rescue reached
        op = make_operator(kind="p-laplace", p=p)
        fld = solve_dirichlet(grid_for_ell(1.0, 17), op, make_force(**force), m)
        assert fld.diagnostics["gs_rescues"] == 1
        assert fld.diagnostics["final_residual"] <= pde2d.TOL_RES
        assert fld.values[8, 8] == pytest.approx(center, rel=1e-9)

    def test_p4_first_level_budget(self):
        # from u = m this level took 10 LUs and a rescue
        op, force = make_operator(kind="p-laplace", p=4), make_force(kind="power", q=6)
        fld = solve_dirichlet(grid_for_ell(1.0, 33), op, force, pde2d.M_START)
        assert fld.diagnostics["factorizations"] <= 4
        assert fld.diagnostics["gs_rescues"] == 0
        assert fld.diagnostics["final_residual"] <= pde2d.TOL_RES


class TestEscalation:
    def test_monotone_with_shrinking_increments(self, op_p2, force_cubic):
        res = escalate_m(grid_for_ell(1.0, 33), op_p2, force_cubic)
        assert res.stop_reason == "layer-cap"
        incs = [lv.sup_increment_K for lv in res.levels if lv.sup_increment_K is not None]
        assert all(b < a for a, b in zip(incs[1:], incs[2:]))  # after warmup
        assert all(lv.min_increment >= -1e-10 for lv in res.levels
                   if lv.min_increment is not None)
        centers = [lv.center for lv in res.levels]
        assert all(b > a for a, b in zip(centers, centers[1:]))

    def test_a_dead_core_on_K_escalates_to_the_layer_cap(self, op_p3):
        # L = 0.234 at nx = 33, so a dead core covers K and the increments on K
        # read 8e-7 at m = 4: an increment plateau is no sign of convergence
        # here, and the escalation runs on to the layer cap
        force = make_force(kind="table", points=[[0, 0], [1, 30000], [2, 240000],
                                                 [4, 1920000]])
        res = escalate_m(grid_for_ell(1.0, 33), op_p3, force)
        assert res.stop_reason == "layer-cap"
        assert res.levels[1].sup_increment_K < 1e-6
        ms = [lv.m for lv in res.levels]
        assert ms[:-1] == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert ms[-1] == pytest.approx(78.643, abs=1e-3)

    def test_center_increment_shrinks_8_to_16(self, op_p2, force_cubic):
        res = escalate_m(grid_for_ell(1.0, 33), op_p2, force_cubic, max_levels=5)
        centers = {lv.m: lv.center for lv in res.levels}
        inc_8_16 = centers[16.0] - centers[8.0]
        inc_4_8 = centers[8.0] - centers[4.0]
        assert 0.0 < inc_8_16 < inc_4_8

    def test_ko_violation_detected(self, op_p2):
        linear = make_force(kind="power", q=1)
        res = escalate_m(grid_for_ell(1.0, 17), op_p2, linear, max_levels=7)
        assert res.stop_reason == "schedule-exhausted"
        assert res.ko_violated
        centers = [lv.center for lv in res.levels]
        assert all(b > a for a, b in zip(centers, centers[1:]))
        incs = [lv.sup_increment_K for lv in res.levels[1:]]
        assert all(b >= a for a, b in zip(incs, incs[1:]))

    def test_gradient_energy_relative_growth_decays(self, op_p2, force_cubic):
        # discrete shadow of the m-independent gradient bound: the energy's
        # relative increments shrink monotonically along the schedule
        res = escalate_m(grid_for_ell(1.0, 33), op_p2, force_cubic)
        energies = [lv.grad_energy_K for lv in res.levels]
        assert all(e > 0 for e in energies)
        rel = [(b - a) / a for a, b in zip(energies, energies[1:])]
        assert all(b < a for a, b in zip(rel, rel[1:])), rel
        # KO-failing contrast: relative growth does not decay below a floor
        linear = make_force(kind="power", q=1)
        res2 = escalate_m(grid_for_ell(1.0, 33), op_p2, linear, max_levels=7)
        e2 = [lv.grad_energy_K for lv in res2.levels]
        rel2 = [(b - a) / a for a, b in zip(e2, e2[1:])]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(rel2, rel2[1:]))
        assert rel2[-1] > rel[-1]

    @pytest.mark.parametrize("p,q,m_star", [(2.0, 3.0, 90.51), (3.0, 6.0, 26.80)])
    def test_ends_at_exact_layer_cap(self, p, q, m_star):
        # the last level sits at Psi_p(m) = layer_factor * h itself, not at
        # the next doubling past it
        op = make_operator(kind="p-laplace", p=p)
        g = grid_for_ell(1.0, 65)
        res = escalate_m(g, op, make_force(kind="power", q=q))
        m = res.levels[-1].m
        assert res.stop_reason == "layer-cap"
        assert psi_power_closed_form(p, q, m) == pytest.approx(
            pde2d.LAYER_FACTOR * g.hx, rel=1e-8)
        assert m == pytest.approx(m_star, abs=5e-3)

    @pytest.mark.parametrize("force, layer_factor, cap, stop, ms", [
        ({"kind": "piecewise-power", "a": 0.5, "b": 3}, 200.0, 0.0,         # 200 h > L = 4.73
         "layer-cap", [2.0]),
        ({"kind": "power", "q": 3}, 1e-20, math.inf,                        # m* above 1e14
         "schedule-exhausted", [2.0, 4.0, 8.0]),
        ({"kind": "power", "q": 1}, 0.5, math.inf,                          # KO fails
         "schedule-exhausted", [2.0, 4.0, 8.0]),
    ], ids=["dead-core-floor", "unbracketed-ceiling", "ko-fails"])
    def test_layer_cap_clamped_to_the_schedule(self, op_p2, force, layer_factor, cap, stop,
                                               ms, monkeypatch):
        # layer_cap_m returns m* as it is; the escalation is what clamps it to
        # the schedule: a cap at or below M_START ends the first level, and one
        # past the last level's m never binds
        monkeypatch.setattr(pde2d, "LAYER_FACTOR", layer_factor)
        grid, f = grid_for_ell(1.0, 65), make_force(**force)
        assert pde2d.layer_cap_m(op_p2, f, grid) == cap
        res = escalate_m(grid_for_ell(1.0, 17), op_p2, f, max_levels=3)
        assert res.stop_reason == stop
        assert [lv.m for lv in res.levels] == ms

    def test_layer_cap_inverted_once_per_family(self, op_p3, monkeypatch):
        force = make_force(kind="power", q=6)
        grids = pde2d.family_grids([1.0, 2.0, 4.0], 65)
        want = [pde2d.layer_cap_m(op_p3, make_force(kind="power", q=6), g) for g in grids]
        searches = []
        root = pde2d.ko_mod.increasing_root

        def counted(*args, **kwargs):
            searches.append(args[3:5])
            return root(*args, **kwargs)

        monkeypatch.setattr(pde2d.ko_mod, "increasing_root", counted)
        assert [pde2d.layer_cap_m(op_p3, force, g) for g in grids] == want
        assert searches == [("r", f"has Psi(r) = {pde2d.LAYER_FACTOR * grids[0].hx:g}")]

    def test_chord_steps_reuse_the_factorisation(self, op_p3, monkeypatch):
        # record every level's diagnostics: escalate_m keeps only the last field
        diagnostics = []
        solve = pde2d.solve_dirichlet

        def recorded(*args, **kwargs):
            fld = solve(*args, **kwargs)
            diagnostics.append(fld.diagnostics)
            return fld

        monkeypatch.setattr(pde2d, "solve_dirichlet", recorded)
        res = pde2d.escalate_m(grid_for_ell(1.0, 33), op_p3, make_force(kind="power", q=6))
        assert len(diagnostics) == len(res.levels)
        assert any(d["factorizations"] < d["iterations"] for d in diagnostics)
        assert all(d["final_residual"] <= pde2d.TOL_RES for d in diagnostics)


class TestContinuation:
    @staticmethod
    def recorded_levels(monkeypatch):
        diagnostics = []
        solve = pde2d.solve_dirichlet

        def recorded(*args, **kwargs):
            fld = solve(*args, **kwargs)
            diagnostics.append(fld.diagnostics)
            return fld

        monkeypatch.setattr(pde2d, "solve_dirichlet", recorded)
        return diagnostics

    def test_predictor_is_exact_for_a_linear_problem(self, op_p2, monkeypatch):
        # p = 2 with f(u) = u: the residual is linear in (u, m), so each level
        # after the first starts on its solution
        diagnostics = self.recorded_levels(monkeypatch)
        res = escalate_m(grid_for_ell(1.0, 33), op_p2, make_force(kind="power", q=1),
                         max_levels=7)
        assert len(res.levels) == 7
        assert [d["iterations"] for d in diagnostics] == [1, 0, 0, 0, 0, 0, 0]

    def test_factorisation_budget(self, op_p2, force_cubic, monkeypatch):
        diagnostics = self.recorded_levels(monkeypatch)
        res = escalate_m(grid_for_ell(1.0, 65), op_p2, force_cubic)
        assert res.stop_reason == "layer-cap"
        assert sum(d["factorizations"] for d in diagnostics) <= len(res.levels) + 1
        assert all(d["final_residual"] <= pde2d.TOL_RES for d in diagnostics)

    def test_p3_escalation_takes_no_restart(self, op_p3, monkeypatch):
        diagnostics = self.recorded_levels(monkeypatch)
        res = escalate_m(grid_for_ell(1.0, 65), op_p3, make_force(kind="power", q=6))
        assert res.stop_reason == "layer-cap"
        assert [d["gs_rescues"] for d in diagnostics] == [0] * len(res.levels)

    def test_one_factor_alive_at_a_time(self, op_p3, monkeypatch):
        # the band is factored in place: the LU dgbtrf returns is the band
        alive = []
        built = []
        dgbtrf = pde2d.dgbtrf

        def tracked(band, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in built))
            lu, piv, info = dgbtrf(band, *args, **kwargs)
            assert lu is band
            built.append(weakref.ref(lu))
            return lu, piv, info

        monkeypatch.setattr(pde2d, "dgbtrf", tracked)
        for grid in pde2d.family_grids([1.0, 2.0], 17):
            escalate_m(grid, op_p3, make_force(kind="power", q=6))
        assert len(built) > 2
        assert max(alive) == 0


def test_discrete_cross_section_solves_three_point_scheme():
    # the 1D reduction is (F[i+1/2] - F[i-1/2]) / h = w[i]^q with the face flux
    # F = (g^2 + eps^2)^((p-2)/2) g of g = (w[i+1] - w[i]) / h; for p = 2 it
    # is the 3-point Laplacian.  At an even nx the halo mirrors the last
    # representative, at an odd nx the one before it
    for (p, q), grid in itertools.product(((2.0, 3.0), (1.5, 3.0), (3.0, 6.0)),
                                          (grid_for_ell(1.0, 33), Grid2D(1.0, 32, 33))):
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        fld = solve_dirichlet(grid, op, force, 16.0)
        w = pde2d.discrete_cross_section(fld)
        h = fld.grid.hx
        g = np.diff(w) / h
        flux = (g * g + pde2d.EPS ** 2) ** ((p - 2.0) / 2.0) * g
        fw = w[1:-1] ** q
        assert w[0] == w[-1] == 16.0 and np.array_equal(w, w[::-1])
        assert np.max(np.abs(np.diff(flux) / h - fw) / np.maximum(1.0, fw)) <= 1e-11, (p, grid)


def test_zero_pivot_raises(op_p2, force_cubic):
    # a planted 1D system whose diagonal band has a zero column
    def jacobian(v):
        band = np.zeros((4, v.size - 2), order="F")
        band[2] = 1.0
        band[2, 2] = 0.0
        return band

    u = np.ones(9)
    with pytest.raises(SolverError, match="singular Jacobian on the planted system: "
                                          "zero pivot in column 2"):
        pde2d._newton(u, 1.0, np.zeros(9), op_p2, force_cubic,
                      lambda v: (np.ones(v.size - 2), np.zeros(v.size - 2)), jacobian,
                      1e-9, [None], " on the planted system")


def test_newton_budget_exhaustion_raises(op_p2, force_cubic, monkeypatch):
    # this level takes 18 steps
    monkeypatch.setattr(pde2d, "MAX_NEWTON", 2)
    with pytest.raises(SolverError, match=r"no convergence in 2 Newton iterations \(m = 8,"):
        solve_dirichlet(grid_for_ell(1.0, 17), op_p2, force_cubic, 8.0)


def test_discrete_cross_section_stall_raises(force_cubic):
    # p = 1.3 stalls on the cross-section from the mid-slice and again after
    # the restart from the half-line profile, there at about 1.3e-11; a stop
    # that knows the floating-point floor would turn this into a convergence
    fld = escalate_m(grid_for_ell(1.0, 33), make_operator(kind="p-laplace", p=1.3),
                     force_cubic).field
    with pytest.raises(SolverError, match="Newton stalled on the discrete cross-section "
                                          "from the boundary-layer profile"):
        pde2d.discrete_cross_section(fld)


@pytest.fixture(scope="module")
def family(op_p2, force_cubic):
    fields = [escalate_m(grid, op_p2, force_cubic).field
              for grid in pde2d.family_grids([1.0, 2.0], 33)]
    worst = max(0.0, pde2d.ell_monotonicity_violation(fields))
    return fields, SimpleNamespace(
        monotone_in_ell=worst <= 1e-6, max_ell_violation=worst,
        symmetry_defects=[symmetry_defect(f) for f in fields])


class TestCylinderFamily:
    def test_anti_monotone_in_ell(self, family):
        fields, report = family
        assert report.monotone_in_ell
        assert report.max_ell_violation <= 1e-6
        # the interior margin: the x-boundary rows, where both fields hold m,
        # are left out
        assert pde2d.ell_monotonicity_violation(fields) < 0.0

    def test_nonnegative(self, family):
        fields, _ = family
        assert all(np.min(f.values) >= 0.0 for f in fields)

    def test_symmetry_defects(self, family):
        _, report = family
        assert all(d <= 1e-8 for d in report.symmetry_defects)

    def test_cross_section_error_drops(self, family):
        # the mid-slice approaches the discrete cross-section limit w (the
        # y-independent solution of the same scheme) as ell grows
        fields, _ = family
        errs = []
        for f in fields:
            gap = f.mid_slice()[1] - pde2d.discrete_cross_section(f)
            errs.append(float(np.max(np.abs(gap[f.grid.window]))))
        assert errs[1] < errs[0]

    def test_mid_slice_extraction(self, family):
        fields, _ = family
        xs, mid = fields[0].mid_slice()
        assert len(xs) == 33
        assert mid[0] == fields[0].m

    def test_requires_increasing_ells(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            pde2d.family_grids([2.0, 1.0], 17)


class TestSerialization:
    def test_csv_and_json(self, op_p2, force_cubic, tmp_path):
        fld = solve_dirichlet(grid_for_ell(1.0, 17), op_p2, force_cubic, 2.0)
        fld.to_csv(tmp_path / "f.csv")
        fld.to_json(tmp_path / "f.json")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) == 1 + 17 * 17
        import json
        doc = json.loads((tmp_path / "f.json").read_text())
        assert doc["m"] == 2.0
        assert doc["grid"]["nx"] == 17
        pde2d.mid_slice_to_csv(fld, tmp_path / "mid.csv")
        assert (tmp_path / "mid.csv").read_text().splitlines()[0] == "x,u"
