import math
import weakref

import numpy as np
import pytest

from blowup_lab import (Grid2D, SolverConfig, SolverError, ValidationError, cylinder_family,
                        escalate_m, grid_for_ell, large_profile, make_force,
                        make_operator, residual, solve_dirichlet, v0_of_ell)
from blowup_lab import pde2d
from blowup_lab.pde2d import (DiscreteField, _assemble_jacobian, _jacobian_times,
                              _residual_interior)

from conftest import psi_power_closed_form


def make_field(grid, op, force, values, m, eps=1e-8):
    return DiscreteField(grid, values, m, eps, op, force)


class TestResidual:
    def test_zero_field_exact(self, op_p2, force_cubic):
        g = grid_for_ell(1.0, 17)
        u = np.zeros((g.nx, g.ny))
        R = residual(make_field(g, op_p2, force_cubic, u, 0.0))
        assert np.max(np.abs(R)) == 0.0

    def test_five_point_laplacian_on_quadratics(self, op_p2):
        # for p = 2 the scheme is the plain 5-point stencil, exact on x^2 + y^2
        g = grid_for_ell(1.0, 17)
        X, Y = np.meshgrid(g.x_nodes, g.y_nodes, indexing="ij")
        u = X ** 2 + Y ** 2
        # force contributing zero: evaluate with f = t - t (table not allowed);
        # compare against f(u) added back instead
        force = make_force(kind="power", q=1)
        R = residual(make_field(g, op_p2, force, u, 4.0, eps=0.0))
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
        rng = np.random.default_rng(2)
        g = Grid2D(1.2, 8, 9)
        force = make_force(force)
        u = 1.0 + rng.random((g.nx, g.ny))
        J = _assemble_jacobian(u, g, p, 1e-8, force).toarray()
        R0, _ = _residual_interior(u, g, p, 1e-8, force)
        h = 1e-7
        cols = []
        for i in range(1, g.nx - 1):
            for j in range(1, g.ny - 1):
                up = u.copy()
                up[i, j] += h
                Rp, _ = _residual_interior(up, g, p, 1e-8, force)
                cols.append((Rp - R0).ravel() / h)
        Jfd = np.array(cols).T
        assert np.max(np.abs(J - Jfd)) <= 1e-5 * np.max(np.abs(J))

    @pytest.mark.parametrize("p, force", [
        (1.5, {"kind": "power", "q": 3}),
        (2.0, {"kind": "power", "q": 3}),
        (3.0, {"kind": "power", "q": 3}),
        (3.0, {"kind": "table", "points": [[0, 0], [0.5, 0.2], [1.2, 1.5], [1.6, 4.0]]}),
    ], ids=["1.5", "2.0", "3.0", "3.0-table"])
    def test_jacobian_times_matches_the_assembled_jacobian(self, p, force):
        rng = np.random.default_rng(4)
        g = Grid2D(1.2, 8, 9)
        force = make_force(force)
        u = 1.0 + rng.random((g.nx, g.ny))
        v = np.zeros_like(u)
        v[1:-1, 1:-1] = rng.standard_normal((g.nx - 2, g.ny - 2))
        Jv = _assemble_jacobian(u, g, p, 1e-8, force) @ v[1:-1, 1:-1].ravel()
        got = _jacobian_times(u, v, g, p, 1e-8, force).ravel()
        assert np.max(np.abs(got - Jv)) <= 1e-13 * np.max(np.abs(Jv))

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
        # the tangential entries vanish identically for p = 2 and are not stored
        g = grid_for_ell(1.0, 17)
        u = 1.0 + np.random.default_rng(3).random((g.nx, g.ny))
        J = _assemble_jacobian(u, g, 2.0, 1e-8, force_cubic)
        assert J.nnz <= 5 * (g.nx - 2) * (g.ny - 2)

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

    def test_jacobian_finite_where_eps_underflows(self, op_p2, force_cubic):
        # eps^2 underflows to 0 on the flat start, where w = 0 on every face;
        # the flux derivatives read (p - 2) gamma / w as 0 there
        g = grid_for_ell(1.0, 17)
        u = np.full((g.nx, g.ny), 2.0)
        for p in (2.0, 3.0):
            J = _assemble_jacobian(u, g, p, 1e-300, force_cubic)
            assert np.all(np.isfinite(J.data))
        fld = solve_dirichlet(g, op_p2, force_cubic, 2.0, SolverConfig(eps=1e-300))
        assert fld.diagnostics["gs_rescues"] == 0
        assert fld.diagnostics["final_residual"] <= 1e-9

    def test_overflowing_eps_raises(self, op_p3):
        # eps^2 = inf makes gamma = inf, and inf * 0 a NaN flux on the flat
        # start: a non-finite residual must not pass the convergence test
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="non-finite residual"):
                solve_dirichlet(grid_for_ell(1.0, 17), op_p3, make_force(kind="power", q=6),
                                2.0, SolverConfig(eps=1e300))

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
        assert pde2d.symmetry_defect(fld) <= 1e-8

    def test_regularization_insensitivity(self, op_p3):
        f6 = make_force(kind="power", q=6)
        g = grid_for_ell(1.0, 17)
        a = solve_dirichlet(g, op_p3, f6, 8.0, SolverConfig(eps=1e-8))
        b = solve_dirichlet(g, op_p3, f6, 8.0, SolverConfig(eps=1e-9))
        mask = a.compact_mask(0.75)
        assert float(np.max(np.abs(a.values - b.values)[mask])) <= 1e-6


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
        U = pde2d._layer_profile(g, op_p2, force_cubic, m)
        exact = m / (1.0 + m * self.distances(g) / math.sqrt(2.0))
        np.testing.assert_allclose(U, exact, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("p, q", [(2.0, 3.0), (3.0, 6.0)])
    @pytest.mark.parametrize("ell", [1.0, 2.0])
    def test_below_the_converged_field(self, p, q, ell):
        # a subsolution with data m: equal to m on the boundary, below the field
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        g = grid_for_ell(ell, 65)
        U = pde2d._layer_profile(g, op, force, 2.0)
        fld = solve_dirichlet(g, op, force, 2.0)
        boundary = self.distances(g) == 0.0
        assert np.all(U[boundary] == 2.0)
        assert np.all(U <= fld.values)

    def test_failed_shot_raises(self, op_p3):
        # F(1000) = e^1000 overflows: the shot stops at its first step
        with pytest.raises(SolverError, match="boundary-layer shot failed"):
            pde2d._layer_profile(grid_for_ell(1.0, 17), op_p3,
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
        assert fld.diagnostics["final_residual"] <= SolverConfig().tol_res
        assert fld.values[8, 8] == pytest.approx(center, rel=1e-9)

    def test_p4_first_level_budget(self):
        # from u = m this level took 10 LUs and a rescue
        op, force = make_operator(kind="p-laplace", p=4), make_force(kind="power", q=6)
        fld = solve_dirichlet(grid_for_ell(1.0, 33), op, force, SolverConfig().m_start)
        assert fld.diagnostics["factorizations"] <= 4
        assert fld.diagnostics["gs_rescues"] == 0
        assert fld.diagnostics["final_residual"] <= SolverConfig().tol_res


class TestEscalation:
    def test_monotone_with_shrinking_increments(self, op_p2, force_cubic):
        res = escalate_m(grid_for_ell(1.0, 33), op_p2, force_cubic)
        assert res.stop_reason in ("plateau", "layer-cap")
        incs = [lv.sup_increment_K for lv in res.levels if lv.sup_increment_K is not None]
        assert all(b < a for a, b in zip(incs[1:], incs[2:]))  # after warmup
        assert all(lv.min_increment >= -1e-10 for lv in res.levels
                   if lv.min_increment is not None)
        centers = [lv.center for lv in res.levels]
        assert all(b > a for a, b in zip(centers, centers[1:]))

    def test_center_increment_shrinks_8_to_16(self, op_p2, force_cubic):
        res = escalate_m(grid_for_ell(1.0, 33), op_p2, force_cubic,
                         SolverConfig(max_levels=5))
        centers = {lv.m: lv.center for lv in res.levels}
        inc_8_16 = centers[16.0] - centers[8.0]
        inc_4_8 = centers[8.0] - centers[4.0]
        assert 0.0 < inc_8_16 < inc_4_8

    def test_ko_violation_detected(self, op_p2):
        linear = make_force(kind="power", q=1)
        res = escalate_m(grid_for_ell(1.0, 17), op_p2, linear,
                         SolverConfig(max_levels=7))
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
        res2 = escalate_m(grid_for_ell(1.0, 33), op_p2, linear,
                          SolverConfig(max_levels=7))
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
            SolverConfig().layer_factor * g.hx, rel=1e-8)
        assert m == pytest.approx(m_star, abs=5e-3)

    @pytest.mark.parametrize("force, layer_factor, cap", [
        ({"kind": "piecewise-power", "a": 0.5, "b": 3}, 100.0, 2.0),   # past L = 4.73
        ({"kind": "power", "q": 3}, 1e-20, 2.0 * 2.0 ** 24),           # m* above 1e14
        ({"kind": "power", "q": 1}, 0.5, None),                        # KO fails
    ], ids=["dead-core-floor", "unbracketed-ceiling", "ko-fails"])
    def test_layer_cap_clamped_to_the_schedule(self, op_p2, force, layer_factor, cap):
        cfg = SolverConfig(layer_factor=layer_factor)
        got = pde2d.layer_cap_m(op_p2, make_force(**force), grid_for_ell(1.0, 65), cfg)
        if cap is None:
            assert got is None
        else:
            assert got == pytest.approx(cap, rel=1e-9)

    def test_chord_steps_reuse_the_factorisation(self, op_p3, monkeypatch):
        # record every level's diagnostics: escalate_m keeps only the last field
        diagnostics = []
        solve = pde2d.solve_dirichlet

        def recorded(*args, **kwargs):
            fld = solve(*args, **kwargs)
            diagnostics.append(fld.diagnostics)
            return fld

        monkeypatch.setattr(pde2d, "solve_dirichlet", recorded)
        cfg = SolverConfig()
        res = pde2d.escalate_m(grid_for_ell(1.0, 33), op_p3, make_force(kind="power", q=6), cfg)
        assert len(diagnostics) == len(res.levels)
        assert any(d["factorizations"] < d["iterations"] for d in diagnostics)
        assert all(d["final_residual"] <= cfg.tol_res for d in diagnostics)


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
                         SolverConfig(max_levels=7))
        assert len(res.levels) == 7
        assert [d["iterations"] for d in diagnostics] == [1, 0, 0, 0, 0, 0, 0]

    def test_factorisation_budget(self, op_p2, force_cubic, monkeypatch):
        diagnostics = self.recorded_levels(monkeypatch)
        res = escalate_m(grid_for_ell(1.0, 65), op_p2, force_cubic)
        assert res.stop_reason == "layer-cap"
        assert sum(d["factorizations"] for d in diagnostics) <= len(res.levels) + 1
        assert all(d["final_residual"] <= SolverConfig().tol_res for d in diagnostics)

    def test_p3_escalation_takes_no_restart(self, op_p3, monkeypatch):
        diagnostics = self.recorded_levels(monkeypatch)
        res = escalate_m(grid_for_ell(1.0, 65), op_p3, make_force(kind="power", q=6))
        assert res.stop_reason == "layer-cap"
        assert [d["gs_rescues"] for d in diagnostics] == [0] * len(res.levels)

    def test_one_factor_alive_at_a_time(self, op_p3, monkeypatch):
        class Factor:       # SuperLU takes no weak references; this wrapper does
            def __init__(self, lu):
                self.solve = lu.solve

        alive = []
        built = []
        splu = pde2d.spla.splu

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in built))
            factor = Factor(splu(*args, **kwargs))
            built.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(pde2d.spla, "splu", tracked)
        cylinder_family(op_p3, make_force(kind="power", q=6), [1.0, 2.0], nx=17)
        assert len(built) > 2
        assert max(alive) == 0


def test_discrete_cross_section_solves_three_point_scheme(op_p2, force_cubic):
    # for p = 2 the 1D reduction is (w[i+1] - 2 w[i] + w[i-1]) / h^2 = w[i]^3
    fld = solve_dirichlet(grid_for_ell(1.0, 33), op_p2, force_cubic, 16.0)
    w = pde2d.discrete_cross_section(fld)
    h = fld.grid.hx
    lap = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h ** 2
    assert w[0] == w[-1] == 16.0
    assert np.max(np.abs(lap - w[1:-1] ** 3) / np.maximum(1.0, w[1:-1] ** 3)) <= 1e-11


@pytest.fixture(scope="module")
def family(op_p2, force_cubic):
    return cylinder_family(op_p2, force_cubic, [1.0, 2.0], nx=33)


class TestCylinderFamily:
    def test_anti_monotone_in_ell(self, family):
        fields, report = family
        assert report.monotone_in_ell
        assert report.max_ell_violation <= 1e-6

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
            xs, mid = f.mid_slice()
            window = np.abs(xs) <= 0.9 + 1e-12
            errs.append(float(np.max(np.abs(mid - pde2d.discrete_cross_section(f))[window])))
        assert errs[1] < errs[0]

    def test_mid_slice_extraction(self, family):
        fields, _ = family
        xs, mid = fields[0].mid_slice()
        assert len(xs) == 33
        assert mid[0] == fields[0].m

    def test_requires_increasing_ells(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            cylinder_family(op_p2, force_cubic, [2.0, 1.0], nx=17)


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
