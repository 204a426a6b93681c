import math

import numpy as np
import pytest

from blowup_lab import (BlowupLabError, BracketError, DiscreteField, DivergenceError,
                        ExperimentConfig, ValidationError, annulus_barrier,
                        ball_large_solution, blowup_radius, ell_of_v0, eval_profile,
                        grid_for_ell, large_solution, length_scale, local_bound_check,
                        make_force, make_operator, phi, psi, run, shoot_ball,
                        solve_dirichlet, v0_of_ell)
from blowup_lab import radial


class TestShootBall:
    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (3.0, 6.0)])
    def test_dimensional_reduction(self, p, q):
        op = make_operator(kind="p-laplace", p=p)
        force = make_force(kind="power", q=q)
        for v0 in (0.5, 1.0, 3.0):
            prof = shoot_ball(op, force, 1, v0)
            ell = ell_of_v0(op, force, v0)
            assert prof.R == pytest.approx(ell, rel=1e-5)
            assert eval_profile(op, force, v0, 0.5 * ell) == pytest.approx(
                prof.value(0.5 * ell), rel=1e-5)

    def test_center_conditions(self, op_p2, force_cubic):
        prof = shoot_ball(op_p2, force_cubic, 2, 1.0)
        assert prof.r[0] == 0.0
        assert prof.w[0] == 1.0
        assert prof.wprime[0] == 0.0
        assert np.all(np.diff(prof.w) >= -1e-12)
        # the shot starts at R_START; nearer the centre the profile reads v0
        assert prof.value(0.0) == prof.value(radial.R_START) == 1.0

    def test_equation_residual(self, op_p2, op_p3, force_cubic):
        f6 = make_force(kind="power", q=6)
        # the last ball has R = 0.5 near the KO frontier (p = 2.92, q = 2.98),
        # where a centered dz/dr without the Richardson step read 1.1e-6
        frontier = (make_operator(kind="p-laplace", p=2.92), make_force(kind="power", q=2.98))
        for op, force, n, v0 in ((op_p2, force_cubic, 2, 1.0), (op_p3, f6, 2, 1.0),
                                 (op_p2, force_cubic, 3, 1.0),
                                 (*frontier, 2, 406.0614181087574)):
            prof = shoot_ball(op, force, n, v0)
            pts = np.linspace(0.15 * prof.R, min(0.9 * prof.R, prof.r[-1]), 30)
            assert float(np.max(np.abs(prof.residual(pts)))) <= 1e-6

    def test_radius_decreasing_in_v0(self, op_p2, force_cubic):
        v0s = np.logspace(-1.5, 1.5, 10)
        Rs = [blowup_radius(op_p2, force_cubic, 2, float(v)) for v in v0s]
        assert all(b < a for a, b in zip(Rs, Rs[1:]))

    def test_radius_monotone_pair(self, op_p2, force_cubic):
        assert blowup_radius(op_p2, force_cubic, 2, 2.0) < blowup_radius(
            op_p2, force_cubic, 2, 1.0)

    def test_small_v0_grows_radius(self, op_p2, force_cubic):
        Rs = [blowup_radius(op_p2, force_cubic, 2, v) for v in (1.0, 0.1, 0.01)]
        assert Rs[0] < Rs[1] < Rs[2]

    def test_cap_doubling_agreement(self, op_p2, op_p3, force_cubic):
        f6 = make_force(kind="power", q=6)
        for op, force in ((op_p2, force_cubic), (op_p3, f6)):
            a = blowup_radius(op, force, 2, 1.0)
            b = blowup_radius(op, force, 2, 1.0, w_cap=1e10)
            assert abs(a - b) / a < 1e-6

    def test_ko_failure_rejected(self, op_p2):
        with pytest.raises(DivergenceError):
            shoot_ball(op_p2, make_force(kind="power", q=1), 2, 1.0)

    def test_general_operator_needs_n1(self, op_mc, force_cubic):
        with pytest.raises(ValidationError):
            shoot_ball(op_mc, force_cubic, 2, 1.0)


class TestBallLargeSolution:
    def test_round_trip(self, op_p2, force_cubic):
        prof = ball_large_solution(op_p2, force_cubic, 2, 1.0)
        assert prof.R == pytest.approx(1.0, rel=1e-6)
        assert blowup_radius(op_p2, force_cubic, 2, prof.v0) == pytest.approx(
            1.0, rel=1e-6)

    def test_n1_reduces_to_inverse_map(self, op_p2, force_cubic):
        prof = ball_large_solution(op_p2, force_cubic, 1, 1.0)
        assert prof.v0 == pytest.approx(v0_of_ell(op_p2, force_cubic, 1.0), rel=1e-5)

    def test_boundary_asymptotic(self, op_p2, force_cubic):
        prof = ball_large_solution(op_p2, force_cubic, 2, 1.0)
        d = 1e-3
        ratio = prof.value(prof.R - d) / phi(op_p2, force_cubic, d)
        assert 0.97 <= ratio <= 1.03

    def test_nested_balls_dominate(self, op_p2, force_cubic):
        small = ball_large_solution(op_p2, force_cubic, 2, 0.6)
        large = ball_large_solution(op_p2, force_cubic, 2, 1.2)
        rs = np.linspace(0.0, 0.55, 40)
        ws = np.array([small.value(float(r)) if r > 0 else small.v0 for r in rs])
        wl = np.array([large.value(float(r)) if r > 0 else large.v0 for r in rs])
        assert np.all(ws >= wl - 1e-8)


@pytest.fixture(scope="module")
def barrier(op_p2, force_cubic):
    return annulus_barrier(op_p2, force_cubic, 2, 1.0, 2.0)


@pytest.fixture(scope="module")
def small_field(op_p2, force_cubic):
    return solve_dirichlet(grid_for_ell(1.0, 33), op_p2, force_cubic, 8.0)


class TestAnnulusBarrier:
    def test_blowup_location(self, barrier):
        assert barrier.R == pytest.approx(1.0, rel=1e-4)

    def test_strictly_decreasing_in_r(self, barrier):
        assert np.all(np.diff(barrier.w) <= 1e-12)

    def test_outer_value_zero(self, barrier):
        assert barrier.w[-1] == pytest.approx(0.0, abs=1e-12)
        assert barrier.r[-1] == pytest.approx(2.0)

    def test_inner_one_sided_inequality(self, op_p2, force_cubic, barrier):
        t = 1.0 + 1e-3
        ratio = psi(op_p2, force_cubic, barrier.value(t)) / (t - 1.0)
        assert ratio <= 1.05

    def test_a_slope_off_its_root_raises(self, op_p2, force_cubic, monkeypatch):
        # planted defect: the outer slope's search returns a log s 1e-4 off its
        # root, which moves the blow-up location by far more than LOC_TOL
        root = radial.ko_mod.increasing_root
        monkeypatch.setattr(radial.ko_mod, "increasing_root",
                            lambda *args: root(*args) + 1e-4)
        with pytest.raises(BracketError, match=r"beyond 1e-08 of r = 1 \(relative\)"):
            annulus_barrier(op_p2, force_cubic, 2, 1.0, 2.0)


def _counted(build):
    """build() under a shot function that counts shots and dense shots."""
    shots = []

    def shoot(*args, **kwargs):
        shots.append(args[-1])
        return real(*args, **kwargs)

    real = radial._shoot
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "_shoot", shoot)
        prof = build()
    return prof, len(shots), sum(shots)


ANNULI = [(2.0, 3.0, 2, 1.0, 2.0), (3.0, 5.0, 3, 1.3, 2.6), (2.0, 4.0, 2, 0.7, 2.0)]


@pytest.fixture(scope="module", params=ANNULI, ids=["p2-q3-n2", "p3-q5-n3", "p2-q4-n2"])
def counted_annulus(request):
    p, q, n, r_inner, r_outer = request.param
    op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
    return (op, force, r_inner) + _counted(
        lambda: annulus_barrier(op, force, n, r_inner, r_outer))


class TestAnnulusAccuracy:
    def test_location(self, counted_annulus):
        _, _, r_inner, prof, _, _ = counted_annulus
        assert abs(prof.R - r_inner) <= 1e-7 * r_inner

    @pytest.mark.parametrize("d", [1e-3, 1e-4])
    def test_one_sided_inequality(self, counted_annulus, d):
        # Psi(w) is the distance to the blow-up in 1D; a location error of
        # LOC_TOL * r_inner shows in this ratio once d comes near it
        op, force, r_inner, prof, _, _ = counted_annulus
        assert 0.99 <= psi(op, force, prof.value(r_inner + d)) / d <= 1.01

    def test_shot_budget(self, counted_annulus):
        *_, n_shots, n_dense = counted_annulus
        assert n_shots <= 10
        assert n_dense == 1          # only the accepted shot is sampled


# a seeded 10-knot table of the general-operator benchmark: a shot in r alone
# gives up near w = 1.1e9 on its q = 4 re-shot to w = 1e10
_TABLE = [[0.0, 0.0], [0.128, 0.17], [0.297, 0.499], [0.541, 0.933], [1.095, 1.98],
          [1.801, 3.183], [3.061, 5.297], [6.562, 8.608], [12.453, 19.97], [20.724, 27.172]]


class TestShotBudget:
    @pytest.mark.parametrize("p,q,n,R", [(2.0, 3.0, 2, 1.0), (3.0, 5.0, 3, 0.7),
                                         (2.0, 2.5, 2, 1.0)])
    def test_ball_large_solution(self, p, q, n, R):
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        prof, n_shots, n_dense = _counted(lambda: ball_large_solution(op, force, n, R))
        assert prof.R == pytest.approx(R, rel=1e-6)
        # v0 = 1, then the root of the power-law line through it, then the
        # dense shot
        assert n_shots <= 3
        assert n_dense == 1

    @pytest.mark.parametrize("force,R", [
        ({"kind": "exp-minus-one"}, 1.0),                 # no power law: starts at v0 = 1
        ({"kind": "piecewise-power", "a": 0.5, "b": 3}, 3.0),    # v0 = 0.57, below the knee
    ], ids=["exp", "piecewise"])
    def test_ball_fallbacks(self, force, R, op_p2):
        prof, _, n_dense = _counted(
            lambda: ball_large_solution(op_p2, make_force(**force), 2, R))
        assert abs(prof.R - R) <= 1e-6 * R
        assert n_dense == 1

    def test_ball_start_below_end_point(self, op_p2):
        # q = 1.2 past the last knot puts the power-law root near v0 = 1.4e9,
        # past the end point w = 1e8; the root lies at v0 = 6.0e6
        force = make_force(kind="table", points=[[0, 0], [1, 1], [10, 1e6],
                                                 [20, 1e6 * 2 ** 1.2]])
        shots = []
        real = radial.blowup_radius

        def counted(*args, **kwargs):
            shots.append(args[3])
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "blowup_radius", counted)
            prof = ball_large_solution(op_p2, force, 2, 0.01)
        assert shots[:2] == [1.0, pytest.approx(radial.W_CAP / 4.0, rel=1e-12)]
        assert abs(prof.R - 0.01) <= 1e-6 * 0.01

    @pytest.mark.parametrize("force,operator,n,v0,n_phase1", [
        ({"kind": "power", "q": 3.0}, {"kind": "table", "points": _TABLE}, 1, 0.8, 1),
        # Psi(1e8) = 4.7e-3 > d / 10: the asymptotic ratio re-shoots to Phi(d / 10)
        ({"kind": "power", "q": 2.98}, {"kind": "p-laplace", "p": 2.92}, 2, 1.0, 1),
        # 4 v0 = 80 lies past the end point w = 65.2, where the profile's phase 1
        # handed over, so the capped shot integrates phase 1 again; R = 1.01e-4
        # leaves no room for d, so the asymptotic ratio is not graded
        ({"kind": "exp-minus-one"}, {"kind": "p-laplace", "p": 2}, 1, 20.0, 2),
    ], ids=["table", "frontier", "exp-past-switch"])
    def test_cap_reshots_reuse_phase1(self, tmp_path, force, operator, n, v0, n_phase1):
        phase1 = []
        real = radial.solve_ivp

        def solve_ivp(fun, *args, **kwargs):
            phase1.append(fun.__name__ == "in_r")
            return real(fun, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "solve_ivp", solve_ivp)
            rep = _radial_report(tmp_path, force, operator, n=n, v0=v0)
        assert sum(phase1) == n_phase1
        # each check reads what fresh shots give, bit for bit
        op, f, d = make_operator(**operator), make_force(**force), 1e-3
        prof = shoot_ball(op, f, n, v0)
        capped = blowup_radius(op, f, n, v0, w_cap=100.0 * radial.W_CAP)
        graded = prof if prof.R - prof.r[-1] <= d / 10.0 else shoot_ball(
            op, f, n, v0, w_cap=phi(op, f, d / 10.0))
        checks = {c.name: c.measured for c in rep.checks}
        assert checks["blowup-radius-cap-stable"] == abs(capped - prof.R) / prof.R
        assert checks["boundary-asymptotic-ratio"] == (
            graded.value(graded.R - d) / phi(op, f, d) if d < prof.R else None)

    @pytest.mark.parametrize("operator,n", [
        ({"kind": "p-laplace", "p": 2}, 2), ({"kind": "p-laplace", "p": 3}, 3),
        ({"kind": "table", "points": [[0, 0], [0.5, 0.4], [1, 1], [2, 3], [4, 8]]}, 1),
    ], ids=["p2-n2", "p3-n3", "table-n1"])
    def test_event_only_shot_matches_dense_shot(self, operator, n, force_cubic):
        op = make_operator(**operator)
        for v0 in (0.5, 2.0):
            assert blowup_radius(op, force_cubic, n, v0) == shoot_ball(
                op, force_cubic, n, v0).R

    def test_rhs_calls_per_shot(self, op_p2, force_cubic):
        # a shot in r alone needs 3,389 calls here, 80 % of them past w = 10
        calls = []

        def solve_ivp(*args, **kwargs):
            sol = real(*args, **kwargs)
            calls.append(sol.nfev)
            return sol

        real = radial.solve_ivp
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "solve_ivp", solve_ivp)
            blowup_radius(op_p2, force_cubic, 2, 1.0)
        assert sum(calls) <= 1500


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestIntegratorFailure:
    # w^3 overflows at w = 5.6e102, long before the explicit cap w = 1e200
    @pytest.mark.parametrize("n", [1, 2])
    def test_ball_names_the_stop(self, op_p2, force_cubic, n):
        for shoot in (shoot_ball, blowup_radius):
            with pytest.raises(BlowupLabError,
                               match=r"stopped at r = .*, w = 5\.6\d*e\+102: Required step"):
                shoot(op_p2, force_cubic, n, 1.0, w_cap=1e200)

    def test_annulus_names_the_stop(self, op_p2, force_cubic, monkeypatch):
        end_point = radial._end_point
        monkeypatch.setattr(radial, "_end_point", lambda op, force, w_cap: end_point(
            op, force, 1e200))
        with pytest.raises(BlowupLabError, match=r"stopped at r = .*Required step size"):
            annulus_barrier(op_p2, force_cubic, 2, 1.0, 2.0)


def _radial_report(tmp_path, force, operator, **params):
    return run(ExperimentConfig.from_dict({"kind": "radial", "force": force,
                                           "operator": operator, "params": params}),
               tmp_path)


class TestExponentialForce:
    # Psi(1e8) = 0 in floating point: the shots end where Psi = 1e-14, at
    # w = 65.2 for p = 2 and w = 99.6 for p = 3, far from the overflow of e^w
    @pytest.mark.parametrize("p,w_end", [(2.0, 65.1655), (3.0, 99.5989)])
    def test_end_point(self, p, w_end):
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="exp-minus-one")
        w, psi_end = radial._end_point(op, force, radial.W_CAP)
        assert w == pytest.approx(w_end, rel=1e-5)
        assert psi_end == pytest.approx(1e-14, rel=1e-9)
        # the cap-stability re-shot ends where Psi = 1e-16
        w2, psi2 = radial._end_point(op, force, 100.0 * radial.W_CAP)
        assert w2 > w and psi2 == pytest.approx(1e-16, rel=1e-9)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_ball_passes(self, tmp_path, p, n):
        rep = _radial_report(tmp_path, {"kind": "exp-minus-one"},
                             {"kind": "p-laplace", "p": p}, n=n, v0=1.0)
        assert rep.status == "pass", [c.to_dict() for c in rep.checks]

    @pytest.mark.parametrize("n", [1, 2])
    def test_annulus_passes(self, tmp_path, n):
        rep = _radial_report(tmp_path, {"kind": "exp-minus-one"},
                             {"kind": "p-laplace", "p": 2}, n=n, r_inner=1.0, r_outer=2.0)
        assert rep.status == "pass", [c.to_dict() for c in rep.checks]
        assert abs(rep.checks[0].measured["R"] - 1.0) <= 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_n1_matches_ell_of_v0(self, p):
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="exp-minus-one")
        for v0 in (0.5, 1.0, 2.0):
            assert blowup_radius(op, force, 1, v0) == pytest.approx(
                ell_of_v0(op, force, v0), rel=1e-9)


def test_table_shot_is_cap_stable_at_q4(tmp_path):
    rep = _radial_report(tmp_path, {"kind": "power", "q": 4.0},
                         {"kind": "table", "points": _TABLE}, n=1, v0=1.0)
    assert rep.status == "pass", [c.to_dict() for c in rep.checks]
    (check,) = [c for c in rep.checks if c.name == "blowup-radius-cap-stable"]
    assert check.measured <= 1e-14


class TestLocalBound:
    def test_bound_holds(self, small_field, op_p2, force_cubic):
        rep = local_bound_check(small_field, (0.0, 0.0), 0.8)
        assert rep.passed
        assert rep.max_u <= rep.bound + rep.slack
        assert rep.n_nodes > 0

    def test_zero_field_trivial(self, op_p2, force_cubic):
        fld = solve_dirichlet(grid_for_ell(1.0, 33), op_p2, force_cubic, 0.0)
        rep = local_bound_check(fld, (0.0, 0.0), 0.8)
        assert rep.passed and rep.max_u == 0.0

    def test_bound_monotone_in_R(self, op_p2, force_cubic):
        # omega_R(R/2) decreases as the barrier interval widens
        vals = []
        for R in (0.4, 0.8):
            v0R = v0_of_ell(op_p2, force_cubic, R)
            vals.append(eval_profile(op_p2, force_cubic, v0R, R / 2.0))
        assert vals[1] < vals[0]

    def test_barrier_past_L_is_the_dead_core(self):
        # R = 1 > L = 0.95: omega is the dead-core profile on (-1, 1), not a
        # profile with v0 = 0 on (-L, L) or a ValueError
        op = make_operator(kind="p-laplace", p=3)
        force = make_force(kind="table", points=[[0, 0], [1, 450], [2, 3600], [4, 28800]])
        assert length_scale(op, force) < 1.0
        grid = grid_for_ell(1.0, 17)
        fld = DiscreteField(grid, np.zeros((grid.nx, grid.ny)), 0.0, op, force)
        rep = local_bound_check(fld, (0.0, 0.0), 1.0)
        omega = large_solution(op, force, 1.0)
        assert omega.dead_core is not None
        assert rep.bound == omega.value(0.5) > 0.0
        assert rep.passed and rep.max_u == 0.0

    def test_ball_must_fit(self, small_field):
        with pytest.raises(ValueError):
            local_bound_check(small_field, (0.5, 0.0), 0.8)

    @pytest.mark.parametrize("R", [0.25, 0.1])
    def test_ball_must_span_more_than_four_cells(self, small_field, R):
        # h = 1/16: at R <= 4 h the slack point R/2 + 2h reaches omega's
        # blow-up at R, where the bound cannot fail
        with pytest.raises(ValueError, match="not above 4 h"):
            local_bound_check(small_field, (0.0, 0.0), R)
        assert local_bound_check(small_field, (0.0, 0.0), 0.26).slack < math.inf
