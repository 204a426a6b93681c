import math

import numpy as np
import pytest

from blowup_lab import (BlowupLabError, BlowupRateFn, DivergenceError, ExperimentConfig,
                        ValidationError, annulus_barrier, ball_large_solution,
                        blowup_radius, ell_of_v0, eval_profile, grid_for_ell,
                        local_bound_check, make_force, make_operator, psi, run,
                        shoot_ball, solve_dirichlet, v0_of_ell)
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

    def test_equation_residual(self, op_p2, op_p3, force_cubic):
        f6 = make_force(kind="power", q=6)
        for op, force, n in ((op_p2, force_cubic, 2), (op_p3, f6, 2),
                             (op_p2, force_cubic, 3)):
            prof = shoot_ball(op, force, n, 1.0)
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
        rate = BlowupRateFn(op_p2, force_cubic)
        d = 1e-3
        ratio = prof.value(prof.R - d) / rate.phi(d)
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


def _counted(build):
    """build() under a shot function that counts shots and dense shots."""
    shots = []

    def shoot(*args):
        shots.append(args[-1])
        return real(*args)

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
        # loc_tol * r_inner shows in this ratio once d comes near it
        op, force, r_inner, prof, _, _ = counted_annulus
        assert 0.99 <= psi(op, force, prof.value(r_inner + d)) / d <= 1.01

    def test_shot_budget(self, counted_annulus):
        *_, n_shots, n_dense = counted_annulus
        assert n_shots <= 10
        assert n_dense == 1          # only the accepted shot is sampled


class TestShotBudget:
    @pytest.mark.parametrize("p,q,n,R", [(2.0, 3.0, 2, 1.0), (3.0, 5.0, 3, 0.7),
                                         (2.0, 2.5, 2, 1.0)])
    def test_ball_large_solution(self, p, q, n, R):
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        prof, n_shots, n_dense = _counted(lambda: ball_large_solution(op, force, n, R))
        assert prof.R == pytest.approx(R, rel=1e-6)
        assert n_shots <= 7
        assert n_dense == 1

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

    def test_annulus_names_the_stop(self, op_p2, force_cubic):
        with pytest.raises(BlowupLabError, match=r"stopped at r = .*Required step size"):
            annulus_barrier(op_p2, force_cubic, 2, 1.0, 2.0, w_cap=1e200)


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


# a seeded 10-knot table of the general-operator benchmark: a shot in r alone
# gives up near w = 1.1e9 on its q = 4 re-shot to w = 1e10
_TABLE = [[0.0, 0.0], [0.128, 0.17], [0.297, 0.499], [0.541, 0.933], [1.095, 1.98],
          [1.801, 3.183], [3.061, 5.297], [6.562, 8.608], [12.453, 19.97], [20.724, 27.172]]


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

    def test_ball_must_fit(self, small_field):
        with pytest.raises(ValueError):
            local_bound_check(small_field, (0.5, 0.0), 0.8)
