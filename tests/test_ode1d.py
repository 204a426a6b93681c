import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from blowup_lab import (DivergenceError, DomainExceededError, ProfileDomainError,
                        SolverError, dead_core_profile, decay_sweep, ell_of_v0, eval_profile,
                        large_profile, large_solution, length_scale, make_force,
                        make_operator, psi, v0_of_ell)
from blowup_lab import ko, ode1d, radial
from blowup_lab import quadrature as qk

from conftest import rk4_profile


class TestEllOfV0:
    def test_rk_oracle_agreement(self, op_p2, force_cubic):
        # adaptive-RK blow-up location with tail extrapolation
        ell = ell_of_v0(op_p2, force_cubic, 1.0)
        rk = radial.blowup_radius(op_p2, force_cubic, 1, 1.0)
        assert ell == pytest.approx(rk, rel=1e-6)

    def test_strictly_decreasing(self, op_p2, force_cubic):
        v0s = np.logspace(-2, 2, 10)
        ells = [ell_of_v0(op_p2, force_cubic, float(v)) for v in v0s]
        assert all(b < a for a, b in zip(ells, ells[1:]))

    def test_doubling_shrinks(self, op_p3, force_cubic):
        assert ell_of_v0(op_p3, force_cubic, 2.0) < ell_of_v0(op_p3, force_cubic, 1.0)

    def test_osgood_unbounded_growth(self, op_p2, force_cubic):
        ells = [ell_of_v0(op_p2, force_cubic, v) for v in (1.0, 0.1, 0.01)]
        assert ells[0] < ells[1] < ells[2]
        assert ells[2] > 50.0   # ell = ell(1)/v0 for this force

    def test_ko_failure_raises(self, op_p2):
        with pytest.raises(DivergenceError):
            ell_of_v0(op_p2, make_force(kind="power", q=1), 1.0)

    def test_finite_ceiling_raises(self, op_mc, force_cubic):
        with pytest.raises(DomainExceededError):
            ell_of_v0(op_mc, force_cubic, 1.0)

    @given(v0=st.floats(0.05, 20.0))
    @settings(max_examples=15, deadline=None)
    def test_scaling_law_p2_cubic(self, op_p2, force_cubic, v0):
        # u -> lam*u(lam*x) symmetry gives ell(v0) = ell(1)/v0 for p=2, q=3
        assert ell_of_v0(op_p2, force_cubic, v0) == pytest.approx(
            ell_of_v0(op_p2, force_cubic, 1.0) / v0, rel=1e-9)


    def test_scaling_law_at_small_v0(self):
        # ell(v0) = ell(1) v0^-kappa for f = t^q; at v0 = 0.0105 a Simpson
        # step of F over every gap below 1e-3 (a tenth of v0) put log ell
        # 5.7e-8 off this law and the profile 4.5e-6 off its relation
        op, force = make_operator(kind="p-laplace", p=4), make_force(kind="power", q=6.49)
        v0, kappa = 0.0105, (6.49 - 4.0 + 1.0) / 4.0
        assert math.log(ell_of_v0(op, force, v0) / ell_of_v0(op, force, 1.0)) == pytest.approx(
            -kappa * math.log(v0), abs=1e-13)
        prof = large_profile(op, force, v0)
        assert max(prof.implicit_residual(np.linspace(0.0, 0.9 * prof.ell, 20))) <= 1e-10


class TestV0OfEll:
    def test_round_trip(self, op_p2, force_cubic):
        ell = ell_of_v0(op_p2, force_cubic, 1.0)
        assert v0_of_ell(op_p2, force_cubic, ell) == pytest.approx(1.0, rel=1e-6)

    def test_shrinking_ell_grows_v0(self, op_p2, force_cubic):
        vals = [v0_of_ell(op_p2, force_cubic, e) for e in (1.0, 0.5, 0.25)]
        assert vals[0] < vals[1] < vals[2]

    def test_dead_core_regime_returns_zero(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        assert v0_of_ell(op_p2, force_dead_core, L + 1.0) == 0.0
        assert v0_of_ell(op_p2, force_dead_core, L * 0.5) > 0.0

    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (3.0, 5.0)])
    @pytest.mark.parametrize("ell", [0.3, 1.0, 5.0])
    def test_power_law_inverts_in_few_evaluations(self, monkeypatch, p, q, ell):
        # log ell is linear in log v0, so the search starts on the root of the
        # line through ell(1) and ends there, within ko.LOG_FTOL in log ell
        op, force = make_operator(kind="p-laplace", p=p), make_force(kind="power", q=q)
        seen = _counted_ell(monkeypatch)
        v0 = v0_of_ell(op, force, ell)
        assert ell_of_v0(op, force, v0) == pytest.approx(ell, rel=1e-12)
        assert seen == [1.0, v0]

    def test_repeated_call_runs_no_quadrature(self, monkeypatch):
        # v0_of_ell keeps no cache of its own: a repeated call evaluates
        # ell(v0) at the same two points, each from _head_and_total's cache
        op, force = make_operator(kind="p-laplace", p=3), make_force(kind="power", q=4.5)
        v0 = v0_of_ell(op, force, 0.7)
        blocks = []
        monkeypatch.setattr(qk, "integrate_block", lambda *args, _fn=qk.integrate_block:
                            blocks.append(args) or _fn(*args))
        seen = _counted_ell(monkeypatch)
        assert v0_of_ell(op, force, 0.7) == v0
        assert seen == [1.0, v0] and blocks == []

    def test_large_solution_reuses_the_root_evaluation(self, monkeypatch):
        # the branch takes ell(v0) at the inversion's root from the cache: no
        # head or tail quadrature is run twice for it
        op, force = make_operator(kind="p-laplace", p=3), make_force(kind="power", q=5)
        calls = []
        for name in ("singular_head", "shifted_tail"):
            monkeypatch.setattr(qk, name, lambda *args, _fn=getattr(qk, name), _name=name:
                                calls.append((_name, args[2])) or _fn(*args))
        v0 = v0_of_ell(op, force, 0.8)
        assert sorted(calls) == [("shifted_tail", 1.0), ("shifted_tail", v0),
                                 ("singular_head", 1.0), ("singular_head", v0)]
        prof = large_solution(op, force, 0.8)
        assert len(calls) == 4
        assert prof.v0 == v0 and prof.ell == ell_of_v0(op, force, v0)

    @pytest.mark.parametrize("force", [
        {"kind": "piecewise-power", "a": 1.5, "b": 3},
        {"kind": "table", "points": [[0, 0], [0.5, 0.2], [1, 1.5], [2, 8], [4, 64]]},
    ], ids=["piecewise-power-below-the-knee", "table"])
    def test_start_off_the_power_law(self, monkeypatch, force):
        # f ~ t^3 only past the knee or the last knot, so the start through
        # ell(1) misses the root at v0 = 0.3 and the search goes on from it
        op, force = make_operator(kind="p-laplace", p=2), make_force(force)
        ell = ell_of_v0(op, force, 0.3)
        seen = _counted_ell(monkeypatch)
        v0 = v0_of_ell(op, force, ell)
        assert abs(math.log(v0 / 0.3)) <= 1e-12
        assert len(seen) > 2 and seen[0] == 1.0


def _counted_ell(monkeypatch):
    """The v0 of every ell_of_v0 call from here on."""
    seen = []

    def counted(op, force, v0):
        seen.append(v0)
        return ell_of_v0(op, force, v0)

    monkeypatch.setattr(ode1d, "ell_of_v0", counted)
    return seen


class TestEvalProfile:
    def test_center_value(self, op_p2, force_cubic):
        assert eval_profile(op_p2, force_cubic, 1.0, 0.0) == 1.0

    def test_even(self, op_p2, force_cubic):
        assert eval_profile(op_p2, force_cubic, 1.0, -0.7) == eval_profile(
            op_p2, force_cubic, 1.0, 0.7)

    def test_outside_domain_raises(self, op_p2, force_cubic):
        ell = ell_of_v0(op_p2, force_cubic, 1.0)
        with pytest.raises(ProfileDomainError):
            eval_profile(op_p2, force_cubic, 1.0, ell)

    def test_is_the_large_profile_value(self, op_p3, force_cubic):
        prof = large_profile(op_p3, force_cubic, 0.7)
        xs = np.array([0.0, -0.2, 0.5, 0.9, 0.999]) * prof.ell
        assert eval_profile(op_p3, force_cubic, 0.7, xs).tolist() == prof.value(xs).tolist()
        for x in xs.tolist():
            assert eval_profile(op_p3, force_cubic, 0.7, x) == prof.value(x)
        assert [v for _, v in prof.samples] == eval_profile(
            op_p3, force_cubic, 0.7, np.array([x for x, _ in prof.samples])).tolist()

    def test_independent_rk4_oracle(self, op_p2, force_cubic):
        # fixed-step RK4, entirely separate from the quadrature machinery
        ell = ell_of_v0(op_p2, force_cubic, 1.0)
        w = rk4_profile(2.0, 3.0, 1.0, 0.9 * ell)
        for frac in (0.2, 0.5, 0.9):
            x = frac * 0.9 * ell
            assert eval_profile(op_p2, force_cubic, 1.0, x) == pytest.approx(
                w(x), rel=1e-6)

    @pytest.mark.parametrize("p,q,v0", [(1.5, 1.0, 0.5), (2.0, 3.0, 2.0), (3.0, 6.0, 1.0)])
    def test_adaptive_rk_oracle(self, p, q, v0):
        op = make_operator(kind="p-laplace", p=p)
        force = make_force(kind="power", q=q)
        prof_rk = radial.shoot_ball(op, force, 1, v0)
        ell = ell_of_v0(op, force, v0)
        for x in np.linspace(0.1, 0.9, 5) * ell:
            assert eval_profile(op, force, v0, float(x)) == pytest.approx(
                prof_rk.value(float(x)), rel=1e-5)

    def test_exact_solution_anchor(self, op_p2, force_cubic):
        # one-sided exact solution sqrt(2)/(ell - x) of w'' = w^3
        ell = ell_of_v0(op_p2, force_cubic, 1.0)
        d = 1e-3 * ell
        v = eval_profile(op_p2, force_cubic, 1.0, ell - d)
        assert 0.98 <= v * d / math.sqrt(2.0) <= 1.02

    def test_implicit_relation_requadrature(self, op_p2, force_cubic, monkeypatch):
        monkeypatch.setattr(ode1d, "N_BODY", 40)
        monkeypatch.setattr(ode1d, "N_EDGE", 10)
        prof = large_profile(op_p2, force_cubic, 1.0)
        worst = max(prof.implicit_residual(x) for x, _ in prof.samples[::5])
        assert worst <= 1e-8

    def test_blowup_asymptotic_psi_ratio(self, op_p3, force_cubic):
        v0 = 1.0
        ell = ell_of_v0(op_p3, force_cubic, v0)
        ratios = []
        for d in (1e-2, 1e-3, 1e-4):
            v = eval_profile(op_p3, force_cubic, v0, ell - d)
            ratios.append(psi(op_p3, force_cubic, v) / d)
        assert 0.98 <= ratios[-1] <= 1.02

    def test_general_flux_table_operator(self):
        # fully general A: quadrature profile vs the IVP oracle at n = 1
        op = make_operator(kind="table",
                           points=[[0, 0], [0.5, 0.6], [1, 1.5], [2, 4], [4, 10]])
        force = make_force(kind="power", q=3)
        v0 = 1.0
        ell = ell_of_v0(op, force, v0)
        prof_rk = radial.shoot_ball(op, force, 1, v0)
        assert prof_rk.R == pytest.approx(ell, rel=1e-5)
        for x in (0.3 * ell, 0.7 * ell):
            assert eval_profile(op, force, v0, x) == pytest.approx(
                prof_rk.value(x), rel=1e-5)


class TestProfileObject:
    def test_samples_and_convexity(self, op_p2, force_cubic):
        prof = large_profile(op_p2, force_cubic, 1.0)
        xs = np.array([x for x, _ in prof.samples])
        vs = np.array([v for _, v in prof.samples])
        assert xs[0] == 0.0 and vs[0] == 1.0
        assert np.all(np.diff(vs) >= 0)
        body = xs <= 0.95 * prof.ell
        xb, vb = xs[body], vs[body]
        h = xb[1] - xb[0]
        d2 = vb[2:] - 2 * vb[1:-1] + vb[:-2]
        scale = h * h * np.maximum(1.0, vb[1:-1] ** 3)
        assert np.min(d2 / scale) >= -1e-8

    def test_csv_json_round_trip(self, op_p2, force_cubic, tmp_path, monkeypatch):
        monkeypatch.setattr(ode1d, "N_BODY", 20)
        monkeypatch.setattr(ode1d, "N_EDGE", 5)
        prof = large_profile(op_p2, force_cubic, 1.0)
        prof.to_csv(tmp_path / "p.csv")
        prof.to_json(tmp_path / "p.json")
        with open(tmp_path / "p.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "v"]
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == 1.0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["v0"] == 1.0
        assert doc["operator"]["kind"] == "p-laplace"
        assert len(doc["samples"]) == len(prof.samples)


class TestDeadCore:
    def test_profile_structure(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        ell = L + 0.5
        prof = dead_core_profile(op_p2, force_dead_core, ell)
        core = prof.dead_core[1]
        assert core == pytest.approx(0.5, rel=1e-10)
        assert prof.value(0.0) == 0.0
        assert prof.value(core - 1e-3) == 0.0
        assert prof.value(-(core - 1e-3)) == 0.0

    def test_edge_continuity(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        prof = dead_core_profile(op_p2, force_dead_core, L + 0.5)
        core = prof.dead_core[1]
        vals = [prof.value(core + d) for d in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6

    def test_implicit_relation_outside_core(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        prof = dead_core_profile(op_p2, force_dead_core, L + 0.5)
        for x in (0.6, 1.0, 0.5 + 0.9 * L):
            assert prof.implicit_residual(x) <= 1e-8

    def test_rk_oracle_from_core_edge(self, op_p2, force_dead_core):
        # the IVP from zero data is non-unique; seed the first step from the
        # implicit relation, then adaptive RK selects the blow-up branch
        L = length_scale(op_p2, force_dead_core)
        ell = L + 0.5
        prof = dead_core_profile(op_p2, force_dead_core, ell)
        x0 = prof.dead_core[1]
        h = 1e-3 * L
        w_seed = prof.value(x0 + h)
        z_seed = float(op_p2.flux(op_p2.energy_inverse(
            float(force_dead_core.primitive(w_seed)))))

        def rhs(x, y):
            w, z = y
            return [float(op_p2.flux_inverse(z)),
                    float(force_dead_core.value(max(w, 0.0)))]

        sol = solve_ivp(rhs, (x0 + h, x0 + 0.9 * L), (w_seed, z_seed),
                        rtol=1e-11, atol=1e-14, dense_output=True)
        for x in (x0 + 0.1, x0 + 0.4, x0 + 0.8 * L):
            assert prof.value(x) == pytest.approx(float(sol.sol(x)[0]), rel=1e-5)

    def test_requires_supercritical_ell(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        with pytest.raises(ValueError):
            dead_core_profile(op_p2, force_dead_core, 0.9 * L)

    def test_requires_convergent_zero_end(self, op_p2, force_cubic):
        with pytest.raises(DivergenceError):
            dead_core_profile(op_p2, force_cubic, 10.0)


class TestLargeSolution:
    """``large_solution`` is the one choice between a large profile and a dead
    core on (-ell, ell)."""

    @pytest.mark.parametrize("ell", [0.5, 1.0, 3.0])
    def test_osgood_side_is_the_large_profile(self, op_p2, force_cubic, ell):
        sol = large_solution(op_p2, force_cubic, ell)
        prof = large_profile(op_p2, force_cubic, v0_of_ell(op_p2, force_cubic, ell))
        xs = np.array([x for x, _ in prof.samples])
        assert (sol.v0, sol.ell, sol.dead_core, sol.samples) == (prof.v0, prof.ell, None, ())
        assert sol.value(xs).tolist() == [v for _, v in prof.samples]

    def test_past_L_has_a_core_of_half_width_ell_minus_L(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        sol = large_solution(op_p2, force_dead_core, L + 0.7)
        assert sol.v0 == 0.0 and sol.dead_core == (-(L + 0.7 - L), L + 0.7 - L)
        assert sol.value(0.3) == 0.0 and sol.value(0.75) > 0.0
        assert sol.value(0.75) == dead_core_profile(op_p2, force_dead_core, L + 0.7).value(0.75)

    def test_below_L_within_the_threshold_does_not_raise(self, op_p2, force_dead_core):
        # v0_of_ell returns 0 from L (1 - 1e-12) on; the dead core must accept
        # every ell it hands over, with an empty core below L
        L = length_scale(op_p2, force_dead_core)
        ell = L * (1.0 - 1e-13)
        assert v0_of_ell(op_p2, force_dead_core, ell) == 0.0
        sol = large_solution(op_p2, force_dead_core, ell)
        assert sol.dead_core == (0.0, 0.0)
        assert 0.0 < sol.value(0.5 * L) < sol.value(0.9 * L)

    def test_osgood_pair_classified_once(self, monkeypatch):
        # three half-lengths, three v0_of_ell misses, one classification: each
        # classification runs one 0+ ladder, and only classify runs that ladder
        op, force = make_operator(kind="p-laplace", p=2), make_force(kind="power", q=3)
        ladder, caps = qk.integrate_to_zero, []

        def counted(g, end, *, max_blocks):
            caps.append(max_blocks)
            return ladder(g, end, max_blocks=max_blocks)

        monkeypatch.setattr(qk, "integrate_to_zero", counted)
        for ell in (0.5, 1.0, 2.0):
            v0_of_ell(op, force, ell)
        assert ko.classify(op, force).osgood_holds
        assert caps == [qk.MAX_BLOCKS]


class TestDecaySweep:
    def test_monotone_decay_to_zero(self, op_p2, force_cubic):
        rows = decay_sweep(op_p2, force_cubic, [1.0, 2.0, 4.0, 8.0], 0.0)
        vals = [r.value for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0] / 4

    def test_dead_core_reaches_exact_zero(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        rows = decay_sweep(op_p2, force_dead_core,
                           [0.5 * L, L + 0.3, L + 1.0], 0.2)
        assert rows[0].value > 0.0 and not rows[0].dead_core
        assert rows[-1].dead_core
        assert rows[-1].value == 0.0
        vals = [r.value for r in rows]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_dead_core_rows_are_the_profile_value(self, op_p2, force_dead_core):
        L = length_scale(op_p2, force_dead_core)
        ells = [L + 0.1, L + 0.3, L + 1.0]
        for x_probe in (0.0, 0.2, -0.35):
            rows = decay_sweep(op_p2, force_dead_core, ells, x_probe)
            assert all(r.dead_core for r in rows)
            assert [r.value for r in rows] == [
                dead_core_profile(op_p2, force_dead_core, ell).value(x_probe) for ell in ells]

    def test_probe_outside_domain_rejected(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            decay_sweep(op_p2, force_cubic, [0.5], 1.0)


_TABLE_OPERATOR = {"kind": "table",
                   "points": [[0, 0], [0.5, 0.6], [1, 1.5], [2, 4], [4, 10]]}

# (operator, force, v0); every head, the table operator's included, is solved
# in the variable of its power substitution
_INVERSION_CASES = [
    ({"kind": "p-laplace", "p": 2}, {"kind": "power", "q": 3}, 0.3),
    ({"kind": "p-laplace", "p": 2}, {"kind": "power", "q": 3}, 2.0),
    ({"kind": "p-laplace", "p": 3}, {"kind": "power", "q": 6}, 0.3),
    ({"kind": "p-laplace", "p": 3}, {"kind": "power", "q": 6}, 2.0),
    ({"kind": "p-laplace", "p": 2}, {"kind": "exp-minus-one"}, 1.0),
    ({"kind": "p-laplace", "p": 2}, {"kind": "piecewise-power", "a": 0.4, "b": 3}, 0.0),
    ({"kind": "p-laplace", "p": 3}, {"kind": "piecewise-power", "a": 0.9, "b": 4}, 0.0),
    (_TABLE_OPERATOR, {"kind": "piecewise-power", "a": 0.5, "b": 3}, 0.0),
]
_INVERSION_IDS = ["p2-q3-v0.3", "p2-q3-v2", "p3-q6-v0.3", "p3-q6-v2", "p2-exp-v1",
                  "p2-dead-core-a0.4", "p3-dead-core-a0.9", "table-dead-core-fallback"]


def _branch_for(case):
    op_spec, force_spec, v0 = case
    op, force = make_operator(op_spec), make_force(force_spec)
    return ode1d._ImplicitBranch(op, force, v0), qk.shifted_integrand(op, force, v0)


def _oracle_root(br, x):
    """V with I(V) = x by brentq, without the branch's table or Newton: on
    the fresh re-quadrature ``integral_to``, or, for x past 0.99 of the total
    where one quadrature over many decades loses accuracy, on total minus
    the doubling-ladder tail."""
    if x <= 0.99 * br.total:
        def resid(V):
            return br.integral_to(V) - x
    else:
        def resid(V):
            return br.total - qk.shifted_tail(br.op, br.force, br.v0, V).value - x
    lo = hi = br.v0 + br.h0
    if resid(hi) > 0.0:
        lo = br.v0
    while resid(hi) < 0.0:
        lo, hi = hi, br.v0 + 2.0 * (hi - br.v0)
    return brentq(resid, lo, hi, xtol=1e-300, rtol=1e-15)


class TestInversion:
    def test_unconverged_points_raise(self, op_p2, force_cubic, monkeypatch):
        # one Newton step leaves points moving; they must not pass as values
        monkeypatch.setattr(ode1d, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(SolverError, match="unconverged after 1 Newton steps"):
            large_profile(op_p2, force_cubic, 1.0)

    @pytest.mark.parametrize("case", _INVERSION_CASES, ids=_INVERSION_IDS)
    def test_matches_bracketed_root(self, case):
        br, g = _branch_for(case)
        assert br._sub is not None
        points = {"knot": br._cum[3], "head-full": br.head_full,
                  "mid-head": 0.5 * br.head_full, "tiny": 1e-12 * br.total,
                  "near-end": br.total * (1.0 - 1e-6)}
        for name, x in points.items():
            V, ref = br.upper_value(x), _oracle_root(br, x)
            # x = I(V) is known to a few ulps of x, which dV/dx = 1/g(V)
            # magnifies near blow-up (to ~1e-9 relative at 1e-6 from the
            # end); elsewhere this allowance is below 1e-12 * V
            allowance = 1e-12 * ref + 1e-14 * x / g(ref)
            assert abs(V - ref) <= allowance, (name, V, ref)

    @pytest.mark.parametrize("case", [_INVERSION_CASES[i] for i in (0, 3, 6)],
                             ids=[_INVERSION_IDS[i] for i in (0, 3, 6)])
    def test_strictly_increasing(self, case):
        br, _ = _branch_for(case)
        xs = np.concatenate((np.linspace(0.0, br.total, 400, endpoint=False),
                             br._cum, br.total * (1.0 - np.logspace(-2.0, -6.0, 9))))
        vs = [br.upper_value(float(x)) for x in np.unique(xs)]
        assert np.all(np.diff(vs) > 0.0)

    @pytest.mark.parametrize("case", [_INVERSION_CASES[i] for i in (6, 5, 1)],
                             ids=[_INVERSION_IDS[i] for i in (6, 5, 1)])
    def test_integral_to_near_blow_up(self, case):
        # the re-quadrature spans many decades between v0 + h0 and V here
        br, _ = _branch_for(case)
        x = br.total * (1.0 - 1e-6)
        assert abs(br.integral_to(br.upper_value(x)) - x) <= 1e-12 * x

    @pytest.mark.parametrize("case", [_INVERSION_CASES[i] for i in (0, 3, 5, 7)],
                             ids=[_INVERSION_IDS[i] for i in (0, 3, 5, 7)])
    def test_integral_to_independent_of_kernel(self, case, monkeypatch):
        # the oracle of every implicit-relation check must not grade the
        # kernel with itself
        br, _ = _branch_for(case)
        xs = [0.5 * br.head_full, br._cum[2], 0.9 * br.total]
        vs = [br.upper_value(x) for x in xs]

        def kernel(*args, **kwargs):
            raise AssertionError("integral_to called integrate_block")

        monkeypatch.setattr(qk, "integrate_block", kernel)
        for x, v in zip(xs, vs):
            assert br.integral_to(v) == pytest.approx(x, rel=1e-12)
        assert br.integral_to(np.array(vs)).tolist() == pytest.approx(xs, rel=1e-12)

    @pytest.mark.parametrize("case", _INVERSION_CASES, ids=_INVERSION_IDS)
    def test_array_oracle_is_the_scalar_oracle(self, case, monkeypatch):
        # one tanh-sinh and one cubature call grade every point, 39 of them
        # with one block each.  A block that cubature subdivides splits the
        # [0, 1] that all blocks share, which may move the others' estimates
        # by an ulp; without a split the batch equals the scalar calls bit
        # for bit
        br, _ = _branch_for(case)
        s0 = br.v0 + br.h0
        xs = np.linspace(0.0, 0.9 * br.total, 20)
        vs = np.concatenate((br.upper_value(xs), [br.v0 + 0.5 * br.h0],
                             np.linspace(s0, 2.0 * s0, 40)[1:]))
        calls = []

        def kept(fn):
            def call(*args, **kwargs):
                calls.append(fn(*args, **kwargs))
                return calls[-1]
            return call

        for name in ("tanhsinh", "cubature"):
            monkeypatch.setattr(ode1d, name, kept(getattr(ode1d, name)))
        batched = br.integral_to(vs.reshape(2, -1))
        assert len(calls) == 2 and batched.shape == (2, 30)
        alone = np.array([br.integral_to(v) for v in vs.tolist()])
        if calls[1].subdivisions == 0:
            assert batched.ravel().tolist() == alone.tolist()
        np.testing.assert_array_max_ulp(batched.ravel(), alone, maxulp=2)
        assert batched.ravel()[:20] == pytest.approx(xs, rel=1e-12, abs=1e-300)

    def test_quadratures_per_point(self, monkeypatch):
        calls = {"n": 0}
        for name in ("integrate_block", "singular_head"):
            fn = getattr(qk, name)

            def counted(*args, _fn=fn, **kwargs):
                calls["n"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(qk, name, counted)
        # fresh objects, so the cached branch of the fixtures is not reused
        op = make_operator(kind="p-laplace", p=2)
        force = make_force(kind="power", q=3)
        prof = large_profile(op, force, 1.0)
        assert calls["n"] / len(prof.samples) <= 6.0


def _strictly_increasing_xs(br):
    return np.unique(np.concatenate((np.linspace(0.0, br.total, 400, endpoint=False),
                                     br._cum, br.total * (1.0 - np.logspace(-2.0, -6.0, 9)))))


class TestBatchedInversion:
    @pytest.mark.parametrize("case", [_INVERSION_CASES[i] for i in (0, 3, 6)],
                             ids=[_INVERSION_IDS[i] for i in (0, 3, 6)])
    def test_array_equals_scalar_calls(self, case):
        # head points, knots and near-end points; separate branches, so the
        # table each one grows on demand differs too
        xs = _strictly_increasing_xs(_branch_for(case)[0])
        batched = _branch_for(case)[0].upper_value(xs)
        br = _branch_for(case)[0]
        assert batched.tolist() == [br.upper_value(float(x)) for x in xs]

    def test_scalar_in_float_out(self):
        br, _ = _branch_for(_INVERSION_CASES[0])
        assert type(br.upper_value(0.5 * br.total)) is float
        assert type(br.upper_value(np.float64(0.0))) is float
        assert br.upper_value(np.array([0.5 * br.total])).shape == (1,)

    def test_kernel_calls_per_sample(self, monkeypatch):
        calls = {"n": 0}
        for name in ("integrate_block", "singular_head"):
            fn = getattr(qk, name)

            def counted(*args, _fn=fn, **kwargs):
                calls["n"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(qk, name, counted)
        prof = large_profile(make_operator(kind="p-laplace", p=2),
                             make_force(kind="power", q=3), 1.0)
        assert calls["n"] / len(prof.samples) <= 0.25

    @pytest.mark.parametrize("where", ["below", "at-total", "beyond"])
    def test_one_point_outside_the_domain_is_named(self, where):
        br, _ = _branch_for(_INVERSION_CASES[0])
        bad = {"below": -0.25, "at-total": br.total, "beyond": 2.0 * br.total}[where]
        xs = np.array([0.0, 0.5 * br.head_full, bad, 0.5 * br.total])
        with pytest.raises(ProfileDomainError, match=f"coordinate {bad:g} outside"):
            br.upper_value(xs)

    def test_dead_core_samples_inside_the_core_are_zero(self, op_p2, force_dead_core):
        prof = dead_core_profile(op_p2, force_dead_core,
                                 length_scale(op_p2, force_dead_core) + 0.5)
        core = prof.dead_core[1]
        inside = [v for x, v in prof.samples if x <= core]
        outside = [v for x, v in prof.samples if x > core]
        assert len(inside) > 10 and all(v == 0.0 for v in inside)
        assert all(type(v) is float for v in inside)
        assert all(v > 0.0 for v in outside)

    def test_profile_value_of_an_array(self, op_p2, force_dead_core):
        prof = dead_core_profile(op_p2, force_dead_core,
                                 length_scale(op_p2, force_dead_core) + 0.5)
        xs = np.linspace(-0.99 * prof.ell, 0.99 * prof.ell, 41)
        assert prof.value(xs).tolist() == [prof.value(float(x)) for x in xs]
        for bad in (prof.ell, -prof.ell, math.nan):
            with pytest.raises(ProfileDomainError):
                prof.value(np.array([0.0, bad]))

    @pytest.mark.parametrize("dead", [False, True], ids=["large", "dead-core"])
    def test_implicit_residual_of_an_array(self, op_p2, force_cubic, force_dead_core, dead):
        if dead:
            prof = dead_core_profile(op_p2, force_dead_core,
                                     length_scale(op_p2, force_dead_core) + 0.5)
        else:
            prof = large_profile(op_p2, force_cubic, 1.0)
        xs = np.array([0.0, -0.3, 0.45, 0.6, -0.8]) * (1.0 if dead else prof.ell)
        res = prof.implicit_residual(xs)
        assert res.tolist() == [prof.implicit_residual(float(x)) for x in xs]
        assert type(prof.implicit_residual(float(xs[3]))) is float
        assert res.max() <= 1e-8
        if dead:    # the core is [-0.5, 0.5]
            assert res[:3].tolist() == [0.0, 0.0, 0.0] and res[3:].min() > 0.0


_TABLE_5 = [[0, 0], [0.5, 0.4], [1, 1], [2, 3], [4, 8]]


@pytest.fixture(scope="module")
def table_reference():
    """V with I(V) = x for the 5-knot table operator, f = t^3, v0 = 1, at two
    points (one in the head, one past it), to 30 digits: mpmath quadrature
    in s = 1 + u^2, split at the u of every kink, with the exact
    segment-wise B^-1, and findroot on x."""
    import mpmath as mp
    with mp.workdps(30):
        r = [mp.mpf(a) for a, _ in _TABLE_5]
        A = [mp.mpf(b) for _, b in _TABLE_5]
        c = [(A[i + 1] - A[i]) / (r[i + 1] - r[i]) for i in range(4)]
        Bk = [mp.mpf(0)]
        for i in range(4):
            Bk.append(Bk[-1] + c[i] * (r[i + 1] ** 2 - r[i] ** 2) / 2)

        def binv(y):
            k = max(i for i in range(4) if Bk[i] <= y)
            return mp.sqrt(r[k] ** 2 + 2 * (y - Bk[k]) / c[k])

        def density(u):
            w = u * u   # F(1 + w) - F(1) = ((1 + w)^4 - 1)/4 without cancellation
            return 2 * u / binv(w * (4 + w * (6 + w * (4 + w))) / 4)

        kinks = [mp.sqrt((1 + 4 * b) ** mp.mpf(0.25) - 1) for b in Bk[1:4]]

        def integral(V):
            U = mp.sqrt(V - 1)
            return mp.quad(density, [mp.mpf(0)] + [u for u in kinks if u < U] + [U])

        return {x: float(mp.findroot(lambda V: integral(V) - mp.mpf(x), mp.mpf(V0)))
                for x, V0 in ((0.5348, 1.19), (1.364, 2.45))}


class TestTableOperatorProfile:
    """The 5-knot table operator with f = t^3 and v0 = 1: the integrand has
    kinks wherever F(s) - F(v0) crosses a knot energy, two of them in the
    head [1, 1.5]."""

    @staticmethod
    def _branch():
        return ode1d._ImplicitBranch(make_operator(kind="table", points=_TABLE_5),
                                     make_force(kind="power", q=3), 1.0)

    def test_matches_kink_split_reference(self, table_reference):
        br = self._branch()
        assert br.head_full > 0.5348
        for x, ref in table_reference.items():
            assert br.upper_value(x) == pytest.approx(ref, rel=1e-12), x

    def test_oracle_splits_at_the_kinks(self, table_reference):
        br = self._branch()
        for x, ref in table_reference.items():
            assert abs(br.integral_to(ref) - x) <= 1e-12, x

    def test_profile_takes_one_singular_head(self, monkeypatch):
        calls = {"n": 0}
        singular_head = qk.singular_head

        def counted(*args, **kwargs):
            calls["n"] += 1
            return singular_head(*args, **kwargs)

        monkeypatch.setattr(qk, "singular_head", counted)
        prof = large_profile(make_operator(kind="table", points=_TABLE_5),
                             make_force(kind="power", q=3), 1.0)
        assert calls["n"] <= 1
        assert len(prof.samples) == 201


_FORCE_TABLE = [[0, 0], [0.5, 0.3], [1, 1], [2, 5], [4, 30]]


@pytest.fixture(scope="module")
def table_force_reference():
    """I(V) for the 5-knot table operator with the table force above and
    v0 = 0.3, at two V in the head [0.3, 0.8], to 30 digits: mpmath
    quadrature in s = v0 + u^2, split at the u of every kink (the force's
    knots and the operator's knot energies), with exact F(v0 + w) - F(v0)
    and the exact segment-wise B^-1."""
    import mpmath as mp
    with mp.workdps(30):
        r = [mp.mpf(a) for a, _ in _TABLE_5]
        A = [mp.mpf(b) for _, b in _TABLE_5]
        c = [(A[i + 1] - A[i]) / (r[i + 1] - r[i]) for i in range(4)]
        Bk = [mp.mpf(0)]
        for i in range(4):
            Bk.append(Bk[-1] + c[i] * (r[i + 1] ** 2 - r[i] ** 2) / 2)

        def binv(y):
            k = max(i for i in range(4) if Bk[i] <= y)
            return mp.sqrt(r[k] ** 2 + 2 * (y - Bk[k]) / c[k])

        t = [mp.mpf(a) for a, _ in _FORCE_TABLE]
        f = [mp.mpf(b) for _, b in _FORCE_TABLE]
        v0 = mp.mpf("0.3")

        def gap(w):     # F(v0 + w) - F(v0) as a sum of positive segment terms
            out = mp.mpf(0)
            for i in range(4):
                lo, hi = max(0, t[i] - v0), min(w, t[i + 1] - v0)
                if hi > lo:
                    slope = (f[i + 1] - f[i]) / (t[i + 1] - t[i])
                    out += (f[i] + slope * (v0 + lo - t[i])) * (hi - lo) \
                        + slope * (hi - lo) ** 2 / 2
            return out

        kinks = sorted([mp.sqrt(tk - v0) for tk in t[1:]]
                       + [mp.sqrt(mp.findroot(lambda w, b=b: gap(w) - b, (0, 4),
                                              solver="bisect")) for b in Bk[1:4]])

        def integral(V):
            U = mp.sqrt(mp.mpf(V) - v0)
            return mp.quad(lambda u: 2 * u / binv(gap(u * u)),
                           [mp.mpf(0)] + [u for u in kinks if u < U] + [U])

        return {V: float(integral(V)) for V in (0.5022, 0.586)}


def test_oracle_splits_at_the_force_knots(table_force_reference):
    # the force's knee at 0.5 lies inside the head; without a split there
    # tanh-sinh misses I(0.5022) by 6e-10
    br = ode1d._ImplicitBranch(make_operator(kind="table", points=_TABLE_5),
                               make_force(kind="table", points=_FORCE_TABLE), 0.3)
    for V, ref in table_force_reference.items():
        assert abs(br.integral_to(V) - ref) <= 1e-12, V
