import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from blowup_lab import (DivergenceError, DomainExceededError, ProfileDomainError,
                        dead_core_profile, decay_sweep, ell_of_v0, eval_profile,
                        large_profile, length_scale, make_force, make_operator,
                        psi, v0_of_ell)
from blowup_lab import ode1d, radial
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

    def test_implicit_relation_requadrature(self, op_p2, force_cubic):
        prof = large_profile(op_p2, force_cubic, 1.0, n_body=40, n_edge=10)
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

    def test_csv_json_round_trip(self, op_p2, force_cubic, tmp_path):
        prof = large_profile(op_p2, force_cubic, 1.0, n_body=20, n_edge=5)
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

    def test_probe_outside_domain_rejected(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            decay_sweep(op_p2, force_cubic, [0.5], 1.0)


_TABLE_OPERATOR = {"kind": "table",
                   "points": [[0, 0], [0.5, 0.6], [1, 1.5], [2, 4], [4, 10]]}

# (operator, force, v0); the last one has no head substitution and takes the
# bracketed fallback on singular_head
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
    @pytest.mark.parametrize("case", _INVERSION_CASES, ids=_INVERSION_IDS)
    def test_matches_bracketed_root(self, case):
        br, g = _branch_for(case)
        assert (br._sub is None) == (case[0]["kind"] == "table")
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
