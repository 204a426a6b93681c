import json
import math

import numpy as np
import pytest

from blowup_lab import (BlowupRateFn, BracketError, DivergenceError, DomainExceededError,
                        check_a5, classify, length_scale, make_force,
                        make_operator, phi, psi)
from blowup_lab import ko

from conftest import psi_power_closed_form


class TestPsi:
    def test_p2_cubic_closed_form(self, op_p2, force_cubic):
        # Psi_2(1) = sqrt(2) for f = t^3
        assert psi(op_p2, force_cubic, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-10)
        for r in (0.5, 2.0, 10.0):
            assert psi(op_p2, force_cubic, r) == pytest.approx(
                psi_power_closed_form(2.0, 3.0, r), rel=1e-10)

    def test_decreasing_to_zero(self, op_p2, force_cubic):
        rs = np.logspace(0, 5, 11)
        vals = [psi(op_p2, force_cubic, float(r)) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_frontier_case_diverges(self, op_p2):
        linear = make_force(kind="power", q=1)
        with pytest.raises(DivergenceError):
            psi(op_p2, linear, 1.0)

    def test_mean_curvature_domain_exceeded(self, op_mc, force_cubic):
        with pytest.raises(DomainExceededError):
            psi(op_mc, force_cubic, 1.0)

    def test_needs_positive_r(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            psi(op_p2, force_cubic, 0.0)


class TestClassify:
    def test_frontier_grid_matches_exponent_rule(self):
        # ko_holds iff q > p - 1, boundary counts as false
        for p in (1.5, 2.0, 3.0, 4.0):
            op = make_operator(kind="p-laplace", p=p)
            for mult in (0.5, 1.0, 1.5, 3.0):
                q = mult * (p - 1.0)
                rep = classify(op, make_force(kind="power", q=q))
                assert rep.ko_holds is (q > p - 1.0), (p, q)

    def test_p2_cubic(self, op_p2, force_cubic):
        rep = classify(op_p2, force_cubic)
        assert rep.ko_holds is True
        assert rep.osgood_holds is True
        assert rep.a3_holds is False
        assert rep.L is None
        assert "psi_at_1" in rep.diagnostics

    def test_p3_cubic_holds(self, op_p3, force_cubic):
        assert classify(op_p3, force_cubic).ko_holds is True

    def test_piecewise_dead_core_regime(self, op_p2, force_dead_core):
        rep = classify(op_p2, force_dead_core)
        assert rep.ko_holds is True
        assert rep.osgood_holds is False
        assert rep.a3_holds is True
        assert rep.L is not None and rep.L > 0
        assert rep.L == pytest.approx(length_scale(op_p2, force_dead_core), rel=1e-12)

    def test_exp_force(self, op_p2):
        rep = classify(op_p2, make_force(kind="exp-minus-one"))
        assert rep.ko_holds is True
        assert rep.osgood_holds is True

    def test_exclusive_exhaustive(self, op_p2):
        for spec in ({"kind": "power", "q": 3}, {"kind": "piecewise-power", "a": 0.5, "b": 3},
                     {"kind": "exp-minus-one"}):
            rep = classify(op_p2, make_force(spec))
            assert rep.osgood_holds != rep.a3_holds

    @pytest.mark.parametrize("force_spec, osgood", [
        ({"kind": "power", "q": 3}, True),
        ({"kind": "piecewise-power", "a": 0.5, "b": 3}, False),
    ])
    def test_table_operator_linear_at_zero(self, force_spec, osgood):
        # a table flux is linear near 0 and at infinity, like p = 2: the 0+
        # integral diverges iff the force's exponent at 0 is >= 1
        op = make_operator(kind="table",
                           points=[[0, 0], [0.5, 0.6], [1, 1.5], [2, 4], [4, 10]])
        force = make_force(force_spec)
        rep = classify(op, force)
        assert rep.ko_holds is True
        assert rep.osgood_holds is osgood
        assert rep.a3_holds is not osgood
        if not osgood:
            assert rep.L == length_scale(op, force)

    def test_mean_curvature_reports_not_decides(self, op_mc, force_cubic):
        rep = classify(op_mc, force_cubic)
        assert rep.ko_holds is None
        assert "domain_exceeded" in rep.diagnostics
        assert rep.diagnostics["ceiling_crossing"] == pytest.approx(math.sqrt(2.0), rel=1e-8)
        # the 0+ side stays decidable below the ceiling
        assert rep.osgood_holds is True

    def test_frontier_note(self, op_p2, force_cubic):
        rep = classify(op_p2, force_cubic)
        assert "tail exponent" in rep.frontier
        assert "2" in rep.frontier  # (3+1)/2

    def test_json_keys(self, op_p2, force_cubic):
        doc = json.loads(json.dumps(classify(op_p2, force_cubic).to_dict()))
        assert set(doc) == {"ko_holds", "osgood_holds", "a3_holds", "L",
                            "frontier", "diagnostics"}


class TestLengthScale:
    def test_piecewise_value(self, op_p2, force_dead_core):
        # head over [0,1] in closed form: sqrt(3/4) * 4 = 2 sqrt(3)
        L = length_scale(op_p2, force_dead_core)
        assert L > 2.0 * math.sqrt(3.0)
        assert L == pytest.approx(length_scale(op_p2, force_dead_core, max_blocks=56),
                                  rel=1e-6)

    def test_osgood_raises(self, op_p2, force_cubic):
        with pytest.raises(DivergenceError):
            length_scale(op_p2, force_cubic)


class TestPhi:
    def test_round_trip(self, op_p2, force_cubic):
        rate = BlowupRateFn(op_p2, force_cubic)
        val = psi(op_p2, force_cubic, 5.0)
        assert phi(rate, val) == pytest.approx(5.0, rel=1e-8)

    def test_closed_form_inverse(self, op_p2, force_cubic):
        # Phi_2(d) = sqrt(2)/d for f = t^3
        rate = BlowupRateFn(op_p2, force_cubic)
        for d in (1e-1, 1e-2, 1e-3):
            assert rate.phi(d) == pytest.approx(math.sqrt(2.0) / d, rel=1e-8)

    def test_phi_psi_round_trip_grid(self, op_p3, force_cubic):
        rate = BlowupRateFn(op_p3, force_cubic)
        for r in np.logspace(-1, 3, 9):
            assert rate.phi(psi(op_p3, force_cubic, float(r))) == pytest.approx(
                float(r), rel=1e-8)

    def test_validity_edges(self, op_p2, force_cubic):
        rate = BlowupRateFn(op_p2, force_cubic)
        with pytest.raises(ValueError):
            rate.phi(0.0)


def _counted_psi(monkeypatch):
    calls = []

    def counted(op, force, r):
        calls.append(r)
        return psi(op, force, r)

    monkeypatch.setattr(ko, "psi", counted)
    return calls


class TestIncreasingRoot:
    def test_each_point_evaluated_once(self):
        ts = []

        def g(t):
            ts.append(t)
            return math.tanh(t - 5.3)

        assert ko.increasing_root(g, 20.0, 0.0, "t", "") == pytest.approx(5.3, abs=1e-12)
        assert len(set(ts)) == len(ts)

    def test_hit_within_ftol_ends_the_search(self):
        ts = []

        def g(t):
            ts.append(t)
            return t - 2.0 * math.log(4.0)

        assert ko.increasing_root(g, 20.0, 1e-9, "t", "") == pytest.approx(
            2.0 * math.log(4.0), abs=1e-15)
        assert len(ts) == 3

    def test_search_begins_at_start(self):
        ts = []

        def g(t):
            ts.append(t)
            return math.tanh(t - 5.3)

        assert ko.increasing_root(g, 20.0, 0.0, "t", "", start=5.0) == pytest.approx(
            5.3, abs=1e-12)
        assert ts[:2] == [5.0, 5.0 + math.log(4.0)]

    def test_no_sign_change_within_limit(self):
        with pytest.raises(BracketError, match=r"no t in \[0.1, 10\] for the test"):
            ko.increasing_root(lambda t: t + 10.0, math.log(10.0), 0.0, "t", "for the test")

    def test_phi_budget(self, monkeypatch, op_p2, force_cubic):
        calls = _counted_psi(monkeypatch)
        assert BlowupRateFn(op_p2, force_cubic).phi(1e-3) == pytest.approx(
            math.sqrt(2.0) / 1e-3, rel=1e-8)
        assert len(calls) <= 12

    def test_phi_starts_on_the_secant(self, monkeypatch, op_p3, force_cubic):
        # Psi(w) = 3 (8/3)^(1/3) w^(-1/3), so Phi(d) = 72 / d^3; from t = 0 the
        # search took 21 Psi calls
        calls = _counted_psi(monkeypatch)
        assert BlowupRateFn(op_p3, force_cubic).phi(1e-3) == pytest.approx(72e9, rel=1e-10)
        assert len(calls) <= 10

    def test_phi_beyond_dead_core_length(self, monkeypatch, op_p2, force_dead_core):
        # Psi(0+) = L, so no r has Psi(r) = 1.5 L
        L = length_scale(op_p2, force_dead_core)
        calls = _counted_psi(monkeypatch)
        with pytest.raises(BracketError):
            BlowupRateFn(op_p2, force_dead_core).phi(1.5 * L)
        assert len(calls) <= 30


class TestA5:
    def test_power_ratio_is_t_independent(self, op_p2, force_cubic):
        # Psi(beta t)/Psi(t) = beta^{-(q+1-p)/p} = 2 for p=2, q=3, beta=0.5
        rep = check_a5(force_cubic, op_p2, [0.5])
        assert rep.likely_holds
        assert rep.infima[0] == pytest.approx(2.0, rel=1e-6)
        spread = max(rep.ratios[0.5]) - min(rep.ratios[0.5])
        assert spread < 1e-6

    def test_beta_to_one_ratio_to_one(self, op_p2, force_cubic):
        rep = check_a5(force_cubic, op_p2, [0.999])
        assert rep.infima[0] == pytest.approx(1.0, abs=2e-3)
        assert rep.infima[0] > 1.0

    def test_near_frontier_margin_flagged(self, op_p2):
        f = make_force(kind="power", q=1.0 + 1e-6)
        rep = check_a5(f, op_p2, [0.5], t_lo=1e2, t_hi=1e4, n_t=7)
        assert not rep.likely_holds          # margin stays below 1e-3
        assert rep.margins[0] < 1e-3
        assert rep.margins[0] == pytest.approx(2.0 ** (1e-6 / 2.0) - 1.0, abs=1e-5)

    def test_exponential_grid_ends_where_psi_reads_zero(self, op_p2):
        # F(t) = e^t - t - 1 overflows past t ~ 710, where Psi(t) reads 0;
        # below that the ratio is about e^{(1 - beta) t / 2}, e at t = 100
        rep = check_a5(make_force(kind="exp-minus-one"), op_p2, [0.98])
        assert rep.t_grid[0] == 100.0 and rep.t_grid[-1] < 710.0
        assert rep.infima[0] == pytest.approx(math.e, rel=1e-6)
        assert rep.likely_holds

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_psi_zero_on_the_whole_grid_raises(self, op_p2):
        # the table's tail t^16.6 from f(2) = 1e305 overflows F well below t = 100
        f = make_force(kind="table", points=[[0, 0], [1, 1e300], [2, 1e305]])
        with pytest.raises(DomainExceededError, match="reads 0"):
            check_a5(f, op_p2, [0.5])

    def test_rejects_bad_beta(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            check_a5(force_cubic, op_p2, [1.5])
