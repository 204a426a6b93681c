import json
import math

import numpy as np
import pytest

from blowup_lab import (BracketError, DivergenceError, DomainExceededError,
                        check_a5, classify, length_scale, make_force,
                        make_operator, phi, psi)
from blowup_lab import ko, quadrature as qk

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


    def test_f_overflow_before_the_tail_decays_is_undecidable(self):
        # q = 38.5 < p - 1: KO fails, but the integrand ~ s^-0.9875 reads 0
        # once F(s) = s^39.5 / 39.5 overflows (s ~ 7e7), one block after a
        # block that held a few % of the total; it used to read ko_holds True
        op, force = make_operator(kind="p-laplace", p=40), make_force(kind="power", q=38.5)
        rep = classify(op, force)
        assert rep.ko_holds is None and rep.L is None
        assert rep.diagnostics["domain_exceeded"].startswith("F overflows by s ~ 8.39e+07")
        with pytest.raises(DomainExceededError, match="F overflows by s ~ 8.39e"):
            length_scale(op, force)


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
        val = psi(op_p2, force_cubic, 5.0)
        assert phi(op_p2, force_cubic, val) == pytest.approx(5.0, rel=1e-8)

    def test_closed_form_inverse(self, op_p2, force_cubic):
        # Phi_2(d) = sqrt(2)/d for f = t^3
        for d in (1e-1, 1e-2, 1e-3):
            assert phi(op_p2, force_cubic, d) == pytest.approx(math.sqrt(2.0) / d, rel=1e-8)

    def test_phi_psi_round_trip_grid(self, op_p3, force_cubic):
        for r in np.logspace(-1, 3, 9):
            assert phi(op_p3, force_cubic, psi(op_p3, force_cubic, float(r))) == pytest.approx(
                float(r), rel=1e-8)

    def test_validity_edges(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            phi(op_p2, force_cubic, 0.0)


def _counted_psi(monkeypatch):
    """The radii of every Psi call from here on, with phi's caches emptied so
    that the session-wide fixtures start cold."""
    ko.phi.cache_clear()
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
        assert phi(op_p2, force_cubic, 1e-3) == pytest.approx(
            math.sqrt(2.0) / 1e-3, rel=1e-8)
        assert len(calls) <= 12

    def test_phi_starts_on_the_power_law(self, monkeypatch, op_p3, force_cubic):
        # Psi(w) = 3 (8/3)^(1/3) w^(-1/3), so Phi(d) = 72 / d^3; from t = 0 the
        # search took 21 Psi calls; the root of the power law through Psi(1)
        # lands within ko.LOG_FTOL in log Psi and ends the search
        calls = _counted_psi(monkeypatch)
        first = phi(op_p3, force_cubic, 1e-3)
        assert first == pytest.approx(72e9, rel=1e-10)
        assert len(calls) == 2 and calls[0] == 1.0 and math.e not in calls
        assert phi(op_p3, force_cubic, 1e-3) == first
        assert len(calls) == 2                          # a repeated d is cached

    def test_phi_table_operator_starts_on_the_power_law(self, monkeypatch):
        # B is quadratic past the last knot, so Psi ~ r^-(q-1)/2 there and the
        # start through Psi(1) lands a constant factor (e^0.22) short; the
        # search goes on from it (9 Psi calls from t = 0); the start's
        # exponent is keyed on order_zero, not on a p-Laplace p
        op = make_operator(kind="table", points=[[0, 0], [1, 1], [2, 3], [5, 12]])
        force = make_force(kind="power", q=3)
        calls = _counted_psi(monkeypatch)
        r = phi(op, force, 1e-3)
        assert psi(op, force, r) == pytest.approx(1e-3, rel=1e-12)
        assert calls[0] == 1.0 and abs(math.log(calls[1] / r)) < 0.25
        assert len(calls) <= 4

    def test_phi_where_psi_reads_zero(self, op_p2):
        # Psi(r) ~ 2 sqrt(2) e^(-r/2) for exp-minus-one; it reads 0 from
        # r ~ 710, where F(r) = e^r - 1 - r overflows, before the r with
        # Psi(r) = 1e-200 (about 923)
        with pytest.raises(BracketError, match="reads 0"):
            phi(op_p2, make_force(kind="exp-minus-one"), 1e-200)

    def test_phi_where_f_overflows_before_the_tail_decays(self):
        # F(s) ~ s^46 / 46 overflows past s ~ 5e6, where the block before
        # still holds a few % of Psi(1) at p = 40: the tail is undecidable
        # (its true value, 6.6 by the ladder, was read as if it had decayed)
        op = make_operator(kind="p-laplace", p=40)
        force = make_force(kind="piecewise-power", a=3, b=45)
        with pytest.raises(DomainExceededError, match=r"Psi\(1\): F overflows by s ~ 5.24e\+06"):
            phi(op, force, 0.0625)

    def test_phi_beyond_dead_core_length(self, monkeypatch, op_p2, force_dead_core):
        # Psi(0+) = L, so no r has Psi(r) = 1.5 L
        L = length_scale(op_p2, force_dead_core)
        calls = _counted_psi(monkeypatch)
        with pytest.raises(BracketError):
            phi(op_p2, force_dead_core, 1.5 * L)
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
        rep = check_a5(f, op_p2, [0.5])
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

    @pytest.mark.parametrize("force_spec", [{"kind": "power", "q": 3}, {"kind": "exp-minus-one"}],
                             ids=["cubic", "exp"])
    def test_equals_the_per_radius_loop(self, monkeypatch, op_p2, force_spec):
        force, betas = make_force(force_spec), [0.25, 0.5, 0.75]
        psi_t = {t: psi(op_p2, force, t) for t in np.logspace(2.0, 6.0, 17).tolist()}
        ts = [t for t, v in psi_t.items() if v > 0.0]
        ratios = {b: [psi(op_p2, force, b * t) / psi_t[t] for t in ts] for b in betas}
        kernel, calls = qk.integrate_block, []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(qk, "integrate_block", counted)
        rep = check_a5(force, op_p2, betas)
        assert rep.t_grid == tuple(ts)
        assert rep.ratios == ratios
        assert rep.infima == tuple(min(r) for r in ratios.values())
        assert rep.margins == tuple(min(r[len(r) // 2:]) - 1.0 for r in ratios.values())
        assert len(calls) <= 8      # 272 with one ladder per radius

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_psi_zero_on_the_whole_grid_raises(self, op_p2):
        # the table's tail t^16.6 from f(2) = 1e305 overflows F well below t = 100
        f = make_force(kind="table", points=[[0, 0], [1, 1e300], [2, 1e305]])
        with pytest.raises(DomainExceededError, match="reads 0"):
            check_a5(f, op_p2, [0.5])

    def test_rejects_bad_beta(self, op_p2, force_cubic):
        with pytest.raises(ValueError):
            check_a5(force_cubic, op_p2, [1.5])
