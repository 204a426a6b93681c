import math

import numpy as np
import pytest

from blowup_lab import DivergenceError, DomainExceededError, make_force, make_operator
from blowup_lab import quadrature as qk

from conftest import psi_power_closed_form


def tail_for(p, q, start):
    op = make_operator(kind="p-laplace", p=p)
    force = make_force(kind="power", q=q)
    return qk.integrate_to_infinity(qk.shifted_integrand(op, force, 0.0), start)


class TestInfiniteTail:
    @pytest.mark.parametrize("p,q,r", [
        (2.0, 3.0, 1.0), (2.0, 3.0, 5.0), (1.5, 0.75, 1.0), (3.0, 6.0, 1.0),
        (4.0, 9.0, 2.0), (2.0, 3.0, 0.01),
    ])
    def test_matches_closed_form(self, p, q, r):
        est = tail_for(p, q, r)
        assert est.converged
        assert est.value == pytest.approx(psi_power_closed_form(p, q, r), rel=1e-11)

    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (3.0, 2.0), (1.5, 0.5), (2.0, 0.5)])
    def test_detects_divergence(self, p, q):
        est = tail_for(p, q, 1.0)
        assert not est.converged

    def test_near_frontier_still_converges(self):
        # one part in 1e6 above the frontier exponent
        p, q = 2.0, 1.0 + 1e-6
        est = tail_for(p, q, 1.0)
        assert est.converged
        assert est.value == pytest.approx(psi_power_closed_form(p, q, 1.0), rel=1e-8)

    def test_cap_refinement_stability(self):
        for p, q in [(2.0, 3.0), (1.5, 0.75)]:
            a = tail_for(p, q, 1.0)
            op = make_operator(kind="p-laplace", p=p)
            force = make_force(kind="power", q=q)
            b = qk.integrate_to_infinity(qk.shifted_integrand(op, force, 0.0), 1.0,
                                         max_blocks=qk.MAX_BLOCKS + 8)
            assert abs(a.value - b.value) / a.value < 1e-7


class TestZeroEnd:
    def test_convergent_exponent(self):
        # integrand ~ s^{-(a+1)/p} with (a+1)/p = 0.75 < 1
        op = make_operator(kind="p-laplace", p=2)
        force = make_force(kind="piecewise-power", a=0.5, b=3)
        est = qk.integrate_to_zero(qk.shifted_integrand(op, force, 0.0), 1.0)
        assert est.converged
        # closed form on [0,1]: integrand = sqrt(0.75) s^{-3/4}
        assert est.value == pytest.approx(math.sqrt(0.75) * 4.0, rel=1e-10)

    def test_divergent_exponent(self):
        op = make_operator(kind="p-laplace", p=2)
        force = make_force(kind="power", q=3)   # integrand ~ s^{-2} near 0
        est = qk.integrate_to_zero(qk.shifted_integrand(op, force, 0.0), 1.0)
        assert not est.converged


class TestSingularHead:
    @pytest.mark.parametrize("p,q,v0", [(2.0, 3.0, 1.0), (3.0, 6.0, 0.5), (1.5, 2.0, 2.0)])
    def test_substitution_vs_high_precision(self, p, q, v0):
        # independent oracle: 50-digit quadrature of the raw singular integrand
        import mpmath as mp
        op = make_operator(kind="p-laplace", p=p)
        force = make_force(kind="power", q=q)
        upper = v0 + 0.5 * max(v0, 1.0)
        sub = qk.singular_head(op, force, v0, upper)

        with mp.workdps(50):
            pp, qq, vv = mp.mpf(p), mp.mpf(q), mp.mpf(v0)

            def g(s):
                y = (s ** (qq + 1) - vv ** (qq + 1)) / (qq + 1)
                return 1.0 / (pp * y / (pp - 1)) ** (1 / pp)

            ref = float(mp.quad(g, [vv, mp.mpf(upper)]))
        assert sub == pytest.approx(ref, rel=1e-10)

    def test_general_operator_path(self, op_mc):
        # mean curvature forces the tanh-sinh branch; stay below the ceiling
        import mpmath as mp
        force = make_force(kind="power", q=3)
        v0, upper = 0.5, 0.9
        val = qk.singular_head(op_mc, force, v0, upper)
        with mp.workdps(50):
            def g(s):
                y = (s ** 4 - mp.mpf(0.5) ** 4) / 4
                return (1 - y) / mp.sqrt(y * (2 - y))
            ref = float(mp.quad(g, [mp.mpf(0.5), mp.mpf(0.9)]))
        assert val == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("p,a", [(2.0, 0.4), (3.0, 0.9)])
    def test_dead_core_substitution_vs_tanh_sinh(self, p, a):
        # s = u^k with k = p/(p-1-a) against the tanh-sinh head at v0 = 0
        op = make_operator(kind="p-laplace", p=p)
        force = make_force(kind="piecewise-power", a=a, b=3)
        sub = qk.head_substitution(op, force, 0.0)
        assert sub.k == pytest.approx(p / (p - 1.0 - a), rel=1e-15)
        val = qk.integrate_block(sub.density, 0.0, sub.u_of(0.5))
        assert val == pytest.approx(qk.singular_head(op, force, 0.0, 0.5), rel=1e-12)
        # Osgood side (a + 1 >= p) and non-p-laplace heads have no substitution
        assert qk.head_substitution(op, make_force(kind="power", q=p - 1.0), 0.0) is None
        assert qk.head_substitution(make_operator(kind="mean-curvature"), force, 0.0) is None

    def test_empty_interval(self, op_p2, force_cubic):
        assert qk.singular_head(op_p2, force_cubic, 1.0, 1.0) == 0.0


class TestCeiling:
    def test_crossing_location(self, op_mc, force_cubic):
        # F(s) = s^4/4 reaches 1 at s = sqrt(2)
        s = qk.ceiling_crossing(op_mc, force_cubic)
        assert s == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_tail_raises(self, op_mc, force_cubic):
        with pytest.raises(DomainExceededError):
            qk.shifted_tail(op_mc, force_cubic, 0.0, 1.0)

    def test_no_crossing_for_p_laplace(self, op_p2, force_cubic):
        assert qk.ceiling_crossing(op_p2, force_cubic) is None


def test_require_converged_raises():
    est = qk.TailEstimate(1.0, False, 48, 1e9, 0.0, 1.0)
    with pytest.raises(DivergenceError):
        qk.require_converged(est, "thing")
