import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from blowup_lab import DivergenceError, DomainExceededError, make_force, make_operator, psi
from blowup_lab import ode1d, quadrature as qk

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
        # stay below the ceiling
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
        # s = u^k with k = p/(p-1-a) against the oracle's tanh-sinh head at v0 = 0
        op = make_operator(kind="p-laplace", p=p)
        force = make_force(kind="piecewise-power", a=a, b=3)
        sub = qk.head_substitution(op, force, 0.0)
        assert sub.k == pytest.approx(p / (p - 1.0 - a), rel=1e-15)
        val = qk.integrate_block(sub.density, 0.0, sub.u_of(0.5))
        oracle = ode1d._ImplicitBranch(op, force, 0.0).integral_to(0.5)   # all head
        assert val == pytest.approx(oracle, rel=1e-12)
        # the Osgood side (a + 1 >= p) has no integrable head; mean curvature
        # has B(x) ~ x^2/2, so r = 2
        with pytest.raises(DivergenceError):
            qk.head_substitution(op, make_force(kind="power", q=p - 1.0), 0.0)
        mc = qk.head_substitution(make_operator(kind="mean-curvature"), force, 0.0)
        assert mc.k == pytest.approx(2.0 / (1.0 - a), rel=1e-15)

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


_TABLE_5 = [[0, 0], [0.5, 0.4], [1, 1], [2, 3], [4, 8]]


def _table_kinks(op, force, v0, lo, hi):
    """The s in (lo, hi) with F(s) - F(v0) = B(r_k) at the table knots r_k."""
    shift = force.primitive(v0)
    kinks = []
    for r in np.asarray(op.params["points"])[1:, 0]:
        def gap(s, e=op.energy(r)):
            return force.primitive(s) - shift - e
        if gap(lo) < 0.0 < gap(hi):
            kinks.append(brentq(gap, lo, hi, xtol=1e-15))
    return kinks


def _assert_matches_scalars(fn, xs):
    xs = np.asarray(xs, dtype=float)
    out = fn(xs)
    assert isinstance(fn(float(xs[0])), float)
    assert out.shape == xs.shape
    np.testing.assert_array_equal(out, [fn(float(x)) for x in xs])
    np.testing.assert_array_equal(fn(xs.reshape(2, -1)), out.reshape(2, -1))


class TestArrayIntegrands:
    """Array input gives the element-wise scalar values, on both sides of
    every branch: the Simpson gap, y <= 0, overflow, table kinks."""

    @pytest.mark.parametrize("force_spec", [
        {"kind": "power", "q": 3}, {"kind": "exp-minus-one"},
        {"kind": "piecewise-power", "a": 0.5, "b": 3}, {"kind": "table", "points": _TABLE_5}])
    @pytest.mark.parametrize("v0", [0.0, 0.4, 3.0])
    def test_primitive_gap(self, force_spec, v0):
        force = make_force(force_spec)
        edge = 1e-3 * (v0 or 1.0)       # the Simpson branch lies below this gap
        gaps = np.concatenate(([0.0, 1e-300, 1e-9], edge * np.array([0.5, 0.999, 1.0, 1.001]),
                               [0.3, 1.0, 7.0, 40.0, 300.0]))
        _assert_matches_scalars(lambda t: qk.primitive_gap(force, v0, t), gaps)

    @pytest.mark.parametrize("op_spec,force_spec,v0", [
        ({"kind": "p-laplace", "p": 2}, {"kind": "power", "q": 3}, 1.0),
        ({"kind": "p-laplace", "p": 3}, {"kind": "exp-minus-one"}, 0.5),
        ({"kind": "mean-curvature"}, {"kind": "power", "q": 3}, 0.5),
        ({"kind": "table", "points": _TABLE_5}, {"kind": "power", "q": 3}, 1.0),
        ({"kind": "table", "points": _TABLE_5}, {"kind": "table", "points": _TABLE_5}, 0.0),
    ], ids=["p2-power", "p3-exp-overflow", "mean-curvature", "table-operator", "table-both"])
    def test_shifted_integrand(self, op_spec, force_spec, v0):
        op, force = make_operator(op_spec), make_force(force_spec)
        g = qk.shifted_integrand(op, force, v0)
        top = 0.9 if op.kind == "mean-curvature" else 1e3   # stay below B_sup = 1
        s = np.concatenate(([v0, v0 * 0.5, v0 + 1e-4, v0 + 0.3],
                            np.linspace(v0 + 0.01, min(top, v0 + 3.0), 6), [top]))
        if op.kind == "table":
            s = np.concatenate((s[:-2], _table_kinks(op, force, v0, v0 + 1e-9, 40.0)))
        s = s[: 2 * (len(s) // 2)]
        _assert_matches_scalars(g, s)
        if v0 > 0.0:
            assert g(v0) == math.inf and g(0.5 * v0) == math.inf
        if force.kind == "exp-minus-one":
            assert g(1e3) == 0.0      # F overflows

    @pytest.mark.parametrize("p,force_spec,v0", [
        (2.0, {"kind": "power", "q": 3}, 1.0), (3.0, {"kind": "power", "q": 6}, 0.5),
        (2.0, {"kind": "piecewise-power", "a": 0.4, "b": 3}, 0.0)])
    def test_head_density(self, p, force_spec, v0):
        sub = qk.head_substitution(make_operator(kind="p-laplace", p=p), make_force(force_spec), v0)
        u = np.concatenate(([0.0, 1e-200, 1e-6], np.linspace(0.01, sub.u_of(v0 + 0.5), 7)))
        _assert_matches_scalars(sub.density, u)


class TestKernel:
    """integrate_block against scipy's quad at 1e-12 relative."""

    @staticmethod
    def _ref(g, a, b, points=None):
        return quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=400, points=points)[0]

    def test_smooth_block(self, op_p2, force_cubic):
        g = qk.shifted_integrand(op_p2, force_cubic, 1.0)
        assert qk.integrate_block(g, 2.0, 4.0) == pytest.approx(self._ref(g, 2.0, 4.0), rel=1e-12)
        # a block's value does not depend on the other blocks of the call
        lo = np.array([2.0, 1.5, 40.0, 2.0])
        hi = np.array([4.0, 1.6, 80.0, 2.0])
        batch = qk.integrate_block(g, lo, hi)
        assert list(batch) == [qk.integrate_block(g, a, b) for a, b in zip(lo, hi)]
        assert batch[3] == 0.0
        assert qk.integrate_block(g, 4.0, 2.0) == pytest.approx(-batch[0], rel=1e-15)

    def test_head_density_singular_derivative(self, op_p3):
        # p = 3: the density is c0 + c1 u^1.5 + ..., its derivative singular at 0
        sub = qk.head_substitution(op_p3, make_force(kind="power", q=6), 1.0)
        U = sub.u_of(1.5)
        assert qk.integrate_block(sub.density, 0.0, U) == pytest.approx(
            self._ref(sub.density, 0.0, U), rel=1e-12)

    def test_kinked_table_block(self):
        op = make_operator(kind="table", points=_TABLE_5)
        force = make_force(kind="power", q=3)
        g = qk.shifted_integrand(op, force, 1.0)
        kinks = _table_kinks(op, force, 1.0, 1.5, 3.0)
        assert len(kinks) == 2
        assert qk.integrate_block(g, 1.5, 3.0) == pytest.approx(
            self._ref(g, 1.5, 3.0, points=kinks), rel=1e-12)

    def test_near_frontier_block(self):
        # p = 1.5, q one part in 1e6 above the frontier p - 1: the integrand
        # decays like s^-(1 + 3.3e-7) and the ladder needs every block to 1e-12
        g = qk.shifted_integrand(make_operator(kind="p-laplace", p=1.5),
                                 make_force(kind="power", q=0.5 * (1.0 + 1e-6)), 0.0)
        for a in (1.0, 2.0 ** 40):
            assert qk.integrate_block(g, a, 2.0 * a) == pytest.approx(
                self._ref(g, a, 2.0 * a), rel=1e-12)


_BATCH_CASES = {
    "p2-q3": ({"kind": "p-laplace", "p": 2}, {"kind": "power", "q": 3}),
    "p2-q3.6": ({"kind": "p-laplace", "p": 2}, {"kind": "power", "q": 3.6}),
    "p3-q4.7": ({"kind": "p-laplace", "p": 3}, {"kind": "power", "q": 4.7}),
    "table-q3": ({"kind": "table", "points": _TABLE_5}, {"kind": "power", "q": 3}),
    "exp": ({"kind": "p-laplace", "p": 2}, {"kind": "exp-minus-one"}),
}


def _batch_case(key):
    op_spec, force_spec = _BATCH_CASES[key]
    return make_operator(op_spec), make_force(force_spec)


class TestBatchedLadders:
    """One ladder per radius, all advancing together, reads bit for bit what
    one ladder at a time reads."""

    RS = np.geomspace(1e-2, 800.0, 13)

    @pytest.mark.parametrize("key", _BATCH_CASES)
    def test_equals_one_ladder_at_a_time(self, key):
        op, force = _batch_case(key)
        rs = self.RS.tolist()
        assert qk.shifted_tail(op, force, 0.0, self.RS) == [
            qk.shifted_tail(op, force, 0.0, r) for r in rs]
        assert psi(op, force, self.RS).tolist() == [psi(op, force, r) for r in rs]
        assert type(psi(op, force, rs[0])) is float

    def test_the_cases_reach_every_branch(self):
        def tails(key):
            return qk.shifted_tail(*_batch_case(key), 0.0, self.RS)

        # ladders that stop in different kernel calls, ladders that reach
        # the block cap and extrapolate, and Psi = 0 past the overflow of F
        assert {(e.blocks_used - 1) // qk.BLOCK_CHUNK for e in tails("p2-q3.6")} == {1, 2}
        assert 0 < sum(e.extrapolated != 0.0 for e in tails("p3-q4.7")) < self.RS.size
        assert psi(*_batch_case("exp"), self.RS)[-1] == 0.0 < psi(*_batch_case("exp"), 700.0)


def test_ladder_cut_where_f_overflows():
    # p = 40, f = t^45 past 1: the integrand decays like s^-1.15, so the last
    # block before F overflows holds a few % of the total, and the next reads 0
    force = make_force(kind="piecewise-power", a=3, b=45)
    est = qk.shifted_tail(make_operator(kind="p-laplace", p=40), force, 0.0, 1.0)
    assert not est.converged and est.cut == est.cap / 2.0
    with np.errstate(over="ignore"):
        assert np.isinf(force.primitive(np.array([0.5, 1.01]) * est.cut)).tolist() == [False, True]
    with pytest.raises(DomainExceededError, match=re.escape(f"Psi: F overflows by s ~ {est.cut:.3g},")):
        qk.require_converged(est, "Psi")
    # exp-minus-one: the integrand is about e^-350 where F overflows, far past
    # the block that ends its ladder
    op, force = make_operator(kind="p-laplace", p=2), make_force(kind="exp-minus-one")
    assert all(e.cut is None and e.converged
               for e in qk.shifted_tail(op, force, 0.0, [1.0, 100.0, 700.0, 800.0]))


def test_require_converged_raises():
    est = qk.TailEstimate(1.0, False, 48, 1e9, 0.0, 1.0)
    with pytest.raises(DivergenceError):
        qk.require_converged(est, "thing")
