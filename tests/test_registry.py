import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from blowup_lab import DomainExceededError, ValidationError, make_force, make_operator


class TestForces:
    def test_power_values(self):
        f = make_force(kind="power", q=3)
        assert f.value(2.0) == 8.0
        assert f.primitive(2.0) == 4.0
        assert f.value(0.0) == 0.0
        assert f.primitive(0.0) == 0.0

    def test_power_vectorized(self):
        f = make_force(kind="power", q=2)
        t = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(f.value(t), [0.0, 1.0, 9.0])
        np.testing.assert_allclose(f.primitive(t), [0.0, 1 / 3, 9.0])

    def test_piecewise_primitive_closed_form(self):
        # int_0^1 t^0.5 + int_1^2 t^3 = 2/3 + 15/4
        f = make_force(kind="piecewise-power", a=0.5, b=3)
        expected = 2.0 / 3.0 + 15.0 / 4.0
        assert f.primitive(2.0) == pytest.approx(expected, rel=1e-14)
        # cross-check by adaptive quadrature of f itself
        val, _ = quad(lambda t: float(f.value(t)), 0.0, 2.0,
                      epsabs=0.0, epsrel=1e-12, points=[1.0])
        assert f.primitive(2.0) == pytest.approx(val, rel=1e-10)

    def test_exp_minus_one(self):
        f = make_force(kind="exp-minus-one")
        assert f.value(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
        assert f.primitive(1.0) == pytest.approx(math.e - 2.0, rel=1e-14)
        assert f.primitive(1e-8) == pytest.approx(0.5e-16, rel=1e-6)

    def test_table_matches_quadrature(self):
        pts = [[0, 0], [0.5, 0.25], [1, 1], [2, 8], [4, 64]]
        f = make_force(kind="table", points=pts)
        for t in (0.3, 0.9, 1.7, 3.5):
            val, _ = quad(lambda s: float(f.value(s)), 0.0, t,
                          epsabs=0.0, epsrel=1e-12,
                          points=[p for p, _ in pts if p < t])
            assert f.primitive(t) == pytest.approx(val, rel=1e-9)
        # power-law continuation past the last knot
        assert f.value(8.0) == pytest.approx(8.0 ** f.growth_inf, rel=1e-12)

    @pytest.mark.parametrize("spec, ts", [
        ({"kind": "power", "q": 3}, [0.3, 1.0, 7.0]),
        ({"kind": "power", "q": 0.5}, [0.3, 1.0, 7.0]),
        ({"kind": "exp-minus-one"}, [0.3, 1.0, 7.0]),
        ({"kind": "piecewise-power", "a": 0.5, "b": 3}, [0.3, 0.9, 1.1, 7.0]),
        # one point on each of the four segments, then two in the power-law tail
        ({"kind": "table", "points": [[0, 0], [0.5, 0.25], [1, 1], [2, 8], [4, 64]]},
         [0.2, 0.7, 1.5, 3.0, 5.0, 9.0]),
    ], ids=["power", "sqrt", "exp-minus-one", "piecewise-power", "table"])
    def test_derivative_matches_centered_difference(self, spec, ts):
        f = make_force(spec)
        t = np.array(ts)
        h = 1e-6 * t
        fd = (f.value(t + h) - f.value(t - h)) / (2.0 * h)
        np.testing.assert_allclose(f.derivative(t), fd, rtol=1e-7)
        assert isinstance(f.derivative(ts[0]), float)

    def test_table_derivative_is_right_continuous_at_knots(self):
        f = make_force(kind="table", points=[[0, 0], [0.5, 0.25], [1, 1], [2, 8], [4, 64]])
        np.testing.assert_array_equal(f.derivative(np.array([0.0, 0.5, 1.0, 2.0])),
                                      [0.5, 1.5, 7.0, 28.0])
        assert f.derivative(4.0) == pytest.approx(48.0, rel=1e-12)   # the tail is t^3

    def test_knots_are_the_kinks_of_f(self):
        table = make_force(kind="table", points=[[0, 0], [0.5, 0.25], [1, 1], [2, 8]])
        assert table.knots == (0.5, 1.0, 2.0)
        assert make_force(kind="piecewise-power", a=0.5, b=3).knots == (1.0,)
        assert make_force(kind="power", q=3).knots == ()
        assert make_force(kind="exp-minus-one").knots == ()

    def test_rejects_bad_forces(self):
        with pytest.raises(ValidationError):
            make_force(kind="power", q=-1)
        with pytest.raises(ValidationError):
            make_force(kind="table", points=[[0, 0], [1, 2], [2, 1], [3, 3]])
        with pytest.raises(ValidationError):
            make_force(kind="table", points=[[0, 0.5], [1, 1], [2, 2]])
        with pytest.raises(ValidationError):
            make_force(kind="table", points=[[0, 0], [1, 1], [2, 1]])
        with pytest.raises(ValidationError):
            make_force(kind="nope")

    @given(q=st.floats(0.1, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_power_monotone(self, q):
        f = make_force(kind="power", q=q)
        t = np.logspace(-3, 3, 40)
        assert np.all(np.diff(f.value(t)) > 0)
        assert np.all(np.diff(f.primitive(t)) > 0)


class TestOperators:
    def test_p_laplace_energy_closed_forms(self):
        op = make_operator(kind="p-laplace", p=2)
        assert op.energy(1.5) == pytest.approx(1.5 ** 2 / 2, rel=1e-15)
        assert op.energy_inverse(2.0) == pytest.approx(2.0, rel=1e-15)
        op3 = make_operator(kind="p-laplace", p=3)
        assert op3.energy(2.0) == pytest.approx(16.0 / 3.0, rel=1e-15)

    def test_mean_curvature_energy(self):
        op = make_operator(kind="mean-curvature")
        # closed-form antiderivative of s A'(s), cross-checked by quadrature
        assert op.energy(1.0) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-14)
        val, _ = quad(lambda s: s * float(op.flux_prime(s)), 0.0, 1.0,
                      epsabs=0.0, epsrel=1e-12)
        assert op.energy(1.0) == pytest.approx(val, rel=1e-10)
        assert op.energy_sup == 1.0

    @pytest.mark.parametrize("spec", [
        {"kind": "p-laplace", "p": 1.5}, {"kind": "p-laplace", "p": 4},
        {"kind": "table", "points": [[0, 0], [1, 1], [2, 3], [5, 12]]},
        {"kind": "table", "points": [[0, 0], [0.5, 0.6], [1, 1.5], [2, 4]]},
        {"kind": "mean-curvature"},
    ], ids=["p1.5", "p4", "table-4", "table-4b", "mean-curvature"])
    def test_order_zero_is_the_order_at_infinity(self, spec):
        # ko.power_law_root keys the power law of Psi and ell(v0) on
        # order_zero, so every operator with B_sup = inf must have B(x) ~
        # c x^r at infinity with that r; mean curvature's B stays below 1
        op = make_operator(spec)
        xs = np.geomspace(1e4, 1e8, 5)
        if math.isinf(op.energy_sup):
            ratio = op.energy(xs) / xs ** op.order_zero
            np.testing.assert_allclose(ratio, ratio[-1], rtol=1e-7)
        else:
            assert op.kind == "mean-curvature" and np.all(op.energy(xs) < op.energy_sup)

    def test_p_laplace_has_infinite_ceiling(self):
        assert math.isinf(make_operator(kind="p-laplace", p=1.5).energy_sup)

    def test_rejects_bad_operators(self):
        with pytest.raises(ValidationError):
            make_operator(kind="p-laplace", p=1.0)
        with pytest.raises(ValidationError):
            make_operator(kind="p-laplace", p=0.5)
        with pytest.raises(ValidationError):
            make_operator(kind="table", points=[[0, 0], [1, 2], [2, 1]])

    def test_table_operator_round_trip(self):
        op = make_operator(kind="table", points=[[0, 0], [1, 1], [2, 3], [5, 12]])
        for y in np.logspace(-5, 2, 15):
            x = op.energy_inverse(float(y))
            assert float(op.energy(x)) == pytest.approx(y, rel=1e-10)

    @pytest.mark.parametrize("y", [1e-30, 1e-300])
    def test_table_energy_inverse_near_zero(self, y):
        # B(x) = c_0 x^2 / 2 on the first segment, so B^-1(y) = sqrt(2 y / c_0)
        op = make_operator(kind="table", points=[[0, 0], [0.5, 0.6], [1, 1.5], [2, 4]])
        assert op.energy_inverse(y) == pytest.approx(math.sqrt(2.0 * y / 1.2),
                                                     rel=1e-14, abs=0.0)

    def test_table_energy_inverse_vectorised(self):
        op = make_operator(kind="table", points=[[0, 0], [0.5, 0.6], [1, 1.5], [2, 4]])
        knots = op.energy(np.array([0.0, 0.5, 1.0, 2.0]))
        ys = np.concatenate((knots, np.logspace(-8, 4, 13)))
        xs = op.energy_inverse(ys)
        assert xs.shape == ys.shape
        assert list(xs) == [op.energy_inverse(float(y)) for y in ys]
        np.testing.assert_allclose(xs[:4], [0.0, 0.5, 1.0, 2.0], rtol=1e-15)
        np.testing.assert_allclose(op.energy(xs), ys, rtol=1e-14)
        with pytest.raises(DomainExceededError):
            op.energy_inverse(np.array([1.0, -1e-12]))

    @given(p=st.floats(1.1, 6.0), y=st.floats(1e-6, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_energy_round_trip_p_laplace(self, p, y):
        op = make_operator(kind="p-laplace", p=p)
        assert float(op.energy(op.energy_inverse(y))) == pytest.approx(y, rel=1e-10)

    @given(p=st.floats(1.1, 6.0), r=st.floats(1e-4, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_flux_inverse_round_trip(self, p, r):
        op = make_operator(kind="p-laplace", p=p)
        assert float(op.flux_inverse(op.flux(r))) == pytest.approx(r, rel=1e-10)
