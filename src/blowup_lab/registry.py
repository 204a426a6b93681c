"""Admissible nonlinearities f and quasilinear operators A.

A force is a continuous, nondecreasing f: [0,inf) -> [0,inf) with f(0) = 0,
f > 0 on (0,inf) and f(t) -> inf, together with its primitive
F(t) = int_0^t f.  An operator is described through its flux A(r) = Q(r)*r
with A' > 0, its energy primitive B(x) = int_0^x A'(s)*s ds, the ceiling
B_sup = lim_{x->inf} B(x), and the inverse B^-1 on [0, B_sup).

Everything downstream (blow-up functionals, 1D profiles, radial shooting,
the 2D solver) consumes only these two objects, so construction validates
the structural assumptions once, on a fixed sample grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainExceededError, ValidationError

# validation grid: {0} plus 49 log-spaced points in [1e-6, 1e6]
_GRID = np.concatenate(([0.0], np.logspace(-6.0, 6.0, 49)))


def _elementwise(body: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """``body`` on a float array of the input; a float back for scalar input."""

    def fn(x):
        out = body(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    return fn


@dataclass(frozen=True, eq=False)
class Force:
    """A nonlinearity f with its exact primitive F, its derivative f' and
    growth metadata.

    ``derivative`` is f' in closed form, for a table the exact segment slope
    (right-continuous at the knots); the 2D solver's Jacobians use it.
    ``growth_zero`` / ``growth_inf`` are the power-law exponents of f near 0
    (1 for a table, linear there) and near infinity (None when f outgrows
    every power, as exp-minus-one does).  ``knots`` are the kinks t > 0 of f.
    """

    kind: str
    value: Callable[[np.ndarray | float], np.ndarray | float]
    primitive: Callable[[np.ndarray | float], np.ndarray | float]
    derivative: Callable[[np.ndarray | float], np.ndarray | float]
    growth_zero: float
    growth_inf: Optional[float]
    knots: tuple = ()              # a table's abscissae, the piecewise-power knee
    params: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True, eq=False)
class Operator:
    """A quasilinear operator through A(r) = Q(r)*r and its energy primitive.

    ``energy_sup`` is B_sup; finite ceilings (mean curvature) make
    ``energy_inverse`` a partial function and consumers must check the
    ceiling before integrating, otherwise :class:`DomainExceededError`.
    The constructors set the metadata below from the kind.
    """

    kind: str
    flux: Callable                 # A(r)
    flux_prime: Callable           # A'(r)
    flux_inverse: Callable         # A^-1(z), used by IVP-based oracles
    energy: Callable               # B(x)
    energy_inverse: Callable       # B^-1(y) on [0, B_sup)
    energy_sup: float              # B_sup, may be math.inf
    order_zero: float              # r in B(x) ~ c x^r near 0
    coef_zero: float               # c in B(x) ~ c x^r near 0
    energy_knots: tuple = ()       # B_k where B^-1 has a kink (a table's interior knots)
    params: dict = field(default_factory=dict)

    @property
    def p(self) -> float:
        """Exponent for p-laplace operators; raises for other kinds."""
        if self.kind != "p-laplace":
            raise ValidationError(f"operator kind {self.kind!r} has no exponent p")
        return self.params["p"]

    def describe(self) -> dict:
        return {"kind": self.kind, **self.params}


# ---------------------------------------------------------------------------
# forces
# ---------------------------------------------------------------------------

def _power_force(q: float) -> Force:
    if not q > 0:
        raise ValidationError(f"power force needs q > 0, got {q}")

    f = _elementwise(lambda t: t ** q)
    F = _elementwise(lambda t: t ** (q + 1.0) / (q + 1.0))
    fp = _elementwise(lambda t: q * np.maximum(t, 1e-300) ** (q - 1.0))
    return Force("power", f, F, fp, q, q, (), {"q": float(q)})


def _exp_minus_one_force() -> Force:
    f = _elementwise(np.expm1)
    F = _elementwise(lambda t: np.expm1(t) - t)     # exp(t) - t - 1, stable near 0
    return Force("exp-minus-one", f, F, _elementwise(np.exp), 1.0, None)


def _piecewise_power_force(a: float, b: float) -> Force:
    """f(t) = t^a for t <= 1 and t^b for t >= 1 (continuous at the knee).

    Lets the growth at 0 and at infinity be prescribed independently, which a
    single power cannot do; dead cores need a < p-1 < b simultaneously.
    """
    if not (a > 0 and b > 0):
        raise ValidationError(f"piecewise-power force needs a, b > 0, got a={a}, b={b}")
    F_knee = 1.0 / (a + 1.0)

    f = _elementwise(lambda t: np.where(t <= 1.0, t ** a, t ** b))

    @_elementwise
    def F(t):
        low = t ** (a + 1.0) / (a + 1.0)
        high = F_knee + (np.where(t >= 1.0, t, 1.0) ** (b + 1.0) - 1.0) / (b + 1.0)
        return np.where(t <= 1.0, low, high)

    fp = _elementwise(lambda t: np.where(t <= 1.0, a * np.maximum(t, 1e-300) ** (a - 1.0),
                                         b * np.maximum(t, 1e-300) ** (b - 1.0)))
    return Force("piecewise-power", f, F, fp, a, b, (1.0,), {"a": float(a), "b": float(b)})


def _table_force(points: Sequence[Sequence[float]]) -> Force:
    """Monotone sampled force, linear between knots, power-law continued
    past the last knot (slope from the final two knots on log-log axes)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValidationError("table force needs >= 3 (t, f) pairs")
    t, ft = pts[:, 0], pts[:, 1]
    if t[0] != 0.0 or ft[0] != 0.0:
        raise ValidationError("table force must start at (0, 0)")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("table force abscissae must be strictly increasing")
    if np.any(np.diff(ft) < 0):
        raise ValidationError("table force values must be nondecreasing")
    if not (ft[1] > 0 and ft[-1] > ft[-2]):     # f > 0 on (0, inf), f ~ t near 0
        raise ValidationError("table force must be positive on its first segment "
                              "and strictly increasing on its last")

    tail_exp = (math.log(ft[-1]) - math.log(ft[-2])) / (math.log(t[-1]) - math.log(t[-2]))
    tail_coef = ft[-1] / t[-1] ** tail_exp
    slopes = np.diff(ft) / np.diff(t)

    # exact primitive of the piecewise-linear interpolant at the knots
    Fk = np.concatenate(([0.0], np.cumsum(0.5 * (ft[1:] + ft[:-1]) * np.diff(t))))

    @_elementwise
    def f(x):
        inside = np.interp(x, t, ft)
        return np.where(x <= t[-1], inside, tail_coef * np.maximum(x, t[-1]) ** tail_exp)

    @_elementwise
    def F(x):
        xi = np.clip(x, 0.0, t[-1])
        k = np.clip(np.searchsorted(t, xi, side="right") - 1, 0, len(t) - 2)
        dt = xi - t[k]
        inside = Fk[k] + ft[k] * dt + 0.5 * slopes[k] * dt * dt
        over = np.maximum(x, t[-1])
        tail = Fk[-1] + tail_coef * (over ** (tail_exp + 1.0) - t[-1] ** (tail_exp + 1.0)) / (tail_exp + 1.0)
        return np.where(x <= t[-1], inside, tail)

    @_elementwise
    def fp(x):
        k = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
        over = np.maximum(x, t[-1])
        return np.where(x < t[-1], slopes[k], tail_exp * tail_coef * over ** (tail_exp - 1.0))

    return Force("table", f, F, fp, 1.0, tail_exp, tuple(t[1:].tolist()),
                 {"points": [[float(a), float(b)] for a, b in pts]})


def _validate_force(force: Force) -> None:
    with np.errstate(over="ignore", invalid="ignore"):
        fv = force.value(_GRID)
        Fv = force.primitive(_GRID)
    if fv[0] != 0.0:
        raise ValidationError(f"f(0) = {fv[0]}, expected 0")
    if np.any(fv[1:] <= 0.0):
        raise ValidationError("f must be positive for t > 0")
    fin = np.isfinite(fv)  # superpolynomial forces overflow at the grid top
    if np.any(np.diff(fv[fin]) < -1e-14 * np.maximum(1.0, fv[fin][1:])):
        raise ValidationError("f must be nondecreasing")
    if not fv[fin][-1] > 10.0 * fv[1]:
        raise ValidationError("f shows no growth toward infinity on the validation grid")
    if abs(Fv[0]) != 0.0:
        raise ValidationError(f"F(0) = {Fv[0]}, expected 0")
    finF = np.isfinite(Fv)
    if np.any(np.diff(Fv[finF]) < 0.0):
        raise ValidationError("F must be nondecreasing")
    # midpoint convexity on consecutive grid pairs (F convex since f nondecreasing)
    grid = _GRID[finF]
    mid = 0.5 * (grid[1:] + grid[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        Fm = force.primitive(mid)
    FvL, FvR = Fv[finF][:-1], Fv[finF][1:]
    ok = ~np.isfinite(Fm) | (Fm <= 0.5 * (FvL + FvR) * (1.0 + 1e-12) + 1e-300)
    if not np.all(ok):
        raise ValidationError("F failed the sampled convexity check")


def make_force(spec: Optional[dict] = None, **kwargs) -> Force:
    """Build and validate a Force from a description.

    Accepted kinds: ``power`` (q), ``exp-minus-one``, ``piecewise-power``
    (a, b; knee fixed at t=1), ``table`` (points).
    """
    spec = {**(spec or {}), **kwargs}
    kind = spec.get("kind")
    if kind == "power":
        force = _power_force(float(spec["q"]))
    elif kind == "exp-minus-one":
        force = _exp_minus_one_force()
    elif kind == "piecewise-power":
        force = _piecewise_power_force(float(spec["a"]), float(spec["b"]))
    elif kind == "table":
        force = _table_force(spec["points"])
    else:
        raise ValidationError(f"unknown force kind {kind!r}")
    _validate_force(force)
    return force


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _p_laplace(p: float) -> Operator:
    if not p > 1.0:
        raise ValidationError(f"p-laplace needs p > 1, got {p}")
    pm1 = p - 1.0

    A = _elementwise(lambda r: np.copysign(np.abs(r) ** pm1, r))
    Ap = _elementwise(lambda r: pm1 * np.abs(r) ** (p - 2.0))
    Ainv = _elementwise(lambda z: np.copysign(np.abs(z) ** (1.0 / pm1), z))
    B = _elementwise(lambda x: pm1 / p * np.abs(x) ** p)
    Binv = _elementwise(lambda y: (p * y / pm1) ** (1.0 / p))
    return Operator("p-laplace", A, Ap, Ainv, B, Binv, math.inf, p, pm1 / p, (), {"p": float(p)})


def _mean_curvature() -> Operator:
    A = _elementwise(lambda r: r / np.sqrt(1.0 + r * r))
    Ap = _elementwise(lambda r: (1.0 + r * r) ** -1.5)
    Ainv = _elementwise(lambda z: z / np.sqrt(1.0 - z * z))      # |z| < 1 here
    B = _elementwise(lambda x: 1.0 - 1.0 / np.sqrt(1.0 + x * x))

    @_elementwise
    def Binv(y):
        # (1-y)^-2 - 1 = y(2-y)/(1-y)^2, stable for y near 0
        if np.any(y >= 1.0):
            raise DomainExceededError(f"B^-1 argument {np.max(y)} >= B_sup = 1")
        return np.sqrt(y * (2.0 - y)) / (1.0 - y)

    return Operator("mean-curvature", A, Ap, Ainv, B, Binv, 1.0, 2.0, 0.5)


def _table_operator(points: Sequence[Sequence[float]]) -> Operator:
    """Flux from a strictly increasing (r, A) table, linear between knots and
    continued with the last slope.  B is the exact segment-wise integral of
    A'(s)*s, quadratic on each segment, so B^-1 is its exact segment-wise
    inverse sqrt(r_k^2 + 2 (y - B_k) / c_k)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValidationError("table operator needs >= 3 (r, A) pairs")
    r, a = pts[:, 0], pts[:, 1]
    if r[0] != 0.0 or a[0] != 0.0:
        raise ValidationError("table operator must start at (0, 0)")
    if np.any(np.diff(r) <= 0):
        raise ValidationError("table operator abscissae must be strictly increasing")
    slopes = np.diff(a) / np.diff(r)
    if np.any(slopes <= 0):
        raise ValidationError("table operator must have A' > 0 (sampled slopes)")
    # B at the knots: on each segment A' = c_k, so int A'(s) s ds = c_k (s^2 - r_k^2)/2
    Bk = np.concatenate(([0.0], np.cumsum(slopes * 0.5 * (r[1:] ** 2 - r[:-1] ** 2))))

    @_elementwise
    def A(x):
        ax = np.abs(x)
        inside = np.interp(ax, r, a)
        return np.sign(x) * np.where(ax <= r[-1], inside, a[-1] + slopes[-1] * (ax - r[-1]))

    @_elementwise
    def Ap(x):
        x = np.abs(x)
        k = np.clip(np.searchsorted(r, x, side="right") - 1, 0, len(r) - 2)
        return np.where(x <= r[-1], slopes[k], slopes[-1])

    @_elementwise
    def Ainv(z):
        az = np.abs(z)
        inside = np.interp(az, a, r)
        return np.sign(z) * np.where(az <= a[-1], inside, r[-1] + (az - a[-1]) / slopes[-1])

    @_elementwise
    def B(x):
        x = np.abs(x)
        xi = np.clip(x, 0.0, r[-1])
        k = np.clip(np.searchsorted(r, xi, side="right") - 1, 0, len(r) - 2)
        inside = Bk[k] + slopes[k] * 0.5 * (xi ** 2 - r[k] ** 2)
        over = np.maximum(x, r[-1])
        return np.where(x <= r[-1], inside, Bk[-1] + slopes[-1] * 0.5 * (over ** 2 - r[-1] ** 2))

    @_elementwise
    def Binv(y):
        if np.any(y < 0.0):
            raise DomainExceededError(f"B^-1 argument {np.min(y)} < 0")
        k = np.minimum(np.searchsorted(Bk, y, side="right") - 1, len(slopes) - 1)
        return np.sqrt(r[k] ** 2 + 2.0 * (y - Bk[k]) / slopes[k])

    return Operator("table", A, Ap, Ainv, B, Binv, math.inf, 2.0, float(0.5 * slopes[0]),
                    tuple(Bk[1:-1].tolist()),
                    {"points": [[float(u), float(v)] for u, v in pts]})


def _validate_operator(op: Operator) -> None:
    grid = _GRID[1:]
    if op.flux(0.0) != 0.0:
        raise ValidationError("A(0) must be 0")
    Apv = op.flux_prime(grid)
    if np.any(Apv <= 0.0):
        raise ValidationError("A' must be positive for r > 0 (sampled check)")
    Bv = op.energy(grid)
    if op.energy(0.0) != 0.0 or np.any(np.diff(Bv) <= 0.0):
        raise ValidationError("B must vanish at 0 and be strictly increasing")
    # round trip B(B^-1(y)) = y on [0, 0.99 B_sup)
    if math.isinf(op.energy_sup):
        ys = np.logspace(-6, math.log10(op.energy(1e6)), 25)
    else:
        ys = np.linspace(1e-6, 0.99 * op.energy_sup, 25)
    back = op.energy(op.energy_inverse(ys))
    off = np.flatnonzero(np.abs(back - ys) > 1e-10 * ys)
    if off.size:
        y, b = ys[off[0]], back[off[0]]
        raise ValidationError(f"B(B^-1({y})) = {b}, round trip off by {abs(b - y):.2e}")


def make_operator(spec: Optional[dict] = None, **kwargs) -> Operator:
    """Build and validate an Operator.

    Accepted kinds: ``p-laplace`` (p > 1), ``mean-curvature``, ``table``
    (points sampling an increasing flux A).
    """
    spec = {**(spec or {}), **kwargs}
    kind = spec.get("kind")
    if kind == "p-laplace":
        op = _p_laplace(float(spec["p"]))
    elif kind == "mean-curvature":
        op = _mean_curvature()
    elif kind == "table":
        op = _table_operator(spec["points"])
    else:
        raise ValidationError(f"unknown operator kind {kind!r}")
    _validate_operator(op)
    return op
