"""Span tracing of blowup_lab from outside the package.

The modules call each other through module attributes (``qk.integrate_block``,
``ko_mod.psi``) and reach their own helpers as module globals, so replacing
those attributes with timing wrappers also catches the calls made inside the
modules.  Forces and operators are wrapped per object: the traced
``make_force``/``make_operator`` return copies whose callables count their
calls.

Every wrapped call is a span (id, parent id, name, start, end, self time).
Self time is the span's duration minus the time its child spans cover.
Force and operator callables run millions of times, so they are aggregated
(calls and self time per name) instead of stored one by one; they still
count as children of the span that called them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import time
from collections import defaultdict

from blowup_lab import harness, ko, ode1d, pde2d, quadrature, radial, registry

class Tracer:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, parent, name, start, end, self time)
        self.extra: dict[int, object] = {}  # span id -> value read from its result
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_self: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []        # open frames: [span id, start, child time]
        self._ids = itertools.count()

    def wrap(self, name, fn, *, leaf=False, extract=None):
        """``fn`` timed as span ``name``; ``extract(result)`` is kept per span."""
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            sid = None if leaf else next(self._ids)
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    self.extra[sid] = extract(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                if leaf:
                    self.leaf_calls[name] += 1
                    self.leaf_self[name] += duration - frame[2]
                else:
                    self.spans.append((sid, parent, name, frame[1], end,
                                       duration - frame[2]))

        return traced


def _points(profile) -> int:
    return len(profile.samples)


def _diagnostics(field):
    d = field.diagnostics
    return d["iterations"], d["gs_rescues"], d["clip_activations"]


# (span name, owner, attribute, extract); the layer is the name's first part
_FUNCTIONS = (
    ("quadrature.integrate_block", quadrature, "integrate_block", None),
    ("quadrature.singular_head", quadrature, "singular_head", None),
    ("quadrature.integrate_to_infinity", quadrature, "integrate_to_infinity",
     lambda est: est.blocks_used),
    ("quadrature.integrate_to_zero", quadrature, "integrate_to_zero",
     lambda est: est.blocks_used),
    ("ko.psi", ko, "psi", None),
    ("ko.classify", ko, "classify", None),
    ("ko.length_scale", ko, "length_scale", None),
    ("ko.check_a5", ko, "check_a5", None),
    ("ode1d.ell_of_v0", ode1d, "ell_of_v0", None),
    ("ode1d.v0_of_ell", ode1d, "v0_of_ell", None),
    ("ode1d.large_profile", ode1d, "large_profile", _points),
    ("ode1d.dead_core_profile", ode1d, "dead_core_profile", _points),
    ("ode1d.eval_profile", ode1d, "eval_profile", lambda _: 1),
    ("ode1d.Profile1D.value", ode1d.Profile1D, "value", None),
    ("ode1d.Profile1D.implicit_residual", ode1d.Profile1D, "implicit_residual", None),
    ("radial.shoot_ball", radial, "shoot_ball", None),
    ("radial.blowup_radius", radial, "blowup_radius", None),
    ("radial.ball_large_solution", radial, "ball_large_solution", None),
    ("radial.annulus_barrier", radial, "annulus_barrier", None),
    ("radial.local_bound_check", radial, "local_bound_check", None),
    ("pde2d.solve_dirichlet", pde2d, "solve_dirichlet", _diagnostics),
    ("pde2d.escalate_m", pde2d, "escalate_m", None),
    ("pde2d.layer_cap_m", pde2d, "layer_cap_m", None),
    ("pde2d.cross_section_compare", pde2d, "cross_section_compare", None),
    ("harness.run", harness, "run", None),
    ("harness.write", pde2d, "mid_slice_to_csv", None),
    ("harness.write", ode1d.Profile1D, "to_csv", None),
    ("harness.write", ode1d.Profile1D, "to_json", None),
    ("harness.write", radial.RadialProfile, "to_csv", None),
    ("harness.write", radial.RadialProfile, "to_json", None),
    ("harness.write", pde2d.DiscreteField, "to_csv", None),
    ("harness.write", pde2d.DiscreteField, "to_json", None),
    ("harness.write", harness.ExperimentReport, "write", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route blowup_lab's public calls through ``tracer`` until exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for name, owner, attr, extract in _FUNCTIONS:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), extract=extract))
    patch(harness.ExperimentConfig, "from_dict", staticmethod(
        tracer.wrap("harness.validate", harness.ExperimentConfig.from_dict)))

    timed_force = tracer.wrap("registry.make_force", registry.make_force)
    timed_operator = tracer.wrap("registry.make_operator", registry.make_operator)

    def make_force(*args, **kwargs):
        force = timed_force(*args, **kwargs)
        return dataclasses.replace(
            force, value=tracer.wrap("registry.force", force.value, leaf=True),
            primitive=tracer.wrap("registry.force", force.primitive, leaf=True))

    def make_operator(*args, **kwargs):
        op = timed_operator(*args, **kwargs)
        return dataclasses.replace(op, energy_inverse=tracer.wrap(
            "registry.energy_inverse", op.energy_inverse, leaf=True))

    # harness imported the factories by name, so both bindings are replaced
    for owner in (registry, harness):
        patch(owner, "make_force", make_force)
        patch(owner, "make_operator", make_operator)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    name_of = {}
    parent_of = {}
    for sid, parent, name, start, end, own in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        incl_s[name] += end - start
        name_of[sid] = name
        parent_of[sid] = parent

    def under(sid, ancestors) -> bool:
        sid = parent_of[sid]
        while sid is not None:
            if name_of[sid] in ancestors:
                return True
            sid = parent_of[sid]
        return False

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    profile_makers = {"ode1d.large_profile", "ode1d.dead_core_profile", "ode1d.eval_profile"}
    quad_in_profiles = sum(
        1 for sid, name in name_of.items()
        if name in ("quadrature.integrate_block", "quadrature.singular_head")
        and under(sid, profile_makers))
    points = sum(v for sid, v in tracer.extra.items() if name_of[sid] in profile_makers)
    nested_ell = sum(1 for sid, name in name_of.items()
                     if name == "ode1d.ell_of_v0" and under(sid, {"ode1d.v0_of_ell"}))
    ladders = ("quadrature.integrate_to_infinity", "quadrature.integrate_to_zero")
    newton = [tracer.extra[sid] for sid, name in name_of.items()
              if name == "pde2d.solve_dirichlet" and sid in tracer.extra]
    newton_its = sum(d[0] for d in newton)
    return {
        "registry.build_s": incl_s["registry.make_force"] + incl_s["registry.make_operator"],
        "registry.energy_inverse.calls": tracer.leaf_calls["registry.energy_inverse"],
        "registry.energy_inverse.self_s": tracer.leaf_self["registry.energy_inverse"],
        "registry.force.calls": tracer.leaf_calls["registry.force"],
        "quadrature.integrate_block.calls": calls["quadrature.integrate_block"],
        "quadrature.integrate_block.self_s": self_s["quadrature.integrate_block"],
        "quadrature.singular_head.calls": calls["quadrature.singular_head"],
        "quadrature.singular_head.self_s": self_s["quadrature.singular_head"],
        "quadrature.ladder.calls": sum(calls[n] for n in ladders),
        "quadrature.ladder.blocks": sum(v for sid, v in tracer.extra.items()
                                        if name_of[sid] in ladders),
        "ko.psi.calls": calls["ko.psi"],
        "ko.psi.self_s": self_s["ko.psi"],
        "ko.classify.self_s": self_s["ko.classify"],
        "ode1d.ell_of_v0.calls": calls["ode1d.ell_of_v0"],
        "ode1d.ell_evals_per_inversion": ratio(nested_ell, calls["ode1d.v0_of_ell"]),
        "ode1d.quad_per_point": ratio(quad_in_profiles, points),
        "ode1d.self_s": layer_self("ode1d"),
        "radial.shots": calls["radial.shoot_ball"] + calls["radial.blowup_radius"],
        "radial.self_s": layer_self("radial"),
        "pde2d.levels": calls["pde2d.solve_dirichlet"],
        "pde2d.newton_iterations": newton_its,
        "pde2d.gs_rescues": sum(d[1] for d in newton),
        "pde2d.clip_activations": sum(d[2] for d in newton),
        "pde2d.solve_dirichlet.self_s": self_s["pde2d.solve_dirichlet"],
        "pde2d.s_per_newton": ratio(self_s["pde2d.solve_dirichlet"], newton_its),
        "pde2d.cross_section_compare.self_s": self_s["pde2d.cross_section_compare"],
        "harness.validate_s": incl_s["harness.validate"],
        "harness.write_s": incl_s["harness.write"],
    }
