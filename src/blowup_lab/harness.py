"""Experiment orchestration: JSON configs in, CSV artifacts and reports out.

One config file describes one experiment (kind + force + operator + numeric
parameters).  ``run`` dispatches to the computational modules, records one
pass/fail entry per check (a failing check never aborts the rest), writes
every artifact through a manifest with content hashes, and keeps wall-clock
timings in a separate section so that reports stay comparable across runs.
Runs are seedless and deterministic: identical configs produce byte-identical
CSV artifacts.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np
import jsonschema

from . import ko as ko_mod
from . import ode1d, pde2d, radial
from .errors import BlowupLabError, BracketError, ConfigError, ValidationError
from .registry import Force, Operator, make_force, make_operator

KINDS = ("ko-check", "solve-1d", "ell-map", "dead-core", "radial",
         "cylinder", "asymptotics")

_FORCE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["power", "exp-minus-one", "piecewise-power", "table"]},
        "q": {"type": "number", "exclusiveMinimum": 0},
        "a": {"type": "number", "exclusiveMinimum": 0},
        "b": {"type": "number", "exclusiveMinimum": 0},
        "points": {"type": "array", "items": {"type": "array",
                                              "items": {"type": "number"},
                                              "minItems": 2, "maxItems": 2}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_OPERATOR_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["p-laplace", "mean-curvature", "table"]},
        "p": {"type": "number", "exclusiveMinimum": 1},
        "points": {"type": "array", "items": {"type": "array",
                                              "items": {"type": "number"},
                                              "minItems": 2, "maxItems": 2}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_PARAMS_SCHEMA = {
    "type": "object",
    "properties": {
        # shared
        "expect": {"type": "object"},
        # ko-check
        "betas": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0,
                                             "exclusiveMaximum": 1}},
        "with_a5": {"type": "boolean"},
        # solve-1d / asymptotics
        "ell": {"type": "number", "exclusiveMinimum": 0},
        "v0": {"type": "number", "exclusiveMinimum": 0},
        "n_body": {"type": "integer", "minimum": 2},
        "n_edge": {"type": "integer", "minimum": 2},
        "distances": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        # ell-map
        "v0_grid": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1},
        # dead-core
        "ell_offset": {"type": "number", "exclusiveMinimum": 0},
        "probe_offset": {"type": "number"},
        # radial
        "n": {"type": "integer", "minimum": 1},
        "R_target": {"type": "number", "exclusiveMinimum": 0},
        "r_inner": {"type": "number", "exclusiveMinimum": 0},
        "r_outer": {"type": "number", "exclusiveMinimum": 0},
        "asymptotic_distance": {"type": "number", "exclusiveMinimum": 0},
        # cylinder
        "ells": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "nx": {"type": "integer", "minimum": 8},
        "m_start": {"type": "number", "exclusiveMinimum": 0},
        "max_levels": {"type": "integer", "minimum": 1},
        "tol_m": {"type": "number", "exclusiveMinimum": 0},
        "layer_factor": {"type": "number", "exclusiveMinimum": 0},
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "tol_res": {"type": "number", "exclusiveMinimum": 0},
        "local_bound_R": {"type": "number", "exclusiveMinimum": 0},
        "translation_y": {"type": "number"},
        "expect_ko_violation": {"type": "boolean"},
        "cross_section_tol": {"type": "number", "exclusiveMinimum": 0},
    },
    "dependentRequired": {"r_inner": ["r_outer"]},
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "blowup-lab experiment configuration",
    "type": "object",
    "properties": {
        "kind": {"enum": list(KINDS)},
        "force": _FORCE_SCHEMA,
        "operator": _OPERATOR_SCHEMA,
        "params": _PARAMS_SCHEMA,
        "output_dir": {"type": "string"},
        "deterministic": {"const": True},
    },
    "required": ["kind", "force", "operator"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    force: dict
    operator: dict
    params: dict = field(default_factory=dict)
    output_dir: Optional[str] = None
    deterministic: bool = True

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
        if errors:
            msgs = "; ".join(
                f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
                for e in errors)
            raise ConfigError(f"invalid configuration: {msgs}")
        return cls(doc["kind"], doc["force"], doc["operator"],
                   doc.get("params", {}), doc.get("output_dir"),
                   doc.get("deterministic", True))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}")
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "force": self.force, "operator": self.operator,
                "params": self.params, "output_dir": self.output_dir,
                "deterministic": self.deterministic}


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: Any
    tolerance: Any = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "measured": self.measured,
                "tolerance": self.tolerance, "detail": self.detail}


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    checks: list
    files: list            # [{"path": ..., "sha256": ...}]
    timings: dict

    @property
    def status(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "config": self.config,
                "checks": [c.to_dict() for c in self.checks],
                "files": self.files, "timings": self.timings,
                "status": self.status}

    def write(self, out_dir: Path) -> None:
        with open(out_dir / "report.json", "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        lines = [f"experiment: {self.kind}", f"status: {self.status}", ""]
        for c in self.checks:
            state = "PASS" if c.passed else "FAIL"
            tol = "" if c.tolerance is None else f" (tolerance {c.tolerance})"
            lines.append(f"[{state}] {c.name}: {_fmt(c.measured)}{tol}"
                         + (f" - {c.detail}" if c.detail else ""))
        lines.append("")
        lines.append("files:")
        for f in self.files:
            lines.append(f"  {f['path']}  sha256:{f['sha256'][:16]}")
        with open(out_dir / "summary.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


class _Manifest:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.entries: list[dict] = []

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def register(self, name: str) -> None:
        digest = hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest()
        self.entries.append({"path": name, "sha256": digest})


def _build(config: ExperimentConfig) -> tuple[Operator, Force]:
    try:
        return make_operator(config.operator), make_force(config.force)
    except ValidationError as exc:
        raise ConfigError(f"invalid operator or force: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"operator or force lacks parameter {exc}") from exc


def _expect_checks(expect: dict, measured: dict) -> list[CheckResult]:
    out = []
    for key, want in sorted(expect.items()):
        got = measured.get(key)
        out.append(CheckResult(f"expect:{key}", got == want, got, want))
    return out


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _run_ko_check(op, force, params, manifest) -> list[CheckResult]:
    report = ko_mod.classify(op, force)
    checks = []
    doc = json.loads(report.to_json())
    if report.osgood_holds is not None:
        checks.append(CheckResult(
            "osgood-a3-exclusive", report.osgood_holds != report.a3_holds,
            {"osgood": report.osgood_holds, "a3": report.a3_holds}))
    if report.a3_holds and report.ko_holds:
        checks.append(CheckResult("L-finite-positive",
                                  report.L is not None and report.L > 0, report.L))
    measured = {"ko_holds": report.ko_holds, "osgood_holds": report.osgood_holds,
                "a3_holds": report.a3_holds, "L": report.L}
    if params.get("with_a5"):
        betas = params.get("betas", [0.25, 0.5, 0.75])
        a5 = ko_mod.check_a5(force, op, betas)
        doc["a5"] = json.loads(a5.to_json())
        measured["a5_likely"] = a5.likely_holds
    with open(manifest.path("ko_report.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    manifest.register("ko_report.json")
    checks.extend(_expect_checks(params.get("expect", {}), measured))
    checks.insert(0, CheckResult("classified", True, measured))
    return checks


def _profile_checks(profile, n_probe=20) -> list[CheckResult]:
    xs = np.linspace(0.0, 0.9 * profile.ell, n_probe)
    res = max(profile.implicit_residual(float(x)) for x in xs)
    checks = [CheckResult("implicit-relation", res <= 1e-8, res, 1e-8)]
    body = [(x, v) for x, v in profile.samples if x <= 0.95 * profile.ell]
    xs_b = np.array([x for x, _ in body])
    vs_b = np.array([v for _, v in body])
    h = np.diff(xs_b)
    if len(xs_b) >= 3 and np.allclose(h, h[0]):
        d2 = vs_b[2:] - 2.0 * vs_b[1:-1] + vs_b[:-2]
        scale = h[0] ** 2 * np.maximum(1.0, profile.force.value(vs_b[1:-1]))
        worst = float(np.min(d2 / scale))
        checks.append(CheckResult("convexity", worst >= -1e-8, worst, -1e-8))
    sym = abs(profile.value(-0.5 * profile.ell) - profile.value(0.5 * profile.ell))
    checks.append(CheckResult("even-symmetry", sym == 0.0, sym, 0.0))
    return checks


def _run_solve_1d(op, force, params, manifest) -> list[CheckResult]:
    if "v0" in params:
        v0 = float(params["v0"])
    else:
        ell = float(params.get("ell", 1.0))
        v0 = ode1d.v0_of_ell(op, force, ell)
        if v0 == 0.0:
            raise ConfigError(
                f"ell = {ell:g} lies in the dead-core regime; use kind 'dead-core'")
    profile = ode1d.large_profile(op, force, v0,
                                  params.get("n_body", 161), params.get("n_edge", 40))
    profile.to_csv(manifest.path("profile.csv"))
    profile.to_json(manifest.path("profile.json"))
    manifest.register("profile.csv")
    manifest.register("profile.json")
    checks = [CheckResult("solved", True, {"v0": v0, "ell": profile.ell})]
    checks.extend(_profile_checks(profile))
    # each mode measures the inversion it did not run
    if "v0" in params:
        rt = abs(ode1d.v0_of_ell(op, force, profile.ell) - v0) / v0
    else:
        rt = abs(profile.ell - ell) / ell
    checks.append(CheckResult("ell-round-trip", rt <= 1e-6, rt, 1e-6))
    checks.extend(_expect_checks(params.get("expect", {}),
                                 {"v0": v0, "ell": profile.ell}))
    return checks


def _run_ell_map(op, force, params, manifest) -> list[CheckResult]:
    v0s = [float(v) for v in params.get("v0_grid",
                                        list(np.logspace(-1.5, 1.5, 10)))]
    ells = [ode1d.ell_of_v0(op, force, v) for v in v0s]
    with open(manifest.path("ell_map.csv"), "w") as fh:
        fh.write("v0,ell\n")
        for v, e in zip(v0s, ells):
            fh.write(f"{format(v, '.17g')},{format(e, '.17g')}\n")
    manifest.register("ell_map.csv")
    strictly_dec = all(b < a for a, b in zip(ells, ells[1:]))
    checks = [CheckResult("ell-strictly-decreasing", strictly_dec,
                          {"first": ells[0], "last": ells[-1]})]
    worst = 0.0
    for v, e in zip(v0s, ells):
        back = ode1d.v0_of_ell(op, force, e)
        worst = max(worst, abs(back - v) / v)
    checks.append(CheckResult("v0-round-trip", worst <= 1e-6, worst, 1e-6))
    return checks


def _run_dead_core(op, force, params, manifest) -> list[CheckResult]:
    L = ko_mod.length_scale(op, force)
    ell = float(params["ell"]) if "ell" in params else L + float(params.get("ell_offset", 0.5))
    if not ell > L:
        raise ConfigError(f"a dead core needs ell > L = {L:g}, got ell = {ell:g}")
    L_refined = ko_mod.length_scale(op, force, max_blocks=56)
    profile = ode1d.dead_core_profile(op, force, ell,
                                      params.get("n_body", 161), params.get("n_edge", 40))
    profile.to_csv(manifest.path("profile.csv"))
    profile.to_json(manifest.path("profile.json"))
    manifest.register("profile.csv")
    manifest.register("profile.json")
    core = profile.dead_core[1]
    cap_rel = abs(L_refined - L) / L
    checks = [
        CheckResult("L", True, L),
        CheckResult("L-cap-stable", cap_rel <= 1e-6, cap_rel, 1e-6),
        CheckResult("core-zero", profile.value(0.0) == 0.0
                    and profile.value(core - 1e-3) == 0.0, profile.value(core - 1e-3)),
        CheckResult("core-edge-continuity", profile.value(core + 1e-6) <= 1e-3,
                    profile.value(core + 1e-6), 1e-3),
    ]
    probe = core + float(params.get("probe_offset", 0.1))
    res = profile.implicit_residual(probe)
    checks.append(CheckResult("implicit-relation-outside-core", res <= 1e-8, res, 1e-8))
    checks.extend(_expect_checks(params.get("expect", {}), {"L": L, "core": core}))
    return checks


def _run_radial(op, force, params, manifest) -> list[CheckResult]:
    n = int(params.get("n", 2))
    checks: list[CheckResult] = []
    if "r_inner" in params:
        r_inner, r_outer = float(params["r_inner"]), float(params["r_outer"])
        if not r_outer > r_inner:
            raise ConfigError(f"an annulus needs r_outer > r_inner, got r_inner = "
                              f"{r_inner:g}, r_outer = {r_outer:g}")
        prof = radial.annulus_barrier(op, force, n, r_inner, r_outer)
        checks.append(CheckResult("annulus-blowup-location",
                                  abs(prof.R - r_inner) <= 1e-4 * r_inner,
                                  prof.R, 1e-4))
        checks.append(CheckResult("decreasing-in-r",
                                  bool(np.all(np.diff(prof.w) <= 1e-12)),
                                  float(np.max(np.diff(prof.w)))))
    elif "R_target" in params:
        R_target = float(params["R_target"])
        prof = radial.ball_large_solution(op, force, n, R_target)
        checks.append(CheckResult("radius-round-trip",
                                  abs(prof.R - R_target) <= 1e-6 * R_target, prof.R, 1e-6))
    else:
        v0 = float(params.get("v0", 1.0))
        prof = radial.shoot_ball(op, force, n, v0)
        cap2 = radial.blowup_radius(op, force, n, v0, w_cap=radial.W_CAP * 100.0)
        rel = abs(cap2 - prof.R) / prof.R
        checks.append(CheckResult("blowup-radius-cap-stable", rel <= 1e-6, rel, 1e-6))
    prof.to_csv(manifest.path("radial.csv"))
    prof.to_json(manifest.path("radial.json"))
    manifest.register("radial.csv")
    manifest.register("radial.json")
    if prof.kind == "ball":
        pts = np.linspace(0.2 * prof.R, min(0.9 * prof.R, prof.r[-1]), 25)
        res = float(np.max(np.abs(prof.residual(pts))))
        checks.append(CheckResult("equation-residual", res <= 1e-6, res, 1e-6))
        checks.append(CheckResult("nondecreasing", bool(np.all(np.diff(prof.w) >= -1e-12)),
                                  float(np.min(np.diff(prof.w)))))
        d = float(params.get("asymptotic_distance", 1e-3))
        rate = ko_mod.BlowupRateFn(op, force)
        phi_d, ratio, detail = rate.phi(d), None, ""
        psi_end = prof.R - prof.r[-1]       # the shot ends Psi(w_end) short of R
        try:    # grade inside a shot, never on an extrapolation past its end
            graded = prof if psi_end <= d / 10.0 else radial.shoot_ball(
                op, force, n, prof.v0, w_cap=rate.phi(d / 10.0))
            ratio = graded.value(graded.R - d) / phi_d
        except BracketError:
            detail = f"Psi(w_end) = {psi_end:.3g} > d/10 and no Phi(d/10) for d = {d:g}"
        checks.append(CheckResult("boundary-asymptotic-ratio", ratio is not None
                                  and 0.97 <= ratio <= 1.03, ratio, "[0.97, 1.03]", detail))
    checks.insert(0, CheckResult("profile", True, {"n": n, "v0": prof.v0, "R": prof.R}))
    return checks


def _run_cylinder(op, force, params, manifest) -> list[CheckResult]:
    ells = [float(e) for e in params.get("ells", [1.0, 2.0, 4.0])]
    cfg = pde2d.SolverConfig(
        eps=params.get("eps", 1e-8), tol_res=params.get("tol_res", 1e-9),
        m_start=params.get("m_start", 2.0), max_levels=params.get("max_levels", 24),
        tol_m=params.get("tol_m", 1e-4), layer_factor=params.get("layer_factor", 0.5))
    nx = int(params.get("nx", 65))
    expect_violation = bool(params.get("expect_ko_violation", False))
    R_bound = float(params.get("local_bound_R", 0.8))

    try:   # everything the checks below read must exist before any solve
        grids = pde2d.family_grids(ells, nx)
        if len(grids) > 1:
            grids[-1].node_index(float(params.get("translation_y", 1.0)))
        if not expect_violation:
            for grid in grids:
                radial.require_ball_inside(grid, (0.0, 0.0), R_bound)
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"cylinder family: {exc}") from exc

    checks: list[CheckResult] = []
    fields = []
    results = []
    for ell, grid in zip(ells, grids):
        res = pde2d.escalate_m(grid, op, force, cfg)
        results.append(res)
        fields.append(res.field)
        tag = format(ell, "g")
        res.field.to_csv(manifest.path(f"field_ell{tag}.csv"))
        res.field.to_json(manifest.path(f"field_ell{tag}.json"))
        pde2d.mid_slice_to_csv(res.field, manifest.path(f"mid_slice_ell{tag}.csv"))
        for name in (f"field_ell{tag}.csv", f"field_ell{tag}.json", f"mid_slice_ell{tag}.csv"):
            manifest.register(name)
        with open(manifest.path(f"escalation_ell{tag}.csv"), "w") as fh:
            fh.write("m,center,sup_increment_K,min_increment,grad_energy_K,iterations\n")
            for lv in res.levels:
                fh.write(",".join("" if v is None else format(float(v), ".17g")
                                  for v in (lv.m, lv.center, lv.sup_increment_K,
                                            lv.min_increment, lv.grad_energy_K,
                                            lv.iterations)) + "\n")
        manifest.register(f"escalation_ell{tag}.csv")

        increments = [lv.min_increment for lv in res.levels[1:]]
        if increments:      # none when m_start is already at the layer cap
            worst_mono = min(increments)
            checks.append(CheckResult(f"m-monotone-ell{tag}", worst_mono >= -1e-10,
                                      worst_mono, -1e-10))
        defect = pde2d.symmetry_defect(res.field)
        checks.append(CheckResult(f"symmetry-ell{tag}", defect <= 1e-8, defect, 1e-8))
        energies = [lv.grad_energy_K for lv in res.levels]
        # a flat level (energy 0: m_start small enough to pass tol_res
        # unsolved) has no relative growth
        rel = [(b - a) / a for a, b in zip(energies, energies[1:]) if a > 0.0]
        if not expect_violation:
            # decaying relative growth is the bounded-gradient shadow; a
            # KO-violating run shows flat or growing relative increments
            decel = all(b < a for a, b in zip(rel, rel[1:])) if len(rel) >= 2 else True
            checks.append(CheckResult(f"grad-energy-growth-decaying-ell{tag}", decel,
                                      {"final_energy": energies[-1],
                                       "last_rel_increment": rel[-1] if rel else None}))

    violated = any(r.ko_violated for r in results)
    checks.append(CheckResult("ko-violation-flag", violated == expect_violation,
                              violated, expect_violation,
                              "KO violated numerically" if violated else ""))
    if expect_violation:
        return checks

    # anti-monotonicity in ell on nested nodes
    if len(fields) > 1:
        worst = pde2d.ell_monotonicity_violation(fields)
        checks.append(CheckResult("ell-anti-monotone", worst <= 1e-6, worst, 1e-6))

    # cross-section comparison against the 1D profile on (-1, 1)
    v0_cross = ode1d.v0_of_ell(op, force, 1.0)
    profile = ode1d.large_profile(op, force, v0_cross)
    errors = []
    with open(manifest.path("cross_section_errors.csv"), "w") as fh:
        fh.write("ell,sup_error,rel_error,quarter_slice_error\n")
        for ell, f_ in zip(ells, fields):
            cmp_ = pde2d.cross_section_compare(f_, profile)
            errors.append(cmp_)
            fh.write(f"{format(ell, '.17g')},{format(cmp_.sup_error_mid, '.17g')},"
                     f"{format(cmp_.rel_error_mid, '.17g')},"
                     f"{format(cmp_.sup_error_quarter, '.17g')}\n")
    manifest.register("cross_section_errors.csv")
    # ell-convergence is measured against the limit the discrete mid-slice
    # tends to, the y-independent solution w of the same scheme; against v,
    # the error at ell >= 2 is the cross-section's own discretisation error
    # w - v, which need not shrink with ell
    limit_errors = []
    for cmp_, f_ in zip(errors, fields):
        xs, mid = f_.mid_slice()
        window = np.abs(xs) <= cmp_.x_window + 1e-12
        w = pde2d.discrete_cross_section(f_)
        limit_errors.append(float(np.max(np.abs(mid - w)[window])))
    decreasing = all(b < a for a, b in zip(limit_errors, limit_errors[1:]))
    checks.append(CheckResult("cross-section-error-decreasing", decreasing, limit_errors))
    cs_tol = float(params.get("cross_section_tol", 0.05))
    checks.append(CheckResult("cross-section-final-rel-error",
                              errors[-1].rel_error_mid <= cs_tol,
                              errors[-1].rel_error_mid, cs_tol))

    # local interior bound on every converged field
    for ell, f_ in zip(ells, fields):
        rep = radial.local_bound_check(f_, (0.0, 0.0), R_bound)
        checks.append(CheckResult(f"local-bound-ell{format(ell, 'g')}", rep.passed,
                                  {"max_u": rep.max_u, "bound": rep.bound,
                                   "slack": rep.slack}))

    # translation invariance at the largest ell
    if len(fields) > 1:
        y_shift = float(params.get("translation_y", 1.0))
        f_last = fields[-1]
        xs = f_last.grid.x_nodes
        mask = np.abs(xs) <= 0.9 + 1e-12
        _, mid_last = f_last.mid_slice()
        shifted = f_last.slice_at(y_shift)
        trans = float(np.max(np.abs(shifted[mask] - mid_last[mask])))
        xs_p, mid_prev = fields[-2].mid_slice()
        decrement = float(np.max(np.abs(
            mid_prev[np.abs(xs_p) <= 0.9 + 1e-12] - mid_last[mask])))
        checks.append(CheckResult("translation-invariance", trans < decrement,
                                  {"slice_diff": trans, "ell_decrement": decrement}))
    return checks


def _run_asymptotics(op, force, params, manifest) -> list[CheckResult]:
    v0 = float(params.get("v0", 1.0))
    distances = [float(d) for d in params.get("distances", [1e-2, 1e-3, 1e-4])]
    ell = ode1d.ell_of_v0(op, force, v0)
    rate = ko_mod.BlowupRateFn(op, force)
    values = ode1d.eval_profile(op, force, v0, ell - np.array(distances)).tolist()
    rows = [(d, v, ko_mod.psi(op, force, v) / d, v / rate.phi(d))
            for d, v in zip(distances, values)]
    with open(manifest.path("asymptotics.csv"), "w") as fh:
        fh.write("distance,value,psi_ratio,phi_ratio\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    manifest.register("asymptotics.csv")
    finest = rows[-1]
    checks = [
        CheckResult("profile", True, {"v0": v0, "ell": ell}),
        CheckResult("psi-ratio-at-finest", 0.98 <= finest[2] <= 1.02, finest[2],
                    "[0.98, 1.02]"),
        CheckResult("phi-ratio-at-finest", 0.98 <= finest[3] <= 1.02, finest[3],
                    "[0.98, 1.02]"),
    ]
    if "R_target" in params:
        n = int(params.get("n", 2))
        prof = radial.ball_large_solution(op, force, n, float(params["R_target"]))
        d = float(params.get("asymptotic_distance", 1e-3))
        ratio = prof.value(prof.R - d) / rate.phi(d)
        checks.append(CheckResult("radial-phi-ratio", 0.97 <= ratio <= 1.03,
                                  ratio, "[0.97, 1.03]"))
    return checks


_RUNNERS = {
    "ko-check": _run_ko_check,
    "solve-1d": _run_solve_1d,
    "ell-map": _run_ell_map,
    "dead-core": _run_dead_core,
    "radial": _run_radial,
    "cylinder": _run_cylinder,
    "asymptotics": _run_asymptotics,
}


def run(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Execute one experiment; artifacts and report land in out_dir."""
    t0 = time.perf_counter()
    out = Path(out_dir if out_dir is not None else (config.output_dir or "out"))
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out)
    op, force = _build(config)
    t_build = time.perf_counter()
    checks: list[CheckResult]
    try:
        checks = _RUNNERS[config.kind](op, force, config.params, manifest)
    except BlowupLabError as exc:
        checks = [CheckResult("experiment-completed", False, type(exc).__name__,
                              detail=str(exc))]
    t_run = time.perf_counter()
    report = ExperimentReport(config.kind, config.to_dict(), checks,
                              manifest.entries,
                              {"build_s": t_build - t0, "run_s": t_run - t_build,
                               "total_s": time.perf_counter() - t0})
    report.write(out)
    return report


# ---------------------------------------------------------------------------
# report comparison
# ---------------------------------------------------------------------------

@dataclass
class RunDiff:
    kind: str
    check_diffs: list
    file_diffs: list

    @property
    def identical(self) -> bool:
        return not self.check_diffs and not self.file_diffs

    def to_dict(self) -> dict:
        return {"kind": self.kind, "identical": self.identical,
                "checks": self.check_diffs, "files": self.file_diffs}


def _load_report(source) -> dict:
    """A report, its dict, or the path of its report.json or run directory."""
    if isinstance(source, ExperimentReport):
        return source.to_dict()
    if isinstance(source, dict):
        return source
    path = Path(source) / "report.json" if Path(source).is_dir() else Path(source)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc


def _diff_value(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b)
    return None


def compare_runs(report_a, report_b) -> RunDiff:
    """Structured diff of measured values and artifact hashes; same kind only."""
    a, b = _load_report(report_a), _load_report(report_b)
    if a["kind"] != b["kind"]:
        raise ConfigError(f"experiment kinds differ: {a['kind']} vs {b['kind']}")
    checks_a = {c["name"]: c for c in a["checks"]}
    checks_b = {c["name"]: c for c in b["checks"]}
    check_diffs = []
    for name in sorted(set(checks_a) | set(checks_b)):
        ca, cb = checks_a.get(name), checks_b.get(name)
        if ca is None or cb is None:
            check_diffs.append({"name": name, "a": ca and ca["measured"],
                                "b": cb and cb["measured"], "delta": None})
        elif ca["measured"] != cb["measured"] or ca["passed"] != cb["passed"]:
            check_diffs.append({"name": name, "a": ca["measured"], "b": cb["measured"],
                                "delta": _diff_value(ca["measured"], cb["measured"])})
    files_a = {f["path"]: f["sha256"] for f in a["files"]}
    files_b = {f["path"]: f["sha256"] for f in b["files"]}
    file_diffs = []
    for path in sorted(set(files_a) | set(files_b)):
        if files_a.get(path) != files_b.get(path):
            file_diffs.append({"path": path, "a": files_a.get(path),
                               "b": files_b.get(path)})
    return RunDiff(a["kind"], check_diffs, file_diffs)
