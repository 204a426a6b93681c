"""Experiment orchestration: JSON configs in, CSV/JSON artifacts and reports out.

One config file describes one experiment (kind + force + operator + numeric
parameters; the numerical method's settings are module constants, not keys).
``run`` dispatches to the computational modules and records one pass/fail
entry per check (a failing check never aborts the rest).  Each
artifact is written by one ``_Manifest.add``, which also hashes it into
``report.files``; the bytes come from :mod:`blowup_lab.artifacts`.  Wall-clock
timings sit in a separate section so that reports stay comparable across runs.
Runs are seedless and deterministic: identical configs give identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np
import jsonschema

from . import ko as ko_mod
from . import ode1d, pde2d, radial
from .artifacts import write_csv, write_json
from .errors import BlowupLabError, BracketError, ConfigError, ValidationError
from .registry import Force, Operator, make_force, make_operator

KINDS = ("ko-check", "solve-1d", "ell-map", "dead-core", "radial",
         "cylinder", "asymptotics")
EXPECT_KINDS = ("ko-check", "solve-1d", "dead-core")   # the kinds that grade params.expect
PROBE_OFFSET = 0.1              # dead-core: the relation is checked this far outside the core
ASYMPTOTIC_DISTANCE = 1e-3      # radial: w(R - d) / Phi(d) is graded at this d

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
        # ko-check / solve-1d / dead-core (from_dict rejects it elsewhere)
        "expect": {"type": "object"},
        # ko-check
        "betas": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0,
                                             "exclusiveMaximum": 1}},
        "with_a5": {"type": "boolean"},
        # solve-1d / asymptotics
        "ell": {"type": "number", "exclusiveMinimum": 0},
        "v0": {"type": "number", "exclusiveMinimum": 0},
        "distances": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                      "minItems": 1},
        # ell-map
        "v0_grid": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1},
        # dead-core
        "ell_offset": {"type": "number", "exclusiveMinimum": 0},
        # radial
        "n": {"type": "integer", "minimum": 1},
        "R_target": {"type": "number", "exclusiveMinimum": 0},
        "r_inner": {"type": "number", "exclusiveMinimum": 0},
        "r_outer": {"type": "number", "exclusiveMinimum": 0},
        # cylinder
        "ells": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                 "minItems": 1},
        "nx": {"type": "integer", "minimum": 8},
        "max_levels": {"type": "integer", "minimum": 1},
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
        if "expect" in doc.get("params", {}) and doc["kind"] not in EXPECT_KINDS:
            raise ConfigError(f"invalid configuration: params/expect: kind {doc['kind']!r} "
                              "grades no expected values")
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
        return asdict(self)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: Any
    tolerance: Any = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


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
        write_json(out_dir / "report.json", self.to_dict())
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
        (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


class _Manifest:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.entries: list[dict] = []

    def add(self, name: str, write, *args) -> None:
        """``write(out_dir/name, *args)``, then record the file's sha256."""
        path = self.out_dir / name
        write(path, *args)
        self.entries.append({"path": name,
                             "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})


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
    doc = report.to_dict()
    measured = {"ko_holds": report.ko_holds, "osgood_holds": report.osgood_holds,
                "a3_holds": report.a3_holds, "L": report.L}
    checks = [CheckResult("classified", True, measured)]
    if params.get("with_a5"):
        betas = params.get("betas", [0.25, 0.5, 0.75])
        a5 = ko_mod.check_a5(force, op, betas)
        doc["a5"] = a5.to_dict()
        measured["a5_likely"] = a5.likely_holds
    manifest.add("ko_report.json", write_json, doc)
    checks.extend(_expect_checks(params.get("expect", {}), measured))
    return checks


def _profile_checks(profile) -> list[CheckResult]:
    xs = np.linspace(0.0, 0.9 * profile.ell, 20)
    res = max(profile.implicit_residual(xs).tolist())
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
    return checks


def _run_solve_1d(op, force, params, manifest) -> list[CheckResult]:
    if "v0" in params:
        v0 = float(params["v0"])
    else:
        ell = float(params.get("ell", 1.0))
        v0 = ode1d.large_solution(op, force, ell).v0
        if v0 == 0.0:
            raise ConfigError(
                f"ell = {ell:g} lies in the dead-core regime; use kind 'dead-core'")
    profile = ode1d.large_profile(op, force, v0)
    manifest.add("profile.csv", profile.to_csv)
    manifest.add("profile.json", profile.to_json)
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
    manifest.add("ell_map.csv", write_csv, "v0,ell", zip(v0s, ells))
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
    profile = ode1d.dead_core_profile(op, force, ell)
    manifest.add("profile.csv", profile.to_csv)
    manifest.add("profile.json", profile.to_json)
    core = profile.dead_core[1]
    cap_rel = abs(L_refined - L) / L
    edge = profile.value(core + 1e-6)
    checks = [
        CheckResult("L", True, L),
        CheckResult("L-cap-stable", cap_rel <= 1e-6, cap_rel, 1e-6),
        CheckResult("core-edge-continuity", edge <= 1e-3, edge, 1e-3),
    ]
    res = profile.implicit_residual(core + PROBE_OFFSET)
    checks.append(CheckResult("implicit-relation-outside-core", res <= 1e-8, res, 1e-8))
    checks.extend(_expect_checks(params.get("expect", {}), {"L": L, "core": core}))
    return checks


def _boundary_ratio(op, force, prof, d) -> tuple[Optional[float], str]:
    """(w(R - d) / Phi(d), detail) for a ball profile, graded inside a shot,
    never on an extrapolation past its end; (None, why) without such a shot
    or when d does not fit in R."""
    phi_d = ko_mod.phi(op, force, d)
    if not d < prof.R:
        return None, f"d = {d:g} does not fit in R = {prof.R:.6g}"
    psi_end = prof.R - prof.r[-1]       # the shot ends Psi(w_end) short of R
    try:
        graded = prof if psi_end <= d / 10.0 else radial.shoot_ball(
            op, force, prof.n, prof.v0, w_cap=ko_mod.phi(op, force, d / 10.0), reuse=prof)
        return graded.value(graded.R - d) / phi_d, ""
    except BracketError:
        return None, f"Psi(w_end) = {psi_end:.3g} > d/10 and no Phi(d/10) for d = {d:g}"


def _run_radial(op, force, params, manifest) -> list[CheckResult]:
    n = int(params.get("n", 2))
    checks: list[CheckResult] = []
    if "r_inner" in params:
        r_inner, r_outer = float(params["r_inner"]), float(params["r_outer"])
        if not r_outer > r_inner:
            raise ConfigError(f"an annulus needs r_outer > r_inner, got r_inner = "
                              f"{r_inner:g}, r_outer = {r_outer:g}")
        prof = radial.annulus_barrier(op, force, n, r_inner, r_outer)
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
        cap2 = radial.blowup_radius(op, force, n, v0, w_cap=radial.W_CAP * 100.0, reuse=prof)
        rel = abs(cap2 - prof.R) / prof.R
        checks.append(CheckResult("blowup-radius-cap-stable", rel <= 1e-6, rel, 1e-6))
    manifest.add("radial.csv", prof.to_csv)
    manifest.add("radial.json", prof.to_json)
    if prof.kind == "ball":
        pts = np.linspace(0.2 * prof.R, min(0.9 * prof.R, prof.r[-1]), 25)
        res = float(np.max(np.abs(prof.residual(pts))))
        checks.append(CheckResult("equation-residual", res <= 1e-6, res, 1e-6))
        checks.append(CheckResult("nondecreasing", bool(np.all(np.diff(prof.w) >= -1e-12)),
                                  float(np.min(np.diff(prof.w)))))
        ratio, detail = _boundary_ratio(op, force, prof, ASYMPTOTIC_DISTANCE)
        checks.append(CheckResult("boundary-asymptotic-ratio", ratio is not None
                                  and 0.97 <= ratio <= 1.03, ratio, "[0.97, 1.03]", detail))
    checks.insert(0, CheckResult("profile", True, {"n": n, "v0": prof.v0, "R": prof.R}))
    return checks


def _run_cylinder(op, force, params, manifest) -> list[CheckResult]:
    ells = [float(e) for e in params.get("ells", [1.0, 2.0, 4.0])]
    max_levels = int(params.get("max_levels", pde2d.MAX_LEVELS))
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
    results = []
    for ell, grid in zip(ells, grids):
        res = pde2d.escalate_m(grid, op, force, max_levels=max_levels)
        results.append(res)
        tag = format(ell, "g")
        manifest.add(f"field_ell{tag}.csv", res.field.to_csv)
        manifest.add(f"field_ell{tag}.json", res.field.to_json)
        manifest.add(f"mid_slice_ell{tag}.csv",
                     lambda path: pde2d.mid_slice_to_csv(res.field, path))
        manifest.add(f"escalation_ell{tag}.csv", write_csv,
                     "m,center,sup_increment_K,min_increment,grad_energy_K,iterations",
                     map(astuple, res.levels))

        increments = [lv.min_increment for lv in res.levels[1:]]
        if increments:      # none when M_START is already at the layer cap
            worst_mono = min(increments)
            checks.append(CheckResult(f"m-monotone-ell{tag}", worst_mono >= -1e-10,
                                      worst_mono, -1e-10))
        energies = [lv.grad_energy_K for lv in res.levels]
        # a flat level (energy 0: M_START small enough to pass TOL_RES
        # unsolved) has no relative growth
        rel = [(b - a) / a for a, b in zip(energies, energies[1:]) if a > 0.0]
        if not expect_violation and len(rel) >= 2:
            # decaying relative growth is the bounded-gradient shadow; a
            # KO-violating run shows flat or growing relative increments
            decel = all(b < a for a, b in zip(rel, rel[1:]))
            checks.append(CheckResult(f"grad-energy-growth-decaying-ell{tag}", decel,
                                      {"final_energy": energies[-1],
                                       "last_rel_increment": rel[-1]}))

    fields = [r.field for r in results]
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

    # cross-section comparison against the 1D large solution on (-1, 1)
    profile = ode1d.large_solution(op, force, 1.0)
    errors = [pde2d.cross_section_compare(f_, profile) for f_ in fields]
    manifest.add("cross_section_errors.csv", write_csv,
                 "ell,sup_error,rel_error,quarter_slice_error",
                 [(ell, c.sup_error_mid, c.rel_error_mid, c.sup_error_quarter)
                  for ell, c in zip(ells, errors)])
    # ell-convergence is measured against the limit the discrete mid-slice
    # tends to, the y-independent solution w of the same scheme; against v,
    # the error at ell >= 2 is the cross-section's own discretisation error
    # w - v, which need not shrink with ell
    window = grids[0].window        # the family shares its x-nodes
    limit_errors = []
    for f_ in fields:
        gap = f_.mid_slice()[1] - pde2d.discrete_cross_section(f_)
        limit_errors.append(float(np.max(np.abs(gap[window]))))
    decreasing = all(b < a for a, b in zip(limit_errors, limit_errors[1:]))
    checks.append(CheckResult("cross-section-error-decreasing", decreasing, limit_errors))
    cs_tol = float(params.get("cross_section_tol", 0.05))
    rel = errors[-1].rel_error_mid
    checks.append(CheckResult("cross-section-final-rel-error", rel <= cs_tol, rel, cs_tol,
                              "sup|v| = 0: the core covers the window" if rel == np.inf else ""))

    # local interior bound on every converged field
    for ell, f_ in zip(ells, fields):
        rep = radial.local_bound_check(f_, (0.0, 0.0), R_bound)
        checks.append(CheckResult(f"local-bound-ell{format(ell, 'g')}", rep.passed,
                                  {"max_u": rep.max_u, "bound": rep.bound,
                                   "slack": rep.slack}))

    # translation invariance at the largest ell
    if len(fields) > 1:
        y_shift = float(params.get("translation_y", 1.0))
        mid_last = fields[-1].mid_slice()[1]
        trans = float(np.max(np.abs(fields[-1].slice_at(y_shift) - mid_last)[window]))
        decrement = float(np.max(np.abs(fields[-2].mid_slice()[1] - mid_last)[window]))
        checks.append(CheckResult("translation-invariance", trans < decrement,
                                  {"slice_diff": trans, "ell_decrement": decrement}))
    return checks


def _run_asymptotics(op, force, params, manifest) -> list[CheckResult]:
    v0 = float(params.get("v0", 1.0))
    distances = [float(d) for d in params.get("distances", [1e-2, 1e-3, 1e-4])]
    ell = ode1d.ell_of_v0(op, force, v0)
    if max(distances) > ell:
        raise ConfigError(f"distance {max(distances):g} from the end exceeds ell(v0) = {ell:g}")
    values = ode1d.eval_profile(op, force, v0, ell - np.array(distances))
    rows = [(d, v, p / d, v / ko_mod.phi(op, force, d))
            for d, v, p in zip(distances, values.tolist(), ko_mod.psi(op, force, values).tolist())]
    manifest.add("asymptotics.csv", write_csv, "distance,value,psi_ratio,phi_ratio", rows)
    finest = min(rows)      # the smallest distance
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
        ratio, detail = _boundary_ratio(op, force, prof, ASYMPTOTIC_DISTANCE)
        checks.append(CheckResult("radial-phi-ratio", ratio is not None
                                  and 0.97 <= ratio <= 1.03, ratio, "[0.97, 1.03]", detail))
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {out}: {exc}") from exc
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
