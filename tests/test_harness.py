import ast
import csv
import importlib.util
import json
import math
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blowup_lab import (ConfigError, ExperimentConfig, SolverError, compare_runs,
                        large_solution, make_force, make_operator, run, v0_of_ell)
from blowup_lab import cli, harness, ode1d, pde2d, radial
from blowup_lab import quadrature as qk

ROOT = Path(__file__).resolve().parent.parent
REMOVED_KEYS = {"eps": 1e-8, "tol_res": 1e-9, "m_start": 2.0, "tol_m": 1e-4,
                "layer_factor": 0.5, "n_body": 161, "n_edge": 40, "probe_offset": 0.1,
                "asymptotic_distance": 1e-3}


def bump(res, node, delta):
    """The escalation result with ``delta`` added to its field at one node."""
    values = res.field.values.copy()
    values[node] += delta
    return replace(res, field=replace(res.field, values=values))


def level(res, k, **changes):
    """The escalation result with level k's record changed."""
    levels = list(res.levels)
    levels[k] = replace(levels[k], **changes)
    return replace(res, levels=tuple(levels))


def cfg_dict(kind="ko-check", force=None, operator=None, params=None):
    return {
        "kind": kind,
        "force": force or {"kind": "power", "q": 3},
        "operator": operator or {"kind": "p-laplace", "p": 2},
        "params": params or {},
    }


class TestConfig:
    def test_accepts_minimal(self):
        cfg = ExperimentConfig.from_dict(cfg_dict())
        assert cfg.kind == "ko-check"
        assert cfg.deterministic is True

    def test_rejects_unknown_top_level_key(self):
        doc = cfg_dict()
        doc["mystery"] = 1
        with pytest.raises(ConfigError, match="mystery|Additional"):
            ExperimentConfig.from_dict(doc)

    def test_rejects_unknown_param(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg_dict(params={"not_a_thing": 2}))

    def test_rejects_unknown_force_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg_dict(force={"kind": "power", "q": 3, "x": 1}))

    def test_rejects_nondeterministic(self):
        doc = cfg_dict()
        doc["deterministic"] = False
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_rejects_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict(cfg_dict(kind="frobnicate"))

    def test_rejects_r_inner_without_r_outer(self):
        with pytest.raises(ConfigError, match="r_outer"):
            ExperimentConfig.from_dict(cfg_dict(kind="radial", params={"r_inner": 1.0}))

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_method_setting_is_rejected(self, tmp_path, key):
        # the numerical method's settings are module constants, not config keys
        doc = cfg_dict(kind="cylinder", params={"ells": [1.0], key: REMOVED_KEYS[key]})
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("kind", ["ell-map", "radial", "cylinder", "asymptotics"])
    def test_expect_rejected_where_nothing_grades_it(self, tmp_path, kind):
        doc = cfg_dict(kind=kind, params={"expect": {"R": 123.0}})
        with pytest.raises(ConfigError, match=f"params/expect: kind '{kind}'"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", harness.EXPECT_KINDS)
    def test_expect_accepted_where_it_is_graded(self, kind):
        doc = cfg_dict(kind=kind, params={"expect": {"L": 1.0}})
        assert ExperimentConfig.from_dict(doc).params["expect"] == {"L": 1.0}

    def test_every_param_key_has_traffic(self):
        # a key that no config, benchmark batch or script sets is a knob
        # without traffic: its one value in use belongs in a constant
        used = set()
        for path in (ROOT / "configs").glob("*.json"):
            used |= json.loads(path.read_text()).get("params", {}).keys()
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for w in workloads.WORKLOADS:
            for seed in (1, 2, 3):
                for item in workloads.generate(w, seed):
                    used |= item["params"].keys()
        for path in (ROOT / "scripts").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Dict):
                    for k, v in zip(node.keys, node.values):
                        if isinstance(k, ast.Constant) and k.value == "params" \
                                and isinstance(v, ast.Dict):
                            used |= {kk.value for kk in v.keys if isinstance(kk, ast.Constant)}
        assert set(harness._PARAMS_SCHEMA["properties"]) <= used, \
            sorted(set(harness._PARAMS_SCHEMA["properties"]) - used)

    def test_file_parse_error_has_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_file(bad)


class TestRunners:
    def test_ko_check(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            params={"expect": {"ko_holds": True, "osgood_holds": True,
                               "a3_holds": False}}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass"
        doc = json.loads((tmp_path / "ko_report.json").read_text())
        assert doc["ko_holds"] is True
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "summary.txt").exists()

    def test_ko_check_a5(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            params={"with_a5": True, "betas": [0.5],
                    "expect": {"a5_likely": True}}))
        assert run(cfg, tmp_path).status == "pass"

    def test_solve_1d_first_row(self, op_p2, force_cubic, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="solve-1d",
                                                  params={"ell": 1.0}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass"
        with open(tmp_path / "profile.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "v"]
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == pytest.approx(
            v0_of_ell(op_p2, force_cubic, 1.0), rel=1e-12)

    @pytest.mark.parametrize("kind, params, check", [
        ("solve-1d", {"ell": 1.0}, "ell-round-trip"),
        ("solve-1d", {"v0": 1.0}, "ell-round-trip"),
        ("ell-map", {"v0_grid": [0.5, 1.0, 2.0]}, "v0-round-trip"),
    ], ids=["ell", "v0", "ell-map"])
    def test_ell_round_trip_sees_an_inexact_inversion(self, tmp_path, monkeypatch, kind,
                                                      params, check):
        monkeypatch.setattr(ode1d, "v0_of_ell",
                            lambda op, force, ell: v0_of_ell(op, force, ell) * (1.0 + 1e-3))
        rep = run(ExperimentConfig.from_dict(cfg_dict(kind=kind, params=params)), tmp_path)
        (check,) = [c for c in rep.checks if c.name == check]
        assert not check.passed
        assert check.measured > 1e-4

    @pytest.mark.parametrize("kind, force, params, check, graded", [
        ("solve-1d", None, {"ell": 1.0}, "implicit-relation",
         lambda prof: np.linspace(0.0, 0.9 * prof.ell, 20)[7]),
        ("dead-core", {"kind": "piecewise-power", "a": 0.5, "b": 3}, {"ell_offset": 0.5},
         "implicit-relation-outside-core", lambda prof: prof.dead_core[1] + harness.PROBE_OFFSET),
    ], ids=["solve-1d", "dead-core"])
    def test_implicit_relation_sees_a_value_off_at_one_point(self, tmp_path, monkeypatch,
                                                             kind, force, params, check, graded):
        # Profile1D.value 1e-6 relative off at one graded point
        doc = cfg_dict(kind=kind, force=force, params=params)
        clean = {c.name: c for c in run(ExperimentConfig.from_dict(doc), tmp_path / "clean").checks}
        assert clean[check].passed
        value = ode1d.Profile1D.value

        def planted(self, x):
            v = np.where(np.abs(x) == graded(self), 1.0 + 1e-6, 1.0) * value(self, x)
            return v if v.ndim else float(v)

        monkeypatch.setattr(ode1d.Profile1D, "value", planted)
        rep = {c.name: c for c in run(ExperimentConfig.from_dict(doc), tmp_path / "planted").checks}
        assert not rep[check].passed
        assert rep[check].measured > 1e-8 > clean[check].measured
        assert [n for n, c in rep.items() if not c.passed] == [check]

    def test_solve_1d_dead_core_config_rejected(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="solve-1d",
            force={"kind": "piecewise-power", "a": 0.5, "b": 3},
            params={"ell": 20.0}))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"   # captured as a failed check, not a crash

    def test_ell_map(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="ell-map", params={"v0_grid": [0.5, 1.0, 2.0, 4.0]}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass"
        rows = (tmp_path / "ell_map.csv").read_text().splitlines()
        assert rows[0] == "v0,ell"
        assert len(rows) == 5

    def test_dead_core(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="dead-core",
            force={"kind": "piecewise-power", "a": 0.5, "b": 3},
            params={"ell_offset": 0.5}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass"
        names = {c.name for c in rep.checks}
        assert {"L-cap-stable", "core-edge-continuity"} <= names

    def test_dead_core_classifies_twice(self, tmp_path, monkeypatch):
        # one classification at the default block cap serves the run and its
        # profile; the second is the 56-block refinement.  Each classification
        # runs one 0+ ladder (only classify runs it), and a cache hit runs none
        caps = []
        ladder = qk.integrate_to_zero

        def counted(g, end, *, max_blocks):
            caps.append(max_blocks)
            return ladder(g, end, max_blocks=max_blocks)

        monkeypatch.setattr(qk, "integrate_to_zero", counted)
        rep = run(ExperimentConfig.from_file(ROOT / "configs" / "dead_core.json"), tmp_path)
        assert rep.status == "pass"
        assert caps == [qk.MAX_BLOCKS, 56]

    def test_asymptotics_grades_the_smallest_distance(self, tmp_path):
        # ell(1) = 1.854 for q = 3, p = 2; the last row (d = 1.5) is not the finest
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="asymptotics", params={"distances": [1e-4, 1e-2, 1.5]})), tmp_path)
        rows = list(csv.DictReader((tmp_path / "asymptotics.csv").read_text().splitlines()))
        (check,) = [c for c in rep.checks if c.name == "psi-ratio-at-finest"]
        assert check.measured == float(rows[0]["psi_ratio"])
        assert check.measured == pytest.approx(1.0, abs=1e-9)
        assert rep.status == "pass"

    def test_asymptotics_distance_past_the_center_rejected(self, tmp_path):
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="asymptotics", params={"distances": [2.5, 1e-4]})), tmp_path)
        assert rep.files == []
        (check,) = rep.checks
        assert (check.name, check.measured) == ("experiment-completed", "ConfigError")
        assert "distance 2.5 from the end exceeds ell(v0) = 1.85" in check.detail

    def test_radial(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="radial", params={"n": 2, "v0": 1.0}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass"
        assert (tmp_path / "radial.csv").exists()

    def test_radius_round_trip_reads_the_solved_radius(self, tmp_path, monkeypatch):
        prof = radial.ball_large_solution(make_operator(kind="p-laplace", p=2),
                                          make_force(kind="power", q=3), 2, 1.0)

        def no_shot(*args, **kwargs):
            raise AssertionError("blowup_radius called")

        monkeypatch.setattr(radial, "ball_large_solution", lambda *args: prof)
        monkeypatch.setattr(radial, "blowup_radius", no_shot)
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", params={"n": 2, "R_target": 1.0})), tmp_path)
        assert rep.status == "pass"
        (check,) = [c for c in rep.checks if c.name == "radius-round-trip"]
        assert check.measured == prof.R

    def test_radius_round_trip_can_fail(self, tmp_path, monkeypatch):
        real = harness.ko_mod.increasing_root

        def off_target(g, limit, ftol, name, goal, start=0.0):
            return real(g, limit, ftol, name, goal, start) + (1e-3 if name == "v0" else 0.0)

        monkeypatch.setattr(harness.ko_mod, "increasing_root", off_target)
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", params={"n": 2, "R_target": 1.0})), tmp_path)
        failed = [c.name for c in rep.checks if not c.passed]
        assert failed == ["radius-round-trip"]

    def test_cap_stability_can_fail(self, tmp_path, monkeypatch):
        # planted defect: Psi at the 100 W_CAP end point off by 1e-5 R; the
        # capped shot shares phase 1 with the profile but must still disagree
        R = radial.blowup_radius(make_operator(kind="p-laplace", p=2),
                                 make_force(kind="power", q=3), 2, 1.0)
        real = radial._end_point

        def off_end(op, force, w_cap):
            w, psi_end = real(op, force, w_cap)
            return w, psi_end + (1e-5 * R if w_cap == 100.0 * radial.W_CAP else 0.0)

        monkeypatch.setattr(radial, "_end_point", off_end)
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", params={"n": 2, "v0": 1.0})), tmp_path)
        failed = [c.name for c in rep.checks if not c.passed]
        assert failed == ["blowup-radius-cap-stable"]

    def test_rate_past_dead_core_length_is_reported(self, tmp_path, monkeypatch):
        # Phi(10) does not exist: Psi stays below L = 4.04 for a = 0.4
        monkeypatch.setattr(harness, "ASYMPTOTIC_DISTANCE", 10.0)
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", force={"kind": "piecewise-power", "a": 0.4, "b": 3},
            params={"n": 1, "v0": 1.0})), tmp_path)
        assert rep.status == "fail"
        (check,) = [c for c in rep.checks if c.name == "experiment-completed"]
        assert check.measured == "BracketError"

    def test_asymptotic_ratio_is_graded_inside_the_shot(self, tmp_path):
        # a slow tail near the KO frontier: the shot to w = 1e8 ends
        # Psi(1e8) = 4.7e-3 short of R, past R - d for d = 1e-3
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", force={"kind": "power", "q": 2.98},
            operator={"kind": "p-laplace", "p": 2.92},
            params={"n": 2, "R_target": 0.5})), tmp_path)
        (check,) = [c for c in rep.checks if c.name == "boundary-asymptotic-ratio"]
        assert check.passed
        assert check.measured == pytest.approx(1.0, abs=1e-3)

    def test_asymptotics_radial_ratio_is_graded_inside_the_shot(self, tmp_path):
        # the config of the radial test above, through the asymptotics kind
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="asymptotics", force={"kind": "power", "q": 2.98},
            operator={"kind": "p-laplace", "p": 2.92},
            params={"n": 2, "R_target": 0.5})), tmp_path)
        (check,) = [c for c in rep.checks if c.name == "radial-phi-ratio"]
        assert check.passed
        assert check.measured == pytest.approx(1.0, abs=1e-3)

    def test_asymptotic_ratio_without_a_long_shot_fails_plainly(self, tmp_path, monkeypatch):
        real = harness.ko_mod.phi

        def no_phi_below(op, force, d):
            if d < 1e-3:
                raise harness.BracketError("not bracketed")
            return real(op, force, d)

        monkeypatch.setattr(harness.ko_mod, "phi", no_phi_below)
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", force={"kind": "power", "q": 2.98},
            operator={"kind": "p-laplace", "p": 2.92},
            params={"n": 2, "R_target": 0.5})), tmp_path)
        (check,) = [c for c in rep.checks if c.name == "boundary-asymptotic-ratio"]
        assert not check.passed and check.measured is None
        assert "d = 0.001" in check.detail and "Psi(w_end) = 0.0047" in check.detail

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ball_radius_search_stops_below_the_end_point(self, tmp_path):
        # R(v0) ~ v0^(-0.011): no v0 below the shots' end point reaches R = 1
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", force={"kind": "piecewise-power", "a": 1, "b": 2.94},
            operator={"kind": "p-laplace", "p": 3.9},
            params={"n": 3, "R_target": 1.0})), tmp_path)
        (check,) = [c for c in rep.checks if c.name == "experiment-completed"]
        assert check.measured == "BracketError"
        assert "reaches the radius 1" in check.detail
        assert "integrator" not in check.detail

    def test_asymptotic_ratio_needs_d_inside_the_ball(self, tmp_path):
        # R = 1.01e-4 < d = 1e-3: w(R - d) would be read at a negative radius
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", force={"kind": "exp-minus-one"},
            params={"n": 1, "v0": 20.0})), tmp_path)
        (check,) = [c for c in rep.checks if c.name == "boundary-asymptotic-ratio"]
        assert not check.passed and check.measured is None
        assert check.detail == "d = 0.001 does not fit in R = 0.000100853"

    def test_ball_radius_below_the_prestep_is_reported(self, tmp_path):
        # R = 1e-7 < r0 = 1e-6: the v0 that come near it step from v0 past
        # the shots' end point w = 1e8 before the first DOP853 step
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", params={"n": 2, "R_target": 1e-7})), tmp_path)
        (check,) = [c for c in rep.checks if c.name == "experiment-completed"]
        assert check.measured == "BracketError"
        assert "the prestep from v0 = " in check.detail
        assert "past the shots' end point 1e+08" in check.detail

    @pytest.mark.parametrize("v0", [1e-120, 1e-300])
    def test_underflowing_force_at_v0_is_reported(self, tmp_path, v0):
        # f(v0) = v0^3 underflows to 0, so the head has no linear onset
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="solve-1d", params={"v0": v0})), tmp_path)
        assert rep.status == "fail"
        (check,) = [c for c in rep.checks if c.name == "experiment-completed"]
        assert check.measured == "ProfileDomainError"
        assert "f(v0) = 0" in check.detail

    def test_asymptotics(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="asymptotics", params={"v0": 1.0, "distances": [1e-2, 1e-3]}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass"

    def test_cylinder_small(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder",
            params={"ells": [1.0, 2.0], "nx": 33, "cross_section_tol": 0.2,
                    "translation_y": 0.5}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass", [c.to_dict() for c in rep.checks if not c.passed]
        assert (tmp_path / "field_ell1.csv").exists()
        assert (tmp_path / "mid_slice_ell2.csv").exists()
        assert (tmp_path / "cross_section_errors.csv").exists()

    def test_cylinder_ko_violation_contrast(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder",
            force={"kind": "power", "q": 1},
            params={"ells": [1.0], "nx": 17, "max_levels": 7,
                    "expect_ko_violation": True}))
        rep = run(cfg, tmp_path)
        assert rep.status == "pass"
        flag = [c for c in rep.checks if c.name == "ko-violation-flag"][0]
        assert flag.measured is True

    @pytest.mark.parametrize("operator, params, error, match", [
        (None, {"nx": 16}, "ConfigError", "y = 0 is not a grid node"),
        (None, {"ells": [2.0, 1.0]}, "ConfigError", "strictly increasing"),
        (None, {"ells": [1.0, 1.3]}, "ConfigError", "y = 0 is not a grid node"),
        (None, {"ells": [1.0, 1.32]}, "ConfigError", "do not nest"),
        (None, {"translation_y": 0.3}, "ConfigError", "y = 0.3 is not a grid node"),
        (None, {"nx": 17, "local_bound_R": 0.5}, "ConfigError", "R = 0.5 is not above 4 h = 0.5"),
        ({"kind": "mean-curvature"}, {}, "ValidationError", "p-laplace operators only"),
    ], ids=["nx16", "decreasing-ells", "ells-1-1.3", "ells-1-1.32", "translation-0.3",
            "local-bound-R-4h", "mean-curvature"])
    def test_cylinder_rejected_before_solving(self, tmp_path, operator, params, error,
                                              match):
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="cylinder", operator=operator,
                                                  params=params))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        assert rep.files == []     # no field was solved for
        (check,) = rep.checks
        assert (check.name, check.measured) == ("experiment-completed", error)
        assert match in check.detail

    def test_dead_core_ell_below_L_rejected_before_profile(self, tmp_path, monkeypatch):
        def no_profile(*args, **kwargs):
            raise AssertionError("dead_core_profile called")

        monkeypatch.setattr(harness.ode1d, "dead_core_profile", no_profile)
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="dead-core", force={"kind": "piecewise-power", "a": 0.5, "b": 3},
            params={"ell": 0.1}))      # L = 4.73
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        assert rep.files == []
        (check,) = rep.checks
        assert (check.name, check.measured) == ("experiment-completed", "ConfigError")
        assert "ell > L" in check.detail

    @pytest.mark.parametrize("r_outer", [1.0, 2.0], ids=["reversed", "equal"])
    def test_annulus_radii_out_of_order_rejected_before_shooting(self, tmp_path,
                                                                 monkeypatch, r_outer):
        def no_shot(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr(harness.radial, "solve_ivp", no_shot)
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="radial", params={"n": 2, "r_inner": 2.0, "r_outer": r_outer}))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        assert rep.files == []
        (check,) = rep.checks
        assert (check.name, check.measured) == ("experiment-completed", "ConfigError")
        assert "r_outer > r_inner" in check.detail

    def test_ko_check_beta_outside_unit_interval_rejected(self, tmp_path):
        doc = cfg_dict(params={"with_a5": True, "betas": [0.5, 1.5]})
        with pytest.raises(ConfigError, match="betas"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_cylinder_ball_leaving_domain_rejected_before_solving(self, tmp_path,
                                                                  monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("escalate_m called")

        monkeypatch.setattr(harness.pde2d, "escalate_m", no_solve)
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", params={"local_bound_R": 1.5, "ells": [1.0, 2.0], "nx": 17}))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        assert rep.files == []
        (check,) = rep.checks
        assert (check.name, check.measured) == ("experiment-completed", "ConfigError")
        assert "leaves the domain" in check.detail

    @pytest.mark.parametrize("settings", [
        {"M_START": 100.0},                     # past the layer cap: one level
        {"M_START": 0.01, "TOL_RES": 1e-3},     # flat first level: no gradient energy
    ], ids=["single-level", "flat-first-level"])
    def test_cylinder_degenerate_escalation_completes(self, tmp_path, settings):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", params={"ells": [1.0, 2.0], "nx": 17}))
        with patch.multiple(pde2d, **settings):
            rep = run(cfg, tmp_path)
        assert "experiment-completed" not in [c.name for c in rep.checks]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cylinder_overflowing_eps_reports_solver_error(self, tmp_path, monkeypatch):
        # eps^2 = inf makes gamma = inf for p = 3 and the flat start's flux NaN
        monkeypatch.setattr(pde2d, "EPS", 1e300)
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force={"kind": "power", "q": 6},
            operator={"kind": "p-laplace", "p": 3},
            params={"ells": [1.0, 2.0], "nx": 17}))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        failed = [c for c in rep.checks if c.name == "experiment-completed"]
        assert [c.measured for c in failed] == ["SolverError"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cylinder_failed_layer_shot_reports_solver_error(self, tmp_path, monkeypatch):
        # F(1000) = e^1000 overflows: the p = 3 boundary-layer start cannot be shot
        monkeypatch.setattr(pde2d, "M_START", 1000.0)
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force={"kind": "exp-minus-one"},
            operator={"kind": "p-laplace", "p": 3},
            params={"ells": [1.0, 2.0], "nx": 17}))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        (check,) = [c for c in rep.checks if c.name == "experiment-completed"]
        assert check.measured == "SolverError"
        assert "boundary-layer shot failed" in check.detail

    def test_cylinder_failed_grading_keeps_the_written_files(self, tmp_path, monkeypatch):
        # each ell's artifacts are written as soon as it is solved, so a
        # failure in the grading after the solves still lists all of them
        def stalled(field_):
            raise SolverError("stalled on purpose")

        monkeypatch.setattr(harness.pde2d, "discrete_cross_section", stalled)
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", params={"ells": [1.0, 2.0], "nx": 17}))
        rep = run(cfg, tmp_path)
        assert [f["path"] for f in rep.files] == [
            f"{stem}_ell{ell}.{ext}" for ell in (1, 2)
            for stem, ext in (("field", "csv"), ("field", "json"),
                              ("mid_slice", "csv"), ("escalation", "csv"))
        ] + ["cross_section_errors.csv"]
        assert all((tmp_path / f["path"]).exists() for f in rep.files)
        failed = [(c.name, c.measured) for c in rep.checks if not c.passed]
        assert failed == [("experiment-completed", "SolverError")]

    @pytest.mark.parametrize("params, max_levels", [
        ({"ells": [1.0], "nx": 17}, pde2d.MAX_LEVELS),
        ({"ells": [1.0], "nx": 17, "max_levels": 3}, 3),
    ], ids=["default", "override"])
    def test_cylinder_max_levels_reaches_escalate_m(self, tmp_path, monkeypatch, params,
                                                    max_levels):
        # max_levels is the one solver setting a config passes; the rest are
        # pde2d constants
        class Captured(Exception):
            pass

        def capture(grid, op, force, **kwargs):
            raise Captured(kwargs)

        monkeypatch.setattr(harness.pde2d, "escalate_m", capture)
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="cylinder", params=params))
        with pytest.raises(Captured) as info:
            run(cfg, tmp_path)
        assert info.value.args[0] == {"max_levels": max_levels}

    def test_cylinder_far_past_the_layer_cap_completes(self, tmp_path, monkeypatch):
        # M_START 482 lies far past m*: one level, solved after one restart
        monkeypatch.setattr(pde2d, "M_START", 482.0)
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force={"kind": "power", "q": 5.73},
            operator={"kind": "p-laplace", "p": 2.98},
            params={"ells": [1.0, 2.0], "nx": 17}))
        rep = run(cfg, tmp_path)
        names = [c.name for c in rep.checks]
        assert "experiment-completed" not in names
        assert {"local-bound-ell1", "local-bound-ell2", "ell-anti-monotone"} <= set(names)

    @pytest.mark.parametrize("check, ell, plant", [pytest.param(*case, id=case[0]) for case in [
        # nx = 17: node (8, 8) is the centre at ell = 1, (8, 16) at ell = 2,
        # (4, 16) and (2, 16) lie on its mid-slice at x = -0.5 and -0.75, and
        # (8, 24) on its slice y = 1
        ("m-monotone-ell2", 2, lambda res: level(res, 1, min_increment=-1e-9)),
        ("ell-anti-monotone", 2, lambda res: bump(res, (8, 16), 1.0)),
        ("cross-section-error-decreasing", 2, lambda res: bump(res, (4, 16), 1.0)),
        ("cross-section-final-rel-error", 2, lambda res: bump(res, (2, 16), 10.0)),
        ("local-bound-ell1", 1, lambda res: bump(res, (8, 8), 10.0)),
        ("translation-invariance", 2, lambda res: bump(res, (8, 24), 1.0)),
        ("grad-energy-growth-decaying-ell1", 1,
         lambda res: level(res, -1, grad_energy_K=10.0 * res.levels[-1].grad_energy_K)),
        ("ko-violation-flag", 1, lambda res: replace(res, ko_violated=True)),
    ]])
    def test_cylinder_check_fails_on_a_planted_defect(self, tmp_path, monkeypatch, check,
                                                      ell, plant):
        # one escalation returns a real result with one node or level altered;
        # the check that grades it passes on the unaltered family and fails here
        doc = cfg_dict(kind="cylinder", params={"ells": [1, 2], "nx": 17,
                                                "cross_section_tol": 0.3})
        clean = {c.name: c.passed for c in run(ExperimentConfig.from_dict(doc),
                                               tmp_path / "clean").checks}
        assert clean[check]
        escalate = pde2d.escalate_m

        def planted(grid, *args, **kwargs):
            res = escalate(grid, *args, **kwargs)
            return plant(res) if grid.ell == ell else res

        monkeypatch.setattr(harness.pde2d, "escalate_m", planted)
        rep = run(ExperimentConfig.from_dict(doc), tmp_path / "planted")
        assert {c.name: c.passed for c in rep.checks}[check] is False

    @pytest.mark.parametrize("force, operator, match", [
        (None, {"kind": "table", "points": [[0, 0], [1, 2], [2, 1]]}, "A' > 0"),
        ({"kind": "power"}, None, "lacks parameter 'q'"),
        ({"kind": "table", "points": [[0, 0], [1e-7, 0], [1, 1], [2, 3]]}, None,
         "first segment"),
    ], ids=["falling-table-operator", "power-without-q", "table-force-zero-on-first-segment"])
    def test_construction_error_is_config_error(self, tmp_path, force, operator, match):
        cfg = ExperimentConfig.from_dict(cfg_dict(force=force, operator=operator))
        with pytest.raises(ConfigError, match=match):
            run(cfg, tmp_path)

    @pytest.mark.parametrize("kind, params", [
        ("ell-map", {"v0_grid": [1.0, 0.0]}),
        ("ell-map", {"v0_grid": []}),
        ("asymptotics", {"distances": []}),
        ("cylinder", {"ells": []}),
        ("cylinder", {"ells": [0, 1]}),
        ("asymptotics", {"distances": [0]}),
    ], ids=["v0-grid-zero", "v0-grid-empty", "distances-empty", "ells-empty",
            "ells-zero", "distances-zero"])
    def test_empty_or_nonpositive_grid_is_config_error(self, tmp_path, kind, params):
        doc = cfg_dict(kind=kind, params=params)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_build_time_is_timed(self, tmp_path, monkeypatch):
        make_force = harness.make_force

        def slow_make_force(spec):
            time.sleep(0.05)
            return make_force(spec)

        monkeypatch.setattr(harness, "make_force", slow_make_force)
        rep = run(ExperimentConfig.from_dict(cfg_dict()), tmp_path)
        assert rep.timings["build_s"] >= 0.05

    def test_unconverged_profile_inversion_is_a_failed_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ode1d, "_NEWTON_MAX_STEPS", 1)
        rep = run(ExperimentConfig.from_dict(cfg_dict(kind="solve-1d", params={"ell": 1.0})),
                  tmp_path)
        assert rep.status == "fail"
        (check,) = [c for c in rep.checks if c.name == "experiment-completed"]
        assert check.measured == "SolverError"
        assert "unconverged" in check.detail

    def test_manifest_files_exist(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="solve-1d", params={"ell": 1.0}))
        rep = run(cfg, tmp_path)
        for entry in rep.files:
            assert (tmp_path / entry["path"]).exists()
            assert len(entry["sha256"]) == 64


@settings(max_examples=10, deadline=None)
@given(ell=st.integers(1, 2), extra=st.integers(1, 2), m_start=st.floats(1e-3, 1e3),
       tol_res=st.floats(1e-14, 1e-2), eps=st.floats(1e-12, 1.0),
       layer_factor=st.floats(1e-2, 10.0))
def test_small_cylinder_gives_report_or_config_error(ell, extra, m_start, tol_res, eps,
                                                     layer_factor):
    # a schema-valid config ends in a report or a ConfigError, never a traceback,
    # under any positive solver settings
    params = {"ells": [float(ell), float(ell + extra)], "nx": 17}
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="cylinder", params=params))
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out, patch.multiple(
            pde2d, M_START=m_start, TOL_RES=tol_res, EPS=eps, LAYER_FACTOR=layer_factor):
        assert run(cfg, out).status in ("pass", "fail")


_GRID_VALUES = st.floats(-1.0, 30.0, allow_nan=False)


_FORCES = st.one_of(
    st.floats(1.5, 6.0).map(lambda q: {"kind": "power", "q": q}),
    st.just({"kind": "exp-minus-one"}),
    st.tuples(st.floats(0.3, 2.0), st.floats(1.5, 6.0)).map(
        lambda ab: {"kind": "piecewise-power", "a": ab[0], "b": ab[1]}),
    st.just({"kind": "table", "points": [[0, 0], [0.5, 0.3], [1, 1], [2, 5], [4, 30]]}))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflowing shots end as reports
@settings(max_examples=10, deadline=None)
@given(force=_FORCES, p=st.floats(1.5, 4.0), m_start=st.floats(1e-3, 1e3))
@example(force={"kind": "table", "points": [[0, 0], [1, 450], [2, 3600], [4, 28800]]},
         p=3.0, m_start=2.0)      # a dead core on the cross-section (-1, 1): L = 0.95
def test_random_cylinder_gives_report_or_config_error(force, p, m_start):
    # a schema-valid config ends in a report or a ConfigError, never a traceback
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force=force, operator={"kind": "p-laplace", "p": p},
            params={"ells": [1.0, 2.0], "nx": 17}))
        with tempfile.TemporaryDirectory() as out, patch.multiple(pde2d, M_START=m_start):
            assert run(cfg, out).status in ("pass", "fail")
    except ConfigError:
        pass


_RADIAL_MODES = st.one_of(
    st.floats(0.05, 20.0).map(lambda v0: {"v0": v0}),
    st.floats(0.2, 5.0).map(lambda R: {"R_target": R}),
    st.tuples(st.floats(0.2, 3.0), st.floats(1.1, 4.0)).map(
        lambda rr: {"r_inner": rr[0], "r_outer": rr[0] * rr[1]}))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflowing shots end as reports
@settings(max_examples=10, deadline=None)
@given(force=_FORCES, p=st.floats(1.5, 4.0), n=st.integers(1, 3), mode=_RADIAL_MODES)
def test_random_radial_gives_report_or_config_error(force, p, n, mode):
    # a schema-valid config ends in a report or a ConfigError, never a traceback
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="radial", force=force, operator={"kind": "p-laplace", "p": p},
            params={"n": n, **mode}))
        with tempfile.TemporaryDirectory() as out:
            assert run(cfg, out).status in ("pass", "fail")
    except ConfigError:
        pass


_OPERATORS = st.one_of(
    st.floats(1.2, 5.0).map(lambda p: {"kind": "p-laplace", "p": p}),
    st.just({"kind": "mean-curvature"}),
    st.just({"kind": "table", "points": [[0, 0], [0.5, 0.4], [1, 1], [2, 3], [4, 8]]}))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflowing quadratures end as reports
@settings(max_examples=10, deadline=None)
@given(force=_FORCES, operator=_OPERATORS, with_a5=st.booleans(),
       betas=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=3) | st.none())
def test_random_ko_check_gives_report_or_config_error(force, operator, with_a5, betas):
    # a schema-valid config ends in a report or a ConfigError, never a traceback
    params = {"with_a5": with_a5}
    if betas is not None:
        params["betas"] = betas
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(force=force, operator=operator,
                                                  params=params))
        with tempfile.TemporaryDirectory() as out:
            assert run(cfg, out).status in ("pass", "fail")
    except ConfigError:
        pass


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["ell-map", "asymptotics"]),
       grid=st.lists(_GRID_VALUES, max_size=4))
def test_random_grid_gives_report_or_config_error(kind, grid):
    # a schema-valid config ends in a report or a ConfigError, never a traceback
    key = "v0_grid" if kind == "ell-map" else "distances"
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(kind=kind, params={key: grid}))
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        assert run(cfg, out).status in ("pass", "fail")


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["solve-1d", "dead-core"]),
       length=st.floats(1e-3, 20.0) | st.none(),
       n_body=st.integers(2, 400), n_edge=st.integers(2, 400),
       probe_offset=st.floats(-5.0, 5.0, allow_nan=False) | st.just(harness.PROBE_OFFSET))
def test_random_profile_gives_report_or_config_error(kind, length, n_body, n_edge,
                                                     probe_offset):
    # a schema-valid config ends in a report or a ConfigError, never a traceback,
    # under any sampling and probe offset
    params = {}
    force = {"kind": "power", "q": 3}
    if kind == "dead-core":
        force = {"kind": "piecewise-power", "a": 0.5, "b": 3}
        if length is not None:
            params["ell_offset" if length < 2.0 else "ell"] = length
    elif length is not None:
        params["ell"] = length
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(kind=kind, force=force, params=params))
        with tempfile.TemporaryDirectory() as out, \
                patch.multiple(ode1d, N_BODY=n_body, N_EDGE=n_edge), \
                patch.object(harness, "PROBE_OFFSET", probe_offset):
            assert run(cfg, out).status in ("pass", "fail")
    except ConfigError:
        pass


class TestCompareAndDeterminism:
    def test_identical_runs_empty_diff(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="solve-1d", params={"ell": 1.0}))
        a = run(cfg, tmp_path / "a")
        b = run(cfg, tmp_path / "b")
        diff = compare_runs(a, b)
        assert diff.identical
        assert diff.check_diffs == [] and diff.file_diffs == []

    def test_byte_identical_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="dead-core",
                                                  force={"kind": "piecewise-power",
                                                         "a": 0.5, "b": 3},
                                                  params={"ell_offset": 0.5}))
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in ("profile.csv", "profile.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_different_problems_flagged(self, tmp_path):
        a = run(ExperimentConfig.from_dict(cfg_dict()), tmp_path / "a")
        b = run(ExperimentConfig.from_dict(cfg_dict(
            operator={"kind": "p-laplace", "p": 3})), tmp_path / "b")
        diff = compare_runs(a, b)
        assert not diff.identical

    def test_kind_mismatch_raises(self, tmp_path):
        a = run(ExperimentConfig.from_dict(cfg_dict()), tmp_path / "a")
        b = run(ExperimentConfig.from_dict(cfg_dict(kind="solve-1d",
                                                    params={"ell": 1.0})),
                tmp_path / "b")
        with pytest.raises(ConfigError):
            compare_runs(a, b)

    def test_compare_from_files(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict())
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        diff = compare_runs(tmp_path / "a" / "report.json",
                            tmp_path / "b" / "report.json")
        assert diff.identical

    def test_compare_run_directories(self, tmp_path):
        cfg = ExperimentConfig.from_dict(cfg_dict())
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        assert compare_runs(tmp_path / "a", tmp_path / "b").identical

    @staticmethod
    def _report(*checks) -> dict:
        return {"kind": "ko-check", "files": [],
                "checks": [{"name": n, "passed": True, "measured": m} for n, m in checks]}

    def test_changed_number_has_a_delta(self):
        diff = compare_runs(self._report(("L", 1.5), ("same", 2)),
                            self._report(("L", 1.25), ("same", 2)))
        assert diff.check_diffs == [{"name": "L", "a": 1.5, "b": 1.25, "delta": 0.25}]
        assert not diff.identical

    def test_check_on_one_side_only(self):
        diff = compare_runs(self._report(("L", 1.5), ("only-a", {"x": 1})),
                            self._report(("L", 1.5), ("only-b", 3.0)))
        assert diff.check_diffs == [
            {"name": "only-a", "a": {"x": 1}, "b": None, "delta": None},
            {"name": "only-b", "a": None, "b": 3.0, "delta": None}]

    def test_changed_structure_has_no_delta(self):
        diff = compare_runs(self._report(("classified", {"ko_holds": True})),
                            self._report(("classified", {"ko_holds": False})))
        assert diff.check_diffs == [{"name": "classified", "a": {"ko_holds": True},
                                     "b": {"ko_holds": False}, "delta": None}]

    @pytest.mark.parametrize("broken", ["missing", "not-json", "empty-dir"])
    def test_compare_unreadable_report_is_config_error(self, tmp_path, broken):
        a = run(ExperimentConfig.from_dict(cfg_dict()), tmp_path / "a")
        path = tmp_path / "b"
        if broken == "missing":
            path = tmp_path / "nope.json"
        elif broken == "not-json":
            path = tmp_path / "bad.json"
            path.write_text("{not json")
        else:
            path.mkdir()
        with pytest.raises(ConfigError, match="cannot read report"):
            compare_runs(a, path)


class TestCli:
    def write_cfg(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, cfg_dict())
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert "status: pass" in capsys.readouterr().out

    def test_run_fail_exit_one(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, cfg_dict(
            params={"expect": {"ko_holds": False}}))
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 1

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, {"kind": "ko-check"})
        assert cli.main(["run", path]) == 2

    @pytest.mark.parametrize("via", ["output_dir", "--out"])
    def test_uncreatable_output_dir_exit_two(self, tmp_path, capsys, via):
        # a regular file where the output directory's parent should be
        parent = tmp_path / "a-file"
        parent.write_text("")
        doc, out = cfg_dict(), []
        if via == "output_dir":
            doc["output_dir"] = str(parent / "run")
        else:
            out = ["--out", str(parent / "run")]
        assert cli.main(["run", self.write_cfg(tmp_path, doc), *out]) == 2
        assert "cannot create the output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("points, R_bound, rel_error", [
        ([[0, 0], [1, 1000], [2, 8000], [4, 64000]], 0.8, 0.1137599),
        ([[0, 0], [1, 450], [2, 3600], [4, 28800]], 1.0, 0.1137613),
        ([[0, 0], [1, 750000], [2, 6000000], [4, 48000000]], 0.8, math.inf),
    ], ids=["L0.73", "L0.95-R1", "L0.08-core-covers-window"])
    def test_dead_core_cross_section_ends_in_a_full_report(self, tmp_path, capsys, points,
                                                            R_bound, rel_error):
        # 1 > L: the cross-section (-1, 1) holds a dead core, and every
        # cylinder check is graded against it
        doc = cfg_dict(kind="cylinder", force={"kind": "table", "points": points},
                       operator={"kind": "p-laplace", "p": 3},
                       params={"ells": [1, 2], "nx": 17, "translation_y": 0.5,
                               "local_bound_R": R_bound})
        out = tmp_path / "out"
        assert cli.main(["run", self.write_cfg(tmp_path, doc), "--out", str(out)]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        names = {"ko-violation-flag", "ell-anti-monotone", "cross-section-error-decreasing",
                 "cross-section-final-rel-error", "translation-invariance"}
        for ell in (1, 2):
            names.add(f"local-bound-ell{ell}")
            energies = np.loadtxt(out / f"escalation_ell{ell}.csv", delimiter=",",
                                  skiprows=1, usecols=4, ndmin=1)
            if len(energies) > 1:
                names.add(f"m-monotone-ell{ell}")
            if np.count_nonzero(energies[:-1] > 0.0) >= 2:     # two relative increments
                names.add(f"grad-energy-growth-decaying-ell{ell}")
        assert set(checks) == names
        measured = checks["cross-section-final-rel-error"]["measured"]
        assert measured == pytest.approx(rel_error, rel=1e-6)
        # graded against the large solution on (-1, 1), dead core included
        x, u = np.loadtxt(out / "mid_slice_ell2.csv", delimiter=",", skiprows=1).T
        window = np.abs(x) <= pde2d.X_WINDOW + 1e-12
        v = large_solution(make_operator(doc["operator"]), make_force(doc["force"]),
                           1.0).value(x[window])
        errors = np.loadtxt(out / "cross_section_errors.csv", delimiter=",", skiprows=1)
        assert v.min() == 0.0
        assert errors[-1, 1] == float(np.max(np.abs(u[window] - v)))
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_force_ends_in_a_report(self, tmp_path, capsys):
        # p = 40, f = t^45 past 1: F overflows and Psi reads 0 on the way to
        # the layer cap, which Phi reports as unbracketed instead of taking its log
        doc = cfg_dict(kind="cylinder", force={"kind": "piecewise-power", "a": 3, "b": 45},
                       operator={"kind": "p-laplace", "p": 40},
                       params={"ells": [1], "nx": 17})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = cli.main(["run", self.write_cfg(tmp_path, doc), "--out", str(out)])
        assert code == 2 or (out / "report.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    def test_schema_output_is_valid_json(self, capsys):
        assert cli.main(["schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["properties"]["kind"]["enum"] == list(harness.KINDS)

    def test_compare_cli(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, cfg_dict())
        cli.main(["run", path, "--out", str(tmp_path / "a")])
        cli.main(["run", path, "--out", str(tmp_path / "b")])
        code = cli.main(["compare", str(tmp_path / "a" / "report.json"),
                         str(tmp_path / "b" / "report.json")])
        assert code == 0

    def test_compare_cli_run_directories(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, cfg_dict())
        cli.main(["run", path, "--out", str(tmp_path / "a")])
        cli.main(["run", path, "--out", str(tmp_path / "b")])
        assert cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "nope")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_verbose_run(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, cfg_dict())
        assert cli.main(["run", path, "--out", str(tmp_path / "out"),
                         "--verbose"]) == 0
        doc_out = capsys.readouterr().out
        assert '"status": "pass"' in doc_out
