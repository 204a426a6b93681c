import csv
import json
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from blowup_lab import (ConfigError, ExperimentConfig, compare_runs, make_force,
                        make_operator, run, v0_of_ell)
from blowup_lab import cli, harness, ode1d, radial


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

    @pytest.mark.parametrize("params", [{"ell": 1.0}, {"v0": 1.0}], ids=["ell", "v0"])
    def test_ell_round_trip_sees_an_inexact_inversion(self, tmp_path, monkeypatch, params):
        monkeypatch.setattr(ode1d, "v0_of_ell",
                            lambda op, force, ell: v0_of_ell(op, force, ell) * (1.0 + 1e-3))
        rep = run(ExperimentConfig.from_dict(cfg_dict(kind="solve-1d", params=params)),
                  tmp_path)
        (check,) = [c for c in rep.checks if c.name == "ell-round-trip"]
        assert not check.passed
        assert check.measured > 1e-4

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
        assert {"L-cap-stable", "core-zero", "core-edge-continuity"} <= names

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

    def test_rate_past_dead_core_length_is_reported(self, tmp_path):
        # Phi(10) does not exist: Psi stays below L = 4.04 for a = 0.4
        rep = run(ExperimentConfig.from_dict(cfg_dict(
            kind="radial", force={"kind": "piecewise-power", "a": 0.4, "b": 3},
            params={"n": 1, "v0": 1.0, "asymptotic_distance": 10.0})), tmp_path)
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
        real = harness.ko_mod.BlowupRateFn.phi

        def no_phi_below(self, d):
            if d < 1e-3:
                raise harness.BracketError("not bracketed")
            return real(self, d)

        monkeypatch.setattr(harness.ko_mod.BlowupRateFn, "phi", no_phi_below)
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
        ({"kind": "mean-curvature"}, {}, "ValidationError", "p-laplace operators only"),
    ], ids=["nx16", "decreasing-ells", "ells-1-1.3", "ells-1-1.32", "translation-0.3",
            "mean-curvature"])
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

    @pytest.mark.parametrize("params", [
        {"m_start": 100.0},                     # past the layer cap: one level
        {"m_start": 0.01, "tol_res": 1e-3},     # flat first level: no gradient energy
    ], ids=["single-level", "flat-first-level"])
    def test_cylinder_degenerate_escalation_completes(self, tmp_path, params):
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", params={"ells": [1.0, 2.0], "nx": 17, **params}))
        rep = run(cfg, tmp_path)
        assert "experiment-completed" not in [c.name for c in rep.checks]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cylinder_overflowing_eps_reports_solver_error(self, tmp_path):
        # eps^2 = inf makes gamma = inf for p = 3 and the flat start's flux NaN
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force={"kind": "power", "q": 6},
            operator={"kind": "p-laplace", "p": 3},
            params={"ells": [1.0, 2.0], "nx": 17, "eps": 1e300}))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        failed = [c for c in rep.checks if c.name == "experiment-completed"]
        assert [c.measured for c in failed] == ["SolverError"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cylinder_failed_layer_shot_reports_solver_error(self, tmp_path):
        # F(1000) = e^1000 overflows: the p = 3 boundary-layer start cannot be shot
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force={"kind": "exp-minus-one"},
            operator={"kind": "p-laplace", "p": 3},
            params={"ells": [1.0, 2.0], "nx": 17, "m_start": 1000.0}))
        rep = run(cfg, tmp_path)
        assert rep.status == "fail"
        (check,) = [c for c in rep.checks if c.name == "experiment-completed"]
        assert check.measured == "SolverError"
        assert "boundary-layer shot failed" in check.detail

    def test_cylinder_far_past_the_layer_cap_completes(self, tmp_path):
        # m_start 482 lies far past m*: one level, solved after one restart
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force={"kind": "power", "q": 5.73},
            operator={"kind": "p-laplace", "p": 2.98},
            params={"ells": [1.0, 2.0], "nx": 17, "m_start": 482.0}))
        rep = run(cfg, tmp_path)
        names = [c.name for c in rep.checks]
        assert "experiment-completed" not in names
        assert {"symmetry-ell1", "symmetry-ell2", "ell-anti-monotone"} <= set(names)

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
    ], ids=["v0-grid-zero", "v0-grid-empty", "distances-empty", "ells-empty"])
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
    # a schema-valid config ends in a report or a ConfigError, never a traceback
    params = {"ells": [float(ell), float(ell + extra)], "nx": 17, "m_start": m_start,
              "tol_res": tol_res, "eps": eps, "layer_factor": layer_factor}
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(kind="cylinder", params=params))
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
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
def test_random_cylinder_gives_report_or_config_error(force, p, m_start):
    # a schema-valid config ends in a report or a ConfigError, never a traceback
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(
            kind="cylinder", force=force, operator={"kind": "p-laplace", "p": p},
            params={"ells": [1.0, 2.0], "nx": 17, "m_start": m_start}))
        with tempfile.TemporaryDirectory() as out:
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
       probe_offset=st.floats(-5.0, 5.0, allow_nan=False) | st.none())
def test_random_profile_gives_report_or_config_error(kind, length, n_body, n_edge,
                                                     probe_offset):
    # a schema-valid config ends in a report or a ConfigError, never a traceback
    params = {"n_body": n_body, "n_edge": n_edge}
    force = {"kind": "power", "q": 3}
    if kind == "dead-core":
        force = {"kind": "piecewise-power", "a": 0.5, "b": 3}
        if probe_offset is not None:
            params["probe_offset"] = probe_offset
        if length is not None:
            params["ell_offset" if length < 2.0 else "ell"] = length
    elif length is not None:
        params["ell"] = length
    try:
        cfg = ExperimentConfig.from_dict(cfg_dict(kind=kind, force=force, params=params))
        with tempfile.TemporaryDirectory() as out:
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
