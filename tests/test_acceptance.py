"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The cylinder experiments run once per operator through the harness (session
fixtures) and later criteria read the same reports; determinism re-runs every
config fresh.
"""
import json
import math
import time

import numpy as np
import pytest

import blowup_lab as bl
from blowup_lab import harness

from conftest import psi_power_closed_form


def announce(num, name, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {state}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# shared experiment runs
# ---------------------------------------------------------------------------

CYLINDER_PARAMS = {"ells": [1.0, 2.0, 4.0], "nx": 65, "translation_y": 1.0,
                   "local_bound_R": 0.8}


def acceptance_configs():
    return {
        "solve-1d": {
            "kind": "solve-1d",
            "force": {"kind": "power", "q": 3},
            "operator": {"kind": "p-laplace", "p": 2},
            "params": {"ell": 1.0},
        },
        "dead-core": {
            "kind": "dead-core",
            "force": {"kind": "piecewise-power", "a": 0.5, "b": 3},
            "operator": {"kind": "p-laplace", "p": 2},
            "params": {"ell_offset": 0.5},
        },
        "radial": {
            "kind": "radial",
            "force": {"kind": "power", "q": 3},
            "operator": {"kind": "p-laplace", "p": 2},
            "params": {"n": 2, "v0": 1.0},
        },
        "asymptotics": {
            "kind": "asymptotics",
            "force": {"kind": "power", "q": 3},
            "operator": {"kind": "p-laplace", "p": 2},
            "params": {"v0": 1.0, "distances": [1e-2, 1e-3], "R_target": 1.0,
                       "n": 2},
        },
        "cylinder-p2": {
            "kind": "cylinder",
            "force": {"kind": "power", "q": 3},
            "operator": {"kind": "p-laplace", "p": 2},
            "params": dict(CYLINDER_PARAMS),
        },
        "cylinder-p3": {
            "kind": "cylinder",
            "force": {"kind": "power", "q": 6},
            "operator": {"kind": "p-laplace", "p": 3},
            "params": dict(CYLINDER_PARAMS),
        },
        "cylinder-ko-contrast": {
            "kind": "cylinder",
            "force": {"kind": "power", "q": 1},
            "operator": {"kind": "p-laplace", "p": 2},
            "params": {"ells": [1.0], "nx": 65, "max_levels": 7,
                       "expect_ko_violation": True},
        },
    }


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def runs(out_root):
    reports = {}
    for name, doc in acceptance_configs().items():
        cfg = bl.ExperimentConfig.from_dict(doc)
        reports[name] = bl.run(cfg, out_root / name)
    return reports


def checks_by_name(report):
    return {c.name: c for c in report.checks}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_ko_frontier():
    t0 = time.perf_counter()
    wrong = []
    for p in (1.5, 2.0, 3.0, 4.0):
        op = bl.make_operator(kind="p-laplace", p=p)
        for mult in (0.5, 1.0, 1.5, 3.0):
            q = mult * (p - 1.0)
            rep = bl.classify(op, bl.make_force(kind="power", q=q))
            if rep.ko_holds is not (q > p - 1.0):
                wrong.append((p, q, rep.ko_holds))
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed < 10.0
    announce(1, "ko-frontier", ok, f"misclassified={wrong}, {elapsed:.1f}s < 10s")
    assert not wrong
    assert elapsed < 10.0


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    worst_prof, worst_ell = 0.0, 0.0
    for p in (1.5, 2.0, 3.0):
        op = bl.make_operator(kind="p-laplace", p=p)
        for mult in (1.5, 3.0):
            q = mult * (p - 1.0)
            force = bl.make_force(kind="power", q=q)
            for v0 in (0.5, 2.0):
                ell = bl.ell_of_v0(op, force, v0)
                shot = bl.shoot_ball(op, force, 1, v0)
                worst_ell = max(worst_ell, abs(shot.R - ell) / ell)
                for x in np.linspace(0.05, 0.9, 12) * ell:
                    a = bl.eval_profile(op, force, v0, float(x))
                    b = shot.value(float(x))
                    worst_prof = max(worst_prof, abs(a - b) / abs(a))
    elapsed = time.perf_counter() - t0
    ok = worst_prof <= 1e-5 and worst_ell <= 1e-6 and elapsed < 30.0
    announce(2, "1d-oracle-equivalence", ok,
             f"profile {worst_prof:.2e} <= 1e-5, ell {worst_ell:.2e} <= 1e-6, "
             f"{elapsed:.1f}s < 30s")
    assert worst_prof <= 1e-5
    assert worst_ell <= 1e-6
    assert elapsed < 30.0


def test_criterion_03_exact_solution_anchor():
    op = bl.make_operator(kind="p-laplace", p=2)
    force = bl.make_force(kind="power", q=3)
    ell = bl.ell_of_v0(op, force, 1.0)
    d = 1e-3
    ratio = bl.eval_profile(op, force, 1.0, ell - d) * d / math.sqrt(2.0)
    ok = 0.98 <= ratio <= 1.02
    announce(3, "exact-solution-anchor", ok, f"ratio {ratio:.5f} in [0.98, 1.02]")
    assert ok


def test_criterion_04_monotone_maps():
    op = bl.make_operator(kind="p-laplace", p=2)
    force = bl.make_force(kind="power", q=3)
    v0s = np.logspace(-1.5, 1.5, 10)
    ells = [bl.ell_of_v0(op, force, float(v)) for v in v0s]
    strictly_dec = all(b < a for a, b in zip(ells, ells[1:]))
    worst_rt = max(abs(bl.v0_of_ell(op, force, e) - v) / v
                   for v, e in zip(v0s, ells))
    rows = bl.decay_sweep(op, force, [1.0, 2.0, 4.0, 8.0], 0.0)
    vals = [r.value for r in rows]
    halving = all(b < a for a, b in zip(vals, vals[1:]))
    ok = strictly_dec and worst_rt <= 1e-6 and halving
    announce(4, "monotone-maps", ok,
             f"ell decreasing={strictly_dec}, round-trip {worst_rt:.2e} <= 1e-6, "
             f"decay {['%.4f' % v for v in vals]}")
    assert strictly_dec
    assert worst_rt <= 1e-6
    assert halving


def test_criterion_05_dead_core():
    op = bl.make_operator(kind="p-laplace", p=2)
    force = bl.make_force(kind="piecewise-power", a=0.5, b=3)
    L = bl.length_scale(op, force)
    L_ref = bl.length_scale(op, force, max_blocks=56)
    cap_stable = abs(L - L_ref) / L <= 1e-6
    ell = L + 0.5
    prof = bl.dead_core_profile(op, force, ell)
    core = prof.dead_core[1]
    inside = [prof.value(x) for x in np.linspace(-(core - 1e-3), core - 1e-3, 21)]
    zero_inside = all(v == 0.0 for v in inside)

    # seeded adaptive-RK oracle from the core edge
    from scipy.integrate import solve_ivp
    h = 1e-3 * L
    w_seed = prof.value(core + h)
    z_seed = float(op.flux(op.energy_inverse(float(force.primitive(w_seed)))))

    def rhs(x, y):
        return [float(op.flux_inverse(y[1])),
                float(force.value(max(y[0], 0.0)))]

    sol = solve_ivp(rhs, (core + h, core + 0.95 * L), (w_seed, z_seed),
                    method="DOP853", rtol=1e-11, atol=1e-14, dense_output=True)
    worst = 0.0
    for x in np.linspace(core + 0.05 * L, core + 0.9 * L, 9):
        a = prof.value(float(x))
        b = float(sol.sol(float(x))[0])
        worst = max(worst, abs(a - b) / abs(a))
    ok = cap_stable and zero_inside and worst <= 1e-5
    announce(5, "dead-core", ok,
             f"L={L:.8f} cap-stable={cap_stable}, zero-core={zero_inside}, "
             f"rk-agreement {worst:.2e} <= 1e-5")
    assert cap_stable
    assert zero_inside
    assert worst <= 1e-5


def test_criterion_06_radial():
    t0 = time.perf_counter()
    op = bl.make_operator(kind="p-laplace", p=2)
    force = bl.make_force(kind="power", q=3)
    # reduction
    worst_red = 0.0
    for v0 in (0.5, 2.0):
        shot = bl.shoot_ball(op, force, 1, v0)
        ell = bl.ell_of_v0(op, force, v0)
        worst_red = max(worst_red, abs(shot.R - ell) / ell)
        for x in (0.3 * ell, 0.8 * ell):
            a = bl.eval_profile(op, force, v0, x)
            worst_red = max(worst_red, abs(shot.value(x) - a) / a)
    # n = 2 ball asymptotics
    ball = bl.ball_large_solution(op, force, 2, 1.0)
    d = 1e-3
    ball_ratio = ball.value(ball.R - d) / bl.phi(op, force, d)
    # annulus one-sided inequality
    barrier = bl.annulus_barrier(op, force, 2, 1.0, 2.0)
    t = 1.0 + 1e-3
    ann_ratio = bl.psi(op, force, barrier.value(t)) / (t - 1.0)
    elapsed = time.perf_counter() - t0
    ok = (worst_red <= 1e-5 and 0.97 <= ball_ratio <= 1.03
          and ann_ratio <= 1.05 and elapsed < 60.0)
    announce(6, "radial-reduction-asymptotics", ok,
             f"reduction {worst_red:.2e} <= 1e-5, ball ratio {ball_ratio:.4f} in "
             f"[0.97,1.03], annulus {ann_ratio:.4f} <= 1.05, {elapsed:.1f}s < 60s")
    assert worst_red <= 1e-5
    assert 0.97 <= ball_ratio <= 1.03
    assert ann_ratio <= 1.05
    assert elapsed < 60.0


@pytest.mark.parametrize("tag", ["cylinder-p2", "cylinder-p3"])
def test_criterion_07_monotone_limits(runs, tag):
    rep = runs[tag]
    by = checks_by_name(rep)
    mono_m = all(by[f"m-monotone-ell{format(e, 'g')}"].passed for e in (1, 2, 4))
    anti = by["ell-anti-monotone"].passed
    errs = by["cross-section-error-decreasing"].measured
    decreasing = by["cross-section-error-decreasing"].passed
    final_ok = by["cross-section-final-rel-error"].passed
    final = by["cross-section-final-rel-error"].measured
    ok = mono_m and anti and decreasing and final_ok
    announce(7, f"pde-monotone-limits[{tag}]", ok,
             f"m-monotone={mono_m}, ell-anti-monotone={anti}, "
             f"errors={['%.3e' % e for e in errs]}, final rel {final:.4f} <= 0.05")
    assert mono_m and anti and decreasing and final_ok


@pytest.mark.parametrize("p,q", [(2.0, 3.0), (3.0, 6.0)])
def test_criterion_07_grid_doubling(runs, p, q):
    # same stopping rule, one refinement of the ell = 4 grid; the sup error
    # on [-0.9, 0.9] must shrink
    tag = "cylinder-p2" if p == 2.0 else "cylinder-p3"
    rep = runs[tag]
    coarse = checks_by_name(rep)["cross-section-final-rel-error"].measured
    op = bl.make_operator(kind="p-laplace", p=p)
    force = bl.make_force(kind="power", q=q)
    res = bl.escalate_m(bl.grid_for_ell(4.0, 129), op, force)
    prof = bl.large_profile(op, force, bl.v0_of_ell(op, force, 1.0))
    fine = bl.cross_section_compare(res.field, prof).rel_error_mid
    ok = fine < coarse
    announce(7, f"pde-grid-doubling[p={p:g}]", ok,
             f"rel error {coarse:.4f} -> {fine:.4f}")
    assert fine < coarse, (
        "the ell = 4 mid-slice error against the 1D large solution does not "
        "shrink when the grid is refined from nx = 65 to nx = 129 under the "
        "same stopping rule")


def test_criterion_08_local_bound(runs):
    ok = True
    detail = []
    for tag in ("cylinder-p2", "cylinder-p3"):
        by = checks_by_name(runs[tag])
        for e in (1, 2, 4):
            c = by[f"local-bound-ell{format(e, 'g')}"]
            ok = ok and c.passed
            detail.append(f"{tag}/ell{e}: max {c.measured['max_u']:.3f} <= "
                          f"{c.measured['bound']:.3f}+{c.measured['slack']:.3f}")
    announce(8, "interior-bound", ok, "; ".join(detail[:2]) + " ...")
    assert ok


def test_criterion_09_translation_invariance(runs):
    ok = True
    detail = []
    for tag in ("cylinder-p2", "cylinder-p3"):
        c = checks_by_name(runs[tag])["translation-invariance"]
        ok = ok and c.passed
        detail.append(f"{tag}: slice diff {c.measured['slice_diff']:.2e} < "
                      f"decrement {c.measured['ell_decrement']:.2e}")
    announce(9, "translation-invariance", ok, "; ".join(detail))
    assert ok


def test_criterion_10_ko_failure_contrast(runs):
    rep = runs["cylinder-ko-contrast"]
    flag = checks_by_name(rep)["ko-violation-flag"]
    ok = rep.status == "pass" and flag.measured is True
    announce(10, "ko-failure-contrast", ok,
             "no plateau across 6 doublings, flagged 'KO violated numerically'")
    assert ok


def test_criterion_11_determinism(runs, out_root):
    diffs = {}
    for name, doc in acceptance_configs().items():
        cfg = bl.ExperimentConfig.from_dict(doc)
        second = bl.run(cfg, out_root / f"{name}-again")
        diff = bl.compare_runs(runs[name], second)
        diffs[name] = (diff.identical, len(diff.file_diffs))
        for entry in runs[name].files:
            a = (out_root / name / entry["path"]).read_bytes()
            b = (out_root / f"{name}-again" / entry["path"]).read_bytes()
            assert a == b, f"{name}/{entry['path']} differs between runs"
    ok = all(identical for identical, _ in diffs.values())
    announce(11, "determinism", ok,
             f"{len(diffs)} configs byte-identical" if ok else str(diffs))
    assert ok
