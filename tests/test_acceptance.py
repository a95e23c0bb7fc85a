"""End-to-end acceptance runs.

Each test covers one numbered contract and prints a single
"criterion N: PASS/FAIL" line with the measured figures (visible with -s,
and in the failure report otherwise). Criterion 3 scores the LP plan on
the 15x15 grid atoms by the exact overlap of each atom's grid piece with
the Laguerre cells; its line also prints the ceiling of that score over all
feasible plans (optimal to within 1e-12) and the centroid reading it
replaces, whose result
hangs on tie-breaks at the atom centroids that lie on a cell edge.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from hemiot.chart import chart_density, great_circle_deviation, metric_in_chart
from hemiot.cli import run
from hemiot.domains import (ConvexPolygonDomain, DiskDomain, SourceDensity,
                            boundary_geometry, constant_density, d0_threshold,
                            make_cone_spec, total_mass)
from hemiot.experiments import (blowup_experiment, cone_inclusion_check,
                                estar_volume_check, slice_estimate_check,
                                sphere_benchmark)
from hemiot.oracle import (_overlap_agreement, agreement_ceiling,
                           monotonicity_certificate, semidiscrete_agreement)
from hemiot.solver import solve
from hemiot.targets import chart_disk, chart_polygon, discretize, region_mass

UNIT_DISK = DiskDomain(np.zeros(2), 1.0)


def test_criterion_1_sphere_benchmark():
    t0 = time.time()
    rep, _ = sphere_benchmark(0.6, 2000, tol=1e-6, max_iter=50, seed=0)
    wall = time.time() - t0
    assert rep.converged
    assert rep.residual <= 1e-6          # already relative to total mass
    assert rep.iterations <= 50
    assert rep.grad_error <= 5e-2
    assert rep.height_error <= 5e-2
    assert wall <= 60.0
    print(f"criterion 1: PASS — residual {rep.residual:.3g}, "
          f"{rep.iterations} iterations, grad sup {rep.grad_error:.3g}, "
          f"height sup {rep.height_error:.3g}, {wall:.1f} s")


def _random_instance(rng, k):
    if k % 2:
        m = 5 + k % 3
        th = 2.0 * math.pi * np.arange(m) / m + rng.uniform(0.0, 1.0)
        scale = 0.55 + 0.25 * rng.uniform()
        domain = ConvexPolygonDomain(scale * np.c_[np.cos(th), np.sin(th)])
    else:
        domain = DiskDomain(rng.uniform(-0.1, 0.1, 2),
                            0.55 + 0.25 * rng.uniform())
    if k % 3 == 0:
        K = constant_density(1.0 + 0.3 * rng.uniform())
    elif k % 3 == 1:
        a, b = rng.uniform(1.0, 3.0), rng.uniform(0.0, 2.0)
        K = SourceDensity(
            fn=lambda p, a=a, b=b: 1.0 + 0.35 * np.sin(a * p[:, 0] + b)
            * np.cos(p[:, 1]))
    else:
        K = SourceDensity(fn=lambda p: np.exp(0.4 * p[:, 0]))
    mass, regime = total_mass(domain, K, tol=1e-10)
    assert regime == "subcritical"
    # match the target region's capacity to the source mass so the
    # discretization never rescales by more than ~25%
    s_star = math.sqrt(mass / (math.pi - mass))
    if k % 4 < 2:
        region = chart_disk(rng.uniform(-0.05, 0.05, 2),
                            s_star * (0.9 + 0.2 * rng.uniform()))
    else:
        rho = s_star * math.sqrt(2.0)
        ph = 2.0 * math.pi * np.arange(4) / 4 + rng.uniform(0.0, 1.0)
        region = chart_polygon(rho * np.c_[np.cos(ph), np.sin(ph)])
    N = int(rng.integers(10, 46))
    return domain, K, discretize(region, N, mass), mass


def test_criterion_2_mass_balance():
    rng = np.random.default_rng(2)
    worst_resid = worst_area = 0.0
    for k in range(20):
        domain, K, target, mass = _random_instance(rng, k)
        sol = solve(domain, K, target, tol=1e-6)
        assert sol.report.converged, f"instance {k} did not converge"
        assert sol.report.final_residual <= 1e-6, f"instance {k}"
        area = sum(c.area for c in sol.diagram.cells)
        rel = abs(area - domain.area) / domain.area
        assert rel <= 1e-9, f"instance {k}: cell areas miss the domain area"
        worst_resid = max(worst_resid, sol.report.final_residual)
        worst_area = max(worst_area, rel)
    print(f"criterion 2: PASS — 20 instances, worst residual "
          f"{worst_resid:.3g}, worst area defect {worst_area:.3g}")


def _centroid_membership(sol, plan):
    """The point reading that the overlap table replaces, kept to show how
    much it depends on tie-breaks: the share of the plan's mass on pairs
    whose atom centroid lies in the closed Laguerre cell, and the number
    and mass share of centroids that lie on a cell edge (two or more sites
    within 1e-9 of the maximal score <x, p_i> - psi_i; on the criterion-3
    instance the on-edge gaps are <= 1.2e-16 and the next one is 2.2e-3)."""
    vals = plan.sources @ sol.sites.T - sol.psi
    closed = vals >= vals.max(axis=1, keepdims=True) - 1e-9
    on_edge = closed.sum(axis=1) > 1
    mu = plan.source_masses
    return {"closed_cell_fraction": _overlap_agreement(plan, closed),
            "on_edge_atoms": int(on_edge.sum()),
            "on_edge_mass": float(mu[on_edge].sum() / mu.sum())}


def test_criterion_3_oracle_agreement():
    # the N = 20 version of the criterion-1 benchmark: disk r = 0.6, K = 1,
    # chart disk radius 0.75 (= 0.6/sqrt(1-0.36)) carrying the same mass
    domain = DiskDomain(np.zeros(2), 0.6)
    K = constant_density(1.0)
    target = discretize(chart_disk(np.zeros(2), 0.75), 20,
                        math.pi * 0.36)
    frac, plan, sol, member = semidiscrete_agreement(domain, K, target,
                                                     grid_m=15)
    cert = monotonicity_certificate(plan)
    assert cert >= -1e-10               # the LP-output clause holds
    ceiling = agreement_ceiling(plan, member, target)
    assert frac <= ceiling + 1e-12
    ties = _centroid_membership(sol, plan)
    line = (f"agreement {frac:.4f} (threshold 0.95), monotonicity "
            f"certificate {cert:.3g}, ceiling {ceiling:.4f}; centroid "
            f"reading {ties['closed_cell_fraction']:.4f} with "
            f"{ties['on_edge_atoms']} centroids on a cell edge carrying "
            f"{ties['on_edge_mass']:.1%} of the mass")
    if frac >= 0.95:
        print(f"criterion 3: PASS — {line}")
    else:
        print(f"criterion 3: FAIL — {line}")
        print(
            "analysis: agreement counts the LP mass that goes to a site "
            "whose Laguerre cell overlaps the atom's grid piece in positive "
            f"area. No feasible plan on this grid scores above {ceiling:.4f}, "
            "and the LP optimum is certified (support slack "
            f"{plan.max_support_slack:.2g}, min reduced cost "
            f"{plan.min_reduced_cost:.2g}). A fraction below that ceiling is "
            "the LP's choice among plans of equal cost; a ceiling below 0.95 "
            "means the semi-discrete partition and the optimal discrete "
            "plan disagree on whole grid pieces, which points at the solver "
            "or the diagram, not at rounding.")
    assert frac >= 0.95


def test_criterion_4_chart_identities():
    # (a) total chart mass over the plane equals the weighted hemisphere area
    val, err = quad(lambda r: 2.0 * math.pi * r * (1.0 + r * r) ** -2,
                    0.0, np.inf)
    assert err < 1e-7                    # quadrature's own error estimate
    assert abs(val - math.pi) <= 1e-6

    # (b) pushforward of a chart rectangle: stratified Monte Carlo on the
    # sphere side against the closed-form planar mass
    Q = np.array([[0.2, -0.1], [0.7, -0.1], [0.7, 0.4], [0.2, 0.4]])
    exact = region_mass(chart_polygon(Q))
    assert exact == pytest.approx(0.16141976418718902, rel=1e-12)
    M = 1000
    rng = np.random.default_rng(0)
    i, j = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    z = -(i.ravel() + rng.uniform(0.0, 1.0, M * M)) / M       # area-uniform
    ph = 2.0 * math.pi * (j.ravel() + rng.uniform(0.0, 1.0, M * M)) / M
    r = np.sqrt(1.0 - z * z)
    p1, p2 = -r * np.cos(ph) / z, -r * np.sin(ph) / z          # chart image
    in_q = ((0.2 <= p1) & (p1 <= 0.7) & (-0.1 <= p2) & (p2 <= 0.4))
    mc = 2.0 * math.pi * np.mean(np.where(in_q, -z, 0.0))
    rel_mc = abs(mc - exact) / exact
    assert rel_mc <= 1e-3

    # (c) metric determinant identity, pointwise
    rng = np.random.default_rng(4)
    worst_det = 0.0
    for _ in range(2000):
        p = rng.normal(0.0, 2.0, size=2)
        q = 1.0 + float(p @ p)
        d = abs(np.linalg.det(metric_in_chart(p)) - q ** -3)
        assert d <= 1e-12
        y_last = -1.0 / math.sqrt(q)
        assert abs((-y_last) * math.sqrt(q ** -3)
                   - chart_density(p)) <= 1e-12
        worst_det = max(worst_det, d)

    # (d) chart segments trace great circles
    rng = np.random.default_rng(5)
    worst_gc = 0.0
    for _ in range(10000):
        p0 = rng.normal(0.0, 1.5, size=2)
        p1 = rng.normal(0.0, 1.5, size=2)
        dev = great_circle_deviation(p0, p1, float(rng.uniform()))
        assert dev <= 1e-12
        worst_gc = max(worst_gc, dev)

    print(f"criterion 4: PASS — hemisphere mass off by {abs(val - math.pi):.2g}, "
          f"pushforward rel err {rel_mc:.2g} (1e6 samples), det identity "
          f"{worst_det:.2g}, great-circle deviation {worst_gc:.2g}")


def test_criterion_5_blowup():
    rep, _ = blowup_experiment(1000, delta=0.5, N=4000, C0=1.0, seed=0)
    assert rep.converged
    assert all(d <= rep.d_max for d, *_ in rep.samples)
    assert rep.violations == []
    trunc_frac = rep.truncation_excluded / len(rep.samples)
    assert trunc_frac < 0.05
    assert rep.agreement_max_rel_err <= 0.10
    print(f"criterion 5: PASS — {len(rep.samples)} samples at d <= "
          f"{rep.d_max:.2g}, 0 bound violations (Lambda {rep.Lambda:.4f}), "
          f"truncation-capped {trunc_frac:.1%}, gradient agreement "
          f"{rep.agreement_max_rel_err:.3f} on [0.05, 0.3]")


def test_criterion_6_lemma_suite():
    cone = cone_inclusion_check(UNIT_DISK, trials=100, seed=0)
    assert cone.max_excess == 0.0
    assert cone.negative_control_excess > 0.0   # doubling theta must fail

    geo = boundary_geometry(UNIT_DISK)
    d0 = d0_threshold(geo)
    spec = make_cone_spec(UNIT_DISK, np.array([1.0 - d0, 0.0]))
    ts = [f * d0 for f in (0.05, 0.1, 0.25, 0.5, 0.75,
                           1.0, 1.25, 1.5, 1.75, 1.9, 1.99)]
    sl = slice_estimate_check(UNIT_DISK, ts, spec)
    assert sl.all_ok
    assert all(row[4] == "ok" for row in sl.rows)

    margins = []
    for theta in (0.05, 0.1, 0.2, 0.4):
        res = estar_volume_check(theta, 2, samples=4_000_000, seed=0)
        assert res.measured - 3.0 * res.stderr >= res.bound, f"theta={theta}"
        margins.append((res.measured - res.bound) / res.stderr)
    print(f"criterion 6: PASS — cone excess 0 over 100 trials, slice bound "
          f"holds at {len(ts)} values of t in (0, 2*d0), e* volume clears "
          f"its bound by {min(margins):.0f}+ sigma")


def test_criterion_7_determinism(tmp_path):
    doc = {"command": "sphere-benchmark", "N": 2000, "seed": 0,
           "tol": 1e-6, "max_iter": 50, "params": {"r": 0.6}}
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run(dict(doc, out=str(out))) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    csv_a = (tmp_path / "a" / "solution.csv").read_bytes()
    csv_b = (tmp_path / "b" / "solution.csv").read_bytes()
    assert csv_a == csv_b
    assert reports[0]["verdicts"] == reports[1]["verdicts"]
    # the whole report matches once timings and the output path are set aside
    a, b = (dict(r, timings=None, config=dict(r["config"], out=None))
            for r in reports)
    assert a == b
    print("criterion 7: PASS — repeated same-seed runs: identical "
          "solution.csv bytes, identical verdicts")
