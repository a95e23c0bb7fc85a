import json
import math

import numpy as np
import pytest

from hemiot.cli import run
from hemiot.domains import (ConeSpec, DiskDomain, boundary_geometry,
                            d0_threshold, theta_of)
from hemiot.experiments import (blowup_experiment, cone_inclusion_check,
                                estar_volume_check, site_spacing,
                                slice_estimate_check, sphere_benchmark)

from .reference import gauss_map_image_check

UNIT_DISK = DiskDomain(np.zeros(2), 1.0)


def test_sphere_benchmark_small():
    rep, sol = sphere_benchmark(0.6, 250, seed=0)
    assert sol.report.converged
    assert sol.report.final_residual <= 1e-6
    assert rep.grad_error < 0.12
    assert rep.height_error < 0.02
    # live cells stay below the spherical cap plane
    assert rep.cap_excess <= 1e-9


def test_sphere_benchmark_refines():
    errs = []
    for N in (250, 500, 1000):
        rep, sol = sphere_benchmark(0.6, N, seed=0)
        assert sol.report.converged
        errs.append(rep.grad_error)
    assert errs[2] < errs[0]
    assert errs[2] < 0.05


def test_sphere_benchmark_blocks_match_the_whole_array_formulas():
    # the samples and error sups, computed in blocks of _EVAL_BLOCK points,
    # equal the formulas over all points at once bit for bit, with a last
    # block that is not full
    from hemiot.solver import _EVAL_BLOCK
    r, n_eval, seed = 0.6, 2500, 3
    assert n_eval % _EVAL_BLOCK
    rep, sol = sphere_benchmark(r, 250, n_eval=n_eval, seed=seed)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n_eval)
    ang = rng.uniform(0.0, 2.0 * math.pi, n_eval)
    rad = r * 0.999 * np.sqrt(u)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    idx, u_num = sol.locate(pts)
    p_num = sol.sites[idx]
    denom = np.sqrt(1.0 - (pts ** 2).sum(axis=1))
    p_true = pts / denom[:, None]
    shift = -1.0 - sol.locate(np.zeros((1, 2)))[1][0]
    assert rep.samples.shape == (n_eval, 6)
    assert np.array_equal(rep.samples, np.column_stack([pts, p_num, p_true]))
    assert rep.grad_error == np.linalg.norm(p_num - p_true, axis=1).max()
    assert rep.height_error == np.abs(u_num + shift - (-denom)).max()


def test_site_spacing_is_none_without_a_pair():
    assert site_spacing(np.zeros((1, 2))) is None


def test_site_spacing_matches_brute_force():
    rng = np.random.default_rng(4)
    for n in (2, 3, 50, 400):
        sites = rng.normal(0.0, 1.0, size=(n, 2))
        sites[-1] = sites[0] + 1e-9     # one close pair
        d = np.linalg.norm(sites[:, None, :] - sites[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert site_spacing(sites) == pytest.approx(d.min(axis=1).max(),
                                                    rel=1e-14)


def test_sphere_benchmark_validation():
    with pytest.raises(ValueError):
        sphere_benchmark(1.5, 100)
    with pytest.raises(ValueError, match="n_eval"):
        sphere_benchmark(0.6, 100, n_eval=0)


def test_gauss_map_image_identity():
    rep, sol = sphere_benchmark(0.6, 250, seed=0)
    h_live, h_all, n_empty = gauss_map_image_check(sol, sol.target)
    assert h_live == pytest.approx(0.0, abs=1e-12)
    assert h_all == pytest.approx(0.0, abs=1e-12)
    assert n_empty == 0


def test_gauss_map_image_check_matches_a_dense_reference():
    # psi corrupted so that some cells are empty: both one-sided distances
    # are then positive, against every pairwise distance
    from dataclasses import replace

    from hemiot.laguerre import laguerre_diagram

    _, sol = sphere_benchmark(0.6, 250, seed=0)
    psi = sol.psi + np.random.default_rng(2).normal(0.0, 0.02, len(sol.psi))
    psi[[7, 60, 121]] += 1.0
    bad = replace(sol, psi=psi,
                  diagram=laguerre_diagram(sol.domain, sol.sites, psi))
    live = np.array([not c.is_empty for c in bad.diagram.cells])
    pts = np.column_stack([sol.sites, -np.ones(len(sol.sites))]) \
        / np.sqrt(1.0 + (sol.sites ** 2).sum(axis=1))[:, None]
    d = np.linalg.norm(pts[live][:, None, :] - pts[None, :, :], axis=2)
    n_empty = int((~live & (sol.target.masses > 0)).sum())
    assert n_empty >= 3
    got = gauss_map_image_check(bad, sol.target)
    assert got[2] == n_empty
    assert got[0] == pytest.approx(d.min(axis=1).max(), rel=1e-14, abs=1e-15)
    assert got[1] == pytest.approx(d.min(axis=0).max(), rel=1e-14)
    assert got[1] > 0.0


def test_blowup_structure_and_constants():
    rep, sol = blowup_experiment(samples=150, N=400, seed=0)
    assert sol.report.converged
    assert rep.Lambda == pytest.approx(0.27483519595189988, rel=1e-12)
    assert rep.d_max == pytest.approx(1.0 / 640.0, rel=1e-12)
    assert rep.P_max == pytest.approx(99.99499987499375, rel=1e-12)
    assert all(d <= rep.d_max for d, *_ in rep.samples)
    assert rep.truncation_excluded <= 0.05 * 150
    # the closed-form bound is numerically vacuous until d ~ 1e-7, so even a
    # coarse run cannot violate it inside the sampled band
    assert rep.violations == []


def test_blowup_emits_artifacts(tmp_path):
    # the report carries the sample rows with their bound column; the CLI
    # writes them to samples.csv and the constants into report.json
    rep, sol = blowup_experiment(samples=40, N=150, seed=1)
    assert rep.sample_header == ("d", "grad_norm", "bound")
    assert len(rep.samples) == 40
    expo = (1.0 - rep.delta) / 4.0
    for d, _, bound in rep.samples:
        assert bound == pytest.approx(rep.Lambda * d ** -expo - 2.0,
                                      rel=1e-14)
    out = tmp_path / "bu"
    # N = 150 is too coarse for the agreement verdict; the files are written
    # all the same
    run({"command": "blowup", "N": 150, "seed": 1,
         "params": {"samples": 40}, "out": str(out)})
    report = json.loads((out / "report.json").read_text())
    assert {"Lambda", "d_max", "P_max", "n_violations", "L", "R0",
            "violations", "diagrams_built", "diagrams_discarded",
            "start_residual", "stop"} <= set(report["measurements"])
    assert report["measurements"]["start_residual"] == \
        sol.report.start_residual
    assert set(report["artifacts"]) == {"samples.csv", "solution.csv"}
    rows = (out / "samples.csv").read_text().strip().splitlines()
    assert rows[0] == "d,grad_norm,bound"
    assert len(rows) == 41
    assert [list(map(float, r.split(","))) for r in rows[1:]] == \
        [list(r) for r in rep.samples]


def test_cone_inclusion_zero_excess():
    rep = cone_inclusion_check(UNIT_DISK, trials=15, n_points=2000, seed=0)
    assert rep.max_excess == 0.0
    assert rep.negative_control_excess > 0.0
    assert rep.trials == 15


def test_cone_inclusion_rejects_polygons():
    from hemiot.domains import ConvexPolygonDomain
    sq = ConvexPolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0],
                                       [1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cone_inclusion_check(sq, trials=1)


def _spec_at(d0):
    return ConeSpec(x0=np.array([1.0 - d0, 0.0]), v0=np.array([1.0, 0.0]),
                    d0=d0, theta=theta_of(d0, 1.0))


def test_slice_estimate_frozen_value():
    d0 = 1e-3
    rep = slice_estimate_check(UNIT_DISK, [1e-3], _spec_at(d0))
    (t, arc_cf, arc_poly, bound, status), = rep.rows
    assert status == "ok"
    assert arc_cf == pytest.approx(0.14153971044880352, rel=1e-12)
    assert bound == pytest.approx(4.0 * math.sqrt(5.0 * d0), rel=1e-12)
    # the dense-polyline route confirms the closed form
    assert arc_poly == pytest.approx(arc_cf, rel=1e-3)
    assert rep.all_ok


def test_slice_estimate_skips_out_of_range_t():
    d0 = 1e-3
    rep = slice_estimate_check(UNIT_DISK, [0.0, 5e-3, 1e-3], _spec_at(d0))
    statuses = [r[4] for r in rep.rows]
    assert statuses[0].startswith("skipped")
    assert statuses[1].startswith("skipped")
    assert statuses[2] == "ok"
    assert rep.all_ok  # skipped rows do not fail the check


@pytest.mark.parametrize("ts", [[], [0.0, 5e-3]], ids=["none", "all-skipped"])
def test_slice_estimate_needs_a_scored_row(ts):
    # a skipped row is no evidence, so a check that scored none fails
    rep = slice_estimate_check(UNIT_DISK, ts, _spec_at(1e-3))
    assert all(r[4].startswith("skipped") for r in rep.rows)
    assert not rep.all_ok


def test_slice_estimate_holds_across_the_band():
    geo = boundary_geometry(UNIT_DISK)
    d0 = d0_threshold(geo)
    spec = _spec_at(d0)
    ts = [f * d0 for f in (0.1, 0.5, 1.0, 1.5, 1.9)]
    rep = slice_estimate_check(UNIT_DISK, ts, spec)
    assert rep.all_ok
    assert all(r[4] == "ok" for r in rep.rows)


def test_estar_volume_matches_exact_sector_area():
    # in the plane, the cone piece is a sector of angular half-width
    # 2 asin(theta/2); its area is exactly that angle
    theta = 0.3
    res = estar_volume_check(theta, 2, samples=400000, seed=0)
    exact = 2.0 * math.asin(theta / 2.0)
    assert abs(res.measured - exact) <= 4.0 * res.stderr
    assert res.bound < exact
    assert res.measured - 3.0 * res.stderr >= res.bound


def test_estar_volume_dimension_three():
    res = estar_volume_check(0.2, 3, samples=400000, seed=1)
    assert res.measured - 3.0 * res.stderr >= res.bound
    assert res.bound == pytest.approx(math.pi * 0.2 ** 2 / 12.0, rel=1e-12)


def test_estar_volume_draws_in_bounded_memory():
    # the samples are drawn and counted in blocks of rows from one stream:
    # the count is that of one (samples, n) draw, and the CLI's default of
    # 2 000 000 samples peaks far below the 32 MB of that draw
    import tracemalloc

    for theta, n, m in ((0.2, 2, 150001), (0.35, 3, 131072)):
        p = np.random.default_rng(4).uniform(-1.0, 1.0, size=(m, n))
        r = np.linalg.norm(p, axis=1)
        dirs = p[r <= 1.0] / r[r <= 1.0][:, None]
        hits = int((np.linalg.norm(dirs - np.eye(n)[0], axis=1)
                    <= theta).sum())
        res = estar_volume_check(theta, n, m, seed=4)
        assert res.measured == hits / m * 2.0 ** n
    tracemalloc.start()
    try:
        estar_volume_check(0.2, 2, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_estar_volume_validation():
    with pytest.raises(ValueError):
        estar_volume_check(0.5, 2, 1000)  # theta >= 1/sqrt(6)
    with pytest.raises(ValueError):
        estar_volume_check(0.1, 1, 1000)


def test_emitted_artifacts_are_deterministic(tmp_path):
    a = cone_inclusion_check(UNIT_DISK, trials=5, n_points=500, seed=7)
    b = cone_inclusion_check(UNIT_DISK, trials=5, n_points=500, seed=7)
    assert {**vars(a), "samples": None} == {**vars(b), "samples": None}
    assert np.array_equal(a.samples, b.samples)
    assert a.samples.shape == (5, 3)
    doc = {"command": "lemmas", "seed": 7,
           "params": {"trials": 5, "n_points": 500, "estar_samples": 100000,
                      "thetas": [0.1]}}
    reports = []
    for name in ("a", "b"):
        run(dict(doc, out=str(tmp_path / name)))
        report = json.loads((tmp_path / name / "report.json").read_text())
        report.pop("timings")
        report["config"].pop("out")
        reports.append(report)
    assert reports[0] == reports[1]
    rows = (tmp_path / "a" / "samples.csv").read_text().splitlines()
    assert rows[0] == "d0,theta,excess"
    assert len(rows) == 6
    assert (tmp_path / "a" / "samples.csv").read_bytes() == \
        (tmp_path / "b" / "samples.csv").read_bytes()
