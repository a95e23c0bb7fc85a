import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemiot.chart import c_exp_rows
from hemiot.domains import (ConvexPolygonDomain, DiskDomain, SourceDensity,
                            constant_density, total_mass)
from hemiot.laguerre import (_rows, compute_measures, edge_weights,
                             laguerre_diagram, level_order)
from hemiot.solver import (ConvergenceError, MassBalanceError, _newton_step,
                           _radial_profile_psi, export_mesh, solution_to_csv,
                           solve)
from hemiot.targets import (DiscreteTarget, chart_disk, chart_polygon,
                            discretize, full_hemisphere, region_mass)

SQUARE = ConvexPolygonDomain(np.array([[-0.5, -0.5], [0.5, -0.5],
                                       [0.5, 0.5], [-0.5, 0.5]]))
K1 = constant_density(1.0)


def test_two_site_closed_form():
    # cell of (1,0) is {2 x1 >= psi0 - psi1}; mass 1/4 forces the interface
    # to x1 = 1/4, i.e. psi = (0, -1/2) in the psi[0] = 0 gauge
    target = DiscreteTarget(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            np.array([0.25, 0.75]))
    sol = solve(SQUARE, K1, target, tol=1e-12)
    assert sol.report.converged
    assert sol.psi == pytest.approx([0.0, -0.5], abs=1e-12)
    assert sol.masses == pytest.approx([0.25, 0.75], abs=1e-12)
    # the problem is affine in psi, so one Newton step lands exactly
    assert sol.report.iterations <= 2


def test_single_site_is_trivial():
    target = DiscreteTarget(np.array([[0.4, -0.2]]), np.array([1.0]))
    sol = solve(SQUARE, K1, target)
    assert sol.report.converged
    assert sol.masses[0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("domain, region", [
    (DiskDomain(np.array([0.2, -0.1]), 0.5), chart_disk([0.3, 0.4], 0.6)),
    (SQUARE, chart_polygon([[0.0, 0.0], [0.8, 0.1], [0.2, 0.7]])),
], ids=["disk", "polygon"])
def test_one_site_target_takes_the_whole_domain(domain, region):
    mass, _ = total_mass(domain, K1)
    target = discretize(region, 1, mass)
    assert np.array_equal(target.sites, region.centroid[None, :])
    sol = solve(domain, K1, target)
    assert sol.report.converged and sol.report.iterations == 0
    assert sol.report.final_residual == 0.0
    assert sol.diagram.area[0] == pytest.approx(domain.area,
                                                rel=1e-15)


def test_mass_balance_guard():
    target = DiscreteTarget(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            np.array([0.25, 0.25]))
    with pytest.raises(MassBalanceError):
        solve(SQUARE, K1, target)


def test_random_instances_converge():
    rng = np.random.default_rng(14)
    for k in range(5):
        n = int(rng.integers(5, 30))
        domain = SQUARE if k % 2 else DiskDomain(np.zeros(2), 0.8)
        region = chart_disk(np.zeros(2), 0.9)
        target = discretize(region, n, domain.area)
        sol = solve(domain, K1, target, tol=1e-8)
        assert sol.report.converged
        assert sol.report.final_residual <= 1e-8
        assert sol.psi[0] == 0.0
        assert sol.masses.min() > 0.0
        assert sol.diagram.nonempty.all()
        area = sum(c.area for c in sol.diagram.cells)
        assert area == pytest.approx(domain.area, rel=1e-9)


def test_smooth_density_instance():
    K = SourceDensity(fn=lambda p: 1.0 + 0.4 * np.sin(2.0 * p[:, 0]))
    mass, _ = total_mass(SQUARE, K, tol=1e-10)
    region = chart_polygon(np.array([[-0.6, -0.6], [0.6, -0.6],
                                     [0.6, 0.6], [-0.6, 0.6]]))
    target = discretize(region, 25, mass)
    sol = solve(SQUARE, K, target, tol=1e-7)
    assert sol.report.converged
    assert float(np.abs(sol.masses - target.masses).sum()) <= 1e-7 * mass
    assert sol.diagram.nonempty.all()


def test_kinked_density_onto_a_pentagon_converges():
    # K = 1 + 0.5|x1| has a kink along x1 = 0; the line search accepts a
    # step on the eps0 floor and the residual decrease alone, and converges
    # in a few Newton steps, and, as every solution, has no empty cell
    domain = DiskDomain(np.zeros(2), 0.6)
    K = SourceDensity(fn=lambda p: 1.0 + 0.5 * np.abs(p[:, 0]))
    mass, _ = total_mass(domain, K, tol=1e-9)
    region = chart_polygon(np.array([[0.4, 0.0], [0.12, 0.38], [-0.32, 0.24],
                                     [-0.32, -0.24], [0.12, -0.38]]))
    with pytest.warns(RuntimeWarning, match="rescale factor"):
        target = discretize(region, 200, mass)
    tol = 1e-6
    sol = solve(domain, K, target, tol=tol)
    assert sol.report.converged
    assert sol.report.final_residual <= tol
    assert sol.diagram.nonempty.all()


def test_potential_and_active_site_agree():
    target = discretize(chart_disk(np.zeros(2), 0.8), 20, 1.0)
    sol = solve(SQUARE, K1, target)
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.49, 0.49, size=(200, 2))
    idx, u = sol.locate(x)
    direct = x @ sol.sites.T - sol.psi
    assert np.allclose(u, direct.max(axis=1), atol=1e-14)
    assert np.array_equal(idx, direct.argmax(axis=1))
    # one (1, 2) row gives the same bits as it does among the others
    idx0, u0 = sol.locate(x[:1])
    assert idx0.tolist() == idx[:1].tolist()
    assert u0.tobytes() == u[:1].tobytes()


def test_blockwise_evaluation_matches_the_whole_matrix():
    # more points than one score block, with a ragged last block
    from hemiot.solver import _EVAL_BLOCK
    target = discretize(chart_disk(np.zeros(2), 0.8), 60, 1.0)
    sol = solve(SQUARE, K1, target)
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, size=(2 * _EVAL_BLOCK + 37, 2))
    whole = _scores(x, sol.sites, sol.psi)
    idx, u = sol.locate(x)
    assert np.array_equal(u, whole.max(axis=1))
    assert np.array_equal(idx, whole.argmax(axis=1))


def _scores(x, sites, psi):
    # the whole points x sites matrix of x0 p0 + x1 p1 - psi, elementwise
    return (x[:, :1] * sites[:, 0] + x[:, 1:] * sites[:, 1]) - psi


def _dense_reference(sol, x, block=2048):
    idx = np.concatenate([_scores(x[s:s + block], sol.sites, sol.psi)
                          .argmax(axis=1) for s in range(0, len(x), block)])
    u = np.concatenate([_scores(x[s:s + block], sol.sites, sol.psi).max(axis=1)
                        for s in range(0, len(x), block)])
    return idx, u


@pytest.mark.parametrize("domain, N", [
    (DiskDomain(np.zeros(2), 0.6), 60),
    (DiskDomain(np.zeros(2), 0.6), 2000),
    (ConvexPolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                   [0.0, 1.0]])), 60),
    (ConvexPolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                   [0.0, 1.0]])), 2000),
], ids=["disk-60", "disk-2000", "square-60", "square-2000"])
def test_supporting_plane_matches_the_dense_scan(monkeypatch, domain, N):
    # the located sites and potentials equal a dense scan bit for bit on
    # random points, on every cell vertex and edge midpoint (where cells
    # tie), and on points outside or within clip eps of the boundary
    import hemiot.solver as solver_mod
    from hemiot.domains import clip_eps
    target = discretize(chart_disk(np.zeros(2), 0.75), N, domain.area)
    sol = solve(domain, K1, target)
    dg = sol.diagram
    rng = np.random.default_rng(N)
    lo, hi = domain.bounding_box()
    inner = rng.uniform(lo, hi, size=(5000, 2))
    inner = inner[domain.contains(inner, -0.01)]
    # the boundary, pushed out and in by multiples of clip eps
    eps = clip_eps(domain)
    ang = rng.uniform(0.0, 2.0 * math.pi, 200)
    c = 0.5 * (lo + hi)
    ray = np.column_stack([np.cos(ang), np.sin(ang)])
    if isinstance(domain, DiskDomain):
        edge = c + domain.radius * ray
    else:
        edge = c + 0.5 * ray / np.abs(ray).max(axis=1)[:, None]
    rim = np.concatenate([edge + t * eps * ray
                          for t in (-8.0, -4.0, -1.0, 0.0, 1.0, 1e6)])
    x = np.concatenate([inner, dg.verts, 0.5 * (dg.verts + dg.verts[dg.nxt]),
                        rim])
    idx, u = sol.locate(x)
    ref_idx, ref_u = _dense_reference(sol, x)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(u.view(np.int64), ref_u.view(np.int64))
    # so does the blockwise scan that serves the points left unlocated
    idx, u = solver_mod._dense_plane(sol.sites, sol.psi, x)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(u.view(np.int64), ref_u.view(np.int64))
    # interior points are located through the diagram, not the dense scan
    scanned = []
    dense = solver_mod._dense_plane
    monkeypatch.setattr(solver_mod, "_dense_plane",
                        lambda *a: scanned.append(len(a[2])) or dense(*a))
    assert np.array_equal(sol.locate(inner)[0], ref_idx[:len(inner)])
    assert sum(scanned) <= 0.01 * len(inner)


def test_blocked_locator_is_bit_identical_in_bounded_memory():
    # the N=2000 sphere solution, located on 20 000 points in blocks of
    # _EVAL_BLOCK: the same bits as the dense scan, and the (point,
    # neighbour) pairs of one block at a time, not of all points at once
    import tracemalloc

    from hemiot.solver import _EVAL_BLOCK, _dense_plane
    domain = DiskDomain(np.zeros(2), 0.6)
    target = discretize(chart_disk(np.zeros(2), 0.75), 2000,
                        domain.area)
    sol = solve(domain, K1, target)
    rng = np.random.default_rng(0)
    rad = 0.6 * 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 20000))
    ang = rng.uniform(0.0, 2.0 * math.pi, 20000)
    x = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    assert len(x) > 10 * _EVAL_BLOCK
    sol.locate(x[:1])                     # builds the locator
    tracemalloc.start()
    try:
        idx, u = sol.locate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref_idx, ref_u = _dense_plane(sol.sites, sol.psi, x)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(u.view(np.int64), ref_u.view(np.int64))
    assert peak < 2 * 2 ** 20, peak


def test_write_csv_of_an_array_writes_its_python_floats(tmp_path):
    # an int column and the columns of an (m, k) float array, across a block
    # boundary, write the bytes of the reprs of their tolist() rows
    from hemiot.solver import _EVAL_BLOCK, write_csv
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((2500, 3)) * 10.0 ** rng.integers(-300, 300,
                                                                 (2500, 3))
    arr[0] = [-0.0, 0.0, 1e-320]
    assert len(arr) > 2 * _EVAL_BLOCK
    site = np.arange(len(arr))
    a = write_csv(str(tmp_path / "a.csv"), ("site", "a", "b", "c"),
                  (site, *arr.T))
    with open(a, "rb") as fa:
        text = fa.read()
    ref = "site,a,b,c\n" + "".join(
        ",".join(map(repr, [i, *row])) + "\n"
        for i, row in zip(site.tolist(), arr.tolist()))
    assert text == ref.encode()
    assert text.splitlines()[1] == b"0,-0.0,0.0,1e-320"


def test_gauss_map_lands_on_hemisphere():
    target = discretize(chart_disk(np.zeros(2), 0.8), 12, 1.0)
    sol = solve(SQUARE, K1, target)
    x = np.array([[0.1, -0.2]])
    y = sol.gauss_map(x)
    (k,), _ = sol.locate(x)
    assert y.shape == (1, 3)
    assert y[0].tobytes() == c_exp_rows(sol.sites)[k].tobytes()
    assert np.linalg.norm(y[0]) == pytest.approx(1.0, abs=1e-12)
    assert y[0, -1] < 0
    xs = np.array([x[0], [0.3, 0.2], [-0.4, 0.45]])
    assert sol.gauss_map(xs).tobytes() == c_exp_rows(
        sol.sites[sol.locate(xs)[0]]).tobytes()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_c_monotonicity_of_cells(seed):
    # points in different cells pair monotonically with their sites:
    # <x - x', p - p'> >= 0 for active sites p, p'
    rng = np.random.default_rng(seed)
    target = discretize(chart_disk(np.zeros(2), 0.7),
                        int(rng.integers(4, 16)), 1.0)
    sol = solve(SQUARE, K1, target, tol=1e-9)
    x = rng.uniform(-0.5, 0.5, size=(60, 2))
    idx, _ = sol.locate(x)
    p = sol.sites[idx]
    for a in range(0, 60, 7):
        diff = ((x - x[a]) * (p - p[a])).sum(axis=1)
        assert diff.min() >= -1e-12


def test_export_outputs_are_deterministic(tmp_path):
    target = discretize(chart_disk(np.zeros(2), 0.8), 15, math.pi * 0.64)
    dom = DiskDomain(np.zeros(2), 0.8)
    sol1 = solve(dom, K1, target)
    sol2 = solve(dom, K1, target)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    solution_to_csv(sol1, str(p1))
    solution_to_csv(sol2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    m1, m2 = tmp_path / "a.obj", tmp_path / "b.obj"
    export_mesh(sol1, str(m1))
    export_mesh(sol2, str(m2))
    assert m1.read_bytes() == m2.read_bytes()


def test_solution_csv_layout(tmp_path):
    target = discretize(chart_disk(np.zeros(2), 0.8), 9, 1.0)
    sol = solve(SQUARE, K1, target)
    path = tmp_path / "sol.csv"
    solution_to_csv(sol, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "site,p1,p2,psi,nu,mass,area,centroid1,centroid2"
    assert len(lines) == 1 + len(target)
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[4]) == pytest.approx(target.masses[0])


def test_mesh_is_a_graph_over_the_cells(tmp_path):
    target = discretize(chart_disk(np.zeros(2), 0.8), 10, 1.0)
    sol = solve(SQUARE, K1, target)
    path = tmp_path / "m.obj"
    export_mesh(sol, str(path))
    lines = path.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    normals = [l for l in lines if l.startswith("vn ")]
    faces = [l for l in lines if l.startswith("f ")]
    live = [c for c in sol.diagram.cells if not c.is_empty]
    assert len(faces) == len(live) == len(normals)
    # every face vertex satisfies the defining plane of its cell
    vxyz = np.array([[float(t) for t in l.split()[1:]] for l in verts])
    for face, cell in zip(faces, live):
        p = sol.sites[cell.site_index]
        psi = sol.psi[cell.site_index]
        for tok in face.split()[1:]:
            vid = int(tok.split("//")[0]) - 1
            x, y, z = vxyz[vid]
            assert z == pytest.approx(p[0] * x + p[1] * y - psi, abs=1e-8)


def test_report_runtime_and_history():
    target = discretize(chart_disk(np.zeros(2), 0.8), 18, 1.0)
    sol = solve(SQUARE, K1, target)
    rep = sol.report
    assert rep.runtime >= 0.0
    assert len(rep.min_cell_mass_history) == rep.iterations + 1
    assert min(rep.min_cell_mass_history) > 0.0


def test_report_counts_built_and_discarded_diagrams(monkeypatch):
    import hemiot.solver as solver_mod
    build = solver_mod.laguerre_diagram
    built = []

    def counted(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(solver_mod, "laguerre_diagram", counted)
    # an off-centre cap: the start follows its radial mass profile about
    # its centre of mass, not its shape, and the first steps reject trials
    domain = DiskDomain(np.zeros(2), 0.8)
    target = discretize(chart_disk(np.array([1.0, 0.5]), 2.0), 80,
                        domain.area)
    rep = solve(domain, K1, target, tol=1e-8).report
    assert rep.converged and rep.diagrams_discarded
    assert rep.stop == "tol"
    assert rep.diagrams_built == len(built)
    # every rejected trial is discarded; the start and one diagram per
    # accepted step are kept
    assert rep.diagrams_built - rep.diagrams_discarded == 1 + rep.iterations
    # the start's relative l1 residual, from the first diagram
    G, _ = compute_measures(built[0], K1)
    assert rep.start_residual == (float(np.abs(G - target.masses).sum())
                                  / float(target.masses.sum()))
    assert rep.start_residual > rep.final_residual


def test_newton_gives_up_when_no_trial_is_accepted(monkeypatch):
    # a zero Newton direction leaves the residual where it is, so each
    # trial from tau = 1 down to 2^-11 is rejected and the solve stops
    import hemiot.solver as solver_mod
    monkeypatch.setattr(solver_mod, "_newton_step",
                        lambda diagram, K, G, nu: np.zeros(len(nu)))
    target = DiscreteTarget(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            np.array([0.25, 0.75]))
    rep = solve(SQUARE, K1, target, tol=1e-12).report
    assert not rep.converged
    assert rep.stop == "line_search"
    assert rep.iterations == 1
    assert rep.diagrams_built == 13
    assert rep.diagrams_discarded == 12
    assert rep.final_residual == rep.start_residual > 0.0


def test_newton_stops_when_its_steps_run_out():
    # the off-centre cap of test_report_counts_built_and_discarded_diagrams
    # needs more than one step; with one allowed the solve stops there
    domain = DiskDomain(np.zeros(2), 0.8)
    target = discretize(chart_disk(np.array([1.0, 0.5]), 2.0), 80,
                        domain.area)
    rep = solve(domain, K1, target, tol=1e-8, max_iter=1).report
    assert rep.stop == "max_iter"
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.final_residual > 1e-8


@pytest.mark.parametrize("share", [0.5, 0.7, 0.9])
def test_two_sites_with_an_arc_past_half_a_turn_converge(share):
    # the bisector misses the centre, so the larger cell's arc sweeps more
    # than half a turn; its mass must count the triangle between the
    # chord and the centre for Newton to converge
    domain = DiskDomain(np.zeros(2), 0.6)
    K = SourceDensity(fn=lambda p: 1.0 + 0.5 * p[:, 0])
    mass = total_mass(domain, K, tol=1e-13)[0]
    target = DiscreteTarget(np.array([[-0.3, 0.1], [0.4, -0.2]]),
                            np.array([share * mass, (1.0 - share) * mass]),
                            total=mass)
    rep = solve(domain, K, target, tol=1e-8).report
    assert rep.converged
    assert rep.iterations <= 4


@pytest.mark.parametrize("domain, target", [
    (SQUARE, DiscreteTarget(np.array([[1.0, 0.2], [-1.0, 0.0], [0.1, 0.7]]),
                            np.array([0.3, 0.3, 0.4]))),
    (DiskDomain(np.zeros(2), 0.8),
     discretize(chart_disk(np.zeros(2), 5.0), 80, math.pi * 0.64)),
], ids=["three-sites", "disk-80"])
def test_first_diagram_is_at_the_radial_profile_weights(monkeypatch, domain,
                                                        target):
    import hemiot.solver as solver_mod
    build = solver_mod.laguerre_diagram
    weights = []

    def recorded(domain, sites, psi, *args, **kwargs):
        weights.append(np.array(psi))
        return build(domain, sites, psi, *args, **kwargs)
    monkeypatch.setattr(solver_mod, "laguerre_diagram", recorded)
    solve(domain, K1, target)
    start = _radial_profile_psi(domain, target.sites, target.masses)
    assert np.array_equal(weights[0], start - start[0])
    assert weights[0].any()


_START_DOMAINS = {
    "disk": DiskDomain(np.zeros(2), 0.8),
    "off-disk": DiskDomain(np.array([2.0, -1.0]), 0.3),
    "off-triangle": ConvexPolygonDomain(np.array([[1.0, 1.0], [3.0, 1.2],
                                                  [1.4, 1.6]])),
}


def _at_region_mass(region, N):
    return discretize(region, N, region_mass(region))


_START_TARGETS = {
    "one-site": lambda: _at_region_mass(chart_disk(np.zeros(2), 0.5), 1),
    "two-sites": lambda: DiscreteTarget(np.array([[0.3, -0.2], [-1.0, 0.4]]),
                                        np.array([0.1, 0.9])),
    "three-sites": lambda: DiscreteTarget(
        np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.01]]),
        np.array([0.5, 0.2, 0.3])),
    "three-collinear": lambda: DiscreteTarget(
        np.array([[-1.0, 0.0], [0.0, 0.0], [3.0, 0.0]]),
        np.array([0.2, 0.3, 0.5])),
    # polar grids: whole rings of sites tie in s
    "rings-10": lambda: _at_region_mass(full_hemisphere(20.0), 10),
    "rings-200": lambda: _at_region_mass(full_hemisphere(100.0), 200),
    "off-cap": lambda: _at_region_mass(chart_disk(np.array([1.5, -2.0]), 0.4),
                                       120),
    "off-polygon": lambda: _at_region_mass(chart_polygon(np.array(
        [[2.0, 1.0], [4.0, 1.5], [3.0, 3.0]])), 150),
}


@pytest.mark.parametrize("target", list(_START_TARGETS))
@pytest.mark.parametrize("domain", list(_START_DOMAINS))
def test_every_start_cell_has_positive_mass(domain, target):
    domain, target = _START_DOMAINS[domain], _START_TARGETS[target]()
    psi = _radial_profile_psi(domain, target.sites, target.masses)
    diagram = laguerre_diagram(domain, target.sites, psi - psi[0])
    G, _ = compute_measures(diagram, K1)
    assert (G > 0.0).all()


def test_radial_profile_start_by_hand():
    # sites at s = 1, 1, 2, 2 from their mean, equal masses: g = 1/8, 3/8,
    # 5/8, 7/8 in stable order; F is the trapezoid integral of f through
    # (0, 0) and (s_k, f_k), flat across the tied knots
    sites = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    psi = _radial_profile_psi(SQUARE, sites, np.ones(4))
    f = (1.0 - 1e-7) * 0.5 * np.sqrt(np.array([1.0, 3.0, 5.0]) / 8.0)
    inner = 0.5 * f[0]
    outer = inner + 0.5 * (f[1] + f[2])
    assert np.allclose(psi, [inner, inner, outer, outer], rtol=1e-15, atol=0)


def test_blowup_start_needs_few_diagrams():
    # the critical case: K = 1 on the unit disk against the whole lower
    # hemisphere, a polar grid out to |p| = 100; the start follows the
    # grid's radial mass profile, so no early trial is rejected
    from hemiot.targets import truncation_radius_for
    domain = DiskDomain(np.zeros(2), 1.0)
    region = full_hemisphere(truncation_radius_for(math.pi * 1e-4))
    target = discretize(region, 2000, math.pi)
    rep = solve(domain, K1, target, tol=1e-6).report
    assert rep.converged
    assert rep.diagrams_built <= 10 and rep.iterations <= 7


@pytest.mark.parametrize("domain, N", [
    (DiskDomain(np.zeros(2), 0.6), 500),
    (SQUARE, 300),
    (DiskDomain(np.zeros(2), 0.6), 40),
], ids=["disk-416", "square-249", "disk-36"])
def test_newton_step_solves_its_system_to_rounding(domain, N):
    # the first step from the start weights: (D - W) d = G - nu holds to
    # rounding on rows 1..n-1, in the gauge d[0] = 0
    target = discretize(chart_disk(np.zeros(2), 0.75), N, domain.area)
    psi = _radial_profile_psi(domain, target.sites, target.masses)
    diagram = laguerre_diagram(domain, target.sites, psi - psi[0])
    G, _ = compute_measures(diagram, K1, 1e-12)
    d = _newton_step(diagram, K1, G, target.masses)
    assert d[0] == 0.0
    pairs, w = edge_weights(diagram, K1)
    i, j = pairs.T
    flux = w * (d[i] - d[j])
    Ld = np.bincount(i, flux, len(d)) - np.bincount(j, flux, len(d))
    b = G - target.masses
    assert (np.linalg.norm(Ld[1:] - b[1:]) / np.linalg.norm(b[1:])
            <= 1e-12)


def _start_system(domain, target):
    # the first Newton system: the diagram at the start weights, its cell
    # masses and the target masses
    psi = _radial_profile_psi(domain, target.sites, target.masses)
    diagram = laguerre_diagram(domain, target.sites, psi - psi[0])
    G, _ = compute_measures(diagram, K1, 1e-12)
    return diagram, G, target.masses


def _wheel_system(m):
    # the Voronoi wheel on the unit disk: site 0 at the origin and m sites
    # on the circle of radius 0.5, at psi = |p|^2 / 2, so cell 0 borders
    # all m rim cells; its cell masses, and equal target masses
    a = 2.0 * math.pi * np.arange(m) / m
    sites = np.concatenate([np.zeros((1, 2)),
                            0.5 * np.column_stack([np.cos(a), np.sin(a)])])
    diagram = laguerre_diagram(DiskDomain(np.zeros(2), 1.0), sites,
                               0.5 * (sites ** 2).sum(axis=1))
    G, _ = compute_measures(diagram, K1, 1e-12)
    return diagram, G, np.full(m + 1, G.sum() / (m + 1))


def test_level_order_leaves_out_sites_not_reached():
    # a site that site 0 does not reach is left out
    assert level_order(*_rows(4, np.array([[0, 1], [2, 3]]))).tolist() \
        == [True, True, False, False]


def _breadth_first(n, pairs):
    # plain-Python breadth-first search from site 0: the sites it reaches
    adj = [[] for _ in range(n)]
    for i, j in pairs.tolist():
        adj[i].append(j)
        adj[j].append(i)
    queue, seen = [0], {0}
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(queue)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("degree", [0.3, 0.9, 2.0, 6.0])
def test_level_order_matches_a_plain_breadth_first_search(seed, degree):
    # random graphs of n sites and about degree * n / 2 edges: below one
    # edge per site they fall apart, and the search reaches site 0's part
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    i, j = rng.integers(0, n, (2, int(degree * n / 2)))
    pairs = np.unique(np.column_stack([np.minimum(i, j), np.maximum(i, j)])
                      [i != j], axis=0).reshape(-1, 2)
    reached = level_order(*_rows(n, pairs))
    assert np.flatnonzero(reached).tolist() == _breadth_first(n, pairs)
    if degree < 1.0:
        assert not reached.all()


@pytest.mark.parametrize("system", [
    lambda: _start_system(SQUARE, DiscreteTarget(
        np.array([[0.3, 0.1], [-0.4, 0.2]]), np.array([0.4, 0.6]))),
    lambda: _start_system(DiskDomain(np.zeros(2), 0.6), discretize(
        chart_disk(np.zeros(2), 0.75), 40, math.pi * 0.36)),
    lambda: _wheel_system(200),
], ids=["two-sites", "disk-36", "wheel-201"])
def test_newton_step_matches_a_dense_solve(system):
    # the sparse factor against numpy's dense LU on L[1:, 1:], to rounding;
    # two sites give a 1 x 1 system, and the wheel's hub cell borders all
    # 200 others, so its row of L is full
    diagram, G, nu = system()
    d = _newton_step(diagram, K1, G, nu)
    n = len(nu)
    pairs, w = edge_weights(diagram, K1)
    L = np.zeros((n, n))
    np.add.at(L, (pairs[:, 0], pairs[:, 1]), -w)
    L += L.T
    L[np.diag_indices(n)] = -L.sum(axis=1)
    dense = np.linalg.solve(L[1:, 1:], (G - nu)[1:])
    assert d[0] == 0.0
    assert np.abs(d[1:] - dense).max() <= 1e-12 * np.abs(dense).max()


def test_newton_step_on_a_disconnected_graph_raises(monkeypatch):
    # sites 2 and 3 have empty cells, so the graph is the one edge 0-1: no
    # factorization is tried, and the message counts the sites that the
    # search from site 0 did not reach
    sites = np.array([[-0.3, 0.0], [0.3, 0.0], [0.0, 0.3], [0.0, -0.3]])
    diagram = laguerre_diagram(SQUARE, sites, np.array([0.0, 0.0, 50.0, 50.0]))
    assert diagram.adjacency_edges().tolist() == [[0, 1]]
    monkeypatch.setattr("scipy.sparse.linalg.splu", None)
    with pytest.raises(ConvergenceError, match="did not reach 2 of 4 sites"):
        _newton_step(diagram, K1, np.full(4, 0.3), np.full(4, 0.25))


def test_newton_step_on_a_hub_cell_stays_sparse():
    # the hub of a 4001-site wheel borders every other cell, so no order
    # narrows a band of L[1:, 1:] below n: 128 MB of doubles. The sparse
    # factor of this arrow matrix keeps O(n) entries. Run in a fresh
    # interpreter with its imports done first, and read the peak resident
    # set (VmHWM), since SuperLU allocates outside Python's allocator
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    code = (
        "import numpy as np, scipy.spatial, scipy.sparse.linalg\n"
        "from hemiot.solver import _newton_step\n"
        "from tests.test_solver import K1, _wheel_system\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "diagram, G, nu = _wheel_system(4000)\n"
        "assert np.diff(diagram.neighbour_rows()[0])[0] == 4000\n"
        "before = peak()\n"
        "_newton_step(diagram, K1, G, nu)\n"
        "print(peak() - before)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out.split()[-1]) < 32 * 1024


def test_one_sparse_factor_per_newton_step(monkeypatch):
    # the Newton step factors once, through scipy.sparse.linalg.splu looked
    # up at call time, so a span wrapped around it sees every linear solve
    import scipy.sparse.linalg
    factor = scipy.sparse.linalg.splu
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factor(*args, **kwargs)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    domain = DiskDomain(np.zeros(2), 0.8)
    target = discretize(chart_disk(np.array([1.0, 0.5]), 2.0), 80,
                        domain.area)
    rep = solve(domain, K1, target, tol=1e-8).report
    # rejected trials build diagrams but solve nothing
    assert rep.converged and rep.diagrams_discarded
    assert len(calls) == rep.iterations
    assert all(shape == (len(target) - 1,) * 2 for shape in calls)
