import math

import numpy as np
import pytest

from hemiot.chart import (
    HemispherePoint,
    c_exp,
    chart,
    chart_density,
    cost,
    gauss_curvature,
    graph_area_jacobian,
    great_circle_deviation,
    hemisphere_point,
    is_geodesically_convex,
    metric_in_chart,
    ring_chart_mass,
)
from hemiot.domains import grid_pieces
from hemiot.geometry import ARC, integrate_cell, ragged_cells
from hemiot.targets import chart_disk, chart_polygon


def test_hemisphere_point_validation():
    with pytest.raises(ValueError):
        HemispherePoint(np.array([1.0, 0.0]), -0.5)  # not unit
    with pytest.raises(ValueError):
        HemispherePoint(np.array([1.0, 0.0]), 0.0)   # equator
    with pytest.raises(ValueError):
        hemisphere_point([0.0, 0.0, 1.0])            # upper hemisphere


def test_chart_roundtrip():
    rng = np.random.default_rng(5)
    for p in rng.normal(0.0, 3.0, size=(50, 2)):
        q = chart(c_exp(p))
        assert np.allclose(q, p, rtol=1e-13, atol=1e-13)


def test_c_exp_values():
    y = c_exp(np.array([0.0, 0.0]))
    assert np.allclose(y.as_array(), [0.0, 0.0, -1.0])
    y = c_exp(np.array([1.0, 0.0]))
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(y.as_array(), [s, 0.0, -s])


def test_cost_is_linear_and_matches_pairing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=2)
        p = rng.normal(0.0, 2.0, size=2)
        # <x, y>/y_last with y = (p, -1)/sqrt(1+|p|^2) collapses to -<x, p>
        assert cost(x, c_exp(p)) == pytest.approx(-float(x @ p), rel=1e-12, abs=1e-12)
    x1, x2 = rng.normal(size=2), rng.normal(size=2)
    y = c_exp(rng.normal(size=2))
    assert cost(x1 + x2, y) == pytest.approx(cost(x1, y) + cost(x2, y), rel=1e-12)


def test_chart_density_formula():
    p = np.array([0.7, -0.4])
    q = 1.0 + float(p @ p)
    assert chart_density(p) == pytest.approx(q ** -2, rel=1e-14)
    batch = chart_density(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(batch, [1.0, 0.25])


def test_metric_eigenvalues_and_determinant():
    rng = np.random.default_rng(2)
    for _ in range(40):
        p = rng.normal(0.0, 2.0, size=2)
        q = 1.0 + float(p @ p)
        g = metric_in_chart(p)
        evals = np.sort(np.linalg.eigvalsh(g))
        assert np.allclose(evals, [q ** -2, q ** -1], rtol=1e-12)
        assert abs(np.linalg.det(g) - q ** -3) <= 1e-12
        # (-y_last) * sqrt(det g) reproduces the chart density
        y_last = -1.0 / math.sqrt(q)
        assert (-y_last) * math.sqrt(np.linalg.det(g)) == pytest.approx(
            chart_density(p), rel=1e-12)


def test_graph_area_jacobian():
    assert graph_area_jacobian(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(26.0))


def test_gauss_curvature_of_the_sphere_graph():
    # u = -sqrt(1-|x|^2) has curvature one; frozen hand-computed jets at x=(0.3, 0)
    grad = np.array([0.3144854510165755, 0.0])
    hess = np.diag([1.151961359035075, 1.0482848367219182])
    x = np.array([0.3, 0.0])
    w = 1.0 - float(x @ x)
    assert np.allclose(grad, x / math.sqrt(w), rtol=1e-14)
    assert gauss_curvature(hess, grad) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, size=2)
        w = 1.0 - float(x @ x)
        grad = x / math.sqrt(w)
        hess = (np.eye(2) * w + np.outer(x, x)) / w ** 1.5
        assert gauss_curvature(hess, grad) == pytest.approx(1.0, rel=1e-10)


def test_chart_segments_lie_on_great_circles():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p0 = rng.normal(0.0, 2.0, size=2)
        p1 = rng.normal(0.0, 2.0, size=2)
        t = rng.uniform()
        assert great_circle_deviation(p0, p1, t) <= 1e-12


def test_geodesic_convexity_of_regions():
    assert is_geodesically_convex(chart_disk(np.zeros(2), 1.0))
    assert is_geodesically_convex(
        chart_polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])))
    far_apart = [chart_disk(np.array([-3.0, 0.0]), 0.5),
                 chart_disk(np.array([3.0, 0.0]), 0.5)]
    assert not is_geodesically_convex(far_apart)


def _assert_masses_match_quadrature(cells, tol=0.0):
    # each cell integrated alone, its error estimate held to 1e-13 of its
    # own mass
    masses = ring_chart_mass(*ragged_cells(cells), tol)
    for (verts, labels), mass in zip(cells, masses):
        quad = integrate_cell(verts, labels, chart_density, 1e-13 * mass)[0]
        assert mass == pytest.approx(quad, rel=1e-12, abs=0.0)


def test_chart_masses_of_the_sphere_target_match_quadrature():
    # the sphere-benchmark target at N=2000: a chart disk about the origin,
    # every arc in closed form
    cells = [piece[1:3] for piece in grid_pieces(chart_disk(np.zeros(2), 0.75), 44)]
    assert len(cells) == 1600
    assert sum(any(lab[0] == ARC for lab in labels) for _, labels in cells) == 172
    _assert_masses_match_quadrature(cells)


def test_chart_masses_of_an_offcenter_disk_match_quadrature():
    # arcs off the origin: the parts between chord and arc by quadrature
    region = chart_disk(np.array([0.6, -0.3]), 0.8)
    cells = [piece[1:3] for piece in grid_pieces(region, 12)]
    _assert_masses_match_quadrature(cells, 1e-16)


# far out, quadrature cannot certify 1e-13 on smaller cells: the rounding of
# its fan triangles' corners floors the error estimate (8e-11 of the mass of
# a 1e-3 square at |p| = 50)
@pytest.mark.parametrize("center, size", [
    ((0.0, 0.0), 1e-3), ((0.0, 0.0), 0.1), ((0.0, 0.0), 1.0),
    ((0.3, -0.2), 1e-3), ((0.3, -0.2), 0.1), ((0.3, -0.2), 1.0),
    ((50.0, 0.0), 0.1), ((50.0, 0.0), 1.0),
    ((-30.0, 40.0), 0.1), ((-30.0, 40.0), 1.0)])
def test_chart_masses_of_triangles_and_squares_match_quadrature(center, size):
    unit = {"square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
            "triangle": [(-0.5, -0.25), (0.75, 0.0), (0.125, 0.5)]}
    cells = [([(center[0] + size * x, center[1] + size * y) for x, y in verts],
              [("wall", k) for k in range(len(verts))])
             for verts in unit.values()]
    _assert_masses_match_quadrature(cells)


@pytest.mark.parametrize("s, m", [(0.75, 40), (3.0, 25), (50.0, 30)])
def test_chart_masses_of_a_disk_about_the_origin_sum_to_its_closed_form(s, m):
    cells = [piece[1:3] for piece in grid_pieces(chart_disk(np.zeros(2), s), m)]
    total = ring_chart_mass(*ragged_cells(cells), 0.0).sum()
    assert total == pytest.approx(math.pi * s * s / (1.0 + s * s), rel=1e-14)
