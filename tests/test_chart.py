import math

import numpy as np
import pytest

from hemiot.chart import (
    c_exp_rows,
    chart,
    chart_density,
    cost,
    great_circle_deviation,
    metric_in_chart,
    ring_chart_mass,
)
from hemiot.domains import grid_cells
from hemiot.geometry import ARC_EDGE, integrate_ring_cells
from hemiot.targets import chart_disk

from .ragged import one_by_one, pieces


def test_chart_roundtrip():
    p = np.random.default_rng(5).normal(0.0, 3.0, size=(50, 2))
    for y, q in zip(c_exp_rows(p), p):
        assert np.allclose(chart(y), q, rtol=1e-13, atol=1e-13)


def test_c_exp_rows_is_c_exp_bit_for_bit():
    # the one-point formula p -> (p, -1) / sqrt(1 + p @ p) row by row, near
    # the origin, far out, the origin itself and a tiny row
    def c_exp(q):
        s = 1.0 / math.sqrt(1.0 + float(q @ q))
        return np.append(q * s, -s)

    rng = np.random.default_rng(5)
    p = np.concatenate([rng.normal(0.0, 1.0, (500, 2)),
                        rng.normal(0.0, 100.0, (500, 2)),
                        [[0.0, 0.0], [1e-300, -0.0]]])
    want = np.stack([c_exp(q) for q in p])
    assert c_exp_rows(p).tobytes() == want.tobytes()


def test_c_exp_values():
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(c_exp_rows(np.array([[0.0, 0.0], [1.0, 0.0]])),
                       [[0.0, 0.0, -1.0], [s, 0.0, -s]])


def test_cost_is_linear_and_matches_pairing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=2)
        p = rng.normal(0.0, 2.0, size=2)
        # <x, y>/y_last with y = (p, -1)/sqrt(1+|p|^2) collapses to -<x, p>
        assert cost(x, c_exp_rows(p[None])[0]) == pytest.approx(
            -float(x @ p), rel=1e-12, abs=1e-12)
    x1, x2 = rng.normal(size=2), rng.normal(size=2)
    y = c_exp_rows(rng.normal(size=(1, 2)))[0]
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


def test_chart_segments_lie_on_great_circles():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p0 = rng.normal(0.0, 2.0, size=2)
        p1 = rng.normal(0.0, 2.0, size=2)
        t = rng.uniform()
        assert great_circle_deviation(p0, p1, t) <= 1e-12


def _assert_masses_match_quadrature(cells, circle=None, tol=0.0):
    # each cell integrated alone, its error estimate held to 1e-13 of its
    # own mass
    masses = ring_chart_mass(*cells, tol, circle)
    for cell, mass in zip(one_by_one(*cells), masses):
        quad = integrate_ring_cells(*cell, chart_density, 1e-13 * mass,
                                    circle)[0]
        assert mass == pytest.approx(quad, rel=1e-12, abs=0.0)


def test_chart_masses_of_the_sphere_target_match_quadrature():
    # the sphere-benchmark target at N=2000: a chart disk about the origin,
    # every arc in closed form
    region = chart_disk(np.zeros(2), 0.75)
    grid = grid_cells(region, 44)
    assert len(grid.sizes) == 1600
    arc_cells = np.repeat(np.arange(1600), grid.sizes)[grid.labels == ARC_EDGE]
    assert len(np.unique(arc_cells)) == 172
    _assert_masses_match_quadrature(grid[:3], region.circle)


def test_chart_masses_of_an_offcenter_disk_match_quadrature():
    # arcs off the origin: the parts between chord and arc by quadrature
    region = chart_disk(np.array([0.6, -0.3]), 0.8)
    grid = grid_cells(region, 12)
    _assert_masses_match_quadrature(grid[:3], region.circle, 1e-16)


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
    cells = pieces(*([(center[0] + size * x, center[1] + size * y)
                      for x, y in verts] for verts in unit.values()))
    _assert_masses_match_quadrature(cells)


@pytest.mark.parametrize("s, m", [(0.75, 40), (3.0, 25), (50.0, 30)])
def test_chart_masses_of_a_disk_about_the_origin_sum_to_its_closed_form(s, m):
    region = chart_disk(np.zeros(2), s)
    grid = grid_cells(region, m)
    total = ring_chart_mass(grid.ring, grid.sizes, grid.labels, 0.0,
                            region.circle).sum()
    assert total == pytest.approx(math.pi * s * s / (1.0 + s * s), rel=1e-14)
