import math

import numpy as np
import pytest
from scipy.integrate import quad

from hemiot.geometry import (
    cell_area_centroid,
    clip_halfplane,
    clip_to_circle,
    gauss_legendre,
    integrate_cell,
    polygon_area,
    polygon_centroid,
)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQ_LABELS = [("wall", i) for i in range(4)]


def test_polygon_area_and_centroid():
    assert polygon_area(SQUARE) == pytest.approx(1.0, abs=1e-15)
    assert polygon_centroid(SQUARE) == pytest.approx([0.5, 0.5], abs=1e-15)
    tri = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    assert polygon_area(tri) == pytest.approx(2.0, abs=1e-15)


def test_clip_halfplane_splits_square():
    v, lab = clip_halfplane(SQUARE, SQ_LABELS, np.array([1.0, 0.0]), 0.5,
                            ("nbr", 7), 1e-12)
    area, cen = cell_area_centroid(v, lab)
    assert area == pytest.approx(0.5, abs=1e-14)
    assert cen[0] == pytest.approx(0.25, abs=1e-14)
    assert any(l == ("nbr", 7) for l in lab)


def test_clip_halfplane_can_empty_the_cell():
    v, lab = clip_halfplane(SQUARE, SQ_LABELS, np.array([1.0, 0.0]), -0.5,
                            ("nbr", 0), 1e-12)
    assert len(v) < 3


def test_clip_to_circle_inscribed():
    big = [(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]
    labels = [("box", i) for i in range(4)]
    v, lab = clip_to_circle(big, labels, (0.0, 0.0), 1.0, 1e-12)
    area, cen = cell_area_centroid(v, lab)
    assert area == pytest.approx(math.pi, rel=1e-12)
    assert np.allclose(cen, 0.0, atol=1e-12)


def test_clip_to_circle_half_disk():
    v, lab = clip_halfplane([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)],
                            [("box", i) for i in range(4)],
                            np.array([1.0, 0.0]), 0.0, ("nbr", 1), 1e-12)
    v, lab = clip_to_circle(v, lab, (0.0, 0.0), 1.0, 1e-12)
    area, cen = cell_area_centroid(v, lab)
    assert area == pytest.approx(math.pi / 2.0, rel=1e-12)
    # centroid of a half disk sits 4R/(3pi) from the diameter
    assert cen[0] == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-10)


@pytest.mark.parametrize("x0", [-0.04, 0.0])
def test_clip_to_circle_tangent_edge_at_a_circle_vertex(x0):
    # the vertex (0, 0.6) lies on the circle and the top edge is tangent
    # there, so the edge leaves (or enters) the disk with no root found
    piece = [(x0, 0.52), (x0 + 0.04, 0.52), (x0 + 0.04, 0.6), (x0, 0.6)]
    v, lab = clip_to_circle(piece, [("grid", i) for i in range(4)],
                            (0.0, 0.0), 0.6, 1.2e-12)
    area, _ = cell_area_centroid(v, lab)
    exact, _ = quad(lambda x: math.sqrt(0.36 - x * x) - 0.52, x0, x0 + 0.04,
                    epsabs=1e-16, epsrel=1e-14)
    assert area == pytest.approx(exact, rel=1e-12)
    assert all(x * x + y * y <= 0.36 * (1.0 + 1e-12) for x, y in v)


def test_gauss_legendre_degree():
    x, w = gauss_legendre(4)  # nodes on [0, 1]
    for k in range(8):
        assert float((w * x ** k).sum()) == pytest.approx(1.0 / (k + 1), abs=1e-13)


def test_integrate_cell_constant_and_linear():
    out = integrate_cell(SQUARE, SQ_LABELS, lambda p: np.ones(len(p)))
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.5, abs=1e-12)
    assert out[2] == pytest.approx(0.5, abs=1e-12)


def test_integrate_cell_smooth_vs_closed_form():
    f = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    out = integrate_cell(SQUARE, SQ_LABELS, f, tol=1e-12)
    exact = (math.e - 1.0) * math.sin(1.0)
    assert out[0] == pytest.approx(exact, rel=1e-11)


def test_integrate_cell_on_disk_matches_radial_closed_form():
    big = [(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, 1.5)]
    v, lab = clip_to_circle(big, [("box", i) for i in range(4)],
                            (0.0, 0.0), 1.0, 1e-12)
    dens = lambda p: (1.0 + (p ** 2).sum(axis=1)) ** -2
    out = integrate_cell(v, lab, dens, tol=1e-11)
    # mass of the chart density inside radius r is pi r^2/(1+r^2)
    assert out[0] == pytest.approx(math.pi / 2.0, rel=1e-9)
