import math

import numpy as np
import pytest
from scipy.integrate import quad

from hemiot.domains import ConvexPolygonDomain, DiskDomain, grid_cells
from hemiot.geometry import (
    ARC,
    cell_area_centroid,
    clip_halfplane,
    clip_to_circle,
    gauss_legendre,
    integrate_cell,
    ragged_cells,
    ring_area_centroid,
)

from .ragged import cell_list

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQ_LABELS = [("wall", i) for i in range(4)]


def test_polygon_area_and_centroid():
    area, cen = cell_area_centroid(SQUARE, SQ_LABELS)
    assert area == pytest.approx(1.0, abs=1e-15)
    assert cen == pytest.approx([0.5, 0.5], abs=1e-15)
    tri = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    assert cell_area_centroid(tri, SQ_LABELS[:3])[0] == pytest.approx(
        2.0, abs=1e-15)


def _segment(center, R, a, b):
    # the circular segment between chord a -> b and its CCW arc: its area,
    # and its centroid's distance from the centre along the mid-angle
    ta = math.atan2(a[1] - center[1], a[0] - center[0])
    tb = math.atan2(b[1] - center[1], b[0] - center[0])
    sweep = tb - ta
    while sweep <= 0.0:
        sweep += 2.0 * math.pi
    area = 0.5 * R * R * (sweep - math.sin(sweep))
    if area <= 0.0:
        return 0.0, 0.0, 0.0
    dist = (4.0 * R * math.sin(0.5 * sweep) ** 3) \
        / (3.0 * (sweep - math.sin(sweep)))
    mid = ta + 0.5 * sweep
    return (area, area * (center[0] + dist * math.cos(mid)),
            area * (center[1] + dist * math.sin(mid)))


def _shoelace(verts, labels):
    # one cell by hand: the shoelace terms added in vertex order, then each
    # arc's circular segment in edge order; the vertex mean at zero area
    k = len(verts)
    area = mx = my = 0.0
    for e in range(k):
        (ax, ay), (bx, by) = verts[e], verts[(e + 1) % k]
        cross = ax * by - bx * ay
        area += cross
        mx += (ax + bx) * cross
        my += (ay + by) * cross
    area, mx, my = 0.5 * area, mx / 6.0, my / 6.0
    for e, lab in enumerate(labels):
        if lab[0] == ARC:
            s_area, sx, sy = _segment(lab[1], lab[2], verts[e],
                                      verts[(e + 1) % k])
            area += s_area
            mx += sx
            my += sy
    if area > 0:
        return area, (mx / area, my / area)
    sx = sy = 0.0
    for x, y in verts:
        sx += x
        sy += y
    return area, (sx / max(k, 1), sy / max(k, 1))


def _assert_matches_shoelace(cells, areas, centroids):
    assert len(cells) == len(areas) == len(centroids)
    for (verts, labels), area, cen in zip(cells, areas, centroids):
        want_area, want_cen = _shoelace(verts, labels)
        assert area == want_area
        assert tuple(cen) == want_cen


@pytest.mark.parametrize("domain, m", [
    (DiskDomain(np.array([0.3, -2.0]), 1.7), 15),
    (DiskDomain(np.zeros(2), 0.75), 44),
    (ConvexPolygonDomain(np.array([[0.0, 0.0], [1.3, 0.1], [1.0, 1.2],
                                   [0.1, 0.9]])), 22),
], ids=["disk", "chart-disk", "quadrilateral"])
def test_ring_area_centroid_is_the_shoelace_bit_for_bit(domain, m):
    grid = grid_cells(domain, m)
    cells = cell_list(grid.ring, grid.sizes, grid.arcs)
    assert any(lab[0] == ARC for _, labels in cells for lab in labels) \
        == isinstance(domain, DiskDomain)
    _assert_matches_shoelace(cells, grid.area, grid.centroid)
    # the kernel on its own, with a cell that has no vertices and one of
    # zero area in between
    cells[1:1] = [([], []), ([(0.5, 0.25), (0.5, 0.75)], [("nbr", 0)] * 2)]
    _assert_matches_shoelace(cells, *ring_area_centroid(*ragged_cells(cells)))


def test_solved_disk_diagram_cells_are_the_shoelace_bit_for_bit():
    from hemiot.domains import constant_density
    from hemiot.solver import solve
    from hemiot.targets import chart_disk, discretize

    domain = DiskDomain(np.array([0.1, -0.2]), 0.6)
    target = discretize(chart_disk(np.array([0.2, 0.1]), 0.8), 80, domain.area)
    diagram = solve(domain, constant_density(1.0), target).diagram
    cells = [(c.verts, c.labels) for c in diagram.cells if not c.is_empty]
    assert len(cells) == len(diagram.sites)
    assert sum(lab[0] == ARC for _, labels in cells for lab in labels) > 10
    _assert_matches_shoelace(cells, diagram.area, diagram.centroid)


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
