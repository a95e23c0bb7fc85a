import math

import numpy as np
import pytest
from scipy.integrate import quad

from hemiot.chart import ring_chart_mass
from hemiot.domains import (ConvexPolygonDomain, DiskDomain, domain_circle,
                            domain_clipper, grid_cells)
from hemiot.geometry import (
    ARC_EDGE,
    WALL,
    clip_halfplane,
    clip_to_circle,
    gauss_legendre,
    integrate_ring_cells,
    ring_area_centroid,
)
from hemiot.targets import chart_disk, chart_polygon, region_mass

from .ragged import cell_list, pieces

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_polygon_area_and_centroid():
    area, cen = ring_area_centroid(*pieces(SQUARE))
    assert area[0] == pytest.approx(1.0, abs=1e-15)
    assert cen[0] == pytest.approx([0.5, 0.5], abs=1e-15)
    tri = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    assert ring_area_centroid(*pieces(tri))[0][0] == pytest.approx(
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


def _shoelace(verts, labels, circle):
    # one cell by hand: the shoelace terms added in vertex order, then each
    # arc's circular segment of circle in edge order; the vertex mean at
    # zero area
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
        if lab == ARC_EDGE:
            s_area, sx, sy = _segment(*circle, verts[e], verts[(e + 1) % k])
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


def _assert_matches_shoelace(cells, areas, centroids, circle):
    assert len(cells) == len(areas) == len(centroids)
    for (verts, labels), area, cen in zip(cells, areas, centroids):
        want_area, want_cen = _shoelace(verts, labels, circle)
        assert area == want_area
        assert tuple(cen) == want_cen


@pytest.mark.parametrize("domain, m", [
    (DiskDomain(np.array([0.3, -2.0]), 1.7), 15),
    (DiskDomain(np.zeros(2), 0.75), 44),
    (ConvexPolygonDomain(np.array([[0.0, 0.0], [1.3, 0.1], [1.0, 1.2],
                                   [0.1, 0.9]])), 22),
], ids=["disk", "chart-disk", "quadrilateral"])
def test_ring_area_centroid_is_the_shoelace_bit_for_bit(domain, m):
    grid, circle = grid_cells(domain, m), domain_circle(domain)
    cells = cell_list(grid.ring, grid.sizes, grid.labels)
    assert any(lab == ARC_EDGE for _, labels in cells for lab in labels) \
        == isinstance(domain, DiskDomain)
    _assert_matches_shoelace(cells, grid.area, grid.centroid, circle)
    # the kernel on its own, with a cell that has no vertices and one of
    # zero area spliced in after the first
    k = grid.sizes[0]
    cut = (np.insert(grid.ring, k, [(0.5, 0.25), (0.5, 0.75)], axis=0),
           np.insert(grid.sizes, 1, [0, 2]), np.insert(grid.labels, k, [0, 0]))
    _assert_matches_shoelace(cell_list(*cut),
                             *ring_area_centroid(*cut, circle), circle)


def test_solved_disk_diagram_cells_are_the_shoelace_bit_for_bit():
    from hemiot.domains import constant_density
    from hemiot.solver import solve
    from hemiot.targets import chart_disk, discretize

    domain = DiskDomain(np.array([0.1, -0.2]), 0.6)
    target = discretize(chart_disk(np.array([0.2, 0.1]), 0.8), 80, domain.area)
    diagram = solve(domain, constant_density(1.0), target).diagram
    cells = [(c.verts, c.labels) for c in diagram.cells if not c.is_empty]
    assert len(cells) == len(diagram.sites)
    assert sum(lab == ARC_EDGE for _, labels in cells for lab in labels) > 10
    _assert_matches_shoelace(cells, diagram.area, diagram.centroid,
                             domain_circle(domain))


def test_clip_halfplane_splits_square():
    ring, sizes, labels = clip_halfplane(
        np.array(SQUARE), np.array([4]), WALL - np.arange(4), np.array([1.0, 0.0]), 0.5,
        7, 1e-12)
    area, cen = ring_area_centroid(ring, sizes, labels)
    assert area[0] == pytest.approx(0.5, abs=1e-14)
    assert cen[0, 0] == pytest.approx(0.25, abs=1e-14)
    assert 7 in labels.tolist()


def test_clip_halfplane_can_empty_the_cell():
    ring, sizes, labels = clip_halfplane(
        np.array(SQUARE), np.array([4]), WALL - np.arange(4), np.array([1.0, 0.0]),
        -0.5, 0, 1e-12)
    assert sizes.tolist() == [0] and len(ring) == len(labels) == 0


def _random_convex_cells(rng, count):
    # convex polygons of 3 to 9 vertices: points on circles of random
    # centre and radius, in CCW order
    cells = []
    for _ in range(count):
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 10))))
        cells.append(rng.normal(0.0, 1.0, 2) + rng.uniform(0.1, 3.0)
                     * np.column_stack([np.cos(t), np.sin(t)]))
    return cells


@pytest.mark.parametrize("near_vertex", [False, True],
                         ids=["random", "near-vertex"])
def test_clip_halfplane_halves_add_up_to_the_cell(near_vertex):
    # the parts of each cell on either side of its own line H, cut in one
    # call per side, have areas that sum to the cell's; the cells not
    # chosen pass through as they are
    rng = np.random.default_rng(11)
    cells = _random_convex_cells(rng, 400)
    ring, sizes, labels = pieces(*cells)
    normal = rng.normal(size=(len(cells), 2))
    normal /= np.hypot(*normal.T)[:, None]
    if near_vertex:
        at = [v[rng.integers(len(v))] for v in cells]
        offset = np.einsum("ij,ij->i", at, normal) \
            + rng.choice([-1e-13, 0.0, 1e-13], len(cells))
    else:
        offset = rng.normal(0.0, 1.0, len(cells))
    whole = ring_area_centroid(ring, sizes, labels)[0]
    chosen = np.flatnonzero(rng.random(len(cells)) < 0.8)
    side = [clip_halfplane(ring, sizes, labels, s * normal[chosen],
                           s * offset[chosen], 5, 1e-12, chosen)
            for s in (1.0, -1.0)]
    halves = [ring_area_centroid(*cut)[0] for cut in side]
    assert np.allclose((halves[0] + halves[1])[chosen], whole[chosen],
                       rtol=0.0, atol=1e-12 * whole.max())
    rest = np.ones(len(cells), dtype=bool)
    rest[chosen] = False
    for cut in side:
        assert np.array_equal(cut[1][rest], sizes[rest])
        assert np.array_equal(cut[0][np.repeat(rest, cut[1])],
                              ring[np.repeat(rest, sizes)])
        assert set(cut[2].tolist()) <= {5, labels[0]}


def test_clip_to_circle_inscribed():
    cut = clip_to_circle(*pieces([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0),
                                  (-2.0, 2.0)]), (0.0, 0.0), 1.0, 1e-12)
    area, cen = ring_area_centroid(*cut, ((0.0, 0.0), 1.0))
    assert cut[2].tolist() == [ARC_EDGE, ARC_EDGE]
    assert area[0] == pytest.approx(math.pi, rel=1e-12)
    assert np.allclose(cen[0], 0.0, atol=1e-12)


def test_clip_to_circle_half_disk():
    cut = clip_halfplane(*pieces([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0),
                                  (-2.0, 2.0)]),
                         np.array([1.0, 0.0]), 0.0, 1, 1e-12)
    cut = clip_to_circle(*cut, (0.0, 0.0), 1.0, 1e-12)
    area, cen = ring_area_centroid(*cut, ((0.0, 0.0), 1.0))
    assert area[0] == pytest.approx(math.pi / 2.0, rel=1e-12)
    # centroid of a half disk sits 4R/(3pi) from the diameter
    assert cen[0, 0] == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-10)


@pytest.mark.parametrize("x0", [-0.04, 0.0])
def test_clip_to_circle_tangent_edge_at_a_circle_vertex(x0):
    # the vertex (0, 0.6) lies on the circle and the top edge is tangent
    # there, so the edge leaves (or enters) the disk with no root found
    piece = [(x0, 0.52), (x0 + 0.04, 0.52), (x0 + 0.04, 0.6), (x0, 0.6)]
    cut = clip_to_circle(*pieces(piece), (0.0, 0.0), 0.6, 1.2e-12)
    area, _ = ring_area_centroid(*cut, ((0.0, 0.0), 0.6))
    exact, _ = quad(lambda x: math.sqrt(0.36 - x * x) - 0.52, x0, x0 + 0.04,
                    epsabs=1e-16, epsrel=1e-14)
    assert area[0] == pytest.approx(exact, rel=1e-12)
    assert all(x * x + y * y <= 0.36 * (1.0 + 1e-12)
               for x, y in cut[0].tolist())


def test_gauss_legendre_degree():
    x, w = gauss_legendre(4)  # nodes on [0, 1]
    for k in range(8):
        assert float((w * x ** k).sum()) == pytest.approx(1.0 / (k + 1), abs=1e-13)


def test_integrate_cell_constant_and_linear():
    out = integrate_ring_cells(*pieces(SQUARE), lambda p: np.ones(len(p)))[0]
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.5, abs=1e-12)
    assert out[2] == pytest.approx(0.5, abs=1e-12)


def test_integrate_cell_smooth_vs_closed_form():
    f = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    out = integrate_ring_cells(*pieces(SQUARE), f, tol=1e-12)[0]
    exact = (math.e - 1.0) * math.sin(1.0)
    assert out[0] == pytest.approx(exact, rel=1e-11)


def test_integrate_cell_on_disk_matches_radial_closed_form():
    cut = clip_to_circle(*pieces([(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5),
                                  (-1.5, 1.5)]), (0.0, 0.0), 1.0, 1e-12)
    dens = lambda p: (1.0 + (p ** 2).sum(axis=1)) ** -2
    out = integrate_ring_cells(*cut, dens, tol=1e-11,
                               circle=((0.0, 0.0), 1.0))[0]
    # mass of the chart density inside radius r is pi r^2/(1+r^2)
    assert out[0] == pytest.approx(math.pi / 2.0, rel=1e-9)


@pytest.mark.parametrize("region", [
    chart_disk(np.zeros(2), 0.75),
    chart_disk(np.array([0.6, -0.3]), 0.8),
    chart_polygon(np.array([[0.0, 0.0], [1.3, 0.1], [1.0, 1.2], [0.1, 0.9]])),
], ids=["centred-circle", "offcentre-circle", "polygon"])
def test_clipper_output_feeds_every_kernel(region):
    # 9 x 9 squares over the region's box, cut by its clipper; the arrays go
    # as they come out, with the region's circle, to the area kernel, to
    # the quadrature of f = 1 and of a linear f, and to the chart masses
    lo, hi = region.bounding_box()
    (hx, hy), t = (hi - lo) / 9, np.arange(81)
    x0, y0 = lo[0] + hx * (t // 9), lo[1] + hy * (t % 9)
    squares = np.stack([np.column_stack(c) for c in
                        ((x0, y0), (x0 + hx, y0), (x0 + hx, y0 + hy),
                         (x0, y0 + hy))], axis=1)
    cut = domain_clipper(region)(*pieces(*squares))
    circle = domain_circle(region)
    assert (cut[2] == ARC_EDGE).any() == (circle is not None)
    if circle is None:
        v = region.vertices
        w = np.roll(v, -1, axis=0)
        exact = 0.5 * float((v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]).sum())
    else:
        exact = math.pi * circle[1] ** 2
    area, centroid = ring_area_centroid(*cut, circle)
    assert area.sum() == pytest.approx(exact, rel=1e-13)
    ones = integrate_ring_cells(*cut, lambda p: np.ones(len(p)), 1e-12, circle)
    assert ones[:, 0].sum() == pytest.approx(exact, rel=1e-11)
    assert np.allclose(ones[:, 0], area, rtol=0.0, atol=1e-12)
    assert np.allclose(ones[:, 1:], area[:, None] * centroid, rtol=0.0,
                       atol=1e-12)
    # a linear density integrates to the area times its centroid value
    linear = integrate_ring_cells(
        *cut, lambda p: 1.0 + p[:, 0] - 2.0 * p[:, 1], 1e-12, circle)
    assert np.allclose(linear[:, 0],
                       area * (1.0 + centroid[:, 0] - 2.0 * centroid[:, 1]),
                       rtol=0.0, atol=1e-12)
    mass = ring_chart_mass(*cut, 1e-14, circle)
    assert (mass >= 0.0).all()
    assert mass.sum() == pytest.approx(region_mass(region), rel=1e-12)
