import math
import time
import warnings

import numpy as np
import pytest

from hemiot.domains import (
    ConeSpec,
    ConvexPolygonDomain,
    DiskDomain,
    SourceDensity,
    boundary_geometry,
    clip_eps,
    cone_memberships,
    constant_density,
    d0_threshold,
    grid_cells,
    inradius_point,
    lambda_constant,
    make_cone_spec,
    theta_of,
    total_mass,
    unit_ball_volume,
)
from hemiot.geometry import ARC_EDGE, ring_area_centroid
from hemiot.targets import DiscreteTarget, full_hemisphere

from .ragged import cell_list, pieces

UNIT_SQUARE = ConvexPolygonDomain(np.array([[-0.5, -0.5], [0.5, -0.5],
                                            [0.5, 0.5], [-0.5, 0.5]]))
UNIT_DISK = DiskDomain(np.zeros(2), 1.0)


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):  # reflex corner
        ConvexPolygonDomain(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1],
                                      [1.0, 1.0]]))


def test_area_and_centroid():
    assert UNIT_SQUARE.area == pytest.approx(1.0)
    assert UNIT_DISK.area == pytest.approx(math.pi)
    assert np.allclose(UNIT_SQUARE.centroid, 0.0)


def test_contains_and_distance():
    assert UNIT_SQUARE.contains(np.array([[0.49, 0.0]]))[0]
    assert not UNIT_SQUARE.contains(np.array([[0.51, 0.0]]))[0]
    assert UNIT_SQUARE.distance(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.5)
    assert UNIT_SQUARE.distance(np.array([[0.3, 0.1]]))[0] == pytest.approx(0.2)
    assert UNIT_DISK.distance(np.array([[0.25, 0.0]]))[0] == pytest.approx(0.75)
    pts = np.array([[0.0, 0.0], [0.9, 0.0], [2.0, 0.0]])
    d = UNIT_DISK.distance(pts)
    assert np.allclose(d, [1.0, 0.1, -1.0])


def test_nearest_boundary_point():
    q = UNIT_DISK.nearest(np.array([[0.2, 0.0]]))[0]
    assert np.allclose(q, [1.0, 0.0])
    q = UNIT_SQUARE.nearest(np.array([[0.3, 0.1]]))[0]
    assert np.allclose(q, [0.5, 0.1])
    # the centre is equally near all four edges: the first edge wins
    q = UNIT_SQUARE.nearest(np.array([[0.0, 0.0]]))[0]
    assert np.array_equal(q, [0.0, -0.5])


def test_polygon_distance_outside_is_to_the_nearest_point():
    outside = np.array([[0.9, 0.1], [0.8, 0.7], [-0.6, -0.9], [0.0, 2.0]])
    d = UNIT_SQUARE.distance(outside)
    near = UNIT_SQUARE.nearest(outside)
    assert np.allclose(near, [[0.5, 0.1], [0.5, 0.5], [-0.5, -0.5],
                              [0.0, 0.5]])
    assert np.allclose(-d, np.linalg.norm(outside - near, axis=1))


def _clipped_squares(domain, m):
    # every grid square through the domain's clipper, one at a time
    lo, hi = domain.bounding_box()
    clip, eps = domain.clip, clip_eps(domain)
    hx, hy = (hi - lo) / m
    out = []
    for i in range(m):
        for j in range(m):
            x0, y0 = lo[0] + i * hx, lo[1] + j * hy
            square = [(x0, y0), (x0 + hx, y0), (x0 + hx, y0 + hy),
                      (x0, y0 + hy)]
            ring, sizes, labels = clip(*pieces(square))
            area, cen = ring_area_centroid(ring, sizes, labels,
                                           domain.circle)
            if area[0] > (10 * eps) ** 2:
                out.append((square, ring.tolist(),
                            np.flatnonzero(labels == ARC_EDGE).tolist(),
                            area[0], cen[0]))
    return out


@pytest.mark.parametrize("domain", [
    DiskDomain(np.array([0.3, -2.0]), 1.7),
    ConvexPolygonDomain(np.array([[0.0, 0.0], [1.3, 0.1], [1.0, 1.2],
                                  [0.1, 0.9]])),
], ids=["disk", "polygon"])
@pytest.mark.parametrize("m", [1, 2, 15, 44])
def test_grid_cells_match_clipping_every_square(domain, m):
    # all squares are cut in one call; every piece is still the one of
    # cutting its square alone, in the same order, with the same vertices,
    # arcs, area and centroid bits, and the pieces tile the domain
    grid, ref = grid_cells(domain, m), _clipped_squares(domain, m)
    cells = cell_list(grid.ring, grid.sizes, grid.labels)
    assert len(cells) == len(grid.area) == len(grid.squares) == len(ref)
    assert (grid.labels == ARC_EDGE).any() == isinstance(domain, DiskDomain)
    for k, ((verts, labels), want) in enumerate(zip(cells, ref)):
        square, want_verts, want_arcs, area, centroid = want
        assert list(map(tuple, grid.squares[k].tolist())) == square
        assert list(map(list, verts)) == want_verts
        assert [e for e, lab in enumerate(labels) if lab == ARC_EDGE] \
            == want_arcs
        assert grid.area[k] == area
        assert np.array_equal(grid.centroid[k], centroid)
    assert grid.area.sum() == pytest.approx(domain.area, rel=1e-13)


def test_inradius_point():
    c, r_in = inradius_point(UNIT_SQUARE)
    assert UNIT_SQUARE.distance(c[None])[0] == pytest.approx(r_in, abs=1e-9)
    assert r_in == pytest.approx(0.5, abs=1e-9)


def test_total_mass_regimes():
    mass, regime = total_mass(UNIT_DISK, constant_density(1.0))
    assert mass == pytest.approx(math.pi, rel=1e-12)
    assert regime == "critical"
    _, regime = total_mass(UNIT_DISK, constant_density(0.5))
    assert regime == "subcritical"
    _, regime = total_mass(UNIT_DISK, constant_density(2.0))
    assert regime == "infeasible"


def test_total_mass_quadrature_vs_closed_form():
    K = SourceDensity(fn=lambda p: (p ** 2).sum(axis=1))
    mass, regime = total_mass(UNIT_DISK, K, tol=1e-10)
    assert mass == pytest.approx(math.pi / 2.0, rel=1e-9)
    assert regime == "subcritical"
    Ksq = SourceDensity(fn=lambda p: np.exp(p[:, 0]))
    sq_mass, _ = total_mass(UNIT_SQUARE, Ksq, tol=1e-10)
    assert sq_mass == pytest.approx(2.0 * math.sinh(0.5), rel=1e-9)


@pytest.mark.parametrize("domain", [UNIT_DISK, UNIT_SQUARE],
                         ids=["disk", "square"])
def test_total_mass_warns_when_the_density_vanishes_on_a_panel(domain):
    # max(x1, 0) is zero on the whole left half of either domain
    half = SourceDensity(fn=lambda p: np.maximum(p[:, 0], 0.0))
    with pytest.warns(RuntimeWarning, match="density vanishes"):
        mass, _ = total_mass(domain, half, tol=1e-10)
    exact = 2.0 / 3.0 if domain is UNIT_DISK else 1.0 / 8.0
    assert mass == pytest.approx(exact, rel=1e-8)
    positive = SourceDensity(fn=lambda p: 1.0 + np.maximum(p[:, 0], 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total_mass(domain, positive, tol=1e-10)


def test_source_density_validation():
    with pytest.raises(ValueError):
        SourceDensity(fn=lambda p: p[:, 0], constant=1.0)
    with pytest.raises(ValueError):
        SourceDensity(constant=1.0, decay=(1.0, 1.5, 0.1))
    dens = SourceDensity(constant=2.0, lower_bound=1.0, upper_bound=3.0)
    nodes = np.array([[0.0, 0.0], [0.1, 0.2]])
    dens.validate(UNIT_DISK, nodes)
    bad = SourceDensity(fn=lambda p: p[:, 0], lower_bound=0.5)
    with pytest.raises(ValueError):
        bad.validate(UNIT_DISK, nodes)


def test_boundary_geometry_of_disk():
    geo = boundary_geometry(UNIT_DISK)
    assert geo.R0 == pytest.approx(1.0)
    assert geo.L == pytest.approx(1.0)
    assert geo.rho == pytest.approx(min(1.0 / (2.0 * math.sqrt(2.0)), 0.95))


@pytest.mark.parametrize("R", [0.1, 1.0, 5.0])
def test_disk_chart_inequalities_on_sampled_windows(R):
    # in the tangent-line chart the circle is h(s) = R - sqrt(R^2 - s^2)
    geo = boundary_geometry(DiskDomain(np.array([0.3, -0.2]), R))
    assert geo.rho == pytest.approx(min(R / (2.0 * math.sqrt(2.0)), 0.95))
    if R == 5.0:
        assert geo.rho == 0.95
    s = np.linspace(-geo.rho, geo.rho, 2001)
    h = R - np.sqrt(R * R - s * s)
    assert np.max(np.abs(h)) <= (1.0 - math.sqrt(7.0 / 8.0)) * R + 1e-15
    assert (1.0 - math.sqrt(7.0 / 8.0)) * R < geo.C1 * geo.rho
    slopes = np.abs(np.diff(h) / np.diff(s))
    assert np.max(slopes) <= 1.0 / math.sqrt(7.0) < geo.L
    assert geo.R0 == R


def test_boundary_geometry_rejects_polygons_at_once():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="disks only"):
        boundary_geometry(UNIT_SQUARE)
    assert time.perf_counter() - t0 < 1.0


def test_frozen_structural_constants():
    # Lambda(n=2, delta=1/2, C0=1, L=1, R0=1), hand-evaluated once
    lam = lambda_constant(2, 0.5, 1.0, 1.0, 1.0)
    assert lam == pytest.approx(0.27483519595189988, rel=1e-13)
    geo = boundary_geometry(UNIT_DISK)
    d0 = d0_threshold(geo)
    assert d0 == pytest.approx(1.0 / 640.0, rel=1e-12)
    assert theta_of(d0, geo.R0) == pytest.approx(math.sqrt(d0 / 6.0), rel=1e-13)


def test_lambda_monotonicity():
    base = lambda_constant(2, 0.5, 1.0, 1.0, 1.0)
    assert lambda_constant(2, 0.5, 2.0, 1.0, 1.0) < base   # more curvature mass
    assert lambda_constant(2, 0.5, 1.0, 1.0, 2.0) < base   # larger enclosing ball
    assert lambda_constant(2, 0.25, 1.0, 1.0, 1.0) > 0.0


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec(np.zeros(2), np.array([1.0, 0.0]), 0.1, 0.5)  # theta too big
    with pytest.raises(ValueError):
        ConeSpec(np.zeros(2), np.array([2.0, 0.0]), 0.1, 0.1)  # v0 not unit


def test_make_cone_spec_geometry():
    x0 = np.array([0.9, 0.0])
    spec = make_cone_spec(UNIT_DISK, x0)
    assert spec.d0 == pytest.approx(0.1)
    assert np.allclose(spec.v0, [1.0, 0.0])
    assert np.allclose(spec.x0 + spec.d0 * spec.v0, [1.0, 0.0])
    assert spec.theta == pytest.approx(math.sqrt(0.1 / 6.0))


@pytest.mark.parametrize("make", [
    lambda: UNIT_DISK,
    lambda: UNIT_SQUARE,
    lambda: full_hemisphere(10.0),
    lambda: make_cone_spec(UNIT_DISK, np.array([0.9, 0.0])),
    lambda: DiscreteTarget(np.array([[0.0, 0.0], [0.5, 0.0]]),
                           np.array([1.0, 2.0])),
], ids=["disk", "polygon", "hemisphere", "cone_spec", "discrete_target"])
def test_array_holding_records_compare_by_identity(make):
    # field-wise == would compare ndarrays and raise; identity does not
    a, b = make(), make()
    assert a == a
    assert (a == b) is (a is b)
    assert a in [b, a]
    assert hash(a) == hash(a)


def test_cone_memberships():
    spec = ConeSpec(np.array([0.5, 0.0]), np.array([1.0, 0.0]), 0.5,
                    theta_of(0.5, 1.0))
    # moving toward the boundary stays in E; straight backwards leaves it
    assert cone_memberships(spec, np.array([0.8, 0.0]), np.zeros(2),
                            np.zeros(2))[0]
    assert not cone_memberships(spec, np.array([0.1, 0.0]), np.zeros(2),
                                np.zeros(2))[0]
    # gradient side: aligned short offsets are in E*, opposite ones are not
    p0 = np.array([2.0, 1.0])
    assert cone_memberships(spec, spec.x0, p0 + 0.5 * spec.v0, p0)[1]
    assert not cone_memberships(spec, spec.x0, p0 - 0.5 * spec.v0, p0)[1]
    assert not cone_memberships(spec, spec.x0, p0 + 1.5 * spec.v0, p0)[1]
    assert not cone_memberships(spec, spec.x0, p0, p0)[1]


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
