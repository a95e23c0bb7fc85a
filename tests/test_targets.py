import math

import numpy as np
import pytest

from hemiot.targets import (
    DiscreteTarget,
    chart_disk,
    chart_polygon,
    discretize,
    full_hemisphere,
    region_mass,
    truncation_radius_for,
)

from .ragged import pieces


def test_truncation_radius():
    P = truncation_radius_for(math.pi * 1e-4)
    assert P == pytest.approx(99.99499987499375, rel=1e-14)
    # leftover tail is exactly the requested epsilon
    assert math.pi / (1.0 + P * P) == pytest.approx(math.pi * 1e-4, rel=1e-12)
    with pytest.raises(ValueError):
        truncation_radius_for(0.0)
    with pytest.raises(ValueError):
        truncation_radius_for(4.0)


def test_region_mass_closed_forms():
    assert region_mass(chart_disk(np.zeros(2), 1.0)) == pytest.approx(
        math.pi / 2.0, rel=1e-13)
    P = 10.0
    assert region_mass(full_hemisphere(P)) == pytest.approx(
        math.pi * P * P / (1.0 + P * P), rel=1e-13)
    square = chart_polygon(np.array([[0.0, 0.0], [1.0, 0.0],
                                     [1.0, 1.0], [0.0, 1.0]]))
    assert region_mass(square) == pytest.approx(0.4352098756835516, rel=1e-11)


def test_region_mass_offcenter_disk_vs_quadrature():
    from hemiot.geometry import integrate_ring_cells
    region = chart_disk(np.array([0.6, -0.3]), 0.8)
    # dense polygonal proxy of the disk for an independent quadrature route
    ang = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    verts = np.column_stack([0.6 + 0.8 * np.cos(ang), -0.3 + 0.8 * np.sin(ang)])
    quad = integrate_ring_cells(*pieces(verts),
                                lambda p: (1.0 + (p ** 2).sum(axis=1)) ** -2,
                                tol=1e-10)[0]
    assert region_mass(region) == pytest.approx(quad, rel=1e-5)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature called")


@pytest.mark.parametrize("a", [1.0, 10.0, 100.0])
def test_region_mass_of_a_square_is_closed_form(a, monkeypatch):
    from scipy.integrate import quad

    import hemiot.chart
    monkeypatch.setattr(hemiot.chart, "integrate_panels", _no_quadrature)

    def F(y, c2):
        # the y-antiderivative of (c^2 + y^2)^-2, c^2 = 1 + x^2
        c = math.sqrt(c2)
        return y / (2.0 * c2 * (c2 + y * y)) + math.atan(y / c) / (2.0 * c2 * c)

    ref = quad(lambda x: F(a, 1.0 + x * x) - F(-a, 1.0 + x * x), -a, a,
               epsabs=0.0, epsrel=1.2e-14, limit=200)[0]
    square = chart_polygon(np.array([[-a, -a], [a, -a], [a, a], [-a, a]]))
    assert region_mass(square) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("center, radius", [((0.6, -0.3), 0.8),
                                            ((1.5, -2.0), 0.4)])
def test_offcenter_disk_mass_lies_between_its_256_gons(center, radius):
    # the polygons' masses are closed form; the disk's own comes from
    # quadrature between its chords and arcs
    ang = 2.0 * math.pi * np.arange(256) / 256
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    inner, outer = (region_mass(chart_polygon(np.array(center) + r * ring))
                    for r in (radius, radius / math.cos(math.pi / 256)))
    assert inner < region_mass(chart_disk(np.array(center), radius)) < outer


@pytest.mark.parametrize("N", [20, 500, 2000])
def test_grid_cell_masses_sum_to_the_closed_form(N):
    region = chart_disk(np.zeros(2), 0.9)
    mass = region_mass(region)
    t = discretize(region, N, mass)
    assert abs(t.rescale_factor - 1) <= 1e-12


def test_region_contains():
    disk = chart_disk(np.zeros(2), 1.0)
    assert disk.contains(np.array([[0.5, 0.0]]))[0]
    assert not disk.contains(np.array([[1.5, 0.0]]))[0]
    hemi = full_hemisphere(5.0)
    assert hemi.contains(np.array([[4.9, 0.0]]))[0]
    assert not hemi.contains(np.array([[5.1, 0.0]]))[0]


def test_discretize_disk_region():
    region = chart_disk(np.zeros(2), 0.75)
    t = discretize(region, 200, 1.7)
    assert len(t) <= 200
    assert np.all(t.masses > 0)
    assert float(t.masses.sum()) == pytest.approx(1.7, abs=1e-15)
    assert t.total == pytest.approx(1.7)
    assert region.contains(t.sites, tol=1e-9).all()
    # grid discretization of a well-resolved region needs only a mild rescale
    assert 0.5 <= t.rescale_factor <= 2.0


def test_discretize_is_deterministic():
    region = chart_disk(np.zeros(2), 0.75)
    a = discretize(region, 150, 1.0)
    b = discretize(region, 150, 1.0)
    assert np.array_equal(a.sites, b.sites)
    assert np.array_equal(a.masses, b.masses)


def test_discretize_polygon_region():
    region = chart_polygon(np.array([[-0.4, -0.4], [0.4, -0.4],
                                     [0.4, 0.4], [-0.4, 0.4]]))
    t = discretize(region, 64, 0.5)
    assert len(t) <= 64
    assert float(t.masses.sum()) == pytest.approx(0.5, abs=1e-15)
    assert np.all(np.abs(t.sites) <= 0.4 + 1e-12)


def test_discretize_hemisphere_polar_rings():
    P = truncation_radius_for(math.pi * 1e-4)
    region = full_hemisphere(P)
    t = discretize(region, 4000, math.pi)
    assert len(t) <= 4000
    assert float(t.masses.sum()) == pytest.approx(math.pi, abs=1e-14)
    radii = np.linalg.norm(t.sites, axis=1)
    assert radii.max() <= P + 1e-9
    # equal-mass polar layout; the final atom absorbs the rounding pin
    assert np.ptp(t.masses[:-1]) <= 1e-12 * t.masses.max()
    assert abs(t.masses[-1] - t.masses[0]) <= 1e-9 * t.masses.max()


def test_discrete_target_validation():
    with pytest.raises(ValueError):
        DiscreteTarget(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DiscreteTarget(np.array([[0.0, 0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        DiscreteTarget(np.array([[0.0, 0.0]]), np.array([1.0]), total=2.0)
    t = DiscreteTarget(np.array([[0.0, 0.0], [1.0, 0.0]]),
                       np.array([0.25, 0.75]))
    assert t.total == pytest.approx(1.0)
    assert len(t) == 2


def test_targets_and_diagrams_share_one_duplicate_site_rule():
    from hemiot.laguerre import laguerre_diagram
    domain = chart_disk(np.zeros(2), 1.0)
    for gap, distinct in ((1e-14, False), (1e-9, True)):
        sites = np.array([[0.25, 0.125], [0.25 + gap, 0.125], [-0.5, 0.25]])
        if distinct:
            DiscreteTarget(sites, np.ones(3))
            assert laguerre_diagram(domain, sites, np.zeros(3)).nonempty.any()
            continue
        with pytest.raises(ValueError, match="distinct"):
            DiscreteTarget(sites, np.ones(3))
        with pytest.raises(ValueError, match="duplicate"):
            laguerre_diagram(domain, sites, np.zeros(3))
