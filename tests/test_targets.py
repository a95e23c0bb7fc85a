import math

import numpy as np
import pytest

from hemiot.domains import contains
from hemiot.targets import (
    DiscreteTarget,
    chart_disk,
    chart_polygon,
    discretize,
    full_hemisphere,
    region_mass,
    truncation_radius_for,
)


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
    from hemiot.geometry import integrate_cell
    region = chart_disk(np.array([0.6, -0.3]), 0.8)
    # dense polygonal proxy of the disk for an independent quadrature route
    ang = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    verts = np.column_stack([0.6 + 0.8 * np.cos(ang), -0.3 + 0.8 * np.sin(ang)])
    labels = [("wall", i) for i in range(len(verts))]
    quad = integrate_cell(list(map(tuple, verts)), labels,
                          lambda p: (1.0 + (p ** 2).sum(axis=1)) ** -2,
                          tol=1e-10)[0]
    assert region_mass(region) == pytest.approx(quad, rel=1e-5)


@pytest.mark.parametrize("N", [20, 500, 2000])
def test_grid_cell_masses_sum_to_the_closed_form(N):
    region = chart_disk(np.zeros(2), 0.9)
    mass = region_mass(region)
    t = discretize(region, N, mass)
    assert t.pre_rescale_mismatch <= 1e-12 * mass


def test_region_contains():
    disk = chart_disk(np.zeros(2), 1.0)
    assert contains(disk, np.array([0.5, 0.0]))
    assert not contains(disk, np.array([1.5, 0.0]))
    hemi = full_hemisphere(5.0)
    assert contains(hemi, np.array([4.9, 0.0]))
    assert not contains(hemi, np.array([5.1, 0.0]))


def test_discretize_disk_region():
    region = chart_disk(np.zeros(2), 0.75)
    t = discretize(region, 200, 1.7)
    assert len(t) <= 200
    assert np.all(t.masses > 0)
    assert float(t.masses.sum()) == pytest.approx(1.7, abs=1e-15)
    assert t.total == pytest.approx(1.7)
    assert all(contains(region, p, tol=1e-9) for p in t.sites)
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
