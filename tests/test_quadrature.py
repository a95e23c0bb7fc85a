# The one adaptive quadrature engine behind total_mass,
# integrate_ring_cells and compute_measures: agreement between its panel
# kinds and between one batched call and per-cell calls, determinism, and
# the stall path.
import math

import numpy as np
import pytest

from hemiot import domains, geometry
from hemiot.cli import ConfigError, run
from hemiot.domains import (ConvexPolygonDomain, DiskDomain, SourceDensity,
                            total_mass)
from hemiot.geometry import (ARC_EDGE, QuadratureError, arc_patches,
                             clip_to_circle, integrate_panels,
                             integrate_ring_cells, ring_area_centroid)
from hemiot.laguerre import compute_measures, laguerre_diagram

from .ragged import one_by_one, pieces

X0 = np.array([0.31, 0.17])
SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _point_singularity(p):
    # not integrable: every disk around X0 carries infinite mass
    return 1.0 / ((p - X0) ** 2).sum(axis=1)


def _smooth(p):
    return 1.0 + 0.2 * np.sin(3.0 * p[:, 0]) * np.cos(2.0 * p[:, 1])


def test_triangles_and_patches_integrate_the_same_disk():
    # two half-disk patches around the centre, and a square fan plus four
    # arc patches
    domain = DiskDomain(np.array([0.1, -0.2]), 0.7)
    circle = domain.circle
    disk = arc_patches(*domain.ring(), circle)[1]
    assert len(disk) == 2
    whole = integrate_panels(_smooth, np.zeros((0, 3, 2)), disk, 1e-12)
    ring = np.array([(0.1 + 0.7 * math.cos(t), -0.2 + 0.7 * math.sin(t))
                     for t in (0.3, 1.9, 3.5, 5.1)])
    tris = np.stack([np.broadcast_to(ring.mean(axis=0), ring.shape), ring,
                     np.roll(ring, -1, axis=0)], axis=1)
    arcs = arc_patches(ring, np.array([4]), np.full(4, ARC_EDGE), circle)[1]
    pieces = integrate_panels(_smooth, tris, arcs, 1e-12)
    assert pieces == pytest.approx(whole, rel=1e-11, abs=1e-12)
    assert pieces[0] == pytest.approx(total_mass(
        DiskDomain(np.array([0.1, -0.2]), 0.7), SourceDensity(fn=_smooth),
        tol=1e-12)[0], rel=1e-11)


@pytest.mark.parametrize("sweep", [0.5, math.pi - 1e-10, math.pi + 0.4,
                                   1.5 * math.pi, 1.9 * math.pi])
def test_arc_panels_integrate_the_circular_segment(sweep):
    # one cell of two vertices, an arc a -> b and its chord back: on either
    # side of a half turn, a unit density integrates to the segment's area
    # and x1 to its first moment, ring_area_centroid's closed forms
    c, R, t0 = np.array([0.1, -0.2]), 0.7, 0.4
    ends = c + R * np.array([[math.cos(t0), math.sin(t0)],
                             [math.cos(t0 + sweep), math.sin(t0 + sweep)]])
    cell = (ends, np.array([2]), np.array([ARC_EDGE, 0]))
    area, centroid = ring_area_centroid(*cell, (c, R))
    assert area[0] == pytest.approx(0.5 * R * R * (sweep - math.sin(sweep)),
                                    rel=1e-12)
    one = integrate_ring_cells(*cell, lambda p: np.ones(len(p)), 1e-13,
                               (c, R))
    x1 = integrate_ring_cells(*cell, lambda p: p[:, 0], 1e-13, (c, R))
    assert one[0] == pytest.approx(area[0], rel=1e-12, abs=1e-15)
    assert x1[0] == pytest.approx(area[0] * centroid[0, 0], rel=1e-12,
                                  abs=1e-15)


def test_same_cell_gives_identical_bytes():
    cut = clip_to_circle(*pieces([(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5),
                                  (-1.5, 1.5)]), (0.0, 0.0), 1.0, 1e-12)
    circle = ((0.0, 0.0), 1.0)
    a = integrate_ring_cells(*cut, _smooth, tol=1e-11, circle=circle)
    b = integrate_ring_cells(*cut, _smooth, tol=1e-11, circle=circle)
    assert a.tobytes() == b.tobytes()


def test_one_call_over_all_cells_matches_per_cell_calls():
    rng = np.random.default_rng(3)
    domain = DiskDomain(np.array([0.1, -0.2]), 0.7)
    diag = laguerre_diagram(domain, rng.normal(0.0, 1.0, size=(30, 2)),
                            rng.normal(0.0, 0.3, size=30))
    cells = (diag.verts, diag.sizes, diag.labels)
    circle, tol = domain.circle, 1e-10
    batch = integrate_ring_cells(*cells, _smooth, tol, circle)
    assert batch.shape == (30,)
    for cell, row in zip(one_by_one(*cells), batch):
        alone = integrate_ring_cells(*cell, _smooth, tol, circle)[0]
        assert abs(row - alone) <= tol
    assert batch.sum() == pytest.approx(
        total_mass(domain, SourceDensity(fn=_smooth), tol=tol)[0], abs=2 * tol)
    assert batch.tobytes() == integrate_ring_cells(*cells, _smooth, tol,
                                                   circle).tobytes()


def test_density_calls_stay_under_the_node_cap(monkeypatch):
    rng = np.random.default_rng(4)
    diag = laguerre_diagram(DiskDomain(np.zeros(2), 1.0),
                            rng.normal(0.0, 1.0, size=(40, 2)), np.zeros(40))
    cells, circle = (diag.verts, diag.sizes, diag.labels), ((0.0, 0.0), 1.0)
    # a tolerance the first evaluation already meets: no panel is split
    whole = integrate_ring_cells(*cells, _smooth, 1.0, circle)
    calls = []

    def f(p):
        calls.append(len(p))
        return _smooth(p)

    monkeypatch.setattr(geometry, "_CALL_NODES", 700)
    assert integrate_ring_cells(*cells, f, 1.0, circle).tobytes() \
        == whole.tobytes()
    assert len(calls) > 2 and max(calls) <= 700


def test_unresolvable_density_raises_from_both_entry_points(tmp_path):
    assert domains.QuadratureError is geometry.QuadratureError
    K = SourceDensity(fn=_point_singularity)
    message = r"error estimate \S+ > tol 1\.00e-08"
    for domain in (DiskDomain(np.zeros(2), 0.6),
                   ConvexPolygonDomain(np.array(SQUARE))):
        with pytest.raises(QuadratureError, match=message):
            total_mass(domain, K, tol=1e-8)
    with pytest.raises(QuadratureError, match=message):
        integrate_ring_cells(*pieces(SQUARE), _point_singularity, tol=1e-8)
    diag = laguerre_diagram(ConvexPolygonDomain(np.array(SQUARE)),
                            np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]]),
                            np.zeros(3))
    with pytest.raises(QuadratureError, match=message):
        compute_measures(diag, K, tol=1e-8)
    doc = {"command": "solve",
           "domain": {"kind": "disk", "radius": 0.6},
           "density": {"kind": "expression",
                       "formula": "1/((x1 - 0.31)**2 + (x2 - 0.17)**2)"},
           "target": {"kind": "chart_disk", "center": [0.0, 0.0],
                      "radius": 0.8},
           "N": 20, "out": str(tmp_path / "stall")}
    with pytest.raises(ConfigError,
                       match=r"^config\.density: adaptive quadrature stalled"):
        run(doc)
