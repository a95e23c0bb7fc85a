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
from hemiot.geometry import (QuadratureError, arc_patch, clip_to_circle,
                             integrate_cell, integrate_panels,
                             integrate_ring_cells, ragged_cells)
from hemiot.laguerre import compute_measures, laguerre_diagram

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
    east, west = (0.8, -0.2), (-0.6, -0.2)
    disk = np.array([arc_patch(east, west, (0.1, -0.2), 0.7),
                     arc_patch(west, east, (0.1, -0.2), 0.7)])
    whole = integrate_panels(_smooth, np.zeros((0, 3, 2)), disk, 1e-12)
    corners = [(0.1 + 0.7 * math.cos(t), -0.2 + 0.7 * math.sin(t))
               for t in (0.3, 1.9, 3.5, 5.1)]
    ring = np.array(corners)
    tris = np.stack([np.broadcast_to(ring.mean(axis=0), ring.shape), ring,
                     np.roll(ring, -1, axis=0)], axis=1)
    arcs = np.array([arc_patch(corners[i], corners[(i + 1) % 4], (0.1, -0.2), 0.7)
                     for i in range(4)])
    pieces = integrate_panels(_smooth, tris, arcs, 1e-12)
    assert pieces == pytest.approx(whole, rel=1e-11, abs=1e-12)
    assert pieces[0, 0] == pytest.approx(total_mass(
        DiskDomain(np.array([0.1, -0.2]), 0.7), SourceDensity(fn=_smooth),
        tol=1e-12)[0], rel=1e-11)


def test_same_cell_gives_identical_bytes():
    big = [(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, 1.5)]
    v, lab = clip_to_circle(big, [("box", i) for i in range(4)],
                            (0.0, 0.0), 1.0, 1e-12)
    a = integrate_cell(v, lab, _smooth, tol=1e-11)
    b = integrate_cell(v, lab, _smooth, tol=1e-11)
    assert a.tobytes() == b.tobytes()


def test_one_call_over_all_cells_matches_per_cell_calls():
    rng = np.random.default_rng(3)
    domain = DiskDomain(np.array([0.1, -0.2]), 0.7)
    diag = laguerre_diagram(domain, rng.normal(0.0, 1.0, size=(30, 2)),
                            rng.normal(0.0, 0.3, size=30))
    cells = [(c.verts, c.labels) for c in diag.cells]
    tol = 1e-10
    batch = integrate_ring_cells(*ragged_cells(cells), _smooth, tol)
    assert batch.shape == (30, 3)
    for (verts, labels), row in zip(cells, batch):
        assert np.abs(row - integrate_cell(verts, labels, _smooth, tol)).max() <= tol
    assert batch[:, 0].sum() == pytest.approx(
        total_mass(domain, SourceDensity(fn=_smooth), tol=tol)[0], abs=2 * tol)
    assert batch.tobytes() == integrate_ring_cells(*ragged_cells(cells),
                                                   _smooth, tol).tobytes()


def test_density_calls_stay_under_the_node_cap(monkeypatch):
    rng = np.random.default_rng(4)
    diag = laguerre_diagram(DiskDomain(np.zeros(2), 1.0),
                            rng.normal(0.0, 1.0, size=(40, 2)), np.zeros(40))
    cells = ragged_cells([(c.verts, c.labels) for c in diag.cells])
    # a tolerance the first evaluation already meets: no panel is split
    whole = integrate_ring_cells(*cells, _smooth, 1.0)
    calls = []

    def f(p):
        calls.append(len(p))
        return _smooth(p)

    monkeypatch.setattr(geometry, "_CALL_NODES", 700)
    assert integrate_ring_cells(*cells, f, 1.0).tobytes() == whole.tobytes()
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
        integrate_cell(SQUARE, [("wall", i) for i in range(4)],
                       _point_singularity, tol=1e-8)
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
