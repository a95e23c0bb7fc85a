import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemiot.domains import (ConvexPolygonDomain, DiskDomain, SourceDensity,
                            constant_density)
from hemiot.laguerre import (LaguerreDiagram, _rows, compute_measures,
                             edge_weights, laguerre_diagram, level_order)

from .reference import brute_diagram, pairwise_overlap_area

SQUARE = ConvexPolygonDomain(np.array([[-0.5, -0.5], [0.5, -0.5],
                                       [0.5, 0.5], [-0.5, 0.5]]))
DISK = DiskDomain(np.zeros(2), 1.0)
K1 = constant_density(1.0)


def _random_instance(seed, n=None, domain=None):
    rng = np.random.default_rng(seed)
    n = n or rng.integers(2, 12)
    domain = domain or (SQUARE if seed % 2 else DISK)
    sites = rng.normal(0.0, 1.0, size=(n, 2))
    psi = rng.normal(0.0, 0.3, size=n)
    return domain, sites, psi


def test_single_site_covers_domain():
    diag = laguerre_diagram(SQUARE, np.array([[0.3, -0.2]]), np.zeros(1))
    assert len(diag.cells) == 1
    assert diag.cells[0].area == pytest.approx(1.0, rel=1e-12)
    diag = laguerre_diagram(DISK, np.array([[0.0, 0.0]]), np.zeros(1))
    assert diag.cells[0].area == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("build", [laguerre_diagram, brute_diagram],
                         ids=["auto", "brute"])
@pytest.mark.parametrize("domain", [SQUARE, DISK], ids=["square", "disk"])
def test_single_site_takes_the_brute_route_for_every_method(domain, build):
    # one site's cell is the domain, exactly, and the same bit for bit
    # whichever builder makes it: the package's diagram ("auto") or the
    # brute bisector cut of the reference ("brute")
    sites, psi = np.array([[0.3, -0.2]]), np.array([0.7])
    diag = build(domain, sites, psi)
    brute = brute_diagram(domain, sites, psi)
    assert diag.verts.tobytes() == brute.verts.tobytes()
    assert np.array_equal(diag.sizes, brute.sizes)
    assert np.array_equal(diag.labels, brute.labels)
    assert diag.area[0] == pytest.approx(domain.area, rel=1e-12)
    assert diag.centroid[0] == pytest.approx(domain.centroid, abs=1e-12)
    assert diag.cells[0].neighbors == []


_QUADRILATERAL = ConvexPolygonDomain(np.array([[-0.4, -0.3], [0.7, -0.1],
                                               [0.2, 0.6], [-0.5, 0.3]]))


@pytest.mark.parametrize("domain", [SQUARE, DISK, _QUADRILATERAL],
                         ids=["square", "disk", "quadrilateral"])
def test_single_site_cell_is_the_domain_ring(domain):
    # one site's cell is the domain, exactly: its ring bit for bit, which
    # on the disk and the axis-aligned square is the brute cut's too; on
    # the quadrilateral the polygon's own vertices
    diag = laguerre_diagram(domain, np.array([[0.3, -0.2]]), np.array([0.7]))
    ring, sizes, labels = domain.ring()
    assert diag.verts.tobytes() == ring.tobytes()
    assert np.array_equal(diag.sizes, sizes)
    assert np.array_equal(diag.labels, labels)
    if domain is _QUADRILATERAL:
        assert diag.verts.tobytes() == domain.vertices.tobytes()
    else:
        brute = brute_diagram(domain, diag.sites, diag.psi)
        assert diag.verts.tobytes() == brute.verts.tobytes()
        assert np.array_equal(diag.labels, brute.labels)
    assert diag.area[0] == pytest.approx(domain.area, rel=1e-12)
    assert diag.centroid[0] == pytest.approx(domain.centroid, abs=1e-12)
    assert diag.cells[0].neighbors == []


def test_two_sites_split_square_evenly():
    sites = np.array([[1.0, 0.0], [-1.0, 0.0]])
    diag = laguerre_diagram(SQUARE, sites, np.zeros(2))
    areas = [c.area for c in diag.cells]
    assert areas == pytest.approx([0.5, 0.5], rel=1e-12)
    # the interface is the perpendicular bisector x1 = 0
    assert diag.cells[0].centroid[0] == pytest.approx(0.25, abs=1e-12)
    assert diag.cells[1].centroid[0] == pytest.approx(-0.25, abs=1e-12)


def test_weight_shift_moves_the_interface():
    sites = np.array([[1.0, 0.0], [-1.0, 0.0]])
    # interface {x : <x, p1-p2> = psi1 - psi2} = {2 x1 = psi1 - psi2}
    diag = laguerre_diagram(SQUARE, sites, np.array([0.5, 0.0]))
    assert diag.cells[0].area == pytest.approx(0.25, rel=1e-12)
    assert diag.cells[1].area == pytest.approx(0.75, rel=1e-12)


def test_large_weight_empties_a_cell():
    sites = np.array([[1.0, 0.0], [-1.0, 0.0]])
    diag = laguerre_diagram(SQUARE, sites, np.array([0.0, 5.0]))
    assert diag.cells[1].is_empty
    assert diag.cells[1].area == 0.0
    assert diag.cells[0].area == pytest.approx(1.0, rel=1e-12)


def test_gauge_invariance():
    domain, sites, psi = _random_instance(21, n=9)
    a = laguerre_diagram(domain, sites, psi)
    b = laguerre_diagram(domain, sites, psi + 3.7)
    for ca, cb in zip(a.cells, b.cells):
        assert ca.area == pytest.approx(cb.area, abs=1e-13)


def _assert_matches_brute(a):
    """A diagram of the hull route against the brute reference on the same
    instance (reference.brute_diagram): equal areas, centroids and
    neighbour lists, every bisector edge against a real site, and the areas
    summing to the domain's."""
    b = brute_diagram(a.domain, a.sites, a.psi)
    n = len(a.sites)
    assert (a.labels < n).all()
    assert a.area.sum() == pytest.approx(a.domain.area, rel=1e-12)
    for ca, cb in zip(a.cells, b.cells):
        assert ca.area == pytest.approx(cb.area, abs=1e-12)
        if not ca.is_empty:
            assert np.allclose(ca.centroid, cb.centroid, rtol=0.0, atol=1e-10)
        assert ca.neighbors == cb.neighbors


def test_hull_and_brute_routes_agree():
    # seeds 356 and 180 cut rings whose power vertices lie 100-200 away from
    # the domain, where the circle crossings must be found from the near end
    instances = [_random_instance(seed, n=10) for seed in range(12)]
    for domain, sites, psi in instances + [_random_instance(356, n=40),
                                           _random_instance(180, n=10)]:
        _assert_matches_brute(laguerre_diagram(domain, sites, psi))
    # few sites: two, and three, whose lift is always a plane
    for seed in range(8):
        for n in range(2, 9):
            domain, sites, psi = _random_instance(seed, n=n)
            _assert_matches_brute(laguerre_diagram(domain, sites, psi))
    # flat lifts: psi = 0 and psi = a·p + b, where only the vertices of the
    # sites' convex hull have cells
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 41))
        domain, sites, _ = _random_instance(seed, n=n)
        slope, offset = rng.normal(0.0, 0.3, size=2), rng.normal()
        for psi in (np.zeros(n), sites @ slope + offset):
            _assert_matches_brute(laguerre_diagram(domain, sites, psi))


def _voronoi_like_instance(domain, n, seed, reach):
    """About n sites from discretize and psi = |p|^2 / (2 a) plus noise:
    the diagram is close to the sites' Voronoi diagram scaled by 1 / a,
    which puts the farthest site at distance reach from the origin. Most
    cells lie inside a domain of about that size."""
    from hemiot.targets import chart_disk, discretize
    sites = discretize(chart_disk(np.zeros(2), 0.9), n,
                       domain.area).sites
    a = np.hypot(*sites.T).max() / reach
    noise = np.random.default_rng(seed).normal(0.0, 1e-4, size=len(sites))
    return sites, (sites ** 2).sum(axis=1) / (2.0 * a) + noise


@pytest.mark.parametrize("domain", [DiskDomain(np.zeros(2), 0.6), SQUARE],
                         ids=["disk", "square"])
def test_hull_and_brute_routes_agree_at_scale(domain):
    # most cells come straight from the regular triangulation here; some
    # rings of interior sites cross the boundary, and some cells are empty
    sites, psi = _voronoi_like_instance(domain, 250, seed=1, reach=0.7)
    assert len(sites) >= 180
    _assert_matches_brute(laguerre_diagram(domain, sites, psi))


def _chart_polygon_sites():
    """Grid-piece centroids of a chart polygon: runs of sites along its
    walls are collinear to rounding on the sites' hull."""
    from hemiot.targets import chart_polygon, discretize
    V = np.array([[0.9276455677263244, 1.2658041858390718],
                  [-2.3103445216044953, -0.1588211428115786],
                  [-1.8704847541842489, -1.1834635874019863],
                  [-1.7876227189445728, -1.2736740743909793],
                  [-0.15012683326228848, -1.8047457250628933]])
    sites = discretize(chart_polygon(V), 800, 1.0).sites
    assert len(sites) == 454
    return sites


def test_vertical_hull_facets_over_collinear_sites_are_not_lower():
    # without sentinels, the lifts of runs of collinear hull sites stand in
    # vertical facets with a normal z of rounding size and either sign
    sites = _chart_polygon_sites()
    psi = 0.01 * (sites ** 2).sum(axis=1)
    _assert_matches_brute(laguerre_diagram(DiskDomain(np.zeros(2), 0.5),
                                           sites, psi))


def test_hull_route_keeps_centroids_on_a_nearly_flat_lift():
    # at psi = 1e-6 |p|^2 the lift is nearly a plane: a wall facet over the
    # collinear hull sites, tilted by rounding, would put power vertices
    # near 6e7 and move centroids by 1.7e-9
    sites = _chart_polygon_sites()
    psi = 1e-6 * (sites ** 2).sum(axis=1)
    _assert_matches_brute(laguerre_diagram(DiskDomain(np.zeros(2), 0.5),
                                           sites, psi))


_HEXAGON = np.array([10.0, 5.0]) + np.column_stack(
    [np.cos(np.pi / 3 * np.arange(6)), np.sin(np.pi / 3 * np.arange(6))])


def _nearly_collinear_instance(seed):
    # 3 to 29 sites spread 1e-4 across a line, in one of four domains
    rng = np.random.default_rng(seed)
    domain = [ConvexPolygonDomain(np.array([[0.0, 0.0], [1.0, 0.1],
                                            [0.3, 0.9]])),
              ConvexPolygonDomain(_HEXAGON), DISK,
              DiskDomain(np.array([0.5, -0.3]), 0.3)][seed % 4]
    n = int(rng.integers(3, 30))
    u = rng.normal(size=2)
    u /= np.hypot(*u)
    sites = rng.normal(size=2) + np.outer(rng.normal(size=n), u) \
        + 1e-4 * np.outer(rng.normal(size=n), [-u[1], u[0]])
    return domain, sites, rng.normal(0.0, 0.3, size=n)


def test_hull_route_keeps_areas_on_nearly_collinear_sites():
    # sites spread 1e-4 across a line have power vertices 1e4 and more
    # away unless the sentinels cut them off; a wall crossing interpolated
    # between two of them would carry their rounding, up to 1e-11 of the
    # domain area
    for seed in range(200):
        domain, sites, psi = _nearly_collinear_instance(seed)
        a = laguerre_diagram(domain, sites, psi)
        b = brute_diagram(domain, sites, psi)
        assert np.abs(a.area - b.area).max() <= 1e-13 * domain.area


@pytest.mark.parametrize("domain", [DiskDomain(np.zeros(2), 0.5), SQUARE],
                         ids=["disk", "square"])
def test_lattice_lift_merges_coincident_power_vertices(domain):
    # psi = c |p|^2 / 2 lifts the four corners of every lattice square into
    # one plane; qhull splits it into two facets whose power vertices agree
    # to rounding, which must merge into one cell vertex
    g = np.linspace(-1.0, 1.0, 15)
    sites = np.array([(x, y) for x in g for y in g])
    psi = 0.5e-3 * (sites ** 2).sum(axis=1)
    a = laguerre_diagram(domain, sites, psi)
    _assert_matches_brute(a)
    inner = [c for c in a.cells if np.abs(sites[c.site_index]).max() < 0.99]
    assert inner and all(len(c.verts) == 4 for c in inner)


def _count_domain_clips(monkeypatch):
    """Patch both domain kinds' clip to record, for each cut, the cells it
    does not keep whole (a changed size or a changed vertex)."""
    calls = []
    for kind in (DiskDomain, ConvexPolygonDomain):
        def count(domain, ring, sizes, labels, clip=kind.clip):
            out = clip(domain, ring, sizes, labels)
            whole = out[1] == sizes
            moved = (ring[np.repeat(whole, sizes)]
                     != out[0][np.repeat(whole, out[1])]).any(axis=1)
            owner = np.repeat(np.flatnonzero(whole), sizes[whole])
            whole[owner[moved]] = False
            calls.append(int((~whole).sum()))
            return out
        monkeypatch.setattr(kind, "clip", count)
    return calls


def test_hull_route_clips_only_cells_that_cross_the_boundary(monkeypatch):
    from scipy.spatial import ConvexHull
    domain = DiskDomain(np.zeros(2), 0.6)
    # every cell is nonempty, so every clipped ring crosses the boundary or
    # reaches a sentinel, as the rings of the sites' convex hull vertices do
    sites, psi = _voronoi_like_instance(domain, 500, seed=0, reach=0.5)
    calls = _count_domain_clips(monkeypatch)
    diag = laguerre_diagram(domain, sites, psi)
    assert not any(c.is_empty for c in diag.cells)
    crossing = sum(any(lab < 0 for lab in c.labels) for c in diag.cells)
    bound = crossing + len(ConvexHull(sites).vertices)
    assert bound < 0.4 * len(sites)
    assert len(calls) == 1 and crossing <= calls[0] <= bound
    assert diag.area.sum() == pytest.approx(domain.area, rel=1e-12)


def test_flat_lift_clips_only_against_hull_neighbours(monkeypatch):
    from scipy.spatial import ConvexHull
    from hemiot.targets import chart_disk, discretize
    domain = DiskDomain(np.zeros(2), 0.6)
    target = discretize(chart_disk(np.zeros(2), 0.9), 500,
                        domain.area)
    n = len(target.sites)
    h = len(ConvexHull(target.sites).vertices)
    calls = _count_domain_clips(monkeypatch)
    diag = laguerre_diagram(domain, target.sites, np.zeros(n))
    assert calls == [h]
    assert sum(c.is_empty for c in diag.cells) == n - h
    assert diag.area.sum() == pytest.approx(domain.area, rel=1e-12)


@pytest.mark.parametrize("domain", [SQUARE, DISK], ids=["square", "disk"])
def test_collinear_sites_take_the_hull_route(domain):
    sites = np.column_stack([np.linspace(-1.0, 1.0, 11), np.zeros(11)])
    psi = np.random.default_rng(3).normal(0.0, 0.1, size=11)
    _assert_matches_brute(laguerre_diagram(domain, sites, psi))


def test_collinear_sites_cost_no_all_pairs_clipping(monkeypatch):
    # all-pairs bisector clipping is O(N^2) in the sites; the hull route
    # cuts its rings by the domain only, in one cut
    calls = _count_domain_clips(monkeypatch)
    sites = np.column_stack([np.linspace(-1.0, 1.0, 800), np.zeros(800)])
    diag = laguerre_diagram(SQUARE, sites, 0.25 * sites[:, 0] ** 2)
    assert len(calls) == 1
    assert diag.nonempty.sum() == 800
    assert diag.area.sum() == pytest.approx(1.0, rel=1e-12)


def test_coplanar_lift_falls_back_cleanly():
    # zero weights on a perfect grid make the lifted hull degenerate
    g = np.linspace(-1.0, 1.0, 4)
    sites = np.array([(a, b) for a in g for b in g])
    diag = laguerre_diagram(SQUARE, sites, np.zeros(len(sites)))
    total = sum(c.area for c in diag.cells)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_duplicate_sites_rejected():
    with pytest.raises(ValueError):
        laguerre_diagram(SQUARE, np.array([[0.1, 0.0], [0.1, 0.0]]), np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partition_property(seed):
    domain, sites, psi = _random_instance(seed)
    diag = laguerre_diagram(domain, sites, psi)
    total = sum(c.area for c in diag.cells)
    assert abs(total - domain.area) <= 1e-9 * domain.area
    assert all(c.area >= 0.0 for c in diag.cells)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(seed=362608)   # a circular-segment cell: one chord plus one arc
def test_neighbor_cells_do_not_overlap(seed):
    domain, sites, psi = _random_instance(seed, n=7)
    diag = laguerre_diagram(domain, sites, psi)
    live = [c.site_index for c in diag.cells if not c.is_empty]
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            i, j = live[a], live[b]
            assert pairwise_overlap_area(diag, i, j) <= 1e-10


@pytest.mark.parametrize("seed", [362608, 403112, 0, 1])
def test_cell_overlaps_itself_in_its_area(seed):
    # an overlap that measured nothing would pass the neighbor test above
    # vacuously
    domain, sites, psi = _random_instance(seed, n=7)
    diag = laguerre_diagram(domain, sites, psi)
    for c in diag.cells:
        if not c.is_empty:
            assert pairwise_overlap_area(diag, c.site_index, c.site_index) \
                == pytest.approx(c.area, rel=1e-12)


def test_compute_measures_constant_density():
    domain, sites, psi = _random_instance(33, n=6)
    diag = laguerre_diagram(domain, sites, psi)
    G, _ = compute_measures(diag, constant_density(2.0))
    for c in diag.cells:
        assert G[c.site_index] == pytest.approx(2.0 * c.area, abs=1e-14)
    assert G.sum() == pytest.approx(2.0 * domain.area, rel=1e-9)


def test_compute_measures_smooth_density_matches_total():
    from hemiot.domains import total_mass
    K = SourceDensity(fn=lambda p: 1.0 + 0.5 * np.sin(p[:, 0]) * np.cos(p[:, 1]))
    domain, sites, psi = _random_instance(5, n=8, domain=DISK)
    diag = laguerre_diagram(domain, sites, psi)
    G, _ = compute_measures(diag, K, tol=1e-11)
    ref, _ = total_mass(domain, K, tol=1e-11)
    assert G.sum() == pytest.approx(ref, rel=1e-9)


def test_edge_weights_two_cell_instance():
    sites = np.array([[1.0, 0.0], [-1.0, 0.0]])
    diag = laguerre_diagram(SQUARE, sites, np.zeros(2))
    pairs, w = edge_weights(diag, K1)
    w = dict(zip(map(tuple, pairs), w))
    # interface length 1, site gap 2
    assert w == pytest.approx({(0, 1): 0.5}, rel=1e-12)


def test_edge_weights_symmetric_and_positive():
    domain, sites, psi = _random_instance(9, n=9)
    diag = laguerre_diagram(domain, sites, psi)
    pairs, w = edge_weights(diag, K1)
    w = dict(zip(map(tuple, pairs), w))
    assert all(v > 0 for v in w.values())
    assert all(i < j for i, j in w)
    # every recorded edge joins two nonempty cells
    live = {c.site_index for c in diag.cells if not c.is_empty}
    assert all(i in live and j in live for i, j in w)


@pytest.mark.parametrize("seed", [9, 10])
def test_edge_weights_linear_density_matches_closed_form(seed):
    # a linear density's line integral is the length times its midpoint value
    K = SourceDensity(fn=lambda p: 3.0 + p[:, 0] - 0.5 * p[:, 1])
    domain, sites, psi = _random_instance(seed, n=9)
    diag = laguerre_diagram(domain, sites, psi)
    pairs, w = edge_weights(diag, K)
    w = dict(zip(map(tuple, pairs), w))
    assert w
    seen = set()
    for c in diag.cells:
        for e, lab in enumerate(c.labels):
            if lab < 0:
                continue
            a = np.array(c.verts[e])
            b = np.array(c.verts[(e + 1) % len(c.verts)])
            mid = 0.5 * (a + b)
            exact = np.linalg.norm(b - a) * (3.0 + mid[0] - 0.5 * mid[1]) \
                / np.linalg.norm(sites[c.site_index] - sites[lab])
            key = (min(c.site_index, lab), max(c.site_index, lab))
            assert w[key] == pytest.approx(exact, rel=1e-12, abs=1e-14)
            seen.add(key)
    assert seen == set(w)


@pytest.mark.parametrize(
    "domain, h, span, checker",
    [(DiskDomain(np.zeros(2), 0.5), 1e-3, 1.2, 1e-13),
     (SQUARE, 1e-3, 1.2, 1e-13),
     (DISK, 1e-2, 3.0, 1e-14)],
    ids=["disk", "square", "unit-disk-near-eps"])
def test_adjacency_is_mutual_for_closely_spaced_sites(domain, h, span, checker):
    # a 15x15 lattice of spacing h whose cells are squares of side span / 15
    # covering the domain; a checkerboard weight splits every four-cell
    # vertex into a short bisector edge. At h = 1e-3 it is about 3e-10 long,
    # far above the clip eps of 1e-12 but below eps / h, where a clip by the
    # unscaled normal p_j - p_i would drop it from boundary cells only. On
    # the unit disk it is about 3e-12, next to the eps of 2e-12, where the
    # two cells of an edge keep or merge its ends only if both apply the
    # same test to the same points; brute clipping itself tells such edges
    # from points only by rounding there, so only mutual adjacency is
    # asserted
    p0 = np.array([0.3, 0.1])
    k = np.arange(-7, 8)
    ix, iy = np.meshgrid(k, k, indexing="ij")
    sites = p0 + h * np.c_[ix.ravel(), iy.ravel()]
    a = span / (15 * h)
    psi = 0.5 * a * ((sites - p0) ** 2).sum(axis=1) \
        + checker * ((ix + iy).ravel() % 2)
    diag = laguerre_diagram(domain, sites, psi)
    live = [c for c in diag.cells if not c.is_empty]
    assert sum(any(lab < 0 for lab in c.labels) for c in live) >= 40
    nbrs = {c.site_index: set(c.neighbors) for c in live}
    for i, ns in nbrs.items():
        for j in ns:
            assert i in nbrs[j]
    if h == 1e-3:
        _assert_matches_brute(diag)


def test_adjacency_is_mutual():
    domain, sites, psi = _random_instance(17, n=11)
    diag = laguerre_diagram(domain, sites, psi)
    nbrs = {c.site_index: set(c.neighbors) for c in diag.cells if not c.is_empty}
    for i, ns in nbrs.items():
        for j in ns:
            assert i in nbrs[j]
    assert diag.is_connected()


def _assert_one_graph(diag):
    # every bisector edge a -> b of cell i against j has positive length,
    # and cell j has one edge against i, from b to a (to clipping rounding):
    # the graph reads the same from either side, and edge_weights weighs
    # exactly its pairs; its CSR rows are each cell's labelled neighbours
    n = len(diag.sites)
    k = np.flatnonzero(diag.labels >= 0)
    i, j = diag.owner[k], diag.labels[k]
    a, b = diag.verts[k], diag.verts[diag.nxt[k]]
    assert (np.hypot(*(b - a).T) > 0.0).all()
    key = i * n + j
    order = np.argsort(key)
    assert (np.diff(key[order]) > 0).all()
    twin = order[np.searchsorted(key[order], j * n + i).clip(0, len(k) - 1)]
    assert np.array_equal(key[twin], j * n + i)
    scale = max(1.0, float(np.abs(diag.verts).max()))
    assert np.abs(a[twin] - b).max(initial=0.0) <= 1e-12 * scale
    assert np.abs(b[twin] - a).max(initial=0.0) <= 1e-12 * scale
    pairs = diag.adjacency_edges()
    assert np.array_equal(edge_weights(diag, K1)[0], pairs)
    assert np.array_equal(pairs, np.unique(
        np.column_stack([np.minimum(i, j), np.maximum(i, j)]), axis=0)
        .reshape(-1, 2))
    indptr, nbrs = diag.neighbour_rows()
    for c in range(n):
        row = nbrs[indptr[c]:indptr[c + 1]].tolist()
        labels = diag.labels[diag.offsets[c]:diag.offsets[c + 1]]
        assert row == sorted(labels[labels >= 0].tolist())


def _blowup_start_diagram():
    # the first diagram of the blowup benchmark's solve: 1988 sites of the
    # full hemisphere, polar layout out to |p| = 100, over the unit disk
    from hemiot.solver import _radial_profile_psi
    from hemiot.targets import (discretize, full_hemisphere,
                                truncation_radius_for)
    target = discretize(full_hemisphere(truncation_radius_for(
        math.pi * 1e-4)), 2000, math.pi)
    psi = _radial_profile_psi(DISK, target.sites, target.masses)
    return laguerre_diagram(DISK, target.sites, psi - psi[0])


def test_neighbour_graph_is_one_graph():
    for seed in range(12):
        _assert_one_graph(laguerre_diagram(*_random_instance(seed, n=40)))
    for seed in range(40):
        _assert_one_graph(laguerre_diagram(*_nearly_collinear_instance(seed)))
    diag = _blowup_start_diagram()
    assert diag.nonempty.all() and diag.is_connected()
    _assert_one_graph(diag)


def _bfs_components(n, pairs):
    # each node's component as the smallest node reached by breadth-first
    # search from it, over adjacency lists
    adj = [[] for _ in range(n)]
    for a, b in pairs.tolist():
        adj[a].append(b)
        adj[b].append(a)
    comp = [-1] * n
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s], queue = s, [s]
        for a in queue:
            for b in adj[a]:
                if comp[b] < 0:
                    comp[b] = s
                    queue.append(b)
    return np.array(comp)


def _is_connected(live, rows):
    # LaguerreDiagram.is_connected on a graph given as CSR rows
    diag = SimpleNamespace(nonempty=live, neighbour_rows=lambda: rows)
    return LaguerreDiagram.is_connected(diag)


@pytest.mark.parametrize("seed", range(8))
def test_component_labels_match_breadth_first_search(seed):
    # random sparse graphs, from nearly edgeless to one component: the
    # breadth-first order from each node covers its component, and
    # is_connected holds exactly when the live nodes share one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    i, j = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n))))
    pairs = np.unique(np.column_stack([np.minimum(i, j), np.maximum(i, j)])
                      [i != j], axis=0).reshape(-1, 2)
    rows = _rows(n, pairs)
    comp = _bfs_components(n, pairs)
    for s in range(n):
        assert sorted(level_order(*rows, s).tolist()) \
            == np.flatnonzero(comp == comp[s]).tolist()
    part = comp == comp[rng.integers(n)]
    for live in (np.ones(n, dtype=bool), rng.random(n) < 0.5, part,
                 part & (rng.random(n) < 0.5)):
        assert _is_connected(live, rows) == (len(set(comp[live])) <= 1)


def test_component_labels_of_two_components():
    # two paths whose nodes interleave, numbered against their order
    n = 40
    a, b = np.arange(0, n, 2)[::-1], np.arange(1, n, 2)[::-1]
    pairs = np.concatenate([np.column_stack([a[:-1], a[1:]]),
                            np.column_stack([b[:-1], b[1:]])])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    rows = _rows(n, pairs)
    assert np.array_equal(_bfs_components(n, pairs), np.arange(n) % 2)
    assert level_order(*rows, 0).tolist() == list(range(0, n, 2))
    assert level_order(*rows, 1).tolist() == list(range(1, n, 2))
    assert not _is_connected(np.ones(n, dtype=bool), rows)
    assert _is_connected(np.arange(n) % 2 == 1, rows)
    rows = _rows(3, np.empty((0, 2), int))
    assert [level_order(*rows, s).tolist() for s in range(3)] \
        == [[0], [1], [2]]
    assert not _is_connected(np.ones(3, dtype=bool), rows)
    assert _is_connected(np.arange(3) == 2, rows)


def test_connectivity_skips_empty_cells(monkeypatch):
    # sites with large weights have empty cells: they are nodes with no
    # edge, which must not split the live cells; dropping the edges across
    # the line x1 = 0 splits them
    sites = np.random.default_rng(5).uniform(-0.5, 0.5, size=(40, 2))
    psi = 0.5 * (sites ** 2).sum(axis=1)
    psi[:6] += 50.0
    diag = laguerre_diagram(SQUARE, sites, psi)
    live = diag.nonempty
    assert np.array_equal(live, np.arange(40) >= 6)
    pairs = diag.adjacency_edges()
    comp = _bfs_components(len(sites), pairs)
    assert len(set(comp[live].tolist())) == 1
    assert diag.is_connected()
    side = diag.centroid[:, 0] < 0.0
    cut = pairs[side[pairs[:, 0]] == side[pairs[:, 1]]]
    monkeypatch.setattr(LaguerreDiagram, "neighbour_rows",
                        lambda self: _rows(len(sites), cut))
    comp = _bfs_components(len(sites), cut)
    assert len(set(comp[live].tolist())) == 2
    assert not diag.is_connected()
