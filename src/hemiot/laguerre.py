# Laguerre (power) diagrams of the dual weights: the partition of the domain
# into convex cells on which each affine function <x, p_i> - psi_i attains the
# upper envelope. A cell is the fan of power vertices around its site in the
# regular triangulation of the lifted sites (Aurenhammer 1987), cut by the
# domain, exactly, including circular-arc boundaries on disk domains, when
# it is open or reaches the boundary. The cut, its tolerance and the test
# for a fan inside the domain are the domain's own (domains.domain_clipper,
# clip_eps and contains); the brute route and the one-site diagram cut a
# box around the domain by bisectors (cell_cutter) and end in the same
# clipper. A diagram holds all its cells in one ragged vertex array.
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import clip_eps, contains, domain_clipper
from .geometry import (
    ARC,
    cell_area_centroid,
    clip_halfplane,
    clip_to_halfplanes,
    gauss_legendre,
    has_duplicate_points,
    integrate_ring_cells,
    polygon_halfplanes,
    ring_area_centroid,
    ring_next,
)


@dataclass
class LaguerreCell:
    site_index: int
    verts: list
    labels: list
    neighbors: list
    area: float
    centroid: np.ndarray

    @property
    def is_empty(self):
        return len(self.verts) < 2


@dataclass
class LaguerreDiagram:
    """The cells of every site, held as one ragged (CSR-style) array: cell i
    is the CCW polygon verts[offsets[i]:offsets[i + 1]] (empty when it has
    fewer than two vertices), and edge k runs from verts[k] to verts[nxt[k]]
    inside cell owner[k]. A bisector edge against site j has nbr[k] = j; every
    other edge has nbr[k] = -1 and its label ("wall", k) or ("arc", center,
    radius) in other_labels[k]. area and centroid are per cell; an empty
    cell has area 0 and its site as centroid."""
    domain: object
    sites: np.ndarray
    psi: np.ndarray
    route: str    # "hull", "flat" or "brute": how the diagram was built
    verts: np.ndarray
    offsets: np.ndarray
    nbr: np.ndarray
    other_labels: dict
    owner: np.ndarray
    nxt: np.ndarray
    area: np.ndarray
    centroid: np.ndarray

    @property
    def sizes(self):
        return np.diff(self.offsets)

    @property
    def nonempty(self):
        """Mask of the nonempty cells: a cell with fewer than two vertices
        is empty."""
        return self.sizes >= 2

    @cached_property
    def cells(self):
        """The same cells as a list of LaguerreCell, one per site."""
        verts = list(map(tuple, self.verts.tolist()))
        nbr = self.nbr.tolist()
        labels = [("nbr", j) if j >= 0 else self.other_labels[k]
                  for k, j in enumerate(nbr)]
        out = []
        for i, (s, e) in enumerate(zip(self.offsets[:-1].tolist(),
                                       self.offsets[1:].tolist())):
            nbrs = sorted({j for j in nbr[s:e] if j >= 0})
            out.append(LaguerreCell(i, verts[s:e], labels[s:e], nbrs,
                                    float(self.area[i]), self.centroid[i].copy()))
        return out

    def total_area(self):
        return float(self.area.sum())

    def bisector_edges(self):
        """(i, j, a, b): every bisector edge a -> b, of cell i against j."""
        k = np.flatnonzero(self.nbr >= 0)
        return self.owner[k], self.nbr[k], self.verts[k], self.verts[self.nxt[k]]

    def arc_edges(self):
        """(cell, a, b, label) for every arc edge a -> b."""
        return [(int(self.owner[k]), self.verts[k], self.verts[self.nxt[k]], lab)
                for k, lab in self.other_labels.items() if lab[0] == ARC]

    def adjacency_edges(self):
        """Sorted (E, 2) array of the pairs i < j of cells that share a
        positive-length edge."""
        i, j, _, _ = self.bisector_edges()
        return _sorted_pairs(i, j, len(self.sites))[0]

    def is_connected(self):
        from scipy import sparse
        from scipy.sparse.csgraph import connected_components

        n = len(self.sites)
        live = self.nonempty
        if live.sum() <= 1:
            return True
        pairs = self.adjacency_edges()
        graph = sparse.coo_matrix((np.ones(len(pairs)), tuple(pairs.T)),
                                  shape=(n, n))
        _, comp = connected_components(graph, directed=False)
        return len(np.unique(comp[live])) == 1


def _sorted_pairs(i, j, n):
    """The distinct pairs (min, max) of i and j, sorted, as an (E, 2) array,
    and the index of each input's pair."""
    keys, inv = np.unique(np.minimum(i, j) * n + np.maximum(i, j),
                          return_inverse=True)
    return np.column_stack([keys // n, keys % n]), inv


def _validate_sites(sites):
    sites = np.asarray(sites, dtype=float)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (N, 2) array")
    if has_duplicate_points(sites):
        raise ValueError("duplicate sites")
    return sites


def _regular_triangulation(sites, psi):
    """Lower facets of the hull of the lifted sites (p, psi): the regular
    triangulation. Returns the facets as CCW site triples (F, 3), the lower
    facet across the edge opposite each corner (-1 where there is none: the
    triangulation's outer boundary), and each facet's power vertex, the
    point where its three sites' affine functions tie (for collinear sites,
    the slope of the facet's plane). Sites lifted strictly above the hull
    are dominated everywhere and lie on no facet. A flat lift (psi affine
    over the sites) or collinear sites make qhull raise; `laguerre_diagram`
    sends both elsewhere before calling this."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.column_stack([sites, psi]), qhull_options="Qt")
    # the unit normal of a lower facet has z = -1 / sqrt(1 + |v|^2), v its
    # power vertex. Facets over sites collinear to rounding on their hull
    # stand vertical, and qhull gives them a z of rounding size and either
    # sign (1e-15 to 1e-11 seen); taking part of such a wall as lower
    # breaks the fans around its sites. A facet is lower at z < -1e-9: this
    # leaves out the walls, and the slivers over nearly collinear sites
    # beside them, whose power vertices lie beyond 1e9; those sites' fans
    # end in rays along the same bisectors instead
    lower = hull.equations[:, 2] < -1e-9
    if not lower.any():
        raise RuntimeError("no lower facets")
    index = np.full(len(lower), -1)
    index[np.flatnonzero(lower)] = np.arange(np.count_nonzero(lower))
    tri = hull.simplices[lower]
    across = index[hull.neighbors[lower]]
    d1 = sites[tri[:, 1]] - sites[tri[:, 0]]
    d2 = sites[tri[:, 2]] - sites[tri[:, 0]]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    # the 2x2 bisector system <x, p_b - p_a> = psi_b - psi_a, by Cramer's rule
    r1 = psi[tri[:, 1]] - psi[tri[:, 0]]
    r2 = psi[tri[:, 2]] - psi[tri[:, 0]]
    flat = np.abs(det) <= 1e-12 * np.hypot(*d1.T) * np.hypot(*d2.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.column_stack([r1 * d2[:, 1] - r2 * d1[:, 1],
                                 d1[:, 0] * r2 - d2[:, 0] * r1]) / det[:, None]
    eq = hull.equations[lower][flat]
    power[flat] = -eq[:, :2] / eq[:, 2:3]
    cw = det < 0
    tri[cw] = tri[cw][:, [0, 2, 1]]
    across[cw] = across[cw][:, [0, 2, 1]]
    return tri, across, power


def _fans(n, tri, across, power, eps):
    """The fan of power vertices around each of n sites, read off the
    triangulation. Around a site v, the facet after (v, v1, v2) in CCW order
    is the one across the edge v-v2, its power vertex is a cell vertex, and
    the cell edge that leaves it lies on the bisector of v and v2. The fan
    is a closed ring, or open when v is on the triangulation's outer
    boundary: from the facet with none across v-v1 to the one with none
    across v-v2. A fan vertex within eps (in both coordinates) of the next
    one is dropped with the zero-length edge it starts, as geometry._dedupe
    does; an open fan's last vertex has no next one. Returns, fan after fan
    in site order, each vertex's site, its coordinates and the neighbour
    across the edge that leaves it, and per site the neighbour across the
    edge that enters its open fan (-1 for a ring or no fan)."""
    site = tri.ravel()
    corner = np.arange(len(site))
    nxt_facet = np.roll(across, -1, axis=1).ravel()
    first = np.roll(across, -2, axis=1).ravel() < 0
    enter = np.full(n, -1)
    enter[site[first]] = np.roll(tri, -1, axis=1).ravel()[first]
    # successor of each corner: the corner of the same site in the next facet
    has = nxt_facet >= 0
    g = nxt_facet[has]
    succ = 3 * g + np.argmax(tri[g] == site[has, None], axis=1)
    # each corner's distance along its fan from the fan's head (the first
    # corner of an open fan, the first in corner order of a ring), by
    # pointer jumping along predecessors: O(log of the longest fan) passes
    head = first.copy()
    lead = np.unique(site, return_index=True)[1]
    head[lead[enter[site[lead]] < 0]] = True
    pred = corner.copy()
    pred[succ] = corner[has]
    pred[head] = corner[head]
    dist = (~head).astype(int)
    for _ in range(int(np.log2(max(len(site), 1))) + 1):
        if (pred[pred] == pred).all():
            break
        dist += dist[pred]
        pred = pred[pred]
    count = np.bincount(site, minlength=n)
    at = np.cumsum(count)[site] - count[site] + dist
    if not ((dist < count[site]).all() and (np.bincount(at) == 1).all()):
        raise RuntimeError("the lower hull's facets do not form one fan "
                           "around each site")
    corners = np.empty(len(site), dtype=int)
    corners[at] = corner
    verts = power[corners // 3]
    last = dist == count[site] - 1
    nxt = np.where(last, at - dist, at + 1)[corners]
    apart = (np.abs(verts - verts[nxt]) > eps).any(axis=1) \
        | (last & (enter[site] >= 0))[corners]
    corners = corners[apart]
    return site[corners], verts[apart], np.roll(tri, -2, axis=1).ravel()[corners], enter


def _is_collinear(sites):
    """Rank-1 sites: every lift lies in a vertical plane and has no 2D hull."""
    s = np.linalg.svd(sites - sites.mean(axis=0), compute_uv=False)
    return s[1] <= 1e-12 * s[0]


def _is_affine(sites, psi):
    """The slope a when psi = a·p + b over the sites up to rounding, else
    None: the residual of the least-squares fit, against the largest lifted
    coordinate. In random trials qhull rejected lifts as flat up to a
    residual of about 2e-12 of that coordinate; the bound leaves a wide
    margin above it."""
    A = np.column_stack([sites, np.ones(len(sites))])
    coef = np.linalg.lstsq(A, psi, rcond=None)[0]
    resid = float(np.abs(psi - A @ coef).max())
    scale = max(float(np.abs(sites).max()), float(np.abs(psi).max()))
    return coef[:2] if resid <= 1e-10 * scale else None


def laguerre_diagram(domain, sites, psi, method="auto"):
    """Partition of the domain into the cells of max_i(<x, p_i> - psi_i).

    The diagram holds every cell in one ragged vertex array with per-cell
    offsets and an edge label per vertex (see LaguerreDiagram); `cells` is
    the same diagram as LaguerreCell objects, built on first access.
    `method` decides how the cells are built, and the diagram records the
    route taken in `route`:
      "hull"  the regular triangulation from the lower hull of the lifted
              sites (p, psi); qhull errors propagate. A site's cell is the
              fan of power vertices of its facets (_fans), taken as it is
              when it is a closed ring with every vertex inside the domain
              by more than the clip eps. Every other fan is cut by the
              domain, an open one (its site on the triangulation's outer
              boundary) after _close_fan closes it with its two rays.
      "flat"  psi = a·p + b over the sites (psi = 0 and every psi on
              three sites included; the hull route raises on them): the
              diagram is the normal fan of the sites' convex hull shifted
              by a, so each hull vertex has a one-vertex open fan at a,
              leaving toward its CCW predecessor and entering from its
              successor, and no other site has a cell.
      "brute" a box around the domain cut by the bisectors of every other
              site and then by the domain (cell_cutter); kept as an
              independent oracle.
    One site takes brute whatever the method; "auto" takes brute for
    collinear sites, flat when psi is affine, and hull otherwise. All
    routes produce the same cells."""
    if method not in ("auto", "hull", "brute"):
        raise ValueError(f"unknown method {method!r}")
    sites = _validate_sites(sites)
    psi = np.asarray(psi, dtype=float)
    if len(psi) != len(sites):
        raise ValueError("psi length mismatch")
    n = len(sites)
    route = "brute" if n == 1 else method
    if route == "auto":
        collinear = _is_collinear(sites)
        slope = None if collinear else _is_affine(sites, psi)
        route = "brute" if collinear else "hull" if slope is None else "flat"
    if route == "brute":
        cut, box = cell_cutter(domain, sites, psi), _box_piece(domain)
        no_rings = (np.zeros(0, dtype=int), np.zeros((0, 2)),
                    np.zeros(0, dtype=int))
        return _assemble(domain, sites, psi, route, no_rings, {
            i: cut(*box, i, [j for j in range(n) if j != i]) for i in range(n)})
    eps = clip_eps(domain)
    if route == "flat":
        from scipy.spatial import ConvexHull

        ring = ConvexHull(sites).vertices      # CCW in 2D
        order = np.argsort(ring)
        enter = np.full(n, -1)
        enter[ring] = np.roll(ring, -1)
        fans = (ring[order], np.tile(slope, (len(ring), 1)),
                np.roll(ring, 1)[order], enter)
    else:
        fans = _fans(n, *_regular_triangulation(sites, psi), eps)
    fan_site, fan_verts, fan_nbr, enter = fans
    count = np.bincount(fan_site, minlength=n)
    inside = np.bincount(fan_site, ~contains(domain, fan_verts, -eps), n) == 0
    fast = (count >= 2) & inside & (enter < 0)
    clip, ends = domain_clipper(domain), np.cumsum(count)
    cells = {}
    for i in np.flatnonzero(~fast & ((count >= 2) | (enter >= 0))).tolist():
        at = slice(ends[i] - count[i], ends[i])
        verts, labels = fan_verts[at], [("nbr", j) for j in fan_nbr[at].tolist()]
        if enter[i] >= 0:
            verts = _close_fan(verts, sites, i, labels[-1][1], enter[i], domain)
            labels += [("box", 0), ("nbr", int(enter[i]))]
        cells[i] = clip(verts.tolist(), labels)
    taken = fast[fan_site]
    return _assemble(domain, sites, psi, route,
                     tuple(a[taken] for a in fans[:3]), cells)


def _close_fan(verts, sites, i, leave, enter, domain):
    """An open fan of site i as a convex polygon: its vertices, then its two
    rays, each along the bisector with a hull neighbour j and pointing along
    p_j - p_i turned counterclockwise, cut off on one line beyond the
    domain's bounding box and the fan. The line is perpendicular to the
    mean w of the rays' outward directions; the fan and its rays run
    monotonically across w, so one edge on the line joins the rays' ends
    into a convex polygon, and the domain clip removes that edge."""
    d = (sites[[leave, enter]] - sites[i]) * [[1], [-1]]
    # outward along each ray (the entering one traced backwards)
    out = np.column_stack([-d[:, 1], d[:, 0]]) / np.hypot(*d.T)[:, None]
    w = out.sum(axis=0) / np.hypot(*out.sum(axis=0))
    lo, hi = domain.bounding_box()
    c, r = 0.5 * (lo + hi), 0.5 * float(np.hypot(*(hi - lo)))
    level = max(r, float(((verts - c) @ w).max())) + r
    base = verts[[-1, 0]]
    ends = base + out * ((level - (base - c) @ w) / (out @ w))[:, None]
    return np.concatenate([verts, ends])


def _assemble(domain, sites, psi, route, rings, clipped):
    """The LaguerreDiagram of the cells taken as they are, rings = (site,
    vertex, neighbour) arrays ring after ring in site order, and of the cut
    cells, {site: (verts, labels)}; every other cell is empty.
    Areas and centroids are geometry.ring_area_centroid's."""
    n = len(sites)
    ring_site, ring_verts, ring_nbr = rings
    sizes = np.bincount(ring_site, minlength=n)
    for i, (cv, _) in clipped.items():
        sizes[i] = len(cv)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    V = int(offsets[-1])
    verts = np.empty((V, 2))
    nbr = np.full(V, -1)
    in_ring = np.zeros(n, dtype=bool)
    in_ring[ring_site] = True
    rows = np.repeat(in_ring, sizes)
    verts[rows] = ring_verts
    nbr[rows] = ring_nbr
    other = {}
    for i, (cv, labels) in clipped.items():
        s = int(offsets[i])
        if cv:
            verts[s:s + len(cv)] = cv
        for k, lab in enumerate(labels, s):
            if lab[0] == "nbr":
                nbr[k] = lab[1]
            else:
                other[k] = lab
    diagram = LaguerreDiagram(domain, sites, psi, route, verts, offsets, nbr,
                              other, np.repeat(np.arange(n), sizes),
                              ring_next(sizes), None, None)
    area, centroid = ring_area_centroid(verts, sizes, diagram.arc_edges())
    # an empty cell's centroid is its site
    centroid[sizes == 0] = sites[sizes == 0]
    diagram.area, diagram.centroid = area, centroid
    return diagram


def _box_piece(domain):
    """The domain's bounding box scaled by 1.02 about its centre, so that it
    holds the domain strictly, as a labeled start piece."""
    lo, hi = domain.bounding_box()
    c, h = 0.5 * (lo + hi), 0.51 * (hi - lo)
    (x0, y0), (x1, y1) = (c - h).tolist(), (c + h).tolist()
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)], [("box", k) for k in range(4)]


def cell_cutter(domain, sites, psi):
    """cut(verts, labels, i, nbrs): the part in cell i of a labeled convex
    start piece, cut by site i's bisectors against the sites nbrs
    (clip_to_bisectors) and then by the domain (domain_clipper), at the
    domain's clip eps. With every other site in nbrs and a start piece
    that holds the domain, it is cell i itself."""
    eps, clip = clip_eps(domain), domain_clipper(domain)

    def cut(verts, labels, i, nbrs):
        return clip(*clip_to_bisectors(verts, labels, sites, psi, i, nbrs, eps))
    return cut


def clip_to_bisectors(verts, labels, sites, psi, i, nbrs, eps):
    """Clip a labeled convex piece by site i's bisector half-planes
    {x : <x, p_j - p_i> <= psi_j - psi_i} for j in nbrs, in turn; the new
    edges get labels ("nbr", j). ([], []) once the piece is empty. Each
    normal is scaled to unit length, so eps is a distance, as on ring cells."""
    pi = sites[i]
    for j in nbrs:
        d = sites[j] - pi
        h = math.hypot(d[0], d[1])
        verts, labels = clip_halfplane(verts, labels, (d[0] / h, d[1] / h),
                                       (psi[j] - psi[i]) / h, ("nbr", int(j)),
                                       eps)
        if not verts:
            break
    return verts, labels


def compute_measures(diagram, K, tol=1e-10):
    """Per-cell masses G_i = ∫_cell K dx and K-weighted first moments, exact
    for constant densities (areas and centroids are closed-form). Otherwise
    every nonempty cell is integrated in one adaptive call, and tol bounds
    the error estimates summed over all cells, so the l1 error of G."""
    if K.is_constant:
        G = K.constant * diagram.area
        return G, G[:, None] * diagram.centroid
    out = integrate_ring_cells(diagram.verts, diagram.sizes, diagram.arc_edges(),
                               K, tol)
    return out[:, 0], out[:, 1:]


# Gauss-Legendre nodes per shared edge in edge_weights
_EDGE_NODES = 16


def edge_weights(diagram, K):
    """Hessian edge weights w_ij = ∫_(shared edge) K dH¹ / |p_i - p_j| for all
    adjacent pairs: (pairs, w), the sorted (E, 2) array of pairs i < j and
    their weights. Each edge is seen from both of its cells and w_ij is the
    mean of the two; for a non-constant K all edges' Gauss nodes go through
    one density call."""
    i, j, a, b = diagram.bisector_edges()
    lengths = np.hypot(*(b - a).T)
    keep = lengths > 0.0
    i, j, a, b, lengths = i[keep], j[keep], a[keep], b[keep], lengths[keep]
    if not len(i):
        return np.zeros((0, 2), dtype=int), np.zeros(0)
    if K.is_constant:
        line = K.constant * lengths
    else:
        xs, ws = gauss_legendre(_EDGE_NODES)
        pts = a[:, None] + xs[:, None] * (b - a)[:, None]
        line = (K(pts.reshape(-1, 2)).reshape(len(a), -1) @ ws) * lengths
    w = line / np.hypot(*(diagram.sites[i] - diagram.sites[j]).T)
    pairs, inv = _sorted_pairs(i, j, len(diagram.sites))
    return pairs, (np.bincount(inv, w, len(pairs))
                   / np.bincount(inv, minlength=len(pairs)))


def pairwise_overlap_area(diagram, i, j):
    """Area of the intersection of two cells (void for disjoint interiors);
    brute half-plane clipping, meant for invariant tests at small N. A cell
    is the intersection of its straight edges' half-planes with the domain,
    so both cells are rebuilt that way, each by its own edges, from the box
    around the domain: the vertex polygon of a cell with arc edges would
    drop the arcs' bulge."""
    a, b = diagram.cells[i], diagram.cells[j]
    if a.is_empty or b.is_empty:
        return 0.0
    eps = clip_eps(diagram.domain)
    verts, labels = _box_piece(diagram.domain)
    for cell in (a, b):
        # unit normals, so that eps is a distance
        normals, offsets = polygon_halfplanes(cell.verts)
        straight = [lab[0] != ARC for lab in cell.labels]
        verts, labels = clip_to_halfplanes(verts, labels, normals[straight],
                                           offsets[straight], eps)
    verts, labels = domain_clipper(diagram.domain)(verts, labels)
    if not verts:
        return 0.0
    area, _ = cell_area_centroid(verts, labels)
    return area
