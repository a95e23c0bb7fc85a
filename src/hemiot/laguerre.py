# Laguerre (power) diagrams of the dual weights: the partition of the domain
# into convex cells on which each affine function <x, p_i> - psi_i attains the
# upper envelope. A cell is the ring of power vertices around its site in the
# regular triangulation of the lifted sites and three sentinels that enclose
# them (Aurenhammer 1987), cut by the domain, exactly, including
# circular-arc boundaries on disk domains, when it reaches the boundary. The
# cut and its tolerance are the domain's own (domains.domain_clipper and
# clip_eps), made once for all rings; the brute route and the one-site
# diagram cut boxes around the domain by bisectors (cell_cutter) and end in
# the same clipper. A diagram holds all its cells in one ragged vertex
# array.
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import DiskDomain, clip_eps, domain_arcs, domain_clipper
from .geometry import (
    ARC,
    ARC_EDGE,
    SIDE,
    WALL,
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
    route: str    # "hull" or "brute": how the diagram was built
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


def _with_sentinels(domain, sites, psi):
    """The sites and psi followed by three sentinel sites: the corners of an
    equilateral triangle about the centre m of the sites' bounding box, at
    4 max_i |p_i - m| from m, each with weight
    psi_s = max_i [psi_i + <c, p_s - p_i> + rho |p_s - p_i|], c the centre
    of the domain's bounding box and rho its diagonal. Each sentinel's
    bisector with any site then lies at least rho from c, so no sentinel
    wins anywhere in the domain, and every cell vertex or edge that involves
    a sentinel lies at least rho / 2 outside it. Every site lies strictly
    inside the triangle and strictly below the sentinels' lifted plane, so
    the lift is never flat, its hull has no vertical facet, and each site on
    the lower hull has a closed ring of facets around it."""
    m = 0.5 * (sites.min(axis=0) + sites.max(axis=0))
    angle = 0.5 * np.pi + 2.0 * np.pi / 3.0 * np.arange(3)
    s = m + 4.0 * np.hypot(*(sites - m).T).max() \
        * np.column_stack([np.cos(angle), np.sin(angle)])
    lo, hi = domain.bounding_box()
    c, rho = 0.5 * (lo + hi), float(np.hypot(*(hi - lo)))
    d = s[:, None] - sites
    weight = (psi + d @ c + rho * np.hypot(d[..., 0], d[..., 1])).max(axis=1)
    return np.concatenate([sites, s]), np.concatenate([psi, weight])


def _regular_triangulation(sites, psi):
    """Lower facets of the hull of the lifted sites (p, psi): the regular
    triangulation. Returns the facets as CCW site triples (F, 3), the lower
    facet across the edge opposite each corner (-1 where there is none: the
    triangulation's outer boundary), and each facet's power vertex, the
    point where its three sites' affine functions tie (for a facet whose
    sites are collinear to rounding, the slope of the facet's plane). Sites
    lifted strictly above the hull are dominated everywhere and lie on no
    facet. The lift must not be flat: `laguerre_diagram` adds sentinels."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.column_stack([sites, psi]), qhull_options="Qt")
    lower = hull.equations[:, 2] < 0
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
    degenerate = np.abs(det) <= 1e-12 * np.hypot(*d1.T) * np.hypot(*d2.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.column_stack([r1 * d2[:, 1] - r2 * d1[:, 1],
                                 d1[:, 0] * r2 - d2[:, 0] * r1]) / det[:, None]
    eq = hull.equations[lower][degenerate]
    power[degenerate] = -eq[:, :2] / eq[:, 2:3]
    cw = det < 0
    tri[cw] = tri[cw][:, [0, 2, 1]]
    across[cw] = across[cw][:, [0, 2, 1]]
    return tri, across, power


def _rings(n, tri, across, power, eps):
    """The ring of power vertices around each of the first n sites, read off
    the triangulation, in which each of them must be an interior vertex.
    Around a site v, the facet after (v, v1, v2) in CCW order is the one
    across the edge v-v2, its power vertex is a cell vertex, and the cell
    edge that leaves it lies on the bisector of v and v2. A ring vertex
    within eps (in both coordinates) of the next one is dropped with the
    zero-length edge it starts, as the clippers merge vertices. Returns, ring
    after ring in site order, each vertex's site, its coordinates and the
    neighbour across the edge that leaves it."""
    corner = np.flatnonzero(tri.ravel() < n)
    site = tri.ravel()[corner]
    g = np.roll(across, -1, axis=1).ravel()[corner]
    if (g < 0).any():
        raise RuntimeError("a site lies on the outer boundary of the regular "
                           "triangulation: the sentinels do not enclose it")
    # successor of each corner: the corner of the same site in the next facet
    at_corner = np.full(tri.size, -1)
    at_corner[corner] = np.arange(len(corner))
    succ = at_corner[3 * g + np.argmax(tri[g] == site[:, None], axis=1)]
    # each corner's distance along its ring from the ring's head (its first
    # corner in corner order), by pointer jumping along predecessors:
    # O(log of the longest ring) passes
    k = np.arange(len(corner))
    head = np.zeros(len(corner), dtype=bool)
    head[np.unique(site, return_index=True)[1]] = True
    pred = k.copy()
    pred[succ] = k
    pred[head] = k[head]
    dist = (~head).astype(int)
    for _ in range(int(np.log2(max(len(k), 1))) + 1):
        if (pred[pred] == pred).all():
            break
        dist += dist[pred]
        pred = pred[pred]
    count = np.bincount(site, minlength=n)
    at = np.cumsum(count)[site] - count[site] + dist
    if not ((dist < count[site]).all() and (np.bincount(at) == 1).all()):
        raise RuntimeError("the lower hull's facets do not form one ring "
                           "around each site")
    order = np.empty_like(k)
    order[at] = k
    verts = power[corner[order] // 3]
    nxt = np.where(dist == count[site] - 1, at - dist, at + 1)[order]
    apart = (np.abs(verts - verts[nxt]) > eps).any(axis=1)
    order = order[apart]
    return (site[order], verts[apart],
            np.roll(tri, -2, axis=1).ravel()[corner[order]])


def laguerre_diagram(domain, sites, psi, method="auto"):
    """Partition of the domain into the cells of max_i(<x, p_i> - psi_i).

    The diagram holds every cell in one ragged vertex array with per-cell
    offsets and an edge label per vertex (see LaguerreDiagram); `cells` is
    the same diagram as LaguerreCell objects, built on first access.
    `method` decides how the cells are built, and the diagram records the
    route taken in `route`:
      "auto"  route "hull": the regular triangulation from the lower hull of
              the lifted sites (p, psi) and three sentinels around them
              (_with_sentinels), so that every site on it has a closed ring
              of power vertices (_rings). Every ring of two or more
              vertices goes through one domain cut, which keeps a ring
              inside the domain whole and removes every vertex and edge
              that involves a sentinel. Collinear sites and affine psi
              (psi = 0 included) take this route too.
      "brute" a box around the domain for each site, cut by the bisectors
              of every other site and then by the domain (cell_cutter);
              kept as an independent oracle.
    One site takes brute whatever the method, so its cell is the domain
    exactly. Both routes produce the same cells."""
    if method not in ("auto", "brute"):
        raise ValueError(f"unknown method {method!r}")
    sites = _validate_sites(sites)
    psi = np.asarray(psi, dtype=float)
    if len(psi) != len(sites):
        raise ValueError("psi length mismatch")
    n = len(sites)
    if n == 1 or method == "brute":
        t = np.arange(n - 1)
        others = t + (t >= np.arange(n)[:, None])
        cut = cell_cutter(domain, sites, psi)(*_boxes(domain, n),
                                               np.arange(n), others)
        return _assemble(domain, sites, psi, "brute", *cut)
    ring_site, ring_verts, ring_nbr = _rings(n, *_regular_triangulation(
        *_with_sentinels(domain, sites, psi)), clip_eps(domain))
    count = np.bincount(ring_site, minlength=n)
    # a ring of fewer than two vertices is an empty cell
    closed = (count >= 2)[ring_site]
    cut = domain_clipper(domain)(ring_verts[closed],
                                 np.where(count >= 2, count, 0),
                                 ring_nbr[closed])
    return _assemble(domain, sites, psi, "hull", *cut)


def _assemble(domain, sites, psi, route, ring, sizes, labels):
    """The LaguerreDiagram of the cells of a ragged array cut by the domain,
    one per site: its bisector labels go to nbr, its arc and wall labels to
    other_labels. Areas and centroids are geometry.ring_area_centroid's."""
    n = len(sites)
    arc = (ARC, tuple(domain.center), domain.radius) \
        if isinstance(domain, DiskDomain) else None
    k = np.flatnonzero(labels < 0)
    other = {e: arc if lab == ARC_EDGE else ("wall", WALL - lab)
             for e, lab in zip(k.tolist(), labels[k].tolist())}
    diagram = LaguerreDiagram(domain, sites, psi, route, ring,
                              np.concatenate([[0], np.cumsum(sizes)]),
                              np.maximum(labels, -1), other,
                              np.repeat(np.arange(n), sizes),
                              ring_next(sizes), None, None)
    area, centroid = ring_area_centroid(ring, sizes, diagram.arc_edges())
    # an empty cell's centroid is its site
    centroid[sizes == 0] = sites[sizes == 0]
    diagram.area, diagram.centroid = area, centroid
    return diagram


def _boxes(domain, k):
    """k copies of the domain's bounding box scaled by 1.02 about its
    centre, so that each holds the domain strictly: a ragged array of start
    pieces with SIDE edges."""
    lo, hi = domain.bounding_box()
    c, h = 0.5 * (lo + hi), 0.51 * (hi - lo)
    (x0, y0), (x1, y1) = c - h, c + h
    return (np.tile([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], (k, 1)),
            np.full(k, 4), np.full(4 * k, SIDE))


def cell_cutter(domain, sites, psi):
    """cut(ring, sizes, labels, cell, nbrs): the part in cell cell[k] of
    each convex start piece k of a ragged array, cut by the bisector
    half-planes {x : <x, p_j - p_i> <= psi_j - psi_i} of site i = cell[k]
    against the sites j in row k of nbrs (padded with -1), new edges
    labelled j, and then by the domain (domain_clipper), at the domain's
    clip eps. Pass t cuts the pieces that have a t-th neighbour, all in
    one clip_halfplane call; each normal is scaled to unit length, so eps
    is a distance, as on ring cells. With every other site in its row and
    a start piece that holds the domain, a part is cell i itself."""
    eps, clip = clip_eps(domain), domain_clipper(domain)

    def cut(ring, sizes, labels, cell, nbrs):
        for t in range(nbrs.shape[1]):
            k = np.flatnonzero(nbrs[:, t] >= 0)
            i, j = cell[k], nbrs[k, t]
            d = sites[j] - sites[i]
            h = np.hypot(d[:, 0], d[:, 1])
            ring, sizes, labels = clip_halfplane(
                ring, sizes, labels, d / h[:, None], (psi[j] - psi[i]) / h,
                j, eps, k)
        return clip(ring, sizes, labels)
    return cut


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
    domain = diagram.domain
    eps = clip_eps(domain)
    piece = _boxes(domain, 1)
    for cell in (a, b):
        # unit normals, so that eps is a distance
        normals, offsets = polygon_halfplanes(cell.verts)
        straight = [lab[0] != ARC for lab in cell.labels]
        piece = clip_to_halfplanes(*piece, normals[straight],
                                   offsets[straight], eps)
    ring, sizes, labels = domain_clipper(domain)(*piece)
    area, _ = ring_area_centroid(ring, sizes,
                                 domain_arcs(domain, ring, sizes, labels))
    return float(area[0])
