# Laguerre (power) diagrams of the dual weights: the partition of the domain
# into convex cells on which each affine function <x, p_i> - psi_i attains the
# upper envelope. Cells strictly inside the domain are read off the regular
# triangulation of the lifted sites; the others are clipped exactly,
# including circular-arc boundaries on disk domains. A diagram holds all its
# cells in one ragged vertex array.
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import ConvexPolygonDomain, DiskDomain, initial_cell
from .geometry import (
    ARC,
    _segment_area_moment,
    cell_area_centroid,
    clip_halfplane,
    clip_to_circle,
    clip_to_halfplanes,
    gauss_legendre,
    integrate_ring_cells,
    polygon_halfplanes,
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
        live = self.sizes >= 2
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
    key = sites.round(decimals=12)
    key = key[np.lexsort(key.T[::-1])]
    if (key[1:] == key[:-1]).all(axis=1).any():
        raise ValueError("duplicate sites")
    return sites


def _regular_triangulation(sites, psi):
    """Lower facets of the hull of the lifted sites (p, psi): the regular
    triangulation. Returns the facets as CCW site triples (F, 3), the lower
    facet across the edge opposite each corner (-1 where there is none: the
    triangulation's outer boundary), and each facet's power vertex, the
    point where its three sites' affine functions tie (NaN for a facet of
    collinear sites). Sites lifted strictly above the hull are dominated
    everywhere and lie on no facet. A flat lift (psi affine over the sites)
    or collinear sites make qhull raise; `laguerre_diagram` sends both
    elsewhere before calling this."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.column_stack([sites, psi]), qhull_options="Qt")
    lower = hull.equations[:, 2] < -1e-12
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
    power[flat] = np.nan
    cw = det < 0
    tri[cw] = tri[cw][:, [0, 2, 1]]
    across[cw] = across[cw][:, [0, 2, 1]]
    return tri, across, power


def _rings(tri, across, power, eps):
    """The cells of the sites whose incident facets close a ring around
    them, read off the triangulation. Around a site v, the facet after
    (v, v1, v2) in CCW order is the one across the edge v-v2, the cell
    vertex of each facet is its power vertex, and the cell edge that leaves
    it lies on the bisector of v and v2. Sites on the triangulation's outer
    boundary or on a facet of collinear sites get no ring. A ring vertex
    within eps (in both coordinates) of the next one is dropped with the
    zero-length edge it starts, the way geometry._dedupe does on a clipped
    cell. Returns, ring after ring in site order, each vertex's site, its
    coordinates and the neighbour across the edge that leaves it."""
    n = int(tri.max()) + 1
    site = tri.ravel()
    nxt_facet = np.roll(across, -1, axis=1).ravel()
    ok = np.ones(n, dtype=bool)
    ok[site[nxt_facet < 0]] = False
    ok[tri[np.isnan(power[:, 0])].ravel()] = False
    keep = np.flatnonzero(ok[site])
    site_k = site[keep]
    # successor of each kept corner: the corner of the same site in the next
    # facet, as an index into keep
    g = nxt_facet[keep]
    rank = np.full(len(site), -1)
    rank[keep] = np.arange(len(keep))
    succ = rank[3 * g + np.argmax(tri[g] == site_k[:, None], axis=1)]
    # each corner's distance along its ring from the ring's first corner
    # (in keep order), by pointer jumping along predecessors: O(log of the
    # longest ring) array passes
    count = np.bincount(site_k, minlength=n)
    start = np.cumsum(count) - count
    head = np.zeros(len(keep), dtype=bool)
    head[np.argsort(site_k, kind="stable")[start[count > 0]]] = True
    pred = np.arange(len(keep))
    pred[succ] = np.arange(len(keep))
    pred[head] = np.flatnonzero(head)
    dist = (~head).astype(int)
    for _ in range(int(np.log2(max(len(keep), 1))) + 1):
        if (pred[pred] == pred).all():
            break
        dist += dist[pred]
        pred = pred[pred]
    at = start[site_k] + dist
    if len(keep) and not ((dist < count[site_k]).all()
                          and (np.bincount(at) == 1).all()):
        raise RuntimeError("the lower hull's facets do not close one ring "
                           "around each interior site")
    corners = np.empty(len(keep), dtype=int)
    corners[at] = keep
    verts = power[corners // 3]
    nxt = np.empty(len(keep), dtype=int)
    nxt[at] = np.where(dist == count[site_k] - 1, at - dist, at + 1)
    apart = (np.abs(verts - verts[nxt]) > eps).any(axis=1)
    corners = corners[apart]
    return site[corners], verts[apart], np.roll(tri, -2, axis=1).ravel()[corners]


def _strictly_inside(domain, pts, eps):
    """Per point: inside the domain by more than eps."""
    if isinstance(domain, DiskDomain):
        return np.hypot(*(pts - domain.center).T) < domain.radius - eps
    normals, offsets = domain.edge_normals()
    return (pts @ normals.T < offsets - eps).all(axis=1)


def _flat_candidates(sites):
    """Neighbor candidates when psi is affine over the sites. Then
    <x, p_i> - psi_i = <x - a, p_i> - b, so the diagram is the normal fan of
    the sites' convex hull shifted by a (Aurenhammer 1987): only hull
    vertices own cells, and each is cut by its two hull neighbours alone."""
    from scipy.spatial import ConvexHull

    ring = ConvexHull(sites).vertices      # CCW in 2D
    n = len(sites)
    cand = [[] for _ in range(n)]
    on_hull = np.zeros(n, dtype=bool)
    on_hull[ring] = True
    h = len(ring)
    for k in range(h):
        cand[ring[k]] = sorted({int(ring[k - 1]), int(ring[(k + 1) % h])})
    return cand, on_hull


def _is_collinear(sites):
    """Rank-1 sites: every lift lies in a vertical plane and has no 2D hull."""
    s = np.linalg.svd(sites - sites.mean(axis=0), compute_uv=False)
    return s[1] <= 1e-12 * s[0]


def _is_affine(sites, psi):
    """psi = a·p + b over the sites up to rounding: the residual of the
    least-squares fit, against the largest lifted coordinate. In random
    trials qhull rejected lifts as flat up to a residual of about 2e-12 of
    that coordinate; the bound leaves a wide margin above it."""
    A = np.column_stack([sites, np.ones(len(sites))])
    coef = np.linalg.lstsq(A, psi, rcond=None)[0]
    resid = float(np.abs(psi - A @ coef).max())
    scale = max(float(np.abs(sites).max()), float(np.abs(psi).max()))
    return resid <= 1e-10 * scale


def laguerre_diagram(domain, sites, psi, method="auto"):
    """Partition of the domain into the cells of max_i(<x, p_i> - psi_i).

    The diagram holds every cell in one ragged vertex array with per-cell
    offsets and an edge label per vertex (see LaguerreDiagram); `cells` is
    the same diagram as LaguerreCell objects, built on first access. A cell
    is either clipped, the domain cut by the bisector half-planes of its
    candidate neighbours (clip_to_bisectors, then the disk's circle), or
    read off the regular triangulation. `method` decides how, and the
    diagram records the route taken in `route`:
      "hull"  the regular triangulation from the lower hull of the lifted
              sites (p, psi); qhull errors propagate. A site's cell is the
              ring of power vertices of its incident facets, taken as it is
              when the ring is closed (the site is not on the
              triangulation's outer boundary) and every ring vertex lies
              inside the domain by more than the clip eps. Every other
              cell is clipped, with its triangulation neighbours as
              candidates.
      "flat"  psi affine over the sites (psi = 0 included): cells clipped
              by the two neighbours along the sites' 2D convex hull, whose
              vertices are the only sites with cells.
      "brute" cells clipped by every other site; kept as an independent
              oracle.
    method "auto" takes brute for N <= 8 and for collinear sites, flat when
    psi is affine, and hull otherwise. All routes produce the same cells."""
    if method not in ("auto", "hull", "brute"):
        raise ValueError(f"unknown method {method!r}")
    sites = _validate_sites(sites)
    psi = np.asarray(psi, dtype=float)
    if len(psi) != len(sites):
        raise ValueError("psi length mismatch")
    n = len(sites)
    eps = _geom_eps(domain)
    verts0, labels0, circle = initial_cell(domain)

    def clipped(i, cand):
        verts, labels = clip_to_bisectors(verts0, labels0, sites, psi, i,
                                          cand, eps)
        if verts and circle is not None:
            verts, labels = clip_to_circle(verts, labels, circle[0], circle[1],
                                           eps)
        return verts, labels

    no_rings = (np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0, dtype=int))
    if n == 1:
        return _assemble(domain, sites, psi, "brute", no_rings,
                         {0: clipped(0, [])})

    route = method
    if method == "auto":
        if n <= 8 or _is_collinear(sites):
            route = "brute"
        elif _is_affine(sites, psi):
            route = "flat"
        else:
            route = "hull"
    if route == "brute":
        return _assemble(domain, sites, psi, route, no_rings, {
            i: clipped(i, [j for j in range(n) if j != i]) for i in range(n)})
    if route == "flat":
        cand, on_hull = _flat_candidates(sites)
        return _assemble(domain, sites, psi, route, no_rings, {
            i: clipped(i, cand[i]) for i in np.flatnonzero(on_hull).tolist()})

    tri, across, power = _regular_triangulation(sites, psi)
    rings = _rings(tri, across, power, eps)
    ring_site, ring_verts, _ = rings
    outside = np.bincount(ring_site, ~_strictly_inside(domain, ring_verts, eps),
                          n) > 0
    ringed = np.bincount(ring_site, minlength=n) >= 2
    fast = ringed & ~outside
    taken = fast[ring_site]
    rings = tuple(a[taken] for a in rings)
    on_hull = np.zeros(n, dtype=bool)
    on_hull[tri.ravel()] = True
    rest = on_hull & ~fast
    # triangulation neighbours of the sites that are clipped instead, sorted
    edges = np.column_stack([tri.ravel(), np.roll(tri, -1, axis=1).ravel()])
    edges = np.concatenate([edges, edges[:, ::-1]])
    keys = np.unique(edges[rest[edges[:, 0]]] @ [n, 1])
    bounds = np.searchsorted(keys // n, np.arange(n + 1))
    cand = (keys % n).tolist()
    return _assemble(domain, sites, psi, route, rings, {
        i: clipped(i, cand[bounds[i]:bounds[i + 1]])
        for i in np.flatnonzero(rest).tolist()})


def _assemble(domain, sites, psi, route, rings, clipped):
    """The LaguerreDiagram of the cells read off the triangulation, rings =
    (site, vertex, neighbour) arrays ring after ring in site order, and of
    the clipped cells, {site: (verts, labels)}; every other cell is empty.
    Areas and centroids are segmented shoelace sums plus, for each arc edge,
    the circular segment outside its chord."""
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
    owner = np.repeat(np.arange(n), sizes)
    nxt = np.arange(1, V + 1)
    nxt[offsets[1:][sizes > 0] - 1] = offsets[:-1][sizes > 0]
    a, b = verts, verts[nxt]
    cross = a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    area = 0.5 * np.bincount(owner, cross, n)
    mom = np.column_stack([np.bincount(owner, (a[:, c] + b[:, c]) * cross, n)
                           for c in range(2)]) / 6.0
    for k, lab in other.items():
        if lab[0] == ARC:
            s_area, s_mom = _segment_area_moment(lab[1], lab[2], tuple(a[k]),
                                                 tuple(b[k]))
            area[owner[k]] += s_area
            mom[owner[k]] += s_mom
    # a cell of zero area keeps its vertex mean, an empty one its site
    mean = np.column_stack([np.bincount(owner, verts[:, c], n)
                            for c in range(2)]) / np.maximum(sizes, 1)[:, None]
    centroid = np.where((sizes > 0)[:, None], mean, sites)
    pos = area > 0
    centroid[pos] = mom[pos] / area[pos, None]
    return LaguerreDiagram(domain, sites, psi, route, verts, offsets, nbr, other,
                           owner, nxt, area, centroid)


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


def _geom_eps(domain):
    lo, hi = domain.bounding_box()
    return 1e-12 * float(np.max(hi - lo))


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
    so both cells are rebuilt that way from the domain's start cell: the
    vertex polygon of a cell with arc edges would drop the arcs' bulge."""
    a, b = diagram.cells[i], diagram.cells[j]
    if a.is_empty or b.is_empty:
        return 0.0
    eps = _geom_eps(diagram.domain)
    verts, labels, circle = initial_cell(diagram.domain)
    for cell in (a, b):
        # unit normals, so that eps is a distance
        normals, offsets = polygon_halfplanes(cell.verts)
        straight = [lab[0] != ARC for lab in cell.labels]
        verts, labels = clip_to_halfplanes(verts, labels, normals[straight],
                                           offsets[straight], eps)
    if verts and circle is not None:
        verts, labels = clip_to_circle(verts, labels, circle[0], circle[1], eps)
    if not verts:
        return 0.0
    area, _ = cell_area_centroid(verts, labels)
    return area
