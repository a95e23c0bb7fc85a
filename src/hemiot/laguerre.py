# Laguerre (power) diagrams of the dual weights: the partition of the domain
# into convex cells on which each affine function <x, p_i> - psi_i attains the
# upper envelope. A cell is the ring of power vertices around its site in the
# regular triangulation of the lifted sites and three sentinels that enclose
# them (Aurenhammer 1987), cut by the domain, exactly, including
# circular-arc boundaries on disk domains, when it reaches the boundary. The
# cut and its tolerance are the domain's own (its clip method and
# domains.clip_eps), one call for all rings; a single site's cell is the
# domain's own ring (its ring method). cell_cutter cuts given pieces by
# bisectors and then by the same clip. A diagram holds all its cells in
# one ragged vertex array, and builds its neighbour graph once, on first
# use: the Newton order, connectivity, point location and the oracle's cuts
# all read it.
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import clip_eps
from .geometry import (
    clip_halfplane,
    gauss_legendre,
    has_duplicate_points,
    integrate_ring_cells,
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
    inside cell owner[k], with the clippers' int label labels[k]: j >= 0 the
    bisector against site j, geometry.WALL - w wall w of a polygon domain,
    or geometry.ARC_EDGE an arc of a disk domain's circle. area and
    centroid are per cell; an empty cell has area 0 and its site as
    centroid."""
    domain: object
    sites: np.ndarray
    psi: np.ndarray
    verts: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray
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
        labels = self.labels.tolist()
        out = []
        for i, (s, e) in enumerate(zip(self.offsets[:-1].tolist(),
                                       self.offsets[1:].tolist())):
            nbrs = sorted({j for j in labels[s:e] if j >= 0})
            out.append(LaguerreCell(i, verts[s:e], labels[s:e], nbrs,
                                    float(self.area[i]), self.centroid[i].copy()))
        return out

    @cached_property
    def _graph(self):
        """(k, pair, pairs, indptr, nbrs): the neighbour graph, built once.
        k lists the positive-length bisector edges, pairs is the sorted
        (E, 2) array of the distinct pairs i < j of cells that share one,
        and pair[e] is the row of edge k[e]'s pair. The same graph as CSR
        rows: cell i's neighbours are nbrs[indptr[i]:indptr[i + 1]],
        ascending."""
        n = len(self.sites)
        k = np.flatnonzero(self.labels >= 0)
        k = k[(self.verts[k] != self.verts[self.nxt[k]]).any(axis=1)]
        i, j = self.owner[k], self.labels[k]
        keys, pair = np.unique(np.minimum(i, j) * n + np.maximum(i, j),
                               return_inverse=True)
        pairs = np.column_stack([keys // n, keys % n])
        return k, pair, pairs, *_rows(n, pairs)

    def adjacency_edges(self):
        """Sorted (E, 2) array of the pairs i < j of cells that share a
        positive-length edge."""
        return self._graph[2]

    def neighbour_rows(self):
        """(indptr, nbrs): the graph of adjacency_edges() as CSR rows, cell
        i's neighbours nbrs[indptr[i]:indptr[i + 1]] in ascending order."""
        return self._graph[3:]

    def is_connected(self):
        """Whether the nonempty cells form one component of the graph of
        adjacency_edges(): the breadth-first search from the first nonempty
        cell reaches every nonempty cell."""
        live = self.nonempty
        reached = level_order(*self.neighbour_rows(), int(live.argmax()))
        return bool(reached[live].all())


def _rows(n, pairs):
    """(indptr, nbrs): the graph of n nodes with edges pairs, a sorted
    (E, 2) array of pairs i < j, as CSR rows, each row ascending. The pairs
    are sorted, so a stable sort by node keeps the lower neighbours (j's
    rows) ahead of the higher ones (i's rows), each run ascending."""
    i, j = pairs.T
    node = np.concatenate([j, i])
    nbrs = np.concatenate([i, j])[np.argsort(node, kind="stable")]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(node, minlength=n))])
    return indptr, nbrs


def level_order(indptr, nbrs, start=0):
    """Boolean mask of the nodes that a breadth-first search from node start
    reaches in the graph of CSR rows (indptr, nbrs): its connected
    component. Each pass gathers the rows of the last level at once."""
    cnt = np.diff(indptr)
    seen = np.zeros(len(cnt), dtype=bool)
    seen[start] = True
    level = np.array([start], dtype=np.intp)
    while len(level):
        c = cnt[level]
        head = np.cumsum(c) - c
        kids = nbrs[np.arange(c.sum()) + np.repeat(indptr[level] - head, c)]
        level = np.unique(kids[~seen[kids]])
        seen[level] = True
    return seen


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
    # each ring starts at its head (its first corner in corner order) and
    # advances one successor per pass; ring s fills rows start[s] onward
    count = np.bincount(site, minlength=n)
    start = np.cumsum(count) - count
    ring, cur = np.unique(site, return_index=True)
    order = np.empty(len(corner), dtype=np.intp)
    for t in range(count.max(initial=0)):
        on = count[ring] > t
        ring, cur = ring[on], cur[on]
        order[start[ring] + t] = cur
        cur = succ[cur]
    # every corner is placed exactly once (a walk off the real corners
    # places -1)
    if not (np.bincount(order[order >= 0], minlength=len(corner)) == 1).all():
        raise RuntimeError("the lower hull's facets do not form one ring "
                           "around each site")
    verts = power[corner[order] // 3]
    nxt = ring_next(count)
    apart = (np.abs(verts - verts[nxt]) > eps).any(axis=1)
    order = order[apart]
    return (site[order], verts[apart],
            np.roll(tri, -2, axis=1).ravel()[corner[order]])


def laguerre_diagram(domain, sites, psi):
    """Partition of the domain into the cells of max_i(<x, p_i> - psi_i).

    The diagram holds every cell in one ragged vertex array with per-cell
    offsets and an edge label per vertex (see LaguerreDiagram); `cells` is
    the same diagram as LaguerreCell objects, built on first access. The
    cells come from the regular triangulation, the lower hull of the lifted
    sites (p, psi) and three sentinels around them (_with_sentinels), so
    that every site on it has a closed ring of power vertices (_rings).
    Every ring of two or more vertices goes through one domain cut, which
    keeps a ring inside the domain whole and removes every vertex and edge
    that involves a sentinel. Collinear sites and affine psi (psi = 0
    included) take the same route. A single site's cell is the domain's own
    ring (domain.ring()), so it is the domain exactly."""
    sites = _validate_sites(sites)
    psi = np.asarray(psi, dtype=float)
    if len(psi) != len(sites):
        raise ValueError("psi length mismatch")
    n = len(sites)
    if n == 1:
        return _assemble(domain, sites, psi, *domain.ring())
    ring_site, ring_verts, ring_nbr = _rings(n, *_regular_triangulation(
        *_with_sentinels(domain, sites, psi)), clip_eps(domain))
    count = np.bincount(ring_site, minlength=n)
    # a ring of fewer than two vertices is an empty cell
    closed = (count >= 2)[ring_site]
    cut = domain.clip(ring_verts[closed], np.where(count >= 2, count, 0),
                      ring_nbr[closed])
    return _assemble(domain, sites, psi, *cut)


def _assemble(domain, sites, psi, ring, sizes, labels):
    """The LaguerreDiagram of the cells of a ragged array cut by the domain,
    one per site. Areas and centroids are geometry.ring_area_centroid's."""
    area, centroid = ring_area_centroid(ring, sizes, labels, domain.circle)
    # an empty cell's centroid is its site
    centroid[sizes == 0] = sites[sizes == 0]
    return LaguerreDiagram(domain, sites, psi, ring,
                           np.concatenate([[0], np.cumsum(sizes)]), labels,
                           np.repeat(np.arange(len(sites)), sizes),
                           ring_next(sizes), area, centroid)


def cell_cutter(domain, sites, psi, ring, sizes, labels, cell, indptr, nbrs):
    """The part in cell cell[k] of each convex start piece k of a ragged
    array (ring, sizes, labels), cut by the bisector half-planes
    {x : <x, p_j - p_i> <= psi_j - psi_i} of site i = cell[k] against the
    sites j in row i of the CSR rows (indptr, nbrs), cell i's row
    nbrs[indptr[i]:indptr[i + 1]], new edges labelled j, and then by the
    domain (domain.clip), at the domain's clip eps. Pass t, one for each
    entry of the longest row, cuts the pieces whose row has a t-th entry,
    all in one clip_halfplane call; each normal is scaled to unit length,
    so eps is a distance, as on ring cells. With every other site in its
    row and a start piece that holds the domain, a part is cell i itself.
    Returns the ragged array of the parts."""
    eps = clip_eps(domain)
    count = np.diff(indptr)
    for t in range(count.max(initial=0)):
        k = np.flatnonzero(count[cell] > t)
        i = cell[k]
        j = nbrs[indptr[i] + t]
        d = sites[j] - sites[i]
        h = np.hypot(d[:, 0], d[:, 1])
        ring, sizes, labels = clip_halfplane(
            ring, sizes, labels, d / h[:, None], (psi[j] - psi[i]) / h, j,
            eps, k)
    return domain.clip(ring, sizes, labels)


def compute_measures(diagram, K, tol=1e-10):
    """(G, None): the per-cell masses G_i = ∫_cell K dx, exact for constant
    densities (K times the closed-form areas). Otherwise every nonempty cell
    is integrated in one adaptive call, and tol bounds the error estimates
    summed over all cells, so the l1 error of G. The second value is always
    None: callers outside the package (the benchmark's checks) unpack a
    pair."""
    if K.is_constant:
        return K.constant * diagram.area, None
    return integrate_ring_cells(diagram.verts, diagram.sizes, diagram.labels,
                                K, tol, diagram.domain.circle), None


# Gauss-Legendre nodes per shared edge in edge_weights
_EDGE_NODES = 16


def edge_weights(diagram, K):
    """Hessian edge weights w_ij = ∫_(shared edge) K dH¹ / |p_i - p_j| for all
    adjacent pairs: (pairs, w), the diagram's adjacency_edges() and their
    weights. Each edge is seen from both of its cells and w_ij is the mean
    of the two; for a non-constant K all edges' Gauss nodes go through one
    density call."""
    k, pair, pairs = diagram._graph[:3]
    if not len(k):
        return pairs, np.zeros(0)
    i, j = diagram.owner[k], diagram.labels[k]
    a, b = diagram.verts[k], diagram.verts[diagram.nxt[k]]
    lengths = np.hypot(*(b - a).T)
    if K.is_constant:
        line = K.constant * lengths
    else:
        xs, ws = gauss_legendre(_EDGE_NODES)
        pts = a[:, None] + xs[:, None] * (b - a)[:, None]
        line = (K(pts.reshape(-1, 2)).reshape(len(a), -1) @ ws) * lengths
    w = line / np.hypot(*(diagram.sites[i] - diagram.sites[j]).T)
    return pairs, (np.bincount(pair, w, len(pairs))
                   / np.bincount(pair, minlength=len(pairs)))
