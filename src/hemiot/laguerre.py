# Laguerre (power) diagrams of the dual weights: the partition of the domain
# into convex cells on which each affine function <x, p_i> - psi_i attains the
# upper envelope. Cells are clipped exactly, including circular-arc boundaries
# on disk domains.
from dataclasses import dataclass, field

import numpy as np

from .domains import ConvexPolygonDomain, DiskDomain, initial_cell
from .geometry import (
    ARC,
    cell_area_centroid,
    clip_halfplane,
    clip_to_circle,
    clip_to_halfplanes,
    gauss_legendre,
    integrate_cells,
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
    domain: object
    sites: np.ndarray
    psi: np.ndarray
    cells: list
    route: str    # "hull", "flat" or "brute": how the clip neighbours were found

    def total_area(self):
        return sum(c.area for c in self.cells)

    def adjacency_edges(self):
        """Sorted (i, j) pairs of cells sharing a positive-length edge."""
        out = set()
        for c in self.cells:
            for lab in c.labels:
                if lab[0] == "nbr":
                    out.add((min(c.site_index, lab[1]), max(c.site_index, lab[1])))
        return sorted(out)

    def is_connected(self):
        n = len(self.cells)
        live = [i for i in range(n) if not self.cells[i].is_empty]
        if len(live) <= 1:
            return True
        adj = {i: set() for i in live}
        for i, j in self.adjacency_edges():
            adj[i].add(j)
            adj[j].add(i)
        seen = {live[0]}
        stack = [live[0]]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(live)


def _validate_sites(sites):
    sites = np.asarray(sites, dtype=float)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (N, 2) array")
    if len(np.unique(sites.round(decimals=12), axis=0)) != len(sites):
        raise ValueError("duplicate sites")
    return sites


def _lower_hull_candidates(sites, psi):
    """Neighbor candidates from the regular triangulation: lift sites to
    (p, psi) and read the lower convex hull. Sites lifted strictly above the
    hull are dominated everywhere (empty cells). A flat lift (psi affine over
    the sites) or collinear sites make qhull raise; `laguerre_diagram` sends
    both elsewhere before calling this."""
    from scipy.spatial import ConvexHull

    pts = np.column_stack([sites, psi])
    hull = ConvexHull(pts, qhull_options="Qt")
    lower = hull.equations[:, 2] < -1e-12
    simplices = hull.simplices[lower]
    if len(simplices) == 0:
        raise RuntimeError("no lower facets")
    n = len(sites)
    cand = [set() for _ in range(n)]
    on_hull = np.zeros(n, dtype=bool)
    for tri in simplices:
        on_hull[tri] = True
        for a in range(3):
            i, j = tri[a], tri[(a + 1) % 3]
            cand[i].add(j)
            cand[j].add(i)
    return [sorted(c) for c in cand], on_hull


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

    Each cell is the domain clipped by the bisector half-planes of its
    candidate neighbours; `method` decides how the candidates are found, and
    the diagram records the route taken in `route`:
      "hull"  regular-triangulation neighbours from the lower hull of the
              lifted sites (p, psi); qhull errors propagate.
      "flat"  psi affine over the sites (psi = 0 included): the two
              neighbours along the sites' 2D convex hull, whose vertices
              are the only sites with cells.
      "brute" every other site; kept as an independent oracle.
    method "auto" takes brute for N <= 8 and for collinear sites, flat when
    psi is affine, and hull otherwise. All routes produce the same cells."""
    if method not in ("auto", "hull", "brute"):
        raise ValueError(f"unknown method {method!r}")
    sites = _validate_sites(sites)
    psi = np.asarray(psi, dtype=float)
    if len(psi) != len(sites):
        raise ValueError("psi length mismatch")
    n = len(sites)
    if n == 1:
        verts, labels, circle = initial_cell(domain)
        if circle is not None:
            verts, labels = clip_to_circle(verts, labels, circle[0], circle[1],
                                           _geom_eps(domain))
        area, cen = cell_area_centroid(verts, labels)
        cell = LaguerreCell(0, verts, labels, [], area, cen)
        return LaguerreDiagram(domain, sites, psi, [cell], "brute")

    route = method
    if method == "auto":
        if n <= 8 or _is_collinear(sites):
            route = "brute"
        elif _is_affine(sites, psi):
            route = "flat"
        else:
            route = "hull"
    if route == "hull":
        cand, on_hull = _lower_hull_candidates(sites, psi)
    elif route == "flat":
        cand, on_hull = _flat_candidates(sites)
    else:
        cand = [[j for j in range(n) if j != i] for i in range(n)]
        on_hull = np.ones(n, dtype=bool)

    eps = _geom_eps(domain)
    verts0, labels0, circle = initial_cell(domain)
    cells = []
    for i in range(n):
        if not on_hull[i]:
            cells.append(LaguerreCell(i, [], [], [], 0.0, sites[i].copy()))
            continue
        verts, labels = clip_to_bisectors(verts0, labels0, sites, psi, i,
                                          cand[i], eps)
        if verts and circle is not None:
            verts, labels = clip_to_circle(verts, labels, circle[0], circle[1], eps)
        if not verts:
            cells.append(LaguerreCell(i, [], [], [], 0.0, sites[i].copy()))
            continue
        nbrs = sorted({lab[1] for lab in labels if lab[0] == "nbr"})
        area, cen = cell_area_centroid(verts, labels)
        cells.append(LaguerreCell(i, verts, labels, nbrs, area, cen))
    return LaguerreDiagram(domain, sites, psi, cells, route)


def clip_to_bisectors(verts, labels, sites, psi, i, nbrs, eps):
    """Clip a labeled convex piece by site i's bisector half-planes
    {x : <x, p_j - p_i> <= psi_j - psi_i} for j in nbrs, in turn; the new
    edges get labels ("nbr", j). ([], []) once the piece is empty."""
    pi = sites[i]
    for j in nbrs:
        d = sites[j] - pi
        verts, labels = clip_halfplane(verts, labels, (d[0], d[1]),
                                       psi[j] - psi[i], ("nbr", int(j)), eps)
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
    n = len(diagram.cells)
    G = np.zeros(n)
    M = np.zeros((n, 2))
    live = [c for c in diagram.cells if not c.is_empty]
    if K.is_constant:
        k = K.constant
        for c in live:
            G[c.site_index] = k * c.area
            M[c.site_index] = k * c.area * c.centroid
        return G, M
    out = integrate_cells([(c.verts, c.labels) for c in live], K, tol)
    idx = [c.site_index for c in live]
    G[idx] = out[:, 0]
    M[idx] = out[:, 1:]
    return G, M


# Gauss-Legendre nodes per shared edge in edge_weights
_EDGE_NODES = 16


def edge_weights(diagram, K, tol=1e-10):
    """Hessian edge weights w_ij = ∫_(shared edge) K dH¹ / |p_i - p_j| for all
    adjacent pairs; dict keyed by sorted index pairs. Each edge is seen from
    both of its cells and w_ij is the mean of the two; for a non-constant K
    all edges' Gauss nodes go through one density call."""
    ends, pairs = [], []
    for c in diagram.cells:
        m = len(c.verts)
        for e, lab in enumerate(c.labels):
            if lab[0] == "nbr":
                ends.append((c.verts[e], c.verts[(e + 1) % m]))
                pairs.append((c.site_index, lab[1]))
    if not pairs:
        return {}
    ab = np.array(ends, dtype=float)                       # (E, 2, 2)
    ij = np.array(pairs)
    lengths = np.hypot(*(ab[:, 1] - ab[:, 0]).T)
    if K.is_constant:
        line = K.constant * lengths
    else:
        xs, ws = gauss_legendre(_EDGE_NODES)
        pts = ab[:, :1] + xs[:, None] * (ab[:, 1:] - ab[:, :1])
        line = (K(pts.reshape(-1, 2)).reshape(len(ab), -1) @ ws) * lengths
    w = line / np.linalg.norm(diagram.sites[ij[:, 0]] - diagram.sites[ij[:, 1]],
                              axis=1)
    keep = lengths > 0.0
    acc = {}
    for (i, j), x in zip(ij[keep].tolist(), w[keep].tolist()):
        acc.setdefault((min(i, j), max(i, j)), []).append(x)
    return {k: sum(v) / len(v) for k, v in acc.items()}


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
