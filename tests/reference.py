# Independent references the tests compare the package against: the Laguerre
# diagram built by brute bisector clipping, the overlap of two cells, the
# normal-cone and Gauss-map-image checks of a solution, and the curvature
# formula for graphs.
import numpy as np

from hemiot.chart import c_exp_rows
from hemiot.domains import clip_eps
from hemiot.geometry import (ARC_EDGE, SIDE, clip_to_halfplanes,
                             polygon_halfplanes, ring_area_centroid)
from hemiot.laguerre import _assemble, cell_cutter
from hemiot.solver import _dense_plane


def _boxes(domain, k):
    """k copies of the domain's bounding box scaled by 1.02 about its
    centre, so that each holds the domain strictly: a ragged array of start
    pieces with SIDE edges."""
    lo, hi = domain.bounding_box()
    c, h = 0.5 * (lo + hi), 0.51 * (hi - lo)
    (x0, y0), (x1, y1) = c - h, c + h
    return (np.tile([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], (k, 1)),
            np.full(k, 4), np.full(4 * k, SIDE))


def brute_diagram(domain, sites, psi):
    """The Laguerre diagram of laguerre_diagram's instance, built without
    the regular triangulation: a box around the domain for each site, cut
    by the bisectors of every other site and then by the domain
    (laguerre.cell_cutter)."""
    sites = np.asarray(sites, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = len(sites)
    t = np.arange(n - 1)
    others = t + (t >= np.arange(n)[:, None])
    cut = cell_cutter(domain, sites, psi)(*_boxes(domain, n), np.arange(n),
                                           others)
    return _assemble(domain, sites, psi, *cut)


def pairwise_overlap_area(diagram, i, j):
    """Area of the intersection of two cells (void for disjoint interiors);
    brute half-plane clipping, for invariant tests at small N. A cell is
    the intersection of its straight edges' half-planes with the domain, so
    both cells are rebuilt that way, each by its own edges, from the box
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
        straight = np.array(cell.labels) != ARC_EDGE
        piece = clip_to_halfplanes(*piece, normals[straight],
                                   offsets[straight], eps)
    area, _ = ring_area_centroid(*domain.clip(*piece), domain.circle)
    return float(area[0])


def normal_cone_check(domain, sites, psi, x, num_samples, seed=0):
    """Sample points z̄ = (z, u(z) + s) on or above the graph of
    u = max_i <·, p_i> - psi_i and verify they make a nonpositive inner
    product with the hemisphere direction active at x. Every score is the
    dense scan's (solver._dense_plane), as supporting_plane's are."""
    sites = np.asarray(sites, dtype=float)
    psi = np.asarray(psi, dtype=float)
    x = np.asarray(x, dtype=float)
    if not domain.contains(x[None])[0]:
        raise ValueError("x must lie in the domain")
    (k,), (ux,) = _dense_plane(sites, psi, x[None, :])
    nrm = c_exp_rows(sites[k:k + 1])[0]
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    scale = max(1.0, float(np.abs(sites).max()) * float(np.abs(hi - lo).max()))
    done = 0
    while done < num_samples:
        z = rng.uniform(lo, hi, size=(4 * (num_samples - done), 2))
        z = z[domain.contains(z)]
        if len(z) == 0:
            continue
        z = z[: num_samples - done]
        s = rng.exponential(scale=scale, size=len(z))
        uz = _dense_plane(sites, psi, z)[1]
        lhs = (z - x) @ nrm[:2] + (uz + s - ux) * nrm[2]
        if np.any(lhs > 1e-10):
            return False
        done += len(z)
    return True


def gauss_map_image_check(solution, target):
    """One-sided Hausdorff distances between the achieved image directions
    (sites with nonempty cells) and the full prescribed set, plus the number
    of positive-mass sites left with empty cells."""
    from scipy.spatial import cKDTree
    pts_all = c_exp_rows(target.sites)
    live = solution.diagram.nonempty
    n_empty_required = ((~live) & (target.masses > 0)).sum()
    pts_live = pts_all[live]
    if len(pts_live) == 0:
        return float("inf"), float("inf"), int(n_empty_required)
    h_live_to_all = float(cKDTree(pts_all).query(pts_live)[0].max())
    h_all_to_live = float(cKDTree(pts_live).query(pts_all)[0].max())
    return h_live_to_all, h_all_to_live, int(n_empty_required)
