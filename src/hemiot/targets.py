# Discretization of a geodesically convex target region on the lower
# hemisphere (described in the gradient-plane chart) into weighted sites whose
# masses integrate the chart density, rescaled to balance the source mass.
import math
from dataclasses import dataclass

import numpy as np

from .chart import chart_density, is_geodesically_convex
from .geometry import (
    ARC,
    clip_to_circle,
    clip_to_halfplanes,
    clipped_grid,
    integrate_cell,
    integrate_cells,
    polygon_area,
    polygon_centroid,
    polygon_halfplanes,
)


@dataclass(frozen=True)
class TargetRegion:
    """kind in {"chart_disk", "chart_polygon", "full_hemisphere"}; disks carry
    (center, radius), polygons their chart vertices, the full hemisphere a
    finite truncation radius for its unbounded chart."""
    kind: str
    center: np.ndarray = None
    radius: float = None
    vertices: np.ndarray = None
    truncation_radius: float = None


def chart_disk(center, radius):
    if not radius > 0:
        raise ValueError("radius must be positive")
    return TargetRegion(kind="chart_disk", center=np.asarray(center, dtype=float),
                        radius=float(radius))


def chart_polygon(vertices):
    region = TargetRegion(kind="chart_polygon",
                          vertices=np.asarray(vertices, dtype=float))
    # a clockwise polygon is convex too, but its region_mass is negative
    if not is_geodesically_convex(region) or polygon_area(region.vertices) <= 0:
        raise ValueError("chart polygon must be convex (counterclockwise)")
    return region


def full_hemisphere(truncation_radius):
    if not truncation_radius > 0:
        raise ValueError("truncation radius must be positive and finite")
    return TargetRegion(kind="full_hemisphere", truncation_radius=float(truncation_radius))


def truncation_radius_for(epsilon):
    """Smallest chart radius P whose tail mass pi/(1+P^2) is <= epsilon."""
    if not 0 < epsilon < math.pi:
        raise ValueError("epsilon must be in (0, pi)")
    return math.sqrt(math.pi / epsilon - 1.0)


# absolute quadrature tolerance of region_mass (the chart density is at most
# 1): on disks about the origin of radius 0.1 to 10 the engine meets the
# closed form pi s^2/(1+s^2) to within 5e-15 relative at this tolerance
_REGION_TOL = 1e-13


def region_mass(region):
    """Chart-density mass of the region. Disks centered at the origin and the
    truncated hemisphere have the closed form pi s^2/(1+s^2); anything else is
    one cell (polygon, or disk with arc edges) integrated by the adaptive
    engine to an absolute error estimate of _REGION_TOL."""
    if region.kind == "full_hemisphere":
        s = region.truncation_radius
        return math.pi * s * s / (1.0 + s * s)
    if region.kind == "chart_disk":
        if float(np.linalg.norm(region.center)) < 1e-15:
            s = region.radius
            return math.pi * s * s / (1.0 + s * s)
        verts, labels = _disk_cell(region.center, region.radius)
    else:
        verts = [tuple(v) for v in region.vertices]
        labels = [("edge", i) for i in range(len(verts))]
    return float(integrate_cell(verts, labels, chart_density, _REGION_TOL)[0])


def _disk_cell(center, R):
    cx, cy = center
    return ([(cx + R, cy), (cx - R, cy)],
            [(ARC, (cx, cy), R), (ARC, (cx, cy), R)])


@dataclass(frozen=True)
class DiscreteTarget:
    """Finite weighted site cloud in the chart: masses are positive, sites
    distinct, and the masses sum to `total` exactly (one common rescale)."""
    sites: np.ndarray
    masses: np.ndarray
    total: float = None
    rescale_factor: float = 1.0
    pre_rescale_mismatch: float = 0.0

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if len(sites) != len(masses) or len(sites) == 0:
            raise ValueError("need matching, nonempty sites and masses")
        if self.total is None:
            object.__setattr__(self, "total", float(masses.sum()))
        if np.any(masses <= 0):
            raise ValueError("all masses must be positive")
        if len(np.unique(sites.round(decimals=12), axis=0)) != len(sites):
            raise ValueError("sites must be distinct")
        rel = abs(masses.sum() - self.total) / max(abs(self.total), 1e-300)
        if rel > 1e-13:
            raise ValueError(f"masses do not sum to total (rel err {rel:.2e})")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "masses", masses)

    def __len__(self):
        return len(self.sites)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("p1,p2,mass\n")
            for (p1, p2), m in zip(self.sites, self.masses):
                fh.write(f"{p1!r},{p2!r},{m!r}\n")


def discretize(region, N, source_mass, seed=0):
    """At most N sites covering the region, masses integrating the chart
    density per cell, one global rescale pinning the total to source_mass.

    chart_disk / chart_polygon: a regular grid over the chart bounding box,
    grid cells clipped to the region, site = clipped-cell centroid (kept inside
    by convexity), empty cells dropped; the cells' chart-density masses come
    from one adaptive quadrature call over all of them, with the error
    estimates summing to at most 1e-11 of the region mass.

    full_hemisphere: a deterministic polar grid uniform in (w, phi) with
    w = |p|^2/(1+|p|^2), whose cell masses are exact (the chart density in
    those variables is dw dphi / 2); a bounding-box grid cannot resolve the
    unbounded chart (its center cell alone would carry ~70% of the mass at
    practical N). The seed is reserved for a jitter option and unused by the
    default deterministic layouts."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not source_mass > 0:
        raise ValueError("source_mass must be positive")
    cap = region_mass(region)
    if cap <= 0:
        raise ValueError("region has no mass")
    if N == 1:
        site = _region_centroid(region)
        return DiscreteTarget(sites=site[None, :], masses=np.array([source_mass]),
                              total=source_mass, rescale_factor=source_mass / cap,
                              pre_rescale_mismatch=abs(cap - source_mass))
    if region.kind == "full_hemisphere":
        sites, masses = _polar_grid(region.truncation_radius, N)
    else:
        sites, masses = _bbox_grid(region, N, cap)
    if len(sites) == 0:
        raise ValueError("N too small: no nonempty cells")
    pre = masses.sum()
    factor = source_mass / pre
    masses = masses * factor
    # pin the total exactly (one representative absorbs the last ulp)
    masses[-1] += source_mass - masses.sum()
    out = DiscreteTarget(sites=sites, masses=masses, total=source_mass,
                         rescale_factor=factor, pre_rescale_mismatch=abs(pre - source_mass))
    if not 0.5 <= factor <= 2.0:
        import warnings
        warnings.warn(f"discretization rescale factor {factor:.3g} is far from 1; "
                      "the grid is too coarse for the requested mass", RuntimeWarning)
    return out


def _region_centroid(region):
    if region.kind == "chart_disk":
        return region.center.copy()
    if region.kind == "full_hemisphere":
        return np.zeros(2)
    return polygon_centroid(region.vertices)


# quadrature tolerance of the grid-cell masses, relative to the region mass
# and summed over all cells
_GRID_TOL = 1e-11


def _bbox_grid(region, N, mass):
    """Grid squares over the region's bounding box clipped to it: sites at
    the pieces' centroids, masses integrating the chart density (mass is the
    region's, which scales the quadrature tolerance)."""
    if region.kind == "chart_disk":
        lo = region.center - region.radius
        hi = region.center + region.radius
    else:
        lo = region.vertices.min(axis=0)
        hi = region.vertices.max(axis=0)
    eps = 1e-12 * float(max(hi - lo))
    if region.kind == "chart_disk":
        circle = (tuple(region.center), region.radius)

        def clip(verts, labels):
            return clip_to_circle(verts, labels, *circle, eps)
    else:
        planes = polygon_halfplanes(region.vertices)

        def clip(verts, labels):
            return clip_to_halfplanes(verts, labels, *planes, eps)
    m = int(math.floor(math.sqrt(N)))
    pieces = list(clipped_grid(lo, hi, m, clip, eps))
    nu = integrate_cells([(verts, labels) for _, verts, labels, _, _ in pieces],
                         chart_density, _GRID_TOL * mass)[:, 0]
    keep = nu > 0
    sites = np.array([cen for _, _, _, _, cen in pieces]).reshape(-1, 2)
    return sites[keep], nu[keep]


def _polar_grid(P_max, N):
    w_max = P_max * P_max / (1.0 + P_max * P_max)
    m_r = max(1, int(round(math.sqrt(2.5 * N))))
    m_a = max(1, N // m_r)
    dw = w_max / m_r
    dphi = 2.0 * math.pi / m_a
    sites = np.empty((m_r * m_a, 2))
    idx = 0
    for i in range(m_r):
        w = (i + 0.5) * dw
        r = math.sqrt(w / (1.0 - w))
        off = 0.5 * dphi if i % 2 else 0.0
        for j in range(m_a):
            phi = off + (j + 0.5) * dphi
            sites[idx] = (r * math.cos(phi), r * math.sin(phi))
            idx += 1
    masses = np.full(m_r * m_a, 0.5 * dw * dphi)
    return sites, masses


def region_contains(region, p, tol=1e-9):
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    pts = p[None, :] if single else p
    if region.kind == "chart_disk":
        out = np.linalg.norm(pts - region.center, axis=1) <= region.radius + tol
    elif region.kind == "full_hemisphere":
        out = np.linalg.norm(pts, axis=1) <= region.truncation_radius + tol
    else:
        n, b = polygon_halfplanes(region.vertices)
        out = np.all(pts @ n.T <= b[None, :] + tol, axis=1)
    return bool(out[0]) if single else out
