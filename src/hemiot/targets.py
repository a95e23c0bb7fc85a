# Discretization of a geodesically convex target region on the lower
# hemisphere into weighted sites whose masses integrate the chart density,
# rescaled to balance the source mass. In the gradient-plane chart a
# geodesically convex region is again convex, so a target region is a
# domains.DiskDomain or ConvexPolygonDomain, and it shares the source
# domain's clipper, membership test, grid and exact cell.
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chart import ring_chart_mass
from .domains import ConvexPolygonDomain, DiskDomain, grid_cells
from .geometry import has_duplicate_points


class FullHemisphere(DiskDomain):
    """The whole lower hemisphere, truncated to the chart disk of radius P
    about the origin; discretize gives it a polar site layout."""

    @property
    def truncation_radius(self):
        return self.radius


chart_disk, chart_polygon = DiskDomain, ConvexPolygonDomain


def full_hemisphere(truncation_radius):
    return FullHemisphere(np.zeros(2), truncation_radius)


def truncation_radius_for(epsilon):
    """Smallest chart radius P whose tail mass pi/(1+P^2) is <= epsilon."""
    if not 0 < epsilon < math.pi:
        raise ValueError("epsilon must be in (0, pi)")
    return math.sqrt(math.pi / epsilon - 1.0)


# absolute quadrature tolerance of region_mass on a disk off the origin (the
# chart density is at most 1), the only region whose mass is not in closed
# form: its two half-disk patches are integrated to this error estimate
_REGION_TOL = 1e-13


def region_mass(region):
    """Chart-density mass of the region: ring_chart_mass of its ring().
    That is closed form for a polygon and for a disk about the origin, the
    truncated hemisphere among them (pi s^2/(1+s^2)); a disk off the origin
    is its two half-disk patches integrated by the adaptive engine to an
    absolute error estimate of _REGION_TOL."""
    return float(ring_chart_mass(*region.ring(), _REGION_TOL,
                                 region.circle)[0])


@dataclass(frozen=True, eq=False)
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
        if has_duplicate_points(sites):
            raise ValueError("sites must be distinct")
        rel = abs(masses.sum() - self.total) / max(abs(self.total), 1e-300)
        if rel > 1e-13:
            raise ValueError(f"masses do not sum to total (rel err {rel:.2e})")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "masses", masses)

    def __len__(self):
        return len(self.sites)


def discretize(region, N, source_mass):
    """At most N sites covering the region, masses integrating the chart
    density per cell, one global rescale pinning the total to source_mass.

    chart disk / polygon: a regular grid over the chart bounding box,
    grid cells clipped to the region (domains.grid_cells, read as arrays),
    site = clipped-cell centroid (kept inside by convexity), empty cells
    dropped; the cells' chart-density masses come from ring_chart_mass in
    closed form. Only the parts between a chord and an arc of a disk off
    the origin go to one adaptive quadrature call, with the error estimates
    summing to at most 1e-11 of the region mass.

    FullHemisphere: a deterministic polar grid uniform in (w, phi) with
    w = |p|^2/(1+|p|^2), whose cell masses are exact (the chart density in
    those variables is dw dphi / 2); a bounding-box grid cannot resolve the
    unbounded chart (its center cell alone would carry ~70% of the mass at
    practical N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not source_mass > 0:
        raise ValueError("source_mass must be positive")
    cap = region_mass(region)
    if cap <= 0:
        raise ValueError("region has no mass")
    if N == 1:
        site = region.centroid
        return DiscreteTarget(sites=site[None, :], masses=np.array([source_mass]),
                              total=source_mass, rescale_factor=source_mass / cap,
                              pre_rescale_mismatch=abs(cap - source_mass))
    if isinstance(region, FullHemisphere):
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
        warnings.warn(f"discretization rescale factor {factor:.3g} is far from 1; "
                      "the grid is too coarse for the requested mass", RuntimeWarning)
    return out


# quadrature tolerance of the grid-cell masses on a disk off the origin,
# relative to the region mass and summed over the patches between the
# pieces' chords and arcs, the only parts not in closed form
_GRID_TOL = 1e-11


def _bbox_grid(region, N, mass):
    """Grid squares over the region's bounding box clipped to it: sites at
    the pieces' centroids, masses of the chart density (mass is the
    region's, which scales the quadrature tolerance)."""
    grid = grid_cells(region, int(math.floor(math.sqrt(N))))
    nu = ring_chart_mass(grid.ring, grid.sizes, grid.labels, _GRID_TOL * mass,
                         region.circle)
    keep = nu > 0
    return grid.centroid[keep], nu[keep]


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

