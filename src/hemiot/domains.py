# Source-side geometry and measure: convex domains, curvature densities,
# mass classification, a disk's boundary chart constants (closed form),
# erosions, distance functions, and the boundary-cone constructions used by
# the gradient-blowup experiment.
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (  # QuadratureError is re-exported for the CLI
    ARC,
    ARC_EDGE,
    SIDE,
    QuadratureError,
    _PATCH_NODES,
    _TRI_NODES,
    cell_area_centroid,
    clip_to_circle,
    clip_to_halfplanes,
    integrate_cell,
    polygon_halfplanes,
    ring_area_centroid,
    ring_next,
)

OMEGA_2 = math.pi  # Lebesgue measure of the planar unit ball


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# domains: the convex source domains, and the chart target regions too

def _floats(x):
    """x as a float array, or None when it is not numbers."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True, eq=False)
class ConvexPolygonDomain:
    """Strictly convex polygon, vertices in counterclockwise order."""
    vertices: np.ndarray

    def __post_init__(self):
        v = _floats(self.vertices)
        if v is None or v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("need at least 3 planar vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        k = len(v)
        scale2 = float(np.max(np.abs(v))) ** 2 + 1e-300
        for i in range(k):
            a = v[(i + 1) % k] - v[i]
            b = v[(i + 2) % k] - v[(i + 1) % k]
            if a[0] * b[1] - a[1] * b[0] <= 1e-14 * scale2:
                raise ValueError("vertices must be strictly convex and counterclockwise")
        if len(np.unique(v, axis=0)) != k:
            raise ValueError("repeated vertices")
        object.__setattr__(self, "vertices", v)

    @property
    def area(self):
        return cell_area_centroid(*_wall_cell(self.vertices))[0]

    @property
    def centroid(self):
        return cell_area_centroid(*_wall_cell(self.vertices))[1]

    def edge_normals(self):
        """Outward unit normals and offsets: edge i is {x : n_i . x = b_i}."""
        return polygon_halfplanes(self.vertices)

    def bounding_box(self):
        v = self.vertices
        return v.min(axis=0), v.max(axis=0)


@dataclass(frozen=True, eq=False)
class DiskDomain:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _floats(self.center)
        if c is None or c.shape != (2,) or not np.isfinite(c).all():
            raise ValueError("center: expected two finite numbers")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius: must be finite and positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def area(self):
        return math.pi * self.radius ** 2

    @property
    def centroid(self):
        return self.center.copy()

    def bounding_box(self):
        r = self.radius
        return self.center - r, self.center + r


def domain_area(domain):
    return domain.area


def _wall_cell(vertices):
    """The polygon with these vertices as a labeled convex cell: edge i is
    wall i."""
    return ([tuple(p) for p in vertices.tolist()],
            [("wall", i) for i in range(len(vertices))])


def domain_cell(domain):
    """The domain as one labeled convex cell: the polygon with its walls, or
    the disk as two half-disk arcs."""
    if isinstance(domain, ConvexPolygonDomain):
        return _wall_cell(domain.vertices)
    (cx, cy), R = domain.center, domain.radius
    return [(cx + R, cy), (cx - R, cy)], [(ARC, (cx, cy), R)] * 2


def clip_eps(domain):
    """Clipping and vertex-merge tolerance for pieces of the domain: 1e-12
    of its bounding box's longer side."""
    lo, hi = domain.bounding_box()
    return 1e-12 * float(np.max(hi - lo))


def domain_clipper(domain):
    """Cut every cell of a straight-edged convex ragged array (ring, sizes,
    labels) (see geometry.clip_halfplane) to the domain: the disk's circle,
    or the polygon's walls, at the domain's clip eps."""
    eps = clip_eps(domain)
    if isinstance(domain, DiskDomain):
        c, R = domain.center, domain.radius
        return lambda ring, sizes, labels: clip_to_circle(ring, sizes, labels,
                                                          c, R, eps)
    normals, offsets = domain.edge_normals()
    return lambda ring, sizes, labels: clip_to_halfplanes(
        ring, sizes, labels, normals, offsets, eps)


def domain_arcs(domain, ring, sizes, labels):
    """The arcs (cell, a, b, ("arc", center, radius)) of a ragged array cut
    by the domain (see geometry.ragged_cells): its ARC_EDGE edges a -> b,
    each on the domain's circle."""
    k = np.flatnonzero(labels == ARC_EDGE)
    if not len(k):
        return []
    lab = (ARC, tuple(domain.center), domain.radius)
    cell = np.repeat(np.arange(len(sizes)), sizes)[k].tolist()
    return [(i, ring[a], ring[b], lab)
            for i, a, b in zip(cell, k, ring_next(sizes)[k])]


class GridCells(NamedTuple):
    """The clipped grid of grid_cells as arrays: piece i is cell i of the
    ragged array (ring, sizes, arcs) (see geometry.ragged_cells), with its
    area and centroid, and the corners (counterclockwise from the lower
    left) of the grid square it came from."""
    ring: np.ndarray
    sizes: np.ndarray
    arcs: list
    area: np.ndarray
    centroid: np.ndarray
    squares: np.ndarray


def grid_cells(domain, m):
    """The m×m grid squares over the domain's bounding box, column by
    column, all cut to the domain in one domain_clipper call, for the pieces
    of area above (10 eps)². Every piece's area and centroid come from one
    ring_area_centroid call."""
    lo, hi = domain.bounding_box()
    eps = clip_eps(domain)
    hx, hy = (hi - lo) / m
    col, row = np.divmod(np.arange(m * m), m)
    x0, y0 = lo[0] + col * hx, lo[1] + row * hy
    x1, y1 = x0 + hx, y0 + hy
    # corners (S, 4, 2), counterclockwise from (x0, y0)
    v = np.stack([np.column_stack(c) for c in
                  ((x0, y0), (x1, y0), (x1, y1), (x0, y1))], axis=1)
    ring, sizes, labels = domain_clipper(domain)(
        v.reshape(-1, 2), np.full(m * m, 4), np.full(4 * m * m, SIDE))
    arcs = domain_arcs(domain, ring, sizes, labels)
    area, centroid = ring_area_centroid(ring, sizes, arcs)
    keep = area > (10 * eps) ** 2
    index = np.cumsum(keep) - 1
    return GridCells(
        ring[np.repeat(keep, sizes)], sizes[keep],
        [(int(index[i]), a, b, lab) for i, a, b, lab in arcs if keep[i]],
        area[keep], centroid[keep], v[keep])


def contains(domain, x, tol=1e-12):
    """Membership test; x is a 2-vector or an (m, 2) array. A negative tol
    asks for points inside by more than -tol."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if isinstance(domain, DiskDomain):
        r = np.linalg.norm(pts - domain.center, axis=1)
        out = r <= domain.radius + tol
    else:
        n, b = domain.edge_normals()
        out = np.all(pts @ n.T <= b[None, :] + tol, axis=1)
    return bool(out[0]) if single else out


def distance_to_boundary(domain, x):
    """Euclidean distance to the domain boundary, signed negative outside.
    x is a 2-vector or an (m, 2) array."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if isinstance(domain, DiskDomain):
        out = domain.radius - np.linalg.norm(pts - domain.center, axis=1)
    else:
        n, b = domain.edge_normals()
        slack = b[None, :] - pts @ n.T  # inward distance to each edge line
        inside = np.all(slack >= 0.0, axis=1)
        out = slack.min(axis=1)
        if not inside.all():
            out[~inside] = -_nearest_on_polygon(domain.vertices,
                                                pts[~inside])[1]
    return float(out[0]) if single else out


def _nearest_on_polygon(verts, pts):
    """Nearest points on the closed polygon boundary to pts (m, 2), and their
    distances; a point equally near two edges takes the first."""
    w = np.roll(verts, -1, axis=0)
    best = np.empty_like(pts)
    d = np.full(len(pts), np.inf)
    for a, b in zip(verts, w):
        e = b - a
        tt = np.clip(((pts - a) @ e) / (e @ e), 0.0, 1.0)
        proj = a[None, :] + tt[:, None] * e[None, :]
        dist = np.linalg.norm(pts - proj, axis=1)
        closer = dist < d
        best[closer], d[closer] = proj[closer], dist[closer]
    return best, d


def nearest_boundary_point(domain, x):
    x = np.asarray(x, dtype=float)
    if isinstance(domain, DiskDomain):
        v = x - domain.center
        r = np.linalg.norm(v)
        if r < 1e-14:
            v = np.array([1.0, 0.0])
            r = 1.0
        return domain.center + domain.radius * v / r
    return _nearest_on_polygon(domain.vertices, x[None, :])[0][0]


def inradius_point(domain):
    """An interior point together with the radius of a ball around it inside
    the domain (used to seed dual weights)."""
    if isinstance(domain, DiskDomain):
        return domain.center.copy(), domain.radius
    c = domain.centroid
    n, b = domain.edge_normals()
    return c, float(np.min(b - n @ c))


def erode(domain, t):
    """Inner parallel body {x : d(x, boundary) >= t}; None when it is empty
    (or degenerates to a point/segment)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return domain
    if isinstance(domain, DiskDomain):
        r = domain.radius - t
        return DiskDomain(domain.center, r) if r > 1e-15 * domain.radius else None
    n, b = domain.edge_normals()
    scale = float(np.max(np.abs(domain.vertices))) + 1.0
    v = domain.vertices
    verts, size, _ = clip_to_halfplanes(v, np.array([len(v)]),
                                        np.full(len(v), SIDE), n, b - t,
                                        1e-12 * scale)
    if not size[0]:
        return None
    cleaned = _strictly_convex_cleanup(verts, 1e-10 * scale)
    if cleaned is None:
        return None
    area = cell_area_centroid(*_wall_cell(cleaned))[0]
    return ConvexPolygonDomain(cleaned) if area > (1e-10 * scale) ** 2 else None


def _strictly_convex_cleanup(v, tol):
    """Drop repeated and collinear vertices so the strict-convexity invariant holds."""
    keep = []
    k = len(v)
    for i in range(k):
        if keep and np.linalg.norm(v[i] - v[keep[-1]]) <= tol:
            continue
        keep.append(i)
    if len(keep) >= 2 and np.linalg.norm(v[keep[0]] - v[keep[-1]]) <= tol:
        keep.pop()
    v = v[keep]
    while True:
        k = len(v)
        if k < 3:
            return None
        drop = None
        for i in range(k):
            a = v[(i + 1) % k] - v[i]
            b = v[(i + 2) % k] - v[(i + 1) % k]
            if a[0] * b[1] - a[1] * b[0] <= tol * tol:
                drop = (i + 1) % k
                break
        if drop is None:
            return v
        v = np.delete(v, drop, axis=0)


# ---------------------------------------------------------------------------
# densities

@dataclass(frozen=True)
class SourceDensity:
    """Nonnegative density on the domain; optionally annotated with pointwise
    bounds and a boundary decay profile (C0, delta, r0) meaning
    K(x) <= C0 * d(x, boundary)^(-delta) for d < r0."""
    fn: object = None
    constant: float = None
    lower_bound: float = None
    upper_bound: float = None
    decay: tuple = None

    def __post_init__(self):
        if (self.fn is None) == (self.constant is None):
            raise ValueError("give exactly one of fn= or constant=")
        if self.decay is not None:
            C0, delta, r0 = self.decay
            if not (C0 > 0 and 0 < delta < 1 and r0 > 0):
                raise ValueError("decay must be (C0 > 0, delta in (0,1), r0 > 0)")

    @property
    def is_constant(self):
        return self.constant is not None

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = pts[None, :] if single else pts
        if self.is_constant:
            out = np.full(len(p), float(self.constant))
        else:
            out = np.asarray(self.fn(p), dtype=float)
        return float(out[0]) if single else out

    def validate(self, domain, nodes):
        """Check the declared bounds/decay at the given quadrature nodes."""
        vals = self(nodes)
        if np.any(vals < -1e-12):
            raise ValueError("density is negative at a quadrature node")
        if self.lower_bound is not None and np.any(vals < self.lower_bound - 1e-12):
            raise ValueError("density drops below its declared lower bound")
        if self.upper_bound is not None and np.any(vals > self.upper_bound + 1e-12):
            raise ValueError("density exceeds its declared upper bound")
        if self.decay is not None:
            C0, delta, r0 = self.decay
            d = distance_to_boundary(domain, nodes)
            near = (d < r0) & (d > 0)
            if np.any(vals[near] > C0 * d[near] ** (-delta) + 1e-9):
                raise ValueError("density violates its declared decay profile")


def constant_density(c, **kw):
    return SourceDensity(constant=float(c), **kw)


# ---------------------------------------------------------------------------
# total mass

def total_mass(domain, K, tol=1e-8):
    """Integral of the density over the domain by globally adaptive quadrature,
    classified against the critical value pi (the planar unit-ball measure).

    Returns (mass, regime) with regime in {"subcritical", "critical",
    "infeasible"}. Raises QuadratureError when the error estimate cannot be
    brought under tol (non-integrable or wildly singular densities)."""
    if K.is_constant:
        mass = K.constant * domain.area
        nodes = domain.centroid[None, :]
        K.validate(domain, nodes)
        return mass, _classify(mass, tol)
    # a polygon integrates as fan triangles, a disk as two arc patches
    panel_nodes = _PATCH_NODES if isinstance(domain, DiskDomain) else _TRI_NODES
    zero_panel = [False]

    def f(pts):
        v = K(pts)
        if not zero_panel[0] and np.any(v.reshape(-1, panel_nodes).max(axis=1) == 0.0):
            zero_panel[0] = True
        return v

    mass = float(integrate_cell(*domain_cell(domain), f, tol)[0])
    K.validate(domain, _sample_nodes(domain))
    if zero_panel[0]:
        warnings.warn("density vanishes on part of the domain; empty cells may "
                      "appear in the transport problem", RuntimeWarning)
    return mass, _classify(mass, tol)


def _classify(mass, tol):
    if abs(mass - OMEGA_2) <= tol:
        return "critical"
    if mass > OMEGA_2 + tol:
        return "infeasible"
    return "subcritical"


def _sample_nodes(domain, m=400, seed=711):
    """m points drawn uniformly from the domain, however thin: a disk in
    polar form, a polygon as its fan triangles about vertex 0, each drawn
    with probability proportional to its area."""
    rng = np.random.default_rng(seed)
    u, w = rng.random((2, m))
    if isinstance(domain, DiskDomain):
        r, t = domain.radius * np.sqrt(u), 2.0 * math.pi * w
        return domain.center + np.column_stack([r * np.cos(t), r * np.sin(t)])
    v = domain.vertices
    a, b = v[1:-1] - v[0], v[2:] - v[0]
    area = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    k = rng.choice(len(area), m, p=area / area.sum())
    # a point of the unit square beyond the diagonal folds back into the
    # triangle u, w >= 0, u + w <= 1
    fold = u + w > 1.0
    u[fold], w[fold] = 1.0 - u[fold], 1.0 - w[fold]
    return v[0] + u[:, None] * a[k] + w[:, None] * b[k]


# ---------------------------------------------------------------------------
# boundary chart constants

@dataclass(frozen=True)
class BoundaryGeometry:
    """Chart constants for the boundary: near every boundary point the boundary
    is the graph of an L-Lipschitz function over a tangential window of radius
    rho inside a box of height 2*C1*rho; R0 is an enclosing-ball radius bound."""
    rho: float
    L: float
    C1: float
    R0: float

    def __post_init__(self):
        if not (0 < self.rho < 1):
            raise ValueError("rho must be in (0, 1)")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if not self.C1 > 1:
            raise ValueError("C1 must exceed 1")
        if not self.R0 > 0:
            raise ValueError("R0 must be positive")


def boundary_geometry(domain):
    """Chart constants of a disk of radius R, in closed form: rho =
    min(R/(2*sqrt(2)), 0.95), L = 1, C1 = 1.1, R0 = R.

    In the tangent-line chart at a boundary point the circle is
    h(s) = R - sqrt(R^2 - s^2) = s^2 / (R + sqrt(R^2 - s^2)). Over
    |s| <= rho <= R/(2*sqrt(2)) this gives |h| <= rho^2/R <= rho/(2*sqrt(2))
    < C1*rho (at the uncapped rho, |h| <= (1 - sqrt(7/8)) R) and
    |h'| = |s|/sqrt(R^2 - s^2) <= 1/sqrt(7) < L. Only a uniformly convex
    domain has an enclosing-ball radius R0, so any other domain raises
    ValueError."""
    if not isinstance(domain, DiskDomain):
        raise ValueError("boundary chart constants are given for disks only")
    R = domain.radius
    return BoundaryGeometry(rho=min(R / (2.0 * math.sqrt(2.0)), 0.95),
                            L=1.0, C1=1.1, R0=R)


# ---------------------------------------------------------------------------
# boundary cones

def theta_of(d0, R0):
    """Cone half-angle parameter sqrt(d0 / (6 R0))."""
    if not (d0 > 0 and R0 > 0):
        raise ValueError("need d0 > 0 and R0 > 0")
    if d0 >= 6.0 * R0:
        raise ValueError("d0 >= 6 R0: the cone parameter would reach 1")
    return math.sqrt(d0 / (6.0 * R0))


def lambda_constant(n, delta, C0, L, R0):
    """Closed-form constant in the boundary gradient blowup bound
    |grad| >= Lambda * d^(-(1-delta)/(n+2)) - 2."""
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    if not (C0 > 0 and R0 > 0 and L >= 0):
        raise ValueError("need C0 > 0, R0 > 0, L >= 0")
    denom = n * 2 ** n * C0 * (1.0 + L) ** (n - 1) * (6.0 * R0 + 24.0 * R0 ** 2) ** ((n - 1) / 2.0)
    return ((1.0 - delta) / denom) ** (1.0 / (n + 2))


def d0_threshold(geo, r0=None):
    """Largest admissible boundary distance for the cone construction:
    min(rho^2/(16(1+4 R0)), r0/2, 1/4)."""
    out = min(geo.rho ** 2 / (16.0 * (1.0 + 4.0 * geo.R0)), 0.25)
    if r0 is not None:
        out = min(out, r0 / 2.0)
    return out


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Interior point x0 at distance d0 from the boundary along v0, with the
    cone parameter theta = sqrt(d0/(6 R0))."""
    x0: np.ndarray
    v0: np.ndarray
    d0: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=float))
        if abs(np.linalg.norm(self.v0) - 1.0) > 1e-10:
            raise ValueError("v0 must be a unit vector")
        if not (0 < self.theta < 1.0 / math.sqrt(6.0)):
            raise ValueError("theta must lie in (0, 1/sqrt(6))")


def make_cone_spec(domain, x0, geo=None):
    """Cone data at an interior point: v0 points to the nearest boundary point,
    d0 is the boundary distance, theta comes from the domain's R0."""
    geo = geo or boundary_geometry(domain)
    x0 = np.asarray(x0, dtype=float)
    d0 = distance_to_boundary(domain, x0)
    if d0 <= 0:
        raise ValueError("x0 must be interior")
    xb = nearest_boundary_point(domain, x0)
    v0 = (xb - x0) / np.linalg.norm(xb - x0)
    spec = ConeSpec(x0=x0, v0=v0, d0=float(d0), theta=theta_of(d0, geo.R0))
    if abs(np.linalg.norm(spec.x0 + spec.d0 * spec.v0 - xb)) > 1e-10:
        raise ValueError("inconsistent cone anchor")
    return spec


def cone_memberships(spec, x, p, p0):
    """Literal evaluation of the two cone inequalities.

    E_theta (source side): <x - x0, -v0> <= theta * |x - x0|.
    E*_theta (gradient side): |(p-p0)/|p-p0| - v0| <= theta and |p-p0| <= 1;
    p = p0 has no direction and is excluded by convention."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    dx = x - spec.x0
    in_e = float(dx @ (-spec.v0)) <= spec.theta * float(np.linalg.norm(dx)) + 1e-15
    dp = p - p0
    norm = float(np.linalg.norm(dp))
    if norm == 0.0:
        in_estar = False
    else:
        in_estar = (norm <= 1.0 + 1e-15
                    and float(np.linalg.norm(dp / norm - spec.v0)) <= spec.theta + 1e-15)
    return in_e, in_estar
