# Source-side geometry and measure: convex domains, curvature densities,
# mass classification, a disk's boundary chart constants (closed form),
# distance functions, and the boundary-cone constructions used by
# the gradient-blowup experiment.
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (  # QuadratureError is re-exported for the CLI
    ARC_EDGE,
    SIDE,
    WALL,
    QuadratureError,
    clip_to_circle,
    clip_to_halfplanes,
    integrate_ring_cells,
    polygon_halfplanes,
    ring_area_centroid,
)

OMEGA_2 = math.pi  # Lebesgue measure of the planar unit ball


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# domains: the convex source domains, and the chart target regions too. Each
# kind answers for itself, on (m, 2) arrays of points: ring() and circle (the
# domain as a one-cell ragged array, and the circle of its ARC_EDGE edges),
# clip (the cut of a ragged array to the domain), contains, distance, nearest
# and sample.

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
    circle = None  # a polygon cuts no arc

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
        return float(ring_area_centroid(*self.ring())[0][0])

    @property
    def centroid(self):
        return ring_area_centroid(*self.ring())[1][0]

    def edge_normals(self):
        """Outward unit normals and offsets: edge i is {x : n_i . x = b_i}."""
        return polygon_halfplanes(self.vertices)

    def bounding_box(self):
        v = self.vertices
        return v.min(axis=0), v.max(axis=0)

    def ring(self):
        """The polygon as a one-cell ragged array (ring, sizes, labels),
        edge k labelled WALL - k."""
        v = self.vertices
        return v, np.array([len(v)]), WALL - np.arange(len(v))

    def clip(self, ring, sizes, labels):
        """Cut every cell of a straight-edged convex ragged array (see
        geometry.clip_halfplane) by the walls, at the domain's clip eps."""
        return clip_to_halfplanes(ring, sizes, labels, *self.edge_normals(),
                                  clip_eps(self))

    def contains(self, pts, tol=1e-12):
        """Membership of each point; a negative tol asks for points inside
        by more than -tol."""
        n, b = self.edge_normals()
        return np.all(pts @ n.T <= b + tol, axis=1)

    def distance(self, pts):
        """Euclidean distance of each point to the boundary, negative
        outside."""
        n, b = self.edge_normals()
        slack = b - pts @ n.T  # inward distance to each edge line
        out = slack.min(axis=1)
        outside = ~np.all(slack >= 0.0, axis=1)
        x = pts[outside]
        out[outside] = -np.linalg.norm(x - self.nearest(x), axis=1)
        return out

    def nearest(self, pts):
        """The nearest boundary point to each point; a point equally near
        two edges takes the first."""
        v = self.vertices
        best = np.empty_like(pts)
        d = np.full(len(pts), np.inf)
        for a, b in zip(v, np.roll(v, -1, axis=0)):
            e = b - a
            tt = np.clip(((pts - a) @ e) / (e @ e), 0.0, 1.0)
            proj = a[None, :] + tt[:, None] * e[None, :]
            dist = np.linalg.norm(pts - proj, axis=1)
            closer = dist < d
            best[closer], d[closer] = proj[closer], dist[closer]
        return best

    def sample(self, rng, m):
        """m points drawn uniformly from the polygon, however thin: its fan
        triangles about vertex 0, each drawn with probability proportional
        to its area."""
        u, w = rng.random((2, m))
        v = self.vertices
        a, b = v[1:-1] - v[0], v[2:] - v[0]
        area = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        k = rng.choice(len(area), m, p=area / area.sum())
        # a point of the unit square beyond the diagonal folds back into the
        # triangle u, w >= 0, u + w <= 1
        fold = u + w > 1.0
        u[fold], w[fold] = 1.0 - u[fold], 1.0 - w[fold]
        return v[0] + u[:, None] * a[k] + w[:, None] * b[k]


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

    @property
    def circle(self):
        """(center, radius): the circle of every ARC_EDGE edge the disk
        cuts."""
        return self.center, self.radius

    def bounding_box(self):
        r = self.radius
        return self.center - r, self.center + r

    def ring(self):
        """The disk as a one-cell ragged array (ring, sizes, labels): two
        half-disk ARC_EDGE arcs of its circle."""
        (cx, cy), R = self.center, self.radius
        return (np.array([[cx + R, cy], [cx - R, cy]]), np.array([2]),
                np.full(2, ARC_EDGE))

    def clip(self, ring, sizes, labels):
        """Cut every cell of a straight-edged convex ragged array (see
        geometry.clip_halfplane) by the circle, at the domain's clip eps."""
        return clip_to_circle(ring, sizes, labels, self.center, self.radius,
                              clip_eps(self))

    def contains(self, pts, tol=1e-12):
        """Membership of each point; a negative tol asks for points inside
        by more than -tol."""
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius + tol

    def distance(self, pts):
        """Euclidean distance of each point to the boundary, negative
        outside."""
        return self.radius - np.linalg.norm(pts - self.center, axis=1)

    def nearest(self, pts):
        """The nearest boundary point to each point; the center takes the
        point on the positive x1 axis."""
        v = pts - self.center
        # each point's norm as np.linalg.norm takes it of one vector, a dot
        # product, which an axis=1 norm does not round alike
        r = np.sqrt(np.vecdot(v, v))
        at_center = r < 1e-14
        v[at_center], r[at_center] = (1.0, 0.0), 1.0
        return self.center + self.radius * v / r[:, None]

    def sample(self, rng, m):
        """m points drawn uniformly from the disk, in polar form."""
        u, w = rng.random((2, m))
        r, t = self.radius * np.sqrt(u), 2.0 * math.pi * w
        return self.center + np.column_stack([r * np.cos(t), r * np.sin(t)])


def clip_eps(domain):
    """Clipping and vertex-merge tolerance for pieces of the domain: 1e-12
    of its bounding box's longer side."""
    lo, hi = domain.bounding_box()
    return 1e-12 * float(np.max(hi - lo))


class GridCells(NamedTuple):
    """The clipped grid of grid_cells as arrays: piece i is cell i of the
    ragged array (ring, sizes, labels), its ARC_EDGE edges on the domain's
    circle, with its area and centroid, and the corners (counterclockwise
    from the lower left) of the grid square it came from."""
    ring: np.ndarray
    sizes: np.ndarray
    labels: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    squares: np.ndarray


def grid_cells(domain, m):
    """The m×m grid squares over the domain's bounding box, column by
    column, all cut to the domain in one domain.clip call, for the pieces
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
    ring, sizes, labels = domain.clip(
        v.reshape(-1, 2), np.full(m * m, 4), np.full(4 * m * m, SIDE))
    area, centroid = ring_area_centroid(ring, sizes, labels, domain.circle)
    keep = area > (10 * eps) ** 2
    rows = np.repeat(keep, sizes)
    return GridCells(ring[rows], sizes[keep], labels[rows], area[keep],
                     centroid[keep], v[keep])


def inradius_point(domain):
    """An interior point, the centroid, with its distance to the boundary:
    the radius of a ball around it inside the domain (used to seed dual
    weights)."""
    c = domain.centroid
    return c, float(domain.distance(c[None])[0])


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
            if not C0 > 0:
                raise ValueError("C0: must be positive")
            if not 0 < delta < 1:
                raise ValueError("delta: must lie in (0, 1)")
            if not r0 > 0:
                raise ValueError("r0: must be positive")

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

    def validate(self, domain, nodes=None):
        """Check the declared bounds/decay at the given nodes, by default 400
        drawn uniformly from the domain (seed 711); returns the density's
        values there."""
        if nodes is None:
            nodes = domain.sample(np.random.default_rng(711), 400)
        vals = self(nodes)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite values on the domain")
        if np.any(vals < -1e-12):
            raise ValueError("density is negative at a quadrature node")
        if self.lower_bound is not None and np.any(vals < self.lower_bound - 1e-12):
            raise ValueError("density drops below its declared lower bound")
        if self.upper_bound is not None and np.any(vals > self.upper_bound + 1e-12):
            raise ValueError("density exceeds its declared upper bound")
        if self.decay is not None:
            C0, delta, r0 = self.decay
            d = domain.distance(nodes)
            near = (d < r0) & (d > 0)
            if np.any(vals[near] > C0 * d[near] ** (-delta) + 1e-9):
                raise ValueError("density violates its declared decay profile")
        return vals


def constant_density(c, **kw):
    return SourceDensity(constant=float(c), **kw)


# ---------------------------------------------------------------------------
# total mass

def total_mass(domain, K, tol=1e-8):
    """Integral of the density over the domain by globally adaptive quadrature,
    classified against the critical value pi (the planar unit-ball measure).

    Returns (mass, regime) with regime in {"subcritical", "critical",
    "infeasible"}. Raises QuadratureError when the error estimate cannot be
    brought under tol (non-integrable or wildly singular densities). A
    varying density is validated on the domain's sample nodes, and warns
    when it vanishes at one of them."""
    if K.is_constant:
        mass = K.constant * domain.area
        K.validate(domain, domain.centroid[None, :])
        return mass, _classify(mass, tol)
    mass = float(integrate_ring_cells(*domain.ring(), K, tol,
                                      domain.circle)[0])
    if np.any(K.validate(domain) == 0.0):
        warnings.warn("density vanishes on part of the domain; empty cells may "
                      "appear in the transport problem", RuntimeWarning)
    return mass, _classify(mass, tol)


def _classify(mass, tol):
    if abs(mass - OMEGA_2) <= tol:
        return "critical"
    if mass > OMEGA_2 + tol:
        return "infeasible"
    return "subcritical"


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
    d0 = domain.distance(x0[None])[0]
    if d0 <= 0:
        raise ValueError("x0 must be interior")
    xb = domain.nearest(x0[None])[0]
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
