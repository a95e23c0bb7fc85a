# Source-side geometry and measure: convex domains, curvature densities,
# mass classification, boundary chart constants, erosions, distance functions,
# and the boundary-cone constructions used by the gradient-blowup experiment.
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (  # QuadratureError is re-exported for the CLI
    ARC,
    QuadratureError,
    _PATCH_NODES,
    _TRI_NODES,
    cell_area_centroid,
    clip_to_circle,
    clip_to_halfplanes,
    integrate_cell,
    polygon_area,
    polygon_centroid,
    polygon_halfplanes,
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
        return polygon_area(self.vertices)

    @property
    def centroid(self):
        return polygon_centroid(self.vertices)

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


def domain_cell(domain):
    """The domain as one labeled convex cell: the polygon with its walls, or
    the disk as two half-disk arcs."""
    if isinstance(domain, ConvexPolygonDomain):
        return ([tuple(p) for p in domain.vertices],
                [("wall", i) for i in range(len(domain.vertices))])
    (cx, cy), R = domain.center, domain.radius
    return [(cx + R, cy), (cx - R, cy)], [(ARC, (cx, cy), R)] * 2


def clip_eps(domain):
    """Clipping and vertex-merge tolerance for pieces of the domain: 1e-12
    of its bounding box's longer side."""
    lo, hi = domain.bounding_box()
    return 1e-12 * float(np.max(hi - lo))


def domain_clipper(domain):
    """Clip a straight-edged convex piece to the domain: the disk's circle,
    or the polygon's walls ("wall", k), at the domain's clip eps."""
    eps = clip_eps(domain)
    if isinstance(domain, DiskDomain):
        c, R = tuple(domain.center), domain.radius
        return lambda verts, labels: clip_to_circle(verts, labels, c, R, eps)
    normals, offsets = domain.edge_normals()
    return lambda verts, labels: clip_to_halfplanes(verts, labels, normals,
                                                    offsets, eps)


def grid_pieces(domain, m):
    """The m×m grid squares over the domain's bounding box, each clipped to
    the domain: a list of (square, verts, labels, area, centroid), column
    by column, for the pieces of area above (10 eps)²."""
    lo, hi = domain.bounding_box()
    clip, eps = domain_clipper(domain), clip_eps(domain)
    hx, hy = (hi - lo) / m
    out = []
    for i in range(m):
        for j in range(m):
            x0, y0 = lo[0] + i * hx, lo[1] + j * hy
            square = [(x0, y0), (x0 + hx, y0), (x0 + hx, y0 + hy), (x0, y0 + hy)]
            verts, labels = clip(square, [("grid", k) for k in range(4)])
            if not verts:
                continue
            area, cen = cell_area_centroid(verts, labels)
            if area > (10 * eps) ** 2:
                out.append((square, verts, labels, area, cen))
    return out


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
            out_pts = pts[~inside]
            out[~inside] = -_dist_to_polyline(domain.vertices, out_pts)
    return float(out[0]) if single else out


def _dist_to_polyline(verts, pts):
    v = np.asarray(verts, dtype=float)
    w = np.roll(v, -1, axis=0)
    d = np.full(len(pts), np.inf)
    for a, b in zip(v, w):
        e = b - a
        tt = np.clip(((pts - a) @ e) / (e @ e), 0.0, 1.0)
        proj = a[None, :] + tt[:, None] * e[None, :]
        d = np.minimum(d, np.linalg.norm(pts - proj, axis=1))
    return d


def nearest_boundary_point(domain, x):
    x = np.asarray(x, dtype=float)
    if isinstance(domain, DiskDomain):
        v = x - domain.center
        r = np.linalg.norm(v)
        if r < 1e-14:
            v = np.array([1.0, 0.0])
            r = 1.0
        return domain.center + domain.radius * v / r
    v = np.asarray(domain.vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    best, bd = None, np.inf
    for a, b in zip(v, w):
        e = b - a
        t = float(np.clip(((x - a) @ e) / (e @ e), 0.0, 1.0))
        proj = a + t * e
        d = float(np.linalg.norm(x - proj))
        if d < bd:
            best, bd = proj, d
    return best


def inradius_point(domain):
    """An interior point together with the radius of a ball around it inside
    the domain (used to seed dual weights)."""
    if isinstance(domain, DiskDomain):
        return domain.center.copy(), domain.radius
    c = polygon_centroid(domain.vertices)
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
    verts = [tuple(p) for p in domain.vertices]
    labels = [("wall", i) for i in range(len(verts))]
    scale = float(np.max(np.abs(domain.vertices))) + 1.0
    verts, labels = clip_to_halfplanes(verts, labels, n, b - t, 1e-12 * scale)
    if not verts:
        return None
    cleaned = _strictly_convex_cleanup(np.array(verts), 1e-10 * scale)
    if cleaned is None or polygon_area(cleaned) <= (1e-10 * scale) ** 2:
        return None
    return ConvexPolygonDomain(cleaned)


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
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    pts = rng.uniform(lo, hi, size=(4 * m, 2))
    pts = pts[contains(domain, pts)][:m]
    return pts


# ---------------------------------------------------------------------------
# boundary chart constants

@dataclass(frozen=True)
class BoundaryGeometry:
    """Chart constants for the boundary: near every boundary point the boundary
    is the graph of an L-Lipschitz function over a tangential window of radius
    rho inside a box of height 2*C1*rho; R0 is an enclosing-ball radius bound
    (None for polygons: flat edges admit no finite enclosing ball)."""
    rho: float
    L: float
    C1: float
    R0: float = None

    def __post_init__(self):
        if not (0 < self.rho < 1):
            raise ValueError("rho must be in (0, 1)")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if not self.C1 > 1:
            raise ValueError("C1 must exceed 1")
        if self.R0 is not None and not self.R0 > 0:
            raise ValueError("R0 must be positive when present")


def boundary_geometry(domain):
    """Certified chart constants. Disks get the analytic tangent-line chart
    (L = 1, rho = R/(2*sqrt(2)) capped below 1, C1 = 1.1, R0 = R). Polygons get
    vertex-bisector charts with L = max cot(half interior angle) and no R0.
    The covering property is re-verified by boundary sampling before returning."""
    if isinstance(domain, DiskDomain):
        R = domain.radius
        geo = BoundaryGeometry(rho=min(R / (2.0 * math.sqrt(2.0)), 0.95),
                               L=1.0, C1=1.1, R0=R)
        ok = _validate_chart_constants(domain, geo)
        if not ok:
            raise RuntimeError("disk chart constants failed validation")
        return geo
    v = domain.vertices
    k = len(v)
    L = 0.0
    for i in range(k):
        a = v[(i - 1) % k] - v[i]
        b = v[(i + 1) % k] - v[i]
        beta = math.acos(np.clip(float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1, 1))
        L = max(L, 1.0 / math.tan(beta / 2.0))
    L = max(L, 1e-6)
    C1 = 1.1 * max(1.0, L)
    edges = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    _, r_in = inradius_point(domain)
    rho = min(0.95, float(edges.min()), r_in / (2.0 * C1))
    for _ in range(40):
        geo = BoundaryGeometry(rho=rho, L=L, C1=C1, R0=None)
        if _validate_chart_constants(domain, geo):
            return geo
        rho *= 0.5
    raise RuntimeError("could not certify boundary chart constants")


def _chart_anchors(domain, rho):
    """(anchor point, tangent, inward normal) frames whose windows must cover
    the whole boundary."""
    frames = []
    if isinstance(domain, DiskDomain):
        m = max(8, int(math.ceil(2.0 * math.pi * domain.radius / (0.5 * rho))))
        for i in range(m):
            th = 2.0 * math.pi * i / m
            out = np.array([math.cos(th), math.sin(th)])
            x = domain.center + domain.radius * out
            tau = np.array([-out[1], out[0]])
            frames.append((x, tau, -out))
        return frames
    v = domain.vertices
    k = len(v)
    n, _ = domain.edge_normals()
    for i in range(k):
        a, b = v[i], v[(i + 1) % k]
        # vertex anchor: frame along the (outward) angle bisector
        prev_n = n[(i - 1) % k]
        bis = prev_n + n[i]
        bis /= np.linalg.norm(bis)
        tau = np.array([-bis[1], bis[0]])
        frames.append((a.copy(), tau, -bis))
        # edge anchors
        length = np.linalg.norm(b - a)
        m = max(1, int(math.ceil(length / (0.5 * rho))))
        for j in range(1, m + 1):
            t = j / (m + 1.0)
            x = a + t * (b - a)
            frames.append((x, (b - a) / length, -n[i]))
    return frames


def _boundary_points(domain, m=1200):
    if isinstance(domain, DiskDomain):
        th = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        return domain.center + domain.radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    v = domain.vertices
    w = np.roll(v, -1, axis=0)
    lens = np.linalg.norm(w - v, axis=1)
    counts = np.maximum((m * lens / lens.sum()).astype(int), 2)
    pts = []
    for a, b, c in zip(v, w, counts):
        tt = np.linspace(0.0, 1.0, c, endpoint=False)
        pts.append(a[None, :] + tt[:, None] * (b - a)[None, :])
    return np.concatenate(pts, axis=0)


def _validate_chart_constants(domain, geo, n_samples=33):
    """Sampling check of the covering property: every boundary point lies in
    some chart window, and inside each window the boundary is a single-valued
    graph with slope <= L staying strictly inside the height-C1*rho box."""
    rho, L, C1 = geo.rho, geo.L, geo.C1
    frames = _chart_anchors(domain, rho)
    bpts = _boundary_points(domain)
    covered = np.zeros(len(bpts), dtype=bool)
    for x, tau, nu in frames:
        rel = bpts - x
        s = rel @ tau
        h = -(rel @ nu)  # height measured along the outward normal... keep sign local
        window = np.abs(s) <= rho
        heights = []
        ss = np.linspace(-rho, rho, n_samples)
        for si in ss:
            hs = _boundary_heights(domain, x, tau, nu, si, C1 * rho)
            if len(hs) != 1:
                return False
            heights.append(hs[0])
        heights = np.array(heights)
        if np.max(np.abs(heights)) >= C1 * rho:
            return False
        slopes = np.abs(np.diff(heights)) / (ss[1] - ss[0])
        if np.max(slopes) > L + 1e-9:
            return False
        inwin = window & (np.abs(h) < C1 * rho)
        covered |= inwin
    return bool(covered.all())


def _boundary_heights(domain, x, tau, nu, s, hmax):
    """Heights h with x + s*tau + h*(-nu)... the boundary crossings of the
    normal line through the window ordinate s, measured along -nu in (-hmax, hmax)."""
    base = x + s * tau
    if isinstance(domain, DiskDomain):
        # |base - h*nu... solve |base + h*(-nu) - c| = R  (nu is inward)
        d = base - domain.center
        b = -2.0 * float(d @ nu)
        c0 = float(d @ d) - domain.radius ** 2
        disc = b * b - 4.0 * c0
        if disc < 0:
            return []
        r = math.sqrt(disc)
        return [h for h in ((-b - r) / 2.0, (-b + r) / 2.0) if abs(h) < hmax]
    out = []
    v = domain.vertices
    w = np.roll(v, -1, axis=0)
    for a, b in zip(v, w):
        e = b - a
        # base - h*nu + ... solve base + h*(-nu) = a + t e
        M = np.array([[-nu[0], -e[0]], [-nu[1], -e[1]]])
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        if abs(det) < 1e-15:
            continue
        rhs = a - base
        h = (rhs[0] * M[1, 1] - rhs[1] * M[0, 1]) / det
        t = (M[0, 0] * rhs[1] - M[1, 0] * rhs[0]) / det
        if -1e-12 <= t <= 1.0 + 1e-12 and abs(h) < hmax:
            out.append(float(h))
    out.sort()
    dedup = []
    for h in out:
        if not dedup or abs(h - dedup[-1]) > 1e-10:
            dedup.append(h)
    return dedup


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
    if geo.R0 is None:
        raise ValueError("needs an enclosing-ball radius (disk domains)")
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
    if geo.R0 is None:
        raise ValueError("cone construction needs an enclosing-ball radius")
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
