# Pointwise geometry of the lower-hemisphere target: the transport cost, the
# gradient-plane chart and its inverse, the induced metric and densities, and
# the curvature formula for graphs.
#
# Conventions: a hemisphere point is (y, y_last) in S^n with y_last < 0 (the
# open lower hemisphere); the chart sends it to p = -y / y_last in R^n. The
# equator is reachable only as the limit |p| -> inf.
import math
from dataclasses import dataclass

import numpy as np

from .domains import ConvexPolygonDomain, DiskDomain


@dataclass(frozen=True, eq=False)
class HemispherePoint:
    """Unit vector on the open lower hemisphere, split as (y, y_last)."""
    y: np.ndarray
    y_last: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        norm2 = float(y @ y) + self.y_last ** 2
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector: |.|^2 = {norm2!r}")
        if not self.y_last < 0.0:
            raise ValueError("point must lie on the open lower hemisphere (y_last < 0)")

    def as_array(self):
        return np.append(self.y, self.y_last)

    @property
    def n(self):
        return len(self.y)


def hemisphere_point(arr):
    """Build a HemispherePoint from a full (n+1)-vector."""
    arr = np.asarray(arr, dtype=float)
    return HemispherePoint(arr[:-1], float(arr[-1]))


def cost(x, ybar):
    """Transport cost <x, y> / y_last. Linear in x."""
    x = np.asarray(x, dtype=float)
    return float(x @ ybar.y) / ybar.y_last


def c_exp(p):
    """Chart inverse: p -> (p, -1)/sqrt(1+|p|^2), the lower-hemisphere point
    whose chart image is p."""
    p = np.asarray(p, dtype=float)
    s = 1.0 / math.sqrt(1.0 + float(p @ p))
    return HemispherePoint(p * s, -s)


def chart(ybar):
    """Gradient-plane coordinates of a lower-hemisphere point: -y / y_last."""
    return -ybar.y / ybar.y_last


def chart_density(p):
    """(1+|p|^2)^(-(n+2)/2): the density representing (-y_last) dVol in the chart."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    q = 1.0 + np.sum(p * p, axis=-1)
    return q ** (-(n + 2) / 2.0)


def metric_in_chart(p):
    """Round-metric pullback in the chart: (delta_ij (1+|p|^2) - p_i p_j)/(1+|p|^2)^2."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    q = 1.0 + float(p @ p)
    return (np.eye(n) * q - np.outer(p, p)) / q ** 2


def graph_area_jacobian(grad):
    """Area element of the graph map x -> (x, u(x)): sqrt(1+|grad|^2)."""
    grad = np.asarray(grad, dtype=float)
    return math.sqrt(1.0 + float(grad @ grad))


def gauss_curvature(hessian, grad):
    """Curvature of the graph of u: det(D^2 u) / (1+|grad u|^2)^((n+2)/2)."""
    hessian = np.asarray(hessian, dtype=float)
    grad = np.asarray(grad, dtype=float)
    n = len(grad)
    return float(np.linalg.det(hessian)) / (1.0 + float(grad @ grad)) ** ((n + 2) / 2.0)


def great_circle_deviation(p0, p1, t):
    """Distance of c_exp((1-t)p0 + t p1) from the plane spanned by c_exp(p0)
    and c_exp(p1): max |<N, .>| over unit normals N of that plane.

    Chart segments map into great circles, so this is ~1e-16 in practice."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    y0 = c_exp(p0).as_array()
    y1 = c_exp(p1).as_array()
    yt = c_exp((1.0 - t) * p0 + t * p1).as_array()
    span = np.stack([y0, y1], axis=1)  # (n+1, 2)
    q, r = np.linalg.qr(span)
    if abs(r[1, 1]) < 1e-14:
        return 0.0  # parallel images: every plane through them qualifies
    resid = yt - q @ (q.T @ yt)
    return float(np.linalg.norm(resid))


def is_geodesically_convex(region):
    """True iff the chart image of the region is convex. Chart convexity is
    equivalent to geodesic convexity on the lower hemisphere, so no sphere-side
    sampling is done.

    Accepts a chart region (a DiskDomain, the truncated full hemisphere
    included, or a ConvexPolygonDomain, whose vertices are checked strictly
    convex when it is built) or a sequence of them (a union; convex only when
    the union is a single piece)."""
    if isinstance(region, (list, tuple)):
        if len(region) == 0:
            return True
        if len(region) == 1:
            return is_geodesically_convex(region[0])
        return False  # disjoint unions are not convex; overlapping unions unsupported
    if isinstance(region, (DiskDomain, ConvexPolygonDomain)):
        return True
    raise TypeError(f"unsupported region: {region!r}")
