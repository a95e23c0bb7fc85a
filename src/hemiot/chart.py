# Pointwise geometry of the lower-hemisphere target: the gradient-plane
# chart's inverse, the chart density, and closed-form target masses.
#
# Conventions: a hemisphere point is (y, y_last) in S^n with y_last < 0 (the
# open lower hemisphere); the chart sends it to p = -y / y_last in R^n. The
# equator is reachable only as the limit |p| -> inf.
import numpy as np

from .geometry import arc_patches, integrate_panels, ring_arcs, ring_next


def c_exp_rows(p):
    """Chart inverse of each row of an (m, n) array: p -> (p, -1) /
    sqrt(1+|p|^2), the lower-hemisphere point whose chart image is p, as an
    (m, n+1) array. |p|^2 is a batched matmul, which sums as p @ p does."""
    q = (p[:, None, :] @ p[:, :, None])[:, 0, 0]
    s = 1.0 / np.sqrt(1.0 + q)
    return np.column_stack([p * s[:, None], -s])


def chart_density(p):
    """(1+|p|^2)^(-(n+2)/2): the density representing (-y_last) dVol in the chart."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    q = 1.0 + np.sum(p * p, axis=-1)
    return q ** (-(n + 2) / 2.0)


# Target masses in closed form. The chart density is the pullback of plane
# area under the vertical projection p -> p/sqrt(1+|p|^2), the first two
# coordinates of Y(p) = (p, -1)/sqrt(1+|p|^2). So a region's mass is the plane
# area its boundary encloses once lifted by Y and projected: ½∮ x dy - y dx.
# A straight chart edge lifts to a great-circle arc, a chart circle about the
# origin of radius s to a plane circle of radius s/sqrt(1+s^2).

def _lift_step(a, b):
    """Y(b) - Y(a) for rows of (k, 2) arrays, a (k, 3) array, from b - a and
    a + b, so that close points lose nothing to the difference. Far out the
    plane part carries about (1+|p|^2) eps of relative error in its radial
    direction, which the projection shrinks by that factor against the
    tangential one: up to 6e-13 of a cell's mass at |p| = 50."""
    qa = np.sqrt(1.0 + np.einsum("ij,ij->i", a, a))
    qb = np.sqrt(1.0 + np.einsum("ij,ij->i", b, b))
    d = b - a
    # 1/qa - 1/qb = (|b|^2 - |a|^2) / (qa qb (qa + qb))
    t = np.einsum("ij,ij->i", d, a + b) / (qa * qb * (qa + qb))
    return np.column_stack([d / qb[:, None] - a * t[:, None], t])


def _minus_sin(phi):
    """phi - sin(phi) without cancellation: its Taylor series below 1."""
    x2 = phi * phi
    series = 1.0
    for k in range(9, 0, -1):  # phi^3/3! (1 - x2/(4·5) (1 - x2/(6·7) ...))
        series = 1.0 - x2 / ((2 * k + 2) * (2 * k + 3)) * series
    return np.where(phi < 1.0, x2 * phi / 6.0 * series, phi - np.sin(phi))


def _great_circle_bulge(a, step):
    """Plane area between the projections of the great-circle arc Y(a) ->
    Y(b) and of its chord, step = Y(b) - Y(a), positive when a -> b runs
    counterclockwise about the origin: ½ kappa (phi - sin phi), phi the
    arc's angle and kappa the vertical component of the unit normal of
    Y(a) × Y(b)."""
    ya = np.column_stack([a, -np.ones(len(a))]) \
        / np.sqrt(1.0 + np.einsum("ij,ij->i", a, a))[:, None]
    normal = np.cross(ya, step)
    size = np.linalg.norm(normal, axis=1)
    kappa = np.divide(normal[:, 2], size, out=np.zeros_like(size),
                      where=size > 0)
    phi = 2.0 * np.arcsin(np.minimum(0.5 * np.linalg.norm(step, axis=1), 1.0))
    return 0.5 * kappa * _minus_sin(phi)


def ring_chart_mass(ring, sizes, labels, tol, circle=None):
    """Chart-density mass of each cell of a ragged array whose ARC_EDGE
    edges lie on circle, a (n,) array: the plane area of its image under
    the vertical projection, summed over its edges a -> b.

    Each edge, taken as a straight chart edge, adds the triangle
    ½(A - x0) × (B - x0), with A, B and x0 the projections of a, b and the
    cell's first vertex (x0 keeps the terms the size of the cell, not of
    its distance from the origin), and the bulge of its great-circle arc
    (_great_circle_bulge). Each arc edge then adds the mass between its
    chord and its arc: for a circle of radius s about the origin, the plane
    circle segment ½ s^2/(1+s^2) (psi - sin psi), psi the sweep, less the
    chord's bulge; for any other circle, adaptive quadrature of the chart
    density over the panels between chord and arc (arc_patches), the error
    estimates of all those panels summing to at most tol."""
    n = len(sizes)
    owner = np.repeat(np.arange(n), sizes)
    first = ring[np.repeat(np.cumsum(sizes) - sizes, sizes)]
    b = ring[ring_next(sizes)]
    to_a, step = _lift_step(first, ring), _lift_step(ring, b)
    cross = to_a[:, 0] * step[:, 1] - to_a[:, 1] * step[:, 0]
    mass = np.bincount(owner, 0.5 * cross + _great_circle_bulge(ring, step), n)
    _, cell, a, b, _, psi = ring_arcs(ring, sizes, labels, circle)
    if not len(cell):
        return mass
    if tuple(circle[0]) == (0.0, 0.0):
        s2 = circle[1] ** 2
        lens = 0.5 * s2 / (1.0 + s2) * _minus_sin(psi) \
            - _great_circle_bulge(a, _lift_step(a, b))
        return mass + np.bincount(cell, lens, n)
    tris, patches, owners = arc_patches(ring, sizes, labels, circle)
    return mass + integrate_panels(chart_density, tris, patches, tol, owners,
                                   n)
