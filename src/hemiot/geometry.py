# Planar computational geometry shared by the domain, diagram, and target layers:
# labeled convex clipping, exact circle/polygon cells, and the one adaptive
# quadrature engine, which integrates a density over a whole set of cells
# (source cells, target cells, grid atoms, a whole region) in one globally
# adaptive call.
import math
from functools import lru_cache
from itertools import chain

import numpy as np

# Edge labels on convex cells. A cell is (verts, labels) where verts is a list of
# (x, y) tuples in CCW order and labels[i] describes the edge verts[i] -> verts[i+1].
# Labels: ("nbr", j) bisector against site j, ("wall", k) domain polygon edge k,
# ("arc", center, radius) a CCW circular arc of the domain disk, ("box",) scratch.

ARC = "arc"


def _segment_area_moment(c, R, a, b):
    """Area and first moment (∫x dA, ∫y dA) of the circular segment between
    chord a->b (CCW) and the arc of circle (c, R) on its outside."""
    ta = math.atan2(a[1] - c[1], a[0] - c[0])
    tb = math.atan2(b[1] - c[1], b[0] - c[0])
    sweep = tb - ta
    while sweep <= 0.0:
        sweep += 2.0 * math.pi
    # cells are convex, so sweeps stay <= pi (+ rounding)
    area = 0.5 * R * R * (sweep - math.sin(sweep))
    if area <= 0.0:
        return 0.0, np.zeros(2)
    alpha = 0.5 * sweep
    # centroid distance of a circular segment from the center
    dist = (4.0 * R * math.sin(alpha) ** 3) / (3.0 * (sweep - math.sin(sweep)))
    mid = ta + alpha
    cen = np.array([c[0] + dist * math.cos(mid), c[1] + dist * math.sin(mid)])
    return area, area * cen


def ragged_cells(cells):
    """A sequence of labeled convex cells (verts, labels) as one ragged array
    (ring, sizes, arcs): cell i's vertices are the next sizes[i] rows of
    ring (a (V, 2) array), and arcs lists (cell, a, b, ("arc", center,
    radius)) for each arc edge a -> b."""
    sizes = np.array([len(v) for v, _ in cells], dtype=int)
    points = chain.from_iterable(v for v, _ in cells)
    ring = np.fromiter(chain.from_iterable(points), float).reshape(-1, 2)
    arcs = [(i, verts[e], verts[(e + 1) % len(verts)], lab)
            for i, (verts, labels) in enumerate(cells)
            for e, lab in enumerate(labels) if lab[0] == ARC]
    return ring, sizes, arcs


def ring_next(sizes):
    """Each row's successor round its cell in a ragged array (see
    ragged_cells): the next row, or the cell's first row after its last."""
    ends = np.cumsum(sizes)
    nxt = np.arange(1, int(sizes.sum()) + 1)
    live = sizes > 0
    nxt[ends[live] - 1] = (ends - sizes)[live]
    return nxt


def ring_area_centroid(ring, sizes, arcs):
    """Exact area and centroid of each cell of a ragged array (see
    ragged_cells), whose edges are segments plus circular arcs: per cell, the
    shoelace sum over its straight edges, term by term in vertex order, plus
    the circular segment outside each arc's chord, arc by arc in the order
    of arcs. A cell of zero area has its vertex mean as centroid (the
    origin when it has no vertices). Returns (area, centroid), (n,) and
    (n, 2) arrays."""
    n = len(sizes)
    owner = np.repeat(np.arange(n), sizes)
    a, b = ring, ring[ring_next(sizes)]
    cross = a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    area = 0.5 * np.bincount(owner, cross, n)
    mom = np.column_stack([np.bincount(owner, (a[:, c] + b[:, c]) * cross, n)
                           for c in range(2)]) / 6.0
    for i, p, q, lab in arcs:
        s_area, s_mom = _segment_area_moment(lab[1], lab[2], p, q)
        area[i] += s_area
        mom[i] += s_mom
    centroid = np.column_stack([np.bincount(owner, ring[:, c], n)
                                for c in range(2)]) \
        / np.maximum(sizes, 1)[:, None]
    pos = area > 0
    centroid[pos] = mom[pos] / area[pos, None]
    return area, centroid


def cell_area_centroid(verts, labels):
    """ring_area_centroid of the one cell (verts, labels): (area, centroid)."""
    area, centroid = ring_area_centroid(*ragged_cells([(verts, labels)]))
    return float(area[0]), centroid[0]


def has_duplicate_points(points):
    """True when two rows of a (k, 2) array agree once rounded to 12
    decimals: sites closer than that are one site to every diagram."""
    key = points.round(decimals=12)
    key = key[np.lexsort(key.T[::-1])]
    return bool((key[1:] == key[:-1]).all(axis=1).any())


def clip_halfplane(verts, labels, normal, offset, new_label, eps):
    """Clip a labeled convex cell by {x : normal·x <= offset}, each crossing
    point found from its edge's inside endpoint (to full precision however
    far the other one lies, and the same both ways along the edge).

    Returns (verts, labels) of the clipped cell; ([], []) when empty."""
    k = len(verts)
    if k == 0:
        return [], []
    nx, ny = normal
    d = [verts[i][0] * nx + verts[i][1] * ny - offset for i in range(k)]
    if all(di <= eps for di in d):
        return verts, labels
    if all(di > -eps for di in d):
        return [], []
    out_v, out_l = [], []
    for i in range(k):
        j = (i + 1) % k
        A, B = verts[i], verts[j]
        dA, dB = d[i], d[j]
        ain, bin_ = dA <= eps, dB <= eps
        if ain:
            out_v.append(A)
            out_l.append(labels[i])
            if not bin_:
                t = dA / (dA - dB)
                out_v.append((A[0] + t * (B[0] - A[0]), A[1] + t * (B[1] - A[1])))
                out_l.append(new_label)
        elif bin_:
            t = dB / (dB - dA)
            out_v.append((B[0] + t * (A[0] - B[0]), B[1] + t * (A[1] - B[1])))
            out_l.append(labels[i])
    return _dedupe(out_v, out_l, eps)


def polygon_halfplanes(verts):
    """Outward unit normals and offsets of a CCW convex polygon: edge i lies
    on {x : n_i·x = b_i} and the polygon is {x : n·x <= b}."""
    v = np.asarray(verts, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    n = np.stack([e[:, 1], -e[:, 0]], axis=1)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return n, np.sum(n * v, axis=1)


def clip_to_halfplanes(verts, labels, normals, offsets, eps):
    """Clip a labeled convex cell by every {x : n_k·x <= b_k} in turn; the new
    edges get labels ("wall", k). ([], []) once the cell is empty."""
    for k, (n, b) in enumerate(zip(normals, offsets)):
        verts, labels = clip_halfplane(verts, labels, n, b, ("wall", k), eps)
        if not verts:
            break
    return verts, labels


def _dedupe(verts, labels, eps):
    """Merge consecutive near-identical vertices, dropping zero-length edges."""
    k = len(verts)
    if k == 0:
        return [], []
    out_v, out_l = [], []
    for i in range(k):
        j = (i + 1) % k
        if abs(verts[i][0] - verts[j][0]) > eps or abs(verts[i][1] - verts[j][1]) > eps:
            out_v.append(verts[i])
            out_l.append(labels[i])
        # else: drop vertex i; its outgoing edge had zero length
    if len(out_v) < 2:
        return [], []
    return out_v, out_l


def clip_to_circle(verts, labels, center, R, eps):
    """Intersect a labeled convex polygon (straight edges only) with the disk
    (center, R). Crossing edges are split and circle pieces get arc labels.

    An edge whose inside endpoint lies on the circle may leave the disk with
    no root found (tangent there); the circle point is then that endpoint."""
    cx, cy = center
    k = len(verts)
    if k == 0:
        return [], []
    r2 = [(verts[i][0] - cx) ** 2 + (verts[i][1] - cy) ** 2 for i in range(k)]
    R2 = R * R
    tol = max(eps, 1e-14 * R) * R
    inside = [r2[i] <= R2 + 2.0 * tol for i in range(k)]
    if all(inside):
        return verts, labels
    out_v, out_l = [], []
    any_cross = False
    for i in range(k):
        j = (i + 1) % k
        A, B = verts[i], verts[j]
        hits = [] if inside[i] and inside[j] else \
            _segment_circle_hits(A, B, center, R)
        if inside[i]:
            out_v.append(A)
            out_l.append(labels[i])
            if not inside[j]:
                out_v.append(hits[0] if hits else A)
                out_l.append((ARC, (cx, cy), R))
                any_cross = True
        else:
            if inside[j]:
                q = hits[-1] if hits else B
                out_v.append(q)
                out_l.append(labels[i])
                any_cross = True
            elif len(hits) == 2:
                # edge dips through the disk
                out_v.append(hits[0])
                out_l.append(labels[i])
                out_v.append(hits[1])
                out_l.append((ARC, (cx, cy), R))
                any_cross = True
    if not any_cross:
        # either disjoint, or the disk sits inside the polygon
        if _point_in_polygon_convex((cx, cy), verts, eps):
            return (
                [(cx + R, cy), (cx - R, cy)],
                [(ARC, (cx, cy), R), (ARC, (cx, cy), R)],
            )
        return [], []
    return _dedupe(out_v, out_l, eps)


def _segment_circle_hits(A, B, center, R):
    """Intersection points of segment A->B with circle (center, R), ordered
    along the segment: from the endpoint nearer the centre, the half chord
    either side of the foot of the perpendicular, with no cancellation in
    either root, so far endpoints cost no more than their own rounding."""
    if math.dist(B, center) < math.dist(A, center):
        return _segment_circle_hits(B, A, center, R)[::-1]
    dx, dy = B[0] - A[0], B[1] - A[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        return []
    ux, uy = dx / length, dy / length
    ax, ay = A[0] - center[0], A[1] - center[1]
    s = -(ax * ux + ay * uy)                # the foot of the perpendicular
    h2 = R * R - (ax * uy - ay * ux) ** 2
    if h2 <= 0.0:
        return []
    far = s + math.copysign(math.sqrt(h2), s)
    return [(A[0] + t * ux, A[1] + t * uy)
            for t in sorted((far, (ax * ax + ay * ay - R * R) / far))
            if -1e-12 * length <= t <= (1.0 + 1e-12) * length]


def _point_in_polygon_convex(p, verts, eps):
    k = len(verts)
    for i in range(k):
        j = (i + 1) % k
        ex, ey = verts[j][0] - verts[i][0], verts[j][1] - verts[i][1]
        if ex * (p[1] - verts[i][1]) - ey * (p[0] - verts[i][0]) < -eps:
            return False
    return True


# ---------------------------------------------------------------------------
# quadrature

@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _triangle_rule():
    """Degree-5, 7-point rule in barycentric coordinates (weights sum to 1)."""
    s15 = math.sqrt(15.0)
    w1 = (155.0 + s15) / 1200.0
    w2 = (155.0 - s15) / 1200.0
    b1 = (6.0 + s15) / 21.0
    a1 = 1.0 - 2.0 * b1
    b2 = (6.0 - s15) / 21.0
    a2 = 1.0 - 2.0 * b2
    pts = [(1 / 3, 1 / 3, 1 / 3),
           (a1, b1, b1), (b1, a1, b1), (b1, b1, a1),
           (a2, b2, b2), (b2, a2, b2), (b2, b2, a2)]
    wts = [9.0 / 40.0, w1, w1, w1, w2, w2, w2]
    return np.array(pts), np.array(wts)


_TRI_PTS, _TRI_WTS = _triangle_rule()
_TRI_NODES = len(_TRI_WTS)
_PATCH_N = 8
_PATCH_NODES = _PATCH_N ** 2


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


# Limits of the adaptive engine. A round splits leaves, largest error
# estimate first, until the leaves it keeps carry at most half of tol or
# _KEEP_SHARE of the current estimate (so a singular leaf whose estimate
# never shrinks does not drag every other leaf along each round), and it
# evaluates at most _ROUND_NODES nodes, in density calls of at most
# _CALL_NODES nodes each (a call's temporaries stay near a megabyte however
# many cells share it). Integration stalls once the leaves outnumber the
# starting panels by _MAX_LEAVES (memory), or after _MAX_ROUNDS rounds: a
# leaf split in every round is then 2^-48 of its first panel, at the
# resolution of double precision.
_KEEP_SHARE = 1e-3
_ROUND_NODES = 1 << 20
_CALL_NODES = 1 << 15
_MAX_LEAVES = 1 << 18
_MAX_ROUNDS = 48


def _tri_split(tris):
    """The four midpoint sub-triangles of each (k, 3, 2) triangle, in order."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    subs = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return subs.reshape(-1, 3, 2)


def _tri_areas(tris):
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1])


def _tri_rule(f, tris):
    """(∫f, ∫f·x, ∫f·y) over each triangle with the 7-point rule; (k, 3)."""
    pts = _TRI_PTS @ tris  # (k, 7, 2)
    w = f(pts.reshape(-1, 2)).reshape(len(tris), -1) * _TRI_WTS \
        * _tri_areas(tris)[:, None]
    return np.stack([w.sum(axis=1), (w * pts[..., 0]).sum(axis=1),
                     (w * pts[..., 1]).sum(axis=1)], axis=1)


# A polar patch is a row (cx, cy, R, e, tm, t0, t1, s0, s1): the points
# c + r (cos θ, sin θ) with θ in [t0, t1] and r = lo(θ) + s (R - lo(θ)) for s in
# [s0, s1], where lo(θ) = e / cos(θ - tm) is the chord at distance e from the
# centre along the direction tm (e = 0: lo = 0, the patch reaches the centre).
_T0, _T1, _S0, _S1 = 5, 6, 7, 8


def arc_patch(a, b, center, R):
    """The patch between chord a->b and the CCW arc of circle (center, R)."""
    c = np.asarray(center, dtype=float)
    ta = math.atan2(a[1] - c[1], a[0] - c[0])
    tb = math.atan2(b[1] - c[1], b[0] - c[0])
    while tb <= ta:
        tb += 2.0 * math.pi
    tm = 0.5 * (ta + tb)
    e = 0.0
    if tb - ta < math.pi - 1e-9:
        # otherwise the chord passes (numerically) through the centre
        e = (0.5 * (a[0] + b[0]) - c[0]) * math.cos(tm) \
            + (0.5 * (a[1] + b[1]) - c[1]) * math.sin(tm)
    return np.array([c[0], c[1], R, e, tm, ta, tb, 0.0, 1.0])


def _patch_split(patches):
    """The four (θ, s) quarters of each patch row, in order."""
    tm = 0.5 * (patches[:, _T0] + patches[:, _T1])[:, None]
    sm = 0.5 * (patches[:, _S0] + patches[:, _S1])[:, None]
    subs = np.repeat(patches[:, None, :], 4, axis=1)
    subs[:, [0, 2], _T1] = tm
    subs[:, [1, 3], _T0] = tm
    subs[:, [0, 1], _S1] = sm
    subs[:, [2, 3], _S0] = sm
    return subs.reshape(-1, patches.shape[1])


def _patch_rule(f, patches):
    """(∫f, ∫f·x, ∫f·y) over each patch with the tensor Gauss rule; (k, 3)."""
    xs, ws = gauss_legendre(_PATCH_N)
    cx, cy, R, e, tm, t0, t1, s0, s1 = (col[:, None] for col in patches.T)
    th = t0 + (t1 - t0) * xs  # (k, n)
    lo = np.divide(e, np.cos(th - tm), out=np.zeros_like(th), where=e != 0.0)
    r0 = lo + s0 * (R - lo)
    dr = (s1 - s0) * (R - lo)
    rr = r0[..., None] + dr[..., None] * xs  # (k, n θ, n r)
    x = cx[..., None] + rr * np.cos(th)[..., None]
    y = cy[..., None] + rr * np.sin(th)[..., None]
    vals = f(np.stack([x.ravel(), y.ravel()], axis=1)).reshape(rr.shape)
    w = vals * rr * (dr[..., None] * ws) * (ws * (t1 - t0))[..., None]
    return np.stack([w.sum(axis=(1, 2)), (w * x).sum(axis=(1, 2)),
                     (w * y).sum(axis=(1, 2))], axis=1)


class _Leaves:
    """The leaf panels of one kind, each with its owner, its own rule value
    (coarse) and the rule values of its four sub-panels (subs)."""

    def __init__(self, f, rule, split, nodes, panels, owner):
        self.f, self.rule, self.split, self.nodes = f, rule, split, nodes
        k = len(panels)
        vals = self._values(np.concatenate([panels, split(panels)]))
        self.panels, self.owner, self.coarse = panels, owner, vals[:k]
        self.subs = vals[k:].reshape(k, 4, 3)

    def _values(self, panels):
        """Rule values of panels, at most _CALL_NODES nodes per density call."""
        step = max(1, _CALL_NODES // self.nodes)
        return np.concatenate([self.rule(self.f, panels[s:s + step])
                               for s in range(0, len(panels), step)])

    def errors(self):
        return np.abs(self.subs[:, :, 0].sum(axis=1) - self.coarse[:, 0])

    def refine(self, m):
        """Split the leaves m: their sub-panels become leaves with the same
        owner, keep their known values as coarse estimates, and are split in
        turn."""
        if not m.any():
            return
        new = self.split(self.panels[m])
        self.panels = np.concatenate([self.panels[~m], new])
        self.owner = np.concatenate([self.owner[~m], np.repeat(self.owner[m], 4)])
        self.coarse = np.concatenate([self.coarse[~m], self.subs[m].reshape(-1, 3)])
        self.subs = np.concatenate(
            [self.subs[~m], self._values(self.split(new)).reshape(-1, 4, 3)])

    def sums(self, k):
        """The leaves' refined values added up per owner; (k, 3)."""
        vals = self.subs.sum(axis=1)
        return np.stack([np.bincount(self.owner, vals[:, c], k) for c in range(3)],
                        axis=1)


_KINDS = ((_tri_rule, _tri_split, _TRI_NODES),
          (_patch_rule, _patch_split, _PATCH_NODES))


def integrate_panels(f, tris, patches, tol, owners=None, k=1):
    """Per-owner (∫f, ∫f·x, ∫f·y), a (k, 3) array, of a vectorized density f
    over triangles ((t, 3, 2) array) and polar patches ((q, 9) rows, see
    arc_patch). owners is a pair of int arrays, the owner in range(k) of each
    triangle and of each patch; by default every panel belongs to owner 0.

    Globally adaptive: a leaf panel's error estimate is |Σ sub-panels − own
    rule|. A round splits the leaves with the largest estimates, of any
    owner, evaluating the new leaves' sub-panels in one density call per
    panel kind, and the integration stops when the estimates of all leaves
    sum to at most tol. Splits keep their owner and the leaf order is fixed,
    so the same panels give the same bytes. f sees each panel's nodes
    contiguously. Raises QuadratureError when the error cannot be brought
    under tol within the module's leaf and round limits."""
    if owners is None:
        owners = (np.zeros(len(tris), dtype=int), np.zeros(len(patches), dtype=int))
    kinds = [_Leaves(f, *kind, panels, owner)
             for kind, panels, owner in zip(_KINDS, (tris, patches), owners)
             if len(panels)]
    rounds, start = 0, len(tris) + len(patches)
    while True:
        sizes = [len(leaves.panels) for leaves in kinds]
        errs = np.concatenate([leaves.errors() for leaves in kinds] or [[]])
        err = float(errs.sum())
        if err <= tol:
            return sum((leaves.sums(k) for leaves in kinds), np.zeros((k, 3)))
        if rounds == _MAX_ROUNDS or sum(sizes) > start + _MAX_LEAVES:
            raise QuadratureError(
                f"adaptive quadrature stalled after {rounds} rounds and "
                f"{sum(sizes)} panels: error estimate {err:.2e} > tol {tol:.2e}")
        order = np.argsort(-errs, kind="stable")
        rest = np.cumsum(errs[order][::-1])[::-1]  # estimates from here on
        cost = np.repeat([16 * leaves.nodes for leaves in kinds], sizes)[order]
        n = np.count_nonzero((rest > max(0.5 * tol, _KEEP_SHARE * err))
                             & (np.cumsum(cost) <= _ROUND_NODES))
        split = np.zeros(len(errs), dtype=bool)
        split[order[:n]] = True
        for leaves, m in zip(kinds, np.split(split, np.cumsum(sizes)[:-1])):
            leaves.refine(m)
        rounds += 1


def integrate_ring_cells(ring, sizes, arcs, f, tol=1e-10):
    """(mass, ∫f·x, ∫f·y) of a vectorized density f over each cell of a
    ragged array (see ragged_cells); a (len(sizes), 3) array, zero rows for
    empty cells.

    Panels: each cell's straight part fanned around its vertex mean, and one
    polar patch between each arc edge's chord and its circle; one globally
    adaptive integration over all of them, so tol bounds the error estimates
    summed over every cell."""
    tris, tri_owner = np.zeros((0, 3, 2)), np.zeros(0, dtype=int)
    poly = sizes >= 3
    if poly.any():
        ring = ring[np.repeat(poly, sizes)]
        sizes = sizes[poly]
        centres = np.add.reduceat(ring, np.cumsum(sizes) - sizes) \
            / sizes[:, None]
        tris = np.stack([np.repeat(centres, sizes, axis=0), ring,
                         ring[ring_next(sizes)]], axis=1)
        tri_owner = np.repeat(np.flatnonzero(poly), sizes)
        keep = np.abs(_tri_areas(tris)) > 1e-300
        tris, tri_owner = tris[keep], tri_owner[keep]
    patches = [arc_patch(a, b, lab[1], lab[2]) for _, a, b, lab in arcs]
    patch_owner = np.array([i for i, _, _, _ in arcs], dtype=int)
    return integrate_panels(f, tris, np.array(patches).reshape(-1, 9), tol,
                            (tri_owner, patch_owner), len(poly))


def integrate_cell(verts, labels, f, tol=1e-10):
    """integrate_ring_cells on the one cell (verts, labels); a (3,) array."""
    return integrate_ring_cells(*ragged_cells([(verts, labels)]), f, tol)[0]
