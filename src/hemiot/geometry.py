# Planar computational geometry shared by the domain, diagram, and target layers:
# labeled convex clipping, exact circle/polygon cells, and the one adaptive
# quadrature engine, which integrates a density over a whole set of cells
# (source cells, target cells, grid atoms, a whole region) in one globally
# adaptive call.
import math
from functools import lru_cache

import numpy as np

# A cell set is one ragged array (ring, sizes, labels): cell i's vertices,
# counterclockwise, are the next sizes[i] rows of ring (a (V, 2) array),
# cell after cell, and labels[k] is the int label of the edge from row k to
# the next row of its cell (ring_next): j >= 0 the bisector against site j,
# or one of the codes below. Every ARC_EDGE edge is a CCW arc of one circle,
# the circle of the region that cut it, which the readers of arcs take
# beside the arrays as circle = (center, radius).

SIDE = -1       # a side of a start piece: a box or a grid square
ARC_EDGE = -2   # an arc of the cutting circle
WALL = -3       # wall k of a polygon is WALL - k


def ring_next(sizes):
    """Each row's successor round its cell in a ragged array: the next row,
    or the cell's first row after its last."""
    ends = np.cumsum(sizes)
    nxt = np.arange(1, int(sizes.sum()) + 1)
    live = sizes > 0
    nxt[ends[live] - 1] = (ends - sizes)[live]
    return nxt


def _atan2_rows(d):
    """math.atan2 of each row (x, y) of d, one row at a time: numpy's
    arctan2 differs from it in the last bit on some inputs."""
    x, y = d.T.tolist()
    return np.fromiter(map(math.atan2, y, x), float, len(d))


def ring_arcs(ring, sizes, labels, circle):
    """The ARC_EDGE edges a -> b of a ragged array, in row order, as arrays
    (rows, cell, a, b, ta, tb): each edge's row, its cell, its ends, and
    their polar angles about the centre of circle. circle may be None only
    when there are no ARC_EDGE edges."""
    rows = np.flatnonzero(labels == ARC_EDGE)
    if len(rows) and circle is None:
        raise ValueError("ARC_EDGE edges need the circle they lie on")
    cell = np.repeat(np.arange(len(sizes)), sizes)[rows]
    a, b = ring[rows], ring[ring_next(sizes)[rows]]
    c = np.zeros(2) if circle is None else np.asarray(circle[0], dtype=float)
    return rows, cell, a, b, _atan2_rows(a - c), _atan2_rows(b - c)


def _segment_area_moment(circle, ta, tb):
    """Area and first moment ((k,) and (k, 2) arrays) of the circular
    segment between each chord and its CCW arc of circle from angle ta to
    tb. The cube of a sine is np.float_power's, which matches math's pow,
    as np.power does not in the last bit."""
    (cx, cy), R = circle
    sweep = tb - ta
    while (low := sweep <= 0.0).any():
        sweep[low] += 2.0 * math.pi
    # cells are convex, so sweeps stay <= pi (+ rounding)
    area = 0.5 * R * R * (sweep - np.sin(sweep))
    pos = area > 0.0
    area[~pos] = 0.0
    moment = np.zeros((len(area), 2))
    sweep, mid = sweep[pos], ta[pos] + 0.5 * sweep[pos]
    # centroid distance of a circular segment from the center
    dist = (4.0 * R * np.float_power(np.sin(0.5 * sweep), 3)) \
        / (3.0 * (sweep - np.sin(sweep)))
    moment[pos] = area[pos, None] * np.column_stack(
        [cx + dist * np.cos(mid), cy + dist * np.sin(mid)])
    return area, moment


def ring_area_centroid(ring, sizes, labels, circle=None):
    """Exact area and centroid of each cell of a ragged array, whose edges
    are segments plus arcs of circle: per cell, the shoelace sum over its
    straight edges, term by term in vertex order, plus the circular segment
    outside each ARC_EDGE edge's chord, arc by arc in row order. A cell of
    zero area has its vertex mean as centroid (the origin when it has no
    vertices). Returns (area, centroid), (n,) and (n, 2) arrays."""
    n = len(sizes)
    owner = np.repeat(np.arange(n), sizes)
    a, b = ring, ring[ring_next(sizes)]
    cross = a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    area = 0.5 * np.bincount(owner, cross, n)
    mom = np.column_stack([np.bincount(owner, (a[:, c] + b[:, c]) * cross, n)
                           for c in range(2)]) / 6.0
    _, cell, _, _, ta, tb = ring_arcs(ring, sizes, labels, circle)
    if len(cell):
        s_area, s_mom = _segment_area_moment(circle, ta, tb)
        # ufunc.at adds repeated cells one term at a time, in row order
        np.add.at(area, cell, s_area)
        np.add.at(mom, cell, s_mom)
    centroid = np.column_stack([np.bincount(owner, ring[:, c], n)
                                for c in range(2)]) \
        / np.maximum(sizes, 1)[:, None]
    pos = area > 0
    centroid[pos] = mom[pos] / area[pos, None]
    return area, centroid


def has_duplicate_points(points):
    """True when two rows of a (k, 2) array agree once rounded to 12
    decimals: sites closer than that are one site to every diagram."""
    key = points.round(decimals=12)
    key = key[np.lexsort(key.T[::-1])]
    return bool((key[1:] == key[:-1]).all(axis=1).any())


def _rebuild(ring, sizes, labels, cut, rows, first, second, eps):
    """The ragged array with each cell of the mask cut rebuilt from what the
    edges rows (every row of those cells that emits, in ring order) emit:
    first, then second, each a (points, labels, mask) triple with one entry
    per row, the mask saying whether the row emits it. Consecutive
    vertices of a rebuilt cell within eps in both coordinates merge, the
    zero-length edge that the first one starts dropped with it, and a
    rebuilt cell left with fewer than two vertices is empty."""
    n = len(sizes)
    owner = np.repeat(np.repeat(np.arange(n), sizes)[rows], 2)
    pts = np.stack([first[0], second[0]], axis=1).reshape(-1, 2)
    labs = np.column_stack([first[1], second[1]]).ravel()
    on = np.column_stack([first[2], second[2]]).ravel()
    pts, labs, owner = pts[on], labs[on], owner[on]
    apart = (np.abs(pts - pts[ring_next(np.bincount(owner, minlength=n))])
             > eps).any(axis=1)
    pts, labs, owner = pts[apart], labs[apart], owner[apart]
    count = np.bincount(owner, minlength=n)
    live = count[owner] >= 2
    out_sizes = np.where(cut, np.where(count >= 2, count, 0), sizes)
    new_rows = np.repeat(cut, out_sizes)
    kept = np.repeat(~cut, sizes)
    out_ring = np.empty((int(out_sizes.sum()), 2))
    out_ring[new_rows], out_ring[~new_rows] = pts[live], ring[kept]
    out_labels = np.empty(len(out_ring), dtype=int)
    out_labels[new_rows], out_labels[~new_rows] = labs[live], labels[kept]
    return out_ring, out_sizes, out_labels


def clip_halfplane(ring, sizes, labels, normal, offset, new_label, eps,
                   cells=None):
    """Cut cells of a ragged array (ring, sizes, labels) by half-planes
    {x : normal·x <= offset}: cell cells[k] (by default every cell, in
    order) by normal[k] and offset[k], its new edge labelled new_label[k],
    each broadcast over the cells cut. Each crossing point is found from its
    edge's inside endpoint (to full precision however far the other one
    lies, and the same both ways along the edge). A cell with every vertex
    within eps of its half-plane is kept whole, one with every vertex
    outside it by more than -eps is emptied, and every other one is rebuilt
    (_rebuild); the cells not cut pass through. Returns the ragged array."""
    n = len(sizes)
    cells = np.arange(n) if cells is None else np.asarray(cells)
    at = np.full(n, -1)
    at[cells] = np.arange(len(cells))
    normal = np.broadcast_to(normal, (len(cells), 2))
    offset = np.broadcast_to(offset, (len(cells),))
    new_label = np.broadcast_to(new_label, (len(cells),))
    cell_of = np.repeat(np.arange(n), sizes)
    rows = np.flatnonzero(at[cell_of] >= 0)
    k = at[cell_of[rows]]
    d = np.zeros(len(ring))
    d[rows] = ring[rows, 0] * normal[k, 0] + ring[rows, 1] * normal[k, 1] \
        - offset[k]
    inside = d <= eps
    cut = np.bincount(cell_of, ~inside, n) > 0
    if not cut.any():
        return ring, sizes, labels
    empty = np.bincount(cell_of, d > -eps, n) == sizes
    rows = np.flatnonzero(np.repeat(cut & ~empty, sizes))
    nxt = ring_next(sizes)[rows]
    a, b, in_a, in_b = ring[rows], ring[nxt], inside[rows], inside[nxt]
    cross = in_a != in_b
    near = np.where(in_a[:, None], a, b)[cross]
    far = np.where(in_a[:, None], b, a)[cross]
    d_near = np.where(in_a, d[rows], d[nxt])[cross]
    d_far = np.where(in_a, d[nxt], d[rows])[cross]
    hit = np.zeros_like(a)
    hit[cross] = near + (d_near / (d_near - d_far))[:, None] * (far - near)
    return _rebuild(ring, sizes, labels, cut, rows,
                    (np.where(in_a[:, None], a, hit), labels[rows],
                     in_a | in_b),
                    (hit, new_label[at[cell_of[rows]]], in_a & ~in_b), eps)


def polygon_halfplanes(verts):
    """Outward unit normals and offsets of a CCW convex polygon: edge i lies
    on {x : n_i·x = b_i} and the polygon is {x : n·x <= b}."""
    v = np.asarray(verts, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    n = np.stack([e[:, 1], -e[:, 0]], axis=1)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return n, np.sum(n * v, axis=1)


def clip_to_halfplanes(ring, sizes, labels, normals, offsets, eps):
    """Cut every cell of a ragged array by each {x : n_k·x <= b_k} in turn
    (clip_halfplane); the new edges get labels WALL - k."""
    for k, (n, b) in enumerate(zip(normals, offsets)):
        ring, sizes, labels = clip_halfplane(ring, sizes, labels, n, b,
                                             WALL - k, eps)
    return ring, sizes, labels


def clip_to_circle(ring, sizes, labels, center, R, eps):
    """Intersect every cell of a ragged array (straight edges only) with the
    disk (center, R). A cell with every vertex inside (to a tolerance of
    about eps R) passes through; the others are rebuilt (_rebuild): a
    crossing edge is split and the circle pieces get label ARC_EDGE.

    An edge whose inside endpoint lies on the circle may leave the disk with
    no root found (tangent there); the circle point is then that endpoint.
    A cell that no edge crosses is the whole disk when it holds the centre,
    and empty otherwise."""
    c = np.asarray(center, dtype=float)
    tol = max(eps, 1e-14 * R) * R
    n = len(sizes)
    cell_of = np.repeat(np.arange(n), sizes)
    inside = (ring[:, 0] - c[0]) ** 2 + (ring[:, 1] - c[1]) ** 2 \
        <= R * R + 2.0 * tol
    cut = np.bincount(cell_of, ~inside, n) > 0
    if not cut.any():
        return ring, sizes, labels
    rows = np.flatnonzero(np.repeat(cut, sizes))
    nxt = ring_next(sizes)[rows]
    a, b, in_a, in_b = ring[rows], ring[nxt], inside[rows], inside[nxt]
    first, last, hits = _circle_hits(a, b, c, R, ~(in_a & in_b))
    leave, enter = in_a & ~in_b, ~in_a & in_b
    dip = ~in_a & ~in_b & (hits == 2)
    p0 = np.where(in_a[:, None], a, np.where(enter[:, None], last, first))
    p1 = np.where(leave[:, None], first, last)
    l0, l1 = labels[rows], np.full(len(rows), ARC_EDGE)
    m0, m1 = in_a | enter | dip, leave | dip
    # a cell that no edge crosses, and that holds the centre, is the disk:
    # two half-disk arcs from its first row
    owner = cell_of[rows]
    edge = b - a
    outside = edge[:, 0] * (c[1] - a[:, 1]) - edge[:, 1] * (c[0] - a[:, 0]) \
        < -eps
    disk = cut & (np.bincount(owner, leave | enter | dip, n) == 0) \
        & (np.bincount(owner, outside, n) == 0)
    head = np.searchsorted(rows, (np.cumsum(sizes) - sizes)[disk])
    p0[head], p1[head] = (c[0] + R, c[1]), (c[0] - R, c[1])
    l0[head] = ARC_EDGE
    m0[head] = m1[head] = True
    return _rebuild(ring, sizes, labels, cut, rows, (p0, l0, m0),
                    (p1, l1, m1), eps)


def _circle_hits(a, b, c, R, todo):
    """Where each segment a -> b of the rows todo meets the circle (c, R),
    in order along it: the first and the last point (the same one for one
    point; a and b for none) and the number of points, 0, 1 or 2. The
    roots are taken from the endpoint nearer the centre, the half chord
    either side of the foot of the perpendicular, with no cancellation in
    either root, so far endpoints cost no more than their own rounding."""
    first, last = a.copy(), b.copy()
    hits = np.zeros(len(a), dtype=int)
    k = np.flatnonzero(todo)
    swap = np.hypot(*(b[k] - c).T) < np.hypot(*(a[k] - c).T)
    near = np.where(swap[:, None], b[k], a[k])
    step = np.where(swap[:, None], a[k], b[k]) - near
    length = np.hypot(*step.T)
    live = length > 0.0
    k, swap, near, length = k[live], swap[live], near[live], length[live]
    u = step[live] / length[:, None]
    ax, ay = (near - c).T
    s = -(ax * u[:, 0] + ay * u[:, 1])      # the foot of the perpendicular
    h2 = R * R - (ax * u[:, 1] - ay * u[:, 0]) ** 2
    live = h2 > 0.0
    k, swap, near, length, u, s = (x[live] for x in (k, swap, near, length,
                                                     u, s))
    far = s + np.copysign(np.sqrt(h2[live]), s)
    other = (ax * ax + ay * ay - R * R)[live] / far
    ts = np.sort(np.column_stack([far, other]), axis=1)
    ts[swap] = ts[swap, ::-1]               # in order from a to b
    ok = (-1e-12 * length[:, None] <= ts) \
        & (ts <= (1.0 + 1e-12) * length[:, None])
    pts = near[:, None] + ts[..., None] * u[:, None]
    first[k] = np.where(ok[:, :1], pts[:, 0],
                        np.where(ok[:, 1:], pts[:, 1], first[k]))
    last[k] = np.where(ok[:, 1:], pts[:, 1],
                       np.where(ok[:, :1], pts[:, 0], last[k]))
    hits[k] = ok.sum(axis=1)
    return first, last, hits


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
    """∫f over each triangle with the 7-point rule; (k,)."""
    pts = _TRI_PTS @ tris  # (k, 7, 2)
    w = f(pts.reshape(-1, 2)).reshape(len(tris), -1) * _TRI_WTS \
        * _tri_areas(tris)[:, None]
    return w.sum(axis=1)


# A polar patch is a row (cx, cy, R, e, tm, t0, t1, s0, s1): the points
# c + r (cos θ, sin θ) with θ in [t0, t1] and r = lo(θ) + s (R - lo(θ)) for s in
# [s0, s1], where lo(θ) = e / cos(θ - tm) is the chord at distance e from the
# centre along the direction tm (e = 0: lo = 0, the patch reaches the centre).
_T0, _T1, _S0, _S1 = 5, 6, 7, 8


def arc_patches(ring, sizes, labels, circle):
    """(cell, patches): the polar patch between each ARC_EDGE edge's chord
    and its CCW arc of circle, a (q, 9) array in row order, and the cell
    each one belongs to."""
    _, cell, a, b, ta, tb = ring_arcs(ring, sizes, labels, circle)
    if not len(cell):
        return cell, np.zeros((0, 9))
    (cx, cy), R = circle
    tb = tb.copy()
    while (low := tb <= ta).any():
        tb[low] += 2.0 * math.pi
    tm = 0.5 * (ta + tb)
    # a sweep of pi or more: the chord passes (numerically) through the
    # centre, e = 0
    e = np.where(tb - ta < math.pi - 1e-9,
                 (0.5 * (a[:, 0] + b[:, 0]) - cx) * np.cos(tm)
                 + (0.5 * (a[:, 1] + b[:, 1]) - cy) * np.sin(tm), 0.0)
    k = len(cell)
    return cell, np.column_stack([np.full(k, cx), np.full(k, cy),
                                  np.full(k, R), e, tm, ta, tb,
                                  np.zeros(k), np.ones(k)])


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
    """∫f over each patch with the tensor Gauss rule; (k,)."""
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
    return w.sum(axis=(1, 2))


class _Leaves:
    """The leaf panels of one kind, each with its owner, its own rule value
    (coarse) and the rule values of its four sub-panels (subs)."""

    def __init__(self, f, rule, split, nodes, panels, owner):
        self.f, self.rule, self.split, self.nodes = f, rule, split, nodes
        k = len(panels)
        vals = self._values(np.concatenate([panels, split(panels)]))
        self.panels, self.owner, self.coarse = panels, owner, vals[:k]
        self.subs = vals[k:].reshape(k, 4)

    def _values(self, panels):
        """Rule values of panels, at most _CALL_NODES nodes per density call."""
        step = max(1, _CALL_NODES // self.nodes)
        return np.concatenate([self.rule(self.f, panels[s:s + step])
                               for s in range(0, len(panels), step)])

    def errors(self):
        return np.abs(self.subs.sum(axis=1) - self.coarse)

    def refine(self, m):
        """Split the leaves m: their sub-panels become leaves with the same
        owner, keep their known values as coarse estimates, and are split in
        turn."""
        if not m.any():
            return
        new = self.split(self.panels[m])
        self.panels = np.concatenate([self.panels[~m], new])
        self.owner = np.concatenate([self.owner[~m], np.repeat(self.owner[m], 4)])
        self.coarse = np.concatenate([self.coarse[~m], self.subs[m].ravel()])
        self.subs = np.concatenate(
            [self.subs[~m], self._values(self.split(new)).reshape(-1, 4)])

    def sums(self, k):
        """The leaves' refined values added up per owner; (k,)."""
        return np.bincount(self.owner, self.subs.sum(axis=1), k)


_KINDS = ((_tri_rule, _tri_split, _TRI_NODES),
          (_patch_rule, _patch_split, _PATCH_NODES))


def integrate_panels(f, tris, patches, tol, owners=None, k=1):
    """Per-owner ∫f, a (k,) array, of a vectorized density f over triangles
    ((t, 3, 2) array) and polar patches ((q, 9) rows, see arc_patches).
    owners is a pair of int arrays, the owner in range(k) of each triangle
    and of each patch; by default every panel belongs to owner 0.

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
            return sum((leaves.sums(k) for leaves in kinds), np.zeros(k))
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


def integrate_ring_cells(ring, sizes, labels, f, tol=1e-10, circle=None):
    """∫f of a vectorized density f over each cell of a ragged array whose
    ARC_EDGE edges lie on circle; a (len(sizes),) array, zero for empty
    cells.

    Panels: each cell's straight part fanned around its vertex mean, and one
    polar patch between each arc edge's chord and its circle (arc_patches);
    one globally adaptive integration over all of them, so tol bounds the
    error estimates summed over every cell."""
    patch_owner, patches = arc_patches(ring, sizes, labels, circle)
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
    return integrate_panels(f, tris, patches, tol, (tri_owner, patch_owner),
                            len(poly))
