# Small-scale ground truth: discrete-discrete transport via a float
# transportation simplex (Dantzig's rule, Bland's after a degenerate pivot),
# plus a monotonicity certificate, used to cross-check the
# semi-discrete solver before trusting it at scale. The cross-check scores
# the LP plan on grid atoms by the exact overlap of each atom's grid piece
# with the solver's Laguerre cells.
import math
from dataclasses import dataclass

import numpy as np

from .domains import clip_eps, grid_cells
from .geometry import SIDE, integrate_ring_cells, ring_arcs, ring_area_centroid
from .laguerre import cell_cutter
from .solver import solve


@dataclass
class DiscretePlan:
    """Support of a transport plan between weighted point clouds, with the
    recovered duals and optimality certificates."""
    entries: list                 # (source_index, target_index, mass)
    sources: np.ndarray           # (m, 2) positions
    source_masses: np.ndarray
    targets: np.ndarray           # (n, 2) positions
    target_masses: np.ndarray
    duals_source: np.ndarray
    duals_target: np.ndarray
    cost: float
    max_support_slack: float      # max |C - u - v| over support
    min_reduced_cost: float       # min (C - u - v) over all pairs
    pivots: int = 0               # simplex pivots that reached the plan


def _hang(rows, m, adj, pot, parent, depth, s, t):
    """Hang the part of the basis tree reached from node s without passing
    through node t below t (t = -1: s is the root): set each reached node's
    parent, depth and dual, u_j + v_i = C_ji on every tree edge. Returns the
    nodes reached, s first."""
    parent[s] = t
    if t < 0:
        depth[s], pot[s] = 0, 0.0
    else:
        depth[s] = depth[t] + 1
        pot[s] = (rows[t][s - m] if t < m else rows[s][t - m]) - pot[t]
    nodes, seen = [s], {s, t}
    for x in nodes:                 # breadth first: grows while it is read
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                depth[y] = depth[x] + 1
                pot[y] = (rows[x][y - m] if x < m
                          else rows[y][x - m]) - pot[x]
                nodes.append(y)
    return nodes


def _simplex(C, mu, nu):
    """Transportation simplex on the cost array C; returns the basis flows,
    the duals and the number of pivots. Stops once no reduced cost is below
    -1e-12.

    The entering cell has the most negative reduced cost (Dantzig's rule),
    except after a degenerate pivot (step 0), where it is the first negative
    cell in row-major order until the next nondegenerate pivot; the leaving
    cell is the lowest-indexed blocking one. A cycle of bases is made of
    degenerate pivots only, so from its second pivot on, round after round,
    it would be one Bland run, and Bland's rule cannot cycle.

    The basis is a spanning tree on rows 0..m-1 and columns m..m+n-1, with
    each node's parent, depth and dual. The entering cell's cycle is the
    tree path between its row and its column, read off the parent
    pointers. The leaving cell cuts off one subtree; only that subtree is
    walked again, hung from the entering cell (Ahuja, Magnanti and Orlin
    1993, Network Flows, ch. 11). Once the simplex stops, the tree is
    walked whole from row 0 to check that it spans every node and gives the
    same duals."""
    m, n = len(mu), len(nu)
    # northwest-corner start
    flows = {}
    basic = np.zeros((m, n), dtype=bool)
    adj = [[] for _ in range(m + n)]    # tree neighbours of each node
    j = i = 0
    a, b = mu[0], nu[0]
    while True:
        t = a if a <= b else b
        flows[(j, i)] = t
        basic[j, i] = True
        adj[j].append(m + i)
        adj[m + i].append(j)
        a = a - t
        b = b - t
        if j == m - 1 and i == n - 1:
            break
        if a == 0.0 and j < m - 1:
            j += 1
            a = mu[j]
        else:
            i += 1
            b = nu[i]

    rows = C.tolist()
    pot, parent, depth = [0.0] * (m + n), [-1] * (m + n), [0] * (m + n)
    _hang(rows, m, adj, pot, parent, depth, 0, -1)
    duals = np.array(pot)           # u = duals[:m], v = duals[m:]
    bland = False
    for pivots in range(200000):
        rc = C - duals[:m, None] - duals[None, m:]
        rc[basic] = 0.0
        first = int((rc < -1e-12).argmax() if bland else rc.argmin())
        if not rc.flat[first] < -1e-12:
            break
        enter = je, ie = divmod(first, n)
        # cycle: the tree path from column ie up to the common ancestor and
        # down to row je, closed by enter; signs alternate +,-,+,- from enter
        x, y, up, down = m + ie, je, [], []
        while x != y:
            if depth[x] >= depth[y]:
                up.append(x)
                x = parent[x]
            else:
                down.append(y)
                y = parent[y]
        path = up + [x] + down[::-1]
        cyc = [enter] + [(min(s, t), max(s, t) - m)
                         for s, t in zip(path, path[1:])]
        minus = cyc[1::2]
        theta = min(flows[c] for c in minus)
        leave = min(c for c in minus if flows[c] == theta)
        bland = theta == 0.0
        flows[enter] = 0.0
        for k, cell in enumerate(cyc):
            flows[cell] += -theta if k % 2 else theta
        del flows[leave]
        basic[leave] = False
        basic[enter] = True
        adj[leave[0]].remove(m + leave[1])
        adj[m + leave[1]].remove(leave[0])
        adj[je].append(m + ie)
        adj[m + ie].append(je)
        # an arc on the column's path up to the common ancestor cuts off the
        # column's side of the entering cell, any other arc the row's side
        s, t = (m + ie, je) if cyc.index(leave) <= len(up) else (je, m + ie)
        sub = _hang(rows, m, adj, pot, parent, depth, s, t)
        duals[sub] = [pot[x] for x in sub]
    else:
        raise RuntimeError(f"simplex did not terminate after {pivots + 1} "
                           f"pivots on an {m}×{n} problem")
    fresh = [0.0] * (m + n)
    if len(_hang(rows, m, adj, fresh, [-1] * (m + n), [0] * (m + n),
                 0, -1)) < m + n:
        raise RuntimeError("disconnected basis tree")
    drift = float(np.abs(np.array(fresh) - duals).max())
    if drift > 1e-12 * float(np.abs(C).max()):
        raise RuntimeError(f"incremental duals drifted {drift:.3g} from "
                           f"those of the basis tree")
    return flows, duals[:m], duals[m:], pivots


def _transport_basis(C, mu, nu):
    """Optimal basic plan of the transportation problem (C, mu, nu) as
    sorted (source, target, mass) entries, with the duals and the number of
    simplex pivots. The roundoff between the two totals is absorbed into
    the largest source."""
    mu = mu.copy()
    mu[int(np.argmax(mu))] += nu.sum() - mu.sum()
    flows, u, v, pivots = _simplex(C, list(mu), list(nu))
    entries = sorted((j, i, float(f)) for (j, i), f in flows.items()
                     if f > 1e-15)
    return entries, u, v, pivots


def lp_transport(sources, targets):
    """Optimal plan between (x_j, mu_j) and (p_i, nu_i) for the linear
    surplus cost -<x, p>, by the float transportation simplex: optimal up to
    its stopping rule, no reduced cost below -1e-12. The plan's `pivots`
    counts the simplex pivots from the northwest-corner start."""
    xs = np.asarray([s[0] for s in sources], dtype=float)
    mu = np.asarray([s[1] for s in sources], dtype=float)
    ps = np.asarray([t[0] for t in targets], dtype=float)
    nu = np.asarray([t[1] for t in targets], dtype=float)
    m, n = len(mu), len(nu)
    if m > 1000 or n > 1000:
        raise ValueError("instance too large")
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise ValueError("marginal masses must be positive")
    if abs(mu.sum() - nu.sum()) > 1e-12 * max(mu.sum(), nu.sum()):
        raise ValueError("marginals are infeasible (total masses differ)")
    Cf = -(xs @ ps.T)
    entries, u, v, pivots = _transport_basis(Cf, mu, nu)
    cost = sum(Cf[j, i] * f for j, i, f in entries)
    slack = max((abs(Cf[j, i] - u[j] - v[i]) for j, i, f in entries), default=0.0)
    rc = (Cf - u[:, None] - v[None, :]).min()
    return DiscretePlan(entries, xs, mu, ps, nu, u, v, float(cost),
                        float(slack), float(rc), pivots)


def monotonicity_certificate(plan):
    """min <x - x', p - p'> over pairs of supported couplings; nonnegative
    (to roundoff) exactly when the support is monotone."""
    floor = 1e-15 * max(plan.source_masses.sum(), 1e-300)
    pairs = np.array([(j, i) for j, i, m in plan.entries if m > floor],
                     dtype=int).reshape(-1, 2)
    if len(pairs) < 2:
        return 0.0
    x, p = plan.sources[pairs[:, 0]], plan.targets[pairs[:, 1]]
    a, b = np.triu_indices(len(pairs), 1)
    dx, dp = x[a], p[a]
    dx -= x[b]
    dp -= p[b]
    return float((dx[:, None, :] @ dp[:, :, None]).min())


def _grid_atoms(domain, K, target, grid_m):
    """Cell-centered atomization of the source on an m×m grid over the
    domain's bounding box (domains.grid_cells), as arrays over the grid
    pieces that carry mass: (centroid, mass, square, area), the piece's
    centroid, where its atom sits, the atom's mass rescaled to the target
    total, the corners of the grid square the piece was cut from, and the
    piece's area."""
    if grid_m ** 2 > 1000:
        raise ValueError("grid too fine for the discrete oracle")
    grid = grid_cells(domain, grid_m)
    if K.is_constant:
        mass = K.constant * grid.area
    else:
        mass = integrate_ring_cells(grid.ring, grid.sizes, grid.labels, K,
                                    circle=domain.circle)
    keep = mass > 0
    # the atomization quadrature and the target share the same total up to
    # rounding; bridge the difference with one common rescale
    mass = mass[keep]
    mass *= target.total / sum(mass.tolist())
    return grid.centroid[keep], mass, grid.squares[keep], grid.area[keep]


# an overlap counts when it exceeds this share of its atom's area: clipping
# roundoff is ~1e-12 relative, while every overlap on the criterion-3
# instance is >= 3.6% of its atom and every pair its LP plan uses >= 11%
OVERLAP_SHARE = 1e-9


def _cell_boxes(diagram):
    """(lo, hi), the (N, 2) corners of each nonempty cell's bounding box:
    the box of its vertices in the diagram's ragged arrays, widened on each
    arc edge by the points of the circle at angles 0, pi/2, pi and 3 pi/2
    that the arc passes."""
    n = len(diagram.sites)
    lo, hi = np.full((n, 2), np.inf), np.full((n, 2), -np.inf)
    np.minimum.at(lo, diagram.owner, diagram.verts)
    np.maximum.at(hi, diagram.owner, diagram.verts)
    circle = diagram.domain.circle
    _, cell, _, _, ta, tb = ring_arcs(diagram.verts, diagram.sizes,
                                      diagram.labels, circle)
    if len(cell):
        (cx, cy), r = circle
        sweep = (tb - ta) % (2.0 * math.pi)
        for k, q in enumerate(((cx + r, cy), (cx, cy + r), (cx - r, cy),
                               (cx, cy - r))):
            on = (0.5 * math.pi * k - ta) % (2.0 * math.pi) <= sweep
            np.minimum.at(lo, cell[on], q)
            np.maximum.at(hi, cell[on], q)
    return lo, hi


def _neighbour_table(diagram):
    """(N, T) array: row i holds cell i's neighbours, the diagram's
    neighbour_rows() row i, ascending, padded with -1."""
    indptr, nbrs = diagram.neighbour_rows()
    count = np.diff(indptr)
    i = np.repeat(np.arange(len(count)), count)
    table = np.full((len(count), count.max(initial=0)), -1)
    table[i, np.arange(len(nbrs)) - indptr[i]] = nbrs
    return table


def _overlap_table(domain, diagram, squares, area):
    """Boolean (atoms × sites) table: True where the diagram's Laguerre cell
    i holds a positive-area part of atom j's grid piece, the part of the
    grid square squares[j] inside the domain, of area area[j]. Each part is
    the square cut by cell i's bisectors against its neighbours
    (_neighbour_table) and then by the domain (laguerre.cell_cutter). Cell
    i is the domain cut by those half-planes, so the parts of one atom
    tile its piece exactly; all parts are cut in one cutter call,
    and one ring_area_centroid call gives every part's area. A square whose
    box misses cell i's box (_cell_boxes) by more than the clip eps has no
    part in cell i and is not cut."""
    eps = clip_eps(domain)
    sq_lo, sq_hi = squares.min(axis=1) - eps, squares.max(axis=1) + eps
    lo, hi = _cell_boxes(diagram)
    live = np.flatnonzero(diagram.nonempty)
    near = ((sq_lo[:, None] <= hi[live]) & (sq_hi[:, None] >= lo[live])) \
        .all(axis=2)
    cell, j = np.nonzero(near.T)
    cell = live[cell]
    ring, sizes, labels = cell_cutter(domain, diagram.sites, diagram.psi)(
        squares[j].reshape(-1, 2), np.full(len(j), 4),
        np.full(4 * len(j), SIDE), cell, _neighbour_table(diagram)[cell])
    overlap = np.zeros((len(squares), len(diagram.sites)))
    overlap[j, cell] = ring_area_centroid(ring, sizes, labels,
                                          domain.circle)[0]
    return overlap > OVERLAP_SHARE * area[:, None]


def _overlap_agreement(plan, member):
    """Share of the plan's mass on atom/site pairs that overlap."""
    agree = sum(m for j, i, m in plan.entries if member[j, i])
    return float(agree / plan.source_masses.sum())


def semidiscrete_agreement(domain, K, target, grid_m, tol=1e-7,
                           max_iter=100):
    """Share of source mass that the LP plan on the m×m grid atoms sends
    to a site whose Laguerre cell overlaps the atom's grid piece.

    Membership is the exact overlap (positive area) of the piece with the
    cell, so an atom cut by a cell edge agrees with every cell it meets and
    no floating-point tie-break at a centroid decides the result.
    Resolution limit: the metric only sees ψ errors that move a cell edge
    off a whole grid piece. On the 15×15 criterion-3 instance, Gaussian ψ
    noise that leaves an l1 mass residual of 4.8% or 10.9% still scores 1.0,
    15.4% scores 0.992 and 38.8% scores 0.888, so errors below about a tenth
    of the mass go unseen; mass balance is checked by the solver's residual,
    not here. The solve runs to tol in at most max_iter Newton steps.
    Returns (fraction, plan, solution, member), where member is the
    (atoms × sites) overlap table that agreement_ceiling scores with."""
    sol = solve(domain, K, target, tol=tol, max_iter=max_iter)
    centers, masses, squares, area = _grid_atoms(domain, K, target, grid_m)
    member = _overlap_table(domain, sol.diagram, squares, area)
    plan = lp_transport(list(zip(centers, masses)),
                        list(zip(target.sites, target.masses)))
    return _overlap_agreement(plan, member), plan, sol, member


def agreement_ceiling(plan, member, target):
    """Maximum of semidiscrete_agreement's fraction over ALL feasible plans
    with the marginals of `plan`, for the overlap table `member` that
    semidiscrete_agreement returned with it: the transportation LP with cost
    -1 on overlapping pairs and 0 elsewhere, optimal up to the simplex's
    stopping rule (no reduced cost below -1e-12), so within 1e-12 of the
    true maximum. It scores with the same table, so the measured fraction
    exceeds it by rounding at most; a gap between the two is the LP's
    choice among plans of equal cost."""
    entries = _transport_basis(-member.astype(float), plan.source_masses,
                               plan.target_masses)[0]
    agree = sum(m for j, i, m in entries if member[j, i])
    return float(agree / target.total)

