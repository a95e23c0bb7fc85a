# Small-scale ground truth: discrete-discrete transport via a float
# transportation simplex (Dantzig's rule, Bland's after a degenerate pivot),
# plus a monotonicity certificate, used to cross-check the
# semi-discrete solver before trusting it at scale. The cross-check scores
# the LP plan on grid atoms by the exact overlap of each atom's grid piece
# with the solver's Laguerre cells.
from dataclasses import dataclass

import numpy as np

from .domains import clip_eps, grid_cells
from .geometry import SIDE, integrate_ring_cells, ring_area_centroid
from .laguerre import cell_cutter
from .solver import _dense_plane, solve

# the most points on either side of the discrete oracle's transport problem:
# grid atoms as sources, sites as targets
MAX_POINTS = 1000
# the most pivots the transportation simplex takes before it gives up
_MAX_PIVOTS = 200000


@dataclass
class DiscretePlan:
    """Support of a transport plan between weighted point clouds, sorted by
    (source, target), with the recovered duals and optimality certificates."""
    source: np.ndarray            # source index of each support entry
    target: np.ndarray            # target index of each support entry
    mass: np.ndarray              # mass of each support entry
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
    basis: dict | None = None     # final basis: (source, target) -> flow
                                  # of all m + n - 1 cells, zeros included


def _hang(rows, m, adj):
    """Hang the basis tree from row 0, breadth first: each reached node's
    dual, with u_0 = 0 and u_j + v_i = C_ji on every tree edge, its parent
    and its depth. Returns (nodes, duals, parent, depth), nodes in the order
    reached; a tree that does not span leaves nodes short."""
    pot, parent, depth = [0.0] * len(adj), [-1] * len(adj), [0] * len(adj)
    nodes, seen = [0], {0}
    for x in nodes:                 # grows while it is read
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                depth[y] = depth[x] + 1
                pot[y] = (rows[x][y - m] if x < m
                          else rows[y][x - m]) - pot[x]
                nodes.append(y)
    return nodes, pot, parent, depth


def _least_cost_start(C, mu, nu):
    """Basic feasible flows of the least-cost start: the cheapest cell whose
    row and column are both open, the first in row-major order on ties,
    takes as much flow as both lines allow, and then exactly one line
    closes: the row if it is used up and another row is still open,
    otherwise the column. The last open column stays open while another
    row is, even when roundoff leaves its row a remainder. The m + n - 1
    cells, zero flows included, form a spanning tree."""
    m, n = len(mu), len(nu)
    a, b = list(mu), list(nu)
    rows, cols = set(range(m)), set(range(n))     # the open lines
    flows = {}
    for k in np.argsort(C, axis=None, kind="stable").tolist():
        j, i = divmod(k, n)
        if j not in rows or i not in cols:
            continue
        flows[(j, i)] = t = min(a[j], b[i])
        a[j] -= t
        b[i] -= t
        if len(flows) == m + n - 1:
            break
        if (a[j] == 0.0 or len(cols) == 1) and len(rows) > 1:
            rows.remove(j)
        else:
            cols.remove(i)
    return flows


def _simplex(C, mu, nu, start=None):
    """Transportation simplex on the cost array C from the basis `start`, a
    dict of the m + n - 1 basic cells' flows (None: the least-cost start);
    returns the final basis in that form, the duals and the number of
    pivots. Stops once no reduced cost is below -1e-12.

    The entering cell has the most negative reduced cost (Dantzig's rule),
    except after a degenerate pivot (step 0), where it is the first negative
    cell in row-major order until the next nondegenerate pivot; the leaving
    cell is the lowest-indexed blocking one. A cycle of bases is made of
    degenerate pivots only, so from its second pivot on, round after round,
    it would be one Bland run, and Bland's rule cannot cycle.

    The basis is a spanning tree on rows 0..m-1 and columns m..m+n-1. Each
    pivot walks it whole from row 0 for the duals and each node's parent
    and depth (Ahuja, Magnanti and Orlin 1993, Network Flows, ch. 11); the
    entering cell's cycle is the tree path between its row and its column,
    read off the parent pointers. Each dual is a sum along the node's one
    path to the root. A walk that misses a node found a basis that does
    not span, and the simplex stops with an error."""
    m, n = len(mu), len(nu)
    flows = _least_cost_start(C, mu, nu) if start is None else dict(start)
    basic = np.zeros((m, n), dtype=bool)
    adj = [[] for _ in range(m + n)]    # tree neighbours of each node
    for j, i in flows:
        basic[j, i] = True
        adj[j].append(m + i)
        adj[m + i].append(j)

    rows = C.tolist()
    bland = False
    for pivots in range(_MAX_PIVOTS):
        nodes, pot, parent, depth = _hang(rows, m, adj)
        if len(nodes) < m + n:
            raise RuntimeError("disconnected basis tree")
        duals = np.array(pot)           # u = duals[:m], v = duals[m:]
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
    else:
        raise RuntimeError(f"simplex did not terminate after {pivots + 1} "
                           f"pivots on an {m}×{n} problem")
    return flows, duals[:m], duals[m:], pivots


def _transport_basis(C, mu, nu, start=None):
    """Optimal basic plan of the transportation problem (C, mu, nu), by the
    simplex from the basis `start` (None: the least-cost start), as
    (source, target, mass) arrays of its support, sorted by (source, target),
    with the duals, the number of simplex pivots and the final basis. The
    roundoff between the two totals is absorbed into the largest source, so
    two calls on the same marginals solve over the same feasible plans and
    one's basis can start the other. The support keeps flows above 1e-15 of
    the total mass."""
    mu = mu.copy()
    mu[int(np.argmax(mu))] += nu.sum() - mu.sum()
    flows, u, v, pivots = _simplex(C, list(mu), list(nu), start)
    (j, i), f = np.array(list(flows)).T, np.array(list(flows.values()))
    keep = np.lexsort((i, j))
    keep = keep[f[keep] > 1e-15 * nu.sum()]
    return j[keep], i[keep], f[keep], u, v, pivots, flows


def lp_transport(sources, targets):
    """Optimal plan between (x_j, mu_j) and (p_i, nu_i) for the linear
    surplus cost -<x, p>, by the float transportation simplex: optimal up to
    its stopping rule, no reduced cost below -1e-12. The plan's `pivots`
    counts the simplex pivots from the least-cost start, and its `basis`
    holds the final basis, which starts agreement_ceiling's simplex."""
    xs = np.asarray([s[0] for s in sources], dtype=float)
    mu = np.asarray([s[1] for s in sources], dtype=float)
    ps = np.asarray([t[0] for t in targets], dtype=float)
    nu = np.asarray([t[1] for t in targets], dtype=float)
    m, n = len(mu), len(nu)
    if m > MAX_POINTS or n > MAX_POINTS:
        raise ValueError("instance too large")
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise ValueError("marginal masses must be positive")
    if abs(mu.sum() - nu.sum()) > 1e-12 * max(mu.sum(), nu.sum()):
        raise ValueError("marginals are infeasible (total masses differ)")
    Cf = -(xs @ ps.T)
    j, i, f, u, v, pivots, basis = _transport_basis(Cf, mu, nu)
    cost = sum((Cf[j, i] * f).tolist())
    slack = np.abs(Cf[j, i] - u[j] - v[i]).max(initial=0.0)
    rc = (Cf - u[:, None] - v[None, :]).min()
    return DiscretePlan(j, i, f, xs, mu, ps, nu, u, v, float(cost),
                        float(slack), float(rc), pivots, basis)


def monotonicity_certificate(plan):
    """min <x - x', p - p'> over pairs of supported couplings; nonnegative
    (to roundoff) exactly when the support is monotone."""
    floor = 1e-15 * max(plan.source_masses.sum(), 1e-300)
    keep = plan.mass > floor
    if keep.sum() < 2:
        return 0.0
    x, p = plan.sources[plan.source[keep]], plan.targets[plan.target[keep]]
    a, b = np.triu_indices(len(x), 1)
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
    if grid_m ** 2 > MAX_POINTS:
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
    """(lo, hi), the (N, 2) corners of each cell's bounding box (inf and
    -inf for a cell with no vertices, which meets no square): the box of
    its vertices in the diagram's ragged arrays, widened on a disk domain
    by those of the circle's points at angles 0, pi/2, pi and 3 pi/2 that
    the cell holds (solver._dense_plane). Between two of these points an
    arc is monotone in both coordinates, so these points and the arc's ends
    bound it."""
    n = len(diagram.sites)
    lo, hi = np.full((n, 2), np.inf), np.full((n, 2), -np.inf)
    np.minimum.at(lo, diagram.owner, diagram.verts)
    np.maximum.at(hi, diagram.owner, diagram.verts)
    if diagram.domain.circle is not None:
        (cx, cy), r = diagram.domain.circle
        q = np.array([[cx + r, cy], [cx, cy + r], [cx - r, cy], [cx, cy - r]])
        cell = _dense_plane(diagram.sites, diagram.psi, q)[0]
        np.minimum.at(lo, cell, q)
        np.maximum.at(hi, cell, q)
    return lo, hi


def _overlap_table(domain, diagram, squares, area):
    """Boolean (atoms × sites) table: True where the diagram's Laguerre cell
    i holds a positive-area part of atom j's grid piece, the part of the
    grid square squares[j] inside the domain, of area area[j]. Each part is
    the square cut by cell i's bisectors against its neighbours, its row
    of the diagram's neighbour_rows(), and then by the domain
    (laguerre.cell_cutter). Cell i is the domain cut by those half-planes,
    so the parts of one atom tile its piece exactly; all parts are cut in
    one cutter call, and one ring_area_centroid call gives every part's
    area. A square whose box misses cell i's box (_cell_boxes) by more than
    the clip eps has no part in cell i and is not cut."""
    eps = clip_eps(domain)
    sq_lo, sq_hi = squares.min(axis=1) - eps, squares.max(axis=1) + eps
    lo, hi = _cell_boxes(diagram)
    near = ((sq_lo[:, None] <= hi) & (sq_hi[:, None] >= lo)).all(axis=2)
    cell, j = np.nonzero(near.T)
    ring, sizes, labels = cell_cutter(
        domain, diagram.sites, diagram.psi, squares[j].reshape(-1, 2),
        np.full(len(j), 4), np.full(4 * len(j), SIDE), cell,
        *diagram.neighbour_rows())
    overlap = np.zeros((len(squares), len(diagram.sites)))
    overlap[j, cell] = ring_area_centroid(ring, sizes, labels,
                                          domain.circle)[0]
    return overlap > OVERLAP_SHARE * area[:, None]


def _overlap_agreement(plan, member):
    """Share of the plan's mass on atom/site pairs that overlap."""
    agree = sum(plan.mass[member[plan.source, plan.target]].tolist())
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
    choice among plans of equal cost. The simplex starts from the plan's
    own final basis, which is feasible here: both LPs share the
    marginals."""
    j, i, f = _transport_basis(-member.astype(float), plan.source_masses,
                               plan.target_masses, plan.basis)[:3]
    agree = sum(f[member[j, i]].tolist())
    return float(agree / target.total)

