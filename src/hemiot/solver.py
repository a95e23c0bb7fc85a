# Damped Newton solver for the dual weights of the semi-discrete problem:
# find psi so that each Laguerre cell of max_i(<x, p_i> - psi_i) carries
# exactly the prescribed target mass under the source density.
import math
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .chart import c_exp_rows
from .domains import clip_eps, inradius_point, total_mass
from .geometry import QuadratureError, ring_arcs
from .laguerre import (compute_measures, edge_weights, laguerre_diagram,
                       level_order)


class MassBalanceError(ValueError):
    """Source and target total masses disagree beyond tolerance."""


class ConvergenceError(RuntimeError):
    pass


class CellMeasureError(QuadratureError):
    """The cell-measure quadrature stalled at the tolerance that solve takes
    from its tol; the message names both."""


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_residual: float          # ||G - nu||_1 / total mass
    min_cell_mass_history: list
    connected: bool
    runtime: float
    diagrams_built: int            # Laguerre diagrams the solve built
    diagrams_discarded: int        # rejected line-search trials
    start_residual: float          # ||G - nu||_1 / total mass at the start
    stop: str                      # why the loop ended: "tol", "line_search"
                                   # (no tau >= 2^-11 accepted) or "max_iter"


@dataclass
class Solution:
    """What solve returns: the weights psi, their Laguerre diagram and its
    cell masses. No cell of the diagram is empty: the start is rejected
    when a cell has mass 0, a trial is accepted only when every cell keeps
    mass >= eps0 > 0, and a cell with fewer than two vertices has mass 0.
    So the code that reads a solution's cells filters none out."""
    domain: object
    density: object
    target: object
    psi: np.ndarray
    diagram: object
    masses: np.ndarray
    report: SolveReport

    @property
    def sites(self):
        return self.target.sites

    @cached_property
    def _locator(self):
        """Point location in the diagram, built on first use."""
        return _Locator(self)

    def locate(self, x):
        """(idx, u) for the (m, 2) points x: idx[r] is the site whose cell of
        the diagram holds x[r] (see _Locator), and u[r] = <x[r], p_i> - psi_i
        is that site's score, the potential u = max_i <x, p_i> - psi_i;
        ties resolve to the lowest site index."""
        return self._locator(np.asarray(x, dtype=float))

    def gauss_map(self, x):
        """(m, 3) images of the (m, 2) points x on the lower hemisphere: the
        contact direction of the supporting plane active at each point."""
        return c_exp_rows(self.sites[self.locate(x)[0]])


def _radial_profile_psi(domain, sites, nu):
    """Start weights psi_i = <xc, p_i> + F(s_i): B(xc, rin) is the domain's
    inscribed ball, s_i = |p_i - pc| and pc is the target's centre of mass.
    With the sites sorted by s (stably), F is the integral from 0 of f, the
    piecewise-linear function through (0, 0) and the knots (s_k, f_k),
    f_k = (1 - 1e-7) rin sqrt(g_k), where g_k is the target's mass share on
    the sites before site k plus half of site k's. The gradient of
    F(|p - pc|) carries the ball's uniform mass onto the target's radial
    mass profile about pc, and its Legendre dual makes the start cells'
    masses follow that profile. For the uniform disk's profile,
    g = (s / max s)^2, psi is the affine squeeze of the sites' Voronoi
    diagram into the ball.

    Every cell is nonempty. Write x = xc + y and q_i = p_i - pc: site i
    scores <y, q_i> - F(|q_i|) plus a term common to all sites. From one
    knot to the next, g rises by (nu_k + nu_(k+1)) / (2 sum nu) > 0, so F'
    rises strictly, with upward jumps at tied s: F is strictly convex and
    increasing on [0, max s], and Phi(q) = F(|q|) is strictly convex on the
    disk of radius max s. Take y_i = f_i q_i / s_i (y_i = 0 when s_i = 0).
    f_i lies in the subdifferential of F at s_i, so y_i is a subgradient of
    Phi at q_i, and strict convexity gives <y_i, q_i> - Phi(q_i) >
    <y_i, q_j> - Phi(q_j) for every site j != i. So x_i = xc + y_i lies in
    the open cell of site i, and |y_i| <= f_i < rin puts it inside the
    domain."""
    xc, rin = inradius_point(domain)
    s = np.hypot(*(sites - nu @ sites / nu.sum()).T)
    order = np.argsort(s, kind="stable")
    m = nu[order]
    f = np.concatenate([[0.0], (1.0 - 1e-7) * rin * np.sqrt(
        (np.cumsum(m) - 0.5 * m) / m.sum())])
    knots = np.concatenate([[0.0], s[order]])
    F = np.empty(len(s))
    F[order] = np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(knots))
    return sites @ xc + F


def _newton_step(diagram, K, G, nu):
    """Solve (D - W) d = G - nu with the gauge d[0] = 0. On a connected cell
    graph the gauge-fixed Laplacian L[1:, 1:] is an irreducibly diagonally
    dominant M-matrix, so it is positive definite: assembled as a sparse
    matrix from the pairs that edge_weights weighs, it is factored once by
    SuperLU in symmetric mode (minimum-degree order on its pattern, pivots
    kept on the diagonal) and solved once. Raises ConvergenceError when the
    cell graph is not connected."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    n = len(nu)
    pairs, w = edge_weights(diagram, K)
    reached = level_order(*diagram.neighbour_rows())
    if not reached.all():
        raise ConvergenceError(
            f"the cell graph is not connected: the breadth-first search from "
            f"site 0 did not reach {n - reached.sum()} of {n} sites")
    i, j = pairs.T
    deg = np.bincount(i, w, n) + np.bincount(j, w, n)
    # site 0 is the gauge and drops out: the pairs i < j that remain have
    # i > 0, and site k's unknown is row k - 1
    inner, diag = i > 0, np.arange(1, n)
    r = np.concatenate([i[inner], j[inner], diag]) - 1
    c = np.concatenate([j[inner], i[inner], diag]) - 1
    L = csc_matrix((np.concatenate([-w[inner], -w[inner], deg[1:]]), (r, c)),
                   shape=(n - 1, n - 1))
    d = np.zeros(n)
    d[1:] = splu(L, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                 options={"SymmetricMode": True}).solve((G - nu)[1:])
    return d


def mass_quadrature_tol(tol, total):
    """Quadrature tolerance for a source mass that must match a target of
    mass total in the mass-balance check of a solve at tol:
    min(1e-9, 1e-3 * tol * total), floored at 1e-12."""
    return max(min(1e-9, 1e-3 * tol * total), 1e-12)


def solve(domain, K, target, tol=1e-6, max_iter=100):
    """Damped Newton iteration on the dual weights (Kitagawa, Mérigot and
    Thibert 2019, Algorithm 1), started at the weights of
    _radial_profile_psi, where every cell has positive mass. A step of
    length tau, halved from 1 down to 2^-11, is taken once every cell keeps
    mass at least eps0 (half the least target or start mass) and the l1
    residual falls by the factor 1 - tau/2.

    Returns a Solution whose report records convergence and why the loop
    stopped; the residual is the l1 mass mismatch relative to the total.
    Raises MassBalanceError when the target total does not match the source
    mass."""
    t_start = time.perf_counter()
    sites = np.asarray(target.sites, dtype=float)
    nu = np.asarray(target.masses, dtype=float)
    total = float(nu.sum())
    if total <= 0:
        raise MassBalanceError("target carries no mass")

    qtol = mass_quadrature_tol(tol, total)
    src, _ = total_mass(domain, K, tol=qtol)
    slack = 1e-12 * total + (0.0 if K.is_constant else 10.0 * qtol)
    if abs(src - total) > slack:
        raise MassBalanceError(
            f"source mass {src!r} != target mass {total!r}")

    mtol = min(1e-10, 1e-3 * tol * total)

    def measures(diagram):
        try:
            return compute_measures(diagram, K, mtol)[0]
        except QuadratureError as exc:
            raise CellMeasureError(
                f"cell measures to {mtol:.3g} = min(1e-10, 1e-3 * tol * "
                f"mass) at tol {tol:.3g}: {exc}") from exc

    psi = _radial_profile_psi(domain, sites, nu)
    psi = psi - psi[0]
    diagram = laguerre_diagram(domain, sites, psi)
    built = 1
    G = measures(diagram)
    if G.min() <= 0.0:
        raise ConvergenceError("initialization left an empty cell")

    eps0 = 0.5 * min(nu.min(), G.min())
    resid = float(np.abs(G - nu).sum())
    start_resid = resid / total
    history = [float(G.min())]
    discarded = 0
    it = 0
    while True:
        if resid <= tol * total:
            stop = "tol"
            break
        if it >= max_iter:
            stop = "max_iter"
            break
        it += 1
        d = _newton_step(diagram, K, G, nu)
        tau = 1.0
        accepted = False
        while tau >= 2.0 ** -11:
            psi_c = psi + tau * d
            psi_c = psi_c - psi_c[0]
            diagram_c = laguerre_diagram(domain, sites, psi_c)
            built += 1
            G_c = measures(diagram_c)
            if G_c.min() >= eps0:
                resid_c = float(np.abs(G_c - nu).sum())
                if resid_c <= (1.0 - 0.5 * tau) * resid:
                    psi, diagram, G, resid = psi_c, diagram_c, G_c, resid_c
                    accepted = True
                    break
            tau *= 0.5
            discarded += 1
        if not accepted:
            stop = "line_search"
            break
        history.append(float(G.min()))

    rep = SolveReport(stop == "tol", it, resid / total, history,
                      diagram.is_connected(), time.perf_counter() - t_start,
                      built, discarded, start_resid, stop)
    return Solution(domain, K, target, psi, diagram, G, rep)


# rows per block wherever points or table rows are worked through in turn:
# the dense scan's scores take 1024 * N * 8 bytes instead of a points x
# sites matrix, the locator's (point, neighbour) pairs 1024 * degree, and
# write_csv and export_mesh turn 1024 rows at a time into Python scalars
_EVAL_BLOCK = 1024
# rounds of the neighbour walk before a point goes to the dense scan
_WALK_ROUNDS = 8


def _dense_plane(sites, psi, pts):
    """(argmax, max) of the scores x0 p0 + x1 p1 - psi over every site, in
    blocks of points, each block one in-place points x sites matrix; ties
    resolve to the lowest site index."""
    p0, p1 = np.ascontiguousarray(sites.T)
    idx = np.empty(len(pts), dtype=np.intp)
    u = np.empty(len(pts))
    for s in range(0, len(pts), _EVAL_BLOCK):
        x = pts[s:s + _EVAL_BLOCK]
        vals = np.multiply.outer(x[:, 0], p0)
        vals += np.multiply.outer(x[:, 1], p1)
        vals -= psi
        best = vals.argmax(axis=1)
        idx[s:s + len(x)] = best
        u[s:s + len(x)] = vals[np.arange(len(x)), best]
    return idx, u


class _Locator:
    """Point location in a solution's Laguerre diagram. A point x inside the
    domain lies in cell i once i's score beats that of every bisector
    neighbour of i: the other sites' half-planes are redundant in the domain
    (Aurenhammer 1987). A candidate cell comes from a k-d tree over the
    cells' centroids (a solution has no empty cell) and is checked against
    its neighbours; a point that fails walks to its best neighbour and is
    checked again.

    A candidate is accepted only when it beats each neighbour j by more
    than 4 clip eps times |p_i - p_j| plus 16 ulps of the largest score
    size: the diagram drops edges shorter than its clip eps, and the site
    across a dropped edge of i wins only points about that close to i's
    listed edges; the largest score size is taken over the block of
    _EVAL_BLOCK points at hand, which bounds the rounding of those points'
    scores. Points not inside the domain by more than
    4 clip eps, near-ties and points still unverified after _WALK_ROUNDS
    rounds take the dense scan, which decides exactly as before."""

    def __init__(self, solution):
        from scipy.spatial import cKDTree

        dg = solution.diagram
        self.domain, self.psi = dg.domain, solution.psi
        self.sites = np.asarray(solution.sites, dtype=float)
        self.p0, self.p1 = np.ascontiguousarray(self.sites.T)
        self.margin = 4.0 * clip_eps(dg.domain)
        self.p_size = float(np.abs(self.sites).sum(axis=1).max())
        self.psi_size = float(np.abs(self.psi).max())
        self.tree = cKDTree(dg.centroid)
        self.indptr, self.nbrs = dg.neighbour_rows()
        i = np.repeat(np.arange(len(self.sites)), np.diff(self.indptr))
        self.gap = self.margin * np.hypot(*(self.sites[i]
                                            - self.sites[self.nbrs]).T)

    def scores(self, x, j):
        """x0 p0 + x1 p1 - psi of site j[r] at point x[r], elementwise as in
        _dense_plane, so both routes give the same bits."""
        return x[:, 0] * self.p0[j] + x[:, 1] * self.p1[j] - self.psi[j]

    def __call__(self, pts):
        idx, u = np.empty(len(pts), dtype=np.intp), np.empty(len(pts))
        for s in range(0, len(pts), _EVAL_BLOCK):
            at = slice(s, s + _EVAL_BLOCK)
            idx[at], u[at] = self._locate(pts[at])
        return idx, u

    def _locate(self, pts):
        """(idx, u) for one block of points."""
        idx, u = np.empty(len(pts), dtype=np.intp), np.empty(len(pts))
        dense = np.ones(len(pts), dtype=bool)
        todo = np.flatnonzero(self.domain.contains(pts, -self.margin))
        if not len(todo):
            return _dense_plane(self.sites, self.psi, pts)
        ulps = 16.0 * np.finfo(float).eps * (
            float(np.abs(pts[todo]).max()) * self.p_size + self.psi_size)
        cand = self.tree.query(pts[todo])[1]
        for _ in range(_WALK_ROUNDS):
            x = pts[todo]
            own = self.scores(x, cand)
            # every (point, neighbour of its candidate) pair, point by point
            start, cnt = self.indptr[cand], np.diff(self.indptr)[cand]
            row = np.repeat(np.arange(len(todo)), cnt)
            head = np.cumsum(cnt) - cnt
            k = np.arange(len(row)) + np.repeat(start - head, cnt)
            other = self.scores(x[row], self.nbrs[k])
            worst = np.full(len(todo), np.inf)
            best = np.full(len(todo), -np.inf)
            has = cnt > 0
            if has.any():
                worst[has] = np.minimum.reduceat(
                    own[row] - other - self.gap[k], head[has]) - ulps
                best[has] = np.maximum.reduceat(other, head[has])
            ok = worst > 0.0
            idx[todo[ok]], u[todo[ok]] = cand[ok], own[ok]
            dense[todo[ok]] = False
            # walk where a neighbour scores strictly more, to the first such
            # best one; the other failures are near-ties, left to the scan
            walk = ~ok & (best > own)
            if not walk.any():
                break
            hit = np.flatnonzero((other == best[row]) & walk[row])
            first = np.unique(row[hit], return_index=True)[1]
            cand, todo = self.nbrs[k[hit[first]]], todo[walk]
        if dense.any():
            idx[dense], u[dense] = _dense_plane(self.sites, self.psi,
                                                pts[dense])
        return idx, u


# longest chord, in radians of the domain's circle, that _cell_rings cuts
# an arc edge into
_ARC_STEP = 2.0 * math.pi / 256


def _cell_rings(diagram):
    """(sizes, points): the boundaries of the cells, in site order, as one
    ragged array; cell i owns the sizes[i] points after those of the cells
    before it. Each arc edge is cut into n chords of at most _ARC_STEP
    radians, its n - 1 chord points after its start vertex."""
    circle = diagram.domain.circle
    rows, cell, _, _, a0, sweep = ring_arcs(diagram.verts, diagram.sizes,
                                            diagram.labels, circle)
    points, sizes = diagram.verts, diagram.sizes
    if len(rows):
        (cx, cy), r = circle
        n = (sweep / _ARC_STEP).astype(np.intp) + 1
        # chord point s = 1, ..., n - 1 of each arc, at a0 + sweep * s / n
        at = np.repeat(np.arange(len(rows)), n - 1)
        s = np.arange(len(at)) - np.repeat(np.cumsum(n - 1) - n, n - 1)
        t = a0[at] + sweep[at] * s / n[at]
        points = np.insert(points, np.repeat(rows + 1, n - 1), np.column_stack(
            [cx + r * np.cos(t), cy + r * np.sin(t)]), axis=0)
        np.add.at(sizes, cell, n - 1)
    return sizes, points


def export_mesh(solution, path):
    """Write the graph of the potential as a watertight OBJ surface, one
    planar polygon per nonempty cell, with per-face normals set to the
    hemisphere image of the cell's site. The lines are written
    _EVAL_BLOCK vertices or faces at a time."""
    sizes, xy = _cell_rings(solution.diagram)
    keys = np.empty((len(xy), 3))
    keys[:, :2] = xy
    del xy
    # z = p0 x0 + p1 x1 - psi of each point's site, in place
    z = keys[:, 2]
    p0, p1 = solution.sites.T
    np.multiply(np.repeat(p0, sizes), keys[:, 0], out=z)
    z += np.repeat(p1, sizes) * keys[:, 1]
    z -= np.repeat(solution.psi, sizes)
    # one vertex per point rounded to 9 decimals (np.round), numbered from 1
    # in order of first appearance and printed as first seen; np.unique
    # compares rows entry by entry, so -0.0 and 0.0 are one vertex
    np.round(keys, 9, out=keys)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[order] = np.arange(1, len(first) + 1)
    # NumPy 2.0.0 gives inverse a trailing axis
    ids = rank[inverse.reshape(-1)]
    verts = keys[first[order]]
    del keys, z
    # a face drops each point that repeats the id of the point before it in
    # its ring (the last point before the first), and is kept with three or
    # more points left
    start = np.cumsum(sizes) - sizes
    prev = np.arange(len(ids)) - 1
    prev[start] += sizes
    new = ids != ids[prev]
    kept = np.concatenate([[0], np.cumsum(new)])
    n_kept = kept[start + sizes] - kept[start]
    face = n_kept >= 3
    ids = ids[new & np.repeat(face, sizes)]
    cells, n_kept = np.flatnonzero(face), n_kept[face]
    head = np.cumsum(n_kept) - n_kept
    with open(path, "w") as fh:
        fh.write("# piecewise-planar graph of the dual potential\n")
        for s in range(0, len(verts), _EVAL_BLOCK):
            fh.writelines("v {:.12g} {:.12g} {:.12g}\n".format(*key)
                          for key in verts[s:s + _EVAL_BLOCK].tolist())
        fh.writelines("vn {:.12g} {:.12g} {:.12g}\n".format(*y)
                      for y in c_exp_rows(solution.sites[cells]).tolist())
        for s in range(0, len(cells), _EVAL_BLOCK):
            m = n_kept[s:s + _EVAL_BLOCK].tolist()
            block = iter(ids[head[s]:head[s] + sum(m)].tolist())
            fh.writelines(
                "f " + " ".join(f"{i}//{k}" for i in islice(block, mk)) + "\n"
                for k, mk in enumerate(m, s + 1))
    return path


def write_csv(path, header, columns):
    """Write a header line and one line per row of columns, equal-length 1-D
    int or float arrays, each value as the repr of its Python scalar: the
    columns are turned into Python scalars _EVAL_BLOCK rows at a time
    (ndarray.tolist()), since a numpy scalar's repr names its type."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, len(columns[0]), _EVAL_BLOCK):
            block = [col[s:s + _EVAL_BLOCK].tolist() for col in columns]
            fh.writelines(",".join(map(repr, row)) + "\n"
                          for row in zip(*block))
    return path


def solution_to_csv(solution, path):
    """Deterministic per-site table: weights, achieved and target masses,
    cell areas and centroids."""
    dg = solution.diagram
    return write_csv(path, ("site", "p1", "p2", "psi", "nu", "mass", "area",
                            "centroid1", "centroid2"),
                     (np.arange(len(solution.psi)), *solution.sites.T,
                      solution.psi, solution.target.masses, solution.masses,
                      dg.area, *dg.centroid.T))
