# Damped Newton solver for the dual weights of the semi-discrete problem:
# find psi so that each Laguerre cell of max_i(<x, p_i> - psi_i) carries
# exactly the prescribed target mass under the source density.
import math
import time
from dataclasses import dataclass

import numpy as np

from .chart import c_exp
from .laguerre import compute_measures, edge_weights, laguerre_diagram


class MassBalanceError(ValueError):
    """Source and target total masses disagree beyond tolerance."""


class ConvergenceError(RuntimeError):
    pass


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


@dataclass
class Solution:
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


def _affine_voronoi_psi(domain, sites):
    """Weights that make every cell nonempty: under these psi the diagram is
    the pullback of the Voronoi diagram of the sites through an affine map
    squeezing them into the inscribed ball, so cell i contains the preimage
    of site i."""
    from .domains import inradius_point
    xc, rin = inradius_point(domain)
    pc = sites.mean(axis=0)
    q = sites - pc
    span = np.linalg.norm(q, axis=1).max()
    alpha = max(span / rin, 1e-12) * 1.0000001
    return (q * q).sum(axis=1) / (2.0 * alpha) + q @ xc


def _phi_value(sites, psi, nu, G, M):
    # Phi(psi) = ∫ u_psi K dx + Σ psi_i nu_i, with ∫ u_psi K expanded over cells
    return float((sites * M).sum() + psi @ (nu - G))


def _newton_step(diagram, K, G, nu):
    """Solve (D - W) d = G - nu with the gauge d[0] = 0: one sparse direct
    solve of the gauge-fixed Laplacian, with a minimum-degree ordering on
    its symmetric pattern."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    n = len(nu)
    pairs, w = edge_weights(diagram, K)
    i, j = pairs.T
    ids = np.arange(n)
    deg = np.bincount(i, w, n) + np.bincount(j, w, n)
    L = sparse.coo_matrix((np.concatenate([-w, -w, deg]),
                           (np.concatenate([i, j, ids]),
                            np.concatenate([j, i, ids]))),
                          shape=(n, n)).tocsc()
    d = np.zeros(n)
    d[1:] = spsolve(L[1:, 1:], (G - nu)[1:], permc_spec="MMD_AT_PLUS_A")
    return d


def mass_quadrature_tol(tol, total):
    """Quadrature tolerance for a source mass that must match a target of
    mass total in the mass-balance check of a solve at tol:
    min(1e-9, 1e-3 * tol * total), floored at 1e-12."""
    return max(min(1e-9, 1e-3 * tol * total), 1e-12)


def solve(domain, K, target, tol=1e-6, max_iter=100):
    """Dual ascent with damped Newton steps, started at the weights of
    _affine_voronoi_psi, where every cell has positive mass.

    Returns a Solution whose report records convergence; the residual is the
    l1 mass mismatch relative to the total. Raises MassBalanceError when the
    target total does not match the source mass."""
    t_start = time.time()
    sites = np.asarray(target.sites, dtype=float)
    nu = np.asarray(target.masses, dtype=float)
    total = float(nu.sum())
    if total <= 0:
        raise MassBalanceError("target carries no mass")

    from .domains import total_mass as _total_mass
    qtol = mass_quadrature_tol(tol, total)
    src, _ = _total_mass(domain, K, tol=qtol)
    slack = 1e-12 * total + (0.0 if K.is_constant else 10.0 * qtol)
    if abs(src - total) > slack:
        raise MassBalanceError(
            f"source mass {src!r} != target mass {total!r}")

    mtol = min(1e-10, 1e-3 * tol * total)

    psi = _affine_voronoi_psi(domain, sites)
    psi = psi - psi[0]
    diagram = laguerre_diagram(domain, sites, psi)
    built = 1
    G, M = compute_measures(diagram, K, mtol)
    if G.min() <= 0.0:
        raise ConvergenceError("initialization left an empty cell")

    eps0 = 0.5 * min(nu.min(), G.min())
    resid = float(np.abs(G - nu).sum())
    phi = _phi_value(sites, psi, nu, G, M)
    history = [float(G.min())]
    discarded = 0
    it = 0
    converged = resid <= tol * total

    while not converged and it < max_iter:
        it += 1
        d = _newton_step(diagram, K, G, nu)
        tau = 1.0
        accepted = False
        while tau >= 2.0 ** -11:
            psi_c = psi + tau * d
            psi_c = psi_c - psi_c[0]
            diagram_c = laguerre_diagram(domain, sites, psi_c)
            built += 1
            G_c, M_c = compute_measures(diagram_c, K, mtol)
            if G_c.min() >= eps0:
                resid_c = float(np.abs(G_c - nu).sum())
                phi_c = _phi_value(sites, psi_c, nu, G_c, M_c)
                if (resid_c <= (1.0 - 0.5 * tau) * resid
                        and phi_c <= phi + 1e-10 * max(1.0, abs(phi))):
                    psi, diagram, G, M = psi_c, diagram_c, G_c, M_c
                    resid, phi = resid_c, phi_c
                    accepted = True
                    break
            tau *= 0.5
            discarded += 1
        if not accepted:
            break
        history.append(float(G.min()))
        converged = resid <= tol * total

    rep = SolveReport(bool(converged), it, resid / total, history,
                      diagram.is_connected(), time.time() - t_start, built,
                      discarded)
    return Solution(domain, K, target, psi, diagram, G, rep)


# rows of points per score block in supporting_plane: a block's scores
# take 1024 * N * 8 bytes instead of a points x sites matrix
_EVAL_BLOCK = 1024


def supporting_plane(solution, x):
    """(active site index, u(x)) for the (m, 2) points x, from one pass over
    the scores <x, p_i> - psi_i in blocks of points; ties resolve to the
    lowest site index."""
    pts = np.atleast_2d(x)
    idx = np.empty(len(pts), dtype=np.intp)
    u = np.empty(len(pts))
    for s in range(0, len(pts), _EVAL_BLOCK):
        vals = pts[s:s + _EVAL_BLOCK] @ solution.sites.T - solution.psi
        best = vals.argmax(axis=1)
        idx[s:s + _EVAL_BLOCK] = best
        u[s:s + _EVAL_BLOCK] = vals[np.arange(len(best)), best]
    return idx, u


def potential(solution, x):
    """u(x) = max_i <x, p_i> - psi_i, the restriction of the solution's
    support function."""
    x = np.asarray(x, dtype=float)
    u = supporting_plane(solution, x)[1]
    return float(u[0]) if x.ndim == 1 else u


def active_site(solution, x):
    x = np.asarray(x, dtype=float)
    idx = supporting_plane(solution, x)[0]
    return int(idx[0]) if x.ndim == 1 else idx


def gauss_map(solution, x):
    """Image of x on the lower hemisphere: the contact direction of the
    supporting plane active at x."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return c_exp(solution.sites[active_site(solution, x)])
    idx = active_site(solution, x)
    return np.stack([c_exp(solution.sites[i]).as_array() for i in idx])


def _cell_polyline(cell, max_step=2.0 * math.pi / 256):
    """Cell boundary with arcs subdivided into chords."""
    pts = []
    m = len(cell.verts)
    for e in range(m):
        a = cell.verts[e]
        b = cell.verts[(e + 1) % m]
        lab = cell.labels[e]
        pts.append(a)
        if lab[0] == "arc":
            cx, cy = lab[1]
            r = lab[2]
            a0 = math.atan2(a[1] - cy, a[0] - cx)
            a1 = math.atan2(b[1] - cy, b[0] - cx)
            sweep = (a1 - a0) % (2.0 * math.pi)
            k = int(sweep / max_step) + 1
            for s in range(1, k):
                t = a0 + sweep * s / k
                pts.append((cx + r * math.cos(t), cy + r * math.sin(t)))
    return pts


def export_mesh(solution, path):
    """Write the graph of the potential as a watertight OBJ surface, one
    planar polygon per nonempty cell, with per-face normals set to the
    hemisphere image of the cell's site."""
    verts = {}
    order = []

    def vid(p3):
        key = (round(p3[0], 9), round(p3[1], 9), round(p3[2], 9))
        if key not in verts:
            verts[key] = len(verts) + 1
            order.append(key)
        return verts[key]

    faces = []
    normals = []
    for c in solution.diagram.cells:
        if c.is_empty:
            continue
        p = solution.sites[c.site_index]
        psi_i = solution.psi[c.site_index]
        ring = _cell_polyline(c)
        ids = [vid((x, y, p[0] * x + p[1] * y - psi_i)) for x, y in ring]
        ids = [i for k, i in enumerate(ids) if i != ids[k - 1]]
        if len(ids) >= 3:
            normals.append(c_exp(p).as_array())
            faces.append(ids)
    lines = ["# piecewise-planar graph of the dual potential"]
    for key in order:
        lines.append("v {:.12g} {:.12g} {:.12g}".format(*key))
    for nrm in normals:
        lines.append("vn {:.12g} {:.12g} {:.12g}".format(*nrm))
    for k, ids in enumerate(faces):
        lines.append("f " + " ".join(f"{i}//{k + 1}" for i in ids))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_csv(path, header, rows):
    """Write a header line and one line per row, each value as its repr:
    pass Python scalars (ndarray.tolist()), since a numpy scalar's repr
    names its type."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
    return path


def solution_to_csv(solution, path):
    """Deterministic per-site table: weights, achieved and target masses,
    cell areas and centroids."""
    sites, psi = solution.sites.tolist(), solution.psi.tolist()
    nu, mass = solution.target.masses.tolist(), solution.masses.tolist()
    rows = ([i, *sites[i], psi[i], nu[i], mass[i], c.area,
             *c.centroid.tolist()]
            for c in solution.diagram.cells for i in [c.site_index])
    return write_csv(path, ("site", "p1", "p2", "psi", "nu", "mass", "area",
                            "centroid1", "centroid2"), rows)
