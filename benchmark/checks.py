"""Correctness checks for one benchmark run, computed apart from hemiot.

Each check reads the run's ``solution.csv`` and ``report.json`` (and, for
``oracle``, the arguments and result captured at ``hemiot.oracle.lp_transport``)
and compares them with values this module computes itself: its own sample
points, its own quadrature, SciPy's ``dblquad`` and HiGHS.  Nothing here calls
into hemiot.  ``check(workload, cfg, params, out_dir)`` takes the run's
config and the instance parameters the benchmark drew (see workloads.py) and
returns a list of failure messages; an empty list means the run is correct.
"""
import csv
import json
import math
import os

import numpy as np

SPHERE_GRAD_TOL = 5e-2       # sup |p_num - x/sqrt(1-|x|^2)|, as criterion 1
BLOWUP_REL_TOL = 0.10        # relative gradient error on d in [0.05, 0.3]
AREA_TOL = 1e-9              # |sum of cell areas - domain area|
LP_COST_RTOL = 1e-9          # plan cost against HiGHS
MARGINAL_RTOL = 1e-12        # plan marginals against the LP's inputs
CERT_FLOOR = -1e-10          # monotonicity and reduced-cost certificates
AGREEMENT_FLOOR = 0.95
CEILING_SLACK = 1e-12
SOURCE_MASS_RTOL = 1e-9      # total source mass against dblquad


def read_solution(out_dir):
    """solution.csv as float arrays keyed by column name."""
    with open(os.path.join(out_dir, "solution.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("solution.csv has no rows")
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def sites_of(sol):
    return np.column_stack([sol["p1"], sol["p2"]])


def active_sites(x, sites, psi, chunk=2048):
    """argmax_i <x, p_i> - psi_i for each row of x, in chunks of rows so the
    score block stays small."""
    out = np.empty(len(x), dtype=np.int64)
    for s in range(0, len(x), chunk):
        out[s:s + chunk] = (x[s:s + chunk] @ sites.T - psi).argmax(axis=1)
    return out


def l1_residual(masses, nu):
    return float(np.abs(masses - nu).sum() / nu.sum())


def uniform_disk(rng, radius, n):
    u = rng.uniform(0.0, 1.0, n)
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    rad = radius * np.sqrt(u)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def _sample_rng(cfg):
    # a stream the program does not draw from: its samples use seed alone
    return np.random.default_rng([int(cfg["seed"]), 7919])


# ---------------------------------------------------------------------------
# checks shared by the solve-type workloads


def _area_and_residual(sol, area, tol, fails):
    total = float(sol["area"].sum())
    if not abs(total - area) <= AREA_TOL:
        fails.append(f"cell areas sum to {total!r}, domain area {area!r}")
    res = l1_residual(sol["mass"], sol["nu"])
    if not res <= tol:
        fails.append(f"l1 mass residual {res:.3g} > tol {tol:.3g}")


def check_sphere(cfg, params, out_dir):
    sol = read_solution(out_dir)
    r = cfg["params"]["r"]
    fails = []
    _area_and_residual(sol, math.pi * r * r, cfg["tol"], fails)
    x = uniform_disk(_sample_rng(cfg), 0.999 * r, 20000)
    p_num = sites_of(sol)[active_sites(x, sites_of(sol), sol["psi"])]
    p_true = x / np.sqrt(1.0 - (x ** 2).sum(axis=1))[:, None]
    err = float(np.linalg.norm(p_num - p_true, axis=1).max())
    if not err <= SPHERE_GRAD_TOL:
        fails.append(f"sphere gradient error {err:.4g} > {SPHERE_GRAD_TOL}")
    return fails


def check_blowup(cfg, params, out_dir):
    sol = read_solution(out_dir)
    fails = []
    _area_and_residual(sol, math.pi, cfg["tol"], fails)
    rng = _sample_rng(cfg)
    d = rng.uniform(0.05, 0.3, 4000)
    ang = rng.uniform(0.0, 2.0 * math.pi, 4000)
    x = (1.0 - d)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    g = np.linalg.norm(sites_of(sol)[active_sites(x, sites_of(sol),
                                                  sol["psi"])], axis=1)
    g_true = (1.0 - d) / np.sqrt(2.0 * d - d * d)
    err = float(np.max(np.abs(g - g_true) / g_true))
    if not err <= BLOWUP_REL_TOL:
        fails.append(f"hemisphere gradient error {err:.4g} > "
                     f"{BLOWUP_REL_TOL}")
    if not read_report(out_dir)["verdicts"].get("no_bound_violations"):
        fails.append("report: the blowup bound verdict did not pass")
    return fails


# ---------------------------------------------------------------------------
# smooth: an independent fine quadrature of the cell masses


def smooth_density(params):
    a, b, c = params["a"], params["b"], params["c"]
    return lambda x1, x2: 1.0 + a * np.sin(b * x1 + c)


def disk_gauss_grid(radius, n_r, n_t):
    """Tensor rule on the disk: Gauss-Legendre in r (with the Jacobian r),
    equispaced angles (exact for trigonometric polynomials below degree
    n_t). Returns points (n_r, n_t, 2) and weights (n_r, n_t)."""
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    rr = 0.5 * radius * (xr + 1.0)
    wr = 0.5 * radius * wr * rr
    tt = (np.arange(n_t) + 0.5) * (2.0 * math.pi / n_t)
    pts = np.stack([rr[:, None] * np.cos(tt)[None, :],
                    rr[:, None] * np.sin(tt)[None, :]], axis=-1)
    w = wr[:, None] * np.full(n_t, 2.0 * math.pi / n_t)[None, :]
    return pts, w


def grid_cell_masses(sol, radius, density, n_r, n_t):
    """Per-site masses of the Laguerre cells of (sites, psi) by the tensor
    rule, each node assigned to its argmax site. A node's weight goes
    wholly to one cell, so the error lives on nodes next to a cell edge."""
    pts, w = disk_gauss_grid(radius, n_r, n_t)
    flat = pts.reshape(-1, 2)
    lab = active_sites(flat, sites_of(sol), sol["psi"])
    kw = (w.ravel() * density(flat[:, 0], flat[:, 1]))
    return np.bincount(lab, weights=kw, minlength=len(sol["psi"]))


# the coarse and fine tensor grids; the fine grid doubles both counts
SMOOTH_GRID = (300, 1600)


def check_smooth(cfg, params, out_dir):
    from scipy import integrate

    sol = read_solution(out_dir)
    rep = read_report(out_dir)
    radius = cfg["domain"]["radius"]
    dens = smooth_density(params)
    fails = []
    _area_and_residual(sol, math.pi * radius * radius, cfg["tol"], fails)

    n_r, n_t = SMOOTH_GRID
    coarse = grid_cell_masses(sol, radius, dens, n_r, n_t)
    fine = grid_cell_masses(sol, radius, dens, 2 * n_r, 2 * n_t)
    # the error falls faster than the spacing (seed 0: 3.0e-3 at 300x1600,
    # 9.1e-4 at 600x3200), so the coarse/fine gap overestimates the fine
    # grid's error; the floor keeps a lucky small gap from failing the run
    gap = float(np.abs(fine - coarse).sum() / sol["nu"].sum())
    tol = max(2.0 * gap, 1e-3)
    err = l1_residual(fine, sol["nu"])
    if not err <= tol:
        fails.append(f"independent quadrature: l1 mass error {err:.3g} > "
                     f"{tol:.3g} (twice the coarse/fine gap {gap:.3g})")

    exact, _ = integrate.dblquad(
        lambda r, t: dens(r * math.cos(t), r * math.sin(t)) * r,
        0.0, 2.0 * math.pi, 0.0, radius, epsabs=1e-13, epsrel=1e-13)
    for name, val in (("target total", float(sol["nu"].sum())),
                      ("report source_mass",
                       rep["measurements"]["source_mass"])):
        if not abs(val - exact) <= SOURCE_MASS_RTOL * exact:
            fails.append(f"{name} {val!r} != dblquad {exact!r}")
    return fails


# ---------------------------------------------------------------------------
# oracle: the LP against HiGHS, on the inputs passed to lp_transport


def read_lp_capture(out_dir):
    with np.load(os.path.join(out_dir, "lp_capture.npz")) as z:
        return {k: z[k] for k in z.files}


def read_plan(out_dir):
    """samples.csv (the plan's support) as (source, target, mass) arrays."""
    with open(os.path.join(out_dir, "samples.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    j = np.array([int(r["source"]) for r in rows], dtype=np.int64)
    i = np.array([int(r["target"]) for r in rows], dtype=np.int64)
    m = np.array([float(r["mass"]) for r in rows])
    return j, i, m


def highs_cost(xs, mu, ps, nu):
    """Optimal cost of the transportation LP with cost -<x_j, p_i>."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    m, n = len(mu), len(nu)
    C = -(xs @ ps.T)
    k = np.arange(m * n)
    rows = np.concatenate([k // n, m + k % n])
    A = coo_matrix((np.ones(2 * m * n), (rows, np.concatenate([k, k]))),
                   shape=(m + n, m * n))
    # the program absorbs the roundoff between the totals into the largest
    # source; do the same so both LPs see feasible marginals
    mu = mu.copy()
    mu[int(np.argmax(mu))] += nu.sum() - mu.sum()
    res = linprog(C.ravel(), A_eq=A.tocsr(), b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def check_oracle(cfg, params, out_dir):
    rep = read_report(out_dir)
    meas = rep["measurements"]
    cap = read_lp_capture(out_dir)
    xs, mu, ps, nu = cap["xs"], cap["mu"], cap["ps"], cap["nu"]
    j, i, m = read_plan(out_dir)
    fails = []

    C = -(xs @ ps.T)
    cost = float((C[j, i] * m).sum())
    best = highs_cost(xs, mu, ps, nu)
    for name, val in (("plan cost from samples.csv", cost),
                      ("report plan_cost", meas["plan_cost"])):
        if not abs(val - best) <= LP_COST_RTOL * abs(best):
            fails.append(f"{name} {val!r} != HiGHS optimum {best!r}")

    total = float(nu.sum())
    row = np.bincount(j, weights=m, minlength=len(mu))
    col = np.bincount(i, weights=m, minlength=len(nu))
    for name, got, want in (("row", row, mu), ("column", col, nu)):
        gap = float(np.abs(got - want).max())
        if not gap <= MARGINAL_RTOL * total:
            fails.append(f"{name} marginals off by {gap:.3g}")

    support = m > 1e-15 * total
    xa, pa = xs[j[support]], ps[i[support]]
    dx = xa[:, None, :] - xa[None, :, :]
    dp = pa[:, None, :] - pa[None, :, :]
    mono = float(np.einsum("abk,abk->ab", dx, dp).min())
    reduced = float((C - cap["u"][:, None] - cap["v"][None, :]).min())
    for name, val in (("monotonicity certificate", mono),
                      ("minimum reduced cost", reduced),
                      ("report monotonicity_certificate",
                       meas["monotonicity_certificate"]),
                      ("report min_reduced_cost", meas["min_reduced_cost"])):
        if not val >= CERT_FLOOR:
            fails.append(f"{name} {val:.3g} < {CERT_FLOOR}")

    frac, ceil = meas["agreement_fraction"], meas["agreement_ceiling"]
    if not frac <= ceil + CEILING_SLACK:
        fails.append(f"agreement {frac!r} above its ceiling {ceil!r}")
    if not frac >= AGREEMENT_FLOOR:
        fails.append(f"agreement {frac:.4f} < {AGREEMENT_FLOOR}")
    return fails


CHECKS = {"sphere": check_sphere, "blowup": check_blowup,
          "smooth": check_smooth, "oracle": check_oracle}


def check(workload, cfg, params, out_dir):
    return CHECKS[workload](cfg, params, out_dir)
