# Executable checks of the structural results: the constant-curvature sphere
# benchmark, the boundary gradient blowup bound in the critical case, and
# the cone/slice/volume estimates it relies on.
import math
from dataclasses import dataclass

import numpy as np

from .domains import (DiskDomain, boundary_geometry, constant_density,
                      d0_threshold, lambda_constant, make_cone_spec,
                      total_mass, unit_ball_volume)
from .solver import _EVAL_BLOCK, solve
from .targets import (chart_disk, discretize, full_hemisphere,
                      truncation_radius_for)


# Each report carries its sample rows with the column names in
# sample_header; the CLI writes them to samples.csv.

@dataclass
class SphereBenchmarkReport:
    sample_header = ("x1", "x2", "p1_num", "p2_num", "p1_true", "p2_true")
    r: float
    site_spacing: float | None  # None for fewer than two sites
    grad_error: float          # sup |p_num - x/sqrt(1-|x|^2)|
    height_error: float        # sup |u_num - u_true| after matching at the center
    cap_excess: float          # max image height above the cap plane
    samples: np.ndarray        # (n_eval, 6) float rows of sample_header


def site_spacing(sites):
    """Largest distance from a site to its nearest other site; None for
    fewer than two sites, which have no spacing."""
    if len(sites) < 2:
        return None
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(sites).query(sites, k=2)
    return float(dist[:, 1].max())


def sphere_benchmark(r, N, tol=1e-6, max_iter=50, n_eval=20000, seed=0):
    """Recover the sphere piece u = -sqrt(1-|x|^2) over the disk of radius r
    from its curvature data and report sup-norm errors."""
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    if n_eval < 1:
        raise ValueError("n_eval must be at least 1: the sups need a sample")
    dom = DiskDomain(np.zeros(2), float(r))
    K = constant_density(1.0)
    s = r / math.sqrt(1.0 - r * r)
    region = chart_disk(np.zeros(2), s)
    src_mass = math.pi * r * r
    target = discretize(region, N, src_mass)
    sol = solve(dom, K, target, tol=tol, max_iter=max_iter)

    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n_eval)
    ang = rng.uniform(0.0, 2.0 * math.pi, n_eval)
    shift = -1.0 - sol.locate(np.zeros((1, 2)))[1][0]
    # the sample rows and the error sups, _EVAL_BLOCK points at a time: the
    # blocks are the locator's own, so each point is located as in one call
    samples = np.empty((n_eval, 6))
    grad_error = height_error = 0.0
    for s in range(0, n_eval, _EVAL_BLOCK):
        rows = samples[s:s + _EVAL_BLOCK]
        rad = r * 0.999 * np.sqrt(u[s:s + _EVAL_BLOCK])
        a = ang[s:s + _EVAL_BLOCK]
        pts, p_num, p_true = rows[:, :2], rows[:, 2:4], rows[:, 4:]
        pts[:, 0], pts[:, 1] = rad * np.cos(a), rad * np.sin(a)
        idx, u_num = sol.locate(pts)
        p_num[:] = target.sites[idx]
        denom = np.sqrt(1.0 - (pts ** 2).sum(axis=1))
        np.divide(pts, denom[:, None], out=p_true)
        grad_error = max(grad_error, float(
            np.linalg.norm(p_num - p_true, axis=1).max()))
        height_error = max(height_error, float(
            np.abs(u_num + shift + denom).max()))

    spacing = site_spacing(target.sites)

    y3 = -1.0 / np.sqrt(1.0 + (target.sites ** 2).sum(axis=1))
    cap_excess = float((y3 + math.sqrt(1.0 - r * r)).max())

    rep = SphereBenchmarkReport(float(r), spacing, grad_error, height_error,
                                cap_excess, samples)
    return rep, sol


@dataclass
class BlowupReport:
    sample_header = ("d", "grad_norm", "bound")
    samples: np.ndarray        # (samples, 3) float rows of sample_header,
                               # d <= d_max
    delta: float
    C0: float
    L: float
    R0: float
    Lambda: float
    d_max: float
    violations: list           # (d, grad_norm, bound) triples
    truncation_excluded: int
    P_max: float
    agreement_max_rel_err: float   # vs (1-d)/sqrt(2d-d^2) on d in [0.05, 0.3]


def blowup_experiment(samples, delta=0.5, N=4000, C0=1.0,
                      tail_epsilon=math.pi * 1e-4, seed=0, tol=1e-6,
                      max_iter=100):
    """Critical-case run on the unit disk with K = 1: the target is the full
    (truncated) hemisphere, and near-boundary gradients must clear the
    closed-form blowup bound."""
    dom = DiskDomain(np.zeros(2), 1.0)
    K = constant_density(1.0)
    mass, regime = total_mass(dom, K)
    if regime != "critical":
        raise ValueError("blowup experiment needs the critical mass balance")
    P_max = truncation_radius_for(tail_epsilon)
    region = full_hemisphere(P_max)
    target = discretize(region, N, mass)
    sol = solve(dom, K, target, tol=tol, max_iter=max_iter)

    geo = boundary_geometry(dom)
    d_max = d0_threshold(geo)
    Lam = float(lambda_constant(2, delta, C0, geo.L, geo.R0))
    expo = (1.0 - delta) / 4.0

    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(math.log(1e-5), math.log(d_max), samples))
    ang = rng.uniform(0.0, 2.0 * math.pi, samples)
    x = (1.0 - d)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    grad = np.linalg.norm(target.sites[sol.locate(x)[0]], axis=1)
    bound = Lam * d ** (-expo) - 2.0
    capped = bound > P_max - 1.0
    viol = (~capped) & (grad < bound)
    violations = [(float(d[k]), float(grad[k]), float(bound[k]))
                  for k in np.nonzero(viol)[0]]

    # mid-range agreement with the exact hemisphere gradient
    da = np.linspace(0.05, 0.3, 120)
    aa = np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
    DD, AA = np.meshgrid(da, aa)
    xa = (1.0 - DD.ravel())[:, None] * np.column_stack(
        [np.cos(AA.ravel()), np.sin(AA.ravel())])
    ga = np.linalg.norm(target.sites[sol.locate(xa)[0]], axis=1)
    gtrue = (1.0 - DD.ravel()) / np.sqrt(2.0 * DD.ravel() - DD.ravel() ** 2)
    agreement = float(np.max(np.abs(ga - gtrue) / gtrue))

    rep = BlowupReport(
        samples=np.column_stack([d, grad, bound]),
        delta=float(delta), C0=float(C0), L=geo.L, R0=geo.R0,
        Lambda=Lam, d_max=float(d_max), violations=violations,
        truncation_excluded=int(capped.sum()), P_max=float(P_max),
        agreement_max_rel_err=agreement)
    return rep, sol


@dataclass
class ConeInclusionReport:
    sample_header = ("d0", "theta", "excess")
    trials: int
    max_excess: float
    negative_control_excess: float
    worst_trial: int
    samples: np.ndarray        # (trials, 3) float rows of sample_header


def cone_inclusion_check(domain, trials, n_points=10000, seed=0):
    """Sample the boundary cone of each trial point and measure how far it
    escapes the predicted enclosing ball around the boundary anchor.
    Doubling theta past its admissible value serves as a negative control."""
    if not isinstance(domain, DiskDomain):
        raise ValueError("the enclosing-ball setup here is the disk")
    geo = boundary_geometry(domain)
    d_cap = d0_threshold(geo)
    rng = np.random.default_rng(seed)
    R = domain.radius
    c = domain.center

    def excess(spec, theta, d0):
        # how far E_theta ∩ Ω escapes the ball of radius sqrt((1 + 4 R0) d0)
        # around the boundary anchor, on a polar sweep from its apex:
        # directions u with <u, -v0> <= theta, radii up to the exact exit
        # distance of the disk; half the points sit exactly on the exit
        # arc, where the supremum of |x - x_boundary| lives
        m = n_points
        alpha = 0.5 * math.pi + math.asin(min(1.0, theta))
        ang = np.concatenate([rng.uniform(-alpha, alpha, m - 2),
                              [-alpha, alpha]])
        tau = np.array([-spec.v0[1], spec.v0[0]])
        u = np.outer(np.cos(ang), spec.v0) + np.outer(np.sin(ang), tau)
        q = spec.x0 - c
        qu = u @ q
        t = -qu + np.sqrt(np.maximum(R * R - q @ q + qu ** 2, 0.0))
        t[: m // 2] *= np.sqrt(rng.uniform(0.0, 1.0, m // 2))
        pts = spec.x0 + t[:, None] * u
        xb = spec.x0 + spec.d0 * spec.v0
        w = math.sqrt((1.0 + 4.0 * geo.R0) * d0)
        return max(0.0, float(np.linalg.norm(pts - xb, axis=1).max()) - w)

    max_excess, worst, samples = 0.0, -1, np.empty((trials, 3))
    for k in range(trials):
        d0 = math.exp(rng.uniform(math.log(1e-6), math.log(d_cap)))
        a = rng.uniform(0.0, 2.0 * math.pi)
        spec = make_cone_spec(
            domain, c + (R - d0) * np.array([math.cos(a), math.sin(a)]), geo)
        ex = excess(spec, spec.theta, spec.d0)
        samples[k] = spec.d0, spec.theta, ex
        if ex > max_excess:
            max_excess, worst = ex, k

    # negative control: theta doubled
    d0 = d_cap / 2.0
    spec = make_cone_spec(domain, c + (R - d0) * np.array([1.0, 0.0]), geo)
    neg = excess(spec, 2.0 * spec.theta, d0)

    return ConeInclusionReport(trials, max_excess, neg, worst, samples)


@dataclass
class SliceEstimateReport:
    rows: list        # (t, measured_closed_form, measured_polyline, bound, status)
    bound: float
    d0: float
    all_ok: bool


def slice_estimate_check(domain, t_values, spec, n_dense=200000):
    """Length of the inner level circle inside the boundary window box,
    against the closed-form budget; each admissible t is checked both by the
    exact circle formula and by a dense polyline. A t outside (0, 2 d0) gets
    a skipped row, which is no evidence: all_ok needs a scored row."""
    if not isinstance(domain, DiskDomain):
        raise ValueError("level sets are circles only for disk domains")
    geo = boundary_geometry(domain)
    R = domain.radius
    c = domain.center
    d0 = spec.d0
    w = math.sqrt((1.0 + 4.0 * geo.R0) * d0)
    bound = 2.0 * (1.0 + geo.L) * math.sqrt((1.0 + 4.0 * geo.R0) * d0)
    xb = spec.x0 + d0 * spec.v0
    e = spec.v0
    tau = np.array([-e[1], e[0]])
    rows = []
    ok, scored = True, False
    for t in t_values:
        if not (0.0 < t < 2.0 * d0):
            rows.append((float(t), 0.0, 0.0, bound, "skipped: t outside (0, 2 d0)"))
            continue
        rho = R - t
        # closed form: angle from the outward axis where the circle leaves the box
        lateral = math.asin(min(1.0, w / rho))
        depth_cos = (R - w) / rho
        depth = math.acos(min(1.0, max(-1.0, depth_cos))) if depth_cos <= 1.0 else 0.0
        phi = min(lateral, depth)
        arc_cf = 2.0 * rho * phi
        # independent route: polyline length of the circle piece inside the box
        ang = np.linspace(-math.pi, math.pi, n_dense + 1)
        z = c + rho * (np.outer(np.cos(ang), e) + np.outer(np.sin(ang), tau))
        rel = z - xb
        inside = (np.abs(rel @ tau) < w) & (np.abs(rel @ e) < w)
        mid = inside[:-1] & inside[1:]
        seg = np.linalg.norm(np.diff(z, axis=0), axis=1)
        arc_poly = float(seg[mid].sum())
        status = "ok" if arc_cf <= bound + 1e-12 else "violated"
        ok &= status == "ok"
        scored = True
        rows.append((float(t), float(arc_cf), arc_poly, bound, status))
    return SliceEstimateReport(rows, bound, float(d0), bool(ok and scored))


@dataclass
class EstarVolumeResult:
    measured: float
    bound: float
    stderr: float
    theta: float
    n: int


# Monte Carlo rows drawn and counted at a time by estar_volume_check
_VOLUME_BLOCK = 65536


def estar_volume_check(theta, n, samples, seed=0):
    """Monte Carlo volume of the gradient-side cone piece (p0 = 0, v0 = e1)
    against its closed-form lower bound."""
    if not 0.0 < theta < 1.0 / math.sqrt(6.0):
        raise ValueError("theta must lie in (0, 1/sqrt(6))")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    v0 = np.zeros(n)
    v0[0] = 1.0
    m = int(samples)
    hits = 0
    # one stream drawn _VOLUME_BLOCK rows at a time gives the draws of one
    # (m, n) array
    for s in range(0, m, _VOLUME_BLOCK):
        p = rng.uniform(-1.0, 1.0, size=(min(_VOLUME_BLOCK, m - s), n))
        r = np.linalg.norm(p, axis=1)
        inside = r <= 1.0
        dirs = p[inside] / r[inside][:, None]
        hits += int((np.linalg.norm(dirs - v0, axis=1) <= theta).sum())
    frac = hits / m
    cube = 2.0 ** n
    measured = frac * cube
    stderr = cube * math.sqrt(max(frac * (1.0 - frac), 1e-300) / m)
    bound = unit_ball_volume(n - 1) * theta ** (n - 1) / (n * 2.0 ** (n - 1))
    return EstarVolumeResult(float(measured), float(bound), float(stderr),
                             float(theta), int(n))
