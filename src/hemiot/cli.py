# Batch front door: a JSON config names one pipeline (solve, benchmark,
# blowup, oracle comparison, lemma checks, export); running it writes
# solution/mesh/sample CSV artifacts plus a report.json that records every
# verdict, measurement, and artifact hash.  Exit codes: 0 all contracts
# pass, 1 contract failure, 2 validation error, 3 non-convergence.
import argparse
import ast
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .domains import (ConvexPolygonDomain, DiskDomain, QuadratureError,
                      SourceDensity, boundary_geometry, constant_density,
                      d0_threshold, distance_to_boundary, domain_area,
                      make_cone_spec, total_mass)
from .experiments import (blowup_experiment, cone_inclusion_check,
                          estar_volume_check, slice_estimate_check,
                          sphere_benchmark)
from .oracle import (agreement_ceiling, monotonicity_certificate,
                     semidiscrete_agreement)
from .solver import (CellMeasureError, ConvergenceError, MassBalanceError,
                     _cell_rings, export_mesh, mass_quadrature_tol,
                     solution_to_csv, solve, write_csv)
from .targets import (DiscreteTarget, discretize, full_hemisphere,
                      truncation_radius_for)

COMMANDS = ("solve", "sphere-benchmark", "blowup", "oracle-compare",
            "lemmas", "export")


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the field path."""


# ---------------------------------------------------------------------------
# density expressions
#
# A deliberately small grammar: arithmetic over the coordinates x1, x2 and
# the boundary distance d, numeric literals, and a fixed function table.
# Everything else is rejected at parse time, so configs stay data, not code.

_FUNCS = {
    "exp": (np.exp, 1), "sqrt": (np.sqrt, 1), "sin": (np.sin, 1),
    "cos": (np.cos, 1), "abs": (np.abs, 1), "log": (np.log, 1),
    "min": (np.minimum, 2), "max": (np.maximum, 2),
}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_NAMES = ("x1", "x2", "d")


def compile_expression(formula, path="density.formula"):
    """Compile the restricted density grammar to a vectorized evaluator
    taking an environment {x1, x2, d} of equal-length arrays."""
    try:
        tree = ast.parse(formula, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{path}: cannot parse {formula!r} ({exc.msg})")

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                    node.value, (int, float)):
                raise ConfigError(f"{path}: only numeric literals allowed")
            v = float(node.value)
            return lambda env: v
        if isinstance(node, ast.Name):
            if node.id not in _NAMES:
                raise ConfigError(
                    f"{path}: unknown name {node.id!r} (allowed: x1, x2, d)")
            name = node.id
            return lambda env: env[name]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            lhs, rhs = build(node.left), build(node.right)
            return lambda env: op(lhs(env), rhs(env))
        if isinstance(node, ast.UnaryOp) and isinstance(
                node.op, (ast.USub, ast.UAdd)):
            sub = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda env: -sub(env)
            return sub
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname not in _FUNCS:
                raise ConfigError(f"{path}: unknown function {fname!r}")
            fn, arity = _FUNCS[fname]
            if node.keywords or len(node.args) != arity:
                raise ConfigError(
                    f"{path}: {fname} takes exactly {arity} argument(s)")
            args = [build(a) for a in node.args]
            return lambda env: fn(*(a(env) for a in args))
        raise ConfigError(
            f"{path}: disallowed syntax {type(node).__name__}")

    return build(tree)


def _needs_distance(formula):
    return any(isinstance(n, ast.Name) and n.id == "d"
               for n in ast.walk(ast.parse(formula, mode="eval")))


# ---------------------------------------------------------------------------
# config -> objects


def _get(spec, key, path, kind=None, default=KeyError):
    if key not in spec:
        if default is KeyError:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    v = spec[key]
    if kind is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number")
        return float(v)
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{path}.{key}: expected an integer")
        return v
    if kind is not None and not isinstance(v, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}")
    return v


def _numbers(params, key, default):
    """params[key] as a list of floats, or default when it is absent."""
    v = _get(params, key, "config.params", list, default=None)
    if v is None:
        return default
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
        raise ConfigError(f"config.params.{key}: expected a list of numbers")
    return [float(x) for x in v]


def _finite(values):
    """True when every value is a finite number (a bool is not one)."""
    return all(isinstance(x, (int, float)) and not isinstance(x, bool)
               and math.isfinite(x) for x in values)


def build_domain(spec, path="domain"):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _get(spec, "kind", path, str)
    if kind == "disk":
        return _disk(spec, path)
    if kind == "polygon":
        return _polygon(spec, path)
    raise ConfigError(f"{path}.kind: unknown domain kind {kind!r}")


def _disk(spec, path):
    """The DiskDomain of spec (a source domain or a chart disk target); the
    disk's own shape check names the field that fails."""
    center = _get(spec, "center", path, list, default=[0.0, 0.0])
    radius = _get(spec, "radius", path, float)
    try:
        return DiskDomain(center, radius)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}")


def _polygon(spec, path):
    verts = _get(spec, "vertices", path, list)
    try:
        return ConvexPolygonDomain(verts)
    except ValueError as exc:
        raise ConfigError(f"{path}.vertices: {exc}")


def build_density(spec, domain, path="density"):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _get(spec, "kind", path, str, default="constant")
    lower = _get(spec, "lower", path, float, default=None)
    upper = _get(spec, "upper", path, float, default=None)

    if kind == "constant":
        value = _get(spec, "value", path, float)
        if value <= 0:
            raise ConfigError(f"{path}.value: must be positive")
        return constant_density(value, lower_bound=lower, upper_bound=upper)

    if kind == "expression":
        formula = _get(spec, "formula", path, str)
        ev = compile_expression(formula, f"{path}.formula")
        wants_d = _needs_distance(formula)

        def fn(pts):
            env = {"x1": pts[:, 0], "x2": pts[:, 1]}
            if wants_d:
                env["d"] = distance_to_boundary(domain, pts)
            return np.asarray(ev(env), dtype=float) * np.ones(len(pts))

        dens = SourceDensity(fn=fn, lower_bound=lower, upper_bound=upper)
        _check_density(dens, domain, path)
        return dens

    if kind == "decay":
        C0 = _get(spec, "C0", path, float)
        delta = _get(spec, "delta", path, float)
        r0 = _get(spec, "r0", path, float, default=None)
        if C0 <= 0:
            raise ConfigError(f"{path}.C0: must be positive")
        if not 0 < delta < 1:
            raise ConfigError(f"{path}.delta: must lie in (0, 1)")
        if r0 is None:
            if not isinstance(domain, DiskDomain):
                raise ConfigError(
                    f"{path}.r0: required on a polygon domain; the default, "
                    f"the boundary chart radius, exists for disks only")
            r0 = boundary_geometry(domain).rho
        if r0 <= 0:
            raise ConfigError(f"{path}.r0: must be positive")

        def fn(pts):
            d = np.maximum(distance_to_boundary(domain, pts), 1e-14)
            return C0 * d ** (-delta)

        dens = SourceDensity(fn=fn, lower_bound=lower, upper_bound=upper,
                             decay=(C0, delta, r0))
        _check_density(dens, domain, path)
        return dens

    raise ConfigError(f"{path}.kind: unknown density kind {kind!r}")


def _check_density(dens, domain, path):
    """Reject densities that go negative or non-finite on sample nodes."""
    from .domains import _sample_nodes
    nodes = _sample_nodes(domain)
    vals = dens(nodes)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{path}: non-finite values on the domain")
    try:
        dens.validate(domain, nodes)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def build_target(spec, N, source_mass, path="target"):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _get(spec, "kind", path, str)
    if kind == "chart_disk":
        region = _disk(spec, path)
    elif kind == "chart_polygon":
        region = _polygon(spec, path)
    elif kind == "hemisphere":
        if "truncation_radius" in spec:
            P_max = _get(spec, "truncation_radius", path, float)
        else:
            eps = _get(spec, "tail_epsilon", path, float,
                       default=math.pi * 1e-4)
            if not 0 < eps < math.pi:
                raise ConfigError(f"{path}.tail_epsilon: must lie in (0, pi)")
            P_max = truncation_radius_for(eps)
        try:
            region = full_hemisphere(P_max)
        except ValueError:
            raise ConfigError(
                f"{path}.truncation_radius: must be finite and positive")
    elif kind == "explicit":
        sites = _get(spec, "sites", path, list)
        masses = _get(spec, "masses", path, list)
        if not sites or not all(isinstance(p, list) and len(p) == 2
                                and _finite(p) for p in sites):
            raise ConfigError(f"{path}.sites: expected a nonempty list of "
                              f"[p1, p2], each a finite number")
        if not _finite(masses):
            raise ConfigError(
                f"{path}.masses: expected a list of finite numbers")
        if len(masses) != len(sites):
            raise ConfigError(
                f"{path}.masses: length must match sites")
        if min(masses) <= 0:
            raise ConfigError(f"{path}.masses: all masses must be positive")
        sites = np.array(sites, dtype=float)
        masses = np.array(masses, dtype=float)
        raw = float(masses.sum())
        try:
            return DiscreteTarget(sites, masses * (source_mass / raw),
                                  total=source_mass,
                                  rescale_factor=source_mass / raw,
                                  pre_rescale_mismatch=abs(raw - source_mass))
        except ValueError as exc:
            raise ConfigError(f"{path}.sites: {exc}")
    else:
        raise ConfigError(f"{path}.kind: unknown target kind {kind!r}")
    return discretize(region, N, source_mass)


# ---------------------------------------------------------------------------
# the config document

@dataclass
class ExperimentConfig:
    """Normalized, JSON-native experiment description.  to_dict/from_dict
    round-trip exactly, so a config survives serialization unchanged."""
    command: str
    domain: dict = None
    density: dict = None
    target: dict = None
    N: int = None
    tol: float = 1e-6
    max_iter: int = 100
    seed: int = 0
    threads: int = 1
    out: str = "out"
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        fs = fields(cls)
        known = {f.name for f in fs}
        for key in raw:
            if key not in known:
                raise ConfigError(f"config.{key}: unknown field")
        command = _get(raw, "command", "config", str)
        if command not in COMMANDS:
            raise ConfigError(
                f"config.command: unknown command {command!r} "
                f"(choose from {', '.join(COMMANDS)})")
        cfg = cls(command=command, **{
            f.name: _get(raw, f.name, "config", f.type,
                         default=(f.default if f.default_factory is MISSING
                                  else f.default_factory()))
            for f in fs if f.name != "command"})
        cfg.validate()
        return cfg

    def to_dict(self):
        return {f.name: v for f in fields(self)
                if (v := getattr(self, f.name)) is not None}

    def validate(self):
        if not 0 < self.tol <= 1e-2:
            raise ConfigError("config.tol: must lie in (0, 1e-2]")
        if self.max_iter < 1:
            raise ConfigError("config.max_iter: must be at least 1")
        if self.seed < 0:
            raise ConfigError("config.seed: must be nonnegative")
        if self.threads < 1:
            raise ConfigError("config.threads: must be at least 1")
        if self.N is not None and self.N < 1:
            raise ConfigError("config.N: must be at least 1")
        if not isinstance(self.params, dict):
            raise ConfigError("config.params: expected an object")


# ---------------------------------------------------------------------------
# pipelines; each checks its params before any work, writes its CSV
# artifacts through write_csv and returns (verdicts, measurements, timings)


def _diagram_counts(sol):
    return {"diagrams_built": sol.report.diagrams_built,
            "diagrams_discarded": sol.report.diagrams_discarded,
            "start_residual": sol.report.start_residual}


def _solve_instance(cfg, out):
    if cfg.domain is None:
        raise ConfigError("config.domain: required for this command")
    if cfg.density is None:
        raise ConfigError("config.density: required for this command")
    if cfg.target is None:
        raise ConfigError("config.target: required for this command")
    if cfg.N is None:
        raise ConfigError("config.N: required for this command")
    domain = build_domain(cfg.domain)
    K = build_density(cfg.density, domain)
    mass, regime = total_mass(domain, K, tol=1e-8)
    if not K.is_constant:
        # Re-quadrate at the tolerance the solver itself will use for its
        # mass-balance precondition, so the two values agree within its slack.
        mass, regime = total_mass(domain, K,
                                  tol=mass_quadrature_tol(cfg.tol, mass))
    if regime == "infeasible":
        raise ConfigError(
            f"config.density: total source mass {mass:.6g} exceeds the "
            f"hemisphere mass pi; no admissible target remains")
    target = build_target(cfg.target, cfg.N, mass)
    sol = solve(domain, K, target, tol=cfg.tol, max_iter=cfg.max_iter)
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    export_mesh(sol, os.path.join(out, "mesh.obj"))
    area_err = abs(sum(sol.diagram.area.tolist())
                   - domain_area(domain)) / domain_area(domain)
    verdicts = {
        "converged": bool(sol.report.converged),
        "mass_balance": bool(sol.report.final_residual <= cfg.tol),
        "area_identity": bool(area_err <= 1e-9),
    }
    meas = {
        "n_sites": len(target), "source_mass": mass, "regime": regime,
        "residual": sol.report.final_residual,
        "iterations": sol.report.iterations,
        **_diagram_counts(sol),
        "area_error": area_err,
        "connected": bool(sol.report.connected),
        "rescale_factor": target.rescale_factor,
    }
    return sol, verdicts, meas, {"solve_s": sol.report.runtime}


def _cmd_solve(cfg, out):
    _, verdicts, meas, times = _solve_instance(cfg, out)
    return verdicts, meas, times


def _cmd_export(cfg, out):
    sol, verdicts, meas, times = _solve_instance(cfg, out)
    write_csv(os.path.join(out, "cells.csv"), ("site", "k", "x1", "x2"),
              ((i, k, x, y) for i, ring in _cell_rings(sol.diagram)
               for k, (x, y) in enumerate(ring.tolist())))
    verdicts = {"converged": verdicts["converged"]}
    return verdicts, meas, times


def _cmd_sphere(cfg, out):
    p = cfg.params
    r = _get(p, "r", "config.params", float, default=0.6)
    if not 0 < r < 1:
        raise ConfigError("config.params.r: must lie in (0, 1)")
    n_eval = _get(p, "n_eval", "config.params", int, default=20000)
    if n_eval < 1:
        raise ConfigError("config.params.n_eval: must be at least 1")
    N = cfg.N if cfg.N is not None else 2000
    t0 = time.perf_counter()
    rep, sol = sphere_benchmark(r, N, tol=cfg.tol, max_iter=cfg.max_iter,
                                n_eval=n_eval, seed=cfg.seed)
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    export_mesh(sol, os.path.join(out, "mesh.obj"))
    write_csv(os.path.join(out, "samples.csv"), rep.sample_header,
              rep.samples)
    verdicts = {
        "converged": bool(rep.converged),
        "gradient_sup_error": bool(rep.grad_error <= 5e-2),
        "height_sup_error": bool(rep.height_error <= 5e-2),
        "cap_inclusion": bool(rep.cap_excess <= 1e-9),
    }
    meas = {
        "r": rep.r, "n_sites": rep.n_sites,
        "site_spacing": rep.site_spacing, "grad_error": rep.grad_error,
        "height_error": rep.height_error, "cap_excess": rep.cap_excess,
        "residual": rep.residual, "iterations": rep.iterations,
        **_diagram_counts(sol),
    }
    return verdicts, meas, {"solve_s": rep.runtime,
                            "benchmark_s": time.perf_counter() - t0}


def _cmd_blowup(cfg, out):
    p = cfg.params
    domain = build_domain(cfg.domain) if cfg.domain is not None \
        else DiskDomain(np.zeros(2), 1.0)
    K = build_density(cfg.density, domain) if cfg.density is not None \
        else constant_density(1.0)
    # the unit disk with K = 1 carries mass pi, the whole hemisphere's: the
    # critical case, and the only one the closed-form bound is set up for
    if not (isinstance(domain, DiskDomain)
            and abs(domain.radius - 1.0) < 1e-12
            and np.allclose(domain.center, 0.0)):
        raise ConfigError(
            "config.domain: the blowup pipeline supports the unit disk")
    if not (K.is_constant and abs(K.constant - 1.0) < 1e-12):
        raise ConfigError(
            "config.density: the blowup pipeline supports constant "
            "curvature 1")
    samples = _get(p, "samples", "config.params", int, default=1000)
    delta = _get(p, "delta", "config.params", float, default=0.5)
    C0 = _get(p, "C0", "config.params", float, default=1.0)
    eps = _get(p, "tail_epsilon", "config.params", float,
               default=math.pi * 1e-4)
    if samples < 1:
        raise ConfigError("config.params.samples: must be at least 1")
    if not 0 < delta < 1:
        raise ConfigError("config.params.delta: must lie in (0, 1)")
    if C0 <= 0:
        raise ConfigError("config.params.C0: must be positive")
    if not 0 < eps < math.pi:
        raise ConfigError("config.params.tail_epsilon: must lie in (0, pi)")
    N = cfg.N if cfg.N is not None else 4000
    t0 = time.perf_counter()
    rep, sol = blowup_experiment(samples, delta=delta, N=N, C0=C0,
                                 tail_epsilon=eps, seed=cfg.seed,
                                 tol=cfg.tol, max_iter=cfg.max_iter)
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    write_csv(os.path.join(out, "samples.csv"), rep.sample_header,
              rep.samples)
    trunc_frac = rep.truncation_excluded / max(samples, 1)
    verdicts = {
        "converged": bool(rep.converged),
        "no_bound_violations": not rep.violations,
        "truncation_fraction": bool(trunc_frac < 0.05),
        "gradient_agreement": bool(rep.agreement_max_rel_err <= 0.10),
    }
    meas = {
        "Lambda": rep.Lambda, "d_max": rep.d_max, "P_max": rep.P_max,
        "n_sites": rep.n_sites, "n_violations": len(rep.violations),
        "truncation_excluded": rep.truncation_excluded,
        "agreement_max_rel_err": rep.agreement_max_rel_err,
        "max_ray_backstep": rep.max_ray_backstep,
        "iterations": rep.iterations, "delta": rep.delta, "C0": rep.C0,
        "L": rep.L, "R0": rep.R0, "violations": rep.violations,
        **_diagram_counts(sol),
    }
    return verdicts, meas, {"blowup_s": time.perf_counter() - t0}


def _cmd_oracle(cfg, out):
    p = cfg.params
    grid_m = _get(p, "grid_m", "config.params", int, default=15)
    if grid_m < 1 or grid_m ** 2 > 1000:
        raise ConfigError(
            "config.params.grid_m: grid_m^2 must lie in [1, 1000]")
    threshold = _get(p, "threshold", "config.params", float, default=0.95)
    if not 0.0 < threshold <= 1.0:
        raise ConfigError("config.params.threshold: must lie in (0, 1]")
    if cfg.domain is None:
        raise ConfigError("config.domain: required for this command")
    domain = build_domain(cfg.domain)
    K = build_density(cfg.density, domain) if cfg.density is not None \
        else constant_density(1.0)
    mass, _ = total_mass(domain, K, tol=1e-8 if K.is_constant else 1e-10)
    N = cfg.N if cfg.N is not None else 20
    if N > 1000:
        raise ConfigError("config.N: the discrete oracle handles at most 1000")
    if cfg.target is None:
        raise ConfigError("config.target: required for this command")
    target = build_target(cfg.target, N, mass)
    t0 = time.perf_counter()
    fraction, plan, sol, member = semidiscrete_agreement(
        domain, K, target, grid_m, tol=cfg.tol, max_iter=cfg.max_iter)
    ceiling = agreement_ceiling(plan, member, target)
    cert = monotonicity_certificate(plan)
    write_csv(os.path.join(out, "samples.csv"), ("source", "target", "mass"),
              plan.entries)
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    verdicts = {
        "converged": bool(sol.report.converged),
        "agreement": bool(fraction >= threshold),
        "monotonicity": bool(cert >= -1e-10),
        "dual_feasibility": bool(plan.min_reduced_cost >= -1e-10),
    }
    meas = {
        "agreement_fraction": fraction, "agreement_ceiling": ceiling,
        "threshold": threshold, "monotonicity_certificate": cert,
        "plan_cost": plan.cost, "grid_m": grid_m,
        "max_support_slack": plan.max_support_slack,
        "min_reduced_cost": plan.min_reduced_cost,
        "n_plan_entries": len(plan.entries),
        "lp_pivots": plan.pivots,
        **_diagram_counts(sol),
    }
    return verdicts, meas, {"oracle_s": time.perf_counter() - t0}


def _cmd_lemmas(cfg, out):
    p = cfg.params
    domain = build_domain(cfg.domain) if cfg.domain is not None \
        else DiskDomain(np.zeros(2), 1.0)
    if not isinstance(domain, DiskDomain):
        raise ConfigError("config.domain: the lemma checks run on a disk")
    trials = _get(p, "trials", "config.params", int, default=100)
    n_points = _get(p, "n_points", "config.params", int, default=4000)
    thetas = _numbers(p, "thetas", default=[0.05, 0.1, 0.2, 0.4])
    t_values = _numbers(p, "t_values", default=None)
    estar_samples = _get(p, "estar_samples", "config.params", int,
                         default=2000000)
    dim = _get(p, "dimension", "config.params", int, default=2)
    if trials < 1:
        raise ConfigError("config.params.trials: must be at least 1")
    if n_points < 2:
        raise ConfigError("config.params.n_points: must be at least 2")
    if not thetas:
        raise ConfigError("config.params.thetas: expected a nonempty list")
    if not all(0 < th < 1 / math.sqrt(6.0) for th in thetas):
        raise ConfigError(
            "config.params.thetas: each theta must lie in (0, 1/sqrt(6))")
    if estar_samples < 1:
        raise ConfigError("config.params.estar_samples: must be at least 1")
    if dim < 2:
        raise ConfigError("config.params.dimension: must be at least 2")
    geo = boundary_geometry(domain)
    d0 = d0_threshold(geo)
    spec = make_cone_spec(
        domain, domain.center + np.array([domain.radius - d0, 0.0]), geo)
    if t_values is None:
        t_values = [f * d0 for f in (0.25, 0.5, 1.0, 1.5, 1.99)]
    # a t the slice check would skip scores nothing; NaN fails the test too
    if not (t_values and all(0 < t < 2 * spec.d0 for t in t_values)):
        raise ConfigError("config.params.t_values: expected a nonempty list "
                          f"of t in (0, 2 d0), d0 = {spec.d0:.6g}")

    t0 = time.perf_counter()
    cone = cone_inclusion_check(domain, trials, n_points=n_points,
                                seed=cfg.seed)
    sl = slice_estimate_check(domain, t_values, spec)
    estar = [estar_volume_check(th, dim, estar_samples, seed=cfg.seed)
             for th in thetas]
    write_csv(os.path.join(out, "samples.csv"), cone.sample_header,
              cone.samples)
    verdicts = {
        "cone_inclusion": bool(cone.max_excess == 0.0),
        "cone_negative_control": bool(cone.negative_control_excess > 0.0),
        "slice_estimate": bool(sl.all_ok),
        "estar_volume": bool(all(r.measured - 3.0 * r.stderr >= r.bound
                                 for r in estar)),
    }
    meas = {
        "trials": trials, "cone_max_excess": cone.max_excess,
        "cone_negative_control_excess": cone.negative_control_excess,
        "cone_worst_trial": cone.worst_trial,
        "slice_bound": sl.bound, "d0": sl.d0,
        "slice_rows": [[row[0], row[1], row[3], row[4]] for row in sl.rows],
        "slice_arc_polyline": [row[2] for row in sl.rows],
        "estar": [{"theta": r.theta, "measured": r.measured,
                   "bound": r.bound, "stderr": r.stderr} for r in estar],
    }
    return verdicts, meas, {"lemmas_s": time.perf_counter() - t0}


_PIPELINES = {
    "solve": _cmd_solve,
    "sphere-benchmark": _cmd_sphere,
    "blowup": _cmd_blowup,
    "oracle-compare": _cmd_oracle,
    "lemmas": _cmd_lemmas,
    "export": _cmd_export,
}


# ---------------------------------------------------------------------------
# report emission


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_report(out, cfg, verdicts, measurements, timings, error=None):
    artifacts = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "report.json" or not os.path.isfile(path):
            continue
        artifacts[name] = {"sha256": _sha256(path),
                           "bytes": os.path.getsize(path)}
    report = {
        "command": cfg.command,
        "config": cfg.to_dict(),
        "verdicts": verdicts,
        "passed": bool(verdicts) and all(verdicts.values()),
        "measurements": measurements,
        "artifacts": artifacts,
        "timings": timings,
    }
    if error is not None:
        report["error"] = error
    path = os.path.join(out, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def run(config):
    """Execute one configured pipeline.  Returns the process exit code and
    leaves report.json plus the command's artifacts in the output
    directory; partial artifacts survive a failed run."""
    cfg = config if isinstance(config, ExperimentConfig) \
        else ExperimentConfig.from_dict(config)
    out = cfg.out
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    try:
        verdicts, meas, times = _PIPELINES[cfg.command](cfg, out)
    except ConfigError:
        raise
    except MassBalanceError as exc:
        raise ConfigError(f"config.target: {exc}")
    except CellMeasureError as exc:
        raise ConfigError(f"config.tol: {exc}")
    except QuadratureError as exc:
        raise ConfigError(f"config.density: {exc}")
    except ConvergenceError as exc:
        times = {"total_s": time.perf_counter() - t0}
        _write_report(out, cfg, {"converged": False}, {}, times,
                      error=str(exc))
        print(f"{cfg.command}: NO CONVERGENCE ({exc})", file=sys.stderr)
        return 3
    times["total_s"] = time.perf_counter() - t0
    report = _write_report(out, cfg, verdicts, meas, times)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{cfg.command}: {status} "
          f"({os.path.join(out, 'report.json')})")
    if not verdicts.get("converged", True):
        return 3
    return 0 if report["passed"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hemiot",
        description="Semi-discrete curvature-prescription runs: solve, "
                    "benchmark, and verification pipelines driven by a "
                    "JSON config.")
    ap.add_argument("--config", required=True, help="path to a JSON config")
    ap.add_argument("--out", help="output directory (overrides config)")
    ap.add_argument("--threads", type=int,
                    help="accepted and echoed into report.json, but unused: "
                         "every pipeline runs in one thread")
    ap.add_argument("--seed", type=int, help="seed override")
    ap.add_argument("--tol", type=float, help="solver tolerance override")
    args = ap.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        print(f"validation error: config: file not found: {args.config}",
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"validation error: config: cannot read {args.config} ({exc})",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"validation error: config: invalid JSON ({exc})",
              file=sys.stderr)
        return 2

    # a config that is not an object is run's to reject, flags or not
    if isinstance(raw, dict):
        raw.update((key, value) for key, value in (
            ("out", args.out), ("threads", args.threads), ("seed", args.seed),
            ("tol", args.tol)) if value is not None)

    try:
        return run(raw)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
