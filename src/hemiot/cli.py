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
                      SourceDensity, _sample_nodes, boundary_geometry,
                      constant_density, d0_threshold, distance_to_boundary,
                      domain_area, make_cone_spec, total_mass)
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
    if kind == [float]:
        if not isinstance(v, list) or any(
                isinstance(x, bool) or not isinstance(x, (int, float))
                for x in v):
            raise ConfigError(f"{path}.{key}: expected a list of numbers")
        return [float(x) for x in v]
    if kind is not None and not isinstance(v, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}")
    return v


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
    if N is None:
        raise ConfigError("config.N: required for this command")
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
        if command not in _PIPELINES:
            raise ConfigError(
                f"config.command: unknown command {command!r} "
                f"(choose from {', '.join(_PIPELINES)})")
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
# pipelines.  Each is declared beside its function: a dict of the top-level
# fields and params keys it reads, name -> (kind, default, *rules), a rule a
# (holds, message) pair.  _read checks a config against it before any work;
# the pipeline gets the values, writes its CSV artifacts through write_csv
# and returns (verdicts, measurements, timings).

_REQUIRED = KeyError  # _get's default for a field that has none


def _at_least(k):
    return (lambda n: n >= k, f"must be at least {k}")


def _read(cfg, decl):
    """The values of the fields decl declares, checked, keyed by field or
    params key, with tol, max_iter and seed, which every config sets.  Any
    other params key, or top-level field whose unset value is None, must be
    unset."""
    given = {f.name: v for f in fields(cfg)
             if f.default is None and (v := getattr(cfg, f.name)) is not None}
    given.update(("params." + key, v) for key, v in cfg.params.items())
    for name in given:
        if name not in decl:
            raise ConfigError(f"config.{name}: not read by {cfg.command}")
    values = {"tol": cfg.tol, "max_iter": cfg.max_iter, "seed": cfg.seed}
    for name, (kind, default, *rules) in decl.items():
        v = _get(given, name, "config", kind, default)
        for holds, why in rules:
            if v is not None and not holds(v):
                raise ConfigError(f"config.{name}: {why}")
        values[name.removeprefix("params.")] = v
    return values


def _diagram_counts(sol):
    return {"diagrams_built": sol.report.diagrams_built,
            "diagrams_discarded": sol.report.diagrams_discarded,
            "start_residual": sol.report.start_residual}


_SOLVE = {
    "domain": (dict, _REQUIRED),
    "density": (dict, _REQUIRED),
    "target": (dict, _REQUIRED),
    "N": (int, None),  # read by a target that discretizes a region
}


def _solve_instance(v, out):
    domain = build_domain(v["domain"])
    K = build_density(v["density"], domain)
    mass, regime = total_mass(domain, K, tol=1e-8)
    if not K.is_constant:
        # Re-quadrate at the tolerance the solver itself will use for its
        # mass-balance precondition, so the two values agree within its slack.
        mass, regime = total_mass(domain, K,
                                  tol=mass_quadrature_tol(v["tol"], mass))
    if regime == "infeasible":
        raise ConfigError(
            f"config.density: total source mass {mass:.6g} exceeds the "
            f"hemisphere mass pi; no admissible target remains")
    target = build_target(v["target"], v["N"], mass)
    sol = solve(domain, K, target, tol=v["tol"], max_iter=v["max_iter"])
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    export_mesh(sol, os.path.join(out, "mesh.obj"))
    area_err = abs(sum(sol.diagram.area.tolist())
                   - domain_area(domain)) / domain_area(domain)
    verdicts = {
        "converged": bool(sol.report.converged),
        "mass_balance": bool(sol.report.final_residual <= v["tol"]),
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


def _cmd_solve(v, out):
    _, verdicts, meas, times = _solve_instance(v, out)
    return verdicts, meas, times


def _cmd_export(v, out):
    sol, verdicts, meas, times = _solve_instance(v, out)
    cells, sizes, ring = _cell_rings(sol.diagram)
    ends = np.cumsum(sizes).tolist()
    write_csv(os.path.join(out, "cells.csv"), ("site", "k", "x1", "x2"),
              ((i, k, x, y) for i, e, m in zip(cells.tolist(), ends,
                                               sizes.tolist())
               for k, (x, y) in enumerate(ring[e - m:e].tolist())))
    verdicts = {"converged": verdicts["converged"]}
    return verdicts, meas, times


_SPHERE = {
    "N": (int, 2000),
    "params.r": (float, 0.6, (lambda r: 0 < r < 1, "must lie in (0, 1)")),
    "params.n_eval": (int, 20000, _at_least(1)),
}


def _cmd_sphere(v, out):
    t0 = time.perf_counter()
    rep, sol = sphere_benchmark(v["r"], v["N"], tol=v["tol"],
                                max_iter=v["max_iter"], n_eval=v["n_eval"],
                                seed=v["seed"])
    write_csv(os.path.join(out, "samples.csv"), rep.sample_header,
              rep.samples)
    # the sample rows and the cached point locator are done with: free them
    # before the solution table and the mesh are written
    rep.samples = None
    vars(sol).pop("_locator", None)
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    export_mesh(sol, os.path.join(out, "mesh.obj"))
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


_BLOWUP = {
    "domain": (dict, {"kind": "disk", "radius": 1.0}),
    "density": (dict, {"kind": "constant", "value": 1.0}),
    "N": (int, 4000),
    "params.samples": (int, 1000, _at_least(1)),
    "params.delta": (float, 0.5, (lambda d: 0 < d < 1, "must lie in (0, 1)")),
    "params.C0": (float, 1.0, (lambda c: c > 0, "must be positive")),
    "params.tail_epsilon": (float, math.pi * 1e-4,
                            (lambda e: 0 < e < math.pi, "must lie in (0, pi)")),
}


def _cmd_blowup(v, out):
    domain = build_domain(v["domain"])
    K = build_density(v["density"], domain)
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
    t0 = time.perf_counter()
    rep, sol = blowup_experiment(v["samples"], delta=v["delta"], N=v["N"],
                                 C0=v["C0"], tail_epsilon=v["tail_epsilon"],
                                 seed=v["seed"], tol=v["tol"],
                                 max_iter=v["max_iter"])
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    write_csv(os.path.join(out, "samples.csv"), rep.sample_header,
              rep.samples)
    trunc_frac = rep.truncation_excluded / v["samples"]
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


_ORACLE = {
    "domain": (dict, _REQUIRED),
    "density": (dict, {"kind": "constant", "value": 1.0}),
    "target": (dict, _REQUIRED),
    "N": (int, 20, (lambda n: n <= 1000,
                    "the discrete oracle handles at most 1000")),
    "params.grid_m": (int, 15, (lambda m: m >= 1 and m * m <= 1000,
                                "grid_m^2 must lie in [1, 1000]")),
    "params.threshold": (float, 0.95,
                         (lambda t: 0.0 < t <= 1.0, "must lie in (0, 1]")),
}


def _cmd_oracle(v, out):
    domain = build_domain(v["domain"])
    K = build_density(v["density"], domain)
    mass, _ = total_mass(domain, K, tol=1e-8 if K.is_constant else 1e-10)
    target = build_target(v["target"], v["N"], mass)
    t0 = time.perf_counter()
    fraction, plan, sol, member = semidiscrete_agreement(
        domain, K, target, v["grid_m"], tol=v["tol"], max_iter=v["max_iter"])
    ceiling = agreement_ceiling(plan, member, target)
    cert = monotonicity_certificate(plan)
    write_csv(os.path.join(out, "samples.csv"), ("source", "target", "mass"),
              plan.entries)
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    verdicts = {
        "converged": bool(sol.report.converged),
        "agreement": bool(fraction >= v["threshold"]),
        "monotonicity": bool(cert >= -1e-10),
        "dual_feasibility": bool(plan.min_reduced_cost >= -1e-10),
    }
    meas = {
        "agreement_fraction": fraction, "agreement_ceiling": ceiling,
        "threshold": v["threshold"], "monotonicity_certificate": cert,
        "plan_cost": plan.cost, "grid_m": v["grid_m"],
        "max_support_slack": plan.max_support_slack,
        "min_reduced_cost": plan.min_reduced_cost,
        "n_plan_entries": len(plan.entries),
        "lp_pivots": plan.pivots,
        **_diagram_counts(sol),
    }
    return verdicts, meas, {"oracle_s": time.perf_counter() - t0}


_LEMMAS = {
    "domain": (dict, {"kind": "disk", "radius": 1.0}),
    "params.trials": (int, 100, _at_least(1)),
    "params.n_points": (int, 4000, _at_least(2)),
    "params.thetas": ([float], [0.05, 0.1, 0.2, 0.4],
                      (bool, "expected a nonempty list"),
                      (lambda ths: all(0 < th < 1 / math.sqrt(6.0)
                                       for th in ths),
                       "each theta must lie in (0, 1/sqrt(6))")),
    "params.t_values": ([float], None),  # checked against 2 d0 below
    "params.estar_samples": (int, 2000000, _at_least(1)),
    "params.dimension": (int, 2, _at_least(2)),
}


def _cmd_lemmas(v, out):
    domain = build_domain(v["domain"])
    if not isinstance(domain, DiskDomain):
        raise ConfigError("config.domain: the lemma checks run on a disk")
    geo = boundary_geometry(domain)
    d0 = d0_threshold(geo)
    spec = make_cone_spec(
        domain, domain.center + np.array([domain.radius - d0, 0.0]), geo)
    t_values = v["t_values"]
    if t_values is None:
        t_values = [f * d0 for f in (0.25, 0.5, 1.0, 1.5, 1.99)]
    # a t the slice check would skip scores nothing; NaN fails the test too
    if not (t_values and all(0 < t < 2 * spec.d0 for t in t_values)):
        raise ConfigError("config.params.t_values: expected a nonempty list "
                          f"of t in (0, 2 d0), d0 = {spec.d0:.6g}")

    t0 = time.perf_counter()
    cone = cone_inclusion_check(domain, v["trials"], n_points=v["n_points"],
                                seed=v["seed"])
    sl = slice_estimate_check(domain, t_values, spec)
    estar = [estar_volume_check(th, v["dimension"], v["estar_samples"],
                                seed=v["seed"])
             for th in v["thetas"]]
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
        "trials": v["trials"], "cone_max_excess": cone.max_excess,
        "cone_negative_control_excess": cone.negative_control_excess,
        "cone_worst_trial": cone.worst_trial,
        "slice_bound": sl.bound, "d0": sl.d0,
        "slice_rows": [[row[0], row[1], row[3], row[4]] for row in sl.rows],
        "slice_arc_polyline": [row[2] for row in sl.rows],
        "estar": [{"theta": r.theta, "measured": r.measured,
                   "bound": r.bound, "stderr": r.stderr} for r in estar],
    }
    return verdicts, meas, {"lemmas_s": time.perf_counter() - t0}


# command -> (pipeline, declaration)
_PIPELINES = {
    "solve": (_cmd_solve, _SOLVE),
    "sphere-benchmark": (_cmd_sphere, _SPHERE),
    "blowup": (_cmd_blowup, _BLOWUP),
    "oracle-compare": (_cmd_oracle, _ORACLE),
    "lemmas": (_cmd_lemmas, _LEMMAS),
    "export": (_cmd_export, _SOLVE),
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
    cfg = ExperimentConfig.from_dict(
        config.to_dict() if isinstance(config, ExperimentConfig) else config)
    pipeline, decl = _PIPELINES[cfg.command]
    values = _read(cfg, decl)
    out = cfg.out
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    try:
        verdicts, meas, times = pipeline(values, out)
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
            ("out", args.out), ("seed", args.seed), ("tol", args.tol))
            if value is not None)

    try:
        return run(raw)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
