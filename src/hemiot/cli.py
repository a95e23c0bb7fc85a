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

import numpy as np

from .domains import (ConvexPolygonDomain, DiskDomain, QuadratureError,
                      SourceDensity, boundary_geometry, constant_density,
                      d0_threshold, make_cone_spec, total_mass)
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
    taking an environment {x1, x2, d} of equal-length arrays.  Returns the
    evaluator and whether the formula reads d."""
    try:
        tree = ast.parse(formula, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{path}: cannot parse {formula!r} ({exc.msg})")
    names = set()

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
            names.add(name)
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

    ev = build(tree)
    return ev, "d" in names


# ---------------------------------------------------------------------------
# config -> values.  Every object in a config is declared: a dict of the keys
# it may hold, name -> (kind, default, *rules), a rule a (holds, message)
# pair.  _read checks an object against its declaration before any work.  A
# rule is written once: here, or in the class that owns the value, whose
# error the caller relays under the field's name.

_REQUIRED = KeyError  # the default of a key that has none


def _number(x):
    """True for a number that is a finite float (a bool is not one; NaN
    and an integer too large for a float fail the comparison)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _typed(v, kind, where):
    if kind is float:
        if not _number(v):
            raise ConfigError(f"{where}: expected a finite number")
        return float(v)
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{where}: expected an integer")
        return v
    if kind == [float]:
        if not (isinstance(v, list) and all(map(_number, v))):
            raise ConfigError(f"{where}: expected a list of finite numbers")
        return [float(x) for x in v]
    if not isinstance(v, kind):
        names = {str: "a string", list: "a list", dict: "a JSON object"}
        raise ConfigError(f"{where}: expected {names[kind]}")
    return v


def _read(spec, decl, path):
    """The values of the object spec at path, checked against decl and keyed
    by name.  A kind that is itself a declaration is a nested object, whose
    values join these.  A missing key without a default, or a key decl does
    not name, is an error."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    values = {}
    for key, (kind, default, *rules) in decl.items():
        where = f"{path}.{key}"
        if isinstance(kind, dict):
            values.update(_read(spec.get(key, default), kind, where))
            continue
        if key in spec:
            v = _typed(spec[key], kind, where)
        elif default is _REQUIRED:
            raise ConfigError(f"{where}: required field is missing")
        else:
            v = default
        for holds, why in rules:
            if v is not None and not holds(v):
                raise ConfigError(f"{where}: {why}")
        values[key] = v
    for key in spec:
        if key not in decl:
            raise ConfigError(f"{path}.{key}: unknown field; {path} reads "
                              f"{', '.join(decl)}")
    return values


def _read_kind(spec, kinds, path, default=_REQUIRED):
    """_read against the declaration that kinds gives the object's kind,
    with the kind itself, which must be one of kinds."""
    kind = spec.get("kind", default) if isinstance(spec, dict) else None
    decl = {"kind": (str, default, (lambda k: k in kinds,
                                    f"unknown {path} kind {kind!r}"))}
    # found by comparison: a kind that is a list or an object is no key
    decl.update(next((d for k, d in kinds.items() if k == kind), {}))
    return _read(spec, decl, path)


def _params(**decl):
    """The declaration of a pipeline's params object."""
    return decl, {}


def _at_least(k):
    return (lambda n: n >= k, f"must be at least {k}")


_POSITIVE = (lambda x: x > 0, "must be positive")
_TAIL_EPSILON = (float, math.pi * 1e-4,
                 (lambda e: 0 < e < math.pi, "must lie in (0, pi)"))

# a polygon's vertices and an explicit target's sites
_POINTS = (lambda s: s and all(isinstance(p, list) and len(p) == 2
                               and all(map(_number, p)) for p in s),
           "expected a nonempty list of [a, b], each a finite number")
_DISK = {"center": ([float], [0.0, 0.0]), "radius": (float, _REQUIRED)}
_POLYGON = {"vertices": (list, _REQUIRED, _POINTS)}


def build_domain(spec, path="domain"):
    v = _read_kind(spec, {"disk": _DISK, "polygon": _POLYGON}, path)
    return _disk(v, path) if v["kind"] == "disk" else _polygon(v, path)


def _disk(v, path):
    """The DiskDomain of v (a source domain or a chart disk target); the
    disk's own shape check names the field that fails."""
    try:
        return DiskDomain(v["center"], v["radius"])
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}")


def _polygon(v, path):
    try:
        return ConvexPolygonDomain(v["vertices"])
    except ValueError as exc:
        raise ConfigError(f"{path}.vertices: {exc}")


_BOUNDS = {"lower": (float, None), "upper": (float, None)}
_DENSITIES = {
    "constant": {"value": (float, _REQUIRED, _POSITIVE), **_BOUNDS},
    "expression": {"formula": (str, _REQUIRED), **_BOUNDS},
    # SourceDensity checks C0, delta and r0
    "decay": {"C0": (float, _REQUIRED), "delta": (float, _REQUIRED),
              "r0": (float, None), **_BOUNDS},
}


def build_density(spec, domain, path="density"):
    v = _read_kind(spec, _DENSITIES, path, default="constant")
    bounds = {"lower_bound": v["lower"], "upper_bound": v["upper"]}
    if v["kind"] == "constant":
        dens = constant_density(v["value"], **bounds)
    elif v["kind"] == "expression":
        ev, reads_d = compile_expression(v["formula"], f"{path}.formula")

        def fn(pts):
            env = {"x1": pts[:, 0], "x2": pts[:, 1]}
            if reads_d:
                env["d"] = domain.distance(pts)
            return np.asarray(ev(env), dtype=float) * np.ones(len(pts))

        dens = SourceDensity(fn=fn, **bounds)
    else:
        C0, delta, r0 = v["C0"], v["delta"], v["r0"]
        if r0 is None:
            if not isinstance(domain, DiskDomain):
                raise ConfigError(
                    f"{path}.r0: required on a polygon domain; the default, "
                    f"the boundary chart radius, exists for disks only")
            r0 = boundary_geometry(domain).rho

        def fn(pts):
            d = np.maximum(domain.distance(pts), 1e-14)
            return C0 * d ** (-delta)

        try:
            dens = SourceDensity(fn=fn, decay=(C0, delta, r0), **bounds)
        except ValueError as exc:
            raise ConfigError(f"{path}.{exc}")
    _check_density(dens, domain, path)
    return dens


def _check_density(dens, domain, path):
    """Reject densities that go negative or non-finite, or break a declared
    bound or decay profile, on the domain's sample nodes."""
    try:
        dens.validate(domain)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


_TARGETS = {
    "chart_disk": _DISK,
    "chart_polygon": _POLYGON,
    # the tail mass fixes the radius unless the radius is given
    "hemisphere": {"truncation_radius": (float, None),
                   "tail_epsilon": _TAIL_EPSILON},
    "explicit": {
        "sites": (list, _REQUIRED, _POINTS),
        # checked before the rescale, which would flip all-negative masses
        "masses": ([float], _REQUIRED,
                   (lambda ms: all(m > 0 for m in ms),
                    "all masses must be positive")),
    },
}


def build_target(spec, N, source_mass, path="target"):
    v = _read_kind(spec, _TARGETS, path)
    kind = v["kind"]
    if kind == "chart_disk":
        region = _disk(v, path)
    elif kind == "chart_polygon":
        region = _polygon(v, path)
    elif kind == "hemisphere":
        P_max = v["truncation_radius"]
        if P_max is None:
            P_max = truncation_radius_for(v["tail_epsilon"])
        elif "tail_epsilon" in spec:
            raise ConfigError(f"{path}.tail_epsilon: give truncation_radius "
                              f"or tail_epsilon, not both")
        try:
            region = full_hemisphere(P_max)
        except ValueError:
            raise ConfigError(
                f"{path}.truncation_radius: must be finite and positive")
    else:
        sites = np.array(v["sites"], dtype=float)
        masses = np.array(v["masses"])
        if len(masses) != len(sites):
            raise ConfigError(f"{path}.masses: length must match sites")
        raw = float(masses.sum())
        try:
            return DiscreteTarget(sites, masses * (source_mass / raw),
                                  total=source_mass,
                                  rescale_factor=source_mass / raw,
                                  pre_rescale_mismatch=abs(raw - source_mass))
        except ValueError as exc:
            raise ConfigError(f"{path}.sites: {exc}")
    if N is None:
        raise ConfigError("config.N: required for this command")
    return discretize(region, N, source_mass)


# ---------------------------------------------------------------------------
# pipelines.  Each is declared beside its function: the top-level fields and
# params keys it reads beyond _CONFIG's.  The pipeline gets the values read
# against both, writes its CSV artifacts through write_csv and returns
# (verdicts, measurements, timings).


def _diagram_counts(sol):
    return {"diagrams_built": sol.report.diagrams_built,
            "diagrams_discarded": sol.report.diagrams_discarded,
            "start_residual": sol.report.start_residual}


_SOLVE = {
    "domain": (dict, _REQUIRED),
    "density": (dict, _REQUIRED),
    "target": (dict, _REQUIRED),
    # read by a target that discretizes a region
    "N": (int, None, _at_least(1)),
}


def _source(v):
    """The domain, density, total mass and mass regime of the source that v
    declares.  A varying density is re-quadrated at the tolerance the
    solver uses for its mass-balance precondition, so the two values agree
    within its slack."""
    domain = build_domain(v["domain"])
    K = build_density(v["density"], domain)
    mass, regime = total_mass(domain, K, tol=1e-8)
    if not mass > 0:
        raise ConfigError(
            f"config.density: total source mass {mass:.6g} is not positive; "
            f"no target can balance it")
    if not K.is_constant:
        mass, regime = total_mass(domain, K,
                                  tol=mass_quadrature_tol(v["tol"], mass))
    if regime == "infeasible":
        raise ConfigError(
            f"config.density: total source mass {mass:.6g} exceeds the "
            f"hemisphere mass pi; no admissible target remains")
    return domain, K, mass, regime


def _solve_instance(v, out):
    domain, K, mass, regime = _source(v)
    target = build_target(v["target"], v["N"], mass)
    sol = solve(domain, K, target, tol=v["tol"], max_iter=v["max_iter"])
    solution_to_csv(sol, os.path.join(out, "solution.csv"))
    export_mesh(sol, os.path.join(out, "mesh.obj"))
    area_err = abs(sum(sol.diagram.area.tolist())
                   - domain.area) / domain.area
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
    "N": (int, 2000, _at_least(1)),
    "params": _params(
        r=(float, 0.6, (lambda r: 0 < r < 1, "must lie in (0, 1)")),
        n_eval=(int, 20000, _at_least(1))),
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
    "N": (int, 4000, _at_least(1)),
    "params": _params(
        samples=(int, 1000, _at_least(1)),
        delta=(float, 0.5, (lambda d: 0 < d < 1, "must lie in (0, 1)")),
        C0=(float, 1.0, _POSITIVE),
        tail_epsilon=_TAIL_EPSILON),
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
    "N": (int, 20, _at_least(1),
          (lambda n: n <= 1000, "the discrete oracle handles at most 1000")),
    "params": _params(
        grid_m=(int, 15, (lambda m: m >= 1 and m * m <= 1000,
                          "grid_m^2 must lie in [1, 1000]")),
        threshold=(float, 0.95,
                   (lambda t: 0.0 < t <= 1.0, "must lie in (0, 1]"))),
}


def _cmd_oracle(v, out):
    domain, K, mass, _ = _source(v)
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
    "params": _params(
        trials=(int, 100, _at_least(1)),
        n_points=(int, 4000, _at_least(2)),
        thetas=([float], [0.05, 0.1, 0.2, 0.4],
                (bool, "expected a nonempty list"),
                (lambda ths: all(0 < th < 1 / math.sqrt(6.0) for th in ths),
                 "each theta must lie in (0, 1/sqrt(6))")),
        t_values=([float], None),  # checked against 2 d0 below
        estar_samples=(int, 2000000, _at_least(1)),
        dimension=(int, 2, _at_least(2))),
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
    # a t the slice check would skip scores nothing
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

# the top-level fields of every config, which its pipeline's declaration
# extends; params holds no key unless the pipeline declares some
_CONFIG = {
    "command": (str, _REQUIRED, (lambda c: c in _PIPELINES,
                                 f"expected one of {', '.join(_PIPELINES)}")),
    "tol": (float, 1e-6, (lambda t: 0 < t <= 1e-2, "must lie in (0, 1e-2]")),
    "max_iter": (int, 100, _at_least(1)),
    "seed": (int, 0, _at_least(0)),
    "threads": (int, 1, _at_least(1)),
    "out": (str, "out"),
    "params": _params(),
}


# ---------------------------------------------------------------------------
# report emission


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_report(out, config, verdicts, measurements, timings, error=None):
    artifacts = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "report.json" or not os.path.isfile(path):
            continue
        artifacts[name] = {"sha256": _sha256(path),
                           "bytes": os.path.getsize(path)}
    report = {
        "command": config["command"],
        "config": config,
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
    directory; partial artifacts survive a failed run.  The config is a
    dict, checked against _CONFIG and its command's declaration before
    any work, and echoed into the report with the defaults it left out."""
    command = config.get("command") if isinstance(config, dict) else None
    pipeline, decl = next((p for c, p in _PIPELINES.items() if c == command),
                          (None, {}))
    values = _read(config, {**_CONFIG, **decl}, "config")
    echo = {key: default for key, (_, default, *_) in _CONFIG.items()
            if default is not _REQUIRED} | config
    out = values["out"]
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
        _write_report(out, echo, {"converged": False}, {}, times,
                      error=str(exc))
        print(f"{command}: NO CONVERGENCE ({exc})", file=sys.stderr)
        return 3
    times["total_s"] = time.perf_counter() - t0
    report = _write_report(out, echo, verdicts, meas, times)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{command}: {status} "
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
