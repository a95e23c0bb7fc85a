"""The four benchmark workloads: one hemiot config per (workload, seed).

``make(workload, seed, out_dir)`` returns ``(config, params)``: the JSON config
handed to ``hemiot.cli.run`` and the instance parameters the benchmark drew,
which the checks need.  Seed 0 gives each workload's reference instance.
"""
import math
import random

WORKLOADS = ("sphere", "blowup", "smooth", "oracle")


def _sphere(seed):
    # criterion 1: K = 1 over the disk of radius 0.6 has the closed-form
    # answer u = -sqrt(1 - |x|^2); the seed moves the 20000 sample points
    return {"command": "sphere-benchmark", "N": 2000, "tol": 1e-6,
            "max_iter": 50, "params": {"r": 0.6, "n_eval": 20000}}, {}


def _blowup(seed):
    # the critical case: K = 1 on the unit disk against the full hemisphere,
    # truncated at tail mass pi * 1e-4; the seed moves the 1000 near-boundary
    # samples
    return {"command": "blowup",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "density": {"kind": "constant", "value": 1.0},
            "N": 2000, "tol": 1e-6, "max_iter": 100,
            "params": {"samples": 1000, "delta": 0.5, "C0": 1.0,
                       "tail_epsilon": math.pi * 1e-4}}, {}


def _smooth(seed):
    # the README example 1 + 0.2 sin(3 x1) at seed 0; other seeds draw the
    # phase c, since discretize ignores the seed
    c = 0.0 if seed == 0 else random.Random(seed).uniform(0.0, 2.0 * math.pi)
    params = {"a": 0.2, "b": 3.0, "c": c}
    formula = f"1.0 + {params['a']!r}*sin({params['b']!r}*x1 + {c!r})"
    return {"command": "solve",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.6},
            "density": {"kind": "expression", "formula": formula},
            "target": {"kind": "chart_disk", "center": [0.0, 0.0],
                       "radius": 0.9},
            "N": 500, "tol": 1e-6, "max_iter": 100}, params


def _oracle(seed):
    # criterion 3's instance at seed 0; other seeds draw the target centre
    # uniformly from the disk of radius 0.05 around it, since neither
    # discretize nor semidiscrete_agreement reads the seed
    if seed == 0:
        centre = [0.0, 0.0]
    else:
        rng = random.Random(seed)
        rad, ang = 0.05 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
        centre = [rad * math.cos(ang), rad * math.sin(ang)]
    return {"command": "oracle-compare",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.6},
            "density": {"kind": "constant", "value": 1.0},
            "target": {"kind": "chart_disk", "center": centre,
                       "radius": 0.75},
            "N": 20, "tol": 1e-7, "max_iter": 100,
            "params": {"grid_m": 15, "threshold": 0.95}}, {"centre": centre}


_MAKERS = {"sphere": _sphere, "blowup": _blowup, "smooth": _smooth,
           "oracle": _oracle}


def make(workload, seed, out_dir):
    config, params = _MAKERS[workload](seed)
    config.update(seed=seed, threads=1, out=out_dir)
    return config, params
