"""The benchmark's own tests: each check accepts a real run and rejects a
wrong answer, and traced counts repeat.

    python3 -m pytest -q benchmark/test_checks.py

Each workload runs once at seed 0 through child.py, as the benchmark runs
it (about a minute in all); the wrong answers are edited copies of those
outputs.
"""
import csv
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402


def run_child(mode, workload, out):
    config, params = workloads.make(workload, 0, out)
    cfg_path, res_path = out + ".config.json", out + ".result.json"
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), mode,
                    cfg_path, res_path, f"test-{workload}-{mode}"],
                   cwd=ROOT, check=True, capture_output=True, timeout=300)
    with open(res_path) as fh:
        return json.load(fh), config, params


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    out = {}
    for w in workloads.WORKLOADS:
        d = str(base / w)
        result, config, params = run_child("plain", w, d)
        assert result["rc"] == 0
        out[w] = SimpleNamespace(dir=d, config=config, params=params)
    return out


def edited_copy(run, tmp_path):
    d = str(tmp_path / "edited")
    shutil.copytree(run.dir, d)
    return d


def write_solution(d, sol):
    cols = list(sol)
    with open(os.path.join(d, "solution.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in zip(*(sol[c] for c in cols)):
            w.writerow([int(row[0])] + [repr(float(v)) for v in row[1:]])


def honest_solution(run, psi):
    """solution.csv columns for weights psi, with the masses and areas that
    hemiot computes for them: a consistent, wrong answer."""
    from hemiot.cli import build_density, build_domain
    from hemiot.laguerre import compute_measures, laguerre_diagram

    cfg = run.config
    sol = checks.read_solution(run.dir)
    if cfg["command"] == "sphere-benchmark":
        r = cfg["params"]["r"]
        dom_spec = {"kind": "disk", "center": [0.0, 0.0], "radius": r}
        dens_spec = {"kind": "constant", "value": 1.0}
    else:
        dom_spec, dens_spec = cfg["domain"], cfg["density"]
    domain = build_domain(dom_spec)
    K = build_density(dens_spec, domain)
    diagram = laguerre_diagram(domain, checks.sites_of(sol), psi)
    G, _ = compute_measures(diagram, K, 1e-10)
    out = dict(sol)
    out["psi"] = psi
    out["mass"] = G
    out["area"] = np.array([c.area for c in diagram.cells])
    return out


def perturbed_psi(run, target=0.10):
    """psi plus scaled noise, with the scale set so that hemiot's own masses
    miss the target masses by about `target` in l1."""
    sol = checks.read_solution(run.dir)
    noise = np.random.default_rng(3).standard_normal(len(sol["psi"]))
    scale = 1e-4
    for _ in range(3):
        res = checks.l1_residual(
            honest_solution(run, sol["psi"] + scale * noise)["mass"],
            sol["nu"])
        scale *= target / res
    return sol["psi"] + scale * noise


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_run_passes(runs, workload):
    r = runs[workload]
    assert checks.check(workload, r.config, r.params, r.dir) == []


@pytest.mark.parametrize("workload", ["sphere", "blowup", "smooth"])
def test_perturbed_psi_is_rejected(runs, workload, tmp_path):
    r = runs[workload]
    d = edited_copy(r, tmp_path)
    sol = honest_solution(r, perturbed_psi(r))
    res = checks.l1_residual(sol["mass"], sol["nu"])
    assert 0.05 <= res <= 0.2
    write_solution(d, sol)
    fails = checks.check(workload, r.config, r.params, d)
    assert any("l1 mass residual" in m for m in fails), fails


def test_perturbed_psi_with_stale_masses_is_rejected(runs, tmp_path):
    # only psi changes; the mass and area columns still read as solved, so
    # only the independent quadrature can see it
    r = runs["smooth"]
    d = edited_copy(r, tmp_path)
    sol = checks.read_solution(r.dir)
    sol["psi"] = perturbed_psi(r)
    write_solution(d, sol)
    fails = checks.check("smooth", r.config, r.params, d)
    assert any("independent quadrature" in m for m in fails), fails
    assert not any("l1 mass residual" in m for m in fails)


@pytest.mark.parametrize("workload,needle", [
    ("sphere", "sphere gradient error"),
    ("blowup", "hemisphere gradient error"),
    ("smooth", "independent quadrature")])
def test_zero_psi_partition_is_rejected(runs, workload, needle, tmp_path):
    # the psi = 0 partition with the solved masses left in place
    r = runs[workload]
    d = edited_copy(r, tmp_path)
    sol = checks.read_solution(r.dir)
    sol["psi"] = np.zeros_like(sol["psi"])
    write_solution(d, sol)
    fails = checks.check(workload, r.config, r.params, d)
    assert any(needle in m for m in fails), fails


def test_moved_lp_entry_is_rejected(runs, tmp_path):
    r = runs["oracle"]
    d = edited_copy(r, tmp_path)
    j, i, m = checks.read_plan(r.dir)
    n_targets = len(checks.read_lp_capture(r.dir)["nu"])
    i = i.copy()
    i[0] = (i[0] + 1) % n_targets
    with open(os.path.join(d, "samples.csv"), "w") as fh:
        fh.write("source,target,mass\n")
        for row in zip(j, i, m):
            fh.write(f"{row[0]},{row[1]},{float(row[2])!r}\n")
    fails = checks.check("oracle", r.config, r.params, d)
    assert any("column marginals" in f for f in fails), fails
    assert any("plan cost from samples.csv" in f for f in fails), fails


def test_traced_counts_repeat(tmp_path):
    a, _, _ = run_child("trace", "oracle", str(tmp_path / "a"))
    b, _, _ = run_child("trace", "oracle", str(tmp_path / "b"))
    for name, unit in tracing.LAYER_UNITS.items():
        if unit == "count":
            assert a["layers"][name] == b["layers"][name], name
    for name in tracing.EXACT_COUNTS:
        assert a["layers"][name] > 0, name
