import ast
import inspect
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hemiot.cli as cli
from hemiot.cli import (ConfigError, build_density, build_domain, build_target,
                        compile_expression, main, run)
from hemiot.domains import DiskDomain
from hemiot.geometry import ARC_EDGE


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SOLVE_DOC = {
    "command": "solve",
    "domain": {"kind": "disk", "radius": 0.5},
    "density": {"kind": "constant", "value": 1.0},
    "target": {"kind": "chart_disk", "center": [0.0, 0.0], "radius": 0.8},
    "N": 24,
    "seed": 1,
}


def test_config_validation_errors(tmp_path):
    out = tmp_path / "o"
    for field, doc in (("command", {"command": "fit"}),
                       ("command", {"command": ["solve"]}),
                       ("tol", dict(SOLVE_DOC, tol=0.5)),
                       ("tol", dict(SOLVE_DOC, tol=float("nan"))),
                       ("tol", {"command": "lemmas", "tol": "small"}),
                       ("threads", dict(SOLVE_DOC, threads=0)),
                       ("banana", dict(SOLVE_DOC, banana=1)),
                       ("seed", dict(SOLVE_DOC, seed=-1)),
                       ("seed", {"command": "lemmas", "seed": True}),
                       ("out", dict(SOLVE_DOC, out=3)),
                       ("params", dict(SOLVE_DOC, params=[]))):
        with pytest.raises(ConfigError, match=rf"^config\.{field}: "):
            run(dict({"out": str(out)}, **doc))
        assert not out.exists()


def test_report_echoes_the_config_with_the_common_defaults(tmp_path):
    out = str(tmp_path / "o")
    assert run(dict(SOLVE_DOC, out=out)) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["config"] == dict(SOLVE_DOC, out=out, tol=1e-6,
                                    max_iter=100, threads=1, params={})


def test_expression_grammar_evaluates():
    ev, reads_d = compile_expression(
        "1.0 + 0.5*sin(x1)*cos(x2) + max(d, 0.1)")
    assert reads_d
    assert compile_expression("exp(x1) - x2")[1] is False
    env = {"x1": np.array([0.0, 1.0]), "x2": np.array([0.0, 0.5]),
           "d": np.array([0.3, 0.01])}
    out = ev(env)
    assert out[0] == pytest.approx(1.0 + 0.3)
    assert out[1] == pytest.approx(1.0 + 0.5 * math.sin(1.0) * math.cos(0.5) + 0.1)


def test_expression_grammar_rejections():
    for bad in ("__import__('os')", "x1.real", "lambda: 1", "x3 + 1",
                "min(x1)", "x1 if d else x2", "f(x1)", "[1,2]"):
        with pytest.raises(ConfigError):
            compile_expression(bad)


def test_build_domain_and_density():
    dom = build_domain({"kind": "disk", "radius": 2.0})
    assert isinstance(dom, DiskDomain)
    with pytest.raises(ConfigError, match="domain.radius"):
        build_domain({"kind": "disk", "radius": -1.0})
    with pytest.raises(ConfigError, match="domain.kind"):
        build_domain({"kind": "blob"})
    dens = build_density({"kind": "expression", "formula": "1.0 + x1*x1"}, dom)
    assert dens(np.array([[1.0, 0.0]]))[0] == pytest.approx(2.0)
    with pytest.raises(ConfigError, match="density"):
        build_density({"kind": "expression", "formula": "x1"}, dom)  # negative
    decay = build_density({"kind": "decay", "C0": 0.2, "delta": 0.5}, dom)
    assert decay(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.2 / math.sqrt(2.0))


def test_decay_density_on_a_polygon_needs_r0(tmp_path, capsys):
    square = {"kind": "polygon",
              "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}
    doc = dict(SOLVE_DOC, domain=square,
               density={"kind": "decay", "C0": 0.1, "delta": 0.5},
               out=str(tmp_path / "o"))
    assert main(["--config", _write(tmp_path, "d.json", doc)]) == 2
    assert "density.r0" in capsys.readouterr().err
    dens = build_density({"kind": "decay", "C0": 0.1, "delta": 0.5,
                          "r0": 0.2}, build_domain(square))
    assert dens.decay == (0.1, 0.5, 0.2)


def test_build_target_guards():
    with pytest.raises(ConfigError, match="target.sites"):
        build_target({"kind": "explicit",
                      "sites": [[0.1, 0.2], [0.1, 0.2]],
                      "masses": [1.0, 1.0]}, 2, 1.0)
    with pytest.raises(ConfigError, match="target.kind"):
        build_target({"kind": "mystery"}, 5, 1.0)
    t = build_target({"kind": "explicit", "sites": [[0.5, 0.0], [-0.5, 0.0]],
                      "masses": [1.0, 3.0]}, 2, 2.0)
    assert t.total == pytest.approx(2.0)
    assert t.masses == pytest.approx([0.5, 1.5])


def test_solve_run_exit_zero(tmp_path):
    cfg = _write(tmp_path, "c.json", dict(SOLVE_DOC, out=str(tmp_path / "o")))
    assert main(["--config", cfg]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["passed"] is True
    assert report["verdicts"]["mass_balance"] is True
    assert set(report["artifacts"]) == {"mesh.obj", "solution.csv"}
    for meta in report["artifacts"].values():
        assert len(meta["sha256"]) == 64 and meta["bytes"] > 0


def test_reports_are_deterministic_up_to_timings(tmp_path):
    c1 = _write(tmp_path, "c1.json", dict(SOLVE_DOC, out=str(tmp_path / "r1")))
    c2 = _write(tmp_path, "c2.json", dict(SOLVE_DOC, out=str(tmp_path / "r2")))
    assert main(["--config", c1]) == 0
    assert main(["--config", c2]) == 0
    a = json.loads((tmp_path / "r1" / "report.json").read_text())
    b = json.loads((tmp_path / "r2" / "report.json").read_text())
    for r in (a, b):
        r.pop("timings")
        r["config"].pop("out")
    assert a == b
    assert (tmp_path / "r1" / "solution.csv").read_bytes() == \
        (tmp_path / "r2" / "solution.csv").read_bytes()


def test_flag_overrides(tmp_path):
    cfg = _write(tmp_path, "c.json", SOLVE_DOC)
    out = str(tmp_path / "flagged")
    assert main(["--config", cfg, "--out", out, "--seed", "9",
                 "--tol", "1e-5"]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report["config"]["seed"] == 9
    assert report["config"]["tol"] == 1e-5


def test_missing_and_invalid_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err


def test_unreadable_and_non_object_configs_are_validation_errors(tmp_path,
                                                                 capsys):
    # a directory and bytes that are not UTF-8 cannot be read as a config
    assert main(["--config", str(tmp_path)]) == 2
    assert f"config: cannot read {tmp_path}" in capsys.readouterr().err
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b'{"command": "solve", "note": "\xe9"}')
    assert main(["--config", str(raw)]) == 2
    assert f"config: cannot read {raw}" in capsys.readouterr().err
    # an array or a string is no config, with or without a flag
    flags = [[], ["--out", str(tmp_path / "o")], ["--seed", "3"],
             ["--tol", "1e-6"]]
    for name, doc in (("list.json", [SOLVE_DOC]), ("str.json", "solve")):
        for extra in flags:
            assert main(["--config", _write(tmp_path, name, doc)]
                        + extra) == 2
            assert "config: expected a JSON object" in capsys.readouterr().err


def test_validation_exit_codes(tmp_path):
    dup = dict(SOLVE_DOC,
               target={"kind": "explicit",
                       "sites": [[0.1, 0.2], [0.1, 0.2], [0.3, 0.0]],
                       "masses": [1.0, 1.0, 1.0]},
               out=str(tmp_path / "dup"))
    assert main(["--config", _write(tmp_path, "dup.json", dup)]) == 2
    noncritical = {"command": "blowup",
                   "density": {"kind": "constant", "value": 2.0},
                   "out": str(tmp_path / "nc")}
    assert main(["--config", _write(tmp_path, "nc.json", noncritical)]) == 2


@pytest.mark.parametrize("command", ["solve", "export"])
def test_only_a_region_target_needs_N(tmp_path, capsys, command):
    # an explicit target is its own sites and never reads N; a chart disk
    # is discretized into N sites and still needs it
    doc = {k: v for k, v in SOLVE_DOC.items() if k != "N"}
    explicit = dict(doc, command=command,
                    target={"kind": "explicit", "sites": [[0.3, 0.1],
                                                          [-0.2, -0.1]],
                            "masses": [1.0, 2.0]},
                    out=str(tmp_path / "explicit"))
    assert main(["--config", _write(tmp_path, "ex.json", explicit)]) == 0
    rows = (tmp_path / "explicit" / "solution.csv").read_text().splitlines()
    assert len(rows) == 3
    disk = dict(doc, command=command, out=str(tmp_path / "disk"))
    capsys.readouterr()
    assert main(["--config", _write(tmp_path, "disk.json", disk)]) == 2
    assert "config.N: required for this command" in capsys.readouterr().err


def test_density_check_samples_a_thin_domain(tmp_path, capsys):
    # x1 - 0.1 is negative on the tip of this sliver, about 1% of its area,
    # where a draw in its bounding box seldom lands
    doc = dict(SOLVE_DOC,
               domain={"kind": "polygon",
                       "vertices": [[0.0, 0.0], [1.0, 1.0], [0.999, 1.001]]},
               density={"kind": "expression", "formula": "x1 - 0.1"},
               out=str(tmp_path / "thin"))
    assert main(["--config", _write(tmp_path, "thin.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("validation error: density:")


def _scipy_modules_after(code):
    # the SciPy modules loaded once code has run in a fresh interpreter
    import hemiot
    src = os.path.dirname(os.path.dirname(hemiot.__file__))
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_importing_the_package_loads_no_scipy():
    # SciPy's modules are imported where they are used, so a run's set-up
    # does not pay for them
    assert _scipy_modules_after("import hemiot, hemiot.cli") == []


def test_solve_loads_no_sparse_graph_module():
    # the connectivity check labels components with numpy and the Newton
    # step solves through scipy.linalg's band solver, so a solve loads
    # neither scipy.sparse.csgraph (about 1 MB of resident memory) nor
    # scipy.sparse.linalg (about 2 MB)
    loaded = _scipy_modules_after(
        "import math\nimport numpy as np\n"
        "from hemiot.domains import DiskDomain, constant_density\n"
        "from hemiot.solver import solve\n"
        "from hemiot.targets import chart_disk, discretize\n"
        "sol = solve(DiskDomain(np.zeros(2), 0.5), constant_density(1.0),\n"
        "            discretize(chart_disk(np.zeros(2), 0.8), 30,\n"
        "                       math.pi * 0.25))\n"
        "assert sol.report.converged and sol.report.connected")
    assert not [m for m in loaded if m.startswith(("scipy.sparse.linalg",
                                                   "scipy.sparse.csgraph"))]


def test_nonconvergence_exit_code(tmp_path, capsys):
    doc = dict(SOLVE_DOC, tol=1e-6, max_iter=1, N=40,
               density={"kind": "expression",
                        "formula": "1.0 + 0.4*sin(3.0*x1)"},
               out=str(tmp_path / "nc"))
    code = main(["--config", _write(tmp_path, "n.json", doc)])
    assert code == 3
    report = json.loads((tmp_path / "nc" / "report.json").read_text())
    assert report["verdicts"]["converged"] is False
    # partial artifacts still land next to the report
    assert "solution.csv" in report["artifacts"]


def test_cell_measure_stall_names_config_tol(tmp_path, capsys):
    # the cell-measure tolerance is min(1e-10, 1e-3 * tol * mass), so a
    # quadrature stall there is a config.tol fault, not the density's
    doc = {"command": "solve",
           "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.6},
           "density": {"kind": "expression",
                       "formula": "1.0 + 0.2*sin(3.0*x1 + 0.0)"},
           "target": {"kind": "chart_disk", "center": [0.0, 0.0],
                      "radius": 0.9},
           "N": 20, "tol": 1e-12, "out": str(tmp_path / "t")}
    assert main(["--config", _write(tmp_path, "t.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "validation error: config.tol: cell measures to 1.13e-15 = "
        "min(1e-10, 1e-3 * tol * mass) at tol 1e-12: adaptive quadrature "
        "stalled after ")


def test_contract_failure_exit_code(tmp_path):
    doc = {"command": "sphere-benchmark", "N": 60,
           "params": {"r": 0.6, "n_eval": 500},
           "out": str(tmp_path / "sb"), "seed": 0}
    code = main(["--config", _write(tmp_path, "sb.json", doc)])
    assert code == 1  # too coarse for the 5e-2 gradient contract
    report = json.loads((tmp_path / "sb" / "report.json").read_text())
    assert report["verdicts"]["gradient_sup_error"] is False
    assert report["verdicts"]["converged"] is True


def _strict_json(text):
    # json.loads, refusing the NaN, Infinity and -Infinity that the json
    # module writes for non-finite floats but strict parsers reject
    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_one_site_sphere_report_is_strict_json(tmp_path, N):
    # N of 1 to 3 leaves one site, which has no spacing: null, not Infinity
    doc = {"command": "sphere-benchmark", "N": N,
           "params": {"r": 0.6, "n_eval": 100},
           "out": str(tmp_path / "sb"), "seed": 0}
    assert main(["--config", _write(tmp_path, "sb.json", doc)]) == 1
    report = _strict_json((tmp_path / "sb" / "report.json").read_text())
    assert report["measurements"]["n_sites"] == 1
    assert report["measurements"]["site_spacing"] is None


def test_lemmas_command(tmp_path):
    doc = {"command": "lemmas",
           "params": {"trials": 5, "n_points": 400,
                      "estar_samples": 100000, "thetas": [0.1]},
           "out": str(tmp_path / "lm"), "seed": 0}
    assert main(["--config", _write(tmp_path, "lm.json", doc)]) == 0
    report = json.loads((tmp_path / "lm" / "report.json").read_text())
    assert report["verdicts"]["cone_inclusion"] is True
    assert report["verdicts"]["slice_estimate"] is True
    assert "samples.csv" in report["artifacts"]


def test_oracle_compare_command(tmp_path):
    doc = {"command": "oracle-compare",
           "domain": {"kind": "disk", "radius": 0.6},
           "density": {"kind": "constant", "value": 1.0},
           "target": {"kind": "chart_disk", "radius": 0.75},
           "N": 6, "params": {"grid_m": 8, "threshold": 0.6},
           "out": str(tmp_path / "oc"), "seed": 0}
    assert main(["--config", _write(tmp_path, "oc.json", doc)]) == 0
    report = json.loads((tmp_path / "oc" / "report.json").read_text())
    m = report["measurements"]
    assert m["agreement_fraction"] <= m["agreement_ceiling"] + 1e-12
    assert report["verdicts"]["monotonicity"] is True


def test_oracle_compare_reports_lp_pivots(tmp_path):
    # criterion 3's instance: Bland's entering rule alone took 4362 pivots
    # here, Dantzig's rule with its Bland runs after degenerate pivots 298
    doc = {"command": "oracle-compare",
           "domain": {"kind": "disk", "radius": 0.6},
           "target": {"kind": "chart_disk", "radius": 0.75},
           "N": 20, "tol": 1e-7, "params": {"grid_m": 15},
           "out": str(tmp_path / "oc"), "seed": 0}
    assert run(doc) == 0
    report = json.loads((tmp_path / "oc" / "report.json").read_text())
    assert 0 < report["measurements"]["lp_pivots"] < 500


def test_oracle_compare_keeps_max_iter(tmp_path, capsys):
    # criterion 3's instance needs more than one Newton step, so a cap of
    # one ends the run unconverged, as it ends solve
    doc = {"command": "oracle-compare",
           "domain": {"kind": "disk", "radius": 0.6},
           "density": {"kind": "constant", "value": 1.0},
           "target": {"kind": "chart_disk", "radius": 0.75},
           "N": 20, "tol": 1e-7, "max_iter": 1,
           "params": {"grid_m": 15, "threshold": 0.95},
           "out": str(tmp_path / "oc"), "seed": 0}
    assert main(["--config", _write(tmp_path, "oc.json", doc)]) == 3
    report = json.loads((tmp_path / "oc" / "report.json").read_text())
    assert report["verdicts"]["converged"] is False
    assert report["measurements"]["diagrams_built"] <= 2


def test_oracle_compare_builds_the_overlap_table_once(tmp_path, monkeypatch):
    import hemiot.oracle as oracle
    table = oracle._overlap_table
    calls = []

    def counted(*args):
        calls.append(1)
        return table(*args)
    monkeypatch.setattr(oracle, "_overlap_table", counted)
    doc = {"command": "oracle-compare",
           "domain": {"kind": "disk", "radius": 0.6},
           "target": {"kind": "chart_disk", "radius": 0.75},
           "N": 6, "params": {"grid_m": 8, "threshold": 0.6},
           "out": str(tmp_path / "oc"), "seed": 0}
    assert run(doc) == 0
    assert len(calls) == 1


# one small config per pipeline, each with the timing keys it reports
CLOCK_DOCS = {
    "solve": (SOLVE_DOC, {"solve_s", "total_s"}),
    "sphere-benchmark": ({"command": "sphere-benchmark", "N": 60,
                          "params": {"r": 0.6, "n_eval": 500}},
                         {"solve_s", "benchmark_s", "total_s"}),
    "blowup": ({"command": "blowup", "N": 400, "params": {"samples": 50}},
               {"blowup_s", "total_s"}),
    "oracle-compare": ({"command": "oracle-compare",
                        "domain": {"kind": "disk", "radius": 0.6},
                        "target": {"kind": "chart_disk", "radius": 0.75},
                        "N": 6, "params": {"grid_m": 8, "threshold": 0.6}},
                       {"oracle_s", "total_s"}),
    "lemmas": ({"command": "lemmas",
                "params": {"trials": 5, "n_points": 400,
                           "estar_samples": 1000, "thetas": [0.1]}},
               {"lemmas_s", "total_s"}),
}


@pytest.mark.parametrize("command", sorted(CLOCK_DOCS))
def test_timings_are_durations_on_a_monotonic_clock(tmp_path, monkeypatch,
                                                     command):
    # a wall clock that is set back during the run, here on every read,
    # must not make a duration negative
    wall = [2e9]

    def stepping_back():
        wall[0] -= 1.0
        return wall[0]
    monkeypatch.setattr(time, "time", stepping_back)
    doc, keys = CLOCK_DOCS[command]
    run(dict(doc, out=str(tmp_path / "o"), seed=0))
    timings = json.loads((tmp_path / "o" / "report.json").read_text())["timings"]
    assert set(timings) == keys
    assert all(t >= 0.0 for t in timings.values())


def test_clockwise_chart_polygon_is_a_validation_error(tmp_path, capsys):
    # convex but clockwise: its chart mass would come out negative
    doc = dict(SOLVE_DOC,
               target={"kind": "chart_polygon",
                       "vertices": [[-0.5, -0.5], [-0.5, 0.5], [0.5, 0.5],
                                    [0.5, -0.5]]},
               out=str(tmp_path / "cw"))
    assert main(["--config", _write(tmp_path, "cw.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "validation error: target.vertices:")


NAN, INF = float("nan"), float("inf")
SQUARE_VERTS = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]


@pytest.mark.parametrize("field, domain, target", [
    pytest.param("domain.radius", {"kind": "disk", "radius": NAN}, None,
                 id="nan-radius"),
    pytest.param("domain.center", {"kind": "disk", "center": [0, 0, 0],
                                   "radius": 0.5}, None, id="3d-center"),
    pytest.param("domain.center", {"kind": "disk", "center": ["a", "b"],
                                   "radius": 0.5}, None, id="text-center"),
    pytest.param("domain.vertices", {"kind": "polygon", "vertices":
                                     [[NAN, -0.5]] + SQUARE_VERTS[1:]}, None,
                 id="nan-vertex"),
    pytest.param("target.center", None, {"kind": "chart_disk", "radius": 0.8,
                                         "center": [0, 0, 0]},
                 id="3d-chart-center"),
    pytest.param("target.radius", None, {"kind": "chart_disk",
                                         "radius": INF}, id="inf-chart-radius"),
    pytest.param("target.vertices", None, {"kind": "chart_polygon", "vertices":
                                           [[NAN, -0.5]] + SQUARE_VERTS[1:]},
                 id="nan-chart-vertex"),
    pytest.param("target.truncation_radius", None,
                 {"kind": "hemisphere", "truncation_radius": INF},
                 id="inf-truncation-radius"),
    # a hemisphere takes its radius or its tail mass, not both
    pytest.param("target.tail_epsilon", None,
                 {"kind": "hemisphere", "truncation_radius": 50.0,
                  "tail_epsilon": 0.01}, id="radius-and-tail"),
    # chart polygons follow the domain polygons' rule: strictly convex
    pytest.param("target.vertices", None, {"kind": "chart_polygon", "vertices":
                                           SQUARE_VERTS[:2] + [[0.5, -0.5]]
                                           + SQUARE_VERTS[2:]},
                 id="repeated-chart-vertex"),
    pytest.param("target.vertices", None, {"kind": "chart_polygon", "vertices":
                                           SQUARE_VERTS[:2] + [[0.5, 0.0]]
                                           + SQUARE_VERTS[2:]},
                 id="collinear-chart-vertex"),
    # explicit targets are checked by the config layer, before any array
    # is built from them
    pytest.param("target.sites", None, {"kind": "explicit",
                                        "sites": [[0.1, 0.2], [0.3]],
                                        "masses": [1.0, 1.0]},
                 id="ragged-explicit-sites"),
    pytest.param("target.sites", None, {"kind": "explicit",
                                        "sites": [[0.1, NAN], [0.3, 0.0]],
                                        "masses": [1.0, 1.0]},
                 id="nan-explicit-site"),
    pytest.param("target.masses", None, {"kind": "explicit",
                                         "sites": [[0.1, 0.2], [0.3, 0.0]],
                                         "masses": [1.0, "a"]},
                 id="text-explicit-mass"),
    pytest.param("target.masses", None, {"kind": "explicit",
                                         "sites": [[0.1, 0.2], [0.3, 0.0]],
                                         "masses": [3.0, -1.0]},
                 id="negative-explicit-mass"),
    # region coordinates are finite numbers, as every other number read
    pytest.param("domain.center", {"kind": "disk", "center": ["0", False],
                                   "radius": 0.5}, None,
                 id="string-and-bool-center"),
    pytest.param("domain.vertices", {"kind": "polygon", "vertices":
                                     [["-0.5", -0.5]] + SQUARE_VERTS[1:]},
                 None, id="string-vertex"),
    pytest.param("target.center", None, {"kind": "chart_disk", "radius": 0.8,
                                         "center": [True, 0.0]},
                 id="bool-chart-center"),
    pytest.param("target.vertices", None, {"kind": "chart_polygon", "vertices":
                                           SQUARE_VERTS[:3] + [[False, 0.5]]},
                 id="bool-chart-vertex"),
    pytest.param("target.vertices", None, {"kind": "chart_polygon",
                                           "vertices": SQUARE_VERTS[:3]
                                           + [[-0.5, 0.5, 0.0]]},
                 id="3d-chart-vertex"),
    pytest.param("target.sites", None, {"kind": "explicit",
                                        "sites": [[0.1, "0.2"], [0.3, 0.0]],
                                        "masses": [1.0, 1.0]},
                 id="string-explicit-site"),
])
def test_region_shape_errors_name_their_field(tmp_path, capsys, field, domain,
                                              target):
    # the disk and polygon classes check their own shape; the config layer
    # only names the field
    doc = dict(SOLVE_DOC, out=str(tmp_path / "bad"))
    doc["domain"] = domain or doc["domain"]
    doc["target"] = target or doc["target"]
    assert main(["--config", _write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {field}:")


@pytest.mark.parametrize("command, field, params", [
    pytest.param("lemmas", "dimension", {"dimension": 1},
                 id="lemmas-dimension"),
    pytest.param("lemmas", "n_points", {"n_points": 1}, id="lemmas-n_points"),
    pytest.param("lemmas", "estar_samples", {"estar_samples": 0},
                 id="lemmas-estar_samples"),
    # checked before the cone and slice checks run
    pytest.param("lemmas", "thetas", {"thetas": [0.1, 0.5]},
                 id="lemmas-thetas"),
    pytest.param("lemmas", "t_values", {"t_values": ["a"]},
                 id="lemmas-t_values"),
    # each of these scored no slice or E* row and still passed its verdict
    pytest.param("lemmas", "thetas", {"thetas": []}, id="lemmas-thetas-empty"),
    pytest.param("lemmas", "t_values", {"t_values": []},
                 id="lemmas-t_values-empty"),
    pytest.param("lemmas", "t_values", {"t_values": [5.0]},
                 id="lemmas-t_values-beyond-2d0"),
    pytest.param("lemmas", "t_values", {"t_values": [-1.0]},
                 id="lemmas-t_values-negative"),
    pytest.param("lemmas", "t_values", {"t_values": [float("nan")]},
                 id="lemmas-t_values-nan"),
    # checked before the solve
    pytest.param("blowup", "C0", {"C0": -1.0}, id="blowup-C0"),
    pytest.param("blowup", "tail_epsilon", {"tail_epsilon": 5.0},
                 id="blowup-tail_epsilon"),
    pytest.param("sphere-benchmark", "n_eval", {"n_eval": 0},
                 id="sphere-n_eval"),
    # a key the command does not read, where it was ignored and the command
    # ran with its defaults
    pytest.param("solve", "tol", {"tol": 1e-3}, id="solve-unknown"),
    pytest.param("export", "max_step", {"max_step": 0.1},
                 id="export-unknown"),
    pytest.param("sphere-benchmark", "neval",
                 {"r": 0.6, "n_eval": 100, "neval": 100},
                 id="sphere-unknown"),
    pytest.param("blowup", "sample", {"samples": 50, "sample": 50},
                 id="blowup-unknown"),
    pytest.param("oracle-compare", "grid", {"grid": 8}, id="oracle-unknown"),
    pytest.param("lemmas", "trails",
                 {"trials": 5, "n_points": 400, "estar_samples": 1000,
                  "thetas": [0.1], "trails": 1}, id="lemmas-unknown"),
])
def test_params_errors_name_their_field(tmp_path, capsys, command, field,
                                        params):
    out = tmp_path / "bad"
    doc = {"command": command, "params": params, "out": str(out)}
    assert main(["--config", _write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(
        f"validation error: config.params.{field}:")
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("field, spec", [
    # each was ignored, and the run solved another instance than the config
    # states: the disk about the origin, or K without its declared bound
    pytest.param("domain.centre", {"kind": "disk", "radius": 0.5,
                                   "centre": [5.0, 5.0]}, id="disk"),
    pytest.param("domain.closed", {"kind": "polygon", "vertices": SQUARE_VERTS,
                                   "closed": True}, id="polygon"),
    pytest.param("density.uper", {"kind": "constant", "value": 1.0,
                                  "uper": 0.5}, id="constant"),
    pytest.param("density.vars", {"kind": "expression", "formula": "1 + x1",
                                  "vars": ["x1"]}, id="expression"),
    pytest.param("density.r_0", {"kind": "decay", "C0": 0.2, "delta": 0.5,
                                 "r_0": 0.1}, id="decay"),
    pytest.param("target.centre", {"kind": "chart_disk", "radius": 0.8,
                                   "centre": [0.3, 0.0]}, id="chart_disk"),
    pytest.param("target.vertex", {"kind": "chart_polygon",
                                   "vertices": SQUARE_VERTS,
                                   "vertex": [0.0, 0.0]}, id="chart_polygon"),
    pytest.param("target.epsilon", {"kind": "hemisphere", "epsilon": 0.1},
                 id="hemisphere"),
    pytest.param("target.weights", {"kind": "explicit",
                                    "sites": [[0.1, 0.2], [0.3, 0.0]],
                                    "masses": [1.0, 1.0], "weights": [1, 1]},
                 id="explicit"),
])
def test_an_unknown_key_of_any_kind_is_rejected(tmp_path, capsys, field,
                                                 spec):
    out = tmp_path / "bad"
    doc = dict(SOLVE_DOC, out=str(out), **{field.split(".")[0]: spec})
    assert main(["--config", _write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(
        f"validation error: {field}: unknown field")
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("field, density", [
    ("density.value", {"kind": "constant", "value": NAN}),
    ("density.value", {"kind": "constant", "value": 10 ** 400}),
    ("density.upper", {"kind": "constant", "value": 1.0, "upper": NAN}),
    ("density.lower", {"kind": "expression", "formula": "1 + x1 * x1",
                       "lower": INF}),
    ("density.C0", {"kind": "decay", "C0": -1.0, "delta": 0.5}),
    ("density.delta", {"kind": "decay", "C0": 0.2, "delta": 1.5}),
    ("density.r0", {"kind": "decay", "C0": 0.2, "delta": 0.5, "r0": 0.0}),
], ids=["nan-value", "huge-int-value", "nan-upper", "inf-lower", "C0",
        "delta", "r0"])
def test_density_field_errors_name_their_field(tmp_path, capsys, field,
                                               density):
    # the reader takes finite numbers only; the decay profile's ranges are
    # SourceDensity's, relayed under the field's name
    doc = dict(SOLVE_DOC, density=density, out=str(tmp_path / "bad"))
    assert main(["--config", _write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {field}: ")


def test_a_constant_density_is_checked_against_its_bounds(tmp_path, capsys,
                                                          monkeypatch):
    # as an expression is, before any quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("total_mass ran")
    monkeypatch.setattr(cli, "total_mass", no_quadrature)
    doc = dict(SOLVE_DOC, density={"kind": "constant", "value": 1.0,
                                   "lower": 2.0}, out=str(tmp_path / "lo"))
    assert main(["--config", _write(tmp_path, "lo.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "validation error: density: density drops below its declared lower "
        "bound")


# K = 3 on the disk of radius 0.6 carries mass 3.39, more than the
# hemisphere's pi; K = 0 carries none, and no target balances it
_INFEASIBLE = ({"kind": "constant", "value": 3.0},
               "total source mass 3.39292 exceeds the hemisphere mass pi")
_MASSLESS = ({"kind": "expression", "formula": "0*x1"},
             "total source mass 0 is not positive")


@pytest.mark.parametrize("command, density, message", [
    *(pytest.param(c, *_INFEASIBLE, id=c) for c in ("solve", "oracle-compare")),
    *(pytest.param(c, *_MASSLESS, id=f"{c}-massless")
      for c in ("solve", "oracle-compare", "export")),
])
@pytest.mark.filterwarnings("ignore:density vanishes")
def test_an_infeasible_source_is_rejected_by_every_pipeline(
        tmp_path, capsys, command, density, message):
    doc = {"command": command, "domain": {"kind": "disk", "radius": 0.6},
           "density": density,
           "target": {"kind": "chart_disk", "radius": 0.75}, "N": 6,
           "out": str(tmp_path / "inf")}
    assert main(["--config", _write(tmp_path, "inf.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(
        f"validation error: config.density: {message}")


def _keys_read(fn, arg=0):
    # the keys fn reads off its values dict, its positional argument arg,
    # and off that dict in each cli function it hands it to; the dict may
    # be used in no other way
    func = ast.parse(inspect.getsource(fn)).body[0]
    name = func.args.args[arg].arg
    keys, uses = set(), 0
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(
                node.value, ast.Name) and node.value.id == name:
            keys.add(node.slice.value)
            uses += 1
        if isinstance(node, ast.Call):
            for k, a in enumerate(node.args):
                if isinstance(a, ast.Name) and a.id == name:
                    keys |= _keys_read(getattr(cli, node.func.id), k)
                    uses += 1
    assert uses == sum(isinstance(node, ast.Name) and node.id == name
                       for node in ast.walk(func))
    return keys


@pytest.mark.parametrize("command", sorted(cli._PIPELINES))
def test_a_pipeline_reads_only_what_it_declares(tmp_path, capsys, command):
    pipeline, decl = cli._PIPELINES[command]
    params, _ = decl.get("params", cli._CONFIG["params"])
    # it reads each declared field and params key, with tol, max_iter and
    # seed, and no other
    assert _keys_read(pipeline) - {"tol", "max_iter", "seed"} == (
        set(decl) - {"params"}) | set(params)
    # a field the common declaration leaves out and another pipeline reads,
    # and an unknown params key, are rejected before any work
    others = {name for _, d in cli._PIPELINES.values() for name in d}
    unread = [(name, {name: SOLVE_DOC[name]})
              for name in sorted(others - set(cli._CONFIG) - set(decl))]
    unread.append(("params.unknown", {"params": {"unknown": 1}}))
    for name, setting in unread:
        out = tmp_path / name
        doc = dict(setting, command=command, out=str(out))
        assert main(["--config", _write(tmp_path, "c.json", doc)]) == 2
        assert capsys.readouterr().err.startswith(
            f"validation error: config.{name}: ")
        assert not out.exists()


@pytest.mark.parametrize("threshold", [1.5, -1.0])
def test_oracle_compare_rejects_threshold_out_of_range(tmp_path, threshold):
    # 1.5 would fail every run and -1 pass every run
    doc = {"command": "oracle-compare",
           "domain": {"kind": "disk", "radius": 0.6},
           "target": {"kind": "chart_disk", "radius": 0.75},
           "N": 6, "params": {"grid_m": 8, "threshold": threshold},
           "out": str(tmp_path / "oc"), "seed": 0}
    with pytest.raises(ConfigError, match=r"config\.params\.threshold"):
        run(doc)


def test_export_command(tmp_path):
    doc = dict(SOLVE_DOC, command="export", out=str(tmp_path / "ex"))
    assert main(["--config", _write(tmp_path, "ex.json", doc)]) == 0
    cells = (tmp_path / "ex" / "cells.csv").read_text().splitlines()
    assert cells[0] == "site,k,x1,x2"
    assert len(cells) > 10


def _cell_polyline(cell, circle, max_step=2.0 * math.pi / 256):
    # a cell's boundary with its arcs of circle cut into chords, one
    # LaguerreCell at a time
    pts = []
    m = len(cell.verts)
    for e in range(m):
        a, b, lab = cell.verts[e], cell.verts[(e + 1) % m], cell.labels[e]
        pts.append(a)
        if lab == ARC_EDGE:
            (cx, cy), r = circle
            a0 = math.atan2(a[1] - cy, a[0] - cx)
            a1 = math.atan2(b[1] - cy, b[0] - cx)
            sweep = (a1 - a0) % (2.0 * math.pi)
            k = int(sweep / max_step) + 1
            for s in range(1, k):
                t = a0 + sweep * s / k
                pts.append((cx + r * math.cos(t), cy + r * math.sin(t)))
    return pts


def _per_cell_mesh(sol):
    # the OBJ surface written cell by cell from diagram.cells
    circle = sol.domain.circle
    verts, faces, normals = {}, [], []
    for c in sol.diagram.cells:
        if c.is_empty:
            continue
        p, psi_i = sol.sites[c.site_index], sol.psi[c.site_index]
        ids = []
        for x, y in _cell_polyline(c, circle):
            z = p[0] * x + p[1] * y - psi_i
            key = (round(x, 9), round(y, 9), round(z, 9))
            ids.append(verts.setdefault(key, len(verts) + 1))
        ids = [i for k, i in enumerate(ids) if i != ids[k - 1]]
        if len(ids) >= 3:
            s = 1.0 / math.sqrt(1.0 + float(p @ p))
            normals.append(np.append(p * s, -s))
            faces.append(ids)
    lines = ["# piecewise-planar graph of the dual potential"]
    lines += ["v {:.12g} {:.12g} {:.12g}".format(*key) for key in verts]
    lines += ["vn {:.12g} {:.12g} {:.12g}".format(*n) for n in normals]
    lines += ["f " + " ".join(f"{i}//{k + 1}" for i in ids)
              for k, ids in enumerate(faces)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("doc", [
    dict(SOLVE_DOC, N=200),
    # an off-centre disk and a target off the origin: arcs about a centre
    # that is not the origin, cut into chords
    dict(SOLVE_DOC, N=300,
         domain={"kind": "disk", "center": [0.3, -0.2], "radius": 0.7},
         target={"kind": "chart_disk", "center": [-0.4, 0.2],
                 "radius": 1.2}),
    # a square: no arcs
    dict(SOLVE_DOC, N=150,
         domain={"kind": "polygon", "vertices": [[-0.5, -0.5], [0.5, -0.5],
                                                 [0.5, 0.5], [-0.5, 0.5]]}),
], ids=["disk", "offcentre-disk", "square"])
def test_export_files_match_the_per_cell_writer(tmp_path, monkeypatch, doc):
    # cells.csv and mesh.obj, read off the diagram's arrays, equal the
    # per-cell writer byte for byte, on disks, where cells have arcs, and on
    # a polygon
    from hemiot.solver import solve, write_csv
    solved = []
    monkeypatch.setattr(cli, "solve", lambda *a, **k: solved.append(
        solve(*a, **k)) or solved[-1])
    doc = dict(doc, command="export", out=str(tmp_path / "ex"))
    assert main(["--config", _write(tmp_path, "ex.json", doc)]) == 0
    sol, = solved
    assert bool((sol.diagram.labels == ARC_EDGE).any()) \
        == (doc["domain"]["kind"] == "disk")
    circle = sol.domain.circle
    ref = write_csv(str(tmp_path / "ref.csv"), ("site", "k", "x1", "x2"),
                    ((c.site_index, k, float(x), float(y))
                     for c in sol.diagram.cells if not c.is_empty
                     for k, (x, y) in enumerate(_cell_polyline(c, circle))))
    out = tmp_path / "ex"
    with open(ref, "rb") as fh:
        assert (out / "cells.csv").read_bytes() == fh.read()
    assert (out / "mesh.obj").read_text() == _per_cell_mesh(sol)


def test_mesh_vertex_seen_first_as_negative_zero(tmp_path):
    # weights shifted so that the potential vanishes at a vertex, then
    # nudged so that an earlier cell a gives it height -1e-12 and a later
    # cell b +1e-12: both round to a zero, so it is one vertex, printed as
    # first seen, "-0"
    import dataclasses

    from hemiot.domains import ConvexPolygonDomain, constant_density
    from hemiot.solver import export_mesh, solve
    from hemiot.targets import chart_disk, discretize
    square = ConvexPolygonDomain(np.array([[-0.5, -0.5], [0.5, -0.5],
                                           [0.5, 0.5], [-0.5, 0.5]]))
    target = discretize(chart_disk(np.zeros(2), 0.8), 20, 1.0)
    sol = solve(square, constant_density(1.0), target)
    dg = sol.diagram
    # an interior vertex of cell a that cell b > a lists with the same bits
    shared = {}
    for k, key in enumerate(map(tuple, dg.verts.tolist())):
        shared.setdefault(key, []).append(int(dg.owner[k]))
    (x, y), (a, b) = next((v, o[:2]) for v, o in shared.items()
                          if len(set(o)) == len(o) >= 3)
    psi = sol.psi + (sol.sites[a] @ (x, y) - sol.psi[a])
    psi[a] += 1e-12
    psi[b] -= 1e-12
    sol = dataclasses.replace(sol, psi=psi)
    export_mesh(sol, str(tmp_path / "m.obj"))
    text = (tmp_path / "m.obj").read_text()
    assert text == _per_cell_mesh(sol)
    at = [line.split()[3] for line in text.splitlines()
          if line.startswith("v ")
          and line.split()[1:3] == [f"{round(t, 9):.12g}" for t in (x, y)]]
    assert at == ["-0"]


def test_run_accepts_plain_dicts(tmp_path):
    doc = dict(SOLVE_DOC, out=str(tmp_path / "d"))
    assert run(doc) == 0
