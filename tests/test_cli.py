import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hemiot.cli import (ConfigError, ExperimentConfig, build_density,
                        build_domain, build_target, compile_expression, main,
                        run)
from hemiot.domains import DiskDomain


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


def test_config_roundtrip():
    cfg = ExperimentConfig.from_dict(dict(SOLVE_DOC, out="x"))
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="config.command"):
        ExperimentConfig.from_dict({"command": "fit"})
    with pytest.raises(ConfigError, match="config.tol"):
        ExperimentConfig.from_dict({"command": "solve", "tol": 0.5})
    with pytest.raises(ConfigError, match="config.threads"):
        ExperimentConfig.from_dict({"command": "solve", "threads": 0})
    with pytest.raises(ConfigError, match="config.banana"):
        ExperimentConfig.from_dict({"command": "solve", "banana": 1})
    with pytest.raises(ConfigError, match="config.seed"):
        ExperimentConfig.from_dict({"command": "solve", "seed": -1})


def test_expression_grammar_evaluates():
    ev = compile_expression("1.0 + 0.5*sin(x1)*cos(x2) + max(d, 0.1)")
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
                 "--tol", "1e-5", "--threads", "2"]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report["config"]["seed"] == 9
    assert report["config"]["tol"] == 1e-5
    assert report["config"]["threads"] == 2


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
             ["--tol", "1e-6"], ["--threads", "2"]]
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


def test_importing_the_package_loads_no_scipy():
    # SciPy's modules are imported where they are used, so a run's set-up
    # does not pay for them
    import hemiot
    src = os.path.dirname(os.path.dirname(hemiot.__file__))
    code = ("import sys, hemiot, hemiot.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
])
def test_params_errors_name_their_field(tmp_path, capsys, command, field,
                                        params):
    out = tmp_path / "bad"
    doc = {"command": command, "params": params, "out": str(out)}
    assert main(["--config", _write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(
        f"validation error: config.params.{field}:")
    assert not out.exists() or os.listdir(out) == []


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


def _cell_polyline(cell, max_step=2.0 * math.pi / 256):
    # a cell's boundary with arcs cut into chords, one LaguerreCell at a time
    pts = []
    m = len(cell.verts)
    for e in range(m):
        a, b, lab = cell.verts[e], cell.verts[(e + 1) % m], cell.labels[e]
        pts.append(a)
        if lab[0] == "arc":
            (cx, cy), r = lab[1], lab[2]
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
    from hemiot.chart import c_exp
    verts, faces, normals = {}, [], []
    for c in sol.diagram.cells:
        if c.is_empty:
            continue
        p, psi_i = sol.sites[c.site_index], sol.psi[c.site_index]
        ids = []
        for x, y in _cell_polyline(c):
            z = p[0] * x + p[1] * y - psi_i
            key = (round(x, 9), round(y, 9), round(z, 9))
            ids.append(verts.setdefault(key, len(verts) + 1))
        ids = [i for k, i in enumerate(ids) if i != ids[k - 1]]
        if len(ids) >= 3:
            normals.append(c_exp(p).as_array())
            faces.append(ids)
    lines = ["# piecewise-planar graph of the dual potential"]
    lines += ["v {:.12g} {:.12g} {:.12g}".format(*key) for key in verts]
    lines += ["vn {:.12g} {:.12g} {:.12g}".format(*n) for n in normals]
    lines += ["f " + " ".join(f"{i}//{k + 1}" for i in ids)
              for k, ids in enumerate(faces)]
    return "\n".join(lines) + "\n"


def test_export_files_match_the_per_cell_writer(tmp_path, monkeypatch):
    # cells.csv and mesh.obj, read off the diagram's arrays, equal the
    # per-cell writer byte for byte on a disk, where cells have arcs
    import hemiot.cli as cli
    from hemiot.solver import solve, write_csv
    solved = []
    monkeypatch.setattr(cli, "solve", lambda *a, **k: solved.append(
        solve(*a, **k)) or solved[-1])
    doc = dict(SOLVE_DOC, command="export", N=200, out=str(tmp_path / "ex"))
    assert main(["--config", _write(tmp_path, "ex.json", doc)]) == 0
    sol, = solved
    assert sol.diagram.arc_edges()
    ref = write_csv(str(tmp_path / "ref.csv"), ("site", "k", "x1", "x2"),
                    ((c.site_index, k, float(x), float(y))
                     for c in sol.diagram.cells if not c.is_empty
                     for k, (x, y) in enumerate(_cell_polyline(c))))
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
