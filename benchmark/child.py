"""One hemiot pipeline run in a fresh process; run.py starts one per run.

    python3 benchmark/child.py MODE CONFIG RESULT RUN_ID

MODE is ``plain`` (time the run with tracing off: the pipeline call and the
solve call only), ``trace`` (record a span at each layer boundary, see
tracing.py) or ``setup`` (stop at the first call into solve, to time set-up
alone).  The process imports hemiot from ``src/`` under the current
directory and writes its figures as JSON to RESULT.  For ``oracle-compare``
it also saves the inputs and result of ``hemiot.oracle.lp_transport`` next
to the run's artifacts, for the checks.
"""
import json
import os
import sys
import time

import tracing


class StopAtSolve(BaseException):
    """Raised at the first call into solve by a set-up probe; derives from
    BaseException so that no handler inside the pipeline swallows it."""


def _import_hemiot(src):
    sys.path.insert(0, src)
    import hemiot.cli
    if not os.path.realpath(hemiot.cli.__file__).startswith(
            os.path.realpath(src) + os.sep):
        raise ImportError(f"hemiot imported from {hemiot.cli.__file__}, "
                          f"not from {src}")
    return hemiot.cli


def _time_solve(clock, mode):
    """Wrap solve where the pipelines call it: record when set-up ends (the
    first entry) and the time spent inside."""
    def wrap(fn):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            if clock["first"] is None:
                clock["first"] = t
            if mode == "setup":
                raise StopAtSolve
            try:
                return fn(*args, **kwargs)
            finally:
                clock["solve_s"] += time.perf_counter() - t
        return timed
    for module in tracing.SOLVE_CALLERS:
        tracing.patch(module, "solve", wrap)


def _capture_lp(captured):
    def wrap(fn):
        def capture(sources, targets, *args, **kwargs):
            plan = fn(sources, targets, *args, **kwargs)
            captured.append((sources, targets, plan))
            return plan
        return capture
    tracing.patch("hemiot.oracle", "lp_transport", wrap)


def _save_lp(captured, out_dir):
    import numpy as np

    (sources, targets, plan), = captured
    np.savez(os.path.join(out_dir, "lp_capture.npz"),
             xs=np.array([s[0] for s in sources], dtype=float),
             mu=np.array([s[1] for s in sources], dtype=float),
             ps=np.array([t[0] for t in targets], dtype=float),
             nu=np.array([t[1] for t in targets], dtype=float),
             u=plan.duals_source, v=plan.duals_target)


def peak_rss_mb():
    """Peak resident set of this process image (VmHWM, Linux). ru_maxrss
    would not do: it keeps the parent's resident set at the fork that
    started this process, which is larger than ours after the checks."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    mode, config_path, result_path, run_id = argv
    with open(config_path) as fh:
        config = json.load(fh)
    t_start = time.perf_counter()
    cli = _import_hemiot(os.path.join(os.getcwd(), "src"))
    t_import = time.perf_counter()

    clock = {"first": None, "solve_s": 0.0}
    captured = []
    if mode == "trace":
        tracer = tracing.Tracer(run_id)
        tracer.install()
        pipeline = tracer.span("cli.run", cli.run)
    else:
        _time_solve(clock, mode)
        pipeline = cli.run
    if config["command"] == "oracle-compare" and mode != "setup":
        _capture_lp(captured)

    result = {"mode": mode, "run_id": run_id,
              "import_s": t_import - t_start}
    t0 = time.perf_counter()
    try:
        rc = pipeline(config)
    except StopAtSolve:
        rc = 0
    wall = time.perf_counter() - t0
    result["rc"] = rc
    if mode != "trace":
        result["setup_s"] = clock["first"] - t_start
    if mode != "setup":
        result["wall_s"] = wall
        result["peak_rss_mb"] = peak_rss_mb()
    if mode == "plain":
        result["solve_s"] = clock["solve_s"]
    if mode == "trace":
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        with open(os.path.join(config["out"], "spans.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)
    if captured:
        _save_lp(captured, config["out"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
