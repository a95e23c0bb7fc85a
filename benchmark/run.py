"""hemiot benchmark: CLI pipelines timed end to end, one fresh process each.

    python3 benchmark/run.py --workload {sphere,blowup,smooth,oracle,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; hemiot is imported from ``src/``.
A run first times set-up alone a few times, then runs the workload's
pipeline through ``hemiot.cli.run`` in rounds, one child process at a time,
until ``--seconds`` have passed (at least one round).  The first round's
outputs are checked against values computed apart from hemiot (checks.py);
later rounds must reproduce them byte for byte.  With ``--trace 1`` each
round is an untraced run followed by a traced one, and the per-layer
numbers come from the traced one (tracing.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, each metric with its unit, and the tracing overhead.
Everything a run writes goes under ``.bench_out/`` in the current directory.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS/OpenMP thread, for the children and for the checks here
THREAD_ENV = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "solve_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_PROBES = 4          # set-up-only children per run
RUN_LIMIT_S = 170.0       # a run must end within 180 s
OUT_ROOT = ".bench_out"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def machine_facts():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": 1}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """One workload at one seed: its config, its children and its checks."""

    def __init__(self, workload, seed, root, deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.dir = os.path.join(root, OUT_ROOT, f"{workload}-{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.n = 0
        self.reference = None     # fingerprint of the checked first round
        self.failures = []        # check failures, as messages

    def child(self, mode):
        """Run one pipeline in a fresh process; returns its result dict
        and the output directory it wrote."""
        self.n += 1
        name = f"{mode}{self.n:03d}"
        out = os.path.join(self.dir, name)
        config, params = workloads.make(self.workload, self.seed, out)
        cfg_path, res_path = out + ".config.json", out + ".result.json"
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before the run could finish")
        with open(out + ".log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), mode,
                     cfg_path, res_path,
                     f"{self.workload}-{self.seed}-{name}"],
                    stdout=log, stderr=subprocess.STDOUT, timeout=left)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{name} did not finish in time")
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with {proc.returncode}; "
                             f"see {out}.log")
        with open(res_path) as fh:
            result = json.load(fh)
        return result, config, params, out

    def pipeline(self, mode):
        """One round's pipeline run, checked; returns the child's result,
        with "ok" false when the pipeline reported a failure."""
        result, config, params, out = self.child(mode)
        result["ok"] = result["rc"] == 0
        if not result["ok"]:
            return result
        fp = self._fingerprint(out)
        if self.reference is None:
            fails = checks.check(self.workload, config, params, out)
            self.failures += [f"{os.path.basename(out)}: {m}" for m in fails]
            self.reference = fp
        elif fp != self.reference:
            self.failures.append(f"{os.path.basename(out)}: outputs differ "
                                 f"from the checked first round")
        return result

    @staticmethod
    def _fingerprint(out):
        with open(os.path.join(out, "report.json")) as fh:
            rep = json.load(fh)
        files = sorted(f for f in os.listdir(out)
                       if f.endswith((".csv", ".obj")))
        return (rep["verdicts"], rep["measurements"],
                {f: sha256(os.path.join(out, f)) for f in files})


def measure(workload, seed, seconds, trace, root):
    start = time.monotonic()
    run = Run(workload, seed, root, start + RUN_LIMIT_S)
    setups = [run.child("setup")[0]["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while not plain or time.monotonic() - start < seconds:
        plain.append(run.pipeline("plain"))
        if trace:
            traced.append(run.pipeline("trace"))
    done = [r for r in plain if r["ok"]]
    summary = {
        "workload": workload, "seed": seed, "rounds": len(plain),
        "attempted": len(plain) + len(traced),
        "failed": sum(not r["ok"] for r in plain + traced),
        "failures": run.failures,
        "setup_samples": setups + [r["setup_s"] for r in done],
    }
    e2e = {}
    if done:
        e2e = {k: statistics.median(r[k] for r in done)
               for k in ("wall_s", "solve_s", "peak_rss_mb")}
        e2e["setup_s"] = statistics.median(summary["setup_samples"])
    summary["end_to_end"] = e2e
    if trace:
        good = [r for r in traced if r["ok"]]
        layers = [r["layers"] for r in good]
        for name in tracing.EXACT_COUNTS:
            if len({lay[name] for lay in layers}) > 1:
                run.failures.append(f"{name} differs between traced rounds")
        summary["per_layer"] = {
            k: statistics.median(lay[k] for lay in layers)
            for k in tracing.LAYER_UNITS} if layers else {}
        if good and done:
            t_wall = statistics.median(r["wall_s"] for r in good)
            summary["trace_overhead_s"] = t_wall - e2e["wall_s"]
            summary["traced_wall_s"] = t_wall
    summary["elapsed_s"] = time.monotonic() - start
    return summary


def print_summary(s, trace):
    print(f"{s['workload']} seed {s['seed']}: {s['rounds']} rounds, "
          f"{s['attempted']} attempted, {s['failed']} failed, "
          f"{len(s['setup_samples'])} set-ups, {s['elapsed_s']:.1f} s")
    for k, unit in END_TO_END_UNITS.items():
        if k in s["end_to_end"]:
            print(f"  {k:32s} {s['end_to_end'][k]:12.4f} {unit}")
    if trace:
        for k, unit in tracing.LAYER_UNITS.items():
            if k in s["per_layer"]:
                print(f"  {k:32s} {s['per_layer'][k]:12.6g} {unit}")
        if "trace_overhead_s" in s:
            print(f"  tracing overhead: traced wall_s "
                  f"{s['traced_wall_s']:.4f} s - untraced "
                  f"{s['end_to_end']['wall_s']:.4f} s = "
                  f"{s['trace_overhead_s']:.4f} s")
    for msg in s["failures"]:
        print(f"  CHECK FAILED: {msg}")


def metrics_of(s, trace):
    if trace:
        return {k: {"value": s["per_layer"][k], "unit": u}
                for k, u in tracing.LAYER_UNITS.items()}
    return {k: {"value": s["end_to_end"][k], "unit": u}
            for k, u in END_TO_END_UNITS.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.seed < 0:
        print("run.py: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "hemiot", "cli.py")):
        print("run.py: no src/hemiot under the current directory; run from "
              "the root of a hemiot checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    summaries = []
    for name in names:
        try:
            s = measure(name, args.seed, args.seconds, args.trace, root)
        except BenchError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        s["machine"] = facts
        with open(os.path.join(root, OUT_ROOT,
                               f"{name}-{args.seed}", "summary.json"),
                  "w") as fh:
            json.dump(s, fh, indent=2)
        print_summary(s, args.trace)
        summaries.append(s)

    if any(not s["end_to_end"] or (args.trace and not s["per_layer"])
           for s in summaries):
        print("run.py: no pipeline run succeeded", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = metrics_of(summaries[0], args.trace)
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in metrics_of(s, args.trace).items()}
    print(json.dumps({
        "correct": all(not s["failures"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
