"""Spans and counters around hemiot's layers, taken from outside the package.

Nothing under ``src/`` knows about tracing.  ``Tracer.install()`` replaces the
module attributes that hemiot's callers look up at call time (for example
``hemiot.solver.laguerre_diagram``, which ``solve`` calls) with wrappers that
record a span or bump a counter, then call the original.  Spans are kept in
memory as ``[id, name, parent, start, end]`` and written out by the caller
when the run ends; ``layer_metrics`` turns them into the per-layer numbers.
"""
import importlib
import time
from collections import Counter
from functools import wraps

# (module, attribute, span name): every caller-side lookup that one span
# name covers is listed, so a layer is timed wherever the pipelines reach it
SPANS = [
    ("hemiot.cli", "sphere_benchmark", "experiments.check"),
    ("hemiot.cli", "blowup_experiment", "experiments.check"),
    ("hemiot.cli", "total_mass", "domains.total_mass"),
    ("hemiot.experiments", "total_mass", "domains.total_mass"),
    ("hemiot.cli", "discretize", "targets.discretize"),
    ("hemiot.experiments", "discretize", "targets.discretize"),
    ("hemiot.solver", "compute_measures", "laguerre.measures"),
    ("hemiot.solver", "edge_weights", "laguerre.edge_weights"),
    # _newton_step imports these at call time, so the module attribute is
    # what it finds
    ("scipy.sparse.linalg", "cg", "solver.cg"),
    ("scipy.sparse.linalg", "spsolve", "solver.spsolve"),
    ("hemiot.cli", "solution_to_csv", "solver.export"),
    ("hemiot.cli", "export_mesh", "solver.export"),
    ("hemiot.cli", "semidiscrete_agreement", "oracle.agreement"),
    ("hemiot.oracle", "lp_transport", "oracle.lp"),
    ("hemiot.cli", "agreement_ceiling", "oracle.ceiling"),
    ("hemiot.cli", "monotonicity_certificate", "oracle.certificate"),
]
# where the pipelines call solve from
SOLVE_CALLERS = ("hemiot.cli", "hemiot.experiments", "hemiot.oracle")
# counted, not timed: a span per call would cost more than the call
COUNTED = [("hemiot.laguerre", "clip_halfplane", "geometry.clip_halfplane")]

# the per-layer metrics, in report order, with their units
LAYER_UNITS = {
    "laguerre.diagram_s": "s",
    "laguerre.diagram_calls": "count",
    "laguerre.diagram_max_s": "s",
    "geometry.clip_halfplane_calls": "count",
    "laguerre.measures_s": "s",
    "laguerre.edge_weights_s": "s",
    "solver.linear_solve_s": "s",
    "solver.cg_calls": "count",
    "solver.spsolve_fallbacks": "count",
    "solver.newton_iterations": "count",
    "solver.line_search_trials": "count",
    "solver.line_search_accept_ratio": "ratio",
    "solver.diagrams_discarded": "count",
    "solver.self_s": "s",
    "solver.export_s": "s",
    "domains.total_mass_s": "s",
    "targets.discretize_s": "s",
    "experiments.check_s": "s",
    "oracle.agreement_s": "s",
    "oracle.lp_s": "s",
    "oracle.ceiling_s": "s",
    "oracle.certificate_s": "s",
    "cli.self_s": "s",
}
# counts that must repeat exactly between two traced runs of one instance
EXACT_COUNTS = ("laguerre.diagram_calls", "geometry.clip_halfplane_calls",
                "solver.newton_iterations", "solver.line_search_trials")


def patch(module, attr, wrap):
    """Replace module.attr by wrap(original) for the rest of the process."""
    mod = importlib.import_module(module)
    setattr(mod, attr, wrap(getattr(mod, attr)))


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._solve = None       # line-search bookkeeping of the open solve

    # -- recording -------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, stack[-1] if stack else None,
                   clock(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # The damped Newton loop is read from its calls: every laguerre_diagram
    # call inside a solve builds a diagram; the ones built before the first
    # _newton_step are initial, the rest are line-search trials. A diagram
    # is kept when a later _newton_step starts from it or solve returns it;
    # a kept trial is an accepted one.

    def _diagram(self, fn):
        timed = self.span("laguerre.diagram", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if self._solve is not None:
                self._solve["built"].append(out)
            return out
        return wrapper

    def _newton_step(self, fn):
        @wraps(fn)
        def wrapper(diagram, *args, **kwargs):
            st = self._solve
            if st is not None:
                self.counts["solver.newton_iterations"] += 1
                if st["n_init"] is None:
                    st["n_init"] = len(st["built"])
                st["kept"].append(diagram)
            return fn(diagram, *args, **kwargs)
        return wrapper

    def _solve_span(self, fn):
        timed = self.span("solver.solve", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._solve = st = {"built": [], "kept": [], "n_init": None}
            sol = None
            try:
                sol = timed(*args, **kwargs)
                return sol
            finally:
                self._solve = None
                if sol is not None:
                    st["kept"].append(sol.diagram)
                self._close_solve(st)
        return wrapper

    def _close_solve(self, st):
        built = st["built"]
        n_init = len(built) if st["n_init"] is None else st["n_init"]
        kept = {k for k, d in enumerate(built)
                if any(d is x for x in st["kept"])}
        self.counts["solver.line_search_trials"] += len(built) - n_init
        self.counts["solver.line_search_accepted"] += sum(
            k >= n_init for k in kept)
        self.counts["solver.diagrams_discarded"] += len(built) - len(kept)

    def install(self):
        """Wrap every traced attribute, for the rest of the process."""
        for m, a, n in SPANS:
            patch(m, a, lambda f, n=n: self.span(n, f))
        for m, a, n in COUNTED:
            patch(m, a, lambda f, n=n: self.counter(n, f))
        for m in SOLVE_CALLERS:
            patch(m, "solve", self._solve_span)
        patch("hemiot.solver", "laguerre_diagram", self._diagram)
        patch("hemiot.solver", "_newton_step", self._newton_step)

    def to_json(self):
        return {"run_id": self.run_id,
                "fields": ["id", "name", "parent", "start", "end"],
                "spans": self.spans, "counts": dict(self.counts)}


def layer_metrics(spans, counts):
    """Per-layer numbers from one traced run: a `_s` metric is the total of
    its spans, `self_s` a span's time minus its direct child spans."""
    total, longest, calls, child = Counter(), Counter(), Counter(), Counter()
    for sid, name, parent, start, end in spans:
        dur = end - start
        total[name] += dur
        longest[name] = max(longest[name], dur)
        calls[name] += 1
        if parent is not None:
            child[parent] += dur
    own = Counter()
    for sid, name, parent, start, end in spans:
        own[name] += (end - start) - child[sid]

    trials = counts.get("solver.line_search_trials", 0)
    accepted = counts.get("solver.line_search_accepted", 0)
    return {
        "laguerre.diagram_s": total["laguerre.diagram"],
        "laguerre.diagram_calls": calls["laguerre.diagram"],
        "laguerre.diagram_max_s": longest["laguerre.diagram"],
        "geometry.clip_halfplane_calls":
            counts.get("geometry.clip_halfplane", 0),
        "laguerre.measures_s": total["laguerre.measures"],
        "laguerre.edge_weights_s": total["laguerre.edge_weights"],
        "solver.linear_solve_s": total["solver.cg"] + total["solver.spsolve"],
        "solver.cg_calls": calls["solver.cg"],
        "solver.spsolve_fallbacks": calls["solver.spsolve"],
        "solver.newton_iterations": counts.get("solver.newton_iterations", 0),
        "solver.line_search_trials": trials,
        # accepted over trials; the base is solver.line_search_trials, and a
        # solve that converged before any trial reads 1
        "solver.line_search_accept_ratio":
            accepted / trials if trials else 1.0,
        "solver.diagrams_discarded": counts.get("solver.diagrams_discarded", 0),
        "solver.self_s": own["solver.solve"],
        "solver.export_s": total["solver.export"],
        "domains.total_mass_s": total["domains.total_mass"],
        "targets.discretize_s": total["targets.discretize"],
        "experiments.check_s": own["experiments.check"],
        "oracle.agreement_s": own["oracle.agreement"],
        "oracle.lp_s": total["oracle.lp"],
        "oracle.ceiling_s": total["oracle.ceiling"],
        "oracle.certificate_s": total["oracle.certificate"],
        "cli.self_s": own["cli.run"],
    }
