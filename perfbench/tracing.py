"""Per-layer tracing from outside the package.

Spans are recorded around calls into each ``recency.*`` module's
functions by replacing them at every binding site: the package imports by
name (``from .likelihood import score``), so patching only the defining
module would miss most calls and make a layer look free.  Spans stay in
memory and are written once when the run ends.

``SITES`` also holds the layer -> workload prediction from the benchmark
notes.  After a traced run, :func:`wiring_errors` reports every call
counter that reads 0 where it is predicted nonzero, or nonzero where it
is predicted 0, so a re-bound import shows up as a wiring error instead
of as a layer that got free.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

ALL = frozenset({"s1_study", "survey_1e5", "s6_extended"})
STUDIES = frozenset({"s1_study", "s6_extended"})
BASIC = frozenset({"s1_study", "survey_1e5"})
SURVEY = frozenset({"survey_1e5"})
S6 = frozenset({"s6_extended"})


def _rows(data) -> int:
    """Subject count of a Subject sequence or a SubjectArrays."""
    n = getattr(data, "n", None)
    return n if isinstance(n, int) else len(data)


def _note_as_arrays(args, kwargs, result):
    if result is args[0]:
        return {}
    return {"conversions": 1, "rows": result.n}


def _note_kernel(args, kwargs, result):
    return {"rows": _rows(args[0])}


def _note_bfgs(args, kwargs, result):
    return {"nit": result.nit, "nfev": result.nfev,
            "njev": getattr(result, "njev", 0), "success": int(bool(result.success))}


def _note_profile_value(args, kwargs, result):
    return {"rejected": int(not math.isfinite(result))}


# span name: (module, attribute, scan, note, workloads predicted to call it).
# scan=True replaces the function at every recency.* binding site that
# holds it.  scan=False patches the named module only: scipy's minimize is
# bound in estimation and in densityratio, which are separate layers, and
# the case-term kernel is counted where densityratio calls it (calls from
# log_pseudo_likelihood are inside that function's own span).
# A note returns counters to add up; its "rows" entry is also kept on the span.
SITES = {
    "dataio.load": ("recency.dataio", "load", True,
                    lambda a, k, r: {"rows": len(r)}, SURVEY),
    "dataio.preprocess": ("recency.dataio", "preprocess", True,
                          lambda a, k, r: {"rows": len(a[0])}, SURVEY),
    # survey_1e5 calls generate while it builds its CSVs (set-up)
    "simulation.generate": ("recency.simulation", "generate", True, None, ALL),
    "simulation.auc": ("recency.simulation", "auc", True, None, STUDIES),
    "simulation.replicate": ("recency.simulation", "_one_replicate", True, None, STUDIES),
    "model.as_arrays": ("recency.model", "as_arrays", True, _note_as_arrays, ALL),
    "likelihood.log_pseudo_likelihood": ("recency.likelihood", "log_pseudo_likelihood",
                                         True, _note_kernel, BASIC),
    "likelihood.score": ("recency.likelihood", "score", True, _note_kernel, BASIC),
    "likelihood.score_contributions": ("recency.likelihood", "score_contributions",
                                       True, _note_kernel, BASIC),
    "likelihood.case_terms": ("recency.densityratio", "_case_terms", False, None, S6),
    # fit delegates to fit_extended on s6_extended, so it is called there too
    "estimation.fit": ("recency.estimation", "fit", True, None, ALL),
    "estimation.bfgs": ("recency.estimation", "minimize", False, _note_bfgs, BASIC),
    "estimation.flat_probe": ("recency.estimation", "_flat_directions", True, None, ALL),
    "estimation.sandwich": ("recency.estimation", "sandwich_covariance", True, None, BASIC),
    "densityratio.fit_extended": ("recency.densityratio", "fit_extended", True, None, S6),
    "densityratio.solve_mu": ("recency.densityratio", "solve_mu", True, None, S6),
    "densityratio.profile_value": ("recency.densityratio", "_ProfileObjective.value",
                                   False, _note_profile_value, S6),
    "densityratio.profile_gradient": ("recency.densityratio", "_ProfileObjective.gradient",
                                      False, None, S6),
    "densityratio.newton_polish": ("recency.densityratio", "_ProfileObjective.newton_polish",
                                   False, None, S6),
    "densityratio.contribution_jacobian": ("recency.densityratio",
                                           "_ProfileObjective.contribution_jacobian",
                                           False, None, S6),
    "densityratio.bfgs": ("recency.densityratio", "minimize", False, _note_bfgs, S6),
    "prediction.type2": ("recency.prediction", "_type2_vector", True, None, ALL),
    "prediction.recency_rate": ("recency.prediction", "recency_rate", True, None, ALL),
    "prediction.export_predictions": ("recency.prediction", "export_predictions", True,
                                      lambda a, k, r: {"rows": len(a[1])}, SURVEY),
    "glm.fit_weighted_logistic": ("recency.glm", "fit_weighted_logistic", True,
                                  lambda a, k, r: {"iterations": r.iterations}, STUDIES),
    "cli.main": ("recency.cli", "main", True, None, SURVEY),
}

# Layers that run only for some fits, and the workloads where a traced run
# may therefore not reach them: the Newton polish runs when every BFGS
# start stalls above the score tolerance, and the flatness probe runs only
# on fits whose score met it (the survey extract's fit does not).
# Elsewhere they must still read 0.
DATA_DEPENDENT = {"densityratio.newton_polish": S6, "estimation.flat_probe": SURVEY}

LIKELIHOOD_KERNELS = ("likelihood.log_pseudo_likelihood", "likelihood.score",
                      "likelihood.score_contributions")


class Tracer:
    """In-memory span recorder that installs and removes the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, parent index, op id, start, end, rows]
        self.spans: list[list] = []
        self.notes: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.sites_patched: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> list:
        row = [name_id, self._stack[-1] if self._stack else -1, self.op_id,
               time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row: list) -> None:
        row[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself owns (set-up, an op)."""
        row = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(row)

    def _wrap(self, name, fn, note):
        name_id = self._name_id(name)
        notes = self.notes[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(row)
            if note is not None:
                counts = note(args, kwargs, result)
                for key, val in counts.items():
                    notes[key] += val
                row[5] = counts.get("rows", 0)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function at each of its binding sites."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "recency" or name.startswith("recency."))]
        for span_name, (mod_name, attr, scan, note, _) in SITES.items():
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.sites_patched[span_name] = 0
                continue
            wrapper = self._wrap(span_name, original, note)
            targets = [(owner, leaf)]
            if scan:
                targets += [(m, key) for m in modules for key, val in vars(m).items()
                            if val is original and m is not owner]
            for target, key in targets:
                self._patched.append((target, key, original))
                setattr(target, key, wrapper)
            self.sites_patched[span_name] = len(targets)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end", "rows"],
                       "names": self.names, "spans": self.spans}, fh)


def _union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    return total + (hi - lo if hi is not None else 0.0)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from the span tree, plus the call count per span name."""
    names, spans = tracer.names, tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    for idx, row in enumerate(spans):
        if row[1] >= 0:
            children[row[1]].append(idx)

    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for idx, row in enumerate(spans):
        name = names[row[0]]
        calls[name] += 1
        incl[name] += row[4] - row[3]
        kids = [(spans[c][3], spans[c][4]) for c in children.get(idx, ())]
        self_s[name] += (row[4] - row[3]) - _union_length(kids)

    def enclosing(idx, target):
        """Index of the nearest ancestor span named ``target``, or -1."""
        parent = spans[idx][1]
        while parent >= 0 and names[spans[parent][0]] != target:
            parent = spans[parent][1]
        return parent

    kernel_ids = {i for i, nm in enumerate(names) if nm in LIKELIHOOD_KERNELS}
    attempts: dict[int, int] = defaultdict(int)   # estimation.fit span -> BFGS runs
    sandwich_scores = 0
    kernel_s = kernel_rows = 0.0
    for idx, row in enumerate(spans):
        name = names[row[0]]
        if name == "estimation.bfgs":
            attempts[enclosing(idx, "estimation.fit")] += 1
        elif name == "likelihood.score" and enclosing(idx, "estimation.sandwich") >= 0:
            sandwich_scores += 1
        if row[0] in kernel_ids and (row[1] < 0 or spans[row[1]][0] not in kernel_ids):
            kernel_s += row[4] - row[3]
            kernel_rows += row[5]

    def ratio(num, den):
        return num / den if den else 0.0

    def note(name, key):
        return tracer.notes.get(name, {}).get(key, 0.0)

    m: dict[str, float] = {}

    def add(name, *extra):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = incl.get(name, 0.0)
        if "self_s" in extra:
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        if "rows_per_s" in extra:
            m[f"{name}.rows_per_s"] = ratio(note(name, "rows"), incl.get(name, 0.0))

    add("dataio.load", "rows_per_s")
    add("dataio.preprocess", "rows_per_s")
    add("simulation.generate")
    add("simulation.auc")
    m["simulation.replicate.self_s"] = self_s.get("simulation.replicate", 0.0)
    add("model.as_arrays")
    m["model.as_arrays.conversions"] = note("model.as_arrays", "conversions")
    m["model.as_arrays.rows"] = note("model.as_arrays", "rows")
    for name in LIKELIHOOD_KERNELS + ("likelihood.case_terms",):
        add(name)
    # seconds per subject of the outermost likelihood calls (score nests
    # score_contributions, which must not be counted twice)
    m["likelihood.us_per_subject"] = 1e6 * ratio(kernel_s, kernel_rows)
    add("estimation.fit", "self_s")
    add("estimation.bfgs")
    for key in ("nit", "nfev", "njev"):
        m[f"estimation.bfgs.{key}"] = note("estimation.bfgs", key)
    m["estimation.bfgs.success_ratio"] = ratio(note("estimation.bfgs", "success"),
                                               calls.get("estimation.bfgs", 0))
    m["estimation.restarts_per_fit"] = ratio(sum(attempts.values()) - len(attempts),
                                             len(attempts))
    add("estimation.flat_probe")
    add("estimation.sandwich")
    m["estimation.sandwich.score_calls"] = sandwich_scores
    add("densityratio.fit_extended", "self_s")
    add("densityratio.solve_mu")
    m["densityratio.solve_mu.per_fit"] = ratio(calls.get("densityratio.solve_mu", 0),
                                               calls.get("densityratio.fit_extended", 0))
    for name in ("profile_value", "profile_gradient", "newton_polish", "contribution_jacobian"):
        add(f"densityratio.{name}")
    m["densityratio.bfgs.nit"] = note("densityratio.bfgs", "nit")
    m["densityratio.bfgs.nfev"] = note("densityratio.bfgs", "nfev")
    evals = calls.get("densityratio.profile_value", 0)
    m["densityratio.feasible_ratio"] = (
        1.0 - note("densityratio.profile_value", "rejected") / evals if evals else 0.0)
    add("prediction.type2")
    add("prediction.recency_rate")
    add("prediction.export_predictions", "rows_per_s")
    add("glm.fit_weighted_logistic")
    m["glm.fit_weighted_logistic.iterations"] = note("glm.fit_weighted_logistic", "iterations")
    add("cli.main", "self_s")
    return m, dict(calls)


def layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("s", "self_s"):
        return "s"
    if leaf.endswith("ratio"):
        return "ratio"
    return {"rows_per_s": "rows/s", "us_per_subject": "us", "per_fit": "1/fit",
            "restarts_per_fit": "1/fit"}.get(leaf, "count")


def wiring_errors(workload: str, calls: dict[str, int], tracer: Tracer) -> list[str]:
    """Call counters that contradict the predicted layer -> workload map."""
    errors = []
    for name, (mod, attr, _, _, predicted) in SITES.items():
        got = calls.get(name, 0)
        if not tracer.sites_patched.get(name):
            errors.append(f"{name}: {mod}.{attr} no longer exists; update tracing.SITES")
        elif workload in predicted and got == 0 and workload not in DATA_DEPENDENT.get(name, ()):
            errors.append(f"{name} ({mod}.{attr}) predicted nonzero on {workload} but "
                          f"recorded 0 calls through {tracer.sites_patched.get(name, 0)} "
                          "patched binding site(s)")
        elif workload not in predicted and got:
            errors.append(f"{name} predicted 0 on {workload} but recorded {got} calls")
    return errors
