"""The benchmark's traced binding sites name functions the package still has,
and a traced op of each workload calls what the layer map predicts."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module, with no bytecode written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(monkeypatch):
    # a renamed function fails here before it fails a traced benchmark run
    tracing = load_perfbench(monkeypatch, "tracing")
    missing = []
    for span, (mod_name, attr, *_) in tracing.SITES.items():
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(leaf) is None:
            missing.append(f"{span}: {mod_name}.{attr}")
    assert not missing


def test_traced_ops_call_the_predicted_layers(monkeypatch, tmp_path):
    # a pinned call that is re-routed past its binding site fails here, as
    # it fails the traced benchmark runs: one op per workload, set-up and op
    # traced as perfbench/run.py traces them, and the survey op on a
    # 1000-row extract instead of 1e5 rows
    tracing = load_perfbench(monkeypatch, "tracing")
    workloads = load_perfbench(monkeypatch, "workloads")
    monkeypatch.setitem(workloads.REFERENCE["survey_1e5"], "rows", 500)
    errors = {}
    for name in ("s1_study", "s6_extended", "survey_1e5"):
        workload = workloads.make(name)
        workdir = tmp_path / name
        workdir.mkdir()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                workload.setup(1, workdir)
            tracer.op_id = 0
            with tracer.span("op"), contextlib.redirect_stdout(io.StringIO()):
                result = workload.op(0)
        finally:
            tracer.uninstall()
        if name == "survey_1e5":
            # the reference estimates are for the 1e5-row extract
            assert result["fit_rc"] in (0, 2) and result["pred_rc"] == 0, result["stderr"]
        else:
            assert workload.check(result).error is None
        _, calls = tracing.layer_metrics(tracer)
        errors[name] = tracing.wiring_errors(name, calls, tracer)
    assert errors == {"s1_study": [], "s6_extended": [], "survey_1e5": []}
