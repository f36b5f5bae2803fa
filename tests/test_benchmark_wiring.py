"""The benchmark's traced binding sites name functions the package still has."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves(monkeypatch):
    # a renamed function fails here before it fails a traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for span, (mod_name, attr, *_) in tracing.SITES.items():
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(leaf) is None:
            missing.append(f"{span}: {mod_name}.{attr}")
    assert not missing
