"""Every function that the benchmark's traced run wraps (perfbench/layers.py)
still exists in the package, so that a rename in src fails here and not only
in `perfbench/run.py --trace 1`."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = layers.targets()
    assert targets
    missing = [f"{t.module.__name__}.{t.attr}" for t in targets
               if not callable(getattr(t.module, t.attr, None))]
    assert not missing
