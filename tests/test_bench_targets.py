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


def test_every_workload_op_passes_its_check(monkeypatch, tmp_path):
    # The untraced ops call the package directly, so a rename breaks them
    # even where no layer target changes.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    failed = {}
    for name in workloads.BUILDERS:
        w = workloads.build(name, 1, tmp_path / name)
        w.warmup()
        for op in w.ops(0):
            why = op.check(op.call())
            if why is not None:
                failed[f"{name}/{op.name}"] = why
    assert not failed
