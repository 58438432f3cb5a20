"""The benchmark's trace table names functions matbase still has: a
renamed layer function would otherwise break only a traced bench run."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_layers_are_matbase_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its oracles
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    spans = set()
    for mod, names in run.LAYERS.items():
        module = importlib.import_module("matbase." + mod)
        for name in names:
            span = "%s.%s" % (mod, name)
            assert callable(getattr(module, name, None)), "matbase." + span
            spans.add(span)
    assert run.GENERATORS <= spans
