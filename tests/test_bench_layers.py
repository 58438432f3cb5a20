"""The benchmark's trace table names functions matbase still has, and its
Matroid hooks still fire: a renamed layer function, method or constructor
parameter would otherwise break only a traced bench run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Traces one census input through classify and its rank-4 dual, built on
# the trusted path, through base_facets, and prints the span names.  It runs in a child process
# because install_tracing rebinds matbase for good; it never calls
# run.main, so nothing is written under bench/.
TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
mb = run.import_matbase()
tr = run.Tracer()
run.install_tracing(mb, tr)
m = mb.matroid_from_json(run.read_lines("census-n7.jsonl")[-1])
mb.classify(m)
dual = m.dual()
assert dual.rank == 4
mb.base_facets(dual)
print(json.dumps(sorted({span[0] for span in tr.spans})))
"""


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


def test_bench_matroid_hooks_fire():
    # the hooks wrap Matroid.__init__(self, ground, masks, trusted),
    # Matroid.find_u24_minor and Matroid.flats
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", TRACED, str(BENCH)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    spans = set(json.loads(done.stdout.splitlines()[-1]))
    assert {"matroid.exchange_check", "matroid.find_u24_minor",
            "matroid.flats"} <= spans
