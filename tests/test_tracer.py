"""Smoke test of the benchmark tracer against the package.

bench/tracer.py wraps package functions and methods by name; a rename there
would otherwise surface only when the benchmark runs. The tracer patches
module globals and classes, so the job runs in its own interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import orbitpoisson
from orbitpoisson import cli
from tracer import Tracer
tracer = Tracer()
tracer.install(orbitpoisson)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["cohomology", "A", "2", "--mode", "kks", "--lambda", "1,2"])
# the cohomology path expresses no vectors; one direct call proves the express wrapper
orbitpoisson.linalg.SpanSolver([{0: 1}]).express({0: 2})
print(json.dumps({"code": code, "spans": sorted({s[0] for s in tracer.spans}),
                  "counts": tracer.counts}))
"""


def test_tracer_records_the_wrapped_layers():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    for name in ("multivec.schouten", "invariants.delta", "linalg.rank", "linalg.express"):
        assert name in out["spans"], name
    assert out["counts"]["multivec.schouten_pairs"] > 0
    assert out["counts"]["invariants.delta_nnz"] > 0
