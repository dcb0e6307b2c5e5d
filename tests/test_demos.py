"""The demo scripts, byte for byte.

Each script under demos/ runs in its own interpreter against this checkout's
src/; its exit code and the SHA-256 of its stdout must match the values
recorded in demo_digests.json.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = json.loads((Path(__file__).parent / "demo_digests.json").read_text())


def test_every_demo_is_recorded():
    assert sorted(row["script"] for row in RECORDED) == sorted(
        p.name for p in (ROOT / "demos").glob("*.py")
    )


@pytest.mark.parametrize("row", RECORDED, ids=lambda row: row["script"])
def test_demo_output_digest(row):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / row["script"])],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == row["exit"], proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == row["stdout_sha256"]
