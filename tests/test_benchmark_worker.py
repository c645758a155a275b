"""The benchmark's traced pass runs the public API without a job error.

The tracer wraps every public function of the package and feeds some
results to hooks, so a changed signature or return value shows up there
as a failed job rather than as an exception.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_pass_has_no_job_error():
    jobs = [{"id": 0, "kind": "stats_row", "spec": "~A2", "level": 0},
            {"id": 1, "kind": "conj2", "spec": "~C2", "level": 0}]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input=json.dumps({"mode": "trace", "jobs": jobs}),
        capture_output=True, text=True, env=env, check=True, timeout=120)
    reply = json.loads(proc.stdout)
    assert [job["error"] for job in reply["jobs"]] == [None, None]
    assert reply["jobs"][0]["output"]["a0"] == 16
    assert reply["jobs"][1]["output"]["verdict"] == "holds"
    assert reply["trace"]["tallies"]["canonical_states"] == 16 + 25
