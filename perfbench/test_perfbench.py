"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coxauto import parse_coxeter_system  # noqa: E402


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    """A copy of what the benchmark sees: BENCHMARK.json, perfbench, src."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


def _bench(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_wrong_pinned_value_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "pinned.json"
    doc = json.loads(path.read_text())
    doc["jobs"]["conj2 triangle(4,4,4) n=0"]["expect"]["numbers"]["a0"] += 1
    path.write_text(json.dumps(doc))
    proc = _bench(root, "hyperbolic_low")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert "FAILED conj2 triangle(4,4,4) n=0" in proc.stdout


def test_run_without_the_program_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    proc = _bench(root, "affine_table")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_mismatch_names_the_exception():
    job = workloads.jobs_for("affine_table", 0)[0]
    why = workloads.mismatch(job, None, "Traceback ...\nValueError: bad", {})
    assert why == "raised: ValueError: bad"


def test_every_job_has_a_pinned_value():
    pinned = workloads.load_pinned()
    for workload in workloads.WORKLOADS:
        for seed in range(10):
            for job in workloads.jobs_for(workload, seed):
                assert job.key in pinned, job


def test_hyperbolic_draw_is_a_function_of_the_seed():
    draws = [workloads.hyperbolic_draw(seed) for seed in range(20)]
    assert draws == [workloads.hyperbolic_draw(seed) for seed in range(20)]
    assert len(set(map(tuple, draws))) > 1
    assert (workloads.jobs_for("hyperbolic_low", 7)
            == workloads.jobs_for("hyperbolic_low", 7))


def test_hyperbolic_draw_respects_the_degree_bands():
    for seed in range(20):
        draw = workloads.hyperbolic_draw(seed)
        for labels, group, band in zip(draw, workloads.HYPERBOLIC_PANEL,
                                       workloads.DEGREE_BANDS):
            assert sorted(labels) == sorted(group)
            system = parse_coxeter_system(workloads.triangle_spec(labels))
            assert system.ctx.degree in band, (labels, system.ctx.degree)


def test_traced_counts_repeat():
    jobs = [workloads.Job("stats_row", g, g, 0).as_request(i)
            for i, g in enumerate(("~A2", "~C2", "~G2"))]
    request = json.dumps({"mode": "trace", "jobs": jobs})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def counts():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py")],
            input=request, capture_output=True, text=True, env=env,
            check=True, timeout=120)
        trace = json.loads(proc.stdout)["trace"]
        return ({name: rec[0] for name, rec in trace["calls"].items()},
                trace["tallies"], [span[0] for span in trace["spans"]])

    first = counts()
    assert first[0]["scalars.FieldContext.sign"] > 0
    assert first[2].count("stats_row") == 3
    assert counts() == first
