"""The coxauto benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload affine_table --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Each pass runs the workload's jobs, one at a time, in a fresh interpreter
(``worker.py``), so that every module-level and per-system cache starts
cold, as it does for a ``coxauto`` command.  Every job's output is checked
against ``pinned.json``.

With ``--trace 0`` the run starts ``SETUP_PROBES`` interpreters that only
import and parse, then runs passes until ``--seconds`` is used (at least
``MIN_PASSES``), and reports the end-to-end metrics as medians:
``wall_s``, first job start to last job end of a pass; ``setup_s``,
importing coxauto and parsing every group, over every interpreter
started; ``peak_rss_mb``, the peak resident memory of a pass.  With
``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every job matched its pinned value, 1 when one did not, and 2 when
the program or the arguments are missing.  Details, including the run
metadata and the spans of a traced run, go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS

SETUP_PROBES = 7
MIN_PASSES = 2
RUN_LIMIT_S = 170.0   # every run must end within 180 s
WORKER = Path(__file__).with_name("worker.py")
RESULTS_DIR = ".perfbench"


class WorkerFailed(Exception):
    pass


class CountsDiffer(Exception):
    pass


class Runner:
    """Starts worker interpreters against one checkout, within one deadline."""

    def __init__(self, root: Path, jobs: list[workloads.Job]):
        self.root = root
        self.jobs = jobs
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")

    def __call__(self, mode: str) -> dict:
        request = {"mode": mode,
                   "jobs": [job.as_request(i) for i, job in enumerate(self.jobs)]}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed("out of time for the run")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER)], input=json.dumps(request),
                capture_output=True, text=True, cwd=self.root, env=self.env,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} pass still running at the "
                               f"{RUN_LIMIT_S:.0f} s limit") from None
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} pass exited with {proc.returncode}: "
                               + proc.stderr.strip()[-2000:])
        return json.loads(proc.stdout.splitlines()[-1])


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4g} median={q2:.4g} q3={q3:.4g} n={len(values)}"


def passes_until(seconds: float, run_pass, at_least: int) -> None:
    """Call ``run_pass`` until the next call would end after ``seconds``."""
    start = time.monotonic()
    done = 0
    while True:
        before = time.monotonic()
        run_pass()
        done += 1
        last = time.monotonic() - before
        if done >= at_least and time.monotonic() - start + last > seconds:
            return


def check_pass(reply: dict, jobs: list[workloads.Job], pinned: dict,
               failures: list[str]) -> None:
    for entry in reply["jobs"]:
        job = jobs[entry["id"]]
        why = workloads.mismatch(job, entry["output"], entry["error"], pinned)
        if why is not None:
            failures.append(f"{job.key} (spec {job.spec}): {why}")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass

def layer_metrics(reply: dict) -> dict[str, float]:
    calls = reply["trace"]["calls"]
    tallies = reply["trace"]["tallies"]

    def count(name):
        return calls.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return calls.get(name, [0, 0.0, 0.0])[2]

    def per_call(name, scale):
        n = count(name)
        return self_s(name) / n * scale if n else 0.0

    decide = "garside.JoinEngine.decide"
    metrics = {f"{layer}.self_s": sum(rec[2] for key, rec in calls.items()
                                      if key.split(".", 1)[0] == layer)
               for layer in LAYERS}
    metrics.update({
        "scalars.sign_calls": count("scalars.FieldContext.sign"),
        "scalars.sign_s": self_s("scalars.FieldContext.sign"),
        "scalars.sign_us_per_call": per_call("scalars.FieldContext.sign", 1e6),
        "scalars.mul_calls": count("scalars.Scalar.__mul__"),
        "system.reflect_id_calls": count("system.CoxeterSystem.reflect_id"),
        "system.reflect_id_s": self_s("system.CoxeterSystem.reflect_id"),
        "system.reflect_id_us_per_call":
            per_call("system.CoxeterSystem.reflect_id", 1e6),
        "system.interned_roots": reply["interned_roots"],
        "smallroots.table_calls": count("smallroots.build_small_roots"),
        "smallroots.table_s": self_s("smallroots.build_small_roots"),
        "smallroots.cone_member_calls": count("smallroots.cone_member"),
        "smallroots.cone_member_s": self_s("smallroots.cone_member"),
        "smallroots.cone_member_ms_per_call":
            per_call("smallroots.cone_member", 1e3),
        "elements.mult_left_calls": count("elements.mult_left"),
        "elements.mult_left_s": self_s("elements.mult_left"),
        "elements.mult_left_us_per_call": per_call("elements.mult_left", 1e6),
        "elements.weak_leq_calls": count("elements.weak_leq"),
        "garside.low_elements_s": self_s("garside.low_elements"),
        "garside.low_size": tallies["low_size"],
        "garside.closure_s": self_s("garside.garside_closure"),
        "garside.closure_size": tallies["closure_size"],
        "garside.join_decide_calls": count(decide),
        "garside.join_decide_s": self_s(decide),
        "garside.join_decide_us_per_call": per_call(decide, 1e6),
        "garside.join_found_ratio":
            tallies["join_found"] / count(decide) if count(decide) else 0.0,
        "garside.verify_s": self_s("garside.verify_shadow"),
        "garside.project_calls": count("garside.project"),
        "garside.project_s": self_s("garside.project"),
        "automata.canonical_s": self_s("automata.build_canonical_automaton"),
        "automata.canonical_states": tallies["canonical_states"],
        "automata.minimize_s": self_s("automata.minimize"),
        "automata.minimal_states": tallies["minimal_states"],
        "automata.shadow_build_s": self_s("automata.build_shadow_automaton"),
        "automata.isomorphic_s": self_s("automata.isomorphic"),
        "automata.shortest_words_s": self_s("automata.shortest_words"),
        "trace.wall_s": reply["wall_s"],
    })
    return metrics


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def traced_metrics(untraced: list[dict], traced: list[dict],
                   units: dict[str, str]) -> dict:
    """Medians over the traced passes; counts must repeat exactly."""
    per_pass = [layer_metrics(reply) for reply in traced]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units.get(name) in ("count", "ratio") and len(set(values)) > 1:
            raise CountsDiffer(f"count {name} did not repeat: {values}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    return metrics


def print_layer_report(reply: dict, metrics: dict) -> None:
    calls = reply["trace"]["calls"]
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print(f"layer self time (of {total:.3f} s inside traced calls):")
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        s = metrics[f"{layer}.self_s"]
        print(f"  {layer:12s} {s:9.3f} s  {100 * s / total:5.1f}%")
    print("busiest traced functions (calls, total s, self s):")
    for key, (n, tot, own) in sorted(calls.items(),
                                     key=lambda kv: -kv[1][2])[:15]:
        print(f"  {key:45s} {n:9d} {tot:9.3f} {own:9.3f}")
    print("per-call self time (self s / calls, base in parentheses):")
    for name in metrics:
        if name.endswith("_per_call"):
            base = name.rsplit("_", 3)[0] + "_calls"
            unit = name.rsplit("_", 3)[1]
            print(f"  {name:40s} {metrics[name]:10.3f} {unit}"
                  f"  ({metrics[base]} calls)")


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "coxauto" / "__init__.py").is_file():
        print(f"perfbench: no coxauto package under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    jobs = workloads.jobs_for(args.workload, args.seed)
    units = declared_metrics(root, args.trace)
    pinned = workloads.load_pinned()
    run = Runner(root, jobs)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(root)}
    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))

    failures: list[str] = []   # one line per failed job
    problems: list[str] = []   # failures of the run itself
    untraced: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []
    try:
        if args.trace:
            def pair():
                untraced.append(run("run"))
                traced.append(run("trace"))
            passes_until(args.seconds, pair, 1)
        else:
            setup = [run("setup")["setup_s"] for _ in range(SETUP_PROBES)]
            passes_until(args.seconds, lambda: untraced.append(run("run")),
                         MIN_PASSES)
    except WorkerFailed as exc:
        problems.append(f"every job of a pass failed: {exc}")
    replies = untraced + traced
    for reply in replies:
        check_pass(reply, jobs, pinned, failures)
    lost = len(jobs) if problems else 0   # the jobs of the pass that failed
    attempted = len(jobs) * len(replies) + lost
    failed = len(failures) + lost

    if replies:
        meta["jobs"] = [
            {"job": jobs[e["id"]].key, "spec": jobs[e["id"]].spec,
             "field_n": e["field_n"], "field_degree": e["field_degree"]}
            for e in replies[0]["jobs"]]
        for e in meta["jobs"]:
            print(f"job {e['job']}: spec {e['spec']} N={e['field_n']} "
                  f"degree={e['field_degree']}")
    metrics: dict = {}
    if untraced and not args.trace:
        walls = [r["wall_s"] for r in untraced]
        rss = [r["peak_rss_mb"] for r in untraced]
        setup += [r["setup_s"] for r in untraced]
        print(f"wall_s {quartiles(walls)}")
        print(f"setup_s {quartiles(setup)}")
        print(f"peak_rss_mb {quartiles(rss)}")
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(rss)}
    if traced and not failures:
        try:
            metrics = traced_metrics(untraced, traced, units)
        except CountsDiffer as exc:
            problems.append(str(exc))
        else:
            print_layer_report(traced[0], metrics)
    if metrics and set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for line in failures + problems:
        print(f"FAILED {line}")

    out_dir = root / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"meta": meta, "failures": failures + problems, "metrics": metrics,
         "setup_s": setup, "passes": untraced, "traced_passes": traced},
        indent=1))
    print(f"details written to {out.relative_to(root)}")

    print(json.dumps({
        "correct": not (failures or problems), "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics}}))
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
