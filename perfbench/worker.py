"""One pass of a workload in a fresh interpreter.

Reads a request on stdin: ``{"mode": "setup" | "run" | "trace", "jobs": [...]}``.
Every mode times set-up: importing coxauto and parsing each group of the
jobs.  ``run`` then runs the jobs one at a time and times them; ``trace``
does the same with the layer tracer installed.  Writes one JSON object on
stdout.  Run by ``run.py`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _output(kind: str, result) -> dict:
    if kind == "stats_row":
        fields = dict(zip(result.CSV_HEADER, result.csv_fields()))
        del fields["group"]
        return fields
    return {"verdict": result.verdict.value, "numbers": result.numbers}


def main() -> None:
    request = json.load(sys.stdin)
    jobs = request["jobs"]
    clock = time.perf_counter

    start = clock()
    from coxauto import conjectures, parse_coxeter_system
    systems = {}
    for job in jobs:
        if job["spec"] not in systems:
            systems[job["spec"]] = parse_coxeter_system(job["spec"])
    reply = {"setup_s": clock() - start}
    if request["mode"] == "setup":
        print(json.dumps(reply))
        return

    tracer = None
    if request["mode"] == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    start = clock()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        job_start = clock()
        system = systems[job["spec"]]
        try:
            if job["kind"] == "stats_row":
                value = conjectures.stats_row(system, group_name=job["spec"])
            else:
                value = conjectures.check_conjecture(
                    system, job["kind"], level=job["level"],
                    group_name=job["spec"])
            error = None
        except Exception:  # a failing job is reported and the pass goes on
            value, error = None, traceback.format_exc(limit=4)
        results.append((job, value, error, clock() - job_start))
    reply["wall_s"] = clock() - start
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        reply["trace"] = tracer.report()
    reply["interned_roots"] = sum(s.num_interned_roots()
                                  for s in systems.values())
    reply["jobs"] = [
        {"id": job["id"], "seconds": seconds, "error": error,
         "output": None if error else _output(job["kind"], value),
         "field_n": systems[job["spec"]].ctx.N,
         "field_degree": systems[job["spec"]].ctx.degree}
        for job, value, error, seconds in results]
    print(json.dumps(reply))


if __name__ == "__main__":
    main()
