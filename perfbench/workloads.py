"""Workloads of the coxauto benchmark: seeded job lists and the pinned-output check.

A job is one call of the public API (``stats_row`` or ``check_conjecture``)
on one group.  Each workload is a fixed list of jobs; the seed permutes the
job order, except for ``finite_shadows``, and for ``hyperbolic_low`` draws
the generator labelling of each triangle group.  The expected output of
every job is pinned in ``pinned.json`` next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")

# The paper's published table (``coxauto table``).
AFFINE_TABLE = ("~A2", "~C2", "~G2", "~A3", "~C3", "~B3")
# Conjecture 2 on the largest canonical automata, ~D5 being the rank-5 stretch.
CANONICAL_STRETCH = ("~D5", "~F4", "~C4", "~B4")
# Conjecture 1 on finite groups, where the closure of S is all of W.
FINITE_SHADOWS = ("A5", "B4", "D4", "H3")
# One hyperbolic triangle group (m12, m13, m23) per field-degree band
# {2}, {3, 4}, {6, 8}, {12}: N = 4, 7, 21 and 28.  The groups are fixed and
# the seed draws their labelling, because the cost of a group drawn at
# random from a band varies about sixfold, which would make the run-to-run
# spread of wall_s larger than any useful regression bound.
HYPERBOLIC_PANEL = ((4, 4, 4), (2, 7, 7), (2, 3, 7), (4, 4, 7))
DEGREE_BANDS = ((2,), (3, 4), (6, 8), (12,))
HYPERBOLIC_KINDS = (("conj2", 0), ("dyho1", 1), ("dyho2", 1))

WORKLOADS = ("affine_table", "canonical_stretch", "finite_shadows",
             "hyperbolic_low")


@dataclass(frozen=True)
class Job:
    kind: str    # "stats_row" or a conjecture name for check_conjecture
    spec: str    # the group spec handed to parse_coxeter_system
    group: str   # the group up to relabelling; keys the pinned values
    level: int

    @property
    def key(self) -> str:
        return f"{self.kind} {self.group} n={self.level}"

    def as_request(self, job_id: int) -> dict:
        return {"id": job_id, "kind": self.kind, "spec": self.spec,
                "level": self.level}


def triangle_spec(labels) -> str:
    return "triangle({})".format(",".join(str(m) for m in labels))


def hyperbolic_draw(seed: int) -> list[tuple[int, int, int]]:
    """The labelled triangle groups of one seed, one per band, in band order.

    Any permutation of the three edge labels is a renumbering of the
    generators of the same group, so the draw changes the input the program
    sees without changing the group or its pinned invariants.
    """
    rng = random.Random(f"hyperbolic_low/{seed}")
    draw = []
    for labels in HYPERBOLIC_PANEL:
        labels = list(labels)
        rng.shuffle(labels)
        draw.append(tuple(labels))
    return draw


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of a workload, in the order the seed gives it.

    ``finite_shadows`` keeps its order: each system keeps its caches until
    the pass ends, and running B4 before A5 raises the peak RSS of a pass
    by about 5 MB, which would make ``peak_rss_mb`` vary with the seed.
    """
    if workload == "affine_table":
        jobs = [Job("stats_row", g, g, 0) for g in AFFINE_TABLE]
    elif workload == "canonical_stretch":
        jobs = [Job("conj2", g, g, 0) for g in CANONICAL_STRETCH]
    elif workload == "finite_shadows":
        return [Job("conj1", g, g, 0) for g in FINITE_SHADOWS]
    elif workload == "hyperbolic_low":
        jobs = [Job(kind, triangle_spec(labelled), triangle_spec(group), level)
                for group, labelled in zip(HYPERBOLIC_PANEL,
                                           hyperbolic_draw(seed))
                for kind, level in HYPERBOLIC_KINDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}/order/{seed}").shuffle(jobs)
    return jobs


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())["jobs"]


def mismatch(job: Job, output: dict | None, error: str | None,
             pinned: dict) -> str | None:
    """Why a job's result is wrong, or None when it equals its pinned value."""
    if error is not None:
        return f"raised: {error.strip().splitlines()[-1]}"
    entry = pinned.get(job.key)
    if entry is None:
        return "no pinned value"
    if output != entry["expect"]:
        return f"got {json.dumps(output, sort_keys=True)}, " \
               f"pinned {json.dumps(entry['expect'], sort_keys=True)}"
    return None
