"""Layer tracing for the benchmark's traced run, installed from outside the package.

``Tracer.install`` wraps every public function and public method of the
layer modules.  Each wrapped call adds to a per-function count, total time
and self time (total minus the time of wrapped calls made inside it).
Stage-level calls also record a span: name, start, end, parent span and
job id.  Spans stay in memory until the worker reports them.

The package imports with ``from .x import f``, so a wrapped module-level
function is rebound in every ``coxauto`` module that holds the original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("scalars", "system", "smallroots", "elements", "garside",
          "automata", "conjectures")

# Calls that get a span; the first two are the root span of a job.
STAGES = frozenset({
    "stats_row", "check_conjecture", "build_small_roots", "low_elements",
    "garside_closure", "verify_shadow", "build_canonical_automaton",
    "build_shadow_automaton", "minimize", "isomorphic", "shortest_words"})

# Non-public methods traced as well: scalar multiplication is a hot primitive.
EXTRA_METHODS = frozenset({"Scalar.__mul__", "Scalar.__rmul__"})


def _found(tracer, result):
    if result[0].name == "FOUND":
        tracer.tallies["join_found"] += 1


def _tally(name, size):
    def hook(tracer, result):
        tracer.tallies[name] += size(result)
    return hook


# Output sizes taken from the results of wrapped calls, summed over a pass.
HOOKS = {
    "JoinEngine.decide": _found,
    "garside_closure": _tally("closure_size", len),
    "low_elements": _tally("low_size", len),
    "build_canonical_automaton": _tally("canonical_states",
                                        lambda r: r[0].num_states),
    "minimize": _tally("minimal_states", lambda r: r.num_states),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, list] = {}   # "layer.name" -> [calls, total_s, self_s]
        self.tallies = dict.fromkeys(
            ("join_found", "closure_size", "low_size", "canonical_states",
             "minimal_states"), 0)
        self.spans: list[list] = []        # [name, start, end, parent, job]
        self.job: int | None = None
        self._frames: list[list[float]] = [[0.0]]  # child time per open call
        self._open_spans: list[int] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"coxauto.{layer}")
                   for layer in LAYERS}
        package = [m for name, m in sys.modules.items()
                   if name == "coxauto" or name.startswith("coxauto.")]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif _traceable(name, obj):
                    wrapped = self._wrap(layer, name, obj)
                    for mod in package:
                        if vars(mod).get(name) is obj:
                            setattr(mod, name, wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        done: dict[int, object] = {}
        for attr, fn in list(vars(cls).items()):
            name = f"{cls.__name__}.{attr}"
            if name not in EXTRA_METHODS and not _traceable(attr, fn):
                continue
            if id(fn) not in done:  # aliases such as __rmul__ = __mul__
                done[id(fn)] = self._wrap(layer, name, fn)
            setattr(cls, attr, done[id(fn)])

    def _wrap(self, layer: str, name: str, fn):
        record = self.calls.setdefault(f"{layer}.{name}", [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter
        hook = HOOKS.get(name)
        stage = name in STAGES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if stage:
                span = self._open_span(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                frames[-1][0] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if stage:
                    span[1], span[2] = start, end
                    self._open_spans.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _open_span(self, name: str) -> list:
        parent = self._open_spans[-1] if self._open_spans else None
        span = [name, 0.0, 0.0, parent, self.job]
        self._open_spans.append(len(self.spans))
        self.spans.append(span)
        return span

    def report(self) -> dict:
        """A snapshot, so that later calls do not change it."""
        return {"calls": {k: list(v) for k, v in self.calls.items()},
                "tallies": dict(self.tallies),
                "spans": [list(span) for span in self.spans]}


def _traceable(name: str, obj) -> bool:
    return (not name.startswith("_") and inspect.isfunction(obj)
            and not inspect.isgeneratorfunction(obj))
