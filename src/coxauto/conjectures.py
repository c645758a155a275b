"""Reproducible statistics rows and conjecture reports.

Every verdict is per-instance evidence, never a universal claim; reports
embed the caps and budgets that produced them, and failures carry
machine-replayable witnesses (reading words for a merged state pair, or
the offending join pair for a non-shadow).
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .automata import (Automaton, build_canonical_automaton,
                       build_shadow_automaton, isomorphic, minimize)
from .errors import InternalInvariant, InvalidGroupSpec
from .garside import (VerdictStatus, garside_closure, low_elements,
                      verify_shadow)
from .smallroots import (build_small_roots, small_inversion_set,
                         spherical_analysis)
from .system import CoxeterSystem


@dataclass(frozen=True)
class StatsRow:
    group: str
    canonical_states: int      # |A_0|
    shadow_states: int         # |A_{S~}|
    minimal_states: int        # |A_min|
    small_roots: int           # |Sigma|
    spherical_small_roots: int  # |Phi+_sph n Sigma|
    cap_stable: bool

    CSV_HEADER = ("group", "a0", "a_shadow", "a_min", "sigma", "sigma_sph",
                  "cap_stable")

    def csv_fields(self) -> tuple:
        return (self.group, self.canonical_states, self.shadow_states,
                self.minimal_states, self.small_roots,
                self.spherical_small_roots, self.cap_stable)


def stats_row(sys: CoxeterSystem, group_name: str | None = None,
              cap: int | None = None) -> StatsRow:
    """One row of the numeric table: automaton sizes and small-root counts."""
    table = build_small_roots(sys, 0)
    sph, _ = spherical_analysis(table)
    canonical, _ = build_canonical_automaton(sys, table)
    shadow = garside_closure(sys, cap=cap)
    shadow_auto = build_shadow_automaton(shadow, assume_verified=True)
    minimal = minimize(canonical)
    name = group_name or sys.name or f"rank-{sys.rank}"
    return StatsRow(group=name,
                    canonical_states=canonical.num_states,
                    shadow_states=shadow_auto.num_states,
                    minimal_states=minimal.num_states,
                    small_roots=len(table),
                    spherical_small_roots=len(sph),
                    cap_stable=bool(shadow.cap_stable))


def stats_csv(rows: Sequence[StatsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(StatsRow.CSV_HEADER)
    for row in rows:
        writer.writerow(row.csv_fields())
    return buf.getvalue()


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConjectureReport:
    group: str
    conjecture: str
    verdict: Verdict
    numbers: dict
    witnesses: tuple[tuple[str, ...], ...] = ()
    reason: str = ""
    cap: int | None = None

    def to_json(self) -> str:
        payload = {
            "group": self.group,
            "conjecture": self.conjecture,
            "verdict": self.verdict.value,
            "numbers": self.numbers,
            "witnesses": [list(w) for w in self.witnesses],
            "reason": self.reason,
            "cap": self.cap,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _merged_state_witness(auto: Automaton, minimized: Automaton,
                          sys: CoxeterSystem) -> tuple[tuple[str, ...], ...]:
    """Reading words for a pair of distinct states merged by minimization.

    In rank 3 the recipe of the non-minimality construction is tried first:
    with m(s,u) = 2, the states reached by reading su and tsu merge.
    """
    assert minimized.state_map is not None
    if sys.rank == 3:
        for s, t, u in itertools.permutations(range(3)):
            if sys.matrix.m(s, u) != 2:
                continue
            q1 = auto.read((s, u))
            q2 = auto.read((t, s, u))
            if (q1 is not None and q2 is not None and q1 != q2
                    and minimized.state_map[q1] == minimized.state_map[q2]):
                words = ((s, u), (t, s, u))
                return (tuple(sys.word_to_string(w) for w in words),)
    seen: dict[int, int] = {}
    for q, cls in enumerate(minimized.state_map):
        if cls in seen:
            pair = _shortest_words_to(auto, (seen[cls], q))
            return (tuple(sys.word_to_string(w) for w in pair),)
        seen[cls] = q
    return ()


def _shortest_words_to(auto: Automaton, targets: Sequence[int]
                       ) -> list[tuple[int, ...]]:
    """A shortest reading word for each target state: the word a BFS from
    the initial state, letters in order, finds first.

    The BFS keeps one parent pointer per state and stops once every target
    is found; the order in which a BFS tree finds states does not depend on
    when it stops.
    """
    start, k = auto.initial, auto.alphabet_size
    # via[t] = q * k + a: t was found from q by letter a; the start is
    # marked found, and is never read as a move
    via = [-1] * auto.num_states
    via[start] = 0
    missing = set(targets) - {start}
    queue = deque([start])
    while missing and queue:
        q = queue.popleft()
        for a, t in enumerate(auto.delta[q]):
            if t >= 0 and via[t] < 0:
                via[t] = q * k + a
                missing.discard(t)
                queue.append(t)
    if missing:
        raise InternalInvariant("automaton is not trim")
    words = []
    for q in targets:
        word = []
        while q != start:
            q, a = divmod(via[q], k)
            word.append(a)
        words.append(tuple(reversed(word)))
    return words


def check_conjecture(sys: CoxeterSystem, which: str, level: int = 0,
                     cap: int | None = None,
                     group_name: str | None = None) -> ConjectureReport:
    """Evaluate one conjecture instance.

    conj1: the smallest-shadow automaton is minimal.
    conj2: the canonical automaton is minimal iff all small roots are
    spherical (the forward implication is a theorem; the report compares
    both sides).
    dyho1(n): the n-low elements form a Garside shadow.
    dyho2(n): w -> Sigma_n(w) is a bijection from the n-low elements onto
    the canonical automaton's states.
    """
    name = group_name or sys.name or f"rank-{sys.rank}"
    if which == "conj1":
        shadow = garside_closure(sys, cap=cap)
        auto = build_shadow_automaton(shadow, assume_verified=True)
        minimal = minimize(auto)
        numbers = {"a_shadow": auto.num_states, "a_min": minimal.num_states,
                   "shadow_size": len(shadow)}
        if not shadow.cap_stable:
            return ConjectureReport(name, which, Verdict.INDETERMINATE, numbers,
                                    reason="closure not cap-stable",
                                    cap=shadow.cap)
        if isomorphic(auto, minimal):
            return ConjectureReport(name, which, Verdict.HOLDS, numbers)
        return ConjectureReport(
            name, which, Verdict.FAILS, numbers,
            witnesses=_merged_state_witness(auto, minimal, sys))
    if which == "conj2":
        table = build_small_roots(sys, 0)
        _, sigma_eq_sph = spherical_analysis(table)
        auto, _ = build_canonical_automaton(sys, table)
        minimal = minimize(auto)
        is_minimal = minimal.num_states == auto.num_states
        numbers = {"a0": auto.num_states, "a_min": minimal.num_states,
                   "sigma": len(table), "minimal": is_minimal,
                   "sigma_eq_sph": sigma_eq_sph}
        if is_minimal == sigma_eq_sph:
            witnesses = ()
            if not is_minimal:
                witnesses = _merged_state_witness(auto, minimal, sys)
            return ConjectureReport(name, which, Verdict.HOLDS, numbers,
                                    witnesses=witnesses)
        return ConjectureReport(name, which, Verdict.FAILS, numbers,
                                witnesses=_merged_state_witness(auto, minimal, sys)
                                if not is_minimal else ())
    if which == "dyho1":
        table = build_small_roots(sys, level)
        low = low_elements(sys, level, table)
        # join closure of L_n is a theorem; the open parts, suffix closure
        # and membership, stay genuinely tested by verify_shadow
        verdict = verify_shadow(low, cap=cap, universe=low)
        numbers = {"n": level, "low_size": len(low)}
        if verdict.status is VerdictStatus.SHADOW:
            return ConjectureReport(name, which, Verdict.HOLDS, numbers)
        if verdict.status is VerdictStatus.NOT_SHADOW:
            return ConjectureReport(name, which, Verdict.FAILS, numbers,
                                    witnesses=(verdict.witness,),
                                    reason=verdict.reason)
        return ConjectureReport(name, which, Verdict.INDETERMINATE, numbers,
                                reason=verdict.reason, cap=verdict.cap)
    if which == "dyho2":
        table = build_small_roots(sys, level)
        low = low_elements(sys, level, table)
        auto, _ = build_canonical_automaton(sys, table)
        images = {small_inversion_set(table, w) for w in low}
        if len(images) != len(low):
            raise InternalInvariant(
                "small inversion sets are not injective on low elements")
        numbers = {"n": level, "low_size": len(low), "lambda": auto.num_states}
        if len(images) == auto.num_states:
            return ConjectureReport(name, which, Verdict.HOLDS, numbers)
        return ConjectureReport(name, which, Verdict.FAILS, numbers)
    raise InvalidGroupSpec(f"unknown conjecture {which!r}")
