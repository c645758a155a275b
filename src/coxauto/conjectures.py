"""Reproducible statistics rows and conjecture reports.

Every verdict is per-instance evidence, never a universal claim, and
exact.  Failures carry machine-replayable witnesses (reading words for a
merged state pair, or an element and its missing suffix for a non-shadow).
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
from collections import deque
from typing import NamedTuple, Sequence

from .automata import (Automaton, build_canonical_automaton,
                       build_shadow_automaton, nerode_classes)
from .errors import InternalInvariant, InvalidGroupSpec
from .garside import (check_generated_and_suffix_closed, garside_closure,
                      low_elements)
from .smallroots import build_small_roots, spherical_analysis
from .system import CoxeterSystem


class StatsRow(NamedTuple):
    group: str
    canonical_states: int      # |A_0|
    shadow_states: int         # |A_{S~}| = |Gar(S)|
    minimal_states: int        # |A_min|
    small_roots: int           # |Sigma|
    spherical_small_roots: int  # |Phi+_sph n Sigma|
    # Every closure is exact, so this column is always True.  It stays in
    # the CSV because perfbench/pinned.json pins it for every table row.
    cap_stable: bool = True

    CSV_HEADER = ("group", "a0", "a_shadow", "a_min", "sigma", "sigma_sph",
                  "cap_stable")

    def csv_fields(self) -> tuple:
        return (self.group, self.canonical_states, self.shadow_states,
                self.minimal_states, self.small_roots,
                self.spherical_small_roots, self.cap_stable)


def stats_row(sys: CoxeterSystem, group_name: str | None = None) -> StatsRow:
    """One row of the numeric table: automaton sizes, with A_S~ counted as
    |Gar(S)| and A_min as the Nerode classes of A_0 rather than built, and
    small-root counts."""
    table = build_small_roots(sys, 0)
    sph, _ = spherical_analysis(table)
    canonical, _ = build_canonical_automaton(sys, 0)
    name = group_name or sys.name or f"rank-{sys.rank}"
    return StatsRow(group=name,
                    canonical_states=canonical.num_states,
                    shadow_states=len(garside_closure(sys)),
                    minimal_states=len(set(nerode_classes(canonical))),
                    small_roots=len(table),
                    spherical_small_roots=len(sph))


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


class ConjectureReport(NamedTuple):
    group: str
    conjecture: str
    verdict: Verdict
    numbers: dict
    witnesses: tuple[tuple[str, ...], ...] = ()
    reason: str = ""

    def to_json(self) -> str:
        payload = {
            "group": self.group,
            "conjecture": self.conjecture,
            "verdict": self.verdict.value,
            "numbers": self.numbers,
            "witnesses": [list(w) for w in self.witnesses],
            "reason": self.reason,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _merged_state_witness(auto: Automaton, keys: Sequence[int],
                          sys: CoxeterSystem) -> tuple[tuple[str, ...], ...]:
    """Reading words for a pair of distinct states in one Nerode class,
    states q and q' being equivalent iff ``keys[q] == keys[q']``.

    In rank 3 the recipe of the non-minimality construction is tried first:
    with m(s,u) = 2, the states reached by reading su and tsu merge.
    """
    if sys.rank == 3:
        for s, t, u in itertools.permutations(range(3)):
            if sys.matrix.m(s, u) != 2:
                continue
            q1 = auto.read((s, u))
            q2 = auto.read((t, s, u))
            if (q1 is not None and q2 is not None and q1 != q2
                    and keys[q1] == keys[q2]):
                words = ((s, u), (t, s, u))
                return (tuple(sys.word_to_string(w) for w in words),)
    seen: dict[int, int] = {}
    for q, key in enumerate(keys):
        if key in seen:
            pair = _shortest_words_to(auto, (seen[key], q))
            return (tuple(sys.word_to_string(w) for w in pair),)
        seen[key] = q
    return ()


def _shortest_words_to(auto: Automaton, targets: Sequence[int]
                       ) -> list[tuple[int, ...]]:
    """A shortest reading word for each target state: the word a BFS from
    the initial state, letters in order, finds first.

    The BFS keeps one parent pointer per state and stops once every target
    is found; the order in which a BFS tree finds states does not depend on
    when it stops.
    """
    start, k, moves = auto.initial, auto.alphabet_size, auto.moves
    # via[t] = q * k + a, the code of the move from q by letter a that
    # found t; the start is marked found, and is never read as a move
    via = [-1] * auto.num_states
    via[start] = 0
    missing = set(targets) - {start}
    queue = deque([start])
    while missing and queue:
        code = queue.popleft() * k
        for t in moves[code:code + k]:
            if t >= 0 and via[t] < 0:
                via[t] = code
                missing.discard(t)
                queue.append(t)
            code += 1
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
                     group_name: str | None = None) -> ConjectureReport:
    """Evaluate one conjecture instance.

    conj1: the smallest-shadow automaton A_B is minimal: A_B is trim and
    reads the words of A_0, so iff |Gar(S)| is the number of classes of A_0.
    conj2: the canonical automaton is minimal iff all small roots are
    spherical (the forward implication is a theorem; the report compares
    both sides).
    dyho1(n): the n-low elements form a Garside shadow.  Their join
    closure is a theorem, so only S and e membership and suffix closure
    are tested, with the reasons and witnesses of ``verify_shadow``.
    dyho2(n): w -> Sigma_n(w) is a bijection from the n-low elements onto
    the canonical automaton's states; the search refuses a non-injective one.
    """
    name = group_name or sys.name or f"rank-{sys.rank}"
    if which == "conj1":
        shadow = garside_closure(sys)
        canonical, _ = build_canonical_automaton(sys, 0)
        a_min = len(set(nerode_classes(canonical)))
        numbers = {"a_shadow": len(shadow), "a_min": a_min,
                   "shadow_size": len(shadow)}
        if a_min == len(shadow):
            return ConjectureReport(name, which, Verdict.HOLDS, numbers)
        auto = build_shadow_automaton(shadow)
        return ConjectureReport(
            name, which, Verdict.FAILS, numbers,
            witnesses=_merged_state_witness(auto, nerode_classes(auto), sys))
    if which == "conj2":
        table = build_small_roots(sys, 0)
        _, sigma_eq_sph = spherical_analysis(table)
        auto, _ = build_canonical_automaton(sys, 0)
        keys = nerode_classes(auto)
        a_min = len(set(keys))
        is_minimal = a_min == auto.num_states
        numbers = {"a0": auto.num_states, "a_min": a_min,
                   "sigma": len(table), "minimal": is_minimal,
                   "sigma_eq_sph": sigma_eq_sph}
        verdict = Verdict.HOLDS if is_minimal == sigma_eq_sph else Verdict.FAILS
        return ConjectureReport(
            name, which, verdict, numbers,
            witnesses=() if is_minimal else _merged_state_witness(auto, keys, sys))
    if which == "dyho1":
        low = low_elements(sys, level)
        failure = check_generated_and_suffix_closed(low)
        numbers = {"n": level, "low_size": len(low)}
        if failure is None:
            return ConjectureReport(name, which, Verdict.HOLDS, numbers)
        return ConjectureReport(name, which, Verdict.FAILS, numbers,
                                witnesses=(failure.witness,),
                                reason=failure.reason)
    if which == "dyho2":
        low = low_elements(sys, level)
        auto, _ = build_canonical_automaton(sys, level)
        numbers = {"n": level, "low_size": len(low), "lambda": auto.num_states}
        if len(low) == auto.num_states:
            return ConjectureReport(name, which, Verdict.HOLDS, numbers)
        return ConjectureReport(name, which, Verdict.FAILS, numbers)
    raise InvalidGroupSpec(f"unknown conjecture {which!r}")
