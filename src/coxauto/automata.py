"""Deterministic partial automata over the generators, all states final.

Shadow automata have elements as states, with transitions through the
shadow projection; canonical automata have n-small inversion sets as
states.  Minimization runs Hopcroft partition refinement with an implicit
sink, and reports sizes on the trim partial automaton (the sink is
excluded, matching how state counts are quoted for these languages).
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Iterable, Sequence

from .elements import Element, _mask_bits, identity, mult_left
from . import garside
from .errors import BudgetExceeded, CapIndeterminate, ShadowViolation
from .garside import (Shadow, VerdictStatus, check_state_budget, project,
                      verify_shadow)
from .smallroots import SmallRootTable
from .system import CoxeterSystem


@dataclass
class Automaton:
    """Trim deterministic partial automaton; every state is accepting."""

    letter_labels: tuple[str, ...]
    payloads: Sequence
    initial: int
    delta: list[tuple[int, ...]]  # -1 marks a missing transition
    kind: str = "automaton"
    state_map: tuple[int, ...] | None = None  # set by minimize()

    @property
    def alphabet_size(self) -> int:
        return len(self.letter_labels)

    @property
    def num_states(self) -> int:
        return len(self.delta)

    def transitions(self):
        for q, row in enumerate(self.delta):
            for a, q2 in enumerate(row):
                if q2 >= 0:
                    yield q, a, q2

    def num_transitions(self) -> int:
        return sum(1 for _ in self.transitions())

    def read(self, word: Iterable[int]) -> int | None:
        q = self.initial
        for a in word:
            q = self.delta[q][a]
            if q < 0:
                return None
        return q

    def count_accepted(self, length: int) -> int:
        return self.counts_by_length(length)[length]

    def counts_by_length(self, max_length: int) -> list[int]:
        """Number of accepted words per length, by exact integer DP."""
        counts = [0] * self.num_states
        counts[self.initial] = 1
        out = [1]
        for _ in range(max_length):
            nxt = [0] * self.num_states
            for q, c in enumerate(counts):
                if c:
                    for q2 in self.delta[q]:
                        if q2 >= 0:
                            nxt[q2] += c
            counts = nxt
            out.append(sum(counts))
        return out

    def accepted_words(self, max_length: int) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        frontier = [((), self.initial)]
        out.add(())
        for _ in range(max_length):
            nxt = []
            for word, q in frontier:
                for a, q2 in enumerate(self.delta[q]):
                    if q2 >= 0:
                        w2 = word + (a,)
                        out.add(w2)
                        nxt.append((w2, q2))
            frontier = nxt
        return out

    def payload_label(self, q: int) -> str:
        p = self.payloads[q]
        if p is None:
            return f"q{q}"
        if isinstance(p, Element):
            return str(p)
        if isinstance(p, tuple):
            return "{" + ",".join(str(i) for i in p) + "}"
        return str(p)

    def to_dot(self, name: str = "automaton") -> str:
        lines = [f"digraph {name} {{", "  rankdir=LR;",
                 '  __start [shape=none, label=""];']
        for q in range(self.num_states):
            lines.append(f'  q{q} [shape=circle, label="{self.payload_label(q)}"];')
        lines.append(f"  __start -> q{self.initial};")
        for q, a, q2 in self.transitions():
            lines.append(f'  q{q} -> q{q2} [label="{self.letter_labels[a]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _default_labels(sys: CoxeterSystem) -> tuple[str, ...]:
    return tuple(str(s + 1) for s in range(sys.rank))


# ---------------------------------------------------------------------------
# Builders

def build_shadow_automaton(shadow: Shadow, *, assume_verified: bool = False,
                           cap: int | None = None) -> Automaton:
    """States are the shadow's elements; x goes via s to pi_B(s x)."""
    if not assume_verified:
        verdict = verify_shadow(shadow, cap=cap)
        if verdict.status is VerdictStatus.NOT_SHADOW:
            raise ShadowViolation(f"not a Garside shadow: {verdict.reason}")
        if verdict.status is VerdictStatus.INDETERMINATE_AT_CAP:
            raise CapIndeterminate(
                "shadow could not be verified within the join cap", verdict.cap)
    sys = shadow.system
    index = shadow._pos
    delta = []
    for el in shadow.elements:
        row = [-1] * sys.rank
        for s in range(sys.rank):
            if el.inv >> s & 1:
                continue
            target = project(shadow, mult_left(s, el))
            row[s] = index[target.inv]
        delta.append(tuple(row))
    initial = index[0]
    return Automaton(letter_labels=_default_labels(sys),
                     payloads=list(shadow.elements), initial=initial,
                     delta=delta, kind="shadow")


def build_canonical_automaton(sys: CoxeterSystem, table: SmallRootTable,
                              *, with_witness: bool = False
                              ) -> tuple[Automaton, list[Element] | None]:
    """The n-canonical automaton: states are reachable n-small inversion sets.

    Transition by s is defined iff a_s is not in the state, and sends A to
    {a_s} union (s(A) restricted to the table).  States are explored from
    the empty set; optionally a witness element reaching each state is kept.
    More than ``garside.STATE_BUDGET`` states raise ``BudgetExceeded``, at
    once when the system is affine at level 0 and more are predicted.

    A state is an int mask over the table's node ids.  s(A) is read off
    byte by byte: ``slices[s][j][b]`` is the mask of the images under s of
    the bits of byte value b in byte j of a state, so a transition costs
    one lookup per byte of the mask.
    """
    if table.system is not sys:
        raise ValueError("table from a different system")
    check_state_budget(sys, table.level)
    budget = garside.STATE_BUDGET
    rank = sys.rank
    nbytes = (len(table) + 7) // 8
    slices = [_byte_slices([1 << node.theta[s] if node.theta[s] >= 0 else 0
                            for node in table.nodes])
              for s in range(rank)]

    state_ids: dict[int, int] = {0: 0}
    masks: list[int] = [0]
    witnesses: list[Element] | None = [identity(sys)] if with_witness else None
    delta: list[tuple[int, ...]] = []
    # states are numbered as they are found, so a scan of the growing
    # list of masks expands them in BFS order
    for q, mask in enumerate(masks):
        mask_bytes = mask.to_bytes(nbytes, "little")
        row = [-1] * rank
        for s in range(rank):
            if mask >> s & 1:
                continue
            new_mask = 1 << s
            for images, b in zip(slices[s], mask_bytes):
                new_mask |= images[b]
            target = state_ids.get(new_mask)
            if target is None:
                target = len(masks)
                if target >= budget:
                    raise BudgetExceeded(
                        f"canonical automaton outgrew the state budget "
                        f"of {budget:,}")
                state_ids[new_mask] = target
                masks.append(new_mask)
                if witnesses is not None:
                    witnesses.append(mult_left(s, witnesses[q]))
            row[s] = target
        delta.append(tuple(row))
    auto = Automaton(letter_labels=_default_labels(sys),
                     payloads=_MaskPayloads(masks), initial=0, delta=delta,
                     kind=f"canonical-{table.level}")
    return auto, witnesses


def _byte_slices(image: list[int]) -> list[list[int]]:
    """Per byte j of a mask, the table whose entry b is the OR of
    image[8j + i] over the bits i of b.

    Each table is built by doubling: the entries with bit i set are those
    without it, ORed with the image of bit i.  The last table only covers
    the bits that a mask can hold.
    """
    slices = []
    for j in range(0, len(image), 8):
        row = [0]
        for bit in image[j:j + 8]:
            row += [m | bit for m in row]
        slices.append(row)
    return slices


class _MaskPayloads(Sequence):
    """Read-only payloads over int state masks: item q is the tuple of the
    set bits of mask q, decoded when it is read."""

    __slots__ = ("_masks",)

    def __init__(self, masks: list[int]):
        self._masks = masks

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, q):
        if isinstance(q, slice):
            return [tuple(_mask_bits(mask)) for mask in self._masks[q]]
        return tuple(_mask_bits(self._masks[q]))


# ---------------------------------------------------------------------------
# Minimization

def minimize(auto: Automaton) -> Automaton:
    """Hopcroft partition refinement with an implicit sink.

    A missing transition counts as a move to a non-accepting sink, so the
    first splitter, the block of all states, separates states by the
    letters they can read, and no completed copy of ``delta`` is built.
    Each split puts its smaller half on the worklist (Hopcroft 1971; the
    partial-DFA form of Valmari & Lehtinen 2008).

    The returned automaton is trim and excludes the sink.  Its classes are
    numbered by a BFS from the initial class, letters in order.  Its
    ``state_map`` sends each original state to its class, or to -1 when
    the state is equivalent to no state reachable from the initial one.
    """
    n = auto.num_states
    delta = auto.delta
    start, pred = _predecessor_index(delta, auto.alphabet_size)
    # Refinable partition: block b is elems[first[b]:end[b]], and the states
    # of b marked by the current letter are elems[first[b]:mid[b]].
    elems = list(range(n))
    loc = elems[:]
    blk = [0] * n
    first, end, mid = [0], [n], [0]
    pending = [0]

    def split(touched: list[int]) -> None:
        for c in touched:
            lo, m, hi = first[c], mid[c], end[c]
            mid[c] = lo
            if m == hi:
                continue
            # The smaller part becomes the new block, which is pending
            # whether or not c still is.
            nb = len(first)
            if m - lo <= hi - m:
                first.append(lo)
                end.append(m)
                first[c] = mid[c] = m
                part = elems[lo:m]
            else:
                first.append(m)
                end.append(hi)
                end[c] = m
                part = elems[m:hi]
            mid.append(first[nb])
            for p in part:
                blk[p] = nb
            pending.append(nb)

    while pending:
        b = pending.pop()
        # predecessors of the whole splitter, read before it can split,
        # as codes a * n + p sorted by letter
        xs = []
        for q in elems[first[b]:end[b]]:
            xs += pred[start[q]:start[q + 1]]
        xs.sort()
        touched: list[int] = []
        base = limit = 0
        for x in xs:
            if x >= limit:  # the first transition by the next letter
                if touched:
                    split(touched)
                    touched = []
                base = x - x % n
                limit = base + n
            p = x - base
            c = blk[p]
            j = mid[c]
            if j == first[c]:
                touched.append(c)
            i = loc[p]
            r = elems[j]
            elems[j] = p
            loc[p] = j
            elems[i] = r
            loc[r] = i
            mid[c] = j + 1
        if touched:
            split(touched)
    del start, pred, elems, loc, first, end, mid

    # deterministic numbering: BFS over classes from the initial class
    order = [-1] * (max(blk) + 1)
    order[blk[auto.initial]] = 0
    reps = [auto.initial]
    new_delta = []
    for q in reps:
        row = []
        for t in delta[q]:
            if t >= 0:
                c = blk[t]
                if order[c] < 0:
                    order[c] = len(reps)
                    reps.append(t)
                t = order[c]
            row.append(t)
        new_delta.append(tuple(row))
    return Automaton(letter_labels=auto.letter_labels,
                     payloads=[None] * len(reps), initial=0,
                     delta=new_delta, kind="minimal",
                     state_map=tuple(order[c] for c in blk))


def _predecessor_index(delta: Sequence[Sequence[int]], k: int
                       ) -> tuple[array, array]:
    """Predecessor lists in CSR form, stored compactly.

    The transitions into state t are ``pred[start[t]:start[t + 1]]``, each
    coded as a * n + p for the move from p by letter a.  They are sorted,
    so the predecessors of t by one letter form a contiguous run.
    """
    n = len(delta)
    kn = k * n
    codes = []
    for a, column in enumerate(zip(*delta)):
        an = a * n
        codes += [t * kn + an + p for p, t in enumerate(column) if t >= 0]
    codes.sort()
    pred = array("l", [c % kn for c in codes])
    del codes
    into = Counter(chain.from_iterable(delta))
    start = array("l", accumulate(map(into.get, range(n), repeat(0)),
                                  initial=0))
    return start, pred


# ---------------------------------------------------------------------------
# Morphisms and isomorphism

class MorphismVerdict(enum.Enum):
    NOT_MORPHISM = "not-a-morphism"
    MORPHISM = "morphism"
    TOTALLY_SURJECTIVE = "totally-surjective"


@dataclass(frozen=True)
class MorphismReport:
    verdict: MorphismVerdict
    witness: tuple | None = None


def check_morphism(f: Sequence[int], source: Automaton,
                   target: Automaton) -> MorphismReport:
    """Classify a state map as not a morphism, a morphism, or totally surjective.

    All states are final on both sides, so finality conditions reduce to
    surjectivity bookkeeping; edge preservation and edge lifting are
    checked explicitly and the strongest verified class is returned.
    """
    if len(f) != source.num_states:
        return MorphismReport(MorphismVerdict.NOT_MORPHISM, ("domain", len(f)))
    if source.alphabet_size != target.alphabet_size:
        return MorphismReport(MorphismVerdict.NOT_MORPHISM, ("alphabet",))
    if f[source.initial] != target.initial:
        return MorphismReport(MorphismVerdict.NOT_MORPHISM,
                              ("initial", f[source.initial]))
    for q, a, q2 in source.transitions():
        img = target.delta[f[q]][a]
        if img < 0 or img != f[q2]:
            return MorphismReport(MorphismVerdict.NOT_MORPHISM, ("edge", q, a))
    if set(f) != set(range(target.num_states)):
        return MorphismReport(MorphismVerdict.MORPHISM)
    preimages: dict[int, list[int]] = {}
    for q, fq in enumerate(f):
        preimages.setdefault(fq, []).append(q)
    for q1t, a, q2t in target.transitions():
        if not any(source.delta[q][a] >= 0 and f[source.delta[q][a]] == q2t
                   for q in preimages[q1t]):
            return MorphismReport(MorphismVerdict.MORPHISM)
    return MorphismReport(MorphismVerdict.TOTALLY_SURJECTIVE)


def isomorphic(a: Automaton, b: Automaton) -> bool:
    """Label-respecting isomorphism; deterministic automata admit at most
    one candidate map, found by parallel BFS from the initial states."""
    if a.num_states != b.num_states or a.alphabet_size != b.alphabet_size:
        return False
    mapping = {a.initial: b.initial}
    queue = deque([(a.initial, b.initial)])
    while queue:
        qa, qb = queue.popleft()
        for letter in range(a.alphabet_size):
            ta, tb = a.delta[qa][letter], b.delta[qb][letter]
            if (ta < 0) != (tb < 0):
                return False
            if ta < 0:
                continue
            seen = mapping.get(ta)
            if seen is None:
                mapping[ta] = tb
                queue.append((ta, tb))
            elif seen != tb:
                return False
    if len(mapping) != a.num_states or len(set(mapping.values())) != b.num_states:
        return False
    return True


# ---------------------------------------------------------------------------
# Alphabet restriction

def restrict_letters(auto: Automaton, letters: Sequence[int], *,
                     trim: bool = True) -> Automaton:
    """Keep only the given letters (relabelled in their sorted order).

    With trim=True, also keep only the states reachable from the initial
    one; with trim=False, all states survive, as in the letter-restricted
    automaton used for parabolic projections.
    """
    letters = sorted(letters)
    labels = tuple(auto.letter_labels[a] for a in letters)
    if trim:
        keep = []
        seen = {auto.initial}
        queue = deque([auto.initial])
        while queue:
            q = queue.popleft()
            keep.append(q)
            for a in letters:
                t = auto.delta[q][a]
                if t >= 0 and t not in seen:
                    seen.add(t)
                    queue.append(t)
        renum = {q: i for i, q in enumerate(keep)}
        delta = [tuple(renum[auto.delta[q][a]]
                       if auto.delta[q][a] in renum and auto.delta[q][a] >= 0 else -1
                       for a in letters) for q in keep]
        payloads = [auto.payloads[q] for q in keep]
        return Automaton(letter_labels=labels, payloads=payloads,
                         initial=renum[auto.initial], delta=delta,
                         kind=auto.kind + "-restricted")
    delta = [tuple(auto.delta[q][a] for a in letters)
             for q in range(auto.num_states)]
    return Automaton(letter_labels=labels, payloads=list(auto.payloads),
                     initial=auto.initial, delta=delta,
                     kind=auto.kind + "-letters")
