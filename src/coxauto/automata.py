"""Deterministic partial automata over the generators, all states final.

Shadow automata have elements as states, with transitions through the
shadow projection; canonical automata have n-small inversion sets as
states.  Minimization has an implicit sink, and reports sizes on the trim
partial automaton (the sink is excluded, matching how state counts are
quoted for these languages).  ``nerode_classes`` finds the classes of
every automaton the package builds by one rule: two states read the same
words iff they have the same blocking set, the roots that some word read
from the state carries onto the root of a letter read next.  The sets are
one worklist fixpoint over the automaton's own moves and the letter
action of its small-root table, ``Automaton.table``; an automaton without
one, made by hand or by ``restrict_letters``, cannot be minimized.  The
sets are the classes' keys, counted as distinct values; only ``minimize``
numbers the classes, by a BFS, and builds the quotient automaton.

An automaton is its payloads and one flat ``array('i')`` of moves, ``k``
entries per state for ``k`` letters, -1 for a missing move: the move from
p by letter s is entry p * k + s, its code.  A canonical automaton's
payloads are its states' int masks over the node ids of its small-root
table, a shadow automaton's are the shadow, and a quotient's are None.
The blocking-set fixpoint reads the moves into each state from linked
chains over the codes (:func:`_predecessor_lists`), built in one pass
with no sort.
"""

from __future__ import annotations

import enum
from array import array
from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .elements import _mask_bits
from . import garside
from .errors import BudgetExceeded, ShadowViolation
from .garside import Shadow, VerdictStatus, check_state_budget, verify_shadow
from .smallroots import SmallRootTable, build_small_roots
from .system import CoxeterSystem

# Bounds of counts_by_length.  Counting to length L keeps L + 1 counts, so
# its memory grows at least linearly in L, and with L^2 bits on a group of
# exponential growth.  The time grows with L times the number of
# transitions, which COUNT_WORK_BUDGET bounds: ~C3 to 10,000 (7.8 million
# steps) and ~A4 to 2,645 (10.0 million) take 2.7 s each at 27 MB peak RSS
# (Python 3.11).  COUNT_LENGTH_BUDGET covers automata with few transitions,
# which the work budget lets through: triangle(2,3,7) has 69, so it could
# count to 144,927, where its counts (about 0.57 L bits at length L) would
# hold some 750 MB; to 10,000 it takes 0.15 s at 20 MB.
COUNT_LENGTH_BUDGET = 10_000
COUNT_WORK_BUDGET = 10_000_000


def check_count_length(max_length: int) -> None:
    """``BudgetExceeded`` for a length over ``COUNT_LENGTH_BUDGET``."""
    if max_length > COUNT_LENGTH_BUDGET:
        raise BudgetExceeded(
            f"word length {max_length:,} is over the counting length "
            f"budget of {COUNT_LENGTH_BUDGET:,}")


class Automaton:
    """Trim deterministic partial automaton; every state is accepting."""

    def __init__(self, letter_labels: tuple[str, ...], payloads: Sequence,
                 initial: int, moves: array, kind: str = "automaton",
                 state_map: tuple[int, ...] | None = None,
                 table: SmallRootTable | None = None):
        # entry q * k + s of moves is the target of state q by letter s, -1
        # for none; state q carries payloads[q]
        if len(moves) != len(payloads) * len(letter_labels):
            raise ValueError(f"{len(moves)} moves do not fill {len(payloads)} "
                             f"states over {len(letter_labels)} letters")
        self.letter_labels = letter_labels
        self.payloads = payloads
        self.initial = initial
        self.moves = moves
        self.kind = kind
        self.state_map = state_map  # set by minimize()
        # the small-root table whose letter action the states follow, set
        # by the builders and kept by minimize(); None on any other
        self.table = table

    @property
    def alphabet_size(self) -> int:
        return len(self.letter_labels)

    @property
    def num_states(self) -> int:
        return len(self.payloads)

    def transitions(self):
        k = self.alphabet_size
        for code, q2 in enumerate(self.moves):
            if q2 >= 0:
                q, a = divmod(code, k)
                yield q, a, q2

    def num_transitions(self) -> int:
        return len(self.moves) - self.moves.count(-1)

    def read(self, word: Iterable[int]) -> int | None:
        q, k, moves = self.initial, self.alphabet_size, self.moves
        for a in word:
            if not 0 <= a < k:
                raise IndexError(f"letter {a} is not below {k}")
            q = moves[q * k + a]
            if q < 0:
                return None
        return q

    def counts_by_length(self, max_length: int) -> list[int]:
        """Number of accepted words per length, by exact integer DP.

        A max_length over ``COUNT_LENGTH_BUDGET``, or a max_length times
        the number of transitions over ``COUNT_WORK_BUDGET``, raises
        ``BudgetExceeded`` before any counting.
        """
        check_count_length(max_length)
        work = max_length * self.num_transitions()
        if work > COUNT_WORK_BUDGET:
            raise BudgetExceeded(
                f"counting to length {max_length:,} takes {work:,} transition "
                f"steps, over the counting work budget of "
                f"{COUNT_WORK_BUDGET:,}")
        n, k, moves = self.num_states, self.alphabet_size, self.moves
        targets = [[t for t in moves[p * k:p * k + k] if t >= 0]
                   for p in range(n)]
        counts = [0] * n
        counts[self.initial] = 1
        out = [1]
        for _ in range(max_length):
            nxt = [0] * n
            for c, ts in zip(counts, targets):
                if c:
                    for t in ts:
                        nxt[t] += c
            counts = nxt
            out.append(sum(counts))
        return out

    def payload_label(self, q: int) -> str:
        """The DOT label of state q: q<q> for no payload, {i,j,...} for a
        mask of node ids, and else the payload as a string."""
        p = self.payloads[q]
        if p is None:
            return f"q{q}"
        if isinstance(p, int):
            return "{" + ",".join(map(str, _mask_bits(p))) + "}"
        return str(p)

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;",
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

def build_shadow_automaton(shadow: Shadow) -> Automaton:
    """States are the shadow's elements (the payloads are the shadow); x
    goes via s to pi_B(s x) when s is not a left descent of x.

    A set that :func:`verify_shadow` refuses raises ``ShadowViolation``.

    B lies in L_n, n the shadow's level, and pi_B(w) depends only on
    Sigma_n(w) (see :func:`garside.project`).  Sigma_n(s x) is {a_s} union
    s(Sigma_n(x)), one :meth:`SmallRootTable.images` call per member, and
    pi_B of the element of L_n with that mask is read off one pass over
    the lower covers of L_n (:func:`garside._projections`).  A mask of no
    element of L_n, which the dyho2 conjecture rules out, is sent to the
    last position of the shadow's ``_below`` on it, one scan of the
    members' masks.
    """
    verdict = verify_shadow(shadow)
    if verdict.status is VerdictStatus.NOT_SHADOW:
        raise ShadowViolation(f"not a Garside shadow: {verdict.reason}")
    small = shadow._small
    universe = garside.low_universe(shadow.system, shadow.level)
    projections = garside._projections(
        universe, {mask: i for i, mask in enumerate(small)})
    where = universe._pos
    table = shadow._small_table()
    k = shadow.system.rank
    moves = array("i", [-1]) * (len(small) * k)
    for p, mask in enumerate(small):
        for s, image in enumerate(table.images(mask)):
            if not mask >> s & 1:
                target = 1 << s | image
                x = where.get(target)
                moves[p * k + s] = (shadow._below(target)[-1]
                                    if x is None else projections[x])
    return Automaton(letter_labels=_default_labels(shadow.system),
                     payloads=shadow, initial=shadow._pos[0], moves=moves,
                     kind="shadow", table=table)


def build_canonical_automaton(sys: CoxeterSystem, level: int
                              ) -> tuple[Automaton, list[int]]:
    """The n-canonical automaton and the mask of each of its states, which
    is also the state's payload.

    States are the reachable n-small inversion sets.  Transition by s is
    defined iff a_s is not in the state, and sends A to {a_s} union (s(A)
    restricted to the system's cached n-small roots).  States are explored
    from the empty set and numbered in BFS order, by
    :meth:`SmallRootTable.canonical_walk`, with a state an int mask over the
    table's node ids.
    More than ``garside.STATE_BUDGET`` states raise ``BudgetExceeded``, at
    once when the system is affine at level 0 and more are predicted.
    """
    table = build_small_roots(sys, level)
    check_state_budget(sys, table, level)
    masks, moves = table.canonical_walk(garside.STATE_BUDGET)
    auto = Automaton(letter_labels=_default_labels(sys),
                     payloads=masks, initial=0, moves=moves,
                     kind=f"canonical-{level}", table=table)
    return auto, masks


# ---------------------------------------------------------------------------
# Minimization

def nerode_classes(auto: Automaton) -> list[int]:
    """The Nerode class key of each state, with an implicit sink: its
    blocking set (:meth:`SmallRootTable.blocking_sets` of ``auto.table``),
    so two states are equivalent iff their keys are equal.

    The keys are not numbered: ``len(set(keys))`` counts the classes, and
    only :func:`minimize` numbers them.  An automaton with no small-root
    table raises ``ValueError``.
    """
    if auto.table is None:
        raise ValueError("the automaton has no small-root table: only a "
                         "canonical or shadow automaton, or a quotient of "
                         "one, has its Nerode classes read")
    return auto.table.blocking_sets(
        *_predecessor_lists(auto.moves, auto.num_states))


def minimize(auto: Automaton) -> Automaton:
    """The minimal automaton, with an implicit sink: the quotient by
    :func:`nerode_classes`, trim and without the sink.

    Only an automaton the package built, which has a small-root table,
    can be minimized.  The states are the classes, numbered by a BFS from
    the initial class, letters in order; no other code numbers them.
    ``state_map`` sends each state to its class, or to -1 when it is
    equivalent to no state reachable from the initial one, which no
    automaton the package builds has.  Callers that only count classes
    or look for merged states read the keys of :func:`nerode_classes`
    and build no quotient.
    """
    return _quotient(auto, nerode_classes(auto))


def _quotient(auto: Automaton, keys: Sequence) -> Automaton:
    """The quotient by a congruence whose classes are the states of equal
    ``keys``, numbered by a BFS over the classes; the states of those it
    does not reach go to -1.
    """
    k, moves = auto.alphabet_size, auto.moves
    # the BFS numbers each class by its key, and reads its row off the
    # state that found it
    order = {keys[auto.initial]: 0}
    reps = [auto.initial]
    for q in reps:
        for t in moves[q * k:q * k + k]:
            if t >= 0 and keys[t] not in order:
                order[keys[t]] = len(reps)
                reps.append(t)
    state_map = [order.get(key, -1) for key in keys]
    state_map.append(-1)  # read at index -1: a missing move stays -1
    new_moves = array("i", [state_map[t] for q in reps
                            for t in moves[q * k:q * k + k]])
    state_map.pop()
    return Automaton(letter_labels=auto.letter_labels,
                     payloads=[None] * len(reps), initial=0,
                     moves=new_moves, kind="minimal",
                     state_map=tuple(state_map), table=auto.table)


def _predecessor_lists(moves: array, n: int) -> tuple[array, array]:
    """The moves into each of n states, as linked chains over their codes.

    ``moves`` holds the rows of an automaton end to end, so the move from p
    by letter s has code p * k + s, its index in ``moves``.  The moves into
    t are the chain ``head[t], after[head[t]], ...`` up to -1, built in one
    pass with no sort.  Codes are below ``garside.STATE_BUDGET`` times
    ``system.RANK_BUDGET``, 6e7 < 2**31, so they fit in ``'i'``.
    """
    head = array("i", [-1]) * n
    after = array("i", [-1]) * len(moves)
    for code, t in enumerate(moves):
        if t >= 0:
            after[code] = head[t]
            head[t] = code
    return head, after


# ---------------------------------------------------------------------------
# Morphisms and isomorphism

class MorphismVerdict(enum.Enum):
    NOT_MORPHISM = "not-a-morphism"
    MORPHISM = "morphism"
    TOTALLY_SURJECTIVE = "totally-surjective"


class MorphismReport(NamedTuple):
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
    k = source.alphabet_size
    moves, images = source.moves, target.moves
    for q, a, q2 in source.transitions():
        img = images[f[q] * k + a]
        if img < 0 or img != f[q2]:
            return MorphismReport(MorphismVerdict.NOT_MORPHISM, ("edge", q, a))
    if set(f) != set(range(target.num_states)):
        return MorphismReport(MorphismVerdict.MORPHISM)
    preimages: dict[int, list[int]] = {}
    for q, fq in enumerate(f):
        preimages.setdefault(fq, []).append(q)
    for q1t, a, q2t in target.transitions():
        if not any(moves[q * k + a] >= 0 and f[moves[q * k + a]] == q2t
                   for q in preimages[q1t]):
            return MorphismReport(MorphismVerdict.MORPHISM)
    return MorphismReport(MorphismVerdict.TOTALLY_SURJECTIVE)


def isomorphic(a: Automaton, b: Automaton) -> bool:
    """Label-respecting isomorphism; deterministic automata admit at most
    one candidate map, found by parallel BFS from the initial states."""
    if a.num_states != b.num_states or a.alphabet_size != b.alphabet_size:
        return False
    k, fa, fb = a.alphabet_size, a.moves, b.moves
    mapping = {a.initial: b.initial}
    queue = deque([(a.initial, b.initial)])
    while queue:
        qa, qb = queue.popleft()
        for ta, tb in zip(fa[qa * k:qa * k + k], fb[qb * k:qb * k + k]):
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
    k, moves = auto.alphabet_size, auto.moves
    if trim:
        # states in the order a BFS over the kept letters finds them
        keep = [auto.initial]
        renum = {auto.initial: 0}
        for q in keep:
            for a in letters:
                t = moves[q * k + a]
                if t >= 0 and t not in renum:
                    renum[t] = len(keep)
                    keep.append(t)
        kept = array("i", [renum.get(moves[q * k + a], -1)
                           for q in keep for a in letters])
        payloads = [auto.payloads[q] for q in keep]
        return Automaton(letter_labels=labels, payloads=payloads, initial=0,
                         moves=kept, kind=auto.kind + "-restricted")
    kept = array("i", [moves[q * k + a] for q in range(auto.num_states)
                       for a in letters])
    return Automaton(letter_labels=labels, payloads=list(auto.payloads),
                     initial=auto.initial, moves=kept,
                     kind=auto.kind + "-letters")
