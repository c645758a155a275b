"""Joins in weak order, Garside shadows, projections, and low elements.

A shadow B lies in some L_n, the n-low elements, and each element of it is
known by one int mask: Sigma_n, its n-small inversions.  For an n-low c,
N(c) is the set of positive roots in the cone over Sigma_n(c) (Dyer &
Hohlweg, *Small roots, low elements, and the weak order in Coxeter
groups*, Adv. Math. 2016).  An inversion set is closed under positive
combinations, so c <= w iff Sigma_n(c) lies inside N(w) iff it lies inside
Sigma_n(w): one AND of two masks.  The prefixes of w in B are the members
whose Sigma_n lies inside Sigma_n(w), found by one scan of B's masks.
A set given by words is read into its smallest L_n when it is made.

Every join is decided in the n-low elements L_n.  Every element is n-low
for some n, and L_n is finite and closed under joins (Dyer & Hohlweg
2016).  So two elements of L_n have a join iff they have a common
upper bound in L_n, and the join is then the first element of L_n, in
(length, word) order, whose Sigma_n holds both of theirs.  :func:`join`
decides it in the smallest L_n holding both inputs, exactly and with no
length cap.  L_0 is closed under suffixes too; for n > 0 that is the
dyho1 conjecture, which :func:`low_universe` checks before L_n is used.

Join closure is decided one way, by :func:`_join_pass`, one pass over
L_n in (length, word) order that reads the lower covers of each element
(:func:`_lower_covers`, one lookup of a Sigma_n mask each): the closure of
X admits the x it yields, and :func:`verify_shadow` runs it after S and e
membership and suffix closure (:func:`check_generated_and_suffix_closed`,
all that L_n needs, which reads the suffixes L_n recorded).  The shadow
automaton reads its projections off the same lower covers
(:func:`_projections`).  A closure and an L_n carry the verdict SHADOW.

An element is n-low iff its right-descent roots N^1 are n-small, so the
n-low elements are found by a breadth-first search that keeps a word and
the masks N^1 and Sigma_n of each element: lowness of a candidate is one
AND, and an element is built only when it is read.
"""

from __future__ import annotations

import enum
from array import array
from itertools import accumulate, compress, count
from typing import Iterable, Iterator, NamedTuple

from .elements import (Element, coset_split, from_word, identity, mult_left,
                       support)
from .errors import (BudgetExceeded, InternalInvariant, LowElementsNotShadow,
                     ShadowViolation)
from .smallroots import (Classification, SmallRootTable, build_small_roots,
                         classify_system)
from .system import CoxeterSystem

# Elements of low_elements, so of every L_n universe and every closure, and
# states of build_canonical_automaton.  ~F4 L_1, stopped here, peaks at 114 MB
# RSS for its low elements (0.50 kB each; ~D5 L_0: 0.56 kB) and 51 MB for its
# A_1 (Python 3.11).  A shadow automaton over L_n holds L_n and its own rows,
# and no A_n: ~B4 L_1 peaks at 65 MB.
STATE_BUDGET = 200_000


class Shadow:
    """A finite set of elements, deduplicated and sorted by (length, word).

    The set lies in L_n for n its ``level``, and each member is known by its
    Sigma_n, a mask over the n-small roots: ``_small`` holds them in order,
    and ``_pos`` maps each to its position.  ``elements`` is built on first
    read.  ``Shadow(system, words)`` reads the words into the smallest L_n
    holding them all (:meth:`_read`), and keeps the first word given for
    each element, reduced by ``from_word`` if it is not;
    :func:`low_elements` and :func:`garside_closure` give the words and
    masks of their members directly (:meth:`_of_words`).
    """

    def __init__(self, system: CoxeterSystem,
                 words: Iterable[Iterable[int]], provenance: str = "explicit"):
        words = [tuple(word) for word in words]
        for level in count():  # every element is n-low for some n
            universe = low_universe(system, level)
            first: dict[int, tuple[int, ...]] = {}  # universe position -> word
            for word in words:
                i, word = universe._read(word)
                if i is None:
                    break
                first.setdefault(i, word)
            else:
                break
        order = sorted(first, key=lambda i: (len(first[i]), first[i]))
        self._set(system, [first[i] for i in order],
                  [universe._small[i] for i in order], provenance, level)

    @classmethod
    def _of_words(cls, system: CoxeterSystem, words: list[tuple[int, ...]],
                  small: list[int], provenance: str, level: int) -> Shadow:
        """A subset of L_n from the words and Sigma_n masks of its members,
        in (length, word) order."""
        shadow = cls.__new__(cls)
        shadow._set(system, words, small, provenance, level)
        return shadow

    def _set(self, system: CoxeterSystem, words: list[tuple[int, ...]],
             small: list[int], provenance: str, level: int) -> None:
        self.system = system
        self._words, self._small = words, small
        self._pos = dict(zip(small, count()))
        if len(self._pos) != len(small):
            raise InternalInvariant(
                "small inversion sets are not injective on low elements")
        self.provenance = provenance
        self.level = level
        self._elements: tuple[Element, ...] | None = None
        self._n1: list[int] | None = None  # N^1 of each, from low_elements
        # the positions of each element's one-step suffixes, in CSR form:
        # those of element i are targets[offsets[i]:offsets[i + 1]]; recorded
        # by low_elements, read by _close_in_universe and the suffix check
        self._suffixes: tuple[array, array] | None = None
        # SHADOW for a closure or an L_n; returned by verify_shadow
        self.verdict: ShadowVerdict | None = None

    def _read(self, word: tuple[int, ...]
              ) -> tuple[int | None, tuple[int, ...]]:
        """The position in this L_n of the element w a word spells, or None,
        and a reduced word of w.

        Right to left, one ``images`` call per letter: Sigma_n(s x) is {a_s}
        union s(Sigma_n(x)) for an ascent s of x, and s is a left descent of
        x iff a_s, bit s, is in Sigma_n(x).  So a word that is not reduced is
        caught exactly, and read again as ``from_word`` reduces it.
        Membership is then :meth:`_index`'s.
        """
        images = self._small_table().images
        small = 0
        for s in reversed(word):
            if small >> s & 1:
                return self._read(from_word(self.system, word).word)
            small = 1 << s | images(small)[s]
        i = self._pos.get(small)
        if i is not None and len(self._words[i]) != len(word):
            i = None
        return i, word

    @property
    def elements(self) -> tuple[Element, ...]:
        """The members, each built by one ``mult_left`` on its suffix by
        its first letter if that is a member, else from its word."""
        if self._elements is None:
            built = {}
            for word in self._words:
                tail = built.get(word[1:])
                built[word] = (from_word(self.system, word) if tail is None
                               else mult_left(word[0], tail))
            self._elements = tuple(built.values())
        return self._elements

    def _element(self, i: int) -> Element:
        """Element i, built from its word alone while ``elements`` is not."""
        if self._elements is None:
            return from_word(self.system, self._words[i])
        return self._elements[i]

    def _index(self, el: Element) -> int | None:
        """The position of el, or None.  el is a member iff a member m of its
        length has Sigma_n(el): N(m), the positive roots in the cone over
        Sigma_n(m), lies inside N(el), so m <= el and m = el."""
        i = self._pos.get(self._small_table().small_part(el.inv))
        return None if i is None or len(self._words[i]) != el.length else i

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> Element:
        return self.elements[i]

    def __contains__(self, el: Element) -> bool:
        return self._index(el) is not None

    def _small_table(self) -> SmallRootTable:
        """The n-small roots for n the shadow's level."""
        return build_small_roots(self.system, self.level)

    def _below(self, small: int) -> list[int]:
        """The positions, in order, of the elements c with Sigma_n(c) inside
        the node mask ``small``: one scan of ``_small``.

        For small = Sigma_n(w) they are the elements below w: an n-low c has
        N(c) equal to the positive roots in the cone over Sigma_n(c) (Dyer &
        Hohlweg 2016), and N(w) is closed under positive combinations, so
        c <= w iff Sigma_n(c) lies inside N(w).
        """
        outside = ~small
        return [i for i, mask in enumerate(self._small) if not mask & outside]

    def words(self) -> list[str]:
        return list(map(self.system.word_to_string, self._words))

    def __repr__(self) -> str:
        return f"Shadow({self.provenance}, {len(self)} elements)"


def low_universe(sys: CoxeterSystem, level: int = 0) -> Shadow:
    """The n-low elements L_n, a finite Garside shadow, cached on the system.

    L_n is closed under joins, and L_0 under suffixes, by theorem.  For
    n > 0, suffix closure is the dyho1 conjecture: it is checked once,
    before L_n is used, and a failure raises ``LowElementsNotShadow``.
    """
    low = sys._low_universes.get(level)
    if low is None:
        low = low_elements(sys, level)
        if level:
            failure = check_generated_and_suffix_closed(low)
            if failure is not None:
                raise LowElementsNotShadow(level, failure.reason,
                                           failure.witness)
        low.verdict = ShadowVerdict(VerdictStatus.SHADOW)
        sys._low_universes[level] = low
    return low


def join(u: Element, v: Element) -> Element | None:
    """The join of u and v in right weak order, or None when there is none.

    Decided exactly in the smallest L_n holding both, found by reading
    their words into a ``Shadow``: the join is the first element of L_n
    whose Sigma_n holds Sigma_n(u) | Sigma_n(v).  An upper bound of u before
    u in (length, word) order would be no longer than u, so u itself; the
    scan starts at the later of the two, and reads each later element's
    mask once: about 0.33 ms a call on random pairs of the 6,561 elements
    of L_0 of ~C4.  Only the join is built.
    """
    if u.system is not v.system:
        raise ValueError("element from a different system")
    pair = Shadow(u.system, (u.word, v.word))
    universe = low_universe(u.system, pair.level)
    small = universe._small
    both = pair._small[0] | pair._small[-1]
    for k in range(max(map(universe._pos.__getitem__, pair._small)),
                   len(small)):
        if not both & ~small[k]:
            return universe._element(k)
    return None


# ---------------------------------------------------------------------------
# Projection

def project(shadow: Shadow, w: Element) -> Element:
    """pi_B(w): the unique longest prefix of w lying in the shadow.

    The prefixes of w in B are the elements c with N(c) inside N(w).  B
    lies in L_n, and for an n-low c that holds iff Sigma_n(c) lies inside
    Sigma_n(w), the n-small roots of N(w) (Dyer & Hohlweg 2016; see
    ``Shadow._below``).  So only the small part of N(w) is read, and one
    scan of B's masks gives the prefixes in order, the longest last: about
    0.5 ms a call on the 5,860 members of Gar(S) of ~C4.
    """
    if w.system is not shadow.system:
        raise ValueError("element from a different system")
    prefixes = shadow._below(shadow._small_table().small_part(w.inv))
    if not prefixes:
        raise ShadowViolation("shadow contains no prefix of the element")
    words = shadow._words
    if len(prefixes) > 1 and (len(words[prefixes[-2]])
                              == len(words[prefixes[-1]])):
        raise ShadowViolation(
            f"projection of {w} is not unique; the set is not join-closed")
    return shadow._element(prefixes[-1])


# ---------------------------------------------------------------------------
# Verification

class VerdictStatus(enum.Enum):
    SHADOW = "shadow"
    NOT_SHADOW = "not-shadow"


class ShadowVerdict(NamedTuple):
    status: VerdictStatus
    reason: str = ""
    witness: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.status is VerdictStatus.SHADOW


def _membership(shadow: Shadow) -> tuple[Shadow, bytearray]:
    """An L_n with recorded suffixes that holds the shadow, and a byte per
    element of it, 1 iff it is a member: a set from :func:`low_elements` is
    its own, and any other is read in ``low_universe(sys, level)``."""
    if shadow._suffixes is not None:
        return shadow, bytearray(b"\x01") * len(shadow)
    universe = low_universe(shadow.system, shadow.level)
    inside = bytearray(len(universe))
    for mask in shadow._small:
        inside[universe._pos[mask]] = 1
    return universe, inside


def check_generated_and_suffix_closed(
        shadow: Shadow, membership: tuple[Shadow, bytearray] | None = None
        ) -> ShadowVerdict | None:
    """The first failure among S and e membership and suffix closure.

    None when the set holds S and e and is closed under suffixes.  A member
    passes iff it recorded, in the L_n of ``membership`` (by default
    :func:`_membership`), one suffix per left descent (the low ``rank`` bits
    of Sigma_n) and each is a member.  Only the first that fails is built,
    and multiplied by its left descents for the witness.
    """
    sys = shadow.system
    for s in range(sys.rank):
        if 1 << s not in shadow._pos:
            return ShadowVerdict(VerdictStatus.NOT_SHADOW,
                                 reason=f"missing generator {s + 1}")
    if 0 not in shadow._pos:
        return ShadowVerdict(VerdictStatus.NOT_SHADOW, reason="missing identity")
    universe, inside = membership or _membership(shadow)
    offsets, targets = universe._suffixes
    pos, descents = universe._pos, (1 << sys.rank) - 1
    for i, small in enumerate(shadow._small):
        p = pos[small]
        lo, hi = offsets[p], offsets[p + 1]
        if (hi - lo == (small & descents).bit_count()
                and all(map(inside.__getitem__, targets[lo:hi]))):
            continue
        b = shadow._element(i)
        for s in b.descents_left:
            suffix = mult_left(s, b)
            if suffix not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under suffixes",
                    witness=(str(b), str(suffix)))
        raise InternalInvariant("recorded suffixes disagree with mult_left")
    return None


def verify_shadow(shadow: Shadow) -> ShadowVerdict:
    """Check S and e membership, suffix closure, and join closure.

    A verdict recorded on the shadow is returned as it is.  Otherwise B is
    join-closed iff :func:`_join_pass` over U, the L_n of its suffix check
    (:func:`_membership`), with B's elements as the members, yields no x.
    For the first x it yields, the joins of the members below x, folded in
    U's order, first leave B at x.
    """
    if shadow.verdict is not None:
        return shadow.verdict
    membership = _membership(shadow)
    failure = check_generated_and_suffix_closed(shadow, membership)
    if failure is not None:
        return failure
    universe, inside = membership
    if len(shadow) == len(universe):  # no x of U lies outside B
        return ShadowVerdict(VerdictStatus.SHADOW)
    for x in _join_pass(universe, _lower_covers(universe), inside):
        u = identity(shadow.system)  # the first member below x
        for i in universe._below(universe._small[x]):
            if not inside[i]:
                continue
            v = universe._element(i)
            joined = join(u, v)
            if joined not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under joins",
                    witness=(str(u), str(v), str(joined)))
            u = joined
    return ShadowVerdict(VerdictStatus.SHADOW)


def _lower_covers(universe: Shadow) -> tuple[array, array]:
    """The lower covers in L = L_n of each element of an L_n from
    :func:`low_elements`, in CSR form: those of element x are
    covers[offsets[x]:offsets[x + 1]], one for each root of N^1(x).

    For beta in N^1(x), lc(x, beta) is pi_L(x*t_beta), the longest element
    of L below x*t_beta, which L holds as a Garside shadow.  N(x*t_beta)
    is N(x) minus beta, so Sigma_n(x*t_beta) is Sigma_n(x) minus beta:
    beta is n-small, x being n-low.  An n-low c with that Sigma_n is
    lc(x, beta): N(c), the positive roots in the cone over Sigma_n(c), lies
    in N(x*t_beta), so c <= x*t_beta, and each n-low c' <= x*t_beta has
    Sigma_n(c') inside Sigma_n(c), so c' <= c (Dyer & Hohlweg 2016).  So
    lc(x, beta) is one lookup of Sigma_n(x) ^ bit(beta).  On a miss, which
    the dyho2 conjecture rules out, it is the last element of ``_below`` on
    that mask.

    Every y < x lies below some x*t_beta (Bjorner & Brenti,
    *Combinatorics of Coxeter Groups*, ch. 3), so every y of L below x
    other than x lies below some lc(x, beta), which is shorter than x.
    """
    pos = universe._pos
    # 4-byte positions: half the memory of "l", and L_n is within budget
    offsets, covers = array("i", [0]), array("i")
    for small, n1 in zip(universe._small, universe._n1):
        while n1:
            beta = n1 & -n1
            n1 ^= beta
            cover = pos.get(small ^ beta)
            covers.append(universe._below(small ^ beta)[-1]
                          if cover is None else cover)
        offsets.append(len(covers))
    return offsets, covers


def _join_pass(universe: Shadow, covers: tuple[array, array],
               inside: bytearray) -> Iterator[int]:
    """The non-members x of an L_n from :func:`low_elements` that are the
    join of the members below them, in (length, word) order; ``covers`` are
    the lower covers (:func:`_lower_covers`), and byte i of ``inside`` is 1
    iff element i is a member.

    One pass computes P(x), the OR of Sigma_n(y) over the members y <= x:
    every member y < x lies below some lc(x, beta), so P(x) is Sigma_n(x)
    if x is a member, OR-ed with P(lc(x, beta)) for every beta in N^1(x).
    A lower cover is shorter than x, so its P is known when x is reached.
    A caller that admits a yielded x, setting its byte before the pass
    resumes, has it counted at once for every later x.

    A non-member x is that join iff N^1(x) lies inside the OR of the
    P(lc(x, beta)), the Sigma_n of the members below x.  If a root beta of
    N^1(x) is in no member y <= x, each such y has N(y) inside N(x) minus
    beta, which is N(x*t_beta), so their join lies below x*t_beta < x.
    Conversely, if each beta lies in N(y_beta) for a member y_beta <= x,
    the join J of the members below x, which x bounds, is <= x; and J < x
    would give J <= x*t_beta for some beta, which is not, as beta lies in
    N(y_beta), inside N(J).
    """
    offsets, covers = covers
    small, n1s = universe._small, universe._n1
    below = [0] * len(small)  # P(x) of each x reached
    for x, sigma in enumerate(small):
        p = 0
        for c in covers[offsets[x]:offsets[x + 1]]:
            p |= below[c]
        if not inside[x] and not n1s[x] & ~p:
            yield x
        below[x] = p | sigma if inside[x] else p


def _projections(universe: Shadow, member: dict[int, int]) -> list[int]:
    """pi_B(x) of each element x of an L_n from :func:`low_elements`, as
    a position in a Garside shadow B inside L_n; ``member`` maps the
    Sigma_n of each element of B to its position.

    pi_B(x) is x for a member.  Otherwise the members below x are those
    below some lc(x, beta) (:func:`_lower_covers`), so pi_B(x), the
    longest of them, is the longest pi_B(lc(x, beta)): each of these lies
    below pi_B(x), and is shorter unless it is pi_B(x).  B is sorted by
    length, so the longest is at the highest position.
    """
    pi = [member.get(mask, -1) for mask in universe._small]
    if -1 in pi:
        offsets, covers = _lower_covers(universe)
        for x, p in enumerate(pi):
            if p < 0:
                pi[x] = max(pi[c] for c in covers[offsets[x]:offsets[x + 1]])
    return pi


# ---------------------------------------------------------------------------
# Closure

def garside_closure(sys: CoxeterSystem,
                    seeds: Iterable[Element] = ()) -> Shadow:
    """Smallest Garside shadow containing the seeds (and always S and e).

    The closure lies in U, the smallest L_n holding the seeds, a finite
    Garside shadow, and is read off U by :func:`_close_in_universe` with no
    join decisions.  The members keep U's order, words and small parts.
    """
    seeds = list(seeds)
    if any(el.system is not sys for el in seeds):
        raise ValueError("element from a different system")
    start = Shadow(sys, [(), *((s,) for s in range(sys.rank)),
                         *(el.word for el in seeds)])
    universe = low_universe(sys, start.level)
    inside = _close_in_universe(universe, start)
    closure = Shadow._of_words(
        sys, list(compress(universe._words, inside)),
        list(compress(universe._small, inside)), provenance="closure-of-S",
        level=universe.level)
    closure.verdict = ShadowVerdict(VerdictStatus.SHADOW)
    return closure


def _close_in_universe(universe: Shadow, seeds: Shadow) -> bytearray:
    """The closure of a set's members under joins and suffixes in an L_n
    from :func:`low_elements` at its level: byte i is 1 iff element i is.

    Suffix passes read the recorded suffix positions, and join passes admit
    each x that :func:`_join_pass` yields, until a suffix pass after a join
    pass admits nothing.  The closure is then closed under joins too: the
    members below an x lie before it, so a join pass reaches x with them
    final, and leaves x out only if it is not their join.
    """
    if universe._suffixes is None:
        raise InternalInvariant("closure universe has no recorded suffixes")
    offsets, targets = universe._suffixes
    covers = _lower_covers(universe)
    inside = bytearray(len(universe))
    todo = list(map(universe._pos.__getitem__, seeds._small))
    for i in todo:
        inside[i] = 1
    joined = False  # whether a join pass has run
    while True:
        grew = False
        while todo:  # the suffix pass
            i = todo.pop()
            for j in targets[offsets[i]:offsets[i + 1]]:
                if not inside[j]:
                    inside[j] = 1
                    todo.append(j)
                    grew = True
        if joined and not grew:
            return inside
        for x in _join_pass(universe, covers, inside):
            inside[x] = 1
            todo.append(x)
        joined = True


# ---------------------------------------------------------------------------
# Low elements

def check_state_budget(sys: CoxeterSystem, table: SmallRootTable,
                       level: int) -> None:
    """Refuse at once a level-0 affine enumeration predicted to pass budget.

    ``table`` is the system's table of n-small roots at this level.  An
    irreducible affine group of rank r + 1 over a finite Weyl group W_0 of
    rank r and Coxeter number h has (h+1)^r regions in its Shi arrangement
    (Shi 1987), in bijection with its 0-low elements and with the states of
    its 0-canonical automaton (Dyer, Fishel, Hohlweg & Mark, *Shi
    arrangements and low elements in affine Coxeter groups*).  Its 0-small
    roots are Phi+_0 and delta - Phi+_0, for the positive roots Phi+_0 of
    W_0 and the radical delta (Brink & Howlett 1993; Brink 1998), so there
    are |Phi_0| = r h of them (Humphreys, *Reflection groups and Coxeter
    groups*, 3.18), and h is len(table) // r.
    """
    if level != 0 or classify_system(sys) is not Classification.AFFINE:
        return
    r = sys.rank - 1
    h = len(table) // r
    predicted = (h + 1) ** r
    if predicted > STATE_BUDGET:
        raise BudgetExceeded(
            f"{sys.name or f'rank-{sys.rank}'} has (h+1)^r = {h + 1}^{r} = "
            f"{predicted:,} states at level 0, over the state budget of "
            f"{STATE_BUDGET:,}")


def low_elements(sys: CoxeterSystem, level: int) -> Shadow:
    """The n-low elements, by BFS over left multiplications.

    Pruning non-low branches is sound because the set is closed under
    taking suffixes.  w is n-low when N(w) is the set of positive roots in
    the cone over its n-small inversions.  Dyer & Hohlweg (*Small roots, low
    elements, and the weak order in Coxeter groups*, Adv. Math. 2016) show
    that w is n-low iff N^1(w) consists of n-small roots, where
    N^1(w) = {-w(a_t) : t a right descent of w} are the roots b of N(w) with
    N(w) minus b an inversion set, that of w*t.  They need not span the
    extreme rays of the cone over N(w): in A2, N(s1*s2) = {a1, a1+a2} has
    both roots as extreme rays, but N^1(s1*s2) = {a1+a2}.

    The search carries N^1(w) and Sigma_n(w) of each element as node masks
    of the system's cached table of n-small roots.  Let s be an ascent of
    w, so N(sw) = {a_s} union s(N(w)).  A right descent t of w has
    w(a_t) = -b with b in N^1(w), b is not a_s, so sw(a_t) = -s(b) is
    negative: t is a right descent of sw with root s(b).  A right descent t
    of sw that is not one of w has w(a_t) positive and s(w(a_t)) negative,
    so w(a_t) = a_s and sw = wt, with root a_s.  Hence N^1(sw) is s(N^1(w)),
    plus a_s exactly when sw = wt for some t, that is when
    N(sw) = N(w) union {a_s}.  a_s is n-small and only a_s is sent negative
    by s, so sw is n-low iff no node of N^1(w) leaves the table under s:
    one AND with ``table.exits[s]``.  Sigma_n(sw) is {a_s} union
    (s(Sigma_n(w)) restricted to the table) (Brink & Howlett 1993): one
    call of :meth:`SmallRootTable.images` gives it for all s, and one more
    gives s(N^1(w)) for all s once some sw is new.

    For a low sw, sw = wt iff s maps Sigma_n(w) onto itself, so no element
    is multiplied out.  If sw = wt, Sigma_n(sw) is Sigma_n(w) union {a_s},
    and a_s lies in neither Sigma_n(w) nor its image.  Conversely, if the
    image is Sigma_n(w), then, sw being low, N(sw) is the positive roots in
    the cone over Sigma_n(w) union {a_s}; it holds a_s and N(w), the
    positive roots in the cone over Sigma_n(w), and has one more root than
    N(w).  Sigma_n determines an n-low element, so the low candidates of one
    round, which meet only within that round, are keyed by it, and each
    keeps the word (s,) + word(w) that it was first found by.

    Every low candidate s*w records w as the suffix of s*w by s.  Each left
    descent s of an x in L_n has s*x in L_n (by theorem for n = 0; checked by
    :func:`low_universe` for n > 0), and the search tries s on s*x, so every
    suffix of every element is recorded, for :func:`_close_in_universe`;
    so are Sigma_n and N^1, for :func:`_lower_covers`.  More than
    ``STATE_BUDGET`` elements raise ``BudgetExceeded``.  Unlike
    :func:`low_universe`, this caches nothing and records no verdict.
    """
    table = build_small_roots(sys, level)
    check_state_budget(sys, table, level)
    exits, images = table.exits, table.images
    words: list[tuple[int, ...]] = [()]  # in the order found
    sigma, n1s = [0], [0]  # Sigma_n and N^1 of each
    # edge k: element longer[k] is s times element shorter[k], s a left descent
    longer, shorter = array("i"), array("i")
    order = [0]  # the indices in (length, word) order
    frontier = [0]
    while frontier:
        nxt = []
        by_sigma: dict[int, int] = {}  # this round's elements
        for i in frontier:
            w_sigma, n1 = sigma[i], n1s[i]
            n1_images = None  # s(N^1(w)) for every s, once sw is new for one
            for s, sw_image in enumerate(images(w_sigma)):
                bit = 1 << s
                if w_sigma & bit or n1 & exits[s]:
                    continue
                sw_sigma = bit | sw_image
                j = by_sigma.get(sw_sigma)
                if j is None:
                    if len(words) >= STATE_BUDGET:
                        raise BudgetExceeded(
                            f"{level}-low elements outgrew the state budget "
                            f"of {STATE_BUDGET:,}")
                    j = by_sigma[sw_sigma] = len(words)
                    words.append((s,) + words[i])
                    sigma.append(sw_sigma)
                    n1_images = n1_images or images(n1)
                    n1s.append(n1_images[s] | bit * (sw_image == w_sigma))
                    nxt.append(j)
                longer.append(j)
                shorter.append(i)
        order += sorted(nxt, key=words.__getitem__)
        frontier = nxt
    low = Shadow._of_words(sys, [words[i] for i in order],
                           [sigma[i] for i in order],
                           provenance=f"low-{level}", level=level)
    low._n1 = [n1s[i] for i in order]
    # the suffix positions in CSR form, by position
    where = [low._pos[mask] for mask in sigma]
    offsets = array("i", [0]) * (len(words) + 1)
    for j in longer:
        offsets[where[j] + 1] += 1
    offsets = array("i", accumulate(offsets))
    fill = offsets[:-1]
    targets = array("i", [0]) * len(longer)
    for j, i in zip(longer, shorter):
        p = where[j]
        targets[fill[p]] = where[i]
        fill[p] += 1
    low._suffixes = (offsets, targets)
    return low


# ---------------------------------------------------------------------------
# Parabolic behaviour

def parabolic_image(shadow: Shadow, subset: Iterable[int]) -> Shadow:
    """p_I(B) = {p_I(b) : b in B}; a Garside shadow of (W_I, I)."""
    members = sorted(set(subset))
    out = [coset_split(b, members)[0].word for b in shadow]
    return Shadow(shadow.system, out, provenance="parabolic-image")


def intersect_parabolic(shadow: Shadow, subset: Iterable[int]) -> Shadow:
    """B intersected with W_I, by support of the (reduced) stored words."""
    members = set(subset)
    out = [b.word for b in shadow if support(b) <= members]
    return Shadow(shadow.system, out, provenance="parabolic-intersection")


def restriction_compatibility_check(sys: CoxeterSystem, subset: Iterable[int],
                                    parabolic_shadow: Shadow) -> bool:
    """Does Gar_S(B) meet W_I exactly in B, for a shadow B of (W_I, I)?

    Whether this always holds is open; this checker decides single
    instances and assumes nothing.
    """
    members = sorted(set(subset))
    closure = garside_closure(sys, seeds=parabolic_shadow.elements)
    restricted = intersect_parabolic(closure, members)
    return ({el.inv for el in restricted}
            == {el.inv for el in parabolic_shadow.elements})


def shadow_in_subsystem(shadow: Shadow, subset: Iterable[int]) -> Shadow:
    """Transport a shadow whose words live in W_I into the subsystem (W_I, I)."""
    members = sorted(set(subset))
    sub, letter_map = shadow.system.subsystem(members)
    out = []
    for b in shadow:
        if not support(b) <= set(members):
            raise ValueError(f"element {b} is not in the parabolic subgroup")
        out.append([letter_map[s] for s in b.word])
    return Shadow(sub, out, provenance=shadow.provenance)
