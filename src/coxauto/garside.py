"""Joins in weak order, Garside shadows, projections, and low elements.

A shadow indexes its elements by root: for each root, one int bitset marks
the elements whose inversion set contains it, bit i standing for the i-th
element in (length, word) order.  The elements above x are the AND of the
bitsets of the roots of N(x), and the prefixes of w are the elements
outside every bitset of a root not in N(w).

Every join is decided by :func:`decide_join`.  When it is given a
universe, a finite join-closed shadow such as the 0-low elements, and
both inputs lie in it, the join is the lowest set bit of the AND of their
up-sets, and there is none when the AND is empty.  Otherwise boundedness is
only semi-decidable: two positive roots with B <= -1 inside N(u) union N(v)
certify that there is no join, and failing that a breadth-first search runs
up to a length cap.

A shadow is verified by S and e membership, suffix closure and pairwise
joins.  The first two are :func:`check_generated_and_suffix_closed`, which
is all a set already known to be join-closed, such as L_n, needs.

With 0-low seeds the Garside closure is read off the index of the 0-low
elements: in a finite join-closed set, x is in the join closure of X iff x
is the join of the elements of X below it, so passes over the index in
(length, word) order, alternating with suffix passes, close X without
deciding a single pair.  Other seeds go through a semi-naive worklist that
joins each new element with every earlier one by the capped search; pairs
whose search hit the cap are retried once with the cap raised by 4, and the
closure is cap-stable when that retry adds nothing.

An element is n-low iff its right-descent roots are n-small, so the n-low
elements are found by a breadth-first search with rank-many lookups in the
table of n-small roots per candidate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .elements import (Element, _mask_bits, coset_split, identity, generator,
                       mult_left, mult_right, support, weak_leq)
from .errors import BudgetExceeded, ShadowViolation
from .smallroots import (Classification, SmallRootTable, affine_structure,
                         build_small_roots, classify_type)
from .system import CoxeterSystem

# Elements of low_elements and garside_closure, and states of
# build_canonical_automaton.  Stopped at this budget, ~F4 L_1 peaks at
# 117 MB RSS for its low elements (0.50 kB per element; ~D5 L_0 takes
# 0.55 kB) and at 119 MB for its canonical automaton (Python 3.11).
STATE_BUDGET = 200_000


class Shadow:
    """A finite set of elements, deduplicated and sorted by (length, word)."""

    def __init__(self, system: CoxeterSystem, elements: Iterable[Element],
                 provenance: str = "explicit", cap_stable: bool | None = None,
                 cap: int | None = None):
        dedup: dict[int, Element] = {}
        for el in elements:
            if el.system is not system:
                raise ValueError("element from a different system")
            dedup.setdefault(el.inv, el)
        self.system = system
        self.elements: tuple[Element, ...] = tuple(
            sorted(dedup.values(), key=lambda e: (e.length, e.word)))
        self._pos = {el.inv: i for i, el in enumerate(self.elements)}
        self.provenance = provenance
        self.cap_stable = cap_stable
        self.cap = cap
        self._index: dict[int, int] | None = None  # see _root_index
        self._up: dict[int, int] = {}  # position -> _up_set, as queried

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, el: Element) -> bool:
        return el.inv in self._pos

    def _root_index(self) -> dict[int, int]:
        """Root id -> bitset of the elements whose inversion set holds it."""
        if self._index is None:
            size = (len(self.elements) + 7) >> 3
            rows: dict[int, bytearray] = {}
            for i, el in enumerate(self.elements):
                byte, bit = i >> 3, 1 << (i & 7)
                for rid in _mask_bits(el.inv):
                    row = rows.get(rid)
                    if row is None:
                        row = rows[rid] = bytearray(size)
                    row[byte] |= bit
            self._index = {rid: int.from_bytes(row, "little")
                           for rid, row in rows.items()}
        return self._index

    def _up_set(self, i: int) -> int:
        """The elements whose inversion set contains that of element i."""
        up = self._up.get(i)
        if up is None:
            index = self._root_index()
            up = (1 << len(self.elements)) - 1
            for rid in _mask_bits(self.elements[i].inv):
                up &= index[rid]
            self._up[i] = up
        return up

    def _below(self, inv: int) -> int:
        """The elements whose inversion set lies inside the root mask inv.

        They are the elements outside the bitset of every root not in inv.
        """
        outside = 0
        for rid, column in self._root_index().items():
            if not inv >> rid & 1:
                outside |= column
        return ((1 << len(self.elements)) - 1) & ~outside

    def words(self) -> list[str]:
        return [str(el) for el in self.elements]

    def __repr__(self) -> str:
        return f"Shadow({self.provenance}, {len(self.elements)} elements)"


class _Decision(enum.Enum):
    FOUND = "found"
    NO_JOIN = "no-join"
    AT_CAP = "at-cap"


def _unbounded_certificate(u: Element, v: Element) -> bool:
    """True when N(u) | N(v) certifies that {u, v} has no upper bound.

    Two positive roots with B <= -1 are the canonical simple system of an
    infinite dihedral reflection subgroup, so no inversion set contains
    both; a common upper bound would have to.
    """
    sys = u.system
    merged = _mask_bits(u.inv | v.inv)
    for a in range(len(merged)):
        for b in range(a + 1, len(merged)):
            if sys._pair_blocks(merged[a], merged[b]):
                return True
    return False


def _bfs_join(u: Element, v: Element, cap: int) -> tuple[_Decision, Element | None]:
    target = v.inv
    seen = {u.inv}
    frontier = [u]
    length = u.length
    while frontier and length < cap:
        length += 1
        nxt = []
        for w in frontier:
            sys = w.system
            for s in range(sys.rank):
                sign, rid = sys.act_word_on_root(w.word, 1, s)
                if sign < 0:
                    continue
                inv = w.inv | 1 << rid
                if inv in seen:
                    continue
                seen.add(inv)
                ws = Element(sys, w.word + (s,), inv)
                if not target & ~inv:
                    return _Decision.FOUND, ws
                nxt.append(ws)
        frontier = nxt
    if not frontier:
        return _Decision.NO_JOIN, None
    return _Decision.AT_CAP, None


def decide_join(u: Element, v: Element, cap: int, universe: Shadow | None = None
                ) -> tuple[_Decision, Element | None]:
    """The join of u and v in right weak order, or why there is none.

    In a join-closed universe holding both inputs, the common upper bounds
    are the AND of their up-sets; the lowest set bit is the shortest of
    them, which is the join, and an empty AND means there is none.  This
    also covers comparable inputs, whose join is the larger one.  Otherwise,
    after the B <= -1 certificate, the search runs breadth-first by length
    upward from u up to the cap; the first element dominating v is the
    join, since a minimal-length common upper bound is the join.
    """
    if universe is not None:
        i, j = universe._pos.get(u.inv), universe._pos.get(v.inv)
        if i is not None and j is not None:
            common = universe._up_set(i) & universe._up_set(j)
            if not common:
                return _Decision.NO_JOIN, None
            return (_Decision.FOUND,
                    universe.elements[(common & -common).bit_length() - 1])
    if weak_leq(u, v):
        return _Decision.FOUND, v
    if weak_leq(v, u):
        return _Decision.FOUND, u
    if _unbounded_certificate(u, v):
        return _Decision.NO_JOIN, None
    return _bfs_join(u, v, cap)


def low_universe(sys: CoxeterSystem) -> Shadow:
    """The 0-low elements, cached on the system.

    They form a finite Garside shadow containing the closure of S and are
    closed under join, so joins of 0-low elements are decided in its index.
    """
    if sys._low0_universe is None:
        sys._low0_universe = low_elements(sys, 0, build_small_roots(sys, 0))
    return sys._low0_universe


def default_cap(elements: Iterable[Element]) -> int:
    return 2 * max((el.length for el in elements), default=0) + 8


# ---------------------------------------------------------------------------
# Projection

def project(shadow: Shadow, w: Element) -> Element:
    """pi_B(w): the unique longest prefix of w lying in the shadow.

    The prefixes of w in B are the elements whose inversion set lies inside
    N(w); the highest set bit is the longest of them.
    """
    prefixes = shadow._below(w.inv)
    if not prefixes:
        raise ShadowViolation("shadow contains no prefix of the element")
    top = prefixes.bit_length() - 1
    best = shadow.elements[top]
    rest = prefixes ^ (1 << top)
    if rest and shadow.elements[rest.bit_length() - 1].length == best.length:
        raise ShadowViolation(
            f"projection of {w} is not unique; the set is not join-closed")
    return best


# ---------------------------------------------------------------------------
# Verification

class VerdictStatus(enum.Enum):
    SHADOW = "shadow"
    NOT_SHADOW = "not-shadow"
    INDETERMINATE_AT_CAP = "indeterminate-at-cap"


@dataclass(frozen=True)
class ShadowVerdict:
    status: VerdictStatus
    reason: str = ""
    witness: tuple[str, ...] = ()
    cap: int | None = None

    def __bool__(self) -> bool:
        return self.status is VerdictStatus.SHADOW


def check_generated_and_suffix_closed(shadow: Shadow) -> ShadowVerdict | None:
    """The first failure among S and e membership and suffix closure.

    None when the set holds S and e and is closed under suffixes.
    """
    sys = shadow.system
    for s in range(sys.rank):
        if generator(sys, s) not in shadow:
            return ShadowVerdict(VerdictStatus.NOT_SHADOW,
                                 reason=f"missing generator {s + 1}")
    if identity(sys) not in shadow:
        return ShadowVerdict(VerdictStatus.NOT_SHADOW, reason="missing identity")
    for b in shadow:
        for s in b.descents_left:
            if mult_left(s, b) not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under suffixes",
                    witness=(str(b), str(mult_left(s, b))))
    return None


def verify_shadow(shadow: Shadow, cap: int | None = None) -> ShadowVerdict:
    """Check S and e membership, suffix closure, and pairwise join closure.

    Pairwise joins suffice: finite bounded joins fold from pairwise ones.
    Joins of 0-low elements are decided in the 0-low universe, the others
    by the capped search.  Join searches that hit the cap leave the verdict
    indeterminate unless the set is refuted outright.
    """
    failure = check_generated_and_suffix_closed(shadow)
    if failure is not None:
        return failure
    cap = cap if cap is not None else default_cap(shadow)
    universe = low_universe(shadow.system)
    hit_cap = False
    els = shadow.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            decision, w = decide_join(els[i], els[j], cap, universe)
            if decision is _Decision.FOUND and w not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under joins",
                    witness=(str(els[i]), str(els[j]), str(w)))
            if decision is _Decision.AT_CAP:
                hit_cap = True
    if hit_cap:
        return ShadowVerdict(VerdictStatus.INDETERMINATE_AT_CAP,
                             reason="join searches hit the cap", cap=cap)
    return ShadowVerdict(VerdictStatus.SHADOW)


# ---------------------------------------------------------------------------
# Closure

def garside_closure(sys: CoxeterSystem, seeds: Iterable[Element] = (),
                    cap: int | None = None) -> Shadow:
    """Smallest Garside shadow containing the seeds (and always S and e).

    When every seed is 0-low, the closure lies in the 0-low elements U, a
    finite Garside shadow, and is read off U's root index with no join
    decisions.  In a finite join-closed U holding X, an element x of U is in
    the join closure of X iff x is the join of the elements of X below it.
    So one walk of U in (length, word) order, counting the elements it
    admits, closes X under joins; a suffix pass then adds the one-step
    suffixes of what was admitted, and the two alternate until nothing
    changes.  The result is cap-stable.

    Other seeds go through a worklist in insertion order: each element adds
    its one-step suffixes and is then joined with every earlier element by
    the capped search, so each pair is decided once.  Joins that hit the cap
    are retried once with the cap raised by 4, and the closure is cap-stable
    when the retry adds nothing.

    The result records the cap the search would run with.  More than
    ``STATE_BUDGET`` elements raise ``BudgetExceeded``.
    """
    start = [identity(sys), *(generator(sys, s) for s in range(sys.rank)),
             *seeds]
    if any(el.system is not sys for el in start):
        raise ValueError("element from a different system")
    base_cap = cap if cap is not None else default_cap(start)
    universe = low_universe(sys)
    if all(el in universe for el in start):
        members = _close_in_universe(universe, start)
        if len(members) > STATE_BUDGET:
            raise BudgetExceeded(
                f"Garside closure outgrew the state budget of {STATE_BUDGET:,}")
        return Shadow(sys, members, provenance="closure-of-S",
                      cap_stable=True, cap=base_cap)

    order: list[Element] = []
    invs: set[int] = set()

    def add(el: Element) -> None:
        if el.inv in invs:
            return
        if len(order) >= STATE_BUDGET:
            raise BudgetExceeded(
                f"Garside closure outgrew the state budget of {STATE_BUDGET:,}")
        invs.add(el.inv)
        order.append(el)

    for el in start:
        add(el)
    done = 0

    def drain(cap: int) -> list[tuple[Element, Element]]:
        """Process the worklist; returns the pairs whose search hit the cap."""
        nonlocal done
        at_cap = []
        while done < len(order):
            x = order[done]
            for s in x.descents_left:
                add(mult_left(s, x))
            for y in order[:done]:
                decision, w = decide_join(y, x, cap)
                if decision is _Decision.FOUND:
                    add(w)
                elif decision is _Decision.AT_CAP:
                    at_cap.append((y, x))
            done += 1
        return at_cap

    # A result that is not cap-stable is the closure under the joins found
    # within the cap.
    undecided = drain(base_cap)
    size = len(order)
    if undecided:
        for y, x in undecided:
            decision, w = decide_join(y, x, base_cap + 4)
            if decision is _Decision.FOUND:
                add(w)
        drain(base_cap + 4)
    return Shadow(sys, order, provenance="closure-of-S",
                  cap_stable=len(order) == size, cap=base_cap)


def _close_in_universe(universe: Shadow,
                       seeds: Iterable[Element]) -> list[Element]:
    """The closure of the seeds under joins and suffixes, by bitset passes.

    The universe must be finite and closed under joins and suffixes.  The
    join of the members below x is the lowest bit of the AND of the bitsets
    of the roots of their inversion sets, the roots of N(x) whose bitset
    meets them; x is admitted when that bit is its own.
    """
    els, pos = universe.elements, universe._pos
    index = universe._root_index()
    full = (1 << len(els)) - 1
    closed = 0  # the members, as a bitset over the universe
    inside = bytearray(len(els))  # the same, for constant-time lookups

    def admit(i: int) -> None:
        nonlocal closed
        inside[i] = 1
        closed |= 1 << i

    def admit_suffixes(todo: list[int]) -> bool:
        """Admit the suffixes of the members at todo, recursively."""
        grew = False
        while todo:
            x = els[todo.pop()]
            for s in x.descents_left:
                j = pos[mult_left(s, x).inv]
                if not inside[j]:
                    admit(j)
                    todo.append(j)
                    grew = True
        return grew

    todo = sorted({pos[el.inv] for el in seeds})
    for i in todo:
        admit(i)
    admit_suffixes(todo)
    while True:
        admitted = []
        for i, x in enumerate(els):
            if inside[i]:
                continue
            below = closed & universe._below(x.inv)
            if not below & (below - 1):  # fewer than two members below x
                continue
            up = full
            for rid in _mask_bits(x.inv):
                column = index[rid]
                if column & below:
                    up &= column
            if (up & -up).bit_length() - 1 == i:
                admit(i)
                admitted.append(i)
        if not admitted or not admit_suffixes(admitted):
            break
    return [el for el, member in zip(els, inside) if member]


# ---------------------------------------------------------------------------
# Low elements

def check_state_budget(sys: CoxeterSystem, level: int) -> None:
    """Refuse at once a level-0 affine enumeration predicted to pass budget.

    An affine group of finite rank r and Coxeter number h has (h+1)^r
    regions in its Shi arrangement (Shi 1987), in bijection with its 0-low
    elements and with the states of its 0-canonical automaton (Dyer,
    Fishel, Hohlweg & Mark, *Shi arrangements and low elements in affine
    Coxeter groups*).
    """
    if (level != 0 or classify_type(sys, range(sys.rank))
            is not Classification.AFFINE):
        return
    structure = affine_structure(sys)
    h, r = structure.coxeter_number, structure.finite_rank
    predicted = (h + 1) ** r
    if predicted > STATE_BUDGET:
        raise BudgetExceeded(
            f"{structure.family} has (h+1)^r = {h + 1}^{r} = {predicted:,} "
            f"states at level 0, over the state budget of {STATE_BUDGET:,}")


def low_elements(sys: CoxeterSystem, level: int,
                 table: SmallRootTable | None = None) -> Shadow:
    """The n-low elements, by BFS over left multiplications.

    Pruning non-low branches is sound because the set is closed under
    taking suffixes.  w is n-low iff N^1(w) lies in the n-small roots, where
    the roots N^1(w) = {-w(a_t) : t a right descent of w} span the extreme
    rays of the cone over N(w) (Dyer & Hohlweg, *Small roots, low elements,
    and the weak order in Coxeter groups*, Adv. Math. 2016).  So a candidate
    s*w is tested by looking up its rank-many right-descent roots in the
    table.  The search carries the signed roots w(a_t) along, since
    sw(a_t) = s(w(a_t)) costs one reflection per letter.  More than
    ``STATE_BUDGET`` elements raise ``BudgetExceeded``.
    """
    if table is None:
        table = build_small_roots(sys, level)
    if table.system is not sys or table.level != level:
        raise ValueError("table does not match the system and level")
    check_state_budget(sys, level)
    small = table.node_by_rid
    letters = range(sys.rank)
    e = identity(sys)
    low: dict[int, Element] = {e.inv: e}
    frontier = [(e, [(1, t) for t in letters])]
    while frontier:
        nxt = []
        # candidates of one length meet again only within this round
        rejected: set[int] = set()
        for w, images in frontier:
            for s in letters:
                if w.inv >> s & 1:
                    continue
                sw = mult_left(s, w)
                if sw.inv in low or sw.inv in rejected:
                    continue
                sw_images = []
                for sign, rid in images:
                    sg, rid = sys.reflect_id(s, rid)
                    sw_images.append((sign * sg, rid))
                if all(rid in small for sign, rid in sw_images if sign < 0):
                    if len(low) >= STATE_BUDGET:
                        raise BudgetExceeded(
                            f"{level}-low elements outgrew the state budget "
                            f"of {STATE_BUDGET:,}")
                    low[sw.inv] = sw
                    nxt.append((sw, sw_images))
                else:
                    rejected.add(sw.inv)
        frontier = nxt
    return Shadow(sys, low.values(), provenance=f"low-{level}")


# ---------------------------------------------------------------------------
# Parabolic behaviour

def parabolic_image(shadow: Shadow, subset: Iterable[int]) -> Shadow:
    """p_I(B) = {p_I(b) : b in B}; a Garside shadow of (W_I, I)."""
    members = sorted(set(subset))
    out = [coset_split(b, members)[0] for b in shadow]
    return Shadow(shadow.system, out, provenance="parabolic-image")


def intersect_parabolic(shadow: Shadow, subset: Iterable[int]) -> Shadow:
    """B intersected with W_I, by support of the (reduced) stored words."""
    members = set(subset)
    out = [b for b in shadow if support(b) <= members]
    return Shadow(shadow.system, out, provenance="parabolic-intersection")


def restriction_compatibility_check(sys: CoxeterSystem, subset: Iterable[int],
                                    parabolic_shadow: Shadow,
                                    cap: int | None = None) -> bool:
    """Does Gar_S(B) meet W_I exactly in B, for a shadow B of (W_I, I)?

    Whether this always holds is open; this checker decides single
    instances and assumes nothing.
    """
    members = sorted(set(subset))
    closure = garside_closure(sys, seeds=parabolic_shadow.elements, cap=cap)
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
        word = tuple(letter_map[s] for s in b.word)
        el = identity(sub)
        for s in word:
            el = mult_right(el, s)
        out.append(el)
    return Shadow(sub, out, provenance=shadow.provenance)
