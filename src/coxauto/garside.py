"""Joins in weak order, Garside shadows, projections, and low elements.

A shadow indexes its elements by root: for each root, one int bitset marks
the elements whose inversion set contains it, bit i standing for the i-th
element in (length, word) order.  The elements above x are the AND of the
bitsets of the roots of N(x), and the prefixes of w are the elements
outside every bitset of a root not in N(w).

Every join is decided in the n-low elements L_n.  Every element is n-low
for some n, and L_n is finite and closed under joins (Dyer & Hohlweg,
*Small roots, low elements, and the weak order in Coxeter groups*, Adv.
Math. 2016).  So two elements of L_n have a join iff they have a common
upper bound in L_n, and the join is then the lowest set bit of the AND of
their up-sets there.  :func:`join` decides it in the smallest L_n holding
both inputs, exactly and with no length cap.  L_0 is closed under suffixes
too; for n > 0 that is the dyho1 conjecture, which :func:`low_universe`
checks before L_n is used.

A shadow is verified by S and e membership, suffix closure and pairwise
joins.  The first two are :func:`check_generated_and_suffix_closed`, which
is all a set already known to be join-closed, such as L_n, needs.

The Garside closure of X lies in the smallest L_n holding X, a finite
Garside shadow, and is read off its index: in a finite join-closed set,
x is in the join closure of X iff x is the join of the elements of X below
it, so passes over the index in (length, word) order, alternating with
suffix passes, close X without deciding a single pair.

An element is n-low iff its right-descent roots are n-small, so the n-low
elements are found by a breadth-first search with rank-many lookups in the
table of n-small roots per candidate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .elements import (Element, _mask_bits, coset_split, identity, generator,
                       mult_left, mult_right, support)
from .errors import BudgetExceeded, LowElementsNotShadow, ShadowViolation
from .smallroots import (Classification, SmallRootTable, affine_structure,
                         build_small_roots, classify_type)
from .system import CoxeterSystem

# Elements of low_elements, so of every L_n universe and every closure, and
# states of build_canonical_automaton.  Stopped at this budget, ~F4 L_1 peaks at
# 117 MB RSS for its low elements (0.50 kB per element; ~D5 L_0 takes
# 0.55 kB) and at 119 MB for its canonical automaton (Python 3.11).
STATE_BUDGET = 200_000


class Shadow:
    """A finite set of elements, deduplicated and sorted by (length, word)."""

    def __init__(self, system: CoxeterSystem, elements: Iterable[Element],
                 provenance: str = "explicit"):
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
        sys._low_universes[level] = low
    return low


def smallest_low_universe(sys: CoxeterSystem,
                          elements: Iterable[Element]) -> Shadow:
    """The smallest L_n holding every given element.

    Every element is n-low for some n, and L_n grows with n, so the ladder
    ends; a rung over ``STATE_BUDGET`` raises ``BudgetExceeded``.
    """
    elements = list(elements)
    level = 0
    while True:
        universe = low_universe(sys, level)
        if all(el in universe for el in elements):
            return universe
        level += 1


def _join_in(universe: Shadow, i: int, j: int) -> Element | None:
    """The join of elements i and j of a join-closed universe, or None.

    Their common upper bounds in it are the AND of their up-sets; the lowest
    set bit is the shortest of them, which is the join.  An empty AND means
    there is no join, since the universe would hold it.
    """
    common = universe._up_set(i) & universe._up_set(j)
    if not common:
        return None
    return universe.elements[(common & -common).bit_length() - 1]


def join(u: Element, v: Element) -> Element | None:
    """The join of u and v in right weak order, or None when there is none.

    Decided exactly in the smallest L_n holding both.
    """
    universe = smallest_low_universe(u.system, (u, v))
    return _join_in(universe, universe._pos[u.inv], universe._pos[v.inv])


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


@dataclass(frozen=True)
class ShadowVerdict:
    status: VerdictStatus
    reason: str = ""
    witness: tuple[str, ...] = ()

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


def verify_shadow(shadow: Shadow) -> ShadowVerdict:
    """Check S and e membership, suffix closure, and pairwise join closure.

    Pairwise joins suffice: finite bounded joins fold from pairwise ones.
    They are decided in one universe, the smallest L_n holding the set.
    """
    failure = check_generated_and_suffix_closed(shadow)
    if failure is not None:
        return failure
    universe = smallest_low_universe(shadow.system, shadow)
    els = shadow.elements
    pos = [universe._pos[el.inv] for el in els]
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            w = _join_in(universe, pos[i], pos[j])
            if w is not None and w not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under joins",
                    witness=(str(els[i]), str(els[j]), str(w)))
    return ShadowVerdict(VerdictStatus.SHADOW)


# ---------------------------------------------------------------------------
# Closure

def garside_closure(sys: CoxeterSystem,
                    seeds: Iterable[Element] = ()) -> Shadow:
    """Smallest Garside shadow containing the seeds (and always S and e).

    The closure lies in U, the smallest L_n holding the seeds, a finite
    Garside shadow, and is read off U's root index with no join decisions.
    In a finite join-closed U holding X, an element x of U is in the join
    closure of X iff x is the join of the elements of X below it.  So one
    walk of U in (length, word) order, counting the elements it admits,
    closes X under joins; a suffix pass then adds the one-step suffixes of
    what was admitted, and the two alternate until nothing changes.
    """
    start = [identity(sys), *(generator(sys, s) for s in range(sys.rank)),
             *seeds]
    if any(el.system is not sys for el in start):
        raise ValueError("element from a different system")
    universe = smallest_low_universe(sys, start)
    return Shadow(sys, _close_in_universe(universe, start),
                  provenance="closure-of-S")


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
    taking suffixes.  w is n-low when N(w) is the set of positive roots in
    the cone over its n-small inversions.  Dyer & Hohlweg (*Small roots, low
    elements, and the weak order in Coxeter groups*, Adv. Math. 2016) show
    that w is n-low iff N^1(w) consists of n-small roots, where
    N^1(w) = {-w(a_t) : t a right descent of w} are the roots b of N(w) with
    N(w) minus b an inversion set, that of w*t.  They need not span the
    extreme rays of the cone over N(w): in A2, N(s1*s2) = {a1, a1+a2} has
    both roots as extreme rays, but N^1(s1*s2) = {a1+a2}.  So a candidate
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
        word = tuple(letter_map[s] for s in b.word)
        el = identity(sub)
        for s in word:
            el = mult_right(el, s)
        out.append(el)
    return Shadow(sub, out, provenance=shadow.provenance)
