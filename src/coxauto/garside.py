"""Joins in weak order, Garside shadows, projections, and low elements.

A shadow B lies in some L_n, the n-low elements, and is indexed by its
n-small roots alone.  For an n-low c, N(c) is the set of positive roots in
the cone over Sigma_n(c), the n-small roots of N(c) (Dyer & Hohlweg,
*Small roots, low elements, and the weak order in Coxeter groups*, Adv.
Math. 2016).  An inversion set is closed under positive combinations, so
c <= w iff Sigma_n(c) lies inside N(w) iff it lies inside Sigma_n(w).  So
for each n-small root one int bitset, its column, marks the elements whose
inversion set contains it, bit i standing for the i-th element in (length,
word) order.  The elements above x are the AND of the columns of
Sigma_n(x), and the prefixes of w are the elements outside every column of
an n-small root not in Sigma_n(w).

Every join is decided in the n-low elements L_n.  Every element is n-low
for some n, and L_n is finite and closed under joins (Dyer & Hohlweg
2016).  So two elements of L_n have a join iff they have a common
upper bound in L_n, and the join is then the lowest set bit of the AND of
their up-sets there.  :func:`join` decides it in the smallest L_n holding
both inputs, exactly and with no length cap.  L_0 is closed under suffixes
too; for n > 0 that is the dyho1 conjecture, which :func:`low_universe`
checks before L_n is used.

A shadow is verified by S and e membership, suffix closure and pairwise
joins.  The first two are :func:`check_generated_and_suffix_closed`, which
is all a set already known to be join-closed, such as L_n, needs.  A closure
and an L_n carry the verdict SHADOW, which :func:`verify_shadow` returns.

The Garside closure of X lies in the smallest L_n holding X, a finite
Garside shadow, and is read off its index: in a finite join-closed set,
x is in the join closure of X iff x is the join of the elements of X below
it, so passes over the index in (length, word) order, alternating with
suffix passes over the suffix positions that L_n recorded, close X without
deciding a single pair or multiplying a single element.

An element is n-low iff its right-descent roots N^1 are n-small, so the
n-low elements are found by a breadth-first search that carries N^1 and
Sigma_n of each element as node masks of the table of n-small roots:
lowness of a candidate is one AND, and only the elements found are
multiplied out.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .elements import (Element, _mask_bits, coset_split, identity, generator,
                       mult_left, mult_right, support)
from .errors import (BudgetExceeded, InternalInvariant, LowElementsNotShadow,
                     ShadowViolation)
from .smallroots import (Classification, SmallRootTable, affine_structure,
                         build_small_roots, classify_type)
from .system import CoxeterSystem

# Elements of low_elements, so of every L_n universe and every closure, and
# states of build_canonical_automaton.  ~F4 L_1, stopped here, peaks at 117 MB
# RSS for its low elements (0.50 kB each; ~D5 L_0: 0.55 kB) and 119 MB for its
# A_1 (Python 3.11); a shadow automaton over L_n holds both (~B4 L_1: 84 MB).
STATE_BUDGET = 200_000


class Shadow:
    """A finite set of elements, deduplicated and sorted by (length, word).

    ``level`` is an n with the set inside L_n, and the index is over the
    n-small roots.  It is set once: to n for L_n, and otherwise to the
    smallest such n, which a closure and a verified set record and any
    other set finds through :func:`smallest_low_universe` on first use.
    """

    def __init__(self, system: CoxeterSystem, elements: Iterable[Element],
                 provenance: str = "explicit", level: int | None = None):
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
        self.level = level
        # Sigma_n of each element and the columns; see _root_index
        self._small: list[int] | None = None
        self._columns: list[int] | None = None
        # the positions of each element's one-step suffixes, in CSR form:
        # those of element i are targets[offsets[i]:offsets[i + 1]]; recorded
        # by low_elements, read by _close_in_universe
        self._suffixes: tuple[array, array] | None = None
        self._up: dict[int, int] = {}  # position -> _up_set, as queried
        # SHADOW for a closure or an L_n; returned by verify_shadow
        self.verdict: ShadowVerdict | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, el: Element) -> bool:
        return el.inv in self._pos

    def _small_table(self) -> SmallRootTable:
        """The n-small roots for n the shadow's level, found if unknown."""
        if self.level is None:
            self.level = smallest_low_universe(self.system, self).level
        return build_small_roots(self.system, self.level)

    def _root_index(self) -> tuple[list[int], list[int]]:
        """The columns and the small parts of the shadow's elements.

        Column ``nid`` is the bitset of the elements whose inversion set
        holds n-small root ``nid`` of the table; small part i is the node
        mask Sigma_n(x) of element i.  :func:`low_elements` supplies the
        small parts from its search, and :func:`garside_closure` from its
        universe; any other set reads them off the inversion sets.  The
        columns are built on first use.
        """
        if self._columns is None:
            table = self._small_table()
            if self._small is None:
                self._small = [table.small_part(el.inv)
                               for el in self.elements]
            size = (len(self.elements) + 7) >> 3
            rows = [bytearray(size) for _ in range(len(table))]
            for i, mask in enumerate(self._small):
                byte, bit = i >> 3, 1 << (i & 7)
                for nid in _mask_bits(mask):
                    rows[nid][byte] |= bit
            self._columns = [int.from_bytes(row, "little") for row in rows]
        return self._columns, self._small

    def _up_set(self, i: int) -> int:
        """The elements whose inversion set contains that of element i.

        Element i is n-low, so they are the elements whose inversion set
        holds Sigma_n of element i.
        """
        up = self._up.get(i)
        if up is None:
            columns, small = self._root_index()
            up = (1 << len(self.elements)) - 1
            for nid in _mask_bits(small[i]):
                up &= columns[nid]
            self._up[i] = up
        return up

    def _below(self, small: int) -> int:
        """The elements c with Sigma_n(c) inside the node mask ``small``.

        They are the elements outside the column of every n-small root not
        in ``small``.  For small = Sigma_n(w) they are the elements below w:
        an n-low c has N(c) equal to the positive roots in the cone over
        Sigma_n(c) (Dyer & Hohlweg 2016), and N(w) is closed under positive
        combinations, so c <= w iff Sigma_n(c) lies inside N(w).
        """
        outside = 0
        for nid, column in enumerate(self._root_index()[0]):
            if not small >> nid & 1:
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
        low.verdict = ShadowVerdict(VerdictStatus.SHADOW)
        sys._low_universes[level] = low
    return low


def smallest_low_universe(sys: CoxeterSystem,
                          elements: Iterable[Element]) -> Shadow:
    """The smallest L_n holding every given element.

    Every element is n-low for some n, and L_n grows with n, so the ladder
    ends; a rung over ``STATE_BUDGET`` raises ``BudgetExceeded``.
    """
    elements = list(elements)
    if any(el.system is not sys for el in elements):
        raise ValueError("element from a different system")
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

    The prefixes of w in B are the elements c with N(c) inside N(w).  B
    lies in L_n, and for an n-low c that holds iff Sigma_n(c) lies inside
    Sigma_n(w), the n-small roots of N(w) (Dyer & Hohlweg 2016; see
    ``Shadow._below``).  So only the small part of N(w) is read; the
    highest set bit of the prefixes is the longest of them.  A set that
    lies in no L_n within the state budget raises ``BudgetExceeded``.
    """
    if w.system is not shadow.system:
        raise ValueError("element from a different system")
    prefixes = shadow._below(shadow._small_table().small_part(w.inv))
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

    None when the set holds S and e and is closed under suffixes.  In a set
    from :func:`low_elements`, only an element that recorded fewer suffixes
    than it has left descents (the low ``rank`` bits of Sigma_n) is multiplied.
    """
    sys = shadow.system
    for s in range(sys.rank):
        if generator(sys, s) not in shadow:
            return ShadowVerdict(VerdictStatus.NOT_SHADOW,
                                 reason=f"missing generator {s + 1}")
    if identity(sys) not in shadow:
        return ShadowVerdict(VerdictStatus.NOT_SHADOW, reason="missing identity")
    suspects = shadow.elements
    if shadow._suffixes is not None:
        offsets, _ = shadow._suffixes
        suspects = (b for b, small, lo, hi in zip(
            shadow.elements, shadow._small, offsets, offsets[1:])
            if hi - lo != (small & (1 << sys.rank) - 1).bit_count())
    for b in suspects:
        for s in b.descents_left:
            if mult_left(s, b) not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under suffixes",
                    witness=(str(b), str(mult_left(s, b))))
    return None


def verify_shadow(shadow: Shadow) -> ShadowVerdict:
    """Check S and e membership, suffix closure, and pairwise join closure.

    A verdict recorded on the shadow is returned as it is.  Otherwise
    pairwise joins suffice: finite bounded joins fold from pairwise ones.
    They are decided in one universe, the smallest L_n holding the set.
    """
    if shadow.verdict is not None:
        return shadow.verdict
    failure = check_generated_and_suffix_closed(shadow)
    if failure is not None:
        return failure
    universe = smallest_low_universe(shadow.system, shadow)
    if shadow.level is None:
        shadow.level = universe.level
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
    what was admitted, and the two alternate until nothing changes.  The
    members keep their small parts from U.
    """
    start = [identity(sys), *(generator(sys, s) for s in range(sys.rank)),
             *seeds]
    universe = smallest_low_universe(sys, start)
    inside = _close_in_universe(universe, start)
    closure = Shadow(sys, compress(universe.elements, inside),
                     provenance="closure-of-S", level=universe.level)
    # the members keep the universe's order
    closure._small = list(compress(universe._root_index()[1], inside))
    closure.verdict = ShadowVerdict(VerdictStatus.SHADOW)
    return closure


def _close_in_universe(universe: Shadow,
                       seeds: Iterable[Element]) -> bytearray:
    """The closure of the seeds under joins and suffixes, by bitset passes:
    byte i is 1 iff element i of the universe is a member.

    The universe must be finite and closed under joins and suffixes, with
    its suffixes recorded, as :func:`low_elements` does.  The join of the
    members below x is the lowest bit of the AND of the columns of the roots
    of their Sigma_n, the roots of Sigma_n(x) whose column meets them; x is
    admitted when that bit is its own.  The suffix pass reads the recorded
    positions of each member's one-step suffixes and multiplies nothing.
    """
    if universe._suffixes is None:
        raise InternalInvariant("closure universe has no recorded suffixes")
    offsets, targets = universe._suffixes
    columns, small = universe._root_index()
    full = (1 << len(small)) - 1
    closed = 0  # the members, as a bitset over the universe
    inside = bytearray(len(small))  # the same, for constant-time lookups

    def admit(i: int) -> None:
        nonlocal closed
        inside[i] = 1
        closed |= 1 << i

    def admit_suffixes(todo: list[int]) -> bool:
        """Admit the suffixes of the members at todo, recursively."""
        grew = False
        while todo:
            i = todo.pop()
            for j in targets[offsets[i]:offsets[i + 1]]:
                if not inside[j]:
                    admit(j)
                    todo.append(j)
                    grew = True
        return grew

    todo = sorted({universe._pos[el.inv] for el in seeds})
    for i in todo:
        admit(i)
    admit_suffixes(todo)
    while True:
        admitted = []
        for i, x_small in enumerate(small):
            if inside[i]:
                continue
            below = closed & universe._below(x_small)
            if not below & (below - 1):  # fewer than two members below x
                continue
            up = full
            for nid in _mask_bits(x_small):
                column = columns[nid]
                if column & below:
                    up &= column
            if (up & -up).bit_length() - 1 == i:
                admit(i)
                admitted.append(i)
        if not admitted or not admit_suffixes(admitted):
            break
    return inside


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
    (s(Sigma_n(w)) restricted to the table) (Brink & Howlett 1993).  One
    call of :meth:`SmallRootTable.images` gives the images of Sigma_n(w)
    under all letters, and :meth:`SmallRootTable.image` that of N^1(w)
    under s for each new sw.  Sigma_n determines an n-low element, so
    the low candidates of one round, which meet only within that round, are
    keyed by it.  Only the elements found are multiplied out, |L_n| - 1
    calls of ``mult_left``, and each keeps the word it was first found by.

    Every low candidate s*w records w as the suffix of s*w by s.  Each left
    descent s of an x in L_n has s*x in L_n (by theorem for n = 0; checked by
    :func:`low_universe` for n > 0), and the search tries s on s*x, so every
    suffix of every element is recorded, for :func:`_close_in_universe`.
    More than ``STATE_BUDGET`` elements raise ``BudgetExceeded``.  Unlike
    :func:`low_universe`, this caches nothing and records no verdict.
    """
    check_state_budget(sys, level)
    table = build_small_roots(sys, level)
    exits = table.exits
    found = [identity(sys)]  # in the order found
    sigma = [0]  # Sigma_n of each
    # edge k: found[longer[k]] = s * found[shorter[k]], s a left descent
    longer, shorter = array("l"), array("l")
    frontier = [(0, 0)]  # (index in found, N^1 as a node mask)
    while frontier:
        nxt = []
        by_sigma: dict[int, int] = {}  # this round's elements
        for i, n1 in frontier:
            w = found[i]
            for s, image in enumerate(table.images(sigma[i])):
                bit = 1 << s
                if w.inv & bit or n1 & exits[s]:
                    continue
                sw_sigma = bit | image
                j = by_sigma.get(sw_sigma)
                if j is None:
                    if len(found) >= STATE_BUDGET:
                        raise BudgetExceeded(
                            f"{level}-low elements outgrew the state budget "
                            f"of {STATE_BUDGET:,}")
                    j = by_sigma[sw_sigma] = len(found)
                    sw = mult_left(s, w)
                    found.append(sw)
                    sigma.append(sw_sigma)
                    sw_n1 = table.image(s, n1)
                    if sw.inv == w.inv | bit:
                        sw_n1 |= bit
                    nxt.append((j, sw_n1))
                longer.append(j)
                shorter.append(i)
        frontier = nxt
    low = Shadow(sys, found, provenance=f"low-{level}", level=level)
    # the masks, and the suffix positions in CSR form, in the shadow's order
    where = [low._pos[el.inv] for el in found]
    small = [0] * len(found)
    offsets = array("l", [0]) * (len(found) + 1)
    for i, p in enumerate(where):
        small[p] = sigma[i]
    for j in longer:
        offsets[where[j] + 1] += 1
    for p in range(len(found)):
        offsets[p + 1] += offsets[p]
    fill = offsets[:-1]
    targets = array("l", [0]) * len(longer)
    for j, i in zip(longer, shorter):
        p = where[j]
        targets[fill[p]] = where[i]
        fill[p] += 1
    low._small = small
    low._suffixes = (offsets, targets)
    return low


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
