"""Joins in weak order, Garside shadows, projections, and low elements.

Every join is decided by :meth:`JoinEngine.decide`.  When the engine holds
a universe, a finite join-closed shadow such as the 0-low elements, and
both inputs lie in it, the join is the first element of the universe above
both, or there is none.  Otherwise boundedness is only semi-decidable: two
positive roots with B <= -1 inside N(u) union N(v) certify that there is no
join, and failing that a breadth-first search runs up to a length cap.

The Garside closure is a semi-naive worklist: each new element contributes
its one-step suffixes and is joined with every earlier element exactly
once.  With 0-low seeds every pair is decided in the 0-low universe; other
seeds send every pair through the capped search.  Pairs whose search hit
the cap are retried once with the cap raised by 4; the closure is
cap-stable when that retry adds nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .elements import (Element, coset_split, identity, generator, mult_left,
                       mult_right, support, weak_leq)
from .errors import BudgetExceeded, InternalInvariant, ShadowViolation
from .smallroots import EXIT, SmallRootTable, build_small_roots, cone_member
from .system import CoxeterSystem

DEFAULT_BUDGET = 200_000


class Shadow:
    """A finite set of elements, deduplicated and sorted by (length, word)."""

    def __init__(self, system: CoxeterSystem, elements: Iterable[Element],
                 provenance: str = "explicit", cap_stable: bool | None = None,
                 cap: int | None = None):
        dedup: dict[frozenset[int], Element] = {}
        for el in elements:
            if el.system is not system:
                raise ValueError("element from a different system")
            dedup.setdefault(el.inv, el)
        self.system = system
        self.elements: tuple[Element, ...] = tuple(
            sorted(dedup.values(), key=lambda e: (e.length, e.word)))
        self._by_inv = {el.inv: el for el in self.elements}
        self.provenance = provenance
        self.cap_stable = cap_stable
        self.cap = cap

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, el: Element) -> bool:
        return el.inv in self._by_inv

    def canonical(self, el: Element) -> Element | None:
        return self._by_inv.get(el.inv)

    def words(self) -> list[str]:
        return [str(el) for el in self.elements]

    def __repr__(self) -> str:
        return f"Shadow({self.provenance}, {len(self.elements)} elements)"


class JoinResult(NamedTuple):
    """Outcome of a capped join search; element is None when not found."""

    element: Element | None
    cap: int


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
    merged = sorted(u.inv | v.inv)
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
                inv = w.inv | {rid}
                if inv in seen:
                    continue
                seen.add(inv)
                ws = Element(sys, w.word + (s,), inv)
                if target <= inv:
                    return _Decision.FOUND, ws
                nxt.append(ws)
        frontier = nxt
    if not frontier:
        return _Decision.NO_JOIN, None
    return _Decision.AT_CAP, None


def join(u: Element, v: Element, cap: int) -> JoinResult:
    """Least upper bound of u and v in right weak order, searched up to cap.

    After the B <= -1 certificate, breadth-first by length upward from u;
    the first element dominating v is the join, since a minimal-length
    common upper bound is the join.
    """
    if cap < max(u.length, v.length):
        raise ValueError("cap must be at least the longer input")
    return JoinResult(JoinEngine(cap).decide(u, v)[1], cap)


class JoinEngine:
    """The one place joins are decided, decisively when the universe allows."""

    def __init__(self, cap: int, universe: Shadow | None = None):
        self.cap = cap
        self.universe = universe

    def decide(self, u: Element, v: Element) -> tuple[_Decision, Element | None]:
        if weak_leq(u, v):
            return _Decision.FOUND, v
        if weak_leq(v, u):
            return _Decision.FOUND, u
        universe = self.universe
        if universe is not None and u in universe and v in universe:
            merged = u.inv | v.inv
            for w in universe:
                if merged <= w.inv:
                    return _Decision.FOUND, w
            return _Decision.NO_JOIN, None
        if _unbounded_certificate(u, v):
            return _Decision.NO_JOIN, None
        return _bfs_join(u, v, self.cap)


def low_universe(sys: CoxeterSystem) -> Shadow:
    """The 0-low elements, cached on the system.

    They form a finite Garside shadow containing the closure of S and are
    closed under join, so joins of 0-low elements can be found by scanning.
    """
    if sys._low0_universe is None:
        sys._low0_universe = low_elements(sys, 0, build_small_roots(sys, 0))
    return sys._low0_universe


def default_cap(elements: Iterable[Element]) -> int:
    return 2 * max((el.length for el in elements), default=0) + 8


# ---------------------------------------------------------------------------
# Projection

def project(shadow: Shadow, w: Element) -> Element:
    """pi_B(w): the unique longest prefix of w lying in the shadow."""
    best: Element | None = None
    tied = False
    for b in shadow:
        if b.inv <= w.inv:
            if best is None or b.length > best.length:
                best, tied = b, False
            elif b.length == best.length and b.inv != best.inv:
                tied = True
    if best is None:
        raise ShadowViolation("shadow contains no prefix of the element")
    if tied:
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


def verify_shadow(shadow: Shadow, cap: int | None = None,
                  universe: Shadow | None = None) -> ShadowVerdict:
    """Check S and e membership, suffix closure, and pairwise join closure.

    Pairwise joins suffice: finite bounded joins fold from pairwise ones.
    Join searches that hit the cap leave the verdict indeterminate unless
    the set is refuted outright.  Joins of 0-low elements are decided in the
    0-low universe.  A caller may supply another join-closed ``universe``
    containing the shadow (such as L_n, whose join closure is a theorem) to
    make every join decision decisive; only suffix closure and membership
    remain genuinely tested then.
    """
    sys = shadow.system
    engine = JoinEngine(cap if cap is not None else default_cap(shadow),
                        universe if universe is not None else low_universe(sys))
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
    hit_cap = False
    els = shadow.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            decision, w = engine.decide(els[i], els[j])
            if decision is _Decision.FOUND and w not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under joins",
                    witness=(str(els[i]), str(els[j]), str(w)))
            if decision is _Decision.AT_CAP:
                hit_cap = True
    if hit_cap:
        return ShadowVerdict(VerdictStatus.INDETERMINATE_AT_CAP,
                             reason="join searches hit the cap", cap=engine.cap)
    return ShadowVerdict(VerdictStatus.SHADOW)


# ---------------------------------------------------------------------------
# Closure

def garside_closure(sys: CoxeterSystem, seeds: Iterable[Element] = (),
                    cap: int | None = None,
                    budget: int = DEFAULT_BUDGET) -> Shadow:
    """Smallest Garside shadow containing the seeds (and always S and e).

    A worklist in insertion order: each element adds its one-step suffixes
    and is then joined with every earlier element, so each pair is decided
    once.  Joins that hit the cap are retried once with the cap raised by 4,
    and the closure is cap-stable when the retry adds nothing.  The result
    records the cap it ran with.
    """
    order: list[Element] = []
    invs: set[frozenset[int]] = set()

    def add(el: Element) -> None:
        if el.inv in invs:
            return
        if len(order) >= budget:
            raise BudgetExceeded(
                f"Garside closure outgrew the budget of {budget} elements")
        invs.add(el.inv)
        order.append(el)

    add(identity(sys))
    for s in range(sys.rank):
        add(generator(sys, s))
    for el in seeds:
        add(el)

    done = 0

    def drain(engine: JoinEngine) -> list[tuple[Element, Element]]:
        """Process the worklist; returns the pairs whose search hit the cap."""
        nonlocal done
        at_cap = []
        while done < len(order):
            x = order[done]
            for s in x.descents_left:
                add(mult_left(s, x))
            for y in order[:done]:
                decision, w = engine.decide(y, x)
                if decision is _Decision.FOUND:
                    add(w)
                elif decision is _Decision.AT_CAP:
                    at_cap.append((y, x))
            done += 1
        return at_cap

    # Joins and suffixes of 0-low elements are 0-low, so with 0-low seeds
    # every pair is decided in the universe.  Other seeds send every pair
    # through the capped search: a result that is not cap-stable is then the
    # closure under the joins found within the cap.
    universe = low_universe(sys)
    if not all(el in universe for el in order):
        universe = None
    base_cap = cap if cap is not None else default_cap(order)
    undecided = drain(JoinEngine(base_cap, universe))
    size = len(order)
    if undecided:  # only the capped search leaves pairs undecided
        wider = JoinEngine(base_cap + 4)
        for y, x in undecided:
            decision, w = wider.decide(y, x)
            if decision is _Decision.FOUND:
                add(w)
        drain(wider)
    return Shadow(sys, order, provenance="closure-of-S",
                  cap_stable=len(order) == size, cap=base_cap)


# ---------------------------------------------------------------------------
# Low elements

def low_elements(sys: CoxeterSystem, level: int,
                 table: SmallRootTable | None = None) -> Shadow:
    """The n-low elements, by BFS over left multiplications.

    Pruning non-low branches is sound because the set is closed under
    taking suffixes.  For an extension s*w of a low element w, lowness
    reduces to the reflected small roots that left the table: every other
    inversion outside the table is a reflected combination of reflected
    small roots, hence stays inside the cone once those exits are covered.
    """
    if table is None:
        table = build_small_roots(sys, level)
    if table.system is not sys or table.level != level:
        raise ValueError("table does not match the system and level")
    nodes = table.nodes
    e = identity(sys)
    low: dict[frozenset[int], Element] = {e.inv: e}
    rejected: set[frozenset[int]] = set()
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            w_nodes = table.small_part(w.inv)
            for s in range(sys.rank):
                if s in w.inv:
                    continue
                sw = mult_left(s, w)
                if sw.inv in low or sw.inv in rejected:
                    continue
                exited: list[int] = []
                gens: list[int] = [s]
                for nid in w_nodes:
                    th = nodes[nid].theta[s]
                    if th == EXIT:
                        _, img = sys.reflect_id(s, nodes[nid].rid)
                        exited.append(img)
                    elif th >= 0:
                        gens.append(nodes[th].rid)
                    else:
                        raise InternalInvariant(
                            "negative reflection inside an ascent step")
                if all(cone_member(sys, g, gens) for g in exited):
                    low[sw.inv] = sw
                    nxt.append(sw)
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
