"""Group elements as reduced words with left inversion sets.

An :class:`Element` stores one reduced word together with the left inversion
set N(w).  This is the one place the format of N(w) is defined, and every
module uses it: N(w) is an int bitmask over interned root ids, whose bit
``rid`` is set iff root ``rid`` lies in N(w).  Simple root ids equal
generator ids, so the low ``rank`` bits hold the left descents.  Union is
``|``, difference ``& ~``, inclusion ``not a & ~b`` and the length is
``bit_count()``.  Two elements are equal iff their inversion sets are
equal, which is representation independent; the stored word is *a* reduced
word, not a canonical one.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from .errors import InternalInvariant
from .system import CoxeterSystem


def _mask_bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Element:
    """An element of a Coxeter group, keyed by its left inversion set.

    ``inv`` is N(w) as a bitmask of root ids, in the format of this module.
    """

    __slots__ = ("system", "word", "inv")

    def __init__(self, system: CoxeterSystem, word: tuple[int, ...], inv: int):
        if len(word) != inv.bit_count():
            raise InternalInvariant("word length differs from inversion count")
        self.system = system
        self.word = word
        self.inv = inv

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def descents_left(self) -> list[int]:
        """D_L(w) = {s : a_s in N(w)} in increasing order: the low rank bits."""
        return _mask_bits(self.inv & ((1 << self.system.rank) - 1))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element)
                and self.system is other.system and self.inv == other.inv)

    def __hash__(self) -> int:
        return hash(self.inv)

    def __repr__(self) -> str:
        return f"<{self.system.word_to_string(self.word)}>"

    def __str__(self) -> str:
        return self.system.word_to_string(self.word)


def identity(system: CoxeterSystem) -> Element:
    return Element(system, (), 0)


def generator(system: CoxeterSystem, s: int) -> Element:
    return Element(system, (s,), 1 << s)


def mult_left(s: int, w: Element) -> Element:
    """s * w, with the inversion set updated incrementally.

    Ascent: N(sw) = {a_s} union s(N(w)).  Descent: N(sw) = s(N(w) - {a_s})
    and the word loses its unique exchange-located letter.
    """
    sys = w.system
    bit = 1 << s
    if not w.inv & bit:
        new_inv = bit
        for rid in _mask_bits(w.inv):
            sg, rid2 = sys.reflect_id(s, rid)
            if sg < 0:
                raise InternalInvariant("unexpected sign flip on ascent")
            new_inv |= 1 << rid2
        return Element(sys, (s,) + w.word, new_inv)
    new_inv = 0
    for rid in _mask_bits(w.inv ^ bit):
        sg, rid2 = sys.reflect_id(s, rid)
        if sg < 0:
            raise InternalInvariant("unexpected sign flip on descent")
        new_inv |= 1 << rid2
    # Exchange: drop letter j with r_1...r_{j-1}(a_{r_j}) = a_s, i.e. the
    # first j where the backward-transported a_s meets the letter's root.
    v = s
    for j, letter in enumerate(w.word):
        if v == letter:
            return Element(sys, w.word[:j] + w.word[j + 1:], new_inv)
        sg, v = sys.reflect_id(letter, v)
        if sg < 0:
            raise InternalInvariant("transported root went negative early")
    raise InternalInvariant("exchange letter not found on descent")


def mult_right(w: Element, s: int) -> Element:
    """w * s; ascent iff w(a_s) is positive, which also gives the new root."""
    sys = w.system
    sign, rid = sys.act_word_on_root(w.word, 1, s)
    if sign > 0:
        return Element(sys, w.word + (s,), w.inv | 1 << rid)
    new_inv = w.inv & ~(1 << rid)
    v = s
    for j in range(len(w.word) - 1, -1, -1):
        letter = w.word[j]
        if v == letter:
            return Element(sys, w.word[:j] + w.word[j + 1:], new_inv)
        sg, v = sys.reflect_id(letter, v)
        if sg < 0:
            raise InternalInvariant("transported root went negative early")
    raise InternalInvariant("exchange letter not found on descent")


def from_word(system: CoxeterSystem, word: Iterable[int]) -> Element:
    """Product of the letters, left to right; the word need not be reduced."""
    w = identity(system)
    for s in word:
        w = mult_right(w, s)
    return w


def is_reduced_word(system: CoxeterSystem, word: Sequence[int]) -> bool:
    """True iff every left-to-right prefix step strictly increases length."""
    w = identity(system)
    for s in word:
        sign, rid = system.act_word_on_root(w.word, 1, s)
        if sign < 0:
            return False
        w = Element(system, w.word + (s,), w.inv | 1 << rid)
    return True


def weak_leq(u: Element, w: Element) -> bool:
    """u <=_R w, decided by inclusion of inversion sets."""
    if u.system is not w.system:
        raise ValueError("elements from different systems")
    return not u.inv & ~w.inv


def prefixes(w: Element) -> set[Element]:
    """All p <=_R w: the downward closure under removing a right descent."""
    seen: dict[int, Element] = {w.inv: w}
    queue = deque([w])
    while queue:
        x = queue.popleft()
        for s in set(x.word):
            sign, _ = x.system.act_word_on_root(x.word, 1, s)
            if sign < 0:
                p = mult_right(x, s)
                if p.inv not in seen:
                    seen[p.inv] = p
                    queue.append(p)
    return set(seen.values())


def suffixes(w: Element) -> set[Element]:
    """All suffixes: the closure of {w} under w -> sw for s in D_L(w)."""
    seen: dict[int, Element] = {w.inv: w}
    queue = deque([w])
    while queue:
        x = queue.popleft()
        for s in x.descents_left:
            v = mult_left(s, x)
            if v.inv not in seen:
                seen[v.inv] = v
                queue.append(v)
    return set(seen.values())


def coset_split(w: Element, subset: Iterable[int]) -> tuple[Element, Element]:
    """The unique decomposition w = w_I * w^I with w_I in W_I, w^I in X_I."""
    members = set(subset)
    rest = w
    left = identity(w.system)
    while True:
        s = next((t for t in rest.descents_left if t in members), None)
        if s is None:
            return left, rest
        rest = mult_left(s, rest)
        nxt = mult_right(left, s)
        if nxt.length != left.length + 1:
            raise InternalInvariant("coset prefix stopped being reduced")
        left = nxt


def support(w: Element) -> frozenset[int]:
    """Letters occurring in any reduced word of w (well-defined)."""
    return frozenset(w.word)


def ball(system: CoxeterSystem, radius: int) -> list[Element]:
    """All elements of length <= radius, BFS by length, deduplicated."""
    out = [identity(system)]
    seen = {0}
    frontier = [out[0]]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in range(system.rank):
                sign, rid = system.act_word_on_root(w.word, 1, s)
                if sign > 0:
                    inv = w.inv | 1 << rid
                    if inv not in seen:
                        seen.add(inv)
                        ws = Element(system, w.word + (s,), inv)
                        nxt.append(ws)
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


def reduced_words(system: CoxeterSystem,
                  max_length: int) -> Iterator[list[Element]]:
    """Reduced words of each length 0..max_length as Elements, by brute force.

    Walks the tree of reduced words directly (reduced words are closed
    under prefixes), independent of any automaton; one word per Element,
    so equal elements with different words each appear.
    """
    level = [identity(system)]
    yield level
    for _ in range(max_length):
        nxt = []
        for w in level:
            for s in range(system.rank):
                sign, rid = system.act_word_on_root(w.word, 1, s)
                if sign > 0:
                    nxt.append(Element(system, w.word + (s,), w.inv | 1 << rid))
        level = nxt
        yield level


def reduced_word_counts(system: CoxeterSystem, max_length: int) -> list[int]:
    """Number of reduced words per length 0..max_length, by brute force."""
    return [len(level) for level in reduced_words(system, max_length)]


def recompute_inversions(w: Element) -> int:
    """N(w) from scratch by transporting each letter's root to the front.

    Independent of the incremental updates; used as a cross-check.
    """
    sys = w.system
    roots = 0
    for j, letter in enumerate(w.word):
        sign, rid = sys.act_word_on_root(w.word[:j], 1, letter)
        if sign < 0:
            raise InternalInvariant("word is not reduced")
        roots |= 1 << rid
    return roots
