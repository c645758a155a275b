from __future__ import annotations

import itertools
import math
import weakref
from array import array
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from coxauto import parse_coxeter_system, smallroots
from coxauto.automata import (Automaton, _predecessor_lists, _quotient,
                              build_canonical_automaton,
                              build_shadow_automaton, minimize,
                              nerode_classes)
from coxauto.elements import (Element, _mask_bits, generator, identity,
                              mult_left, weak_leq)
from coxauto.errors import InternalInvariant
from coxauto.garside import (Shadow, ShadowVerdict, VerdictStatus,
                             check_generated_and_suffix_closed,
                             garside_closure, join, low_universe, project)
from coxauto.scalars import FieldContext, Scalar, _normalized
from coxauto.smallroots import build_small_roots
from coxauto.system import CoxeterMatrix, CoxeterSystem


# The groups on which the shadow automaton is compared with the reference
# that runs its own byte-slice successor loop.
DIFFERENTIAL_GROUPS = ["~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "~D4", "H3",
                       "A4", "B4", "I2(inf)", "triangle(2,3,7)",
                       "triangle(4,4,4)", "triangle(3,3,4)"]

# The groups on which the blocking-set classes of the automata are compared
# with Hopcroft refinement: the groups above at level 0, and the rank-3
# ones at levels 1 and 2 too.
BLOCKING_GROUPS = DIFFERENTIAL_GROUPS + ["~A4", "~C4", "~B4", "A3", "B3",
                                         "D4", "F4"]
BLOCKING_RANK_THREE = ["~A2", "~C2", "~G2", "~C3", "H3", "triangle(2,3,7)",
                       "triangle(4,4,4)"]


def flat_moves(delta) -> array:
    """The moves of an automaton from its rows: entry q * k + s is the
    target of state q by letter s, -1 for none."""
    return array("i", [t for targets in delta for t in targets])


def moves_from(auto: Automaton, q: int) -> tuple[int, ...]:
    """The targets of state q by each letter, -1 for none."""
    k = auto.alphabet_size
    return tuple(auto.moves[q * k:q * k + k])


def rows(auto: Automaton) -> list[tuple[int, ...]]:
    """The row of each state, in order."""
    return [moves_from(auto, q) for q in range(auto.num_states)]


def hopcroft_classes(auto: Automaton) -> list[int]:
    """The Nerode classes of any partial automaton, by Hopcroft partition
    refinement with an implicit sink: the reference for the blocking sets
    of ``nerode_classes``, which need an automaton the package built.

    A missing transition counts as a move to a non-accepting sink, so the
    first splitter, the block of all states, separates states by the
    letters they can read, and no completed copy of the moves is built.
    Each split puts its smaller half on the worklist (Hopcroft 1971; the
    partial-DFA form of Valmari & Lehtinen 2008).  Item q of the result is
    the block of state q.
    """
    n, k = auto.num_states, auto.alphabet_size
    head, after = _predecessor_lists(auto.moves, n)
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
            c = head[q]
            while c >= 0:
                xs.append(c % k * n + c // k)
                c = after[c]
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
    return blk


def hopcroft_minimize(auto: Automaton) -> Automaton:
    """The quotient of any partial automaton by :func:`hopcroft_classes`,
    its classes renumbered by the BFS of ``minimize``."""
    return _quotient(auto, hopcroft_classes(auto))


def first_state_numbering(classes):
    """The same partition, each class numbered by its first state."""
    first = {}
    return [first.setdefault(c, len(first)) for c in classes]


def assert_blocking_classes_match_hopcroft(auto):
    # the blocking sets are the class keys, so they partition the states
    # as Hopcroft does, and minimize numbers that partition by a BFS
    assert (first_state_numbering(nerode_classes(auto))
            == first_state_numbering(hopcroft_classes(auto)))
    got, ref = minimize(auto), hopcroft_minimize(auto)
    assert got.moves == ref.moves
    assert got.state_map == ref.state_map


def assert_shadow_and_minimal_classes_match_hopcroft(sys, level):
    # A_B of L_n, and of Gar(S) at level 0, and the quotient of A_n read
    # the reduced words with their states in no BFS order of their own
    shadows = [low_universe(sys, level)]
    if level == 0:
        shadows.append(garside_closure(sys))
    for shadow in shadows:
        assert_blocking_classes_match_hopcroft(build_shadow_automaton(shadow))
    canonical, _ = build_canonical_automaton(sys, level)
    assert_blocking_classes_match_hopcroft(minimize(canonical))


def assert_predecessor_chains_hold_every_move(auto):
    # the chains of _predecessor_lists, walked state by state, hold each
    # move (p, s, t) of the automaton exactly once, coded p * k + s
    moves, k = auto.moves, auto.alphabet_size
    head, after = _predecessor_lists(moves, auto.num_states)
    found = []
    for t in range(auto.num_states):
        code = head[t]
        while code >= 0:
            assert len(found) < len(moves)  # no cycle
            found.append((*divmod(code, k), t))
            code = after[code]
    assert len(found) == len(set(found))
    assert set(found) == {(p, s, t)
                          for p, targets in enumerate(rows(auto))
                          for s, t in enumerate(targets) if t >= 0}


def assert_numbered_by_first_state(classes):
    # each class first appears after every class of a smaller number
    found = 0
    for c in classes:
        assert 0 <= c <= found
        found += c == found


def assert_bfs_numbered(auto):
    # a BFS from state 0, letters in order, finds the states in order
    found = [0]
    seen = {0}
    for q in found:
        for t in moves_from(auto, q):
            if t >= 0 and t not in seen:
                seen.add(t)
                found.append(t)
    assert auto.initial == 0
    assert found == list(range(auto.num_states))


@st.composite
def coxeter_systems(draw):
    """Rank 3-4 Coxeter matrices with labels in {2, 3, 4, 5, 6, inf}."""
    rank = draw(st.integers(3, 4))
    pairs = list(itertools.combinations(range(rank), 2))
    labels = draw(st.lists(st.sampled_from((2, 3, 4, 5, 6, math.inf)),
                           min_size=len(pairs), max_size=len(pairs)))
    return CoxeterSystem(
        CoxeterMatrix.from_entries(rank, dict(zip(pairs, labels))))


def projection_state_map(source_payload_elements, target_shadow, target_auto):
    """Map automaton states through a shadow projection, as state indices."""
    index = {el.inv: i for i, el in enumerate(target_auto.payloads)}
    return [index[project(target_shadow, el).inv]
            for el in source_payload_elements]


# ---------------------------------------------------------------------------
# Elements by brute force: the ball of a radius, and inversion sets from the
# word alone, the references for the incremental updates of elements.

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
                        nxt.append(Element(system, w.word + (s,), inv))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


def recompute_inversions(w: Element) -> int:
    """N(w) from scratch by transporting each letter's root to the front."""
    sys = w.system
    roots = 0
    for j, letter in enumerate(w.word):
        sign, rid = sys.act_word_on_root(w.word[:j], 1, letter)
        if sign < 0:
            raise InternalInvariant("word is not reduced")
        roots |= 1 << rid
    return roots


def accepted_words(auto: Automaton, max_length: int) -> set[tuple[int, ...]]:
    """Every word of length <= max_length that the automaton accepts."""
    frontier = [((), auto.initial)]
    out = {()}
    for _ in range(max_length):
        frontier = [(word + (a,), t) for word, q in frontier
                    for a, t in enumerate(moves_from(auto, q)) if t >= 0]
        out.update(word for word, _ in frontier)
    return out


# ---------------------------------------------------------------------------
# A field element from rational coefficients, for the scalar tests.

def _integral(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of rationals."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [f.numerator * (den // f.denominator) for f in fracs], den


def scalar(ctx: FieldContext, coeffs) -> Scalar:
    """The field element with rational coefficients ``coeffs`` on the
    powers of the generator, as in ``Scalar.coeffs``, reduced mod the
    minimal polynomial."""
    num, den = _integral(coeffs)
    if len(num) > ctx.degree:
        num = ctx._reduce(num)
    else:
        num += [0] * (ctx.degree - len(num))
    return _normalized(ctx, num, den)


# ---------------------------------------------------------------------------
# The irreducible affine types of rank 2 to 9, rank by rank, as (name, h, r):
# the Coxeter number h and the rank r of the finite Weyl group under each
# (Humphreys, *Reflection groups and Coxeter groups*, 3.18).  The state-count
# refusal of garside.check_state_budget reads h off the small-root table, so
# this list is an independent reference for it.

AFFINE_CATALOG = [
    ("~A1", 2, 1),
    ("~A2", 3, 2), ("~C2", 4, 2), ("~G2", 6, 2),
    ("~A3", 4, 3), ("~B3", 6, 3), ("~C3", 6, 3),
    ("~A4", 5, 4), ("~B4", 8, 4), ("~C4", 8, 4), ("~D4", 6, 4), ("~F4", 12, 4),
    ("~A5", 6, 5), ("~B5", 10, 5), ("~C5", 10, 5), ("~D5", 8, 5),
    ("~A6", 7, 6), ("~B6", 12, 6), ("~C6", 12, 6), ("~D6", 10, 6),
    ("~E6", 12, 6),
    ("~A7", 8, 7), ("~B7", 14, 7), ("~C7", 14, 7), ("~D7", 12, 7),
    ("~E7", 18, 7),
    ("~A8", 9, 8), ("~B8", 16, 8), ("~C8", 16, 8), ("~D8", 14, 8),
    ("~E8", 30, 8),
]
AFFINE_H_R = {name: (h, r) for name, h, r in AFFINE_CATALOG}


# ---------------------------------------------------------------------------
# Dominance by the pairwise criterion, and in affine type by the radical: the
# references that the dominated sets of smallroots.build_small_roots are
# checked against.

def depth_of_root(sys: CoxeterSystem, rid: int) -> int:
    """dp(beta): minimal word length sending beta negative, by greedy descent."""
    d = 1
    while rid >= sys.rank:
        coords = sys.root_coords(rid)
        for s in range(sys.rank):
            if sys.bilinear_simple(s, coords).sign() > 0:
                _, rid = sys.reflect_id(s, rid)
                d += 1
                break
        else:
            raise InternalInvariant("positive non-simple root with no descent")
    return d


def dominates(sys: CoxeterSystem, rid_a: int, rid_b: int) -> bool:
    """a dominates-or-equals b: equality, or B(a, b) >= 1 with dp(a) < dp(b)."""
    if rid_a == rid_b:
        return True
    b = sys.bilinear(sys.root_coords(rid_a), sys.root_coords(rid_b))
    if (b - 1).sign() < 0:
        return False
    return depth_of_root(sys, rid_a) < depth_of_root(sys, rid_b)


def affine_radical(sys: CoxeterSystem) -> tuple[Scalar, ...]:
    """The radical generator delta of an affine system, scaled to delta_0 = 1.

    Read off the elimination that classifies the system: its first n-1
    pivots are positive and the n-th is zero, so each reduced row r < n-1
    reads pivot_r * x_r + m[r][n-1] * x_{n-1} = 0, and delta_{n-1} = 1.
    """
    _, m = smallroots._leading_pivots(sys.gram)
    last = sys.rank - 1
    delta = [-m[r][last] / m[r][r] for r in range(last)] + [sys.ctx.one]
    scale = delta[0].inverse()
    return tuple(d * scale for d in delta)


def affine_dominance_oracle(sys: CoxeterSystem, beta, beta_prime,
                            delta: tuple[Scalar, ...]) -> bool:
    """beta dominated-by beta_prime in affine type: beta' - beta in R>=0 delta.

    Roots are interned ids or coordinate tuples; delta is the radical.
    """
    b, p = (sys.root_coords(r) if isinstance(r, int) else tuple(r)
            for r in (beta, beta_prime))
    diff = [y - x for x, y in zip(b, p)]
    factor = diff[0] / delta[0]
    return factor.sign() >= 0 and all((d - factor * sd).is_zero()
                                      for d, sd in zip(diff, delta))


def assert_dominance_matches_affine_oracle(sys: CoxeterSystem) -> None:
    """dominates() against the radical, on every pair of 2-small roots."""
    rids = [node.rid for node in build_small_roots(sys, 2).nodes]
    delta = affine_radical(sys)
    for a, b in itertools.product(rids, repeat=2):
        assert dominates(sys, a, b) == affine_dominance_oracle(sys, a, b, delta)


def assert_dominated_sets_match_recount(sys: CoxeterSystem, level: int):
    """Each node's dominated set, dp_inf and depth against a recount."""
    table = build_small_roots(sys, level)
    for i, node in enumerate(table.nodes):
        recount = {j for j, other in enumerate(table.nodes)
                   if j != i and dominates(sys, other.rid, node.rid)}
        assert recount == set(node.dominated), (level, i)
        assert node.dp_inf == len(recount) <= level
        assert depth_of_root(sys, node.rid) == node.dp


# ---------------------------------------------------------------------------
# Cone membership by Fourier-Motzkin elimination: the reference that the
# N^1 lowness test of garside.low_elements is checked against.

def _canonical_row(coeffs: list[Scalar], rhs: Scalar) -> tuple:
    """Dedup key of a row: the row divided by |lead|, its first nonzero entry.

    A rational lead scales every entry coefficient-wise; the inverse of an
    irrational lead is memoized by its field.
    """
    row = (*coeffs, rhs)
    lead = next((x for x in row if not x.is_zero()), None)
    if lead is not None:
        inv = lead.inverse()
        if lead.sign() < 0:
            inv = -inv
        row = [x * inv for x in row]
    return tuple((x.num, x.den) for x in row)


def _fourier_motzkin_infeasible(rows: list[tuple[list[Scalar], Scalar]],
                                nvars: int) -> bool:
    """Decide infeasibility of {y : row . y <= rhs for all rows}, exactly."""
    work = rows
    for _ in range(nvars):
        signs = [[c.sign() for c in coeffs] for coeffs, _ in work]
        # choose the live variable minimizing the pos*neg blowup
        best_var, best_cost = None, None
        for v in range(nvars):
            pos = sum(1 for sg in signs if sg[v] > 0)
            neg = sum(1 for sg in signs if sg[v] < 0)
            if pos + neg == 0:
                continue
            cost = pos * neg
            if best_cost is None or cost < best_cost:
                best_var, best_cost = v, cost
        if best_var is None:
            break
        v = best_var
        pos, neg, zero = [], [], []
        for row, sg in zip(work, signs):
            (pos if sg[v] > 0 else neg if sg[v] < 0 else zero).append(row)
        seen = set()
        nxt = []
        for coeffs, rhs in zero:
            key = _canonical_row(coeffs, rhs)
            if key not in seen:
                seen.add(key)
                nxt.append((coeffs, rhs))
        for pc, pr in pos:
            a = pc[v]
            for nc, nr in neg:
                c = -nc[v]
                coeffs = [c * pa + a * na for pa, na in zip(pc, nc)]
                rhs = c * pr + a * nr
                if all(x.is_zero() for x in coeffs):
                    if rhs.sign() < 0:
                        return True
                    continue
                key = _canonical_row(coeffs, rhs)
                if key not in seen:
                    seen.add(key)
                    nxt.append((coeffs, rhs))
        work = nxt
    for coeffs, rhs in work:
        if all(c.is_zero() for c in coeffs) and rhs.sign() < 0:
            return True
    return False


def cone_member(sys: CoxeterSystem, gamma, gens) -> bool:
    """Is gamma a nonnegative combination of the generators?

    Arguments may be interned root ids or coordinate tuples.  Decided by
    Farkas duality: gamma is in the cone iff the system
    {y : g.y >= 0 for all generators, gamma.y <= -1} is infeasible, which
    Fourier-Motzkin elimination settles exactly in rank-many variables.
    """
    gcoords = sys.root_coords(gamma) if isinstance(gamma, int) else tuple(gamma)
    gen_coords = [sys.root_coords(g) if isinstance(g, int) else tuple(g)
                  for g in gens]
    if all(c.is_zero() for c in gcoords):
        return True
    if not gen_coords:
        return False
    ctx = sys.ctx
    rows: list[tuple[list[Scalar], Scalar]] = []
    for g in gen_coords:
        rows.append(([-c for c in g], ctx.zero))
    rows.append((list(gcoords), ctx.from_rational(-1)))
    return _fourier_motzkin_infeasible(rows, sys.rank)


# ---------------------------------------------------------------------------
# Joins by a breadth-first search up to a length cap, after a certificate of
# unboundedness: the reference that the exact joins of garside.join, decided
# in the smallest n-low universe, are checked against.

def _unbounded_certificate(u: Element, v: Element) -> bool:
    """True when N(u) | N(v) certifies that {u, v} has no upper bound.

    Two positive roots with B <= -1 are the canonical simple system of an
    infinite dihedral reflection subgroup, so no inversion set contains
    both; a common upper bound would have to.
    """
    sys = u.system
    merged = [sys.root_coords(rid) for rid in _mask_bits(u.inv | v.inv)]
    for a, b in itertools.combinations(merged, 2):
        if (sys.bilinear(a, b) + 1).sign() <= 0:
            return True
    return False


def _bfs_join(u: Element, v: Element, cap: int):
    """Search upward from u by length, up to the cap, for an element above v.

    The first one found is the join, since a minimal-length common upper
    bound is the join.
    """
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
                    return True, ws
                nxt.append(ws)
        frontier = nxt
    return not frontier, None


def search_join(u: Element, v: Element, cap: int):
    """(decided, join or None): the join of u and v by the capped search.

    Not decided when the search hits the cap: boundedness is only
    semi-decidable this way.
    """
    if weak_leq(u, v):
        return True, v
    if weak_leq(v, u):
        return True, u
    if _unbounded_certificate(u, v):
        return True, None
    return _bfs_join(u, v, cap)


# ---------------------------------------------------------------------------
# The n-small columns of a shadow: for each n-small root, one int bitset of
# the elements whose Sigma_n holds it, bit i standing for element i.  The
# bitset references below read them; garside.Shadow keeps no column, and
# scans its masks instead (Shadow._below).

class SmallColumns:
    """The columns of a shadow over the n-small roots of its level."""

    def __init__(self, shadow: Shadow):
        self.small = shadow._small
        self.full = (1 << len(self.small)) - 1
        size = (len(self.small) + 7) >> 3
        rows = [bytearray(size) for _ in range(len(shadow._small_table()))]
        for i, mask in enumerate(self.small):
            byte, bit = i >> 3, 1 << (i & 7)
            for nid in _mask_bits(mask):
                rows[nid][byte] |= bit
        self.columns = [int.from_bytes(row, "little") for row in rows]

    def below(self, small: int) -> int:
        """The elements whose Sigma_n lies inside the node mask ``small``:
        those outside the column of every n-small root not in it."""
        outside = 0
        for nid, column in enumerate(self.columns):
            if not small >> nid & 1:
                outside |= column
        return self.full & ~outside


_SMALL_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def small_columns(shadow: Shadow) -> SmallColumns:
    """The columns of a shadow, built once per shadow."""
    index = _SMALL_COLUMNS.get(shadow)
    if index is None:
        index = _SMALL_COLUMNS[shadow] = SmallColumns(shadow)
    return index


# ---------------------------------------------------------------------------
# Join closure by up-sets in the smallest n-low universe: the pairwise
# closure, the pairwise verification, the lowest-bit closure passes and the
# N^1 test on the columns are the references that the lower-cover pass of
# garside._join_pass, in garside.garside_closure and garside.verify_shadow,
# is checked against.

def up_set(universe: Shadow, i: int) -> int:
    """The elements of an L_n above element i: the AND of the columns of
    its Sigma_n."""
    index = small_columns(universe)
    up = index.full
    for nid in _mask_bits(index.small[i]):
        up &= index.columns[nid]
    return up


def pairwise_closure(sys: CoxeterSystem, seeds=()):
    """Smallest Garside shadow containing S, e and the seeds.

    A worklist in insertion order: each element adds its one-step suffixes
    and is then joined with every earlier element, so each pair is decided
    once.  The join is the lowest bit of the AND of the two up-sets in the
    smallest L_n holding the seeds, or none when the AND is empty.
    """
    start = [identity(sys), *(generator(sys, s) for s in range(sys.rank)),
             *seeds]
    universe = low_universe(sys, Shadow(sys, [el.word for el in start]).level)
    order: list = []
    invs: set[int] = set()

    def add(el):
        if el.inv not in invs:
            invs.add(el.inv)
            order.append(el)

    for el in start:
        add(el)
    ups: list[int] = []  # the up-set of each element of order, once done
    while len(ups) < len(order):
        x = order[len(ups)]
        for s in x.descents_left:
            add(mult_left(s, x))
        up_x = up_set(universe, universe._index(x))
        for up_y in ups:
            common = up_x & up_y
            if common:
                add(universe.elements[(common & -common).bit_length() - 1])
        ups.append(up_x)
    return Shadow(sys, [el.word for el in order], provenance="closure-of-S")


def pairwise_verify_shadow(shadow: Shadow) -> ShadowVerdict:
    """verify_shadow with join closure decided pair by pair: the first pair
    of members, in the set's order, whose join lies outside it."""
    failure = check_generated_and_suffix_closed(shadow)
    if failure is not None:
        return failure
    universe = low_universe(shadow.system,
                            Shadow(shadow.system, shadow._words).level)
    els = shadow.elements
    ups = [up_set(universe, universe._index(el)) for el in els]
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            common = ups[i] & ups[j]
            if not common:
                continue
            w = universe.elements[(common & -common).bit_length() - 1]
            if w not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under joins",
                    witness=(str(els[i]), str(els[j]), str(w)))
    return ShadowVerdict(VerdictStatus.SHADOW)


def lowest_bit_closure_in_universe(universe: Shadow, seeds) -> bytearray:
    """The closure of the seeds in an L_n, byte i set iff element i is a
    member, with x admitted when it is the lowest bit of the AND of the
    columns of the roots of Sigma_n(x) that meet the members below x."""
    offsets, targets = universe._suffixes
    index = small_columns(universe)
    columns, small, full = index.columns, index.small, index.full
    closed = 0
    inside = bytearray(len(small))

    def admit(i):
        nonlocal closed
        inside[i] = 1
        closed |= 1 << i

    def admit_suffixes(todo):
        grew = False
        while todo:
            i = todo.pop()
            for j in targets[offsets[i]:offsets[i + 1]]:
                if not inside[j]:
                    admit(j)
                    todo.append(j)
                    grew = True
        return grew

    todo = sorted({universe._index(el) for el in seeds})
    for i in todo:
        admit(i)
    admit_suffixes(todo)
    while True:
        admitted = []
        for i, x_small in enumerate(small):
            if inside[i]:
                continue
            below = closed & index.below(x_small)
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


def n1_is_join_of_members(universe: Shadow, members: int, covered: int,
                          x: int) -> bool:
    """Whether element x of an L_n is the join of the ``members`` below it:
    every root of N^1(x) lies in Sigma_n(y) for a member y <= x, the
    members below x being read off the columns.  ``covered`` is the OR of
    the members' Sigma_n."""
    n1 = universe._n1[x]
    if n1 & ~covered:
        return False
    index = small_columns(universe)
    below = members & index.below(index.small[x])
    return all(index.columns[nid] & below for nid in _mask_bits(n1))


def n1_closure_in_universe(universe: Shadow, seeds) -> bytearray:
    """The closure of the seeds in an L_n, byte i set iff element i is a
    member: suffix passes over the recorded suffixes alternate with join
    passes that admit, as they go, each x that n1_is_join_of_members
    passes, until neither grows."""
    offsets, targets = universe._suffixes
    small = universe._small
    members = covered = 0
    inside = bytearray(len(small))
    todo: list[int] = []

    def admit(i):
        nonlocal members, covered
        inside[i] = 1
        members |= 1 << i
        covered |= small[i]
        todo.append(i)

    for i in {universe._index(el) for el in seeds}:
        admit(i)
    joined = -1  # the member count after the last join pass
    while True:
        while todo:
            i = todo.pop()
            for j in targets[offsets[i]:offsets[i + 1]]:
                if not inside[j]:
                    admit(j)
        if members.bit_count() == joined:
            return inside
        for i in range(len(small)):
            if not inside[i] and n1_is_join_of_members(universe, members,
                                                       covered, i):
                admit(i)
        joined = members.bit_count()


def n1_verify_shadow(shadow: Shadow) -> ShadowVerdict:
    """verify_shadow with no recorded verdict, join closure decided by
    n1_is_join_of_members on each x of U in order: for the first x that
    passes, the joins of the members below x, folded in U's order, first
    leave the set at x."""
    failure = check_generated_and_suffix_closed(shadow)
    if failure is not None:
        return failure
    universe = low_universe(shadow.system,
                            Shadow(shadow.system, shadow._words).level)
    index = small_columns(universe)
    small = index.small
    inside = {universe._index(el) for el in shadow}
    members = covered = 0
    for i in inside:
        members |= 1 << i
        covered |= small[i]
    for x in range(len(universe)):
        if x in inside or not n1_is_join_of_members(universe, members,
                                                    covered, x):
            continue
        u = identity(shadow.system)
        for i in _mask_bits(members & index.below(small[x])):
            v = universe._element(i)
            joined = join(u, v)
            if joined not in shadow:
                return ShadowVerdict(
                    VerdictStatus.NOT_SHADOW, reason="not closed under joins",
                    witness=(str(u), str(v), str(joined)))
            u = joined
    return ShadowVerdict(VerdictStatus.SHADOW)


def below_projections(shadow: Shadow, universe: Shadow) -> list[int]:
    """pi_B of each element of an L_n holding a shadow B, as a position in
    B: the highest set bit of B's columns below its Sigma_n."""
    below = small_columns(shadow).below
    return [below(mask).bit_length() - 1 for mask in universe._small]


# ---------------------------------------------------------------------------
# Prefixes by one column per root of some inversion set in the shadow: the
# reference that the Sigma_n scan of garside.Shadow._below is checked
# against.

class FullColumnIndex:
    """A shadow indexed by every root that lies in the inversion set of
    one of its elements."""

    def __init__(self, shadow: Shadow):
        self.size = len(shadow)
        self.columns: dict[int, int] = {}
        for i, el in enumerate(shadow.elements):
            for rid in _mask_bits(el.inv):
                self.columns[rid] = self.columns.get(rid, 0) | 1 << i

    def below(self, inv: int) -> int:
        """The elements whose inversion set lies inside the root mask inv:
        those outside the column of every root not in inv."""
        outside = 0
        for rid, column in self.columns.items():
            if not inv >> rid & 1:
                outside |= column
        return ((1 << self.size) - 1) & ~outside


# ---------------------------------------------------------------------------
# The canonical automaton by one OR per member bit and letter, with the
# mask of each state as its payload: the reference that
# SmallRootTable.images and automata.build_canonical_automaton are checked
# against.

def per_bit_canonical_automaton(sys: CoxeterSystem, level: int):
    """States are reachable n-small inversion sets, as int masks of node
    ids."""
    table = build_small_roots(sys, level)
    rank = sys.rank
    # images[s][nid]: the bit of s(node nid) in the table, or 0 when it exits
    images = [[1 << node.theta[s] if node.theta[s] >= 0 else 0
               for node in table.nodes] for s in range(rank)]
    state_ids: dict[int, int] = {0: 0}
    masks: list[int] = [0]
    delta: list[list[int]] = []
    for mask in masks:
        members = _mask_bits(mask)
        row = [-1] * rank
        for s in range(rank):
            if mask >> s & 1:
                continue
            image = images[s]
            new_mask = 1 << s
            for nid in members:
                new_mask |= image[nid]
            target = state_ids.get(new_mask)
            if target is None:
                target = len(masks)
                state_ids[new_mask] = target
                masks.append(new_mask)
            row[s] = target
        delta.append(row)
    return Automaton(letter_labels=tuple(str(s + 1) for s in range(rank)),
                     payloads=masks, initial=0, moves=flat_moves(delta),
                     kind=f"canonical-{level}")


def canonical_witnesses(auto: Automaton, sys: CoxeterSystem) -> list[Element]:
    """An element reaching each state of a canonical automaton.

    States are taken in order; the first transition into state t, by letter
    s from state q, gives t the witness s * (the witness of q).  The builder
    numbers states in BFS order, so q already has its witness.
    """
    witnesses: list[Element | None] = [None] * auto.num_states
    witnesses[auto.initial] = identity(sys)
    for q, targets in enumerate(rows(auto)):
        for s, t in enumerate(targets):
            if t >= 0 and witnesses[t] is None:
                witnesses[t] = mult_left(s, witnesses[q])
    return witnesses  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The shadow automaton by the same successor loop over the members' Sigma_n
# masks, with each target projected by the n-small columns: the reference
# that automata.build_shadow_automaton, which projects by the lower covers
# of L_n, is checked against.

def byte_slice_shadow_automaton(shadow: Shadow) -> Automaton:
    """A_B of a verified shadow: x goes via s to the highest set bit of the
    shadow's columns below {a_s} union s(Sigma_n(x)), found once per
    mask."""
    sys = shadow.system
    images = shadow._small_table().images
    index = small_columns(shadow)
    small = index.small
    targets: dict[int, int] = {}  # Sigma_n(s x) -> pi_B(s x), by position
    delta = []
    for mask in small:
        row = [-1] * sys.rank
        for s, image in enumerate(images(mask)):
            if mask >> s & 1:
                continue
            new_mask = 1 << s | image
            target = targets.get(new_mask)
            if target is None:
                target = index.below(new_mask).bit_length() - 1
                targets[new_mask] = target
            row[s] = target
        delta.append(row)
    return Automaton(letter_labels=tuple(str(s + 1) for s in range(sys.rank)),
                     payloads=list(shadow.elements), initial=shadow._pos[0],
                     moves=flat_moves(delta), kind="shadow")


def shortest_words(auto: Automaton) -> list[tuple[int, ...]]:
    """A shortest reading word per state, BFS with letters in order: the
    reference for the merged-state witnesses of conjectures."""
    words: list[tuple[int, ...] | None] = [None] * auto.num_states
    words[auto.initial] = ()
    queue = deque([auto.initial])
    while queue:
        q = queue.popleft()
        for a in range(auto.alphabet_size):
            t = auto.moves[q * auto.alphabet_size + a]
            if t >= 0 and words[t] is None:
                words[t] = words[q] + (a,)
                queue.append(t)
    if any(w is None for w in words):
        raise InternalInvariant("automaton is not trim")
    return words  # type: ignore[return-value]


def reference_merged_state_witness(auto: Automaton, minimized: Automaton,
                                   sys: CoxeterSystem):
    """The witness of conjectures._merged_state_witness, with the words of
    the first merged pair taken from shortest_words."""
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
    words = shortest_words(auto)
    seen: dict[int, int] = {}
    for q, cls in enumerate(minimized.state_map):
        if cls in seen:
            pair = (words[seen[cls]], words[q])
            return (tuple(sys.word_to_string(w) for w in pair),)
        seen[cls] = q
    return ()


# ---------------------------------------------------------------------------
# The n-low elements by the search that multiplies out every element found:
# the reference that garside.low_elements, which keeps words and masks and
# reads N^1 off the images of Sigma_n, is checked against.

def reference_low_search(sys: CoxeterSystem, level: int):
    """The words of L_n in (length, word) order, with the Sigma_n and N^1
    masks and the suffix positions in CSR form that garside.low_elements
    records.  sw = wt is read off the inversion sets: N(sw) = N(w) | a_s."""
    table = build_small_roots(sys, level)
    found = [identity(sys)]
    sigma, n1s = [0], [0]
    edges = []  # (longer, shorter): found[longer] = s * found[shorter]
    frontier = [0]
    while frontier:
        nxt = []
        by_sigma: dict[int, int] = {}
        for i in frontier:
            w, n1 = found[i], n1s[i]
            for s, image in enumerate(table.images(sigma[i])):
                bit = 1 << s
                if w.inv & bit or n1 & table.exits[s]:
                    continue
                j = by_sigma.get(bit | image)
                if j is None:
                    j = by_sigma[bit | image] = len(found)
                    sw = mult_left(s, w)
                    found.append(sw)
                    sigma.append(bit | image)
                    n1s.append(table.images(n1)[s]
                               | (bit if sw.inv == w.inv | bit else 0))
                    nxt.append(j)
                edges.append((j, i))
        frontier = nxt
    order = sorted(range(len(found)),
                   key=lambda i: (found[i].length, found[i].word))
    where = {i: p for p, i in enumerate(order)}
    suffixes = [[] for _ in order]
    for j, i in edges:
        suffixes[where[j]].append(where[i])
    offsets = array("i", itertools.accumulate(map(len, suffixes), initial=0))
    targets = array("i", itertools.chain.from_iterable(suffixes))
    return ([found[i].word for i in order], [sigma[i] for i in order],
            [n1s[i] for i in order], (offsets, targets))


@pytest.fixture
def mult_left_calls(monkeypatch):
    """The letters of every ``mult_left`` call that a coxauto module makes,
    in a list that the test reads."""
    import sys as interpreter
    from coxauto import elements
    real, calls = elements.mult_left, []

    def counting(s, w):
        calls.append(s)
        return real(s, w)

    for name, module in list(interpreter.modules.items()):
        if (name.partition(".")[0] == "coxauto"
                and getattr(module, "mult_left", None) is real):
            monkeypatch.setattr(module, "mult_left", counting)
    return calls


def low_without(low: Shadow, victim: Element) -> Shadow:
    """A set found by garside.low_elements with one element taken out.

    The rest keep their Sigma_n masks and the suffixes recorded among them,
    so the recorded suffixes of an element above the victim fall short.
    """
    keep = [i for i, el in enumerate(low.elements) if el != victim]
    new_pos = {old: new for new, old in enumerate(keep)}
    out = Shadow._of_words(low.system, [low._words[i] for i in keep],
                           [low._small[i] for i in keep], low.provenance,
                           low.level)
    offsets, targets = low._suffixes
    new_offsets, new_targets = array("i", [0]), array("i")
    for i in keep:
        new_targets.extend(new_pos[j] for j in targets[offsets[i]:offsets[i + 1]]
                           if j in new_pos)
        new_offsets.append(len(new_targets))
    out._suffixes = (new_offsets, new_targets)
    return out


def universe_missing(universe: Shadow, victim: int) -> Shadow:
    """A copy of an L_n from low_elements whose Sigma_n lookup misses
    element ``victim``, so that a lower cover at the victim, or a shadow
    automaton's target with its mask, falls back to ``_below``."""
    copy = Shadow._of_words(universe.system, universe._words, universe._small,
                            universe.provenance, universe.level)
    copy._n1, copy._suffixes = universe._n1, universe._suffixes
    del copy._pos[universe._small[victim]]
    return copy


@pytest.fixture
def low_elements_without_a_suffix(monkeypatch):
    """garside.low_elements with a one-step suffix of the last element taken
    out of L_n for n > 0, so that L_n is not closed under suffixes; the rest
    keep their recorded suffixes."""
    from coxauto import garside
    real = garside.low_elements

    def without_a_suffix(sys, level):
        low = real(sys, level)
        if level == 0:
            return low
        top = low.elements[-1]
        return low_without(low, mult_left(top.descents_left[0], top))

    monkeypatch.setattr(garside, "low_elements", without_a_suffix)


@pytest.fixture(scope="session")
def a2():
    return parse_coxeter_system("A2")


@pytest.fixture(scope="session")
def b2():
    return parse_coxeter_system("B2")


@pytest.fixture(scope="session")
def a3():
    return parse_coxeter_system("A3")


@pytest.fixture(scope="session")
def i2inf():
    return parse_coxeter_system("I2(inf)")


@pytest.fixture(scope="session")
def aff_a2():
    return parse_coxeter_system("~A2")


@pytest.fixture(scope="session")
def aff_c2():
    return parse_coxeter_system("~C2")


@pytest.fixture(scope="session")
def aff_g2():
    return parse_coxeter_system("~G2")


@pytest.fixture(scope="session")
def right_angled():
    """G' = <s,t,u | s^2=t^2=u^2=e, su=us>, the commuting-pair remark group."""
    return parse_coxeter_system("triangle(inf,2,inf)")


@pytest.fixture(scope="session")
def tri36():
    """triangle with m_st=3, m_su=2, m_tu=6: the rank-3 non-minimal witness."""
    return parse_coxeter_system("triangle(3,2,6)")


@pytest.fixture(scope="session")
def tri33inf():
    return parse_coxeter_system("triangle(3,3,inf)")
