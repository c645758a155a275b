from __future__ import annotations

import itertools
import math
from collections import deque

import pytest
from hypothesis import strategies as st

from coxauto import parse_coxeter_system
from coxauto.automata import Automaton
from coxauto.elements import (Element, _mask_bits, generator, identity,
                              mult_left, weak_leq)
from coxauto.errors import InternalInvariant
from coxauto.garside import Shadow, project, smallest_low_universe
from coxauto.scalars import Scalar
from coxauto.system import CoxeterMatrix, CoxeterSystem


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
# The Garside closure by pairwise joins in the smallest n-low universe: the
# reference that the bitset passes of garside.garside_closure are checked
# against.

def pairwise_closure(sys: CoxeterSystem, seeds=()):
    """Smallest Garside shadow containing S, e and the seeds.

    A worklist in insertion order: each element adds its one-step suffixes
    and is then joined with every earlier element, so each pair is decided
    once.  The join is the lowest bit of the AND of the two up-sets in the
    smallest L_n holding the seeds, or none when the AND is empty.
    """
    start = [identity(sys), *(generator(sys, s) for s in range(sys.rank)),
             *seeds]
    universe = smallest_low_universe(sys, start)
    order: list = []
    invs: set[int] = set()

    def add(el):
        if el.inv not in invs:
            invs.add(el.inv)
            order.append(el)

    for el in start:
        add(el)
    done = 0
    while done < len(order):
        x = order[done]
        for s in x.descents_left:
            add(mult_left(s, x))
        up_x = universe._up_set(universe._pos[x.inv])
        for y in order[:done]:
            common = up_x & universe._up_set(universe._pos[y.inv])
            if common:
                add(universe.elements[(common & -common).bit_length() - 1])
        done += 1
    return Shadow(sys, order, provenance="closure-of-S")


# ---------------------------------------------------------------------------
# The canonical automaton by one OR per member bit and letter, with a payload
# tuple per state: the reference that the byte-sliced image tables of
# automata.build_canonical_automaton are checked against.

def per_bit_canonical_automaton(sys: CoxeterSystem, table):
    """States are reachable n-small inversion sets, as tuples of node ids."""
    rank = sys.rank
    # images[s][nid]: the bit of s(node nid) in the table, or 0 when it exits
    images = [[1 << node.theta[s] if node.theta[s] >= 0 else 0
               for node in table.nodes] for s in range(rank)]
    state_ids: dict[int, int] = {0: 0}
    masks: list[int] = [0]
    payloads: list[tuple[int, ...]] = []
    delta: list[tuple[int, ...]] = []
    for mask in masks:
        members = _mask_bits(mask)
        payloads.append(tuple(members))
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
        delta.append(tuple(row))
    return Automaton(letter_labels=tuple(str(s + 1) for s in range(rank)),
                     payloads=payloads, initial=0, delta=delta,
                     kind=f"canonical-{table.level}")


def shortest_words(auto: Automaton) -> list[tuple[int, ...]]:
    """A shortest reading word per state, BFS with letters in order: the
    reference for the merged-state witnesses of conjectures."""
    words: list[tuple[int, ...] | None] = [None] * auto.num_states
    words[auto.initial] = ()
    queue = deque([auto.initial])
    while queue:
        q = queue.popleft()
        for a in range(auto.alphabet_size):
            t = auto.delta[q][a]
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


@pytest.fixture
def low_elements_without_a_suffix(monkeypatch):
    """garside.low_elements with a one-step suffix of the last element taken
    out of L_n for n > 0, so that L_n is not closed under suffixes."""
    from coxauto import garside
    real = garside.low_elements

    def without_a_suffix(sys, level, table=None):
        low = real(sys, level, table)
        if level == 0:
            return low
        top = low.elements[-1]
        gone = mult_left(top.descents_left[0], top)
        return Shadow(sys, [el for el in low if el != gone])

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
