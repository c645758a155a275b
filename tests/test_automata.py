from __future__ import annotations

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (per_bit_canonical_automaton, projection_state_map,
                      shortest_words)
from coxauto import garside, parse_coxeter_system
from coxauto.automata import (Automaton, MorphismVerdict,
                              build_canonical_automaton,
                              build_shadow_automaton, check_morphism,
                              isomorphic, minimize, restrict_letters)
from coxauto.elements import from_word, is_reduced_word, reduced_words
from coxauto.errors import BudgetExceeded, ShadowViolation
from coxauto.garside import (Shadow, garside_closure, intersect_parabolic,
                             low_universe, parabolic_image, project,
                             shadow_in_subsystem)
from coxauto.smallroots import build_small_roots, small_inversion_set
from coxauto.system import affine_candidates


def test_shadow_automaton_infinite_dihedral(i2inf):
    auto = build_shadow_automaton(garside_closure(i2inf))
    assert auto.num_states == 3
    assert auto.num_transitions() == 4
    by_word = {str(el): i for i, el in enumerate(auto.payloads)}
    # e goes to s and t; s and t swap via the other letter
    assert auto.delta[by_word["e"]][0] == by_word["1"]
    assert auto.delta[by_word["e"]][1] == by_word["2"]
    assert auto.delta[by_word["1"]][1] == by_word["2"]
    assert auto.delta[by_word["2"]][0] == by_word["1"]
    assert auto.delta[by_word["1"]][0] == -1


def test_shadow_automaton_finite_group_moves_by_left_multiplication(a2):
    shadow = garside_closure(a2)
    auto = build_shadow_automaton(shadow, assume_verified=True)
    assert auto.num_states == 6
    for q, a, q2 in auto.transitions():
        source, target = auto.payloads[q], auto.payloads[q2]
        assert target.inv == from_word(
            a2, (a,) + source.word).inv  # x -> s x exactly


def test_shadow_automaton_requires_shadow(a2):
    bad = Shadow(a2, [from_word(a2, w) for w in [(), (0,), (1,)]])
    with pytest.raises(ShadowViolation):
        build_shadow_automaton(bad)


def test_canonical_automaton_counts(aff_a2, aff_g2, i2inf):
    auto, _ = build_canonical_automaton(aff_a2, build_small_roots(aff_a2, 0))
    assert auto.num_states == 16
    auto, _ = build_canonical_automaton(aff_g2, build_small_roots(aff_g2, 0))
    assert auto.num_states == 49
    auto, _ = build_canonical_automaton(i2inf, build_small_roots(i2inf, 0))
    assert auto.num_states == 3
    assert sorted(auto.payloads) == [(), (0,), (1,)]


@pytest.mark.parametrize("name, h, r", [
    (name, h, r) for rank in range(2, 10)
    for name, _, h, r in affine_candidates(rank) if (h + 1) ** r <= 10 ** 4])
def test_canonical_states_count_shi_regions(name, h, r):
    # (h+1)^r regions of the Shi arrangement (Shi 1987), independent of the
    # reduced-word walk
    sys = parse_coxeter_system(name)
    auto, _ = build_canonical_automaton(sys, build_small_roots(sys, 0))
    assert auto.num_states == (h + 1) ** r


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2", "~A3", "~C3", "~B3",
                                  "H3", "triangle(2,3,7)", "triangle(4,4,4)"])
def test_canonical_automaton_matches_per_bit_reference(name, level):
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, level)
    auto, _ = build_canonical_automaton(sys, table)
    reference = per_bit_canonical_automaton(sys, table)
    assert auto.num_states == reference.num_states
    assert auto.delta == reference.delta
    assert list(auto.payloads) == reference.payloads


def test_canonical_state_budget(monkeypatch):
    # hyperbolic, so the budget is met during the enumeration
    sys = parse_coxeter_system("triangle(2,3,7)")
    table = build_small_roots(sys, 0)
    full, _ = build_canonical_automaton(sys, table)
    monkeypatch.setattr(garside, "STATE_BUDGET", full.num_states)
    assert build_canonical_automaton(
        sys, table)[0].num_states == full.num_states
    monkeypatch.setattr(garside, "STATE_BUDGET", full.num_states - 1)
    with pytest.raises(BudgetExceeded, match="^canonical automaton outgrew "
                       f"the state budget of {full.num_states - 1}$"):
        build_canonical_automaton(sys, table)


def test_minimize_sizes(aff_c2, aff_g2, a2):
    c2_auto, _ = build_canonical_automaton(aff_c2, build_small_roots(aff_c2, 0))
    assert minimize(c2_auto).num_states == 24
    g2_auto, _ = build_canonical_automaton(aff_g2, build_small_roots(aff_g2, 0))
    assert minimize(g2_auto).num_states == 41
    a2_auto, _ = build_canonical_automaton(a2, build_small_roots(a2, 0))
    assert minimize(a2_auto).num_states == 6


def test_minimize_is_idempotent_and_language_preserving(aff_c2):
    auto, _ = build_canonical_automaton(aff_c2, build_small_roots(aff_c2, 0))
    m1 = minimize(auto)
    m2 = minimize(m1)
    assert m1.num_states == m2.num_states <= auto.num_states
    assert isomorphic(m1, m2)
    assert auto.accepted_words(6) == m1.accepted_words(6)


def _moore_minimize(auto):
    """Moore partition refinement over the sink-completed automaton, with
    classes numbered by a BFS from the initial class: the reference for
    ``minimize``."""
    n = auto.num_states
    k = auto.alphabet_size
    sink = n
    delta = [tuple(q2 if q2 >= 0 else sink for q2 in row) for row in auto.delta]
    delta.append(tuple(sink for _ in range(k)))
    cls = [0] * n + [1]
    num_classes = 2
    while True:
        signatures = {}
        new_cls = [0] * (n + 1)
        for q in range(n + 1):
            sig = (cls[q],) + tuple(cls[t] for t in delta[q])
            new_cls[q] = signatures.setdefault(sig, len(signatures))
        cls = new_cls
        if len(signatures) == num_classes:
            break
        num_classes = len(signatures)
    sink_cls = cls[sink]
    class_delta = {}
    for q in range(n):
        class_delta.setdefault(cls[q], [cls[t] for t in delta[q]])
    order = {cls[auto.initial]: 0}
    queue = deque([cls[auto.initial]])
    while queue:
        for t in class_delta[queue.popleft()]:
            if t != sink_cls and t not in order:
                order[t] = len(order)
                queue.append(t)
    new_delta = [None] * len(order)
    for c, pos in order.items():
        new_delta[pos] = tuple(order[t] if t != sink_cls else -1
                               for t in class_delta[c])
    return Automaton(letter_labels=auto.letter_labels,
                     payloads=[None] * len(order), initial=0,
                     delta=new_delta, kind="minimal",
                     state_map=tuple(order.get(cls[q], -1) for q in range(n)))


@st.composite
def partial_dfas(draw):
    """Random partial DFAs with 1-4 letters and 1-60 states, not always trim.

    States are dealt into m planted classes, and by each letter every state
    of a class moves into the same class or has no move.  The planted
    partition is then a congruence, so its classes merge under minimization.
    """
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, n))
    planted = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    moves = draw(st.lists(st.lists(st.integers(-1, m - 1), min_size=k,
                                   max_size=k), min_size=m, max_size=m))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=n * k,
                          max_size=n * k))
    members = [[q for q in range(n) if planted[q] == c] for c in range(m)]
    delta = []
    for q in range(n):
        row = []
        for a, c in enumerate(moves[planted[q]]):
            if c < 0 or not members[c]:
                row.append(-1)
            else:
                row.append(members[c][picks[q * k + a] % len(members[c])])
        delta.append(tuple(row))
    labels = tuple(str(a + 1) for a in range(k))
    return Automaton(labels, [None] * n, draw(st.integers(0, n - 1)), delta)


def _assert_minimal_form(auto):
    got = minimize(auto)
    ref = _moore_minimize(auto)
    assert got.delta == ref.delta
    assert got.state_map == ref.state_map
    assert isomorphic(minimize(got), got)
    assert got.counts_by_length(8) == auto.counts_by_length(8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(partial_dfas())
def test_minimize_matches_moore_reference(auto):
    _assert_minimal_form(auto)


@pytest.mark.parametrize("group, kind", [
    ("~C4", "canonical"), ("~B4", "canonical"),
    ("~A2", "shadow"), ("~C2", "shadow"), ("~G2", "shadow"),
    ("A3", "shadow"), ("B3", "shadow"), ("H3", "shadow"),
])
def test_minimize_matches_moore_reference_on_groups(group, kind):
    sys = parse_coxeter_system(group)
    if kind == "canonical":
        auto, _ = build_canonical_automaton(sys, build_small_roots(sys, 0))
    else:
        auto = build_shadow_automaton(garside_closure(sys),
                                      assume_verified=True)
    _assert_minimal_form(auto)


def test_minimize_maps_unreachable_inequivalent_state_to_minus_one():
    # state 1 is unreachable and reads "1", which the initial state cannot
    auto = Automaton(("1", "2"), [None, None], 0, [(-1, -1), (1, -1)])
    result = minimize(auto)
    assert result.delta == [(-1, -1)]
    assert result.state_map == (0, -1)


def test_identity_map_is_totally_surjective(a2):
    auto, _ = build_canonical_automaton(a2, build_small_roots(a2, 0))
    report = check_morphism(list(range(auto.num_states)), auto, auto)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_shadow_inclusion_induces_total_surjection(i2inf):
    big = Shadow(i2inf, [from_word(i2inf, w)
                         for w in [(), (0,), (1,), (0, 1), (1, 0)]])
    small = garside_closure(i2inf)
    a_big = build_shadow_automaton(big)
    a_small = build_shadow_automaton(small, assume_verified=True)
    f = projection_state_map(a_big.payloads, small, a_small)
    report = check_morphism(f, a_big, a_small)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_canonical_to_low_morphism(aff_a2):
    table = build_small_roots(aff_a2, 0)
    auto, witnesses = build_canonical_automaton(aff_a2, table,
                                                with_witness=True)
    low = low_universe(aff_a2)
    low_auto = build_shadow_automaton(low, assume_verified=True)
    f = projection_state_map(witnesses, low, low_auto)
    report = check_morphism(f, auto, low_auto)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


@pytest.mark.parametrize("level", [0, 1])
def test_canonical_to_smallest_shadow_morphism(aff_c2, level):
    table = build_small_roots(aff_c2, level)
    auto, witnesses = build_canonical_automaton(aff_c2, table,
                                                with_witness=True)
    smallest = garside_closure(aff_c2)
    target = build_shadow_automaton(smallest, assume_verified=True)
    f = projection_state_map(witnesses, smallest, target)
    report = check_morphism(f, auto, target)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_not_morphism_reports_witness(a2, i2inf):
    auto_a, _ = build_canonical_automaton(a2, build_small_roots(a2, 0))
    auto_b, _ = build_canonical_automaton(i2inf, build_small_roots(i2inf, 0))
    report = check_morphism([0] * auto_a.num_states, auto_a, auto_b)
    assert report.verdict is MorphismVerdict.NOT_MORPHISM
    assert report.witness is not None


def test_isomorphic_examples(a2, aff_a2):
    a0, _ = build_canonical_automaton(a2, build_small_roots(a2, 0))
    assert isomorphic(a0, a0)
    shadow_auto = build_shadow_automaton(garside_closure(a2),
                                         assume_verified=True)
    assert isomorphic(a0, shadow_auto)
    a0_aff, _ = build_canonical_automaton(aff_a2, build_small_roots(aff_a2, 0))
    assert isomorphic(a0_aff, minimize(a0_aff))
    assert not isomorphic(a0, a0_aff)


def test_counting(a2, i2inf):
    a0, _ = build_canonical_automaton(a2, build_small_roots(a2, 0))
    assert a0.count_accepted(0) == 1
    words3 = [w for w in itertools.product(range(2), repeat=3)
              if is_reduced_word(a2, w)]
    assert a0.count_accepted(3) == len(words3) == 2
    smallest = build_shadow_automaton(garside_closure(i2inf),
                                      assume_verified=True)
    assert smallest.count_accepted(5) == 2


@pytest.mark.parametrize("group", ["a2", "b2", "i2inf", "aff_a2"])
def test_language_matches_reduced_words(group, request):
    sys = request.getfixturevalue(group)
    oracle = {w.word for level in reduced_words(sys, 6) for w in level}
    table = build_small_roots(sys, 0)
    canonical, _ = build_canonical_automaton(sys, table)
    shadow = garside_closure(sys)
    shadow_auto = build_shadow_automaton(shadow, assume_verified=True)
    assert canonical.accepted_words(6) == oracle
    assert shadow_auto.accepted_words(6) == oracle


def test_reading_ends_at_projection_of_reversed_word(aff_a2):
    shadow = garside_closure(aff_a2)
    auto = build_shadow_automaton(shadow, assume_verified=True)
    table = build_small_roots(aff_a2, 0)
    canonical, _ = build_canonical_automaton(aff_a2, table)
    for word in {w.word for level in reduced_words(aff_a2, 5) for w in level}:
        element = from_word(aff_a2, tuple(reversed(word)))
        state = auto.read(word)
        assert auto.payloads[state] == project(shadow, element)
        cstate = canonical.read(word)
        expected = tuple(sorted(small_inversion_set(table, element)))
        assert canonical.payloads[cstate] == expected


def test_restrict_to_parabolic(right_angled, gprime_words=((), (0,), (1,), (2,),
                                                           (0, 2), (1, 2),
                                                           (0, 1, 2))):
    shadow = Shadow(right_angled,
                    [from_word(right_angled, w) for w in gprime_words])
    auto = build_shadow_automaton(shadow)
    whole = restrict_letters(auto, (0, 1, 2))
    assert isomorphic(whole, auto)
    sub = restrict_letters(auto, (0, 2))
    assert sub.num_states == 4  # {e, s, u, su} = the finite group W_{s,u}
    inner = shadow_in_subsystem(intersect_parabolic(shadow, (0, 2)), (0, 2))
    inner_auto = build_shadow_automaton(inner, assume_verified=True)
    assert isomorphic(sub, inner_auto)


@pytest.mark.parametrize("subset", [(0,), (1,), (0, 1), (0, 2), (1, 2)])
def test_parabolic_restriction_is_intersection_automaton(a3, subset):
    shadow = garside_closure(a3)
    auto = build_shadow_automaton(shadow, assume_verified=True)
    restricted = restrict_letters(auto, subset)
    inner = shadow_in_subsystem(intersect_parabolic(shadow, subset), subset)
    inner_auto = build_shadow_automaton(inner, assume_verified=True)
    assert isomorphic(restricted, inner_auto)


def test_parabolic_projection_morphism(a3):
    from coxauto.elements import coset_split
    subset = (0, 1)
    shadow = garside_closure(a3)
    auto = build_shadow_automaton(shadow, assume_verified=True)
    source = restrict_letters(auto, subset, trim=False)
    image = parabolic_image(shadow, subset)
    target_shadow = shadow_in_subsystem(image, subset)
    target = build_shadow_automaton(target_shadow, assume_verified=True)
    sub, letter_map = a3.subsystem(subset)
    index = {el.inv: i for i, el in enumerate(target.payloads)}
    f = []
    for el in auto.payloads:
        p = coset_split(el, subset)[0]
        word = tuple(letter_map[s] for s in p.word)
        f.append(index[from_word(sub, word).inv])
    report = check_morphism(f, source, target)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_shortest_words_reaches_every_state(aff_a2):
    auto, _ = build_canonical_automaton(aff_a2, build_small_roots(aff_a2, 0))
    words = shortest_words(auto)
    assert len(words) == auto.num_states
    for q, w in enumerate(words):
        assert auto.read(w) == q


def test_rank_one_group_degenerates_cleanly():
    sys = parse_coxeter_system("A1")
    auto, _ = build_canonical_automaton(sys, build_small_roots(sys, 0))
    assert auto.num_states == 2 and auto.num_transitions() == 1
    assert minimize(auto).num_states == 2
    assert auto.counts_by_length(3) == [1, 1, 0, 0]
    shadow_auto = build_shadow_automaton(garside_closure(sys),
                                         assume_verified=True)
    assert isomorphic(auto, shadow_auto)


def test_dot_export_is_deterministic(i2inf):
    auto = build_shadow_automaton(garside_closure(i2inf), assume_verified=True)
    dot1, dot2 = auto.to_dot(), auto.to_dot()
    assert dot1 == dot2
    assert dot1.startswith("digraph")
    assert 'label="1"' in dot1 and "q0 -> " in dot1
