from __future__ import annotations

import itertools
import tracemalloc
from array import array
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (AFFINE_CATALOG, BLOCKING_GROUPS, BLOCKING_RANK_THREE,
                      DIFFERENTIAL_GROUPS, accepted_words,
                      assert_bfs_numbered,
                      assert_blocking_classes_match_hopcroft,
                      assert_numbered_by_first_state,
                      assert_predecessor_chains_hold_every_move,
                      assert_shadow_and_minimal_classes_match_hopcroft,
                      byte_slice_shadow_automaton, canonical_witnesses,
                      first_state_numbering, flat_moves, hopcroft_minimize,
                      per_bit_canonical_automaton, projection_state_map,
                      rows, shortest_words, small_columns, universe_missing)
from coxauto import automata, garside, parse_coxeter_system, smallroots
from coxauto.automata import (Automaton, MorphismVerdict,
                              build_canonical_automaton,
                              build_shadow_automaton, check_morphism,
                              isomorphic, minimize, nerode_classes,
                              restrict_letters)
from coxauto.elements import from_word, reduced_words
from coxauto.errors import BudgetExceeded, ShadowViolation
from coxauto.garside import (Shadow, garside_closure, intersect_parabolic,
                             low_universe, parabolic_image, project,
                             shadow_in_subsystem)
from coxauto.smallroots import SmallRootTable, build_small_roots


def test_shadow_automaton_infinite_dihedral(i2inf):
    # an explicit copy of the closure, so the automaton verifies it in full
    auto = build_shadow_automaton(Shadow(i2inf, [
        el.word for el in garside_closure(i2inf).elements]))
    assert auto.num_states == 3
    assert auto.num_transitions() == 4
    by_word = {str(el): i for i, el in enumerate(auto.payloads)}
    delta = rows(auto)
    # e goes to s and t; s and t swap via the other letter
    assert delta[by_word["e"]][0] == by_word["1"]
    assert delta[by_word["e"]][1] == by_word["2"]
    assert delta[by_word["1"]][1] == by_word["2"]
    assert delta[by_word["2"]][0] == by_word["1"]
    assert delta[by_word["1"]][0] == -1


def test_shadow_automaton_finite_group_moves_by_left_multiplication(a2):
    shadow = garside_closure(a2)
    auto = build_shadow_automaton(shadow)
    assert auto.num_states == 6
    for q, a, q2 in auto.transitions():
        source, target = auto.payloads[q], auto.payloads[q2]
        assert target.inv == from_word(
            a2, (a,) + source.word).inv  # x -> s x exactly


def test_shadow_automaton_requires_shadow(a2):
    bad = Shadow(a2, [(), (0,), (1,)])
    with pytest.raises(ShadowViolation):
        build_shadow_automaton(bad)


def _assert_matches_byte_slice_reference(shadow):
    auto = build_shadow_automaton(shadow)
    reference = byte_slice_shadow_automaton(shadow)
    assert auto.initial == reference.initial
    assert auto.moves == reference.moves
    assert list(auto.payloads) == reference.payloads


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_shadow_automaton_matches_byte_slice_reference(name, level):
    sys = parse_coxeter_system(name)
    _assert_matches_byte_slice_reference(low_universe(sys, level))
    if level == 0:
        _assert_matches_byte_slice_reference(garside_closure(sys))


@pytest.mark.parametrize("name", ["~A4", "~C4", "~B4"])
def test_rank_five_closures_match_byte_slice_reference(name):
    _assert_matches_byte_slice_reference(
        garside_closure(parse_coxeter_system(name)))


@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2", "~A3",
                                  "triangle(2,3,7)", "triangle(4,4,4)"])
def test_seeded_closures_and_verified_copies_match_byte_slice_reference(name):
    # seeds that are 1-low but not 0-low, so each closure lies in L_1; an
    # explicit copy carries no level or verdict and is verified in full
    sys = parse_coxeter_system(name)
    low0 = low_universe(sys, 0)
    outside = [el for el in low_universe(sys, 1) if el not in low0]
    for seed in (outside[0], outside[-1]):
        closure = garside_closure(sys, [seed])
        assert closure.level == 1
        for shadow in (closure,
                       Shadow(sys, [el.word for el in closure.elements])):
            _assert_matches_byte_slice_reference(shadow)
    _assert_matches_byte_slice_reference(
        Shadow(sys, [el.word for el in garside_closure(sys).elements]))


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_canonical_automaton_maps_onto_shadow_automaton(name, level):
    # q -> pi_B(Sigma_n of q) maps A_n onto A_B, which is built from the
    # members' masks without A_n
    sys = parse_coxeter_system(name)
    canonical, masks = build_canonical_automaton(sys, level)
    shadows = [low_universe(sys, level)]
    if level == 0:
        shadows.append(garside_closure(sys))
    for shadow in shadows:
        below = small_columns(shadow).below
        f = [below(mask).bit_length() - 1 for mask in masks]
        report = check_morphism(f, canonical, build_shadow_automaton(shadow))
        assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_shadow_automaton_over_low0_projects_nothing(monkeypatch):
    # every state of A_0 is Sigma_0 of a 0-low element, so pi_{L_0} of every
    # target is a member found by its mask
    sys = parse_coxeter_system("~C3")
    low = low_universe(sys, 0)
    calls = []
    real = Shadow._below

    def counting(self, small):
        calls.append(small)
        return real(self, small)

    monkeypatch.setattr(Shadow, "_below", counting)
    assert build_shadow_automaton(low).num_states == len(low)
    assert calls == []


@pytest.mark.parametrize("name", ["~A2", "~C3", "~B3", "H3",
                                  "triangle(2,3,7)"])
def test_shadow_automaton_builds_no_canonical_automaton(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("A_B is built through A_n")

    monkeypatch.setattr(automata, "build_canonical_automaton", refuse)
    monkeypatch.setattr(SmallRootTable, "canonical_walk", refuse)
    sys = parse_coxeter_system(name)
    _assert_matches_byte_slice_reference(garside_closure(sys))
    _assert_matches_byte_slice_reference(low_universe(sys, 1))


@pytest.mark.parametrize("name", ["~C2", "~G2", "~C3", "triangle(2,3,7)"])
def test_shadow_automaton_target_lookup_miss_falls_back_to_below(
        monkeypatch, name):
    # L_0 loses the Sigma_n lookup of its first element of length 2, the
    # target of a generator's row: that target alone is read off _below
    sys = parse_coxeter_system(name)
    universe = low_universe(sys, 0)
    victim = sys.rank + 1
    assert len(universe._words[victim]) == 2
    copy = universe_missing(universe, victim)
    for shadow in (garside_closure(sys), universe):
        reference = byte_slice_shadow_automaton(shadow)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(garside, "low_universe", lambda sys, level=0: copy)
            calls = []
            real = Shadow._below

            def counting(self, small):
                calls.append(small)
                return real(self, small)

            mp.setattr(Shadow, "_below", counting)
            auto = build_shadow_automaton(shadow)
        assert calls and set(calls) == {universe._small[victim]}
        assert auto.initial == reference.initial
        assert auto.moves == reference.moves


def test_canonical_automaton_counts(aff_a2, aff_g2, i2inf):
    auto, _ = build_canonical_automaton(aff_a2, 0)
    assert auto.num_states == 16
    auto, _ = build_canonical_automaton(aff_g2, 0)
    assert auto.num_states == 49
    auto, _ = build_canonical_automaton(i2inf, 0)
    assert auto.num_states == 3
    assert sorted(auto.payloads) == [0, 1 << 0, 1 << 1]  # {}, {0}, {1}


@pytest.mark.parametrize("name, h, r", [
    (name, h, r) for name, h, r in AFFINE_CATALOG if (h + 1) ** r <= 10 ** 4])
def test_canonical_states_count_shi_regions(name, h, r):
    # (h+1)^r regions of the Shi arrangement (Shi 1987), independent of the
    # reduced-word walk
    sys = parse_coxeter_system(name)
    auto, _ = build_canonical_automaton(sys, 0)
    assert auto.num_states == (h + 1) ** r


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2", "~A3", "~C3", "~B3",
                                  "H3", "triangle(2,3,7)", "triangle(4,4,4)"])
def test_canonical_automaton_matches_per_bit_reference(name, level):
    sys = parse_coxeter_system(name)
    auto, _ = build_canonical_automaton(sys, level)
    reference = per_bit_canonical_automaton(sys, level)
    assert auto.num_states == reference.num_states
    assert auto.moves == reference.moves
    assert auto.payloads == reference.payloads


def test_canonical_state_budget(monkeypatch):
    # hyperbolic, so the budget is met during the enumeration
    sys = parse_coxeter_system("triangle(2,3,7)")
    full, _ = build_canonical_automaton(sys, 0)
    monkeypatch.setattr(garside, "STATE_BUDGET", full.num_states)
    assert build_canonical_automaton(sys, 0)[0].num_states == full.num_states
    monkeypatch.setattr(garside, "STATE_BUDGET", full.num_states - 1)
    with pytest.raises(BudgetExceeded, match="^canonical automaton outgrew "
                       f"the state budget of {full.num_states - 1}$"):
        build_canonical_automaton(sys, 0)


def test_minimize_sizes(aff_c2, aff_g2, a2):
    c2_auto, _ = build_canonical_automaton(aff_c2, 0)
    assert minimize(c2_auto).num_states == 24
    g2_auto, _ = build_canonical_automaton(aff_g2, 0)
    assert minimize(g2_auto).num_states == 41
    a2_auto, _ = build_canonical_automaton(a2, 0)
    assert minimize(a2_auto).num_states == 6


def test_minimize_is_idempotent_and_language_preserving(aff_c2):
    auto, _ = build_canonical_automaton(aff_c2, 0)
    m1 = minimize(auto)
    m2 = minimize(m1)
    assert m1.num_states == m2.num_states <= auto.num_states
    assert isomorphic(m1, m2)
    assert accepted_words(auto, 6) == accepted_words(m1, 6)


def _moore_minimize(auto):
    """Moore partition refinement over the sink-completed automaton, with
    classes numbered by a BFS from the initial class: the reference for
    ``minimize``."""
    n = auto.num_states
    k = auto.alphabet_size
    sink = n
    delta = [tuple(q2 if q2 >= 0 else sink for q2 in row)
             for row in rows(auto)]
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
                     moves=flat_moves(new_delta), kind="minimal",
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
    return Automaton(labels, [None] * n, draw(st.integers(0, n - 1)),
                     flat_moves(delta))


def _assert_moore_quotient(auto, got):
    ref = _moore_minimize(auto)
    assert got.moves == ref.moves
    assert got.state_map == ref.state_map
    assert got.counts_by_length(8) == auto.counts_by_length(8)
    return ref


def _assert_minimal_form(auto):
    got = minimize(auto)
    ref = _assert_moore_quotient(auto, got)
    assert (first_state_numbering(nerode_classes(auto))
            == first_state_numbering(ref.state_map))
    assert isomorphic(minimize(got), got)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(partial_dfas())
def test_minimize_matches_moore_reference(auto):
    # a hand-made automaton has no small-root table: its Hopcroft classes,
    # renumbered by the BFS of minimize, give its quotient
    got = hopcroft_minimize(auto)
    _assert_moore_quotient(auto, got)
    assert isomorphic(hopcroft_minimize(got), got)


@pytest.mark.parametrize("group, kind", [
    ("~C4", "canonical"), ("~B4", "canonical"),
    ("~A2", "shadow"), ("~C2", "shadow"), ("~G2", "shadow"),
    ("A3", "shadow"), ("B3", "shadow"), ("H3", "shadow"),
    ("~C2", "low"),
])
def test_minimize_matches_moore_reference_on_groups(group, kind):
    sys = parse_coxeter_system(group)
    if kind == "canonical":
        auto, _ = build_canonical_automaton(sys, 0)
    elif kind == "shadow":
        auto = build_shadow_automaton(garside_closure(sys))
    else:  # A_B of L_0, whose 25 states fall into 24 classes on ~C2
        auto = build_shadow_automaton(low_universe(sys, 0))
    _assert_minimal_form(auto)


@pytest.mark.parametrize("name, level", [
    (name, 0) for name in BLOCKING_GROUPS] + [
    (name, level) for level in (1, 2) for name in BLOCKING_RANK_THREE])
def test_blocking_classes_match_hopcroft(name, level):
    auto, _ = build_canonical_automaton(parse_coxeter_system(name), level)
    assert_blocking_classes_match_hopcroft(auto)


@pytest.mark.parametrize("name, level", [
    (name, level) for level in (0, 1) for name in BLOCKING_GROUPS])
def test_blocking_classes_of_shadow_and_minimal_automata_match_hopcroft(
        name, level):
    assert_shadow_and_minimal_classes_match_hopcroft(
        parse_coxeter_system(name), level)


@pytest.mark.parametrize("name", BLOCKING_GROUPS)
def test_predecessor_chains_of_canonical_automata(name):
    auto, _ = build_canonical_automaton(parse_coxeter_system(name), 0)
    assert_predecessor_chains_hold_every_move(auto)


@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_predecessor_chains_of_shadow_automata(name):
    sys = parse_coxeter_system(name)
    for shadow in (garside_closure(sys), low_universe(sys, 1)):
        auto = build_shadow_automaton(shadow)
        assert_predecessor_chains_hold_every_move(auto)
        assert_predecessor_chains_hold_every_move(minimize(auto))


@pytest.mark.parametrize("name, level", [("~C3", 1), ("H3", 0),
                                         ("triangle(2,3,7)", 1)])
def test_canonical_rows_are_one_flat_array(name, level):
    sys = parse_coxeter_system(name)
    auto, _ = build_canonical_automaton(sys, level)
    moves = auto.moves
    assert isinstance(moves, array) and moves.typecode == "i"
    assert len(moves) == sys.rank * auto.num_states
    reference = per_bit_canonical_automaton(sys, level)
    assert moves == reference.moves
    assert auto.num_transitions() == len(list(reference.transitions()))


def test_constructor_refuses_moves_of_the_wrong_length():
    # k entries a state: 3 states over 2 letters take exactly 6 moves
    auto = Automaton(("1", "2"), [None] * 3, 0,
                     array("i", [1, 2, -1, 2, -1, -1]))
    assert auto.num_states == 3 and auto.num_transitions() == 3
    assert rows(auto) == [(1, 2), (-1, 2), (-1, -1)]
    for moves in ([1, 2, -1, 2, -1], [1, 2, -1, 2, -1, -1, -1], []):
        with pytest.raises(ValueError, match="^{} moves do not fill 3 states "
                           "over 2 letters$".format(len(moves))):
            Automaton(("1", "2"), [None] * 3, 0, array("i", moves))
    with pytest.raises(ValueError, match="^1 moves do not fill 1 states "
                       "over 2 letters$"):
        Automaton(("1", "2"), [None], 0, array("i", [-1]))


def test_read_refuses_a_letter_outside_the_alphabet():
    # read indexes the moves by code, where letter 2 of state 0 would be
    # letter 0 of state 1
    auto = Automaton(("1", "2"), [None] * 3, 0,
                     array("i", [1, 2, -1, 2, -1, -1]))
    assert auto.read((0, 1)) == 2 and auto.read((0, 0)) is None
    for word in ((2,), (0, -1)):
        with pytest.raises(IndexError, match="is not below 2"):
            auto.read(word)


def _canonical_peak(name):
    """The traced peak of A_0 and its class count, the count and A_0."""
    sys = parse_coxeter_system(name)
    build_small_roots(sys, 0).images(0)  # the table and its action table
    tracemalloc.start()
    try:
        auto, _ = build_canonical_automaton(sys, 0)
        count = len(set(nerode_classes(auto)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, count, auto


def test_canonical_walk_and_classes_peak_per_state():
    # the rows take 4 bytes a move and the predecessor chains 4 more, so
    # the traced peak of A_0 of ~C4 and its classes is mostly the masks,
    # the state index and the blocking sets (about 200 B a state; 330 with
    # a tuple per row and a sorted predecessor index)
    peak, count, auto = _canonical_peak("~C4")
    assert (auto.num_states, count) == (6561, 5860)
    assert peak <= 250 * auto.num_states


@pytest.mark.slow
def test_class_count_peak_per_state_on_d5():
    # on ~D5 the peak comes after the walk, while the classes are counted:
    # the blocking sets and the set of them, with no class number per state
    # (about 150 B a state; 198 with the classes numbered by first state)
    peak, count, auto = _canonical_peak("~D5")
    assert (auto.num_states, count) == (59049, 58965)
    assert peak <= 165 * auto.num_states


# ~C4 and ~B4 pass the state budget at level 2
@pytest.mark.parametrize("name, level", [
    (name, level) for level in (0, 1, 2) for name in BLOCKING_GROUPS
    if level < 2 or name not in ("~C4", "~B4")])
def test_canonical_classes_are_numbered_by_first_state(name, level):
    # A_n is trim and BFS-numbered, so the BFS of minimize numbers the
    # classes by their first states
    auto, _ = build_canonical_automaton(parse_coxeter_system(name), level)
    minimal = minimize(auto)
    assert (first_state_numbering(nerode_classes(auto))
            == list(minimal.state_map))
    assert_numbered_by_first_state(minimal.state_map)
    assert_bfs_numbered(auto)
    assert_bfs_numbered(minimal)


def test_minimize_needs_a_small_root_table(aff_c2):
    # the builders set the table whose letter action the states follow,
    # and minimize keeps it; an automaton without one has no classes
    auto, _ = build_canonical_automaton(aff_c2, 0)
    assert auto.table is build_small_roots(aff_c2, 0)
    shadow = low_universe(aff_c2, 0)
    assert build_shadow_automaton(shadow).table is shadow._small_table()
    minimal = minimize(auto)
    assert minimal.num_states == 24 and minimal.table is auto.table
    hand_made = Automaton(auto.letter_labels, list(auto.payloads),
                          auto.initial, auto.moves, auto.kind)
    for other in (hand_made, restrict_letters(auto, range(3), trim=False)):
        assert other.table is None
        for classes in (minimize, nerode_classes):
            with pytest.raises(ValueError, match="has no small-root table"):
                classes(other)


def test_canonical_build_classifies_the_system_once(monkeypatch):
    # the state budget check and the small-root table share one
    # classification of the whole system
    calls = []
    real = smallroots.classify_type

    def counting(sys, subset):
        calls.append(tuple(subset))
        return real(sys, subset)

    monkeypatch.setattr(smallroots, "classify_type", counting)
    auto, _ = build_canonical_automaton(parse_coxeter_system("~C4"), 0)
    assert auto.num_states == 6561
    assert calls == [(0, 1, 2, 3, 4)]


def test_minimize_maps_unreachable_inequivalent_state_to_minus_one():
    # state 1 is unreachable and reads "1", which the initial state cannot;
    # the BFS of minimize finds no class for it
    auto = Automaton(("1", "2"), [None, None], 0, array("i", [-1, -1, 1, -1]))
    result = hopcroft_minimize(auto)
    assert result.moves == array("i", [-1, -1])
    assert result.state_map == (0, -1)


def test_identity_map_is_totally_surjective(a2):
    auto, _ = build_canonical_automaton(a2, 0)
    report = check_morphism(list(range(auto.num_states)), auto, auto)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_shadow_inclusion_induces_total_surjection(i2inf):
    big = Shadow(i2inf, [(), (0,), (1,), (0, 1), (1, 0)])
    small = garside_closure(i2inf)
    a_big = build_shadow_automaton(big)
    a_small = build_shadow_automaton(small)
    f = projection_state_map(a_big.payloads, small, a_small)
    report = check_morphism(f, a_big, a_small)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_canonical_to_low_morphism(aff_a2):
    auto, _ = build_canonical_automaton(aff_a2, 0)
    witnesses = canonical_witnesses(auto, aff_a2)
    low = low_universe(aff_a2)
    low_auto = build_shadow_automaton(low)
    f = projection_state_map(witnesses, low, low_auto)
    report = check_morphism(f, auto, low_auto)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


@pytest.mark.parametrize("level", [0, 1])
def test_canonical_to_smallest_shadow_morphism(aff_c2, level):
    auto, _ = build_canonical_automaton(aff_c2, level)
    witnesses = canonical_witnesses(auto, aff_c2)
    smallest = garside_closure(aff_c2)
    target = build_shadow_automaton(smallest)
    f = projection_state_map(witnesses, smallest, target)
    report = check_morphism(f, auto, target)
    assert report.verdict is MorphismVerdict.TOTALLY_SURJECTIVE


def test_not_morphism_reports_witness(a2, i2inf):
    auto_a, _ = build_canonical_automaton(a2, 0)
    auto_b, _ = build_canonical_automaton(i2inf, 0)
    report = check_morphism([0] * auto_a.num_states, auto_a, auto_b)
    assert report.verdict is MorphismVerdict.NOT_MORPHISM
    assert report.witness is not None


def test_isomorphic_examples(a2, aff_a2):
    a0, _ = build_canonical_automaton(a2, 0)
    assert isomorphic(a0, a0)
    shadow_auto = build_shadow_automaton(garside_closure(a2))
    assert isomorphic(a0, shadow_auto)
    a0_aff, _ = build_canonical_automaton(aff_a2, 0)
    assert isomorphic(a0_aff, minimize(a0_aff))
    assert not isomorphic(a0, a0_aff)


def test_counting(a2, i2inf):
    a0, _ = build_canonical_automaton(a2, 0)
    assert a0.counts_by_length(0)[0] == 1
    words3 = [w for w in itertools.product(range(2), repeat=3)
              if from_word(a2, w).length == 3]
    assert a0.counts_by_length(3)[3] == len(words3) == 2
    smallest = build_shadow_automaton(garside_closure(i2inf))
    assert smallest.counts_by_length(5)[5] == 2


@pytest.mark.parametrize("group", ["a2", "b2", "i2inf", "aff_a2"])
def test_language_matches_reduced_words(group, request):
    sys = request.getfixturevalue(group)
    oracle = {w.word for level in reduced_words(sys, 6) for w in level}
    canonical, _ = build_canonical_automaton(sys, 0)
    shadow = garside_closure(sys)
    shadow_auto = build_shadow_automaton(shadow)
    assert accepted_words(canonical, 6) == oracle
    assert accepted_words(shadow_auto, 6) == oracle


def test_reading_ends_at_projection_of_reversed_word(aff_a2):
    shadow = garside_closure(aff_a2)
    auto = build_shadow_automaton(shadow)
    canonical, _ = build_canonical_automaton(aff_a2, 0)
    for word in {w.word for level in reduced_words(aff_a2, 5) for w in level}:
        element = from_word(aff_a2, tuple(reversed(word)))
        state = auto.read(word)
        assert auto.payloads[state] == project(shadow, element)
        cstate = canonical.read(word)
        expected = build_small_roots(aff_a2, 0).small_part(element.inv)
        assert canonical.payloads[cstate] == expected


def test_restrict_to_parabolic(right_angled, gprime_words=((), (0,), (1,), (2,),
                                                           (0, 2), (1, 2),
                                                           (0, 1, 2))):
    shadow = Shadow(right_angled, gprime_words)
    auto = build_shadow_automaton(shadow)
    whole = restrict_letters(auto, (0, 1, 2))
    assert isomorphic(whole, auto)
    sub = restrict_letters(auto, (0, 2))
    assert sub.num_states == 4  # {e, s, u, su} = the finite group W_{s,u}
    inner = shadow_in_subsystem(intersect_parabolic(shadow, (0, 2)), (0, 2))
    inner_auto = build_shadow_automaton(inner)
    assert isomorphic(sub, inner_auto)


@pytest.mark.parametrize("subset", [(0,), (1,), (0, 1), (0, 2), (1, 2)])
def test_parabolic_restriction_is_intersection_automaton(a3, subset):
    shadow = garside_closure(a3)
    auto = build_shadow_automaton(shadow)
    restricted = restrict_letters(auto, subset)
    inner = shadow_in_subsystem(intersect_parabolic(shadow, subset), subset)
    inner_auto = build_shadow_automaton(inner)
    assert isomorphic(restricted, inner_auto)


def test_parabolic_projection_morphism(a3):
    from coxauto.elements import coset_split
    subset = (0, 1)
    shadow = garside_closure(a3)
    auto = build_shadow_automaton(shadow)
    source = restrict_letters(auto, subset, trim=False)
    image = parabolic_image(shadow, subset)
    target_shadow = shadow_in_subsystem(image, subset)
    target = build_shadow_automaton(target_shadow)
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
    auto, _ = build_canonical_automaton(aff_a2, 0)
    words = shortest_words(auto)
    assert len(words) == auto.num_states
    for q, w in enumerate(words):
        assert auto.read(w) == q


def test_rank_one_group_degenerates_cleanly():
    sys = parse_coxeter_system("A1")
    auto, _ = build_canonical_automaton(sys, 0)
    assert auto.num_states == 2 and auto.num_transitions() == 1
    assert minimize(auto).num_states == 2
    assert auto.counts_by_length(3) == [1, 1, 0, 0]
    shadow_auto = build_shadow_automaton(garside_closure(sys))
    assert isomorphic(auto, shadow_auto)


def test_dot_export_is_deterministic(i2inf):
    auto = build_shadow_automaton(garside_closure(i2inf))
    dot1, dot2 = auto.to_dot(), auto.to_dot()
    assert dot1 == dot2
    assert dot1.startswith("digraph")
    assert 'label="1"' in dot1 and "q0 -> " in dot1
