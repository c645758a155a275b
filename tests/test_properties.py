"""Properties of inversion masks, automata and Conjecture 2 over random
Coxeter systems, and of the action of the letters on small roots.

The systems are drawn by ``conftest.coxeter_systems`` (rank 3-4, labels in
{2, 3, 4, 5, 6, inf}); the action tables are those of the groups in
``conftest.BLOCKING_GROUPS`` at levels 0-2.  Every test is derandomized,
so a run is repeatable.
"""

from __future__ import annotations

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BLOCKING_GROUPS, assert_blocking_classes_match_hopcroft,
                      assert_predecessor_chains_hold_every_move,
                      assert_shadow_and_minimal_classes_match_hopcroft,
                      byte_slice_shadow_automaton, coxeter_systems,
                      per_bit_canonical_automaton, recompute_inversions,
                      reference_merged_state_witness)
from coxauto import parse_coxeter_system
from coxauto.automata import (build_canonical_automaton,
                              build_shadow_automaton, minimize)
from coxauto.conjectures import Verdict, check_conjecture, stats_row
from coxauto.elements import (from_word, mult_left, mult_right,
                              reduced_word_counts)
from coxauto.garside import garside_closure
from coxauto.smallroots import (Classification, build_small_roots,
                                classify_type)

LENGTH = 6


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems(), st.lists(st.integers(0, 3), max_size=12))
def test_incremental_masks_match_recomputation(sys, letters):
    # letters need not form a reduced word; from_word cancels as it goes
    w = from_word(sys, [s % sys.rank for s in letters])
    assert w.inv == recompute_inversions(w)
    assert from_word(sys, w.word).inv == w.inv
    for s in range(sys.rank):
        for v in (mult_left(s, w), mult_right(w, s)):
            assert v.inv == recompute_inversions(v)
            assert v.inv.bit_count() == v.length


@settings(max_examples=40, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_automata_count_reduced_words(sys):
    oracle = reduced_word_counts(sys, LENGTH)
    canonical, _ = build_canonical_automaton(sys, 0)
    assert canonical.counts_by_length(LENGTH) == oracle
    shadow = build_shadow_automaton(garside_closure(sys))
    assert shadow.counts_by_length(LENGTH) == oracle
    for auto in (canonical, shadow):
        once = minimize(auto)
        twice = minimize(once)
        assert twice.moves == once.moves
        assert twice.state_map == tuple(range(once.num_states))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_conjecture_two_proven_direction(sys):
    # all small roots spherical => the 0-canonical automaton is minimal
    report = check_conjecture(sys, "conj2")
    if report.numbers["sigma_eq_sph"]:
        assert report.numbers["minimal"]
        assert report.verdict is not Verdict.FAILS
    if not report.numbers["minimal"]:
        auto, _ = build_canonical_automaton(sys, 0)
        assert report.witnesses == reference_merged_state_witness(
            auto, minimize(auto), sys)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_class_counts_match_minimize(sys):
    # conj2 and stats_row count a_min off the Nerode classes; the quotient
    # automaton has as many states (the conj2 witness is checked against
    # the quotient above)
    auto, _ = build_canonical_automaton(sys, 0)
    minimal = minimize(auto)
    report = check_conjecture(sys, "conj2")
    assert report.numbers["a_min"] == minimal.num_states
    assert report.numbers["minimal"] is (minimal.num_states
                                         == auto.num_states)
    row = stats_row(sys)
    assert (row.canonical_states, row.minimal_states) == (
        auto.num_states, minimal.num_states)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_canonical_automaton_matches_per_bit_reference(sys):
    auto, _ = build_canonical_automaton(sys, 0)
    reference = per_bit_canonical_automaton(sys, 0)
    assert auto.num_states == reference.num_states
    assert auto.moves == reference.moves
    assert auto.payloads == reference.payloads


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_shadow_automaton_matches_byte_slice_reference(sys):
    shadow = garside_closure(sys)
    auto = build_shadow_automaton(shadow)
    reference = byte_slice_shadow_automaton(shadow)
    assert auto.initial == reference.initial
    assert auto.moves == reference.moves


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_spherical_flags_match_classify_type(sys):
    for node in build_small_roots(sys, 0).nodes:
        assert node.spherical is (classify_type(sys, node.support)
                                  is Classification.FINITE)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems(), st.integers(0, 1))
def test_blocking_classes_match_hopcroft(sys, level):
    auto, _ = build_canonical_automaton(sys, level)
    assert_blocking_classes_match_hopcroft(auto)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems(), st.integers(0, 1))
def test_blocking_classes_of_shadow_and_minimal_automata_match_hopcroft(
        sys, level):
    assert_shadow_and_minimal_classes_match_hopcroft(sys, level)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_predecessor_chains_hold_every_move(sys):
    auto, _ = build_canonical_automaton(sys, 0)
    assert_predecessor_chains_hold_every_move(auto)
    assert_predecessor_chains_hold_every_move(
        build_shadow_automaton(garside_closure(sys)))


# The premise of the blocking-set classes: each letter acts on the small
# roots by a partial involution that never yields its own simple root, and
# on sets of them by unions.

@cache
def _preset(name: str):
    return parse_coxeter_system(name)


@st.composite
def action_tables(draw):
    """A group of ``BLOCKING_GROUPS``, a level 0-2, its table and a letter."""
    sys = _preset(draw(st.sampled_from(BLOCKING_GROUPS)))
    table = build_small_roots(sys, draw(st.integers(0, 2)))
    return table, draw(st.integers(0, sys.rank - 1))


def _masks(table):
    return st.integers(0, (1 << len(table)) - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(action_tables(), st.data())
def test_image_distributes_over_unions(drawn, data):
    table, s = drawn
    a, b = data.draw(_masks(table)), data.draw(_masks(table))
    assert (table.images(a | b)[s]
            == table.images(a)[s] | table.images(b)[s])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(action_tables(), st.data())
def test_image_is_a_partial_involution(drawn, data):
    table, s = drawn
    beta = 1 << data.draw(st.integers(0, len(table) - 1))
    inner = table.images(beta)[s]
    assert inner.bit_count() <= 1
    if inner:
        assert table.images(inner)[s] == beta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(action_tables(), st.data())
def test_image_never_holds_the_letters_root(drawn, data):
    table, s = drawn
    assert not table.images(data.draw(_masks(table)))[s] >> s & 1
