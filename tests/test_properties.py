"""Properties of inversion masks, automata and Conjecture 2 over random
Coxeter systems.

The systems are drawn by ``conftest.coxeter_systems`` (rank 3-4, labels in
{2, 3, 4, 5, 6, inf}); every test is derandomized, so a run is repeatable.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (coxeter_systems, per_bit_canonical_automaton,
                      reference_merged_state_witness)
from coxauto.automata import (build_canonical_automaton,
                              build_shadow_automaton, minimize)
from coxauto.conjectures import Verdict, check_conjecture
from coxauto.elements import (from_word, mult_left, mult_right,
                              recompute_inversions, reduced_word_counts)
from coxauto.garside import garside_closure
from coxauto.smallroots import build_small_roots

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
    canonical, _ = build_canonical_automaton(sys, build_small_roots(sys, 0))
    assert canonical.counts_by_length(LENGTH) == oracle
    shadow = build_shadow_automaton(garside_closure(sys),
                                    assume_verified=True)
    assert shadow.counts_by_length(LENGTH) == oracle
    for auto in (canonical, shadow):
        once = minimize(auto)
        twice = minimize(once)
        assert twice.delta == once.delta
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
        auto, _ = build_canonical_automaton(sys, build_small_roots(sys, 0))
        assert report.witnesses == reference_merged_state_witness(
            auto, minimize(auto), sys)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_canonical_automaton_matches_per_bit_reference(sys):
    table = build_small_roots(sys, 0)
    auto, _ = build_canonical_automaton(sys, table)
    reference = per_bit_canonical_automaton(sys, table)
    assert auto.num_states == reference.num_states
    assert auto.delta == reference.delta
    assert list(auto.payloads) == reference.payloads
