from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (AFFINE_CATALOG, DIFFERENTIAL_GROUPS, FullColumnIndex,
                      ball, below_projections, cone_member, coxeter_systems,
                      lowest_bit_closure_in_universe, n1_closure_in_universe,
                      n1_verify_shadow, pairwise_closure,
                      pairwise_verify_shadow, reference_low_search,
                      search_join, universe_missing, up_set)
from coxauto import garside, parse_coxeter_system
from coxauto.automata import build_shadow_automaton
from coxauto.conjectures import check_conjecture, stats_row
from coxauto.elements import (_mask_bits, from_word, generator, identity,
                              mult_left, weak_leq)
from coxauto.errors import (BudgetExceeded, InternalInvariant,
                            LowElementsNotShadow, ShadowViolation)
from coxauto.garside import (Shadow, ShadowVerdict, VerdictStatus,
                             garside_closure, join,
                             low_elements, low_universe, intersect_parabolic,
                             parabolic_image, project,
                             restriction_compatibility_check, verify_shadow)
from coxauto.smallroots import EXIT, build_small_roots


def _brute_force_join(sys, u, v, radius):
    candidates = [w for w in ball(sys, radius)
                  if weak_leq(u, w) and weak_leq(v, w)]
    if not candidates:
        return None
    best = min(candidates, key=lambda w: w.length)
    assert all(weak_leq(best, w) for w in candidates)
    return best


def test_join_examples(a2, i2inf):
    e = identity(a2)
    u = from_word(a2, (0, 1))
    assert join(u, e) == u
    s, t = from_word(a2, (0,)), from_word(a2, (1,))
    expected = _brute_force_join(a2, s, t, 3)
    got = join(s, t)
    assert got == expected and got.length == 3  # the long element sts
    si, ti = from_word(i2inf, (0,)), from_word(i2inf, (1,))
    assert join(si, ti) is None


def test_join_result_is_least_upper_bound(aff_a2):
    elements = ball(aff_a2, 3)
    for u, v in itertools.combinations(elements, 2):
        w = join(u, v)
        brute = _brute_force_join(aff_a2, u, v, 10)
        assert w == brute
        if w is not None:
            assert weak_leq(u, w) and weak_leq(v, w)


@pytest.fixture(scope="module")
def gprime_shadow(right_angled):
    words = [(), (0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)]
    return Shadow(right_angled, words)


def test_project_examples(right_angled, gprime_shadow):
    e = identity(right_angled)
    assert project(gprime_shadow, e) == e
    for b in gprime_shadow:
        assert project(gprime_shadow, b) == b
    ts = from_word(right_angled, (1, 0))
    assert str(project(gprime_shadow, ts)) == "2"


def _project_by_scan(shadow, w):
    """The longest element of the shadow below w, by a linear scan."""
    below = [b for b in shadow if weak_leq(b, w)]
    longest = max(b.length for b in below)
    (best,) = [b for b in below if b.length == longest]
    return best


@pytest.mark.parametrize("spec, kind", [
    *(pytest.param(spec, "closure", id=spec)
      for spec in ["~A2", "~C2", "~G2", "~C3", "A3", "B3", "H3"]),
    pytest.param("~C2", "L_1", id="~C2-L_1"),
    pytest.param("~G2", "L_1", id="~G2-L_1"),
    pytest.param("triangle(inf,2,inf)", "explicit", id="gprime")])
def test_shadow_automaton_projections_match_scan(spec, kind, request):
    if kind == "explicit":
        shadow = request.getfixturevalue("gprime_shadow")
    elif kind == "L_1":
        shadow = low_universe(parse_coxeter_system(spec), 1)
    else:
        shadow = garside_closure(parse_coxeter_system(spec))
    sys = shadow.system
    auto = build_shadow_automaton(shadow)
    for q, el in enumerate(auto.payloads):
        for s in range(sys.rank):
            if not el.inv >> s & 1:
                expected = _project_by_scan(shadow, mult_left(s, el))
                assert auto.payloads[auto.moves[q * sys.rank + s]] is expected


def test_project_rejects_non_join_closed_set(a2):
    # both s and t are longest prefixes of sts inside {e, s, t}
    bad = Shadow(a2, [(), (0,), (1,)])
    with pytest.raises(ShadowViolation, match="not unique"):
        project(bad, from_word(a2, (0, 1, 0)))


def test_project_rejects_set_without_a_prefix(a2):
    # {s, t} lacks e, the one prefix of e
    bad = Shadow(a2, [(0,), (1,)])
    with pytest.raises(ShadowViolation, match="contains no prefix"):
        project(bad, identity(a2))
    assert project(bad, from_word(a2, (0, 1))) == from_word(a2, (0,))


def test_verify_shadow_examples(right_angled, gprime_shadow, i2inf, a2):
    assert verify_shadow(gprime_shadow).status is VerdictStatus.SHADOW
    missing = Shadow(i2inf, [(), (0,)])
    verdict = verify_shadow(missing)
    assert verdict.status is VerdictStatus.NOT_SHADOW
    assert "generator" in verdict.reason
    whole = Shadow(a2, [el.word for el in ball(a2, 3)])
    assert verify_shadow(whole).status is VerdictStatus.SHADOW


def test_a_verdict_is_true_only_for_a_shadow():
    assert ShadowVerdict(VerdictStatus.SHADOW)
    assert not ShadowVerdict(VerdictStatus.NOT_SHADOW, reason="missing identity",
                             witness=("1",))
    assert not ShadowVerdict(VerdictStatus.NOT_SHADOW)


def test_verify_shadow_catches_missing_suffix(a2):
    # {e, s, t, st} lacks the suffix t of st? no: suffixes(st)={e,t,st}; use sts
    bad = Shadow(a2, [(), (0,), (1,), (0, 1, 0)])
    verdict = verify_shadow(bad)
    assert verdict.status is VerdictStatus.NOT_SHADOW
    assert "suffix" in verdict.reason


def test_verify_shadow_catches_missing_join(a2):
    # drop the top element sts = join(s, t) from the full group
    words = [(), (0,), (1,), (0, 1), (1, 0)]
    bad = Shadow(a2, words)
    verdict = verify_shadow(bad)
    assert verdict.status is VerdictStatus.NOT_SHADOW
    assert "join" in verdict.reason


def test_closure_examples(i2inf, a2, aff_c2):
    st = garside_closure(i2inf)
    assert sorted(st.words()) == ["1", "2", "e"]
    assert len(garside_closure(a2)) == 6
    assert len(garside_closure(aff_c2)) == 24


def test_closure_budget_is_enforced(monkeypatch):
    # the closure lies in L_0, which meets the budget when it is built, so
    # the system must be fresh: the session fixture caches its L_0
    monkeypatch.setattr(garside, "STATE_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match="state budget of 2$"):
        garside_closure(parse_coxeter_system("I2(inf)"))


def test_closure_contains_seeds_and_reports_shadow(aff_a2):
    seed = from_word(aff_a2, (0, 1))
    closure = garside_closure(aff_a2, seeds=[seed])
    assert seed in closure
    assert verify_shadow(closure).status is VerdictStatus.SHADOW
    # the recorded verdict is not evidence: check an explicit copy in full
    copy = Shadow(aff_a2, [el.word for el in closure.elements])
    assert verify_shadow(copy).status is VerdictStatus.SHADOW


@pytest.mark.parametrize("call", ["closure", "join", "project"])
def test_foreign_elements_are_rejected(aff_a2, a2, call):
    other = parse_coxeter_system("~A2")
    with pytest.raises(ValueError, match="different system"):
        if call == "closure":
            garside_closure(aff_a2, seeds=[from_word(other, (0, 1))])
        elif call == "join":  # would read 121 in A2
            join(from_word(a2, (0,)), from_word(other, (1,)))
        else:  # would read e
            project(garside_closure(a2), from_word(other, (2, 1)))


@pytest.mark.parametrize("spec", ["~A2", "~C2", "~G2", "triangle(3,3,4)"])
def test_join_decision_branches_agree(spec):
    # the join in L_0 and the certificate-plus-search reference
    sys = parse_coxeter_system(spec)
    low = low_universe(sys)
    cap = max(el.length for el in low)
    for u, v in itertools.combinations(low, 2):
        w = join(u, v)
        decided, by_search = search_join(u, v, cap)
        if w is not None:
            assert (decided, by_search) == (True, w)
        else:
            assert by_search is None


def _assert_join_matches_search(elements, cap):
    """Where the search decides a pair, the join agrees; where it hits the
    cap, a join found is an upper bound of both inputs."""
    for u, v in itertools.combinations(elements, 2):
        w = join(u, v)
        decided, by_search = search_join(u, v, cap)
        if decided:
            assert w == by_search
        elif w is not None:
            assert weak_leq(u, w) and weak_leq(v, w)


@pytest.mark.parametrize("spec, radius", [
    ("~A2", 4), ("~C2", 4), ("~G2", 4), ("triangle(2,3,7)", 4),
    ("triangle(4,4,4)", 4), ("I2(inf)", 4), ("~A3", 3)])
def test_join_matches_search_reference_on_balls(spec, radius):
    sys = parse_coxeter_system(spec)
    _assert_join_matches_search(ball(sys, radius), 2 * radius + 8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_join_matches_search_reference(sys):
    _assert_join_matches_search(ball(sys, 2), 8)


def _join_by_scan(universe, u, v):
    """The first element of the universe above u and v, or None."""
    merged = u.inv | v.inv
    return next((w for w in universe if not merged & ~w.inv), None)


@pytest.mark.parametrize("spec, level", [
    *(pytest.param(spec, 0, id=spec) for spec in [
        "~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "triangle(3,3,4)"]),
    pytest.param("~G2", 1, id="~G2-L_1")])
def test_universe_join_matches_scan(spec, level):
    # in L_1, the pairs with an input outside L_0, so decided in L_1
    sys = parse_coxeter_system(spec)
    low = low_universe(sys, level)
    lower = low_universe(sys, level - 1) if level else ()
    for u, v in itertools.combinations_with_replacement(low, 2):
        if u in lower and v in lower:
            continue
        w = join(u, v)
        expected = _join_by_scan(low, u, v)
        if expected is None:
            assert w is None
        else:
            assert w is expected


@pytest.mark.parametrize("spec, word, level, size", [
    ("~A2", (0, 1, 2, 0, 1, 2), 2, 40),
    ("~C2", (0, 1, 2, 1, 0, 1, 2), 3, 61),
    ("~G2", (0, 1, 2, 1, 2, 1, 0, 1, 2), 1, 84),
    ("triangle(3,3,4)", (0, 1, 2, 0, 1, 2, 0), 4, 27),
])
def test_seeded_closure_in_smallest_low_universe(spec, word, level, size):
    # a seed outside L_0 is closed in the smallest L_n that holds it
    sys = parse_coxeter_system(spec)
    seed = from_word(sys, word)
    assert seed not in low_universe(sys, level - 1)
    assert low_universe(sys, Shadow(sys, [word]).level) is low_universe(
        sys, level)
    closure = garside_closure(sys, seeds=[seed])
    assert seed in closure and len(closure) == size
    copy = Shadow(sys, [el.word for el in closure.elements])
    assert verify_shadow(copy).status is VerdictStatus.SHADOW


def _assert_closure_matches_pairwise(sys, seeds=()):
    closure = garside_closure(sys, seeds=seeds)
    reference = pairwise_closure(sys, seeds=seeds)
    assert closure.words() == reference.words()
    # the lower-cover pass admits exactly what the lowest-bit passes and
    # the N^1 test on the columns admit
    start = Shadow(sys, [(), *((s,) for s in range(sys.rank)),
                         *(el.word for el in seeds)])
    universe = low_universe(sys, start.level)
    inside = garside._close_in_universe(universe, start)
    assert inside == lowest_bit_closure_in_universe(universe, start)
    assert inside == n1_closure_in_universe(universe, start)


@pytest.mark.parametrize("spec", [
    "~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "~D4", "H3", "A4", "B4",
    "triangle(2,3,7)", "triangle(4,4,4)"])
def test_closure_matches_pairwise_reference_on_presets(spec):
    _assert_closure_matches_pairwise(parse_coxeter_system(spec))


def _shadow_calls(monkeypatch, name: str) -> list[tuple]:
    """The arguments, after the shadow, of every call of ``Shadow.<name>``,
    in a list the test reads."""
    calls, real = [], getattr(Shadow, name)

    def spying(shadow, *args):
        calls.append(args)
        return real(shadow, *args)

    monkeypatch.setattr(Shadow, name, spying)
    return calls


def _assert_small_columns_match_full(sys, seeds=()):
    """The closure and its shadow automaton make no ``_below`` call.  The
    Sigma_n scan of ``_below``, which ``join`` and ``project`` read, and
    every transition of the automaton, agree with the full-column
    reference."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _shadow_calls(mp, "_below")
        closure = garside_closure(sys, seeds=seeds)
        auto = build_shadow_automaton(closure)
    assert calls == []
    table = build_small_roots(sys, closure.level)
    assert closure._small == [table.small_part(el.inv) for el in closure]
    universe = low_universe(sys, Shadow(sys, closure._words).level)
    reference = FullColumnIndex(universe)
    for x, small in zip(universe.elements, universe._small):
        assert universe._below(small) == _mask_bits(reference.below(x.inv))
    reference = FullColumnIndex(closure)
    for q, x in enumerate(closure.elements):
        for s in range(sys.rank):
            if not x.inv >> s & 1:
                below = reference.below(mult_left(s, x).inv)
                assert (auto.moves[q * sys.rank + s]
                        == below.bit_length() - 1)


@pytest.mark.parametrize("spec", [
    "~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "~D4"])
def test_small_columns_match_full_columns_on_presets(spec):
    _assert_small_columns_match_full(parse_coxeter_system(spec))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_small_columns_match_full_columns(sys):
    # the closure of S, and one closed in L_1 when L_1 is larger than L_0
    _assert_small_columns_match_full(sys)
    low = low_universe(sys)
    outside = [el for el in low_universe(sys, 1) if el not in low]
    if outside:
        _assert_small_columns_match_full(sys, seeds=[outside[-1]])


def test_seeded_closure_matches_pairwise_reference(aff_g2):
    low = low_universe(aff_g2).elements
    seeds = [low[-1], low[len(low) // 2]]
    _assert_closure_matches_pairwise(aff_g2, seeds=seeds)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems(), st.data())
def test_closure_matches_pairwise_reference(sys, data):
    # seeds come from the 0-low elements outside the closure of S, if any,
    # and from the 1-low elements outside L_0, if any
    low = low_universe(sys)
    plain = pairwise_closure(sys)
    pool = [el for el in low if el not in plain] or low.elements
    picks = [data.draw(st.integers(0, len(pool) - 1))
             for _ in range(data.draw(st.integers(0, 2)))]
    seeds = [pool[i] for i in picks]
    outside = [el for el in low_universe(sys, 1) if el not in low]
    if outside and data.draw(st.booleans()):
        seeds.append(outside[data.draw(st.integers(0, len(outside) - 1))])
    _assert_closure_matches_pairwise(sys, seeds=seeds)


@pytest.mark.parametrize("spec", [
    "~A2", "~C2", "~G2", "~A3", "triangle(2,3,7)", "triangle(3,3,4)",
    "triangle(4,4,4)"])
def test_seeded_closure_in_low_one_matches_references(spec):
    # seeds from L_1 outside L_0: the last, and one from the middle
    sys = parse_coxeter_system(spec)
    low = low_universe(sys)
    outside = [el for el in low_universe(sys, 1) if el not in low]
    assert outside
    _assert_closure_matches_pairwise(sys, seeds=[outside[-1]])
    _assert_closure_matches_pairwise(sys, seeds=[outside[len(outside) // 2]])


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_projections_match_below_reference(monkeypatch, name, level):
    # pi_B on L_n for B = L_n, and for the closures of S and of the last
    # element of L_n when they lie in no smaller L_m
    sys = parse_coxeter_system(name)
    universe = low_universe(sys, level)
    closures = (garside_closure(sys),
                garside_closure(sys, seeds=[universe._element(-1)]))
    shadows = [universe, *(c for c in closures if c.level == level)]
    calls = _shadow_calls(monkeypatch, "_below")
    projections = [garside._projections(
        universe, {mask: i for i, mask in enumerate(shadow._small)})
        for shadow in shadows]
    assert calls == []  # every lower cover is found by its Sigma_n
    for shadow, got in zip(shadows, projections):
        assert got == below_projections(shadow, universe)


@pytest.mark.parametrize("spec", ["~C2", "~G2", "~C3", "triangle(2,3,7)"])
def test_lower_cover_lookup_miss_falls_back_to_below(monkeypatch, spec):
    # the first element of length 2 has no lookup in the copy: the lower
    # covers, the closure and the projections come out as on L_0
    sys = parse_coxeter_system(spec)
    universe = low_universe(sys)
    closure = garside_closure(sys)
    victim = sys.rank + 1
    assert len(universe._words[victim]) == 2
    copy = universe_missing(universe, victim)
    calls = _shadow_calls(monkeypatch, "_below")
    assert garside._lower_covers(copy) == garside._lower_covers(universe)
    assert calls and set(calls) == {(universe._small[victim],)}
    start = Shadow(sys, [(), *((s,) for s in range(sys.rank))])
    assert (garside._close_in_universe(copy, start)
            == garside._close_in_universe(universe, start)
            == n1_closure_in_universe(universe, start))
    member = {mask: i for i, mask in enumerate(closure._small)}
    assert (garside._projections(copy, member)
            == garside._projections(universe, member))


def test_stats_row_reads_no_columns(monkeypatch):
    # the closure of S decides its joins by the lower-cover pass alone: no
    # _below scan, and no join or project call; conj2 reads no L_n
    below = _shadow_calls(monkeypatch, "_below")
    decided = []
    for name in ("join", "project"):
        monkeypatch.setattr(garside, name,
                            lambda *args, name=name: decided.append(name))
    passes, real = [], garside._join_pass

    def spying(universe, *args):
        passes.append(universe)
        return real(universe, *args)

    monkeypatch.setattr(garside, "_join_pass", spying)
    sys = parse_coxeter_system("~C3")
    assert stats_row(sys).shadow_states == 317
    assert check_conjecture(sys, "conj2").numbers["a_min"] == 317
    assert below == decided == []
    assert passes and set(passes) == {low_universe(sys)}


def _assert_first_join_witness(shadow, witness):
    """u and v of the witness lie in the set and u v-join does not, and no
    join of two members outside the set comes earlier in U's order."""
    universe = low_universe(shadow.system,
                            Shadow(shadow.system, shadow._words).level)
    by_name = {str(el): el for el in universe}
    u, v, w = (by_name[name] for name in witness)
    assert u in shadow and v in shadow and w not in shadow
    assert join(u, v) == w
    ups = [up_set(universe, universe._index(el)) for el in shadow]
    outside = []
    for up_a, up_b in itertools.combinations(ups, 2):
        common = up_a & up_b
        if common:
            j = (common & -common).bit_length() - 1
            if universe.elements[j] not in shadow:
                outside.append(j)
    assert universe._index(w) == min(outside)


def _assert_verdict_matches_pairwise(shadow):
    verdict = verify_shadow(shadow)
    assert verdict == n1_verify_shadow(shadow)
    reference = pairwise_verify_shadow(shadow)
    assert verdict.status is reference.status
    assert verdict.reason == reference.reason
    if verdict.reason == "not closed under joins":
        _assert_first_join_witness(shadow, verdict.witness)
    else:
        assert verdict.witness == reference.witness
    return verdict


@pytest.mark.parametrize("spec, level", [
    ("~A2", 0), ("~C2", 0), ("~G2", 0), ("~A3", 0), ("~C3", 0), ("H3", 0),
    ("A4", 0), ("triangle(2,3,7)", 0), ("triangle(4,4,4)", 0), ("~A2", 1),
    ("~G2", 1), ("triangle(2,3,7)", 1)])
def test_verify_shadow_matches_pairwise_reference_on_closures(spec, level):
    # a copy of a closure, then copies with one element removed, from the
    # top down; at level 1 the closure is seeded with the last element of L_1
    sys = parse_coxeter_system(spec)
    seeds = [low_universe(sys, 1).elements[-1]] if level else []
    closure = garside_closure(sys, seeds=seeds)
    assert closure.level == level
    elements = [el.word for el in closure.elements]
    assert _assert_verdict_matches_pairwise(Shadow(sys, elements))
    step = max(1, len(elements) // 12)
    reasons = set()
    for k in range(len(elements) - 1, 0, -step):
        copy = Shadow(sys, elements[:k] + elements[k + 1:])
        reasons.add(_assert_verdict_matches_pairwise(copy).reason)
    assert "not closed under joins" in reasons


def test_join_witness_is_the_first_join_outside_the_set(aff_c2):
    # ~C2 without the top of its closure of S: the witness is the first
    # element of L_0 that is the join of two members and not a member
    closure = garside_closure(aff_c2)
    bad = Shadow(aff_c2, [el.word for el in closure.elements[:-1]])
    verdict = verify_shadow(bad)
    assert verdict.reason == "not closed under joins"
    _assert_first_join_witness(bad, verdict.witness)
    assert verdict.witness[2] == str(closure.elements[-1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems(), st.data())
def test_verify_shadow_matches_pairwise_reference(sys, data):
    # S and e with up to six elements of L_0 or L_1, closed under suffixes
    low = low_universe(sys, data.draw(st.integers(0, 1)))
    picks = data.draw(st.lists(st.integers(0, len(low) - 1), max_size=6))
    members = [identity(sys), *(generator(sys, s) for s in range(sys.rank)),
               *(low.elements[i] for i in picks)]
    todo = list(members)
    while todo:
        x = todo.pop()
        for s in x.descents_left:
            suffix = mult_left(s, x)
            if suffix not in members:
                members.append(suffix)
                todo.append(suffix)
    _assert_verdict_matches_pairwise(Shadow(sys, [el.word for el in members]))


def test_low_elements_examples(i2inf, aff_a2, a2):
    assert sorted(low_universe(i2inf).words()) == ["1", "2", "e"]
    assert len(low_universe(aff_a2)) == 16
    assert len(low_universe(a2)) == 6
    # I2(inf): st has the non-small inversion a_t + 2 a_s outside cone{a_s}
    table = build_small_roots(i2inf, 0)
    st_el = from_word(i2inf, (0, 1))
    big = next(rid for rid in _mask_bits(st_el.inv) if rid > 1)
    assert not cone_member(i2inf, big, [0])
    assert st_el not in low_universe(i2inf)


def _low_elements_by_cones(sys, level):
    """Inversion sets of the n-low elements, by Fourier-Motzkin cone tests.

    The same breadth-first search, but s*w is accepted iff every n-small
    root of w that s reflects out of the table lands in the cone over a_s
    and the reflected small roots that stay: every other root of N(s*w)
    outside the table is a combination of those.
    """
    table = build_small_roots(sys, level)
    nodes = table.nodes
    e = identity(sys)
    low, rejected = {e.inv}, set()
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            w_nodes = _mask_bits(table.small_part(w.inv))
            for s in range(sys.rank):
                if w.inv >> s & 1:
                    continue
                sw = mult_left(s, w)
                if sw.inv in low or sw.inv in rejected:
                    continue
                exited, gens = [], [s]
                for nid in w_nodes:
                    target = nodes[nid].theta[s]
                    if target == EXIT:
                        exited.append(sys.reflect_id(s, nodes[nid].rid)[1])
                    else:
                        assert target >= 0
                        gens.append(nodes[target].rid)
                if all(cone_member(sys, g, gens) for g in exited):
                    low.add(sw.inv)
                    nxt.append(sw)
                else:
                    rejected.add(sw.inv)
        frontier = nxt
    return low


def _assert_low_matches_cones(sys, level):
    low = low_elements(sys, level)
    assert {el.inv for el in low} == _low_elements_by_cones(sys, level)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("spec", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4",
    "G2", "H3", "H4", "I2(5)", "I2(inf)", "~A1", "~A2", "~A3", "~B3", "~C2",
    "~C3", "~G2", "triangle(2,3,7)", "triangle(3,3,4)", "triangle(4,4,4)",
    "triangle(3,3,inf)", "triangle(inf,2,inf)"])
def test_low_elements_match_cone_reference_on_presets(spec, level):
    _assert_low_matches_cones(parse_coxeter_system(spec), level)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coxeter_systems(), st.integers(0, 1))
def test_low_elements_match_cone_reference(sys, level):
    _assert_low_matches_cones(sys, level)


def _assert_search_data_matches(sys, level):
    """The small parts and suffix positions that low_elements records are
    those read off the inversion sets and found by ``mult_left``."""
    low = low_elements(sys, level)
    table = build_small_roots(sys, level)
    assert low._small == [table.small_part(el.inv) for el in low]
    offsets, targets = low._suffixes
    for i, x in enumerate(low):
        suffixes = [mult_left(s, x) for s in x.descents_left]
        assert sorted(targets[offsets[i]:offsets[i + 1]]) == sorted(
            low._index(el) for el in suffixes if el in low)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_low_elements_record_small_parts_and_suffixes(sys):
    _assert_search_data_matches(sys, 0)
    _assert_search_data_matches(sys, 1)


def _assert_search_matches_reference(sys, level):
    """The same words in the same order, the same Sigma_n and N^1 masks and
    the same suffix positions as the search that multiplies out every
    element; the elements built along the parents have those words."""
    low = low_elements(sys, level)
    words, small, n1, suffixes = reference_low_search(sys, level)
    assert low._words == words
    assert (low._small, low._n1, low._suffixes) == (small, n1, suffixes)
    assert {part.typecode for part in low._suffixes} == {"i"}  # 4 bytes
    assert low._element(len(low) - 1).word == words[-1]
    assert [el.word for el in low.elements] == words


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("spec", [
    "A1", "A3", "B4", "D4", "F4", "H3", "I2(inf)", "~A2", "~A3", "~B3",
    "~C2", "~C3", "~D4", "~G2", "triangle(2,3,7)", "triangle(3,3,4)",
    "triangle(4,4,4)", "triangle(3,3,inf)", "triangle(inf,2,inf)"])
def test_low_elements_match_reference_search_on_presets(spec, level):
    _assert_search_matches_reference(parse_coxeter_system(spec), level)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_low_elements_match_reference_search(sys):
    _assert_search_matches_reference(sys, 0)
    _assert_search_matches_reference(sys, 1)


@pytest.mark.parametrize("spec", ["~C3", "triangle(4,4,4)"])
def test_low_elements_and_closures_multiply_nothing(mult_left_calls, spec):
    # the search keeps words and masks, and a closure in a universe with
    # recorded suffixes reads them; only reading an element builds it
    sys = parse_coxeter_system(spec)
    for level in (0, 1):
        low_elements(sys, level)
    low0, low1 = low_universe(sys, 0), low_universe(sys, 1)
    assert garside_closure(sys).level == 0
    assert mult_left_calls == []
    seed = low1._element(len(low1) - 1)
    assert seed not in low0
    assert garside_closure(sys, seeds=[seed]).level == 1
    assert mult_left_calls == []


def test_verifying_an_explicit_copy_multiplies_nothing(mult_left_calls):
    # the suffix check reads the suffixes that L_0 recorded, and the join
    # pass finds no x: no member of the copy is built
    sys = parse_coxeter_system("~C4")
    closure = garside_closure(sys)
    copy = Shadow(sys, closure._words)
    assert len(copy) == 5860 and copy.verdict is None
    assert verify_shadow(copy).status is VerdictStatus.SHADOW
    assert mult_left_calls == []


@pytest.mark.parametrize("spec, level, radius", [
    ("~A2", 0, 6), ("~C2", 0, 6), ("~G2", 0, 8), ("~C2", 1, 10),
    ("~G2", 1, 14), ("triangle(2,3,7)", 0, 7), ("triangle(4,4,4)", 1, 6)])
def test_membership_reads_the_length(spec, level, radius):
    # a non-member w with the Sigma_n of its projection, a member, is not
    # in L_n: membership by Sigma_n alone would take it for the projection;
    # reading w's word gives its Sigma_n, and the same answer
    sys = parse_coxeter_system(spec)
    low = low_universe(sys, level)
    table = build_small_roots(sys, level)
    invs = {el.inv for el in low}
    outside = 0
    for w in ball(sys, radius):
        assert low._read(w.word) == (low._index(w), w.word)
        if w.inv in invs:
            assert w in low and low._element(low._index(w)) == w
            continue
        assert table.small_part(w.inv) == table.small_part(
            project(low, w).inv)
        assert w not in low
        outside += 1
    assert outside


def test_closure_needs_recorded_suffixes(aff_c2):
    universe = Shadow(aff_c2, [el.word for el in low_universe(aff_c2)])
    with pytest.raises(InternalInvariant, match="no recorded suffixes"):
        garside._close_in_universe(universe, [identity(aff_c2)])


def test_low_element_budget(tri33inf, monkeypatch):
    size = len(low_elements(tri33inf, 1))
    monkeypatch.setattr(garside, "STATE_BUDGET", size)
    assert len(low_elements(tri33inf, 1)) == size
    monkeypatch.setattr(garside, "STATE_BUDGET", size - 1)
    with pytest.raises(BudgetExceeded, match="^1-low elements outgrew the "
                       f"state budget of {size - 1}$"):
        low_elements(tri33inf, 1)


@pytest.mark.parametrize("name, h, r", AFFINE_CATALOG)
def test_state_budget_predicts_the_catalog_count(monkeypatch, name, h, r):
    # h is read off the table as |Sigma_0| / r; the catalog's (h+1)^r Shi
    # regions are admitted, and refused by a budget one smaller
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, 0)
    count = (h + 1) ** r
    monkeypatch.setattr(garside, "STATE_BUDGET", count)
    garside.check_state_budget(sys, table, 0)
    monkeypatch.setattr(garside, "STATE_BUDGET", count - 1)
    garside.check_state_budget(sys, table, 1)  # predicted at level 0 only
    message = (f"rank-{r + 1} has (h+1)^r = {h + 1}^{r} = {count:,} states "
               f"at level 0, over the state budget of {count - 1:,}")
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
        garside.check_state_budget(sys, table, 0)


class _JoinDecided(Exception):
    pass


@pytest.mark.parametrize("spec", ["~C2", "~G2", "triangle(2,3,7)"])
def test_recorded_verdict_decides_no_join(monkeypatch, spec):
    # the closure is a shadow by construction and L_n by theorem (and, for
    # n > 0, its suffix check); a copy of either as an explicit set is not
    sys = parse_coxeter_system(spec)
    closure = garside_closure(sys)
    low0, low1 = low_universe(sys, 0), low_universe(sys, 1)
    assert len(closure) < len(low0)

    def refuse(*args):
        raise _JoinDecided

    monkeypatch.setattr(garside, "_join_pass", refuse)
    checked = []
    real_check = garside.check_generated_and_suffix_closed

    def spy(shadow, *args):
        checked.append(shadow)
        return real_check(shadow, *args)

    monkeypatch.setattr(garside, "check_generated_and_suffix_closed", spy)
    for shadow in (closure, low0, low1):
        assert verify_shadow(shadow).status is VerdictStatus.SHADOW
        assert build_shadow_automaton(shadow).num_states == len(shadow)
    assert checked == []
    with pytest.raises(_JoinDecided):
        verify_shadow(Shadow(sys, [el.word for el in closure.elements]))
    # a copy of L_0 is checked in full, but no element of L_0 lies outside
    # it, so it has no join to test
    copy = Shadow(sys, [el.word for el in low0.elements])
    assert build_shadow_automaton(copy).num_states == len(low0)
    assert checked[-1] is copy


def test_low_universe_checks_suffix_closure(low_elements_without_a_suffix):
    sys = parse_coxeter_system("~G2")
    with pytest.raises(LowElementsNotShadow,
                       match=r"^1-low elements are not a Garside shadow "
                             r"\(not closed under suffixes: ") as exc:
        low_universe(sys, 1)
    assert exc.value.level == 1
    with pytest.raises(LowElementsNotShadow):  # nothing was cached
        join(from_word(sys, (0, 1, 2, 1, 2, 1, 0, 1, 2)), identity(sys))


def test_low_universe_reads_suffix_closure_off_recorded_suffixes(
        mult_left_calls):
    # neither the search nor the suffix check multiplies anything
    low = low_universe(parse_coxeter_system("~C3"), 1)
    assert len(low) == 2197
    assert mult_left_calls == []


@pytest.mark.parametrize("group", ["a2", "i2inf", "aff_a2", "aff_c2",
                                   "right_angled", "tri33inf"])
def test_low_elements_form_a_shadow(group, request):
    sys = request.getfixturevalue(group)
    low = low_elements(sys, 0)  # records no verdict: verified in full
    assert low.verdict is None
    assert verify_shadow(low).status is VerdictStatus.SHADOW


def test_parabolic_image_examples(right_angled, gprime_shadow):
    image = parabolic_image(gprime_shadow, (0, 1))
    assert sorted(image.words()) == ["1", "12", "2", "e"]
    meet = intersect_parabolic(gprime_shadow, (0, 1))
    assert sorted(meet.words()) == ["1", "2", "e"]
    full = parabolic_image(gprime_shadow, (0, 1, 2))
    assert {el.inv for el in full} == {el.inv for el in gprime_shadow}
    full2 = intersect_parabolic(gprime_shadow, (0, 1, 2))
    assert {el.inv for el in full2} == {el.inv for el in gprime_shadow}


def test_join_inversions_lie_in_cone_of_union(aff_a2):
    # N(u v-join) is contained in the cone over N(u) | N(v)
    elements = ball(aff_a2, 3)
    for u, v in itertools.combinations(elements, 2):
        w = join(u, v)
        if w is None:
            continue
        union = [aff_a2.root_coords(r) for r in _mask_bits(u.inv | v.inv)]
        for rid in _mask_bits(w.inv):
            assert cone_member(aff_a2, rid, union)
        assert not (u.inv | v.inv) & ~w.inv


def test_join_is_commutative_and_idempotent(a3):
    elements = ball(a3, 3)
    for u, v in itertools.combinations(elements, 2):
        j1 = join(u, v)
        j2 = join(v, u)
        assert j1 == j2
        assert join(u, u) == u
    # associativity on bounded triples
    for u, v, w in itertools.combinations(elements[:12], 3):
        left = join(join(u, v), w)
        right = join(u, join(v, w))
        assert left == right


@pytest.mark.parametrize("group,subset", [("a3", (0, 1)), ("a3", (0, 2)),
                                          ("right_angled", (0, 2))])
def test_restriction_compatibility_checker(group, subset, request):
    sys = request.getfixturevalue(group)
    sub_low = intersect_parabolic(low_universe(sys), subset)
    assert restriction_compatibility_check(sys, subset, sub_low)


# --- projection identity suites (sampled here; acceptance runs radius 6) ---

def _verified_shadows(sys):
    out = [garside_closure(sys), low_universe(sys)]
    return out


@pytest.mark.parametrize("group", ["a2", "i2inf", "aff_a2"])
def test_projection_identities(group, request):
    sys = request.getfixturevalue(group)
    elements = ball(sys, 4)
    for shadow in _verified_shadows(sys):
        for w in elements:
            pw = project(shadow, w)
            assert project(shadow, pw) == pw            # pi o pi = pi
            assert weak_leq(pw, w)                      # pi(w) <= w
            assert (pw == w) == (w in shadow)
            assert pw.descents_left == w.descents_left  # descent invariance
            for s in range(sys.rank):
                spw, sw = mult_left(s, pw), mult_left(s, w)
                assert weak_leq(spw, sw)                # s pi(w) <= s w
                if s not in w.descents_left:
                    assert project(shadow, sw) == project(shadow, spw)
        for u, w in itertools.combinations(elements, 2):
            if weak_leq(u, w):
                assert weak_leq(project(shadow, u), project(shadow, w))


@pytest.mark.parametrize("group", ["a2", "i2inf", "aff_a2"])
def test_projection_folds_over_reduced_products(group, request):
    sys = request.getfixturevalue(group)
    shadow = garside_closure(sys)
    for w in ball(sys, 5):
        for k in range(len(w.word) + 1):
            u_word, v_word = w.word[:k], w.word[k:]
            v = from_word(sys, v_word)
            uv = from_word(sys, u_word + tuple(project(shadow, v).word))
            assert project(shadow, uv) == project(shadow, w)


def test_projection_composes_through_nested_shadows(i2inf, aff_c2):
    # pi_C o pi_B = pi_C for C inside B
    big_i2 = Shadow(i2inf, [(), (0,), (1,), (0, 1), (1, 0)])
    small_i2 = garside_closure(i2inf)
    assert verify_shadow(big_i2).status is VerdictStatus.SHADOW
    for w in ball(i2inf, 6):
        assert (project(small_i2, project(big_i2, w))
                == project(small_i2, w))
    big = low_universe(aff_c2)
    small = garside_closure(aff_c2)
    assert all(b in big for b in small)
    for w in ball(aff_c2, 4):
        assert project(small, project(big, w)) == project(small, w)


@pytest.mark.parametrize("group,subset", [("a3", (0, 1)), ("right_angled", (0, 1)),
                                          ("aff_a2", (0, 2))])
def test_parabolic_projection_commutes(group, subset, request):
    from coxauto.elements import coset_split
    sys = request.getfixturevalue(group)
    shadow = garside_closure(sys)
    image = parabolic_image(shadow, subset)
    for w in ball(sys, 4):
        lhs = coset_split(project(shadow, w), subset)[0]
        rhs = project(image, coset_split(w, subset)[0])
        assert lhs == rhs


def test_parabolic_projection_counterexample(right_angled, gprime_shadow):
    """The coset projection does not always commute with shadow projection.

    For B = {e,s,t,u,su,tu,stu} and I = {s,t}: st lies in p_I(B) but its only
    preimage stu is not a prefix of st, so at w = st the two sides differ.
    The identity does hold whenever p_I(B) equals the intersection with W_I.
    """
    from coxauto.elements import coset_split
    subset = (0, 1)
    image = parabolic_image(gprime_shadow, subset)
    meet = intersect_parabolic(gprime_shadow, subset)
    assert {el.inv for el in image} != {el.inv for el in meet}
    st = from_word(right_angled, (0, 1))
    lhs = coset_split(project(gprime_shadow, st), subset)[0]
    rhs = project(image, coset_split(st, subset)[0])
    assert str(lhs) == "1" and str(rhs) == "12"
    assert lhs != rhs
