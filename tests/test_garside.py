from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FullColumnIndex, cone_member, coxeter_systems,
                      pairwise_closure, search_join)
from coxauto import garside, parse_coxeter_system
from coxauto.automata import build_shadow_automaton
from coxauto.elements import (_mask_bits, ball, from_word, identity, mult_left,
                              weak_leq)
from coxauto.errors import (BudgetExceeded, InternalInvariant,
                            LowElementsNotShadow, ShadowViolation)
from coxauto.garside import (Shadow, VerdictStatus, garside_closure, join,
                             low_elements, low_universe, intersect_parabolic,
                             parabolic_image, project,
                             restriction_compatibility_check,
                             smallest_low_universe, verify_shadow)
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
    return Shadow(right_angled,
                  [from_word(right_angled, w) for w in words])


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
                assert auto.payloads[auto.delta[q][s]] is expected


def test_project_rejects_non_join_closed_set(a2):
    # both s and t are longest prefixes of sts inside {e, s, t}
    bad = Shadow(a2, [from_word(a2, w) for w in [(), (0,), (1,)]])
    with pytest.raises(ShadowViolation):
        project(bad, from_word(a2, (0, 1, 0)))


def test_verify_shadow_examples(right_angled, gprime_shadow, i2inf, a2):
    assert verify_shadow(gprime_shadow).status is VerdictStatus.SHADOW
    missing = Shadow(i2inf, [identity(i2inf), from_word(i2inf, (0,))])
    verdict = verify_shadow(missing)
    assert verdict.status is VerdictStatus.NOT_SHADOW
    assert "generator" in verdict.reason
    whole = Shadow(a2, ball(a2, 3))
    assert verify_shadow(whole).status is VerdictStatus.SHADOW


def test_verify_shadow_catches_missing_suffix(a2):
    # {e, s, t, st} lacks the suffix t of st? no: suffixes(st)={e,t,st}; use sts
    bad = Shadow(a2, [from_word(a2, w) for w in [(), (0,), (1,), (0, 1, 0)]])
    verdict = verify_shadow(bad)
    assert verdict.status is VerdictStatus.NOT_SHADOW
    assert "suffix" in verdict.reason


def test_verify_shadow_catches_missing_join(a2):
    # drop the top element sts = join(s, t) from the full group
    words = [(), (0,), (1,), (0, 1), (1, 0)]
    bad = Shadow(a2, [from_word(a2, w) for w in words])
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
    copy = Shadow(aff_a2, closure.elements)
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


@pytest.mark.parametrize("spec", ["~A2", "~C2", "~G2", "~A3", "~C3", "~B3",
                                  "triangle(3,3,4)"])
def test_universe_join_matches_scan(spec):
    sys = parse_coxeter_system(spec)
    low = low_universe(sys)
    for u, v in itertools.combinations_with_replacement(low, 2):
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
    assert smallest_low_universe(sys, [seed]) is low_universe(sys, level)
    closure = garside_closure(sys, seeds=[seed])
    assert seed in closure and len(closure) == size
    copy = Shadow(sys, closure.elements)
    assert verify_shadow(copy).status is VerdictStatus.SHADOW


def _assert_closure_matches_pairwise(sys, seeds=()):
    closure = garside_closure(sys, seeds=seeds)
    reference = pairwise_closure(sys, seeds=seeds)
    assert closure.words() == reference.words()


@pytest.mark.parametrize("spec", [
    "~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "~D4", "H3", "A4", "B4",
    "triangle(2,3,7)", "triangle(4,4,4)"])
def test_closure_matches_pairwise_reference_on_presets(spec):
    _assert_closure_matches_pairwise(parse_coxeter_system(spec))


def _assert_small_columns_match_full(sys, seeds=()):
    """Every ``_below`` of the closure passes, and every transition of the
    closure's shadow automaton, agree with the full-column reference."""
    calls = []
    real = Shadow._below

    def spy(shadow, small):
        below = real(shadow, small)
        calls.append((shadow, small, below))
        return below

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Shadow, "_below", spy)
        closure = garside_closure(sys, seeds=seeds)
    table = build_small_roots(sys, closure.level)
    assert closure._root_index()[1] == [table.small_part(el.inv)
                                        for el in closure]
    universe = smallest_low_universe(sys, closure)
    by_small = dict(zip(universe._root_index()[1], universe.elements))
    reference = FullColumnIndex(universe)
    for shadow, small, below in calls:
        assert shadow is universe
        assert below == reference.below(by_small[small].inv)
    auto = build_shadow_automaton(closure)
    reference = FullColumnIndex(closure)
    for q, x in enumerate(closure.elements):
        for s in range(sys.rank):
            if not x.inv >> s & 1:
                below = reference.below(mult_left(s, x).inv)
                assert auto.delta[q][s] == below.bit_length() - 1
    return len(calls)


@pytest.mark.parametrize("spec", [
    "~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "~D4"])
def test_small_columns_match_full_columns_on_presets(spec):
    assert _assert_small_columns_match_full(parse_coxeter_system(spec))


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
    assert low._root_index()[1] == [table.small_part(el.inv) for el in low]
    offsets, targets = low._suffixes
    for i, x in enumerate(low):
        suffixes = [mult_left(s, x) for s in x.descents_left]
        assert sorted(targets[offsets[i]:offsets[i + 1]]) == sorted(
            low._pos[el.inv] for el in suffixes if el in low)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems())
def test_low_elements_record_small_parts_and_suffixes(sys):
    _assert_search_data_matches(sys, 0)
    _assert_search_data_matches(sys, 1)


@pytest.mark.parametrize("spec", ["~C3", "triangle(4,4,4)"])
def test_mult_left_only_for_found_low_elements(monkeypatch, spec):
    # the search multiplies out each element it finds once, and a closure
    # in a universe with recorded suffixes multiplies nothing
    sys = parse_coxeter_system(spec)
    calls = []
    real = garside.mult_left

    def counting(s, w):
        calls.append(s)
        return real(s, w)

    monkeypatch.setattr(garside, "mult_left", counting)
    for level in (0, 1):
        calls.clear()
        assert len(low_elements(sys, level)) - 1 == len(calls)
    low0, low1 = low_universe(sys, 0), low_universe(sys, 1)
    seed = next(el for el in low1 if el not in low0)
    calls.clear()
    assert garside_closure(sys).level == 0
    assert garside_closure(sys, seeds=[seed]).level == 1
    assert calls == []


def test_closure_needs_recorded_suffixes(aff_c2):
    universe = Shadow(aff_c2, low_universe(aff_c2).elements, level=0)
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


class _JoinDecided(Exception):
    pass


@pytest.mark.parametrize("spec", ["~C2", "~G2", "triangle(2,3,7)"])
def test_recorded_verdict_decides_no_join(monkeypatch, spec):
    # the closure is a shadow by construction and L_n by theorem (and, for
    # n > 0, its suffix check); a copy of either as an explicit set is not
    sys = parse_coxeter_system(spec)
    closure = garside_closure(sys)
    low0, low1 = low_universe(sys, 0), low_universe(sys, 1)

    def refuse(*args):
        raise _JoinDecided

    monkeypatch.setattr(garside, "_join_in", refuse)
    for shadow in (closure, low0, low1):
        assert verify_shadow(shadow).status is VerdictStatus.SHADOW
        assert build_shadow_automaton(shadow).num_states == len(shadow)
    with pytest.raises(_JoinDecided):
        verify_shadow(Shadow(sys, closure.elements))
    with pytest.raises(_JoinDecided):
        build_shadow_automaton(Shadow(sys, low0.elements))


def test_low_universe_checks_suffix_closure(low_elements_without_a_suffix):
    sys = parse_coxeter_system("~G2")
    with pytest.raises(LowElementsNotShadow,
                       match=r"^1-low elements are not a Garside shadow "
                             r"\(not closed under suffixes: ") as exc:
        low_universe(sys, 1)
    assert exc.value.level == 1
    with pytest.raises(LowElementsNotShadow):  # nothing was cached
        join(from_word(sys, (0, 1, 2, 1, 2, 1, 0, 1, 2)), identity(sys))


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
    big_i2 = Shadow(i2inf, [from_word(i2inf, w)
                            for w in [(), (0,), (1,), (0, 1), (1, 0)]])
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
