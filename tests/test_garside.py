from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cone_member, coxeter_systems, pairwise_closure
from coxauto import garside, parse_coxeter_system
from coxauto.automata import build_shadow_automaton
from coxauto.elements import (_mask_bits, ball, from_word, identity, mult_left,
                              mult_right, weak_leq)
from coxauto.errors import BudgetExceeded, ShadowViolation
from coxauto.garside import (JoinEngine, Shadow, VerdictStatus, _Decision,
                             garside_closure, join, low_elements, low_universe,
                             intersect_parabolic, parabolic_image, project,
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
    assert join(u, e, 4).element == u
    s, t = from_word(a2, (0,)), from_word(a2, (1,))
    expected = _brute_force_join(a2, s, t, 3)
    got = join(s, t, 3).element
    assert got == expected and got.length == 3  # the long element sts
    si, ti = from_word(i2inf, (0,)), from_word(i2inf, (1,))
    result = join(si, ti, 12)
    assert result.element is None and result.cap == 12


def test_join_result_is_least_upper_bound(aff_a2):
    elements = ball(aff_a2, 3)
    for u, v in itertools.combinations(elements, 2):
        result = join(u, v, 10)
        brute = _brute_force_join(aff_a2, u, v, 10)
        assert result.element == brute
        if result.element is not None:
            w = result.element
            assert weak_leq(u, w) and weak_leq(v, w)


def test_join_requires_reasonable_cap(a2):
    with pytest.raises(ValueError):
        join(from_word(a2, (0, 1)), identity(a2), 1)


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


@pytest.mark.parametrize("spec",
                         ["~A2", "~C2", "~G2", "~C3", "A3", "B3", "H3"])
def test_shadow_automaton_projections_match_scan(spec):
    sys = parse_coxeter_system(spec)
    shadow = garside_closure(sys)
    auto = build_shadow_automaton(shadow, assume_verified=True)
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
    assert st.cap_stable
    assert len(garside_closure(a2)) == 6
    c2_shadow = garside_closure(aff_c2)
    assert len(c2_shadow) == 24 and c2_shadow.cap_stable


def test_closure_budget_is_enforced(i2inf, monkeypatch):
    monkeypatch.setattr(garside, "STATE_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        garside_closure(i2inf)


def test_closure_contains_seeds_and_reports_shadow(aff_a2):
    seed = from_word(aff_a2, (0, 1))
    closure = garside_closure(aff_a2, seeds=[seed])
    assert seed in closure
    assert verify_shadow(closure).status is VerdictStatus.SHADOW


def test_closure_rejects_foreign_seeds(aff_a2):
    other = parse_coxeter_system("~A2")
    with pytest.raises(ValueError, match="different system"):
        garside_closure(aff_a2, seeds=[from_word(other, (0, 1))])


@pytest.mark.parametrize("spec", ["~A2", "~C2", "~G2", "triangle(3,3,4)"])
def test_join_decision_branches_agree(spec):
    # the universe scan and the certificate-plus-search branch of decide
    sys = parse_coxeter_system(spec)
    low = low_universe(sys)
    cap = max(el.length for el in low)
    scan, search = JoinEngine(cap, low), JoinEngine(cap)
    for u, v in itertools.combinations(low, 2):
        by_scan, by_search = scan.decide(u, v), search.decide(u, v)
        if by_scan[0] is _Decision.FOUND:
            assert by_search == by_scan
        else:
            assert by_scan == (_Decision.NO_JOIN, None)
            assert by_search[0] is not _Decision.FOUND


def _join_by_scan(universe, u, v):
    """The first element of the universe above u and v, or None."""
    merged = u.inv | v.inv
    return next((w for w in universe if not merged & ~w.inv), None)


@pytest.mark.parametrize("spec", ["~A2", "~C2", "~G2", "~A3", "~C3", "~B3",
                                  "triangle(3,3,4)"])
def test_universe_join_matches_scan(spec):
    sys = parse_coxeter_system(spec)
    low = low_universe(sys)
    engine = JoinEngine(0, low)
    for u, v in itertools.combinations_with_replacement(low, 2):
        decision, w = engine.decide(u, v)
        expected = _join_by_scan(low, u, v)
        if expected is None:
            assert (decision, w) == (_Decision.NO_JOIN, None)
        else:
            assert decision is _Decision.FOUND and w is expected


@pytest.mark.parametrize("spec, word, cap, size, cap_stable", [
    ("~A2", (0, 1, 2, 0, 1, 2), None, 40, True),
    ("~A2", (0, 1, 2, 0, 1, 2), 6, 40, False),
    ("~C2", (0, 1, 2, 1, 0, 1, 2), None, 61, True),
    ("~C2", (0, 1, 2, 1, 0, 1, 2), 7, 58, False),
    ("~G2", (0, 1, 2, 1, 2, 1, 0, 1, 2), 9, 71, False),
    ("triangle(3,3,4)", (0, 1, 2, 0, 1, 2, 0), None, 27, True),
])
def test_seeded_closure_by_search(spec, word, cap, size, cap_stable):
    # seeds outside L_0 send every join through the capped search, and the
    # small caps exercise the cap + 4 retry
    sys = parse_coxeter_system(spec)
    seed = from_word(sys, word)
    assert seed not in low_universe(sys)
    closure = garside_closure(sys, seeds=[seed], cap=cap)
    assert seed in closure
    assert (len(closure), closure.cap_stable) == (size, cap_stable)
    if cap_stable:
        assert verify_shadow(closure).status is VerdictStatus.SHADOW


def _assert_closure_matches_pairwise(sys, seeds=(), cap=None):
    closure = garside_closure(sys, seeds=seeds, cap=cap)
    reference = pairwise_closure(sys, seeds=seeds, cap=cap)
    assert closure.words() == reference.words()
    assert (closure.cap_stable, closure.cap) == (reference.cap_stable,
                                                 reference.cap)


@pytest.mark.parametrize("spec", [
    "~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "~D4", "H3", "A4", "B4",
    "triangle(2,3,7)", "triangle(4,4,4)"])
def test_closure_matches_pairwise_reference_on_presets(spec):
    _assert_closure_matches_pairwise(parse_coxeter_system(spec))


def test_seeded_closure_matches_pairwise_reference(aff_g2):
    low = low_universe(aff_g2).elements
    seeds = [low[-1], low[len(low) // 2]]
    _assert_closure_matches_pairwise(aff_g2, seeds=seeds, cap=5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coxeter_systems(), st.data())
def test_closure_matches_pairwise_reference(sys, data):
    # seeds come from the 0-low elements outside the closure of S, if any
    low = low_universe(sys)
    plain = pairwise_closure(sys)
    pool = [el for el in low if el not in plain] or low.elements
    picks = [data.draw(st.integers(0, len(pool) - 1))
             for _ in range(data.draw(st.integers(0, 2)))]
    _assert_closure_matches_pairwise(sys, seeds=[pool[i] for i in picks])


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
            w_nodes = table.small_part(w.inv)
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


def test_low_element_budget(tri33inf, monkeypatch):
    size = len(low_elements(tri33inf, 1))
    monkeypatch.setattr(garside, "STATE_BUDGET", size)
    assert len(low_elements(tri33inf, 1)) == size
    monkeypatch.setattr(garside, "STATE_BUDGET", size - 1)
    with pytest.raises(BudgetExceeded, match="^1-low elements outgrew the "
                       f"state budget of {size - 1}$"):
        low_elements(tri33inf, 1)


@pytest.mark.parametrize("group", ["a2", "i2inf", "aff_a2", "aff_c2",
                                   "right_angled", "tri33inf"])
def test_low_elements_form_a_shadow(group, request):
    sys = request.getfixturevalue(group)
    low = low_universe(sys)
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
        result = join(u, v, 10)
        if result.element is None:
            continue
        union = [aff_a2.root_coords(r) for r in _mask_bits(u.inv | v.inv)]
        for rid in _mask_bits(result.element.inv):
            assert cone_member(aff_a2, rid, union)
        assert not (u.inv | v.inv) & ~result.element.inv


def test_join_is_commutative_and_idempotent(a3):
    elements = ball(a3, 3)
    for u, v in itertools.combinations(elements, 2):
        j1 = join(u, v, 8).element
        j2 = join(v, u, 8).element
        assert j1 == j2
        assert join(u, u, 8).element == u
    # associativity on bounded triples
    for u, v, w in itertools.combinations(elements[:12], 3):
        left = join(join(u, v, 8).element, w, 8).element
        right = join(u, join(v, w, 8).element, 8).element
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
