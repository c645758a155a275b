"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

from __future__ import annotations

import functools
import itertools
import time

import pytest

from conftest import (AFFINE_H_R, accepted_words,
                      assert_dominance_matches_affine_oracle,
                      assert_dominated_sets_match_recount, ball,
                      canonical_witnesses, projection_state_map)
from coxauto import parse_coxeter_system
from coxauto.automata import (MorphismVerdict, build_canonical_automaton,
                              build_shadow_automaton, check_morphism,
                              isomorphic, minimize, restrict_letters)
from coxauto.elements import (coset_split, from_word, mult_left,
                              reduced_words, weak_leq)
from coxauto.garside import (Shadow, VerdictStatus, garside_closure,
                             intersect_parabolic, low_elements, parabolic_image,
                             project, shadow_in_subsystem, verify_shadow)
from coxauto.smallroots import build_small_roots, spherical_analysis


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}", flush=True)
                raise
            print(f"ACCEPTANCE {number} PASS: {description}", flush=True)
        return run
    return wrap


class Bundle:
    """Lazily computed artifacts for one test system."""

    def __init__(self, spec: str):
        self.spec = spec
        self.system = parse_coxeter_system(spec)

    @functools.cached_property
    def table0(self):
        return build_small_roots(self.system, 0)

    @functools.cached_property
    def smallest(self):
        return garside_closure(self.system)

    @functools.cached_property
    def low0(self):
        return low_elements(self.system, 0)

    @functools.cached_property
    def auto_smallest(self):
        return build_shadow_automaton(self.smallest)

    @functools.cached_property
    def auto_low(self):
        return build_shadow_automaton(self.low0)

    @functools.cached_property
    def canonical0(self):
        auto, _ = build_canonical_automaton(self.system, 0)
        return auto, canonical_witnesses(auto, self.system)

    @functools.cached_property
    def canonical1(self):
        auto, _ = build_canonical_automaton(self.system, 1)
        return auto, canonical_witnesses(auto, self.system)

    def all_automata(self):
        a0, _ = self.canonical0
        a1, _ = self.canonical1
        autos = [self.auto_smallest, self.auto_low, a0, a1]
        autos.extend([minimize(a) for a in list(autos)])
        return autos


@pytest.fixture(scope="module")
def bundles():
    cache: dict[str, Bundle] = {}

    def get(spec: str) -> Bundle:
        if spec not in cache:
            cache[spec] = Bundle(spec)
        return cache[spec]

    return get


LANGUAGE_SYSTEMS = ["A2", "B2", "A3", "I2(inf)", "~A2", "~C2",
                    "triangle(inf,2,inf)", "triangle(3,3,inf)"]

EVIDENCE = {
    "~A2": (16, 16, 16, 6, 6),
    "~C2": (25, 24, 24, 8, 7),
    "~G2": (49, 41, 41, 12, 8),
    "~A3": (125, 125, 125, 12, 12),
    "~C3": (343, 317, 317, 18, 15),
    "~B3": (343, 315, 315, 18, 15),
}


@criterion(1, "evidence table reproduced exactly for the six affine groups")
def test_criterion_1_table_reproduction(bundles):
    for name, expected in EVIDENCE.items():
        start = time.monotonic()
        b = bundles(name)
        a0, _ = b.canonical0
        amin = minimize(a0)
        sph, _ = spherical_analysis(b.table0)
        got = (a0.num_states, b.auto_smallest.num_states, amin.num_states,
               len(b.table0), len(sph))
        elapsed = time.monotonic() - start
        assert got == expected, f"{name}: {got} != {expected}"
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"


@criterion(2, "affine formulas |A_0| = (h+1)^r and |Sigma| = r h")
def test_criterion_2_affine_formulas(bundles):
    for name in EVIDENCE:
        b = bundles(name)
        h, r = AFFINE_H_R[name]
        a0, _ = b.canonical0
        assert a0.num_states == (h + 1) ** r
        assert len(b.table0) == r * h


@criterion(3, "affine D5 stretch: 9^5 canonical states minimize to 58965")
def test_criterion_3_stretch():
    start = time.monotonic()
    sys = parse_coxeter_system("~D5")
    assert len(build_small_roots(sys, 0)) == 5 * 8  # r h, with h = 8
    auto, _ = build_canonical_automaton(sys, 0)
    assert auto.num_states == 9 ** 5 == 59049
    assert minimize(auto).num_states == 58965
    assert time.monotonic() - start < 600


@criterion(4, "rank-3 non-minimality witness with exact root arithmetic")
def test_criterion_4_rank3_witness(tri36):
    table = build_small_roots(tri36, 0)
    _, sigma_eq_sph = spherical_analysis(table)
    assert sigma_eq_sph is False
    ctx = tri36.ctx
    c_m = 2 * ctx.cos_pi_over(3)
    c_p = 2 * ctx.cos_pi_over(6)
    # alpha = us(a_t) = a_s + a_t + sqrt(3) a_u, small but not spherical
    alpha = (ctx.one, ctx.one, c_p)
    image = tri36.reflect_coords(0, tri36.reflect_coords(2, tri36.root_coords(1)))
    assert image == alpha
    rid = tri36.intern_root(alpha)
    assert rid in table.node_by_rid
    node = table.nodes[table.node_by_rid[rid]]
    assert node.spherical is False
    # reflecting by t adds (c_m^2 + c_p^2 - 2) a_t, exactly 2 a_t here, and
    # the image leaves the small-root table; the often-quoted constant
    # c_m^2 + c_p^2 - 1 is off by one, which exact arithmetic refutes
    coeff_true = c_m * c_m + c_p * c_p - 2
    assert coeff_true.as_rational() == 2
    talpha = tri36.reflect_coords(1, alpha)
    assert talpha == (alpha[0], alpha[1] + coeff_true, alpha[2])
    off_by_one = c_m * c_m + c_p * c_p - 1
    assert talpha != (alpha[0], alpha[1] + off_by_one, alpha[2])
    assert tri36.intern_root(talpha) not in table.node_by_rid
    # the two states read by su and tsu are distinct and merged by minimize
    auto, _ = build_canonical_automaton(tri36, 0)
    amin = minimize(auto)
    assert amin.num_states < auto.num_states
    q1, q2 = auto.read((0, 2)), auto.read((1, 0, 2))
    assert q1 is not None and q2 is not None and q1 != q2
    assert amin.state_map[q1] == amin.state_map[q2]


@criterion(5, "all automata accept exactly the reduced words up to length 8")
def test_criterion_5_language_correctness(bundles):
    start = time.monotonic()
    for spec in LANGUAGE_SYSTEMS:
        b = bundles(spec)
        oracle = {w.word for level in reduced_words(b.system, 8) for w in level}
        oracle_counts = [0] * 9
        for w in oracle:
            oracle_counts[len(w)] += 1
        for auto in b.all_automata():
            assert accepted_words(auto, 8) == oracle, (spec, auto.kind)
            assert auto.counts_by_length(8) == oracle_counts, (spec, auto.kind)
    assert time.monotonic() - start < 300


@criterion(6, "morphism and parabolic-restriction suite")
def test_criterion_6_morphisms(bundles):
    # explicit shadow inclusion in the infinite dihedral group
    i2 = bundles("I2(inf)")
    big = Shadow(i2.system, [(), (0,), (1,), (0, 1), (1, 0)])
    assert verify_shadow(big).status is VerdictStatus.SHADOW
    a_big = build_shadow_automaton(big)
    f = projection_state_map(a_big.payloads, i2.smallest, i2.auto_smallest)
    assert (check_morphism(f, a_big, i2.auto_smallest).verdict
            is MorphismVerdict.TOTALLY_SURJECTIVE)

    for spec in LANGUAGE_SYSTEMS:
        b = bundles(spec)
        # pi_{S~}: A_{L_0} -> A_{S~} (shadow inclusion S~ inside L_0)
        assert all(el in b.low0 for el in b.smallest)
        f = projection_state_map(b.auto_low.payloads, b.smallest,
                                 b.auto_smallest)
        assert (check_morphism(f, b.auto_low, b.auto_smallest).verdict
                is MorphismVerdict.TOTALLY_SURJECTIVE), spec
        # pi_0: A_0 -> A_{L_0} and the compositions A_n -> A_{S~}
        a0, wit0 = b.canonical0
        f = projection_state_map(wit0, b.low0, b.auto_low)
        assert (check_morphism(f, a0, b.auto_low).verdict
                is MorphismVerdict.TOTALLY_SURJECTIVE), spec
        for auto, wit in (b.canonical0, b.canonical1):
            f = projection_state_map(wit, b.smallest, b.auto_smallest)
            assert (check_morphism(f, auto, b.auto_smallest).verdict
                    is MorphismVerdict.TOTALLY_SURJECTIVE), spec

    # Parabolic restriction and projection, on every proper subset.  The
    # coset projection morphism is only claimed where p_I(B) and the
    # intersection with W_I agree; the commuting-pair shadow with I = {s,t}
    # is a genuine counterexample otherwise, pinned in the garside tests.
    gp = bundles("triangle(inf,2,inf)")
    paper_shadow = Shadow(gp.system, [(), (0,), (1,), (2,), (0, 2), (1, 2),
                                      (0, 1, 2)])
    known_failures = {("triangle(inf,2,inf)", "explicit", (0, 1))}
    for spec, shadows in (("A3", None), ("~A2", None), ("I2(inf)", None),
                          ("triangle(inf,2,inf)", [paper_shadow])):
        b = bundles(spec)
        shadows = shadows or []
        shadows.append(b.smallest)
        rank = b.system.rank
        subsets = [tuple(sub) for r in range(1, rank)
                   for sub in itertools.combinations(range(rank), r)]
        for shadow in shadows:
            auto = build_shadow_automaton(shadow)
            for subset in subsets:
                # restriction agrees with the intersected shadow's automaton
                restricted = restrict_letters(auto, subset, trim=True)
                inner = shadow_in_subsystem(
                    intersect_parabolic(shadow, subset), subset)
                inner_auto = build_shadow_automaton(inner)
                assert isomorphic(restricted, inner_auto), (spec, subset)
                # p_I induces a total surjection onto the image's automaton
                source = restrict_letters(auto, subset, trim=False)
                image = shadow_in_subsystem(
                    parabolic_image(shadow, subset), subset)
                target = build_shadow_automaton(image)
                sub, letter_map = b.system.subsystem(subset)
                index = {el.inv: i for i, el in enumerate(target.payloads)}
                f = []
                for el in auto.payloads:
                    word = tuple(letter_map[s]
                                 for s in coset_split(el, subset)[0].word)
                    f.append(index[from_word(sub, word).inv])
                verdict = check_morphism(f, source, target).verdict
                if (spec, shadow.provenance, subset) in known_failures:
                    assert verdict is MorphismVerdict.NOT_MORPHISM, (spec, subset)
                else:
                    assert verdict is MorphismVerdict.TOTALLY_SURJECTIVE, (
                        spec, subset)


@criterion(7, "projection identities hold for every element of length <= 6")
def test_criterion_7_projection_identities(bundles):
    i2 = bundles("I2(inf)")
    gp = bundles("triangle(inf,2,inf)")
    extra = {
        "I2(inf)": [Shadow(i2.system, [(), (0,), (1,), (0, 1), (1, 0)])],
        "triangle(inf,2,inf)": [Shadow(gp.system,
                                       [(), (0,), (1,), (2,), (0, 2), (1, 2),
                                        (0, 1, 2)])],
    }
    for spec in LANGUAGE_SYSTEMS:
        b = bundles(spec)
        sys = b.system
        shadows = [b.smallest, b.low0] + extra.get(spec, [])
        for shadow in shadows:  # explicit copies: no recorded verdict
            copy = Shadow(sys, [el.word for el in shadow.elements])
            assert verify_shadow(copy).status is VerdictStatus.SHADOW, spec
        elements = ball(sys, 6)
        for shadow in shadows:
            proj = {w.inv: project(shadow, w) for w in elements}
            for w in elements:
                pw = proj[w.inv]
                assert proj[pw.inv] == pw
                assert weak_leq(pw, w)
                assert (pw.inv == w.inv) == (w in shadow)
                assert pw.descents_left == w.descents_left
                for s in range(sys.rank):
                    sw = mult_left(s, w)
                    assert weak_leq(mult_left(s, pw), sw)
                    if s not in w.descents_left:
                        assert project(shadow, sw) == project(
                            shadow, mult_left(s, pw))
                # Cor Proj(b): pi(u pi(v)) = pi(uv) over every reduced split
                for k in range(w.length + 1):
                    v = from_word(sys, w.word[k:])
                    shortcut = from_word(
                        sys, w.word[:k] + proj[v.inv].word)
                    assert project(shadow, shortcut) == pw
            for u, w in itertools.combinations(elements, 2):
                if weak_leq(u, w):
                    assert weak_leq(proj[u.inv], proj[w.inv])
        # Prop Compo with C = S~ inside B = L_0
        for w in elements:
            assert (project(b.smallest, project(b.low0, w))
                    == project(b.smallest, w))
        # Prop ProjParabolic(b) on every proper subset
        rank = sys.rank
        for r in range(1, rank):
            for subset in itertools.combinations(range(rank), r):
                image = parabolic_image(b.smallest, subset)
                for w in ball(sys, 4):
                    lhs = coset_split(project(b.smallest, w), subset)[0]
                    rhs = project(image, coset_split(w, subset)[0])
                    assert lhs == rhs, (spec, subset)


@criterion(8, "dominance criterion matches the affine oracle and recounts")
def test_criterion_8_dominance(bundles):
    for name in ("~A2", "~C2", "~G2"):
        assert_dominance_matches_affine_oracle(bundles(name).system)
    for spec in ("~A2", "~C2", "~G2", "A3", "B2", "I2(inf)",
                 "triangle(3,2,6)", "triangle(3,3,inf)"):
        sys = bundles(spec).system
        for level in (0, 1, 2):
            if len(build_small_roots(sys, level)) <= 50:
                assert_dominated_sets_match_recount(sys, level)


@criterion(9, "finite groups: S~ = W, canonical = shadow automaton = minimal")
def test_criterion_9_finite_theorems(bundles):
    expected_orders = {"A2": 6, "A3": 24, "B3": 48, "H3": 120}
    for name, order in expected_orders.items():
        b = bundles(name)
        whole = ball(b.system, 4 * b.system.rank * b.system.rank)
        assert len(whole) == order
        assert {el.inv for el in b.smallest} == {el.inv for el in whole}
        a0, _ = b.canonical0
        assert isomorphic(a0, b.auto_smallest)
        amin = minimize(a0)
        assert amin.num_states == a0.num_states == order


@criterion(10, "smallest Garside shadows: {e,s,t} and the 24-element one")
def test_criterion_10_smallest_shadows(bundles):
    i2 = bundles("I2(inf)")
    assert sorted(i2.smallest.words()) == ["1", "2", "e"]
    c2 = bundles("~C2")
    assert len(c2.smallest) == 24
