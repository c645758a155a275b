from __future__ import annotations

import itertools
import math
import random

import mpmath
import pytest

from conftest import (AFFINE_CATALOG, AFFINE_H_R, affine_dominance_oracle,
                      affine_radical, assert_dominance_matches_affine_oracle,
                      assert_dominated_sets_match_recount, cone_member,
                      depth_of_root, dominates, per_bit_canonical_automaton)
from coxauto import parse_coxeter_system
from coxauto import smallroots
from coxauto.elements import _mask_bits, from_word, identity, mult_left
from coxauto.errors import BudgetExceeded, InvalidGroupSpec
from coxauto.garside import low_elements
from coxauto.smallroots import (EXIT, Classification, build_small_roots,
                                classify_type, spherical_analysis)
from coxauto.system import CoxeterMatrix, CoxeterSystem


def test_classify_examples(a2, tri33inf):
    assert classify_type(a2, range(2)) is Classification.FINITE
    a2t = parse_coxeter_system("triangle(3,3,3)")
    assert classify_type(a2t, range(3)) is Classification.AFFINE
    assert classify_type(tri33inf, range(3)) is Classification.INDEFINITE


def test_classify_reducible_subsets(right_angled):
    assert classify_type(right_angled, (0, 2)) is Classification.FINITE
    # an infinite-label pair is the affine group of rank one
    assert classify_type(right_angled, (0, 1)) is Classification.AFFINE
    assert classify_type(right_angled, (0, 1, 2)) is Classification.INDEFINITE
    with pytest.raises(InvalidGroupSpec):
        classify_type(right_angled, ())


def test_classify_reducible_with_affine_component():
    sys = parse_coxeter_system("rank 4\nm 1 2 3\nm 2 3 3\nm 1 3 3\n")
    # an affine triangle plus a detached generator: not finite, not irreducible
    assert classify_type(sys, range(4)) is Classification.INDEFINITE


def _reference_class(sys, subset):
    """Type from 50-digit eigenvalues of a Gram matrix built from cos(pi/m).

    Independent of the field: finite iff the least eigenvalue is positive,
    affine iff the subset is connected and the matrix is positive
    semidefinite with exactly one zero eigenvalue.
    """
    def entry(i, j):
        if i == j:
            return mpmath.mpf(1)
        m = sys.matrix.m(i, j)
        return mpmath.mpf(-1) if math.isinf(m) else -mpmath.cos(mpmath.pi / m)

    with mpmath.workdps(50):
        gram = mpmath.matrix([[entry(i, j) for j in subset] for i in subset])
        eigs = mpmath.eigsy(gram, eigvals_only=True)
        tol = mpmath.mpf(10) ** -30
        for lam in eigs:
            assert abs(lam) <= tol or abs(lam) > 1e-6, (subset, lam)
        zeros = sum(1 for lam in eigs if abs(lam) <= tol)
        least = min(eigs)
    reached, todo = {subset[0]}, [subset[0]]
    while todo:
        i = todo.pop()
        for j in subset:
            if j not in reached and sys.matrix.m(i, j) != 2:
                reached.add(j)
                todo.append(j)
    if least > tol:
        return Classification.FINITE
    if len(reached) == len(subset) and zeros == 1 and least >= -tol:
        return Classification.AFFINE
    return Classification.INDEFINITE


def _random_system(seed):
    rng = random.Random(seed)
    rank = rng.randint(3, 5)
    labels = (2, 3, 4, 5, 6, math.inf)
    return CoxeterSystem(CoxeterMatrix.from_entries(
        rank, {(i, j): rng.choice(labels)
               for i in range(rank) for j in range(i + 1, rank)}))


@pytest.mark.parametrize("system", [
    "H4", "F4", "E6", "~D5", "~E6", "~A4", "triangle(2,3,7)",
    "triangle(inf,2,inf)", *(f"seed{seed}" for seed in range(30))])
def test_classify_matches_eigenvalue_reference(system):
    if system.startswith("seed"):
        sys = _random_system(int(system[4:]))
    else:
        sys = parse_coxeter_system(system)
    for k in range(1, sys.rank + 1):
        for subset in itertools.combinations(range(sys.rank), k):
            assert classify_type(sys, subset) is _reference_class(sys, subset), \
                (system, subset)


def test_affine_structure_on_every_catalog_entry():
    # |Sigma_0| = |Phi_0| = r h, and a positive radical, on every type
    for name, h, r in AFFINE_CATALOG:
        sys = parse_coxeter_system(name)
        assert sys.rank == r + 1
        assert classify_type(sys, range(r + 1)) is Classification.AFFINE
        assert len(build_small_roots(sys, 0)) == r * h, name
        delta = affine_radical(sys)
        assert delta[0] == 1
        assert all(d.sign() > 0 for d in delta), name
        assert all(sys.bilinear_simple(s, delta).is_zero()
                   for s in range(r + 1)), name
    assert len(AFFINE_CATALOG) == 31


@pytest.mark.parametrize("spec", ["~A2", "~C2", "~G2", "~A3", "~C3", "~B3",
                                  "H3", "triangle(2,3,7)"])
def test_small_roots_take_each_form_once(monkeypatch, spec):
    # B(a_s, beta) is computed once per node and letter other than its own,
    # for the sign test, and handed to the reflection; the dominated roots
    # are reflected from the cache
    calls = []
    real = CoxeterSystem.bilinear_simple

    def counting(self, s, coords):
        calls.append((s, coords))
        return real(self, s, coords)

    monkeypatch.setattr(CoxeterSystem, "bilinear_simple", counting)
    sys = parse_coxeter_system(spec)
    table = build_small_roots(sys, 0)
    assert len(calls) == len(set(calls)) == (len(table) - 1) * sys.rank


def test_small_roots_infinite_dihedral(i2inf):
    table = build_small_roots(i2inf, 0)
    assert set(table.node_by_rid) == {0, 1}
    # the step from a_t away from a_s exits: B(a_s, a_t) = -1
    assert table.nodes[1].theta[0] == EXIT


def test_small_roots_counts(aff_g2, a2):
    assert len(build_small_roots(aff_g2, 0)) == 12
    table = build_small_roots(a2, 0)
    assert len(table) == 3  # the whole of Phi+ in a finite group


def test_dominance_examples(aff_a2, i2inf):
    assert not dominates(aff_a2, 0, 1)
    assert not dominates(aff_a2, 1, 0)
    alpha1_plus_delta = tuple(a + d for a, d in
                              zip(aff_a2.root_coords(0), affine_radical(aff_a2)))
    rid = aff_a2.intern_root(alpha1_plus_delta)
    assert dominates(aff_a2, 0, rid)
    # I2(inf): a_s dominates a_t + 2 a_s (B = 1, depth 1 < 2)
    st_el = from_word(i2inf, (0, 1))
    big = next(rid for rid in _mask_bits(st_el.inv) if rid > 1)
    assert dominates(i2inf, 0, big)
    assert depth_of_root(i2inf, big) == 2


def test_small_inversion_sets(i2inf, tri36):
    # Sigma_0(w) = N(w) intersected with the 0-small roots, as node ids
    i2_table = build_small_roots(i2inf, 0)
    assert i2_table.small_part(identity(i2inf).inv) == 0
    st_el = from_word(i2inf, (0, 1))
    assert i2_table.small_part(st_el.inv) == 0b1
    # triangle(m_st=3, m_su=2, m_tu=6): Sigma(su) = {a_s, a_u}
    su = from_word(tri36, (0, 2))
    assert build_small_roots(tri36, 0).small_part(su.inv) == 0b101


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", [
    "~A2", "~C2", "~G2", "~A3", "~C3", "~B3", "H3", "triangle(2,3,7)",
    "triangle(4,4,4)"])
def test_image_slices_give_small_part_of_ascent(name, level):
    # Sigma_n(s x) = {a_s} union (s(Sigma_n(x)) inside the n-small roots);
    # the search of low_elements supplies Sigma_n(x) and the positions of
    # the suffixes s x, s a left descent of x
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, level)
    low = low_elements(sys, level)
    small = low._small
    offsets, targets = low._suffixes
    for i, x in enumerate(low):
        assert small[i] == table.small_part(x.inv)
        suffixes = sorted(targets[offsets[i]:offsets[i + 1]])
        assert suffixes == sorted(low._index(mult_left(s, x))
                                  for s in x.descents_left)
        images = table.images(small[i])
        for s in range(sys.rank):
            if x.inv >> s & 1:
                continue
            assert (1 << s | images[s]
                    == table.small_part(mult_left(s, x).inv))
    # on every canonical state and letter: the OR of 1 << theta[s] per
    # member
    for mask in per_bit_canonical_automaton(sys, level).payloads:
        members = _mask_bits(mask)
        images = table.images(mask)
        for s in range(sys.rank):
            thetas = {table.nodes[nid].theta[s] for nid in members}
            image = sum(1 << nid for nid in thetas if nid >= 0)
            assert images[s] == image


def test_dominance_budget(monkeypatch):
    # each build reads the budget, so each runs on a fresh system
    table = build_small_roots(parse_coxeter_system("~A2"), 5)
    pairs = sum(node.dp_inf for node in table.nodes)
    monkeypatch.setattr(smallroots, "DOMINANCE_BUDGET", pairs)
    assert len(build_small_roots(parse_coxeter_system("~A2"), 5)) == len(table)
    monkeypatch.setattr(smallroots, "DOMINANCE_BUDGET", pairs - 1)
    with pytest.raises(BudgetExceeded, match="^5-small roots outgrew the "
                       f"dominance budget of {pairs - 1} pairs$"):
        build_small_roots(parse_coxeter_system("~A2"), 5)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", ["A4", "B4", "H3", "triangle(2,2,2)", "~A2",
                                  "~C2", "~G2", "~A3", "~C3", "~B3", "~D4",
                                  "I2(inf)", "triangle(inf,2,inf)",
                                  "triangle(2,3,7)", "triangle(4,4,4)",
                                  "triangle(3,3,4)"])
def test_spherical_flags_match_classify_type(name, level):
    sys = parse_coxeter_system(name)
    for node in build_small_roots(sys, level).nodes:
        assert node.spherical is (classify_type(sys, node.support)
                                  is Classification.FINITE)


def test_finite_system_classifies_once(monkeypatch):
    # every support of a finite system is spherical: A40 has 820 small
    # roots and one classification, that of the whole system
    calls = []
    real = smallroots.classify_type

    def counting(sys, subset):
        calls.append(subset)
        return real(sys, subset)

    monkeypatch.setattr(smallroots, "classify_type", counting)
    table = build_small_roots(parse_coxeter_system("A40"), 0)
    assert len(table) == 820
    assert all(node.spherical for node in table.nodes)
    assert len(calls) <= 1


def test_action_table_over_budget_is_refused_before_it_is_built(
        monkeypatch):
    # A40 would take about 116 MB; the prediction allocates nothing
    def refuse(image):
        raise AssertionError("the action table was built")

    monkeypatch.setattr(smallroots, "_byte_slices", refuse)
    sys = parse_coxeter_system("A40")
    message = (r"^the action table of 820 small roots under 40 letters "
               r"would take about 116,230,144 bytes, over the table budget "
               f"of {smallroots.IMAGE_TABLE_BUDGET:,} bytes$")
    with pytest.raises(BudgetExceeded, match=message):
        build_small_roots(sys, 0).images(0)
    with pytest.raises(BudgetExceeded, match=message):
        low_elements(sys, 0)


def test_spherical_analysis_examples(aff_g2, i2inf):
    sph, all_sph = spherical_analysis(build_small_roots(aff_g2, 0))
    assert (len(sph), all_sph) == (8, False)
    a3t = parse_coxeter_system("~A3")
    sph, all_sph = spherical_analysis(build_small_roots(a3t, 0))
    assert (len(sph), all_sph) == (12, True)
    sph, all_sph = spherical_analysis(build_small_roots(i2inf, 0))
    assert (sph, all_sph) == (frozenset({0, 1}), True)


def test_cone_member_examples(a2, aff_a2):
    one, zero = a2.ctx.one, a2.ctx.zero
    assert cone_member(a2, (one, one), [0, 1])
    assert not cone_member(a2, 1, [0])
    # ~A2: delta - a_1 = a_0 + a_2 lies in cone{a_0, a_2}
    onez = aff_a2.ctx.one
    zeroz = aff_a2.ctx.zero
    assert cone_member(aff_a2, (onez, zeroz, onez), [0, 2])


def test_affine_oracle_examples(aff_a2):
    delta = affine_radical(aff_a2)
    assert affine_dominance_oracle(aff_a2, 0, 0, delta)
    plus_delta = tuple(a + d for a, d in zip(aff_a2.root_coords(0), delta))
    assert affine_dominance_oracle(aff_a2, aff_a2.root_coords(0), plus_delta,
                                   delta)
    assert not affine_dominance_oracle(aff_a2, 0, 1, delta)


@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2"])
def test_dominance_criterion_agrees_with_affine_oracle(name):
    assert_dominance_matches_affine_oracle(parse_coxeter_system(name))


@pytest.mark.parametrize("name,level",
                         [("~A2", 2), ("~C2", 2), ("I2(inf)", 2),
                          ("~G2", 1), ("A3", 0), ("triangle(3,2,6)", 0)])
def test_dominated_sets_match_pairwise_recount(name, level):
    sys = parse_coxeter_system(name)
    assert len(build_small_roots(sys, level)) <= 50
    assert_dominated_sets_match_recount(sys, level)


@pytest.mark.parametrize("name", ["~A2", "~C2", "I2(inf)", "triangle(3,2,6)"])
def test_small_root_levels_nest(name):
    sys = parse_coxeter_system(name)
    tables = [build_small_roots(sys, n) for n in range(3)]
    rids = [set(table.node_by_rid) for table in tables]
    assert rids[0] <= rids[1] <= rids[2]


@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2", "~A3"])
def test_affine_small_root_counts(name):
    sys = parse_coxeter_system(name)
    h, r = AFFINE_H_R[name]
    for n in range(3):
        expected = r * h * (n + 1)
        assert len(build_small_roots(sys, n)) == expected


@pytest.mark.parametrize("name", ["~C2", "~G2", "triangle(3,3,inf)",
                                  "triangle(3,2,6)"])
def test_spherical_roots_of_bounded_depth_are_small(name):
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, 0)
    small = table.node_by_rid
    frontier = set(range(sys.rank))
    seen = set(frontier)
    for _ in range(5):  # roots up to depth 6
        nxt = set()
        for rid in frontier:
            coords = sys.root_coords(rid)
            for s in range(sys.rank):
                if sys.bilinear_simple(s, coords).sign() < 0:
                    _, img = sys.reflect_id(s, rid)
                    if img not in seen:
                        seen.add(img)
                        nxt.add(img)
        frontier = nxt
    for rid in seen:
        if classify_type(sys, sys.root_support(rid)) is Classification.FINITE:
            assert rid in small


@pytest.mark.parametrize("name,level", [("~A2", 1), ("~C2", 1), ("~G2", 0)])
def test_theta_equivariance(name, level):
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, level)
    for i, node in enumerate(table.nodes):
        for s in range(sys.rank):
            target = node.theta[s]
            if target < 0 or target == i:
                continue
            other = table.nodes[target]
            b = sys.bilinear_simple(s, sys.root_coords(node.rid))
            if b.sign() < 0:  # ascent from node to other
                expected = {table.node_by_rid[sys.reflect_id(s, table.nodes[d].rid)[1]]
                            for d in node.dominated}
                if (b + 1).sign() <= 0:
                    expected.add(s)
                assert set(other.dominated) == expected
