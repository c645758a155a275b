from __future__ import annotations

import itertools
import math
import random

import mpmath
import pytest

from conftest import cone_member
from coxauto import parse_coxeter_system
from coxauto import smallroots
from coxauto.elements import _mask_bits, from_word, identity, mult_left
from coxauto.errors import BudgetExceeded, InvalidGroupSpec
from coxauto.garside import low_elements
from coxauto.smallroots import (EXIT, Classification, affine_dominance_oracle,
                                affine_structure, build_small_roots,
                                classify_type, depth_of_root, dominates,
                                spherical_analysis)
from coxauto.system import CoxeterMatrix, CoxeterSystem, affine_candidates


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
    count = 0
    for rank in range(2, 10):
        for name, mat, h, finite_rank in affine_candidates(rank):
            sys = CoxeterSystem(mat)
            st = affine_structure(sys)
            assert (st.family, st.coxeter_number, st.finite_rank) == \
                (name, h, finite_rank)
            assert st.delta[0] == 1
            assert all(d.sign() > 0 for d in st.delta), name
            assert all(sys.bilinear_simple(s, st.delta).is_zero()
                       for s in range(rank)), name
            count += 1
    assert count == 31
    assert affine_structure(parse_coxeter_system("~E8")).coxeter_number == 30


def test_small_roots_infinite_dihedral(i2inf):
    table = build_small_roots(i2inf, 0)
    assert table.root_ids() == {0, 1}
    # the step from a_t away from a_s exits: B(a_s, a_t) = -1
    assert table.nodes[1].theta[0] == EXIT


def test_small_roots_counts(aff_g2, a2):
    assert len(build_small_roots(aff_g2, 0)) == 12
    table = build_small_roots(a2, 0)
    assert len(table) == 3  # the whole of Phi+ in a finite group


def test_dominance_examples(aff_a2, i2inf):
    assert not dominates(aff_a2, 0, 1)
    assert not dominates(aff_a2, 1, 0)
    st = affine_structure(aff_a2)
    alpha1_plus_delta = tuple(a + d for a, d in
                              zip(aff_a2.root_coords(0), st.delta))
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
    slices = table.image_slices()
    nbytes = (len(table) + 7) // 8
    low = low_elements(sys, level)
    small = low._root_index()[1]
    offsets, targets = low._suffixes
    for i, x in enumerate(low):
        assert small[i] == table.small_part(x.inv)
        suffixes = sorted(targets[offsets[i]:offsets[i + 1]])
        assert suffixes == sorted(low._pos[mult_left(s, x).inv]
                                  for s in x.descents_left)
        mask_bytes = table.small_part(x.inv).to_bytes(nbytes, "little")
        for s in range(sys.rank):
            if x.inv >> s & 1:
                continue
            image = 1 << s
            for images, b in zip(slices[s], mask_bytes):
                image |= images[b]
            assert image == table.small_part(mult_left(s, x).inv)


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
    st = affine_structure(aff_a2)
    assert affine_dominance_oracle(aff_a2, 0, 0, st)
    plus_delta = tuple(a + d for a, d in zip(aff_a2.root_coords(0), st.delta))
    assert affine_dominance_oracle(aff_a2, aff_a2.root_coords(0), plus_delta, st)
    assert not affine_dominance_oracle(aff_a2, 0, 1, st)
    with pytest.raises(InvalidGroupSpec):
        affine_structure(parse_coxeter_system("A2"))


@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2"])
def test_dominance_criterion_agrees_with_affine_oracle(name):
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, 2)
    st = affine_structure(sys)
    rids = [node.rid for node in table.nodes]
    for a, b in itertools.product(rids, repeat=2):
        assert dominates(sys, a, b) == affine_dominance_oracle(sys, a, b, st)


@pytest.mark.parametrize("name,level",
                         [("~A2", 2), ("~C2", 2), ("I2(inf)", 2),
                          ("~G2", 1), ("A3", 0), ("triangle(3,2,6)", 0)])
def test_dominated_sets_match_pairwise_recount(name, level):
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, level)
    assert len(table) <= 50
    for i, node in enumerate(table.nodes):
        recount = {j for j, other in enumerate(table.nodes)
                   if j != i and dominates(sys, other.rid, node.rid)}
        assert recount == set(node.dominated)
        assert node.dp_inf == len(recount) <= level
        assert depth_of_root(sys, node.rid) == node.dp


@pytest.mark.parametrize("name", ["~A2", "~C2", "I2(inf)", "triangle(3,2,6)"])
def test_small_root_levels_nest(name):
    sys = parse_coxeter_system(name)
    tables = [build_small_roots(sys, n) for n in range(3)]
    assert tables[0].root_ids() <= tables[1].root_ids() <= tables[2].root_ids()


@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2", "~A3"])
def test_affine_small_root_counts(name):
    sys = parse_coxeter_system(name)
    st = affine_structure(sys)
    for n in range(3):
        expected = st.finite_rank * st.coxeter_number * (n + 1)
        assert len(build_small_roots(sys, n)) == expected


@pytest.mark.parametrize("name", ["~C2", "~G2", "triangle(3,3,inf)",
                                  "triangle(3,2,6)"])
def test_spherical_roots_of_bounded_depth_are_small(name):
    sys = parse_coxeter_system(name)
    table = build_small_roots(sys, 0)
    small = table.root_ids()
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
