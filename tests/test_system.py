from __future__ import annotations

import math

import pytest

from conftest import AFFINE_H_R
from coxauto import parse_coxeter_system
from coxauto.automata import build_canonical_automaton
from coxauto.errors import InvalidGroupSpec, InvalidLabel
from coxauto.smallroots import build_small_roots
from coxauto.system import (RANK_BUDGET, CoxeterMatrix, CoxeterSystem,
                            preset_matrix)


def test_triangle_preset_orders_edges_as_m12_m13_m23():
    sys = parse_coxeter_system("triangle(3,3,inf)")
    assert sys.rank == 3
    assert sys.matrix.m(0, 1) == 3
    assert sys.matrix.m(0, 2) == 3
    assert math.isinf(sys.matrix.m(1, 2))


def test_infinite_dihedral_gram_entry():
    sys = parse_coxeter_system("I2(inf)")
    assert sys.rank == 2
    assert sys.gram[0][1] == sys.ctx.from_rational(-1)
    assert sys.gram[0][0] == sys.ctx.one


def test_asymmetric_matrix_rejected():
    text = "rank 2\nm 1 2 2\nm 2 1 3\n"
    with pytest.raises(InvalidGroupSpec):
        parse_coxeter_system(text)


def test_bad_diagonal_rejected():
    with pytest.raises(InvalidGroupSpec):
        CoxeterMatrix(((2, 3), (3, 1)))


def test_label_below_two_rejected():
    with pytest.raises(InvalidLabel):
        CoxeterMatrix(((1, 1), (1, 1)))


def test_unknown_preset_rejected():
    with pytest.raises(InvalidGroupSpec):
        parse_coxeter_system("Q7")


def test_matrix_block_with_defaults():
    sys = parse_coxeter_system("rank 3\nm 1 2 4\n# comment\nm 2 3 inf\n")
    assert sys.matrix.m(0, 1) == 4
    assert sys.matrix.m(0, 2) == 2  # unspecified defaults to 2
    assert math.isinf(sys.matrix.m(1, 2))


def test_type_prefix_accepted():
    sys = parse_coxeter_system("type A3")
    assert sys.rank == 3


def test_reflection_negates_own_root(a2):
    alpha_s = a2.root_coords(0)
    image = a2.reflect_coords(0, alpha_s)
    assert image == tuple(-c for c in alpha_s)


def test_reflection_in_infinite_dihedral(i2inf):
    # s(a_t) = a_t + 2 a_s since B(a_s, a_t) = -1
    image = i2inf.reflect_coords(0, i2inf.root_coords(1))
    assert image == (i2inf.ctx.from_rational(2), i2inf.ctx.one)


def test_reflection_chain_matches_rank3_construction(tri36):
    # u then s applied to a_t gives c_3 a_s + a_t + c_6 a_u
    ctx = tri36.ctx
    target = (2 * ctx.cos_pi_over(3), ctx.one, 2 * ctx.cos_pi_over(6))
    image = tri36.reflect_coords(0, tri36.reflect_coords(2, tri36.root_coords(1)))
    assert image == target


def test_components_split_on_commuting_pairs(right_angled):
    assert right_angled.matrix.components((0, 2)) == [(0,), (2,)]
    assert right_angled.matrix.components() == [(0, 1, 2)]


def test_word_string_round_trip(a3):
    word = (0, 2, 1, 0)
    assert a3.word_from_string(a3.word_to_string(word)) == word
    assert a3.word_to_string(()) == "e"
    assert a3.word_from_string("e") == ()


@pytest.mark.parametrize("word", [(9,), (0,), (10,), (9, 0), (0, 9),
                                  (11, 10, 9, 8, 0), ()])
def test_word_string_round_trip_from_rank_ten(word):
    # "10" is the one letter 10, not the letters 1 and 0
    a12 = parse_coxeter_system("A12")
    text = a12.word_to_string(word)
    assert a12.word_from_string(text) == word
    assert a12.word_to_string((9,)) == "10"
    with pytest.raises(InvalidGroupSpec, match="letter out of range"):
        a12.word_from_string("13")


def test_subsystem_maps_letters(a3):
    sub, letter_map = a3.subsystem((0, 2))
    assert sub.rank == 2
    assert letter_map == {0: 0, 2: 1}
    assert sub.matrix.m(0, 1) == 2  # s1 and s3 commute in A3


def test_affine_catalog_recognizes_relabelled_diagram():
    # the r h small roots and (h+1)^r canonical states of ~B3 do not depend
    # on the order of its nodes
    b3t = preset_matrix("~B3")
    perm = (2, 0, 3, 1)
    rows = tuple(tuple(b3t.rows[perm[i]][perm[j]] for j in range(4))
                 for i in range(4))
    shuffled = CoxeterSystem(CoxeterMatrix(rows))
    h, r = AFFINE_H_R["~B3"]
    assert len(build_small_roots(shuffled, 0)) == r * h
    assert build_canonical_automaton(shuffled, 0)[0].num_states == (h + 1) ** r


@pytest.mark.parametrize("spec, rank", [
    ("A99999999999", 99999999999), ("~A99999999999", 100000000000),
    (f"D{RANK_BUDGET + 1}", RANK_BUDGET + 1),
    (f"~C{RANK_BUDGET}", RANK_BUDGET + 1),
    ("rank 99999999999\nm 1 2 3\n", 99999999999),
])
def test_rank_over_budget_is_refused_before_any_list(spec, rank, monkeypatch):
    # refused where the rank is read, so nothing of that length is built
    from coxauto import system

    def refuse(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(system.CoxeterMatrix, "from_entries", refuse)
    monkeypatch.setattr(system, "_path", refuse)
    with pytest.raises(InvalidGroupSpec, match=f"^rank {rank:,} is over the "
                       f"rank budget of {RANK_BUDGET:,}$"):
        parse_coxeter_system(spec)


def test_rank_budget_admits_its_own_rank():
    assert parse_coxeter_system(f"~A{RANK_BUDGET - 1}").rank == RANK_BUDGET
    text = f"rank {RANK_BUDGET}\nm 1 2 inf\n"
    assert parse_coxeter_system(text).rank == RANK_BUDGET


def test_affine_prefix_spellings_agree():
    assert parse_coxeter_system("affine:C2").matrix == preset_matrix("~C2")


def test_equal_matrices_hash_equal():
    a = parse_coxeter_system("affine:C2").matrix
    b = parse_coxeter_system("~C2").matrix
    assert a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_matrix_rows_cannot_be_assigned():
    matrix = preset_matrix("A2")
    with pytest.raises(AttributeError):
        matrix.rows = ((1, 2), (2, 1))
    assert matrix.rows == ((1, 3), (3, 1))


def test_field_degree_budget():
    from coxauto.scalars import MAX_FIELD_DEGREE
    with pytest.raises(InvalidGroupSpec,
                       match=f"degree 800, over the field-degree budget "
                             f"of {MAX_FIELD_DEGREE}"):
        parse_coxeter_system("I2(3000)")
    assert parse_coxeter_system("triangle(5,6,7)").ctx.degree == 48
