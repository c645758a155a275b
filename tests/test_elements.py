from __future__ import annotations

import itertools
import random

import pytest

from coxauto.elements import (_mask_bits, ball, coset_split, from_word,
                              generator, identity, is_reduced_word, mult_left,
                              mult_right, prefixes, recompute_inversions,
                              reduced_word_counts, suffixes, support, weak_leq)


def test_mult_left_examples(a2):
    e = identity(a2)
    s = mult_left(0, e)
    assert s.word == (0,) and s.inv == 1 << 0
    assert mult_left(0, s) == e
    st = mult_left(0, generator(a2, 1))
    assert st.length == 2
    assert st.inv == 1 << 0 | 1 << a2.intern_root(
        (a2.ctx.one, a2.ctx.one))  # {a_s, a_s + a_t}


def test_mult_right_examples(a2):
    e = identity(a2)
    t = mult_right(e, 1)
    assert t.word == (1,)
    st = mult_right(generator(a2, 0), 1)
    assert st.word == (0, 1)
    assert st.inv >> a2.intern_root((a2.ctx.one, a2.ctx.one)) & 1
    assert mult_right(st, 1) == generator(a2, 0)


def test_is_reduced_examples(a2):
    assert not is_reduced_word(a2, (0, 0))
    assert is_reduced_word(a2, (0, 1, 0))
    assert not is_reduced_word(a2, (0, 1, 0, 1))


def test_weak_order_examples(a2):
    e = identity(a2)
    s, t = generator(a2, 0), generator(a2, 1)
    st = from_word(a2, (0, 1))
    for w in ball(a2, 3):
        assert weak_leq(e, w)
    assert weak_leq(s, st)
    assert not weak_leq(t, st)


def test_prefixes_and_suffixes(a2):
    st = from_word(a2, (0, 1))
    assert {str(w) for w in prefixes(st)} == {"e", "1", "12"}
    assert {str(w) for w in suffixes(st)} == {"e", "2", "12"}
    assert {str(w) for w in suffixes(identity(a2))} == {"e"}


def test_coset_split_examples(a2, right_angled):
    e = identity(a2)
    assert coset_split(e, (0,)) == (e, e)
    sts = from_word(a2, (0, 1, 0))
    left, rest = coset_split(sts, (0,))
    assert (str(left), str(rest)) == ("1", "21")
    stu = from_word(right_angled, (0, 1, 2))
    left, rest = coset_split(stu, (0, 1))
    assert (str(left), str(rest)) == ("12", "3")  # p_I(stu) = st


def test_coset_split_lengths_and_inversions(a3):
    # l(w) = l(w_I) + l(w^I) and N(w_I) = N(w) within the parabolic roots
    subset = {0, 1}
    for w in ball(a3, 6):
        left, rest = coset_split(w, subset)
        assert left.length + rest.length == w.length
        parabolic_part = sum(1 << rid for rid in _mask_bits(w.inv)
                             if a3.root_support(rid) <= subset)
        assert left.inv == parabolic_part


def _random_words(sys, count, max_len, seed):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(0, max_len)
        yield tuple(rng.randrange(sys.rank) for _ in range(k))


@pytest.mark.parametrize("group", ["a2", "i2inf", "aff_c2", "right_angled"])
def test_left_multiplication_changes_length_by_one(group, request):
    sys = request.getfixturevalue(group)
    for word in _random_words(sys, 40, 8, seed=7):
        w = from_word(sys, word)
        for s in range(sys.rank):
            sw = mult_left(s, w)
            assert abs(sw.length - w.length) == 1
            assert (sw.length < w.length) == (s in w.descents_left)


@pytest.mark.parametrize("group", ["a2", "i2inf", "aff_a2", "tri33inf"])
def test_incremental_inversions_match_recomputation(group, request):
    sys = request.getfixturevalue(group)
    for w in ball(sys, 6):
        assert recompute_inversions(w) == w.inv
        assert w.inv.bit_count() == w.length


@pytest.mark.parametrize("group", ["a2", "i2inf", "aff_a2"])
def test_descent_lemma_properties(group, request):
    # u <= v iff su <= sv, for s in both descent sets or in neither
    sys = request.getfixturevalue(group)
    elements = ball(sys, 4)
    for u, v in itertools.product(elements, repeat=2):
        for s in range(sys.rank):
            in_u, in_v = s in u.descents_left, s in v.descents_left
            if in_u == in_v:
                assert weak_leq(u, v) == weak_leq(mult_left(s, u), mult_left(s, v))


def test_a3_against_permutation_model(a3):
    """Independent oracle: A3 is the symmetric group on 4 letters."""

    def apply(word):
        perm = list(range(4))
        for s in word:  # left-to-right product acting on positions
            perm[s], perm[s + 1] = perm[s + 1], perm[s]
        return tuple(perm)

    def inversions(perm):
        return sum(1 for i in range(4) for j in range(i + 1, 4)
                   if perm[i] > perm[j])

    for word in itertools.product(range(3), repeat=5):
        for k in range(6):
            prefix = word[:k]
            expected = all(
                inversions(apply(prefix[:i + 1])) == i + 1
                for i in range(len(prefix)))
            assert is_reduced_word(a3, prefix) == expected


def test_meet_exists_in_sampled_balls(a2, i2inf, aff_a2):
    # any two ball elements admit a unique maximal common lower bound
    for sys in (a2, i2inf, aff_a2):
        small = ball(sys, 3)
        big = ball(sys, 6)
        for u, v in itertools.combinations(small, 2):
            lower = [w for w in big if weak_leq(w, u) and weak_leq(w, v)]
            maximal = [w for w in lower
                       if not any(weak_leq(w, x) and w != x for x in lower)]
            assert len(maximal) == 1


def test_reduced_word_counts_in_dihedral(i2inf, b2):
    assert reduced_word_counts(i2inf, 5) == [1, 2, 2, 2, 2, 2]
    # B2: alternating words up to the relation length m = 4
    assert reduced_word_counts(b2, 5) == [1, 2, 2, 2, 2, 0]


def test_support_well_defined(a3):
    w = from_word(a3, (0, 1, 0))
    assert support(w) == {0, 1}
