from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar
from coxauto.errors import InvalidLabel, OutOfField
from coxauto.scalars import (MAX_FIELD_DEGREE, FieldContext, _interval_eval,
                             make_field_context)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def test_context_n3_is_rational():
    # 2cos(pi/N) = -2, 0, 1 for N = 1, 2, 3
    for n, minpoly in [(1, (2, 1)), (2, (0, 1)), (3, (-1, 1))]:
        ctx = FieldContext(n)
        assert ctx.N == n
        assert ctx.minpoly == minpoly
        assert ctx.degree == 1
        assert ctx.generator() == -minpoly[0]
        assert ctx.generator_float() == -minpoly[0]


def test_context_n4_is_sqrt2():
    ctx = make_field_context({4})
    assert ctx.N == 4
    assert ctx.minpoly == (-2, 0, 1)  # x^2 - 2
    assert ctx.degree == 2


def _reference_minpoly(n: int) -> tuple[int, ...]:
    """The minimal polynomial of 2cos(pi/N) from its conjugates in mpmath.

    The conjugates 2cos(pi k/N), gcd(k, 2N) = 1, are multiplied out at
    40 + 6d digits and the coefficients rounded to integers.
    """
    ks = [k for k in range(1, n + 1) if _gcd(k, 2 * n) == 1]
    with mpmath.workdps(40 + 6 * len(ks)):
        poly = [mpmath.mpf(1)]
        for k in ks:
            r = 2 * mpmath.cos(mpmath.pi * k / n)
            nxt = [mpmath.mpf(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] += c
                nxt[i] -= c * r
            poly = nxt
        coeffs = tuple(int(mpmath.nint(c)) for c in poly)
        assert all(abs(approx - c) < mpmath.mpf("1e-10")
                   for c, approx in zip(coeffs, poly))
    return coeffs


def _reference_generator_float(n: int) -> float:
    with mpmath.workdps(40):
        return float(2 * mpmath.cos(mpmath.pi / n))


# N = 1 and every N >= 2 up to 255 whose field is within the degree budget
_ADMITTED = [1] + [n for n in range(2, 256)
                   if _totient(2 * n) // 2 <= MAX_FIELD_DEGREE]


def test_minpoly_matches_mpmath_reference():
    assert len(_ADMITTED) == 169
    for n in _ADMITTED:
        assert FieldContext._build_minpoly(n) == _reference_minpoly(n), n


def test_generator_float_matches_mpmath_reference():
    for n in _ADMITTED:
        ctx = FieldContext(n)
        if ctx.degree >= 2:
            assert ctx.generator_float() == _reference_generator_float(n), n


def _poly_eval_fraction(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _reference_bisection(minpoly, lo: Fraction, hi: Fraction,
                         bits: int) -> tuple[Fraction, Fraction]:
    """Halve (lo, hi] to width 2^-bits, signs by Horner in Fractions."""
    width = Fraction(1, 2**bits)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = _poly_eval_fraction(minpoly, mid)
        if v == 0:
            return (mid, mid)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def test_ladder_matches_fraction_bisection():
    # level 0 halves (lo, 2] from the double midpoint of c and the next
    # conjugate down, certified by the signs at both ends
    for n in _ADMITTED:
        ctx = FieldContext(n)
        if ctx.degree < 2:
            continue
        k0, k1 = [k for k in range(1, n + 1) if _gcd(k, 2 * n) == 1][:2]
        mid = math.cos(math.pi * k0 / n) + math.cos(math.pi * k1 / n)
        lo = Fraction(math.floor(mid * 2**40), 2**40)
        assert _poly_eval_fraction(ctx.minpoly, lo) < 0
        assert _poly_eval_fraction(ctx.minpoly, Fraction(2)) > 0
        assert ctx._ladder == [_reference_bisection(ctx.minpoly, lo,
                                                    Fraction(2), 64)], n
    # refinements start from the level below
    ctx = make_field_context({5, 7})
    lo, hi = ctx._ladder[0]
    for bits in (128, 256):
        assert (ctx._bisect_to(lo, hi, bits)
                == _reference_bisection(ctx.minpoly, lo, hi, bits))
        lo, hi = ctx._bisect_to(lo, hi, bits)


def test_runtime_does_not_import_mpmath():
    script = (
        "import sys\n"
        "import coxauto\n"
        "from coxauto.conjectures import stats_row\n"
        "coxauto.parse_coxeter_system('triangle(2,3,7)')\n"
        "stats_row(coxauto.parse_coxeter_system('~C2'))\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)


def test_context_lcm_and_degree():
    ctx = make_field_context({3, 4, 5})
    assert ctx.N == 60
    assert ctx.degree == _totient(120) // 2 == 16


def test_label_2_needs_no_extension():
    ctx = make_field_context({2})
    assert ctx.N == 1
    assert ctx.degree == 1
    assert ctx.cos_pi_over(2) == ctx.zero


def test_invalid_label_rejected():
    with pytest.raises(InvalidLabel):
        make_field_context({1})


def test_cos_pi_over_examples():
    ctx = make_field_context({3, 4, 5})
    assert ctx.cos_pi_over(3).as_rational() == Fraction(1, 2)
    c4 = ctx.cos_pi_over(4)
    assert (c4 * c4).as_rational() == Fraction(1, 2)
    phi = 2 * ctx.cos_pi_over(5)
    assert (phi * phi - phi - 1).is_zero()


def test_cos_out_of_field():
    ctx = make_field_context({3})
    with pytest.raises(OutOfField):
        ctx.cos_pi_over(7)


def test_division_by_zero():
    ctx = make_field_context({4})
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero


def test_sign_examples():
    ctx = make_field_context({3, 4, 5})
    assert ctx.zero.sign() == 0
    # cosine decreases on (0, pi)
    assert (2 * ctx.cos_pi_over(5) - 2 * ctx.cos_pi_over(4)).sign() == 1
    assert (1 - 2 * ctx.cos_pi_over(3) ** 2).sign() == 1


def test_minpoly_vanishes_on_every_ladder_interval():
    ctx = make_field_context({5, 4})
    mp = [Fraction(c) for c in ctx.minpoly]
    ctx.generator().sign()  # make sure the ladder is populated
    for lo, hi in ctx._ladder:
        vlo, vhi = _interval_eval(mp, lo, hi)
        assert vlo <= 0 <= vhi


def test_comparison_operators_follow_numeric_order():
    ctx = make_field_context({5})
    phi = 2 * ctx.cos_pi_over(5)
    assert ctx.one < phi < ctx.from_rational(2)
    assert phi >= phi and not phi < phi


_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _scalars(ctx):
    return st.lists(_COEFF, min_size=ctx.degree, max_size=ctx.degree).map(
        lambda v: scalar(ctx, v))


_CTX = make_field_context({3, 4})  # degree-2 field keeps cases meaningful


@settings(max_examples=60, deadline=None)
@given(_scalars(_CTX), _scalars(_CTX), _scalars(_CTX))
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * (_CTX.one / x) == _CTX.one


@settings(max_examples=60, deadline=None)
@given(_scalars(_CTX), _scalars(_CTX))
def test_sign_is_multiplicative(x, y):
    assert x.sign() * y.sign() == (x * y).sign()


@settings(max_examples=40, deadline=None)
@given(st.lists(_COEFF, min_size=5, max_size=7))
def test_reduction_is_idempotent(coeffs):
    once = scalar(_CTX, coeffs)
    twice = scalar(_CTX, once.coeffs)
    assert once == twice


def test_sign_consistent_with_interval_evaluation():
    ctx = make_field_context({4})
    x = 2 * ctx.cos_pi_over(4) - 1  # sqrt(2) - 1 > 0
    for lo, hi in ctx._ladder:
        vlo, vhi = _interval_eval(x.coeffs, lo, hi)
        assert vhi > 0  # interval never contradicts the exact sign
    assert x.sign() == 1
