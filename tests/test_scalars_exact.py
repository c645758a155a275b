"""The integer scalar layer against independent references.

Arithmetic is checked against plain Fraction polynomial arithmetic modulo
the minimal polynomial, kept here as the reference.  Sign is checked
against a 300-digit mpmath evaluation, on ordinary values (decided by the
float filter) and on values constructed to lie within 2^-k of zero
(decided by exact interval refinement).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar
from coxauto.scalars import make_field_context

_FIELDS = [make_field_context({n}) for n in (4, 5, 7, 12, 21)]
_DPS = 300


# -- references ---------------------------------------------------------------

def _ref_reduce(minpoly, vec):
    d = len(minpoly) - 1
    vec = list(vec) + [Fraction(0)] * max(d - len(vec), 0)
    for k in range(len(vec) - 1, d - 1, -1):
        top = vec[k]
        if top:
            for i, m in enumerate(minpoly):
                vec[k - d + i] -= top * m
    return tuple(vec[:d])


def _ref_mul(ctx, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(ctx.minpoly, prod)


def _mp_value(ctx, coeffs):
    with mpmath.workdps(_DPS):
        c = 2 * mpmath.cos(mpmath.pi / ctx.N)
        return sum(mpmath.mpf(q.numerator) / q.denominator * c**i
                   for i, q in enumerate(coeffs))


def _mp_sign(ctx, coeffs):
    v = _mp_value(ctx, coeffs)
    with mpmath.workdps(_DPS):
        if abs(v) < mpmath.mpf(10) ** (20 - _DPS):
            return 0
        return 1 if v > 0 else -1


# -- strategies -----------------------------------------------------------------

_COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def _field_and_scalars(draw, count):
    ctx = draw(st.sampled_from(_FIELDS))
    vecs = [draw(st.lists(_COEFF, min_size=ctx.degree, max_size=ctx.degree))
            for _ in range(count)]
    return ctx, [scalar(ctx, v) for v in vecs]


@st.composite
def _near_zero(draw):
    """x - q for a small-height x and q its k-bit dyadic truncation."""
    ctx, (x,) = draw(_field_and_scalars(1))
    bits = draw(st.integers(min_value=30, max_value=160))
    v = _mp_value(ctx, x.coeffs)
    with mpmath.workdps(_DPS):
        q = Fraction(int(mpmath.floor(v * 2**bits)), 2**bits)
    q += draw(st.sampled_from([0, Fraction(1, 2**bits)]))
    return ctx, x - q


# -- arithmetic -------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(_field_and_scalars(2))
def test_arithmetic_matches_fraction_reference(case):
    ctx, (x, y) = case
    a, b = x.coeffs, y.coeffs
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (x * y).coeffs == _ref_mul(ctx, a, b)
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert _ref_mul(ctx, (x / y).coeffs, b) == a


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_field_and_scalars(1), st.fractions(min_value=-50, max_value=50,
                                           max_denominator=30))
def test_rational_operands_scale_coefficients(case, q):
    ctx, (x,) = case
    r = ctx.from_rational(q)
    expected = tuple(c * q for c in x.coeffs)
    assert (x * r).coeffs == expected
    assert (r * x).coeffs == expected
    if q:
        assert r.inverse().as_rational() == 1 / q


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_field_and_scalars(1))
def test_canonical_form_and_hash(case):
    ctx, (x,) = case
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    same = scalar(ctx, list(x.coeffs))
    assert same == x and hash(same) == hash(x)
    if x.as_rational() is not None:
        assert x == x.as_rational() and hash(x) == hash(x.as_rational())


# -- sign -------------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(_field_and_scalars(1))
def test_sign_matches_mpmath(case):
    ctx, (x,) = case
    assert x.sign() == _mp_sign(ctx, x.coeffs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_near_zero())
def test_sign_of_near_zero_values_matches_mpmath(case):
    ctx, y = case
    assert y.sign() == _mp_sign(ctx, y.coeffs)


def _count_exact_calls(monkeypatch, ctx):
    calls = []
    exact = ctx._sign_exact

    def spy(num):
        calls.append(num)
        return exact(num)

    monkeypatch.setattr(ctx, "_sign_exact", spy)
    return calls


@pytest.mark.parametrize("ctx", _FIELDS, ids=lambda ctx: f"N{ctx.N}")
def test_filter_decides_ordinary_values(monkeypatch, ctx):
    calls = _count_exact_calls(monkeypatch, ctx)
    c = ctx.generator()
    assert (c - 1).sign() == 1
    assert (c * c - 4).sign() == -1
    x = Fraction(1, 3) - c / 7
    assert x.sign() == _mp_sign(ctx, x.coeffs)
    assert calls == []


@pytest.mark.parametrize("bits", [60, 100, 200, 600])
@pytest.mark.parametrize("ctx", _FIELDS, ids=lambda ctx: f"N{ctx.N}")
def test_forced_fallback_decides_near_misses(monkeypatch, ctx, bits):
    """c - q for q a dyadic approximation of c = 2cos(pi/N) to `bits` bits."""
    with mpmath.workdps(_DPS):
        lo = Fraction(int(mpmath.floor(2 * mpmath.cos(mpmath.pi / ctx.N) * 2**bits)),
                      2**bits)
    hi = lo + Fraction(1, 2**bits)
    calls = _count_exact_calls(monkeypatch, ctx)
    c = ctx.generator()
    assert (c - lo).sign() == 1
    assert (c - hi).sign() == -1
    assert (lo - c).sign() == -1
    assert len(calls) == 3
