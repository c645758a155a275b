"""Exact arithmetic in the real cyclotomic field Q(2cos(pi/N)).

Every bilinear-form entry arising from a Coxeter matrix with finite edge
labels lives in Q(2cos(pi/N)) for N the lcm of the labels.  A
:class:`FieldContext` fixes N, the minimal polynomial of c = 2cos(pi/N)
(monic, integer coefficients, degree d), and a ladder of shrinking dyadic
intervals isolating c, both found without high-precision floating point.

A :class:`Scalar` is a polynomial in c of degree < d, stored as a tuple of
d integer numerators over one positive integer denominator, reduced so
that gcd(den, *num) == 1.  That form is canonical: equality is equality of
(num, den).  Sums scale to a common denominator; products multiply the
integer polynomials and reduce them with the integer table of c^k mod the
minimal polynomial; a rational operand (every numerator past the constant
zero) just scales the other one.  No arithmetic goes through ``Fraction``;
``Scalar.coeffs`` is a read-only ``Fraction`` view for display and tests.

Sign is exact and total, decided in three tiers (see :meth:`FieldContext.sign`):
rational values by the sign of their numerator; everything else first by
a double-precision Horner evaluation with an a-priori rounding-error bound
(a filtered predicate in the sense of Fortune & Van Wyk and Shewchuk),
which settles the sign whenever the value is not tiny next to the bound;
and only when that filter cannot decide, by exact rational interval
Horner on the ladder, refined until a norm lower bound on |value|
guarantees the interval excludes zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import InternalInvariant, InvalidGroupSpec, InvalidLabel, OutOfField

RationalLike = Union[int, Fraction]

_INITIAL_BITS = 64
_MIN_NORMAL = 2.0 ** -1022     # smallest positive normal double
# Largest field degree phi(2N)/2 accepted.  The largest among the presets
# and tested groups is 48, for triangle(5,6,7).  Building the minimal
# polynomial takes about 0.06 s at degree 64, 0.3 s at 128 and 2 s at 256
# (Python 3.11), and every later product costs O(degree^2).
MAX_FIELD_DEGREE = 64


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_divmod_int(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials; den must be monic.  Coeffs ascending."""
    num = list(num)
    dden = len(den) - 1
    if den[-1] != 1:
        raise InternalInvariant("division requires a monic divisor")
    quot = [0] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dden] = c
        for j, dj in enumerate(den):
            num[i - dden + j] -= c * dj
    return quot, list(_poly_trim(num))


def _dyadic_sign(coeffs: Sequence[int], m: int, k: int) -> int:
    """Sign of the integer polynomial at m / 2^k, in integers.

    It is the sign of 2^(kd) times the value, sum c_i m^i 2^(k(d-i)) for
    degree d, which Horner's rule builds with one shift per coefficient.
    """
    d = len(coeffs) - 1
    acc = 0
    for i in range(d, -1, -1):
        acc = acc * m + (coeffs[i] << (k * (d - i)))
    return (acc > 0) - (acc < 0)


def _interval_eval(coeffs: Sequence[RationalLike], lo: Fraction,
                   hi: Fraction) -> tuple[Fraction, Fraction]:
    """Horner evaluation with rational interval arithmetic."""
    alo = ahi = Fraction(0)
    for c in reversed(coeffs):
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def _chebyshev_like(n: int) -> list[int]:
    """Integer polynomial D_n with D_n(2cos t) = 2cos(n t), ascending coeffs."""
    if n == 0:
        return [2]
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _solve_fraction_free(m: list[list[int]]) -> tuple[list[int], int]:
    """Solve a nonsingular integer system given as augmented rows [A | b].

    Bareiss elimination keeps every entry an integer (each is a minor of
    the augmented matrix, so the divisions are exact).  Returns (y, t) with
    the solution x = y / t, where t = +-det(A) and y = t * x is integral
    by Cramer's rule.
    """
    n = len(m)
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            raise InternalInvariant("minimal polynomial is not irreducible")
        m[k], m[pivot] = m[pivot], m[k]
        mkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (row_i[j] * mkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = mkk
    t = m[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        acc = t * m[i][n] - sum(m[i][j] * y[j] for j in range(i + 1, n))
        y[i] = acc // m[i][i]
    return y, t


class FieldContext:
    """The real cyclotomic field Q(2cos(pi/N)) with decidable sign.

    Construct through :func:`make_field_context`.  Fixed at construction
    except for two lazily grown caches: the interval ladder (appended
    to) and cos(pi/m) values.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InvalidLabel(f"N must be >= 1, got {n}")
        # phi(m) >= sqrt(m/2): refuse N past 4 * budget^2 before factoring
        if n > 4 * MAX_FIELD_DEGREE ** 2:
            raise InvalidGroupSpec(
                f"the field Q(2cos(pi/{n})) has degree at least sqrt({n})/2, "
                f"over the field-degree budget of {MAX_FIELD_DEGREE}")
        expected = _euler_phi(2 * n) // 2 if n >= 2 else 1
        if expected > MAX_FIELD_DEGREE:
            raise InvalidGroupSpec(
                f"the field Q(2cos(pi/{n})) has degree {expected}, over the "
                f"field-degree budget of {MAX_FIELD_DEGREE}")
        self.N = n
        self.minpoly = self._build_minpoly(n)
        self.degree = d = len(self.minpoly) - 1
        if self.degree != expected:
            raise InternalInvariant(
                f"degree {self.degree} != phi(2N)/2 for N={n}")
        # x^k mod minpoly for k = degree .. 2*degree-2, as integer vectors.
        self._power_table = self._build_power_table()
        self._ladder: list[tuple[Fraction, Fraction]] = [self._initial_interval()]
        self._cos_cache: dict[int, Scalar] = {}
        self._c_float = float(sum(self._ladder[0]) / 2)  # see generator_float
        # the float filter's constants; see sign()
        self._filter_scale = (4 * d + 4) * 2.0 ** -53
        self._filter_floor = math.ldexp(1.0, d - 960) if d <= 1983 else math.inf

    # -- construction -------------------------------------------------

    @staticmethod
    def _build_minpoly(n: int) -> tuple[int, ...]:
        """Minimal polynomial Psi of 2cos(pi/N), ascending integer coefficients.

        With c = y + 1/y, y = e^(i pi/N), y^D Psi(c) = Phi_2N(y) for D =
        phi(2N)/2 (Watkins & Zeitlin, Amer. Math. Monthly 100, 1993).  Phi_d
        is y^d - 1 divided by Phi_e for each proper divisor e of d; Phi_2N =
        sum a_k y^k is palindromic, so Psi = a_D + sum_{j>=1} a_(D+j) D_j.
        (For N = 1, Phi_2 = y + 1 has odd degree; Psi = x + 2.)  The result
        is verified by exact division into D_N + 2 (which vanishes at every
        2cos(pi k/N) with k odd).
        """
        if n == 1:
            coeffs = (2, 1)
        else:
            cyclotomic: dict[int, list[int]] = {}
            for d in (d for d in range(1, 2 * n + 1) if 2 * n % d == 0):
                poly = [-1] + [0] * (d - 1) + [1]
                for e, phi_e in cyclotomic.items():
                    if d % e == 0:
                        poly, _ = _poly_divmod_int(poly, phi_e)
                cyclotomic[d] = poly
            phi = cyclotomic[2 * n]
            half = (len(phi) - 1) // 2
            psi = [phi[half]] + [0] * half
            for j in range(1, half + 1):
                for i, t in enumerate(_chebyshev_like(j)):
                    psi[i] += phi[half + j] * t
            coeffs = tuple(psi)
        target = _chebyshev_like(n)
        target[0] += 2
        _, rem = _poly_divmod_int(target, coeffs)
        if rem:
            raise InternalInvariant(
                f"candidate minimal polynomial for N={n} failed exact division")
        return coeffs

    def _build_power_table(self) -> list[tuple[int, ...]]:
        d = self.degree
        # x^d = -(a_0 + a_1 x + ... + a_{d-1} x^{d-1})
        table = [tuple(-c for c in self.minpoly[:d])]
        for _ in range(d - 2):
            self._extend_power_table(table)
        return table

    def _extend_power_table(self, table: list[tuple[int, ...]]) -> None:
        cur = table[-1]
        nxt = [0, *cur[:-1]]
        top = cur[-1]
        if top:
            for i in range(self.degree):
                nxt[i] -= top * self.minpoly[i]
        table.append(tuple(nxt))

    def _initial_interval(self) -> tuple[Fraction, Fraction]:
        """Isolating interval for c = 2cos(pi/N) among the conjugates.

        c is the largest root of the minimal polynomial, so an interval
        (lo, 2] with exactly one root is certified by minpoly(lo) < 0 <
        minpoly(2) once lo separates c from the next conjugate down; their
        midpoint in doubles does, as the gap is at least 2.6e-3 (N = 175).
        """
        if self.degree == 1:
            c = Fraction(-self.minpoly[0])
            return (c, c)
        n = self.N
        k0, k1 = [k for k in range(1, n + 1) if gcd(k, 2 * n) == 1][:2]
        mid = math.cos(math.pi * k0 / n) + math.cos(math.pi * k1 / n)
        lo = math.floor(mid * 2**40)
        if not (_dyadic_sign(self.minpoly, lo, 40) < 0
                and _dyadic_sign(self.minpoly, 2, 0) > 0):
            raise InternalInvariant("failed to certify the isolating interval")
        return self._bisect_to(Fraction(lo, 2**40), Fraction(2),
                               _INITIAL_BITS)

    def _bisect_to(self, lo: Fraction, hi: Fraction,
                   bits: int) -> tuple[Fraction, Fraction]:
        """Halve the dyadic interval (lo, hi] around c to width 2^-bits.

        Both ends are kept as integers a, b over one power 2^k, so the
        midpoint of a step is a + b over 2^(k+1) and its sign is taken in
        integers (:func:`_dyadic_sign`).
        """
        k = max(lo.denominator, hi.denominator).bit_length() - 1
        a = lo.numerator << (k - lo.denominator.bit_length() + 1)
        b = hi.numerator << (k - hi.denominator.bit_length() + 1)
        while (b - a) << bits > 1 << k:
            mid, a, b, k = a + b, 2 * a, 2 * b, k + 1
            v = _dyadic_sign(self.minpoly, mid, k)
            if v == 0:  # only possible when c itself is hit; collapse
                return (Fraction(mid, 1 << k),) * 2
            if v < 0:
                a = mid
            else:
                b = mid
        return (Fraction(a, 1 << k), Fraction(b, 1 << k))

    # -- scalar constructors -------------------------------------------

    def from_rational(self, q: RationalLike) -> "Scalar":
        if type(q) is int:
            num, den = q, 1
        else:
            q = Fraction(q)
            num, den = q.numerator, q.denominator
        return Scalar(self, (num,) + (0,) * (self.degree - 1), den)

    @property
    def zero(self) -> "Scalar":
        return self.from_rational(0)

    @property
    def one(self) -> "Scalar":
        return self.from_rational(1)

    def generator(self) -> "Scalar":
        """The element c = 2cos(pi/N)."""
        if self.degree == 1:
            return self.from_rational(-self.minpoly[0])
        return Scalar(self, (0, 1) + (0,) * (self.degree - 2))

    def cos_pi_over(self, m: int) -> "Scalar":
        """Exact cos(pi/m) as an element of this field.

        m = 1 and m = 2 are rational (-1 and 0); otherwise m must divide N.
        """
        if m in self._cos_cache:
            return self._cos_cache[m]
        if m < 1:
            raise InvalidLabel(f"cos(pi/m) needs m >= 1, got {m}")
        if m == 1:
            val = self.from_rational(-1)
        elif m == 2:
            val = self.zero
        else:
            if self.N % m != 0:
                raise OutOfField(f"cos(pi/{m}) is not in Q(2cos(pi/{self.N}))")
            k = self.N // m
            c = self.generator()
            prev, cur = self.from_rational(2), c
            for _ in range(k - 1):
                prev, cur = cur, c * cur - prev
            val = cur / self.from_rational(2)
        self._cos_cache[m] = val
        return val

    # -- integer polynomial arithmetic ----------------------------------

    def _reduce(self, vec: list[int]) -> list[int]:
        """An integer polynomial reduced mod the (monic) minimal polynomial."""
        d = self.degree
        out = vec[:d] + [0] * (d - len(vec[:d]))
        table = self._power_table
        for k in range(d, len(vec)):
            c = vec[k]
            if c:
                while k - d >= len(table):
                    self._extend_power_table(table)
                for i, t in enumerate(table[k - d]):
                    out[i] += c * t
        return out

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        prod = [0] * (2 * self.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return self._reduce(prod)

    def _inverse(self, num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
        """Canonical (num, den) of the inverse of num/den."""
        n0 = num[0]
        if not any(num[1:]):
            if n0 == 0:
                raise ZeroDivisionError("scalar division by zero")
            return (den if n0 > 0 else -den,) + num[1:], abs(n0)
        # column j of the matrix of multiplication by num is num * c^j; its
        # solution x for the right-hand side 1 is 1 / num
        d = self.degree
        cols = [self._reduce([0] * j + list(num)) for j in range(d)]
        rows = [[cols[j][i] for j in range(d)] + [int(i == 0)]
                for i in range(d)]
        y, t = _solve_fraction_free(rows)
        if t < 0:
            y, t = [-v for v in y], -t
        inv = _normalized(self, [v * den for v in y], t)
        return inv.num, inv.den

    # -- sign determination ----------------------------------------------

    def sign(self, num: Sequence[int], den: int = 1) -> int:
        """Exact sign of v = sum(num[i] * c^i) / den, den > 0; 0 iff num is zero.

        ``num`` holds integer numerators, as in :class:`Scalar`.

        1. Rational values (every entry past the constant zero) take the
           sign of num[0]; this includes zero and every degree-1 field.
        2. A double-precision filter.  Let u = 2^-53, a_i = num[i] / den,
           f_i = fl(a_i) (correctly rounded, so f_i = a_i(1 + e), |e| <= u)
           and c' = generator_float() (within one ulp, |c'/c - 1| <= 2u).
           Horner gives v' from the f_i and M' from the |f_i|.  In the
           standard model each term a_i c^i of v' carries at most 2d - 1
           rounding factors from Horner, one from f_i and 2(d - 1) units from
           c'^i, so |v' - v| <= g M + E and M' >= (1 - g) M, where
           M = sum |a_i| c^i, g = (4d - 2)u / (1 - (4d - 2)u), and E <
           2^(d - 1075) bounds products that underflow (additions that
           underflow are exact).  The sign of v' is therefore the sign of v
           whenever |v'| > g M' / (1 - g) + E.  The test used is
           |v'| > fl((4d + 4) u M') >= (4d + 4) u (1 - u) M', which exceeds
           g M' / (1 - g) by more than 5u M' for d < 2^20.  Requiring
           M' >= 2^(d - 960) (so d <= 1983) keeps that product normal and
           E below 2^-115 M'.  The filter falls through to the exact path
           when an f_i is non-finite (OverflowError), when a nonzero
           numerator rounds to zero or to a subnormal, or when the test
           fails.
        3. Exact rational interval Horner on the ladder (:meth:`_sign_exact`).
        """
        n0 = num[0]
        if not any(num[1:]):
            return (n0 > 0) - (n0 < 0)
        c = self._c_float
        acc = mag = 0.0
        try:
            for n in reversed(num):
                f = n / den
                if n and -_MIN_NORMAL < f < _MIN_NORMAL:
                    return self._sign_exact(num)
                acc = acc * c + f
                mag = mag * c + abs(f)
        except OverflowError:
            return self._sign_exact(num)
        if mag >= self._filter_floor and abs(acc) > self._filter_scale * mag:
            return 1 if acc > 0 else -1
        return self._sign_exact(num)

    def _sign_exact(self, num: Sequence[int]) -> int:
        """Sign of a nonzero, irrational sum num[i] c^i by interval refinement.

        Level k of the ladder isolates c in an interval of width
        w <= 2^-(64 * 2^k) with |endpoints| <= 2.  Interval Horner on
        integers n_i then returns an interval containing v of width at most
        d S 2^d w, S = sum |n_i|.  Since v is a nonzero algebraic integer,
        its norm is a nonzero integer, and every other conjugate is at most
        T = sum |n_i| 2^i in absolute value (all conjugates of c lie in
        (-2, 2)), so |v| >= T^-(d-1).  Once w < T^-(d-1) / (d S 2^d) the
        interval excludes zero; the ladder is refined until then, so the
        loop always ends with a sign.
        """
        target = None
        level = 0
        while True:
            bits = _INITIAL_BITS << level
            if level == len(self._ladder):
                lo, hi = self._ladder[-1]
                self._ladder.append(self._bisect_to(lo, hi, bits))
            lo, hi = self._ladder[level]
            vlo, vhi = _interval_eval(num, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if target is None:
                d = self.degree
                s = sum(abs(n) for n in num)
                t = sum(abs(n) << i for i, n in enumerate(num))
                target = ((d - 1) * t.bit_length() + (d * s).bit_length()
                          + d + 1)
            if bits >= target:
                raise InternalInvariant(
                    "interval refinement past the separation bound did not "
                    "exclude zero")
            level += 1

    # -- float approximations ---------------------------------------------

    def generator_float(self) -> float:
        """c within one ulp: the rounded midpoint of the first ladder interval
        (width <= 2^-64; c >= sqrt(2) whenever the degree is 2 or more)."""
        return self._c_float

    def __repr__(self) -> str:
        return f"FieldContext(N={self.N}, degree={self.degree})"


def _normalized(ctx: FieldContext, num: Sequence[int], den: int) -> "Scalar":
    """The Scalar num/den (den > 0) with the common factor divided out."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return Scalar(ctx, tuple(n // g for n in num), den // g)
    return Scalar(ctx, tuple(num), den)


class Scalar:
    """An element of Q(2cos(pi/N)): sum(num[i] * c^i) / den in canonical form.

    ``num`` is a tuple of ``ctx.degree`` ints, ``den`` a positive int, and
    gcd(den, *num) == 1.  Immutable value type; arithmetic operators work
    between scalars of the same context and with ints/Fractions.
    """

    __slots__ = ("ctx", "num", "den", "_hash", "_sign")

    def __init__(self, ctx: FieldContext, num: tuple[int, ...], den: int = 1):
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash: int | None = None
        self._sign: int | None = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, c, c^2, ... as Fractions (read-only view)."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                raise ValueError("scalars from different field contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def _combine(self, o: "Scalar", sign: int) -> "Scalar":
        """self + sign * o."""
        da, db = self.den, o.den
        if da == db:
            num = [a + sign * b for a, b in zip(self.num, o.num)]
        else:
            num = [a * db + sign * b * da for a, b in zip(self.num, o.num)]
            da *= db
        return _normalized(self.ctx, num, da)

    def __add__(self, other):
        o = (other if type(other) is Scalar and other.ctx is self.ctx
             else self._coerce(other))
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = (other if type(other) is Scalar and other.ctx is self.ctx
             else self._coerce(other))
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(self.ctx, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = (other if type(other) is Scalar and other.ctx is self.ctx
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not any(b[1:]):
            k = b[0]
            num = [x * k for x in a]
        elif not any(a[1:]):
            k = a[0]
            num = [k * y for y in b]
        else:
            num = self.ctx._mul(a, b)
        return _normalized(self.ctx, num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """1 / self; raises ZeroDivisionError on zero."""
        return Scalar(self.ctx, *self.ctx._inverse(self.num, self.den))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return self.ctx.one / self ** (-k)
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return (self.ctx is other.ctx and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == other
        return NotImplemented

    def __hash__(self) -> int:
        # the hash of the Fraction coefficient vector; rational values hash
        # like their Fraction so == across types agrees
        if self._hash is None:
            num, den = self.num, self.den
            if any(num[1:]):
                self._hash = hash(num if den == 1 else self.coeffs)
            else:
                self._hash = hash(num[0] if den == 1 else Fraction(num[0], den))
        return self._hash

    def sign(self) -> int:
        if self._sign is None:
            self._sign = self.ctx.sign(self.num, self.den)
        return self._sign

    def is_zero(self) -> bool:
        return not any(self.num)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self) -> float:
        c = self.ctx.generator_float()
        den = self.den
        acc = 0.0
        for n in reversed(self.num):
            acc = acc * c + n / den
        return acc

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if not any(coeffs[1:]):
            return str(coeffs[0])
        terms = []
        for i, a in enumerate(coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append(f"{a}*c")
            else:
                terms.append(f"{a}*c^{i}")
        return " + ".join(terms)


_context_cache: dict[int, FieldContext] = {}


def make_field_context(finite_labels: Iterable[int]) -> FieldContext:
    """Field context for N = lcm of the labels contributing irrationalities.

    Labels must be integers >= 2.  Labels equal to 2 contribute cos(pi/2) = 0
    and need no field extension, so they are dropped from the lcm; an empty
    contribution yields N = 1, plain rational arithmetic.  A field of degree
    above ``MAX_FIELD_DEGREE`` raises ``InvalidGroupSpec``.
    """
    n = 1
    for label in finite_labels:
        if not isinstance(label, int) or label < 2:
            raise InvalidLabel(f"edge label must be an integer >= 2, got {label!r}")
        if label > 2:
            n = n * label // gcd(n, label)
    if n not in _context_cache:
        _context_cache[n] = FieldContext(n)
    return _context_cache[n]
