"""Exact arithmetic in real biquadratic number fields Q[t]/(t^4 + p t^2 + q).

An element is (n0 + n1 t + n2 t^2 + n3 t^3) / den: four integers over
one positive denominator, in lowest terms after one gcd (the form of
Cohen, A Course in Computational Algebraic Number Theory, 4.2).  Sums
and products are integer expressions, reduced by t^4 = -q - p t^2.
Each field is a tower of two quadratic steps, Q < Q(theta) < Q(t): theta
is the larger root of theta^2 + p theta + q = 0 and t = sqrt(theta) > 0
is the largest real root of the minimal polynomial, so den times an
element is A + B t with A = n0 + n2 theta and B = n1 + n3 theta.  Signs
compare squares one step at a time, a square root takes the same
quadratic step at both levels, inverses multiply by the conjugate
A - B t, and float embeddings come from integer square roots at a
precision chosen from the coefficients, so no comparison ever depends
on floating-point luck.  Fields and elements never change once built.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[int, Fraction]


class MixedFieldError(ValueError):
    """Raised when an operation mixes elements of different fields."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if it is not rational."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _is_reducible_biquadratic(p: int, q: int) -> bool:
    """Whether t^4 + p t^2 + q factors over Q (Kappe & Warren 1989).

    It splits as (t^2 + v)(t^2 + w) exactly when p^2 - 4q is a square,
    and as (t^2 + u t + r)(t^2 - u t + r) exactly when q = r^2 and
    2r - p = u^2 for one sign of r.
    """
    if _is_square(p * p - 4 * q):
        return True
    if not _is_square(q):
        return False
    r = math.isqrt(q)
    return _is_square(2 * r - p) or _is_square(-2 * r - p)


def _sgn(x: RationalLike) -> int:
    return (x > 0) - (x < 0)


def _radical_sign(sx: int, sy: int, gap: Callable[[], int]) -> int:
    """Sign of x + y*r for an irrational r > 0 over the field of x and y.

    sx and sy are the signs of x and y; gap() is the sign of
    x^2 - y^2 r^2, asked for only when sx and sy disagree.
    """
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if gap() > 0 else sy


# ---------------------------------------------------------------------------
# the quadratic subfield Q(theta), theta^2 + p theta + q = 0
# ---------------------------------------------------------------------------

_LPair = tuple[int, int]  # u0 + u1*theta


def _l_mul(x: _LPair, y: _LPair, p: int, q: int) -> _LPair:
    return (
        x[0] * y[0] - q * x[1] * y[1],
        x[0] * y[1] + x[1] * y[0] - p * x[1] * y[1],
    )


def _l_sign(u: _LPair, p: int, disc: int) -> int:
    """Sign of u0 + u1*theta = (2 u0 - p u1 + u1 sqrt(disc)) / 2."""
    x, y = 2 * u[0] - p * u[1], u[1]
    return _radical_sign(_sgn(x), _sgn(y), lambda: _sgn(x * x - y * y * disc))


def _tower_norm(a: _LPair, b: _LPair, p: int, q: int) -> _LPair:
    """A^2 - B^2 theta, the norm of A + B t down to Q(theta)."""
    a2 = _l_mul(a, a, p, q)
    b2 = _l_mul(_l_mul(b, b, p, q), (0, 1), p, q)  # B^2 theta
    return (a2[0] - b2[0], a2[1] - b2[1])


def _tower(c: Sequence[int]) -> tuple[_LPair, _LPair]:
    """(A, B) with sum c_i t^i = A + B t, both in Q(theta)."""
    return (c[0], c[2]), (c[1], c[3])


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------


class QuarticField:
    """A real field Q[t]/(t^4 + p t^2 + q), t its largest real root.

    minimal_polynomial: 5 ascending integer coefficients (q, 0, p, 0, 1),
    irreducible over Q and with a real root.  Construct each field once
    and share it; two fields compare equal when their polynomials do.
    """

    def __init__(
        self, minimal_polynomial: Sequence[RationalLike], *, tag: Optional[str] = None
    ):
        coeffs = tuple(_frac(c) for c in minimal_polynomial)
        if len(coeffs) != 5 or coeffs[4] != 1:
            raise ValueError("minimal polynomial must be monic of degree 4")
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("minimal polynomial must have integer coefficients")
        if coeffs[1] != 0 or coeffs[3] != 0:
            raise ValueError("minimal polynomial must be biquadratic t^4 + p t^2 + q")
        p, q = coeffs[2].numerator, coeffs[0].numerator
        if _is_reducible_biquadratic(p, q):
            raise ValueError("minimal polynomial is reducible over Q")
        # irreducible, so disc is not a square; for disc > 0 the larger
        # theta = (-p + sqrt(disc))/2 is real, and positive (t real)
        # unless p >= 0 and q > 0
        disc = p * p - 4 * q
        if disc < 0 or (p >= 0 and q > 0):
            raise ValueError("minimal polynomial has no real root")
        self.minimal_polynomial, self.tag = coeffs, tag
        self._p, self._q, self._disc = p, q, disc
        # each of _scaled_powers' roundings stays below 2 (t + theta + 1)
        # <= 3 (theta + 1), and theta <= |p| + sqrt|q| <= |p| + |q|
        self._slack_bits = (3 * (abs(p) + abs(q) + 1)).bit_length()
        self.zero, self.one, self.t = (
            FieldElement(self, 1, n) for n in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        )

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuarticField):
            return NotImplemented
        return self.minimal_polynomial == other.minimal_polynomial

    def __hash__(self) -> int:
        return hash(self.minimal_polynomial)

    def __repr__(self) -> str:
        if self.tag:
            return f"QuarticField({self.tag})"
        return f"QuarticField({[str(c) for c in self.minimal_polynomial]})"

    # -- element constructors ----------------------------------------------

    def element(self, *coeffs: RationalLike) -> "FieldElement":
        cs = [_frac(c) for c in coeffs]
        if len(cs) > 4:
            raise ValueError("at most 4 coefficients")
        den = math.lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        return FieldElement(self, den, num + [0] * (4 - len(cs)))

    # -- real embedding ------------------------------------------------------

    def _scaled_powers(self, n: int) -> tuple[int, int, int, int]:
        """t^i * 2**n for i = 0..3, each within 2**_slack_bits."""
        # floor(theta * 4**n) to within 3/2
        big = (math.isqrt(self._disc << (4 * n)) - (self._p << (2 * n))) >> 1
        t1 = math.isqrt(big)
        t2 = big >> n
        return (1 << n, t1, t2, (t1 * t2) >> n)


class FieldElement:
    """(n0 + n1 t + n2 t^2 + n3 t^3) / den in lowest terms, den > 0.

    Zero is (1, (0, 0, 0, 0)); equal values have equal den and num.
    """

    __slots__ = ("field", "den", "num")

    def __init__(self, field: QuarticField, den: int, num: Sequence[int]):
        if not den:
            raise ZeroDivisionError("field element with zero denominator")
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        self.field = field
        self.den = den // g
        self.num = tuple(c // g for c in num) if g != 1 else tuple(num)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The four rational coefficients of 1, t, t^2, t^3, reduced."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __eq__(self, other: object) -> bool:
        # an int or Fraction compares as the element it coerces to, as in
        # arithmetic; elements of two fields are never equal
        try:
            o = self._coerce(other)
        except MixedFieldError:
            return False
        return NotImplemented if o is None else (self.num, self.den) == (o.num, o.den)

    def __hash__(self) -> int:
        n0, n1, n2, n3 = self.num
        if not (n1 or n2 or n3):
            # equal to the rational n0/den, so it must hash as that does
            return hash(Fraction(n0, self.den))
        return hash((self.field, self.den, self.num))

    def _coerce(self, other: object) -> Optional["FieldElement"]:
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise MixedFieldError(
                    f"operands from different fields: {self.field!r} vs {other.field!r}"
                )
            return other
        return self.field.element(other) if isinstance(other, (int, Fraction)) else None

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        num = tuple(a * db + b * da for a, b in zip(self.num, o.num))
        return FieldElement(self.field, da * db, num)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.den, tuple(-a for a in self.num))

    def __sub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fld = self.field
        p, q = fld._p, fld._q
        a0, a1, a2, a3 = self.num
        b0, b1, b2, b3 = o.num
        # product coefficients of t^4 and t^5, with t^6 = -q t^2 - p t^4
        # already folded in; then t^4 = -q - p t^2 and t^5 = -q t - p t^3
        t6 = a3 * b3
        t5 = a2 * b3 + a3 * b2
        t4 = a1 * b3 + a2 * b2 + a3 * b1 - p * t6
        num = (
            a0 * b0 - q * t4,
            a0 * b1 + a1 * b0 - q * t5,
            a0 * b2 + a1 * b1 + a2 * b0 - q * t6 - p * t4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - p * t5,
        )
        return FieldElement(fld, self.den * o.den, num)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """1/(A + B t) = (A - B t) / (A^2 - B^2 theta)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        fld = self.field
        p, q = fld._p, fld._q
        # self = (A + B t) / den with A, B integral in Q(theta); N is the
        # norm to Q(theta) and N * conj(N) = n an integer, so
        # 1/self = den (A - B t) conj(N) / n
        a, b = _tower(self.num)
        norm = _tower_norm(a, b, p, q)
        conj = (norm[0] - p * norm[1], -norm[1])
        n = _l_mul(norm, conj, p, q)[0]
        ia, ib = _l_mul(a, conj, p, q), _l_mul(b, conj, p, q)
        d = self.den
        result = FieldElement(fld, n, (d * ia[0], -d * ib[0], d * ia[1], -d * ib[1]))
        assert result * self == fld.one, "inverse self-check failed"
        return result

    def __truediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out, base = self.field.one, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- real embedding ----------------------------------------------------------

    def sign(self) -> int:
        """-1, 0, or +1 for the real embedding; exact, never float-based."""
        fld = self.field
        p, q, disc = fld._p, fld._q, fld._disc
        a, b = _tower(self.num)  # den * self, den > 0
        return _radical_sign(
            _l_sign(a, p, disc),
            _l_sign(b, p, disc),
            lambda: _l_sign(_tower_norm(a, b, p, q), p, disc),
        )

    def to_float(self) -> float:
        """Real embedding within 2**-64 (plus one double rounding)."""
        den, num = self.den, self.num
        if self.is_zero:
            return 0.0
        # |c_i| < 2**bits and each scaled power is off by < 2**_slack_bits,
        # so the sum is off by < 2**(bits + 2 + _slack_bits - n) <= 2**-64;
        # bits reads each coefficient c/den in lowest terms
        bits = max(
            (c // g).bit_length() - (den // g).bit_length() + 1
            for c in num
            if c
            for g in (math.gcd(c, den),)
        )
        n = 66 + max(bits, 0) + self.field._slack_bits
        total = sum(k * tp for k, tp in zip(num, self.field._scaled_powers(n)))
        return total / (den << n)

    def __abs__(self) -> "FieldElement":
        return -self if self.sign() < 0 else self

    def __repr__(self) -> str:
        c = self.coeffs
        return f"<{c[0]} + {c[1]} t + {c[2]} t^2 + {c[3]} t^3>"


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------


def _quadratic_sqrt(
    x: FieldElement,
    y: FieldElement,
    d: FieldElement,
    root_d: FieldElement,
    base_sqrt: Callable[[FieldElement], Optional[FieldElement]],
) -> Optional[FieldElement]:
    """A square root of x + y root_d, where root_d^2 = d, or None.

    x, y and d lie in a subfield where base_sqrt finds a root of every
    square, and root_d is not in it.  A root alpha + beta root_d has
    x = alpha^2 + beta^2 d and y = 2 alpha beta, and its norm
    alpha^2 - beta^2 d squares to x^2 - y^2 d.  So w = 2 alpha^2 is
    x + s for one of the two roots s of that norm, and the root is
    (w + y root_d) / sqrt(2 w).
    """
    if y.is_zero:  # the root is alpha or beta root_d
        alpha = base_sqrt(x)
        if alpha is not None:
            return alpha
        beta = base_sqrt(x / d)
        return None if beta is None else beta * root_d
    s = base_sqrt(x * x - y * y * d)
    if s is None:
        return None
    for w in (x + s, x - s):
        two_alpha = base_sqrt(w + w)  # nonzero: w = 0 only when y = 0
        if two_alpha is not None:
            return (w + y * root_d) / two_alpha
    return None


def field_sqrt(a: FieldElement) -> Optional[FieldElement]:
    """The non-negative square root of a in its own field, or None.

    Complete: if a root exists in the field, it is found; None is a proof
    of non-membership, not a give-up.  One _quadratic_sqrt step finds it
    over Q(theta), with root_d = t, and the same step over Q finds each
    root in Q(theta), with root_d = 2 theta + p = sqrt(disc).
    """
    fld = a.field
    if a.is_zero:
        return fld.zero
    if a.sign() < 0:
        return None
    disc = FieldElement(fld, 1, (fld._disc, 0, 0, 0))
    sqrt_disc = FieldElement(fld, 1, (fld._p, 0, 2, 0))

    def rational_root(x: FieldElement) -> Optional[FieldElement]:
        r = rational_sqrt(Fraction(x.num[0], x.den))
        return None if r is None else fld.element(r)

    def theta_root(u: FieldElement) -> Optional[FieldElement]:
        # u = (n0 + n2 theta)/den = x + y sqrt(disc), as 2 theta = sqrt(disc) - p
        n0, n2, den = u.num[0], u.num[2], u.den
        x = FieldElement(fld, 2 * den, (2 * n0 - fld._p * n2, 0, 0, 0))
        y = FieldElement(fld, 2 * den, (n2, 0, 0, 0))
        return _quadratic_sqrt(x, y, disc, sqrt_disc, rational_root)

    n0, n1, n2, n3 = a.num  # den a = A + B t, A and B in Q(theta), theta = t^2
    big_a = FieldElement(fld, a.den, (n0, 0, n2, 0))
    big_b = FieldElement(fld, a.den, (n1, 0, n3, 0))
    root = _quadratic_sqrt(big_a, big_b, fld.t * fld.t, fld.t, theta_root)
    if root is None:
        return None
    root = -root if root.sign() < 0 else root
    assert root * root == a, "square-root self-check failed"
    return root


# ---------------------------------------------------------------------------
# textual serialization
# ---------------------------------------------------------------------------


def serialize_element(a: FieldElement) -> str:
    """Four comma-separated rationals, each as numerator/denominator."""
    return ",".join(f"{c.numerator}/{c.denominator}" for c in a.coeffs)


_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def parse_rational(text: str) -> Fraction:
    """An integer or numerator/denominator; ValueError for anything else."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_element(text: str, field: QuarticField) -> FieldElement:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated rationals, got {text!r}")
    return field.element(*(parse_rational(p) for p in parts))


# ---------------------------------------------------------------------------
# built-in fields
# ---------------------------------------------------------------------------

# Q(5^(1/4)): t^4 = 5, t = 1.4953...; contains sqrt(5) = t^2 and the
# golden ratio (1 + t^2)/2.
F1 = QuarticField((-5, 0, 0, 0, 1), tag="F1")

# Q(sqrt(sqrt(3)-1)): t^4 + 2 t^2 - 2 = 0, t = 0.8556...; contains
# sqrt(3) = t^2 + 1.  Reduction rule: t^4 = 2 - 2 t^2.
F2 = QuarticField((-2, 0, 2, 0, 1), tag="F2")

FIELD_BY_TAG = {"F1": F1, "F2": F2}
