"""Exact arithmetic in real quartic number fields Q[t]/(m(t)).

Elements are polynomials of degree < 4 in the field generator t with
rational coefficients, reduced modulo a monic irreducible quartic m.
Which real root of m the generator denotes is pinned by an isolating
interval; signs and float embeddings are decided by refining that
interval with exact rational bisection, so no comparison ever depends
on floating-point luck.

All values are immutable and operations are pure; sharing fields and
elements across threads is safe (interval refinement is monotone and
idempotent).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction (ascending coefficient lists)
# ---------------------------------------------------------------------------


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: Sequence[Fraction]) -> list[Fraction]:
    return _poly_trim([c * i for i, c in enumerate(p)][1:])


def _poly_divmod(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = _poly_trim(a)
    while len(r) >= len(b):
        coef = r[-1] / b[-1]
        deg = len(r) - len(b)
        q[deg] = coef
        for i, c in enumerate(b):
            r[deg + i] -= coef * c
        _poly_trim(r)
    return _poly_trim(q), r


def _poly_sub_scaled(a: list[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = list(a)
    if len(out) < len(b):
        out += [Fraction(0)] * (len(b) - len(out))
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def _sturm_chain(p: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [_poly_trim(list(p)), _poly_deriv(p)]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain: Iterable[Sequence[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_real_roots(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi], via Sturm's theorem."""
    chain = _sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _is_irreducible_monic_quartic(coeffs: Sequence[Fraction]) -> bool:
    """Irreducibility over Q of a monic integer quartic (ascending coeffs)."""
    c0, c1, c2, c3 = (int(coeffs[i]) for i in range(4))
    # linear factor: integer root dividing the constant term
    if c0 == 0:
        return False
    bound = abs(c0)
    for r in range(1, bound + 1):
        if c0 % r == 0:
            for root in (r, -r):
                if root**4 + c3 * root**3 + c2 * root**2 + c1 * root + c0 == 0:
                    return False
    # split into two monic integer quadratics (x^2+ux+v)(x^2+wx+z)
    divisors = [d for d in range(1, abs(c0) + 1) if c0 % d == 0]
    pairs = [(v, c0 // v) for v in divisors] + [(-v, -(c0 // v)) for v in divisors]
    for v, z in pairs:
        # u + w = c3, u*w = c2 - v - z, u*z + v*w = c1
        s, prod = c3, c2 - v - z
        disc = s * s - 4 * prod
        if disc < 0:
            continue
        rd = math.isqrt(disc)
        if rd * rd != disc or (s + rd) % 2 != 0:
            continue
        for u in {(s + rd) // 2, (s - rd) // 2}:
            w = s - u
            if u * z + v * w == c1:
                return False
    return True


# ---------------------------------------------------------------------------
# interval arithmetic for the real embedding
# ---------------------------------------------------------------------------


def _monomial_bounds(lo: Fraction, hi: Fraction, j: int) -> tuple[Fraction, Fraction]:
    if j == 0:
        return Fraction(1), Fraction(1)
    cands = [lo**j, hi**j]
    if lo < 0 < hi and j % 2 == 0:
        cands.append(Fraction(0))
    return min(cands), max(cands)


def _interval_eval(
    coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    acc_lo = acc_hi = Fraction(0)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        blo, bhi = _monomial_bounds(lo, hi, j)
        if c > 0:
            acc_lo += c * blo
            acc_hi += c * bhi
        else:
            acc_lo += c * bhi
            acc_hi += c * blo
    return acc_lo, acc_hi


_MAX_REFINE_STEPS = 20000


class QuarticField:
    """A real quartic number field Q[t]/(m(t)) with a designated real root.

    minimal_polynomial: 5 ascending integer coefficients, monic, irreducible.
    root_interval: rational (lo, hi) isolating exactly one real root of m.
    Construct each field once and share it; two fields compare equal only
    when both the polynomial and the original isolating interval agree.
    """

    def __init__(
        self,
        minimal_polynomial: Sequence[RationalLike],
        root_interval: tuple[RationalLike, RationalLike],
        tag: Optional[str] = None,
    ):
        coeffs = tuple(_frac(c) for c in minimal_polynomial)
        if len(coeffs) != 5 or coeffs[4] != 1:
            raise ValueError("minimal polynomial must be monic of degree 4")
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("minimal polynomial must have integer coefficients")
        if not _is_irreducible_monic_quartic(coeffs[:4]):
            raise ValueError("minimal polynomial is reducible over Q")
        lo, hi = _frac(root_interval[0]), _frac(root_interval[1])
        if not lo < hi:
            raise ValueError("root interval must satisfy lo < hi")
        poly = list(coeffs)
        if _poly_eval(poly, lo) == 0 or _poly_eval(poly, hi) == 0:
            raise ValueError("interval endpoints must not be roots")
        if _count_real_roots(poly, lo, hi) != 1:
            raise ValueError("root interval must isolate exactly one real root")
        self.minimal_polynomial = coeffs
        self.root_interval = (lo, hi)
        self.tag = tag
        self._lo, self._hi = lo, hi
        self._sign_lo = 1 if _poly_eval(poly, lo) > 0 else -1
        # reduction rows for t^4, t^5, t^6 as degree-<4 coefficient tuples
        t4 = tuple(-coeffs[i] for i in range(4))
        t5 = self._shift_reduce(t4)
        t6 = self._shift_reduce(t5)
        self._red = (t4, t5, t6)

    def _shift_reduce(self, row: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        # multiply a degree-<4 representative by t and reduce again
        carry = row[3]
        shifted = (Fraction(0), row[0], row[1], row[2])
        t4 = tuple(-self.minimal_polynomial[i] for i in range(4))
        return tuple(shifted[i] + carry * t4[i] for i in range(4))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuarticField):
            return NotImplemented
        return (
            self.minimal_polynomial == other.minimal_polynomial
            and self.root_interval == other.root_interval
        )

    def __hash__(self) -> int:
        return hash((self.minimal_polynomial, self.root_interval))

    def __repr__(self) -> str:
        if self.tag:
            return f"QuarticField({self.tag})"
        return f"QuarticField({[str(c) for c in self.minimal_polynomial]})"

    # -- element constructors ----------------------------------------------

    def element(self, *coeffs: RationalLike) -> "FieldElement":
        cs = tuple(_frac(c) for c in coeffs)
        if len(cs) > 4:
            raise ValueError("at most 4 coefficients")
        cs = cs + (Fraction(0),) * (4 - len(cs))
        return FieldElement(self, cs)

    def from_rational(self, r: RationalLike) -> "FieldElement":
        return self.element(_frac(r))

    @property
    def zero(self) -> "FieldElement":
        return self.element()

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    @property
    def t(self) -> "FieldElement":
        return self.element(0, 1)

    # -- designated-root refinement ------------------------------------------

    def _refine_once(self) -> None:
        lo, hi = self._lo, self._hi
        mid = (lo + hi) / 2
        val = _poly_eval(self.minimal_polynomial, mid)
        if val == 0:
            raise RuntimeError("rational root of an irreducible quartic")
        if (1 if val > 0 else -1) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid


@dataclass(frozen=True)
class FieldElement:
    """c0 + c1*t + c2*t^2 + c3*t^3 with rational coefficients."""

    field: QuarticField
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 4:
            raise ValueError("exactly 4 coefficients required")

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other: object) -> Optional["FieldElement"]:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFieldError(
                    f"operands from different fields: {self.field!r} vs {other.field!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        prod = [Fraction(0)] * 7
        for i in range(4):
            if a[i] == 0:
                continue
            for j in range(4):
                if b[j] != 0:
                    prod[i + j] += a[i] * b[j]
        out = list(prod[:4])
        for d in range(4, 7):
            if prod[d] != 0:
                row = self.field._red[d - 4]
                for i in range(4):
                    out[i] += prod[d] * row[i]
        return FieldElement(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        m = list(self.field.minimal_polynomial)
        r0, r1 = m, _poly_trim(list(self.coeffs))
        # track u so that u * self == r (mod m)
        u0: list[Fraction] = []
        u1: list[Fraction] = [Fraction(1)]
        while len(r1) > 1:
            q, rem = _poly_divmod(r0, r1)
            # u_next = u0 - q*u1
            qu = [Fraction(0)] * (len(q) + len(u1))
            for i, qc in enumerate(q):
                if qc == 0:
                    continue
                for j, uc in enumerate(u1):
                    qu[i + j] += qc * uc
            u_next = _poly_sub_scaled(u0, qu)
            r0, r1, u0, u1 = r1, rem, u1, u_next
        if not r1:
            raise ArithmeticError("element shares a factor with the minimal polynomial")
        const = r1[0]
        inv = [c / const for c in u1]
        inv += [Fraction(0)] * (4 - len(inv))
        # reduce in case deg(u) crept above 3 (it cannot for deg<4 inputs, but be safe)
        result = self.field.element(*inv[:4])
        check = result * self
        assert check == self.field.one, "inverse self-check failed"
        return result

    def __truediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- real embedding ----------------------------------------------------------

    def _interval(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        lo, hi = self.field._lo, self.field._hi
        elo, ehi = _interval_eval(self.coeffs, lo, hi)
        steps = 0
        while ehi - elo > max_width:
            self.field._refine_once()
            lo, hi = self.field._lo, self.field._hi
            elo, ehi = _interval_eval(self.coeffs, lo, hi)
            steps += 1
            if steps > _MAX_REFINE_STEPS:
                raise RuntimeError("interval evaluation failed to converge")
        return elo, ehi

    def sign(self) -> int:
        """-1, 0, or +1 for the real embedding; exact, never float-based."""
        if self.is_zero:
            return 0
        elo, ehi = _interval_eval(self.coeffs, self.field._lo, self.field._hi)
        steps = 0
        while elo <= 0 <= ehi:
            self.field._refine_once()
            elo, ehi = _interval_eval(
                self.coeffs, self.field._lo, self.field._hi
            )
            steps += 1
            if steps > _MAX_REFINE_STEPS:
                raise RuntimeError("sign refinement failed to converge")
        return 1 if elo > 0 else -1

    def to_float(self) -> float:
        """Real embedding within 2**-64 (plus one double rounding)."""
        elo, ehi = self._interval(Fraction(1, 2**64))
        return float((elo + ehi) / 2)

    def __abs__(self) -> "FieldElement":
        return -self if self.sign() < 0 else self

    def __repr__(self) -> str:
        c = self.coeffs
        return f"<{c[0]} + {c[1]} t + {c[2]} t^2 + {c[3]} t^3>"


# ---------------------------------------------------------------------------
# square roots in biquadratic quartic fields
# ---------------------------------------------------------------------------

_LPair = tuple[Fraction, Fraction]  # u0 + u1*theta, theta = t^2


def _l_mul(x: _LPair, y: _LPair, p: Fraction, q: Fraction) -> _LPair:
    return (
        x[0] * y[0] - q * x[1] * y[1],
        x[0] * y[1] + x[1] * y[0] - p * x[1] * y[1],
    )


def _l_div(x: _LPair, y: _LPair, p: Fraction, q: Fraction) -> _LPair:
    conj = (y[0] - p * y[1], -y[1])
    norm = _l_mul(y, conj, p, q)
    assert norm[1] == 0
    if norm[0] == 0:
        raise ZeroDivisionError("division by zero in quadratic subfield")
    num = _l_mul(x, conj, p, q)
    return (num[0] / norm[0], num[1] / norm[0])


def _l_sqrt(g: _LPair, p: Fraction, q: Fraction) -> Optional[_LPair]:
    """A square root of g in Q(theta) with theta^2 + p*theta + q = 0, or None."""
    disc = p * p - 4 * q  # theta = (-p + sqrt(disc))/2, sqrt(disc) = 2*theta + p
    a = g[0] - g[1] * p / 2
    b = g[1] / 2  # g = a + b*sqrt(disc)
    if b == 0:
        r = rational_sqrt(a)
        if r is not None:
            return (r, Fraction(0))
        if disc != 0:
            r = rational_sqrt(a / disc)
            if r is not None:
                # r*sqrt(disc) = r*p + 2r*theta
                return (r * p, 2 * r)
        return None
    n = a * a - b * b * disc
    s = rational_sqrt(n)
    if s is None:
        return None
    for ss in (s, -s):
        alpha2 = (a + ss) / 2
        if alpha2 < 0:
            continue
        alpha = rational_sqrt(alpha2)
        if alpha is None or alpha == 0:
            continue
        beta = b / (2 * alpha)
        if alpha * alpha + beta * beta * disc == a and 2 * alpha * beta == b:
            return (alpha + beta * p, 2 * beta)
    return None


def field_sqrt(a: FieldElement) -> Optional[FieldElement]:
    """The non-negative square root of a in its own field, or None.

    Complete for biquadratic minimal polynomials: if a root exists in the
    field, it is found; None is a proof of non-membership, not a give-up.
    """
    fld = a.field
    m = fld.minimal_polynomial
    if m[1] != 0 or m[3] != 0:
        raise NotImplementedError(
            "square roots are implemented for biquadratic minimal polynomials only"
        )
    if a.is_zero:
        return fld.zero
    if a.sign() < 0:
        return None
    p, q = m[2], m[0]
    theta: _LPair = (Fraction(0), Fraction(1))
    big_a: _LPair = (a.coeffs[0], a.coeffs[2])
    big_b: _LPair = (a.coeffs[1], a.coeffs[3])

    def as_element(x: _LPair, y: _LPair) -> FieldElement:
        return fld.element(x[0], y[0], x[1], y[1])

    candidates: list[FieldElement] = []
    if big_b == (Fraction(0), Fraction(0)):
        h = _l_sqrt(big_a, p, q)
        if h is not None:
            candidates.append(as_element(h, (Fraction(0), Fraction(0))))
        h = _l_sqrt(_l_div(big_a, theta, p, q), p, q)
        if h is not None:
            candidates.append(as_element((Fraction(0), Fraction(0)), h))
    else:
        disc = tuple(
            x - y
            for x, y in zip(
                _l_mul(big_a, big_a, p, q),
                _l_mul(_l_mul(big_b, big_b, p, q), theta, p, q),
            )
        )
        r = _l_sqrt(disc, p, q)  # type: ignore[arg-type]
        if r is not None:
            for rr in (r, (-r[0], -r[1])):
                half = ((big_a[0] + rr[0]) / 2, (big_a[1] + rr[1]) / 2)
                ca = _l_sqrt(half, p, q)
                if ca is None or ca == (Fraction(0), Fraction(0)):
                    continue
                cb = _l_div(big_b, (2 * ca[0], 2 * ca[1]), p, q)
                candidates.append(as_element(ca, cb))
    for e in candidates:
        if e * e == a:
            return -e if e.sign() < 0 else e
    return None


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

# Q(5^(1/4)): t^4 = 5, designated root 1.4953...; contains sqrt(5) = t^2
# and the golden ratio (1 + t^2)/2.
F1 = QuarticField((-5, 0, 0, 0, 1), (1, 2), tag="F1")

# Q(sqrt(sqrt(3)-1)): t^4 + 2 t^2 - 2 = 0, designated root 0.8556...;
# contains sqrt(3) = t^2 + 1.  Reduction rule: t^4 = 2 - 2 t^2.
F2 = QuarticField((-2, 0, 2, 0, 1), (Fraction(1, 2), 1), tag="F2")

FIELD_BY_TAG = {"F1": F1, "F2": F2}
