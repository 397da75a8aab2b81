"""Exact quartic field arithmetic: axioms, the integer representation,
embeddings, square roots."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereflow.field import (
    F1,
    F2,
    FieldElement,
    MixedFieldError,
    QuarticField,
    field_sqrt,
    parse_element,
    rational_sqrt,
    serialize_element,
)


def bisect_root(poly, lo, hi, steps=220):
    """Independent oracle: bisect a sign change of poly with exact rationals."""
    lo, hi = Fraction(lo), Fraction(hi)

    def ev(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    slo = ev(lo)
    assert slo * ev(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        v = ev(mid)
        if v == 0:
            return mid
        if (v > 0) == (slo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


T1_ORACLE = bisect_root([-5, 0, 0, 0, 1], 1, 2)  # 5**(1/4)
T2_ORACLE = bisect_root([-2, 0, 2, 0, 1], Fraction(1, 2), 1)  # sqrt(sqrt(3)-1)

ORACLE_BRACKETS = {
    "F1": ([-5, 0, 0, 0, 1], 1, 2),
    "F2": ([-2, 0, 2, 0, 1], Fraction(1, 2), 1),
}


def oracle_embedding(a):
    """sum c_i T**i within 2**-74 of a's embedding, T from bisect_root.

    With |c_i| < 2**bits, |T - t| <= 2**-steps and t < 2, the error is at
    most sum |c_i| * i * 2**(i-1) * 2**-steps < 2**(bits + 6 - steps).
    """
    poly, lo, hi = ORACLE_BRACKETS[a.field.tag]
    bits = max(
        c.numerator.bit_length() - c.denominator.bit_length() + 1 for c in a.coeffs
    )
    root = bisect_root(poly, lo, hi, steps=max(bits, 0) + 80)
    return sum(c * root**i for i, c in enumerate(a.coeffs))


small_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=50
)


def f1_elements():
    return st.tuples(*(small_rationals,) * 4).map(lambda cs: F1.element(*cs))


def f2_elements():
    return st.tuples(*(small_rationals,) * 4).map(lambda cs: F2.element(*cs))


FIELDS = (F1, F2, QuarticField((1, 0, -10, 0, 1)))

coefficient_tuples = st.tuples(*(small_rationals,) * 4)


# -- basic identities -------------------------------------------------------


def test_generator_satisfies_minimal_polynomial():
    t = F1.t
    assert t**4 == F1.element(5)
    u = F2.t
    assert u**4 == F2.element(2) - 2 * u * u


def test_golden_ratio_identity():
    phi = (F1.one + F1.t**2) / 2
    assert phi * phi == phi + 1
    assert abs(phi.to_float() - (1 + 5**0.5) / 2) < 1e-12


def test_sqrt5_and_sqrt3_squares():
    sqrt5 = F1.t**2
    assert sqrt5 * sqrt5 == F1.element(5)
    sqrt3 = F2.t**2 + 1
    assert sqrt3 * sqrt3 == F2.element(3)


def test_to_float_against_bisection_oracle():
    assert abs(F1.t.to_float() - float(T1_ORACLE)) < 1e-15
    assert abs(F2.t.to_float() - float(T2_ORACLE)) < 1e-15


def test_inverse_of_generator():
    # 1/t = t^3/5 in F1
    inv = F1.t.inverse()
    assert inv == F1.element(0, 0, 0, Fraction(1, 5))
    assert inv * F1.t == F1.one


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F1.zero.inverse()


def test_mixed_field_operations_raise():
    with pytest.raises(MixedFieldError):
        F1.t + F2.t
    with pytest.raises(MixedFieldError):
        F1.t * F2.t
    assert F1.one != F2.one


def test_elements_equal_the_rationals_they_coerce_to():
    assert F1.one == 1 and F1.zero == 0 and F1.one != 2
    assert 1 == F1.one and F1.t != 0
    assert F1.one / 2 == Fraction(1, 2)
    assert hash(F1.one) == hash(1)
    assert hash(F1.one / 2) == hash(Fraction(1, 2))
    assert len({F1.one, 1}) == 1


def test_sign_exactness():
    t = F1.t
    sqrt5 = t * t
    # 2 phi - 1 = sqrt5, so this difference is exactly zero
    phi = (F1.one + sqrt5) / 2
    assert (2 * phi - 1 - sqrt5).sign() == 0
    assert (t - Fraction(3, 2)).sign() == -1
    assert (t - Fraction(149, 100)).sign() == 1
    assert (t - Fraction(3, 2)).__abs__().sign() == 1


def test_field_construction_rejects_bad_inputs():
    for poly, reason in [
        ((-4, 0, 0, 0, 1), "reducible"),  # (t^2 - 2)(t^2 + 2)
        ((4, 0, 0, 0, 1), "reducible"),  # (t^2 + 2t + 2)(t^2 - 2t + 2)
        ((1, 0, -6, 0, 1), "reducible"),  # (t^2 + 2t - 1)(t^2 - 2t - 1)
        ((2, 0, 2, 0, 1), "no real root"),
        ((1, 1, 0, 0, 1), "biquadratic"),  # irreducible t^4 + t + 1
        ((Fraction(1, 2), 0, 0, 0, 1), "integer"),
        ((-5, 0, 0, 0, 2), "monic"),
        ((-5, 0, 1), "degree 4"),
    ]:
        with pytest.raises(ValueError, match=reason):
            QuarticField(poly)


def test_field_identity_and_designated_root():
    assert QuarticField((-5, 0, 0, 0, 1)) == F1
    assert hash(QuarticField((-5, 0, 0, 0, 1))) == hash(F1)
    # t^4 - 10 t^2 + 1 has the real roots +-sqrt2 +- sqrt3; t is the largest
    fld = QuarticField((1, 0, -10, 0, 1))
    assert abs(fld.t.to_float() - (2**0.5 + 3**0.5)) < 1e-15
    assert (fld.t - Fraction(3146, 1000)).sign() == 1
    assert (fld.t - Fraction(3147, 1000)).sign() == -1


@pytest.mark.parametrize("n", [100, 200, 300])
def test_to_float_of_tiny_elements_with_huge_coefficients(n):
    phi = (F1.one + F1.t**2) / 2
    two_minus_sqrt3 = 1 - F2.t**2  # 2 - sqrt3
    for a in ((phi**n).inverse(), two_minus_sqrt3**n):
        assert abs(Fraction(a.to_float()) - oracle_embedding(a)) < Fraction(1, 2**64)


# -- field axioms (property-based) ------------------------------------------


@given(f1_elements(), f1_elements(), f1_elements())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(f2_elements())
def test_additive_inverse(a):
    assert a + (-a) == F2.zero


@given(f1_elements())
def test_multiplicative_inverse(a):
    if not a.is_zero:
        assert a * a.inverse() == F1.one


@given(f1_elements(), f1_elements())
def test_sign_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()


@given(st.one_of(f1_elements(), f2_elements()))
def test_sign_against_bisection_oracle(a):
    # a minus a rational near it leaves a tiny value whose A and B parts
    # have opposite signs, which the comparison of squares must decide
    for b in (a, a - Fraction(a.to_float())):
        if b.is_zero:
            assert b.sign() == 0
            continue
        v = oracle_embedding(b)
        assert abs(v) > Fraction(1, 2**74)
        assert b.sign() == (1 if v > 0 else -1)


@given(f1_elements(), f1_elements())
@settings(max_examples=40)
def test_float_embedding_respects_product(a, b):
    lhs = (a * b).to_float()
    rhs = a.to_float() * b.to_float()
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(f2_elements())
def test_serialization_round_trip(a):
    assert parse_element(serialize_element(a), F2) == a


# -- the integer representation ---------------------------------------------

def reference_product(x, y, fld):
    """Fraction coefficients of x*y: the degree-6 product, then each t^d
    for d = 6, 5, 4 rewritten as t^(d-4) (-q - p t^2)."""
    q, _, p, _, _ = fld.minimal_polynomial
    prod = [Fraction(0)] * 7
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += Fraction(a) * Fraction(b)
    for d in (6, 5, 4):
        c, prod[d] = prod[d], Fraction(0)
        prod[d - 4] -= q * c
        prod[d - 2] -= p * c
    return tuple(prod[:4])


@given(st.sampled_from(FIELDS), coefficient_tuples, coefficient_tuples)
def test_ring_operations_match_a_fraction_reference(fld, x, y):
    a, b = fld.element(*x), fld.element(*y)
    assert (a + b).coeffs == tuple(u + v for u, v in zip(x, y))
    assert (a - b).coeffs == tuple(u - v for u, v in zip(x, y))
    assert (-a).coeffs == tuple(-u for u in x)
    assert (a * b).coeffs == reference_product(x, y, fld)


@given(st.sampled_from(FIELDS), coefficient_tuples, st.integers(1, 60))
def test_equal_values_share_one_representation(fld, x, k):
    a = fld.element(*x)
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    assert all(type(c) is Fraction for c in a.coeffs)
    assert a.coeffs == tuple(Fraction(c) for c in x)
    # the same value reached through other denominators
    inv_k = Fraction(1, k)
    for b in (a * k * fld.element(inv_k), a + fld.element(inv_k) - inv_k):
        assert (b.den, b.num) == (a.den, a.num)
        assert b == a and hash(b) == hash(a)
    zero = a - a
    assert (zero.den, zero.num) == (1, (0, 0, 0, 0)) == (fld.zero.den, fld.zero.num)
    assert hash(zero) == hash(fld.zero)


def test_elements_are_kept_in_lowest_terms():
    a = FieldElement(F1, -12, (6, 0, -9, 3))
    assert (a.den, a.num) == (4, (-2, 0, 3, -1))
    assert a.coeffs == (Fraction(-1, 2), 0, Fraction(3, 4), Fraction(-1, 4))
    assert (F2.element(Fraction(0, 7)).den, F2.element().num) == (1, (0, 0, 0, 0))
    with pytest.raises(ZeroDivisionError):
        FieldElement(F1, 0, (1, 0, 0, 0))


def test_serialization_text_is_the_reduced_coefficients():
    a = F1.element(Fraction(2, 4), 0, Fraction(-6, 8), 2)
    assert serialize_element(a) == "1/2,0/1,-3/4,2/1"
    assert serialize_element(a * 4) == "2/1,0/1,-3/1,8/1"
    assert serialize_element(F2.zero) == "0/1,0/1,0/1,0/1"


# -- square roots -----------------------------------------------------------


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_field_sqrt_known_values():
    # sqrt(5) = t^2 in F1
    assert field_sqrt(F1.element(5)) == F1.t**2
    # sqrt(3) = t^2+1 in F2
    assert field_sqrt(F2.element(3)) == F2.t**2 + 1
    # sqrt(sqrt(3)-1) = t in F2
    assert field_sqrt(F2.t**2) == F2.t
    # (2-sqrt3)/2 = ((sqrt3-1)/2)^2
    sqrt3 = F2.t**2 + 1
    v = (2 - sqrt3) / 2
    assert field_sqrt(v) == (sqrt3 - 1) / 2


def test_field_sqrt_rejects_non_members():
    assert field_sqrt(F2.element(2)) is None  # sqrt2 not in F2
    assert field_sqrt(F2.element(Fraction(1, 2))) is None
    assert field_sqrt(F1.element(-1)) is None
    assert field_sqrt((F2.t**2 + 1) / 2) is None  # sqrt(sqrt3/2) not in F2


@pytest.mark.parametrize(
    "fld, square, root",
    [
        # found only through the second candidate, 2 alpha^2 = x - s
        (F1, (29, 2, 5, 0), (-2, 2, 1, 1)),
        (F2, (14, 4, 4, 4), (0, 4, 1, 1)),
        # the norm to Q(theta) is a square, yet no root exists
        (F1, (7, 4, 3, 2), None),
        (F2, (2, 4, 2, 0), None),
        # a root in Q(theta) t
        (F1, (0, 0, 9, 0), (0, 3, 0, 0)),
        (F2, (0, 0, 9, 0), (0, 3, 0, 0)),
    ],
)
def test_field_sqrt_branches(fld, square, root):
    expected = None if root is None else fld.element(*root)
    assert field_sqrt(fld.element(*square)) == expected


@given(st.sampled_from(FIELDS), coefficient_tuples)
@settings(max_examples=60)
def test_field_sqrt_of_squares(fld, x):
    a = fld.element(*x)
    r = field_sqrt(a * a)
    assert r is not None
    assert r * r == a * a
    assert r.sign() >= 0
