import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galoispairs import Poly, RationalFunction, is_prime
from conftest import compose_frac, power_sum, reduced_fraction, vanishing_poly


def schoolbook_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def random_poly(rng, p, max_deg):
    return Poly(p, [rng.randrange(p) for _ in range(rng.randrange(max_deg + 1))])


def test_construction_trims_and_reduces():
    p = 11
    assert Poly(p, [12, 22, 0, 0]).coeffs == (1,)
    assert Poly(p, [0, 0]).is_zero
    assert Poly(p, []).degree == -1
    assert Poly(p, [-1]).coeffs == (10,)
    assert Poly(11, [1]) != Poly(13, [1])


def test_mul_matches_schoolbook_small_and_large_modulus():
    rng = random.Random(5)
    big = next(n for n in range(2 ** 25 + 1, 2 ** 25 + 200) if is_prime(n))
    for p in (11, big):
        for _ in range(30):
            a = random_poly(rng, p, 9)
            b = random_poly(rng, p, 9)
            want = schoolbook_mul(list(a.coeffs), list(b.coeffs), p)
            assert list((a * b).coeffs) == want


# 2 and 3 pack into one- or two-byte slots, 679093949 and 2**31 - 1 into
# slots of eight bytes or more
MUL_PRIMES = [2, 3, 11, 679093949, 2 ** 31 - 1]


@st.composite
def mul_operands(draw):
    p = draw(st.sampled_from(MUL_PRIMES))

    def coeffs():
        n = draw(st.integers(0, 200))
        if draw(st.booleans()):
            # every product coefficient at its largest, so every slot is full
            return [p - 1] * n
        return draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))

    return p, coeffs(), coeffs()


@settings(max_examples=150, deadline=None)
@given(mul_operands())
def test_mul_matches_schoolbook(operands):
    p, a, b = operands
    assert list((Poly(p, a) * Poly(p, b)).coeffs) == schoolbook_mul(a, b, p)


def test_divmod_property():
    rng = random.Random(6)
    p = 23
    for _ in range(60):
        f = random_poly(rng, p, 9)
        g = random_poly(rng, p, 5)
        if g.is_zero:
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_gcd_contains_common_factor():
    rng = random.Random(7)
    p = 23
    for _ in range(40):
        h = random_poly(rng, p, 4)
        if h.degree < 1:
            continue
        f = random_poly(rng, p, 4) * h
        g = random_poly(rng, p, 4) * h
        if f.is_zero or g.is_zero:
            continue
        d = f.gcd(g)
        assert d.lead == 1
        assert (d % h.monic()).is_zero or d.degree >= h.degree
        _, rem = f.divmod(d)
        assert rem.is_zero


def derivative(P):
    return Poly(P.p, [k * c for k, c in enumerate(P.coeffs)][1:])


def test_derivative():
    p = 11
    f = Poly(p, [5, 4, 3, 2])  # 5 + 4t + 3t^2 + 2t^3
    assert list(derivative(f).coeffs) == [4, 6, 6]
    # in characteristic p, (t^p)' = 0
    tp = Poly(p, [0] * 11 + [1])
    assert derivative(tp).is_zero


def test_compose_frac():
    p = 11
    t = Poly(p, [0, 1])
    # the identity matrix clears to P itself
    f = Poly(p, [3, 1, 4])
    assert compose_frac(f, 2, (1, 0, 0, 1)) == f
    # P(t) = t under [[a,b],[c,d]] gives b + d t at clearing exponent 1
    assert compose_frac(t, 1, (2, 3, 5, 7)) == Poly(p, [3, 7])
    # clearing exponent above the degree multiplies by powers of (a + c t)
    assert compose_frac(t, 2, (2, 3, 5, 7)) == Poly(p, [3, 7]) * Poly(p, [2, 5])


def test_vanishing_poly():
    p = 11
    v = vanishing_poly(p, [1, 2, 3])
    assert v.lead == 1 and v.degree == 3
    for t in (1, 2, 3):
        assert power_sum(v, t) == 0
    assert power_sum(v, 4) != 0


def test_rational_function_reduction_and_monic_denominator():
    # reduced_fraction divides out the gcd; the constructor only makes the
    # denominator monic
    p = 11
    num = Poly(p, [-1, 0, 1])   # t^2 - 1
    den = Poly(p, [-1, 1])      # t - 1
    f = reduced_fraction(num, den)
    assert f.num == Poly(p, [1, 1]) and f.den == Poly(p, [1])
    g = RationalFunction(Poly(p, [1]), Poly(p, [0, 3]))
    assert g.den.lead == 1  # denominator scaled monic


def test_zero_polynomial_has_no_lead_and_is_no_denominator():
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        Poly(11, []).lead
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction(Poly(11, [1]), Poly(11, []))


def test_rational_function_degree():
    p = 11
    f = RationalFunction(Poly(p, [0, 0, 1]), Poly(p, [1, 1]))
    assert f.degree == 2


# a small field, and one whose products pack into slots of eight bytes or more
PROPERTY_PRIMES = (11, 679093949)


@st.composite
def polys_over(draw, count):
    p = draw(st.sampled_from(PROPERTY_PRIMES))
    coeffs = st.lists(st.integers(0, p - 1), max_size=30)
    return [Poly(p, draw(coeffs)) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(polys_over(3))
def test_ring_laws(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a - b) + b == a


@settings(max_examples=80, deadline=None)
@given(polys_over(2))
def test_divmod_reconstructs(ab):
    a, b = ab
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=80, deadline=None)
@given(polys_over(3))
def test_gcd_divides_both_and_is_monic(abc):
    a, b, c = abc
    g = a.gcd(b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g.lead == 1
    assert (a % g).is_zero and (b % g).is_zero
    # greatest: a common factor c multiplies the gcd
    if not c.is_zero:
        assert (a * c).gcd(b * c) == (g * c).monic()
