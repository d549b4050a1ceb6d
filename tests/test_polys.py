import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galoispairs import (INFINITY, Poly, PrimeField, RationalFunction,
                         is_prime, polys, projective_line)
from galoispairs.polys import vanishing_poly


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


def random_poly(rng, F, max_deg):
    return Poly(F, [rng.randrange(F.p) for _ in range(rng.randrange(max_deg + 1))])


def test_construction_trims_and_reduces():
    F = PrimeField(11)
    assert Poly(F, [12, 22, 0, 0]).coeffs == (1,)
    assert Poly(F, [0, 0]).is_zero
    assert Poly(F, []).degree == -1
    assert Poly(F, [-1]).coeffs == (10,)


def test_mul_matches_schoolbook_small_and_large_modulus():
    rng = random.Random(5)
    big = next(n for n in range(2 ** 25 + 1, 2 ** 25 + 200) if is_prime(n))
    for p in (11, big):
        F = PrimeField(p)
        for _ in range(30):
            a = random_poly(rng, F, 9)
            b = random_poly(rng, F, 9)
            want = schoolbook_mul(list(a.coeffs), list(b.coeffs), p)
            assert list((a * b).coeffs) == want


def test_numpy_mul_guard_at_its_int64_boundary(monkeypatch):
    # sums of 20 products of residues mod 679093949 fit in int64, 21 do not
    p = 679093949
    assert polys._fits_int64(20, p) and not polys._fits_int64(21, p)
    assert polys._fits_int64(8192, 33554393) and not polys._fits_int64(8193, 33554393)
    convolve = polys.np.convolve
    calls = []

    def spy(a, b):
        calls.append(len(a))
        return convolve(a, b)

    monkeypatch.setattr(polys.np, "convolve", spy)
    F = PrimeField(p)
    for n in (20, 21):
        top = Poly(F, [p - 1] * n)
        assert list((top * top).coeffs) == schoolbook_mul([p - 1] * n, [p - 1] * n, p)
    assert calls == [20]


def test_divmod_property():
    rng = random.Random(6)
    F = PrimeField(23)
    for _ in range(60):
        f = random_poly(rng, F, 9)
        g = random_poly(rng, F, 5)
        if g.is_zero:
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_gcd_contains_common_factor():
    rng = random.Random(7)
    F = PrimeField(23)
    for _ in range(40):
        h = random_poly(rng, F, 4)
        if h.degree < 1:
            continue
        f = random_poly(rng, F, 4) * h
        g = random_poly(rng, F, 4) * h
        if f.is_zero or g.is_zero:
            continue
        d = f.gcd(g)
        assert d.lead == 1
        assert (d % h.monic()).is_zero or d.degree >= h.degree
        _, rem = f.divmod(d)
        assert rem.is_zero


def test_eval_horner_vs_naive():
    F = PrimeField(59)
    f = Poly(F, [3, 0, 7, 1, 12])
    for t in range(59):
        naive = sum(c * t ** k for k, c in enumerate(f.coeffs)) % 59
        assert f.eval(t) == naive


def test_derivative():
    F = PrimeField(11)
    f = Poly(F, [5, 4, 3, 2])  # 5 + 4t + 3t^2 + 2t^3
    assert list(f.derivative().coeffs) == [4, 6, 6]
    # in characteristic p, (t^p)' = 0
    tp = Poly(F, [0] * 11 + [1])
    assert tp.derivative().is_zero


def test_compose_frac():
    F = PrimeField(11)
    t = Poly.x(F)
    # the identity matrix clears to P itself
    f = Poly(F, [3, 1, 4])
    assert f.compose_frac(2, (1, 0, 0, 1)) == f
    # P(t) = t under [[a,b],[c,d]] gives b + d t at clearing exponent 1
    assert t.compose_frac(1, (2, 3, 5, 7)) == Poly(F, [3, 7])
    # clearing exponent above the degree multiplies by powers of (a + c t)
    assert t.compose_frac(2, (2, 3, 5, 7)) == Poly(F, [3, 7]) * Poly(F, [2, 5])


def test_vanishing_poly():
    F = PrimeField(11)
    v = vanishing_poly(F, [1, 2, 3])
    assert v.lead == 1 and v.degree == 3
    for t in (1, 2, 3):
        assert v.eval(t) == 0
    assert v.eval(4) != 0


def test_rational_function_reduction_and_monic_denominator():
    F = PrimeField(11)
    num = Poly(F, [-1, 0, 1])   # t^2 - 1
    den = Poly(F, [-1, 1])      # t - 1
    f = RationalFunction(num, den)
    assert f.num == Poly(F, [1, 1]) and f.den == Poly(F, [1])
    g = RationalFunction(Poly(F, [1]), Poly(F, [0, 3]))
    assert g.den.lead == 1  # denominator scaled monic


def test_rational_function_evaluation():
    F = PrimeField(11)
    f = RationalFunction(Poly(F, [0, 1]), Poly(F, [10, 1]))  # t / (t - 1)
    assert f.eval_affine(0) == 0
    assert f.eval_affine(1) is INFINITY
    assert f.eval_affine(2) == 2
    assert f.eval_infinity() == 1
    h = RationalFunction(Poly(F, [0, 0, 1]), Poly(F, [1]))  # t^2
    assert h.eval_infinity() is INFINITY
    line = projective_line(11)
    assert h.eval_point(line.point(0, 1)) is INFINITY
    assert h.eval_point(line.point(1, 4)) == 5


def test_rational_function_degree():
    F = PrimeField(11)
    f = RationalFunction(Poly(F, [0, 0, 1]), Poly(F, [1, 1]))
    assert f.degree == 2
    assert f.reciprocal().degree == 2
    assert f.shift_value(3).degree == 2


# a small field, and one where products of 21 or more terms overflow int64,
# so that Poly.__mul__ takes both its numpy and its exact path
PROPERTY_PRIMES = (11, 679093949)


@st.composite
def polys_over(draw, count):
    F = PrimeField(draw(st.sampled_from(PROPERTY_PRIMES)))
    coeffs = st.lists(st.integers(0, F.p - 1), max_size=30)
    return [Poly(F, draw(coeffs)) for _ in range(count)]


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
