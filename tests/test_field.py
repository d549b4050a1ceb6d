import pytest

from galoispairs import PrimeField, ZeroInverse, is_prime


def xgcd_inverse(a: int, p: int) -> int:
    """Independent extended-Euclid oracle for modular inverses."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def naive_pow(a: int, e: int, p: int) -> int:
    out = 1
    for _ in range(e):
        out = out * a % p
    return out


def test_primality_validated_at_construction():
    for bad in (0, 1, 4, 9, 57, 91):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in (2, 3, 11, 23, 59, 101):
        assert PrimeField(good).p == good


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == primes


def test_inverse_examples():
    assert PrimeField(11).inv(1) == 1
    assert PrimeField(23).inv(2) == xgcd_inverse(2, 23) == 12
    assert PrimeField(23).inv(3) == xgcd_inverse(3, 23) == 8


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        PrimeField(11).inv(0)
    with pytest.raises(ZeroInverse):
        PrimeField(11).inv(22)


def test_pow_examples():
    F = PrimeField(23)
    for a in range(1, 23):
        assert F.pow(a, 0) == 1
    assert F.pow(5, 7) == naive_pow(5, 7, 23) == 17
    assert PrimeField(11).pow(2, 10) == naive_pow(2, 10, 11) == 1


def test_pow_negative_exponent():
    F = PrimeField(23)
    for a in range(1, 23):
        assert F.pow(a, -1) == F.inv(a)
        assert F.pow(a, -3) == F.pow(F.inv(a), 3)
    with pytest.raises(ZeroInverse):
        F.pow(0, -1)


@pytest.mark.parametrize("p,expected", [(11, 2), (23, 5), (59, 2)])
def test_primitive_elements_match_reference(p, expected):
    assert PrimeField(p).primitive_element() == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 23, 59])
def test_primitive_element_generates_all_units(p):
    F = PrimeField(p)
    g = F.primitive_element()
    powers = {F.pow(g, e) for e in range(1, p)}
    assert powers == set(range(1, p))
    # smallest such generator
    for smaller in range(2, g):
        assert {pow(smaller, e, p) for e in range(1, p)} != set(range(1, p))


@pytest.mark.parametrize("p", [5, 7, 11, 23, 59])
def test_inverse_involution_and_fermat_exhaustive(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert F.inv(F.inv(a)) == a
        assert a * F.inv(a) % p == 1
        assert F.pow(a, p - 1) == 1


def nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod an odd prime p."""
    e = (p - 1) // 2
    r = 2
    while pow(r, e, p) == 1:
        r += 1
    return r


def test_nonresidue():
    # -1 is a non-residue exactly for p = 3 mod 4, making r minimal there
    for p in (11, 23, 59):
        r = nonresidue(p)
        assert pow(r, (p - 1) // 2, p) == p - 1
        squares = {a * a % p for a in range(1, p)}
        assert r == min(set(range(2, p)) - squares)
