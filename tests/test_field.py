import pytest

from galoispairs import PrimeField, is_prime


def test_primality_validated_at_construction():
    for bad in (0, 1, 4, 9, 57, 91):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in (2, 3, 11, 23, 59, 101):
        assert PrimeField(good).p == good


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == primes


@pytest.mark.parametrize("p,expected", [(11, 2), (23, 5), (59, 2)])
def test_primitive_elements_match_reference(p, expected):
    assert PrimeField(p).primitive_element() == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 23, 59])
def test_primitive_element_generates_all_units(p):
    F = PrimeField(p)
    g = F.primitive_element()
    powers = {pow(g, e, p) for e in range(1, p)}
    assert powers == set(range(1, p))
    # smallest such generator
    for smaller in range(2, g):
        assert {pow(smaller, e, p) for e in range(1, p)} != set(range(1, p))


@pytest.mark.parametrize("p", [5, 7, 11, 23, 59])
def test_inverse_involution_and_fermat_exhaustive(p):
    # every nonzero residue mod an accepted modulus is a unit of order
    # dividing p - 1
    assert PrimeField(p).p == p
    for a in range(1, p):
        assert pow(pow(a, -1, p), -1, p) == a
        assert a * pow(a, -1, p) % p == 1
        assert pow(a, p - 1, p) == 1


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
