"""The prime field F_p: a validated modulus and its primitive element.

Field elements are plain Python ints kept in the canonical range [0, p);
callers compute on them with % p and the built-in pow.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic trial-division test; adequate for moduli below 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class PrimeField:
    """The field F_p for a validated prime p."""

    __slots__ = ("p", "_primitive")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self._primitive: int | None = None

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group.

        Order is certified by checking g**((p-1)/q) != 1 for every prime
        q dividing p-1.
        """
        if self.p < 3:
            raise ValueError("multiplicative group of F_2 is trivial")
        if self._primitive is None:
            n = self.p - 1
            checks = [n // q for q in prime_factors(n)]
            g = 2
            while any(pow(g, e, self.p) == 1 for e in checks):
                g += 1
            self._primitive = g
        return self._primitive
