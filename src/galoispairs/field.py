"""Facts about a prime modulus p: primality, prime factors and the
primitive root of p.

The prime itself is a plain int, and so are field elements, kept in the
canonical range [0, p); callers compute on them with % p and the built-in
pow.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic trial-division test; adequate for moduli below 2**31."""
    return n >= 2 and prime_factors(n) == [n]


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


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p, p an odd prime.

    Order is certified by checking g**((p-1)/q) != 1 for every prime
    q dividing p-1.
    """
    if p < 3:
        raise ValueError(f"no primitive root mod {p}: p must be an odd prime")
    n = p - 1
    checks = [n // q for q in prime_factors(n)]
    g = 2
    while any(pow(g, e, p) == 1 for e in checks):
        g += 1
    return g
