"""Independent stdlib oracle for subgroup pairs in PGL(2, F_p).

It never imports galoispairs. Matrices act on row vectors, (s, t) -> (s, t)A,
and a class is the 4-tuple scaled so that its first nonzero entry is 1.
Group kinds come from the element-order tally: a subgroup of PGL(2, p) of
order coprime to p is cyclic, dihedral, A4, S4 or A5 (Dickson), and within
that list the tally tells them apart.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

ALT4 = {1: 1, 2: 3, 3: 8}
SYM4 = {1: 1, 2: 9, 3: 8, 4: 6}
ALT5 = {1: 1, 2: 15, 3: 20, 5: 24}


def canon(p, m):
    """Class of the 2x2 matrix m, given as 4 ints or as [[a, b], [c, d]]."""
    if len(m) == 2:
        (a, b), (c, d) = m
    else:
        a, b, c, d = m
    a, b, c, d = a % p, b % p, c % p, d % p
    if (a * d - b * c) % p == 0:
        raise ValueError(f"singular matrix {m} mod {p}")
    lead = next(v for v in (a, b, c, d) if v)
    u = pow(lead, -1, p)
    return (a * u % p, b * u % p, c * u % p, d * u % p)


def mul(p, A, B):
    """Class of A*B, which acts as A first, then B."""
    a, b, c, d = A
    e, f, g, h = B
    return canon(p, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


def inv(p, A):
    a, b, c, d = A
    return canon(p, (d, -b, -c, a))


def conj(p, A, C):
    """C^-1 A C."""
    return mul(p, mul(p, inv(p, C), A), C)


def order(p, A):
    one = (1, 0, 0, 1)
    M, n = A, 1
    while M != one:
        M = mul(p, M, A)
        n += 1
        if n > p + 1:
            raise ValueError(f"{A} has order above p+1 mod {p}")
    return n


def closure(p, gens, cap=5000):
    """Element set of the group the generators make."""
    gens = [canon(p, g) for g in gens]
    els = {(1, 0, 0, 1)}
    frontier = list(els)
    while frontier:
        new = []
        for B in frontier:
            for A in gens:
                C = mul(p, B, A)
                if C not in els:
                    els.add(C)
                    new.append(C)
        if len(els) > cap:
            raise ValueError(f"closure above {cap} elements mod {p}")
        frontier = new
    return frozenset(els)


def points(p):
    """(0:1) first, then (1:t) for t = 0..p-1."""
    return [(0, 1)] + [(1, t) for t in range(p)]


def apply(p, Q, A):
    s, t = Q
    a, b, c, d = A
    u, v = (s * a + t * c) % p, (s * b + t * d) % p
    return (0, 1) if u == 0 else (1, v * pow(u, -1, p) % p)


def orbit(p, G, Q):
    return frozenset(apply(p, Q, A) for A in G)


def tally(p, G):
    return dict(Counter(order(p, A) for A in G))


def _cyclic_tally(n):
    return dict(Counter(n // gcd(n, k) for k in range(n)))


def kind(p, G):
    """Kind name in the CLI's spelling: C<n>, D<n>, A4, S4, A5 or Other(<n>)."""
    n = len(G)
    t = tally(p, G)
    if n in t or n == 1:
        return f"C{n}"
    if n % 2 == 0 and n >= 4:
        dihedral = _cyclic_tally(n // 2)
        dihedral[2] = dihedral.get(2, 0) + n // 2
        if t == dihedral:
            return f"D{n}"
    for name, ref in (("A4", ALT4), ("S4", SYM4), ("A5", ALT5)):
        if t == ref:
            return name
    return f"Other({n})"


def pair_verdict(p, G1, G2):
    """The criterion at every base point: "pass" iff the groups differ,
    share their order, meet only in the identity, and every point's two
    orbits are equal and regular."""
    d = len(G1)
    if G1 == G2 or len(G2) != d or len(G1 & G2) != 1:
        return "fail"
    for Q in points(p):
        o1 = orbit(p, G1, Q)
        if len(o1) != d or o1 != orbit(p, G2, Q):
            return "fail"
    return "pass"


def pair_facts(p, gens1, gens2):
    """What a check-pair --all-basepoints certificate must report."""
    G1, G2 = closure(p, gens1), closure(p, gens2)
    o1 = orbit(p, G1, (0, 1))
    return {
        "p": p,
        "degree": len(G1),
        "kind1": kind(p, G1),
        "kind2": kind(p, G2),
        "intersection_size": len(G1 & G2),
        "orbit_length": len(o1),
        "orbit_equal": o1 == orbit(p, G2, (0, 1)),
        "verdict": pair_verdict(p, G1, G2),
    }


def scaling_conjugates(p, gen):
    """Scalars c in 2..p-2 whose conjugate of the regular cyclic group
    <gen> by diag(c, 1) meets it only in the identity; for a regular group
    each such conjugate also passes the criterion at (0:1)."""
    G = closure(p, [gen])
    out = []
    for c in range(2, p):
        D = canon(p, (c, 0, 0, 1))
        H = frozenset(conj(p, A, D) for A in G)
        if len(G & H) == 1:
            out.append(c)
    return out


def check_certificate(cert, p, kind1, kind2):
    """Problems with a search certificate for (p, kind1, kind2); [] if none."""
    problems = []
    g1 = [canon(p, m) for m in cert["g1"]]
    g2 = [canon(p, m) for m in cert["g2"]]
    facts = pair_facts(p, g1, g2)
    want = {"p": p, "kind1": kind1, "kind2": kind2, "intersection_size": 1,
            "orbit_equal": True, "verdict": "pass"}
    want["degree"] = want["orbit_length"] = facts["degree"]
    for key, value in want.items():
        if facts[key] != value:
            problems.append(f"oracle: {key} is {facts[key]!r}, wanted {value!r}")
        if cert.get(key) != value:
            problems.append(f"certificate: {key} is {cert.get(key)!r}, wanted {value!r}")
    return problems
