"""Bundled reference cases for characteristics 11, 23 and 59.

prime_table(p) holds the generator matrices, block systems and printed
class lists of characteristic p, and under "groups" the four groups G1, G2,
G3, G4, each built once per process: G4 is G1 conjugated by c, so it needs
no closure of its own. verify reads prime_table directly;
case_subgroups(p, label), the closed subgroup pair of case (p, label),
label "a", "b" or "c", is the accessor for library callers and tests.

Generator letters used throughout the tables and the verification harness:

    s, t, h, m  generators of the tetrahedral / octahedral / icosahedral
                group G1 (m only at p=23, where m = h^2)
    x           generator of the cyclic group G2 of order p+1
    f, r        flip and rotation generating the dihedral group G3
    c           the rescaling conjugator defining G4 = c-conjugate of G1

The p=23 block systems O (four 6-point blocks) and T (two 12-point blocks)
are plain tuples of frozensets of points, indexed as published.

Entries are written exactly as published (powers of the primitive element
alpha, signed representatives welcome) and reduced mod p on ingestion;
the published point tokens are decoded into points there too (_pt).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UnknownCase
from .projline import ProjectiveLine, ProjectivePoint, projective_line
from .subgroups import Subgroup, conjugate, generate_closure

PRIMES = (11, 23, 59)
LABELS = ("a", "b", "c")

INF = "inf"    # the point (0:1)
ZERO = "zero"  # the point (1:0)


def _pt(line: ProjectiveLine, alpha: int, token) -> ProjectivePoint:
    """Decode a point token: INF, ZERO, or an exponent e meaning (1:alpha^e)."""
    if token == INF:
        return line.point(0, 1)
    if token == ZERO:
        return line.point(1, 0)
    return line.point(1, pow(alpha, token, line.p))


def _pts(line, alpha, tokens) -> frozenset[ProjectivePoint]:
    return frozenset(_pt(line, alpha, tok) for tok in tokens)


@lru_cache(maxsize=None)
def prime_table(p: int) -> dict:
    """All per-prime reference material keyed by role; "groups" holds the
    closures G1 of the g1 letters, G2 of x and G3 of f and r, and G4, the
    conjugate of G1 by c."""
    if p not in PRIMES:
        raise UnknownCase(f"no reference data for p={p}")
    tab = {11: _table_11, 23: _table_23, 59: _table_59}[p]()
    line, gen = tab["line"], tab["gen"]
    G1 = generate_closure(line, [gen[letter] for letter in tab["g1_letters"]])
    tab["groups"] = (G1, generate_closure(line, [gen["x"]]),
                     generate_closure(line, [gen["f"], gen["r"]]),
                     conjugate(G1, gen["c"]))
    return tab


def _table_11() -> dict:
    line = projective_line(11)
    a = 2  # primitive element
    M = line.matrix
    gen = {
        "s": M([[0, a], [1, 0]]),
        "t": M([[1, a], [-1, -1]]),
        "h": M([[a, a**4], [1, a**2]]),
        "x": M([[a, 1], [1, 0]]),
        "f": M([[0, a**3], [1, 0]]),
        "r": M([[a**2, 1], [a**2, a**4]]),
        "c": M([[a, 0], [0, 1]]),
    }
    return {
        "alpha": a,
        "line": line,
        "gen": gen,
        "g1_letters": ("s", "t", "h"),
        "g1_order2": [M(rows) for rows in
                      ([[0, 2], [1, 0]], [[10, 9], [1, 1]], [[9, 9], [1, 2]])],
        # last entry corrected from the misprinted [[5,4],[1,7]], which is
        # not an element of the group (its class lies outside the closure)
        "g1_order3": [M(rows) for rows in
                      ([[2, 5], [1, 4]], [[7, 5], [1, 9]], [[4, 1], [1, 6]],
                       [[3, 4], [1, 10]], [[1, 4], [1, 8]], [[8, 3], [1, 5]],
                       [[6, 3], [1, 3]], [[5, 1], [1, 7]])],
        "g4_order2": [M(rows) for rows in
                      ([[0, 6], [1, 0]], [[5, 5], [1, 6]], [[10, 5], [1, 1]])],
        # fifth entry corrected from the misprinted [[6,2],[1,4]], which is
        # singular mod 11 and so not a class at all
        "g4_order3": [M(rows) for rows in
                      ([[1, 4], [1, 2]], [[9, 4], [1, 10]], [[2, 3], [1, 3]],
                       [[7, 1], [1, 5]], [[6, 1], [1, 4]], [[4, 9], [1, 8]],
                       [[3, 9], [1, 7]], [[8, 3], [1, 9]])],
        "x_power_classes": {6: M([[1, 1], [1, 10]]), 4: M([[7, 1], [1, 5]])},
        "r_power_classes": {2: M([[3, 3], [1, 6]]), 3: M([[4, 3], [1, 7]])},
        # the six products from the dihedral-pair argument: word -> printed class
        "printed_products": [
            ("s r r r", M([[6, 9], [1, 9]])),
            ("r r r s", M([[2, 9], [1, 5]])),
            ("t r r r", M([[1, 1], [1, 2]])),
            ("r r r t", M([[9, 1], [1, 10]])),
            ("s t r r r", M([[2, 4], [1, 1]])),
            ("r r r s t", M([[10, 4], [1, 9]])),
        ],
    }


def _table_23() -> dict:
    line = projective_line(23)
    a = 5
    M = line.matrix
    gen = {
        "s": M([[0, 1], [a**7, 0]]),
        "t": M([[a**12, a**7], [1, a**3]]),
        "h": M([[1, a**10], [a**6, a**15]]),
        "m": M([[-1, 1], [-(a**7), 1]]),
        "x": M([[0, -1], [-1, 1]]),
        "f": M([[0, a**10], [a**9, 0]]),
        "r": M([[a**15, a], [-1, a**7]]),
        "c": M([[a**7, 0], [0, 1]]),
    }
    o_blocks = (
        (INF, 1, 3, 6, 7, 18),
        (ZERO, 8, 9, 12, 14, 19),
        (0, 2, 4, 10, 17, 21),
        (5, 11, 13, 15, 16, 20),
    )
    t_blocks = (
        (INF, 18, 3, 11, 4, 9, 0, 21, 13, 16, 17, 15),
        (ZERO, 8, 6, 7, 10, 2, 1, 14, 19, 12, 20, 5),
    )
    # cells of the O x T intersection table, row-major; the published
    # table swaps the two cells of the O4 row against its own block
    # lists (which independently match the computed r-orbits), so the
    # O4 row is stored as the block lists force it
    cells = {
        (0, 0): (INF, 3, 18), (0, 1): (1, 6, 7),
        (1, 0): (9,), (1, 1): (ZERO, 8, 12, 14, 19),
        (2, 0): (0, 4, 17, 21), (2, 1): (2, 10),
        (3, 0): (11, 13, 15, 16), (3, 1): (5, 20),
    }
    conj_blocks = (
        (INF, 16, 18, 21, 0, 11),
        (ZERO, 1, 2, 5, 7, 12),
        (15, 17, 19, 3, 10, 14),
        (20, 4, 6, 8, 9, 13),
    )
    return {
        "alpha": a,
        "line": line,
        "gen": gen,
        "g1_letters": ("s", "t", "h", "m"),
        "o_partition": tuple(_pts(line, a, b) for b in o_blocks),
        "t_partition": tuple(_pts(line, a, b) for b in t_blocks),
        "o_block_images": {"s": (1, 0, 3, 2), "t": (0, 2, 3, 1), "h": (1, 2, 3, 0)},
        "t_block_images": {"f": (1, 0), "r": (0, 1)},
        # the published class for the 12th power is misprinted as
        # [[-1,-3],[-3,1]], an involution that does not even lie in <x>;
        # the actual class is [[-1,-2],[-2,1]]
        "x_power_classes": {12: M([[-1, -2], [-2, 1]]), 8: M([[13, 2], [2, 11]])},
        "o_t_intersections": {ij: _pts(line, a, cell) for ij, cell in cells.items()},
        "conjugated_o_blocks": tuple(_pts(line, a, b) for b in conj_blocks),
        # cyclic-generator powers evaluated at points: (power, at token,
        # at, image, block index), the token kept for the item id. Three
        # published values descend from the misprinted 12th-power class;
        # stored are the recomputed images (the two listed source points
        # still land in different blocks, which is what the block-coherence
        # contradiction needs)
        "x_point_images": [
            (e, at, _pt(line, a, at), _pt(line, a, image), block)
            for e, at, image, block in ((12, INF, 9, 1), (8, INF, 7, 0),
                                        (12, 1, 18, 0), (8, 3, 2, 2))
        ],
        # octahedral-proof words and their printed classes
        "printed_products": [
            ("s t t s", M([[11, 5], [1, 1]])),
            ("t h s t t", M([[-10, 1], [6, 10]])),
            ("h s h h", M([[-10, 5], [-4, 10]])),
            ("t t h s h h t", M([[7, 3], [-10, -7]])),
        ],
    }


def _table_59() -> dict:
    line = projective_line(59)
    a = 2
    M = line.matrix
    a_inv = pow(a, -1, 59)
    gen = {
        "s": M([[-(a**26), 1], [a**27, a**26]]),
        "t": M([[1, a], [a**6, a**34]]),
        "x": M([[1, 1], [a**12, 0]]),
        "f": M([[0, a**2], [a_inv, 0]]),
        "r": M([[a**2, a**3], [-1, -1]]),
        "c": M([[1, a**30], [0, -(a**15)]]),
    }
    return {
        "alpha": a,
        "line": line,
        "gen": gen,
        "g1_letters": ("s", "t"),
    }


def case_subgroups(p: int, label: str) -> tuple[Subgroup, Subgroup]:
    """Closed subgroup pair (G1, G2) for case (p, label) from the table's
    "groups": G1 with G2 = <x> for label "a" (cyclic), with G3 = <f, r>
    for "b" (dihedral), and with G4, G1 conjugated by c, for "c"."""
    if p not in PRIMES or label not in LABELS:
        raise UnknownCase(f"no reference case ({p}, {label!r})")
    groups = prime_table(p)["groups"]
    return groups[0], groups[1 + LABELS.index(label)]
