"""Finite subgroups of PGL(2, F_p): closure, recognition, orbits, blocks."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ClosureCapExceeded, ModulusMismatch, NotBlockPreserving
from .projline import ProjectiveLine, ProjectiveMatrix, ProjectivePoint

DEFAULT_CLOSURE_CAP = 600


@dataclass(frozen=True)
class GroupKind:
    """Isomorphism type tag: C_n, D_n (order convention), A4, S4, A5, other."""

    family: str  # "C" | "D" | "A4" | "S4" | "A5" | "other"
    order: int

    @classmethod
    def cyclic(cls, n: int) -> "GroupKind":
        return cls("C", n)

    @classmethod
    def dihedral(cls, n: int) -> "GroupKind":
        if n % 2 or n < 4:
            raise ValueError("dihedral order must be even and >= 4")
        return cls("D", n)

    @classmethod
    def alt4(cls) -> "GroupKind":
        return cls("A4", 12)

    @classmethod
    def sym4(cls) -> "GroupKind":
        return cls("S4", 24)

    @classmethod
    def alt5(cls) -> "GroupKind":
        return cls("A5", 60)

    @classmethod
    def other(cls, n: int) -> "GroupKind":
        return cls("other", n)

    @cached_property
    def element_orders(self) -> frozenset[int]:
        """Every order an element of a group of this kind can have.

        A4, S4 and A5 by their order tallies; D_n has rotations of order
        dividing n/2 and involutions; C_n and other kinds by Lagrange.
        """
        if self.family == "A4":
            return frozenset((1, 2, 3))
        if self.family == "S4":
            return frozenset((1, 2, 3, 4))
        if self.family == "A5":
            return frozenset((1, 2, 3, 5))
        n = self.order // 2 if self.family == "D" else self.order
        divisors = {k for k in range(1, n + 1) if n % k == 0}
        if self.family == "D":
            divisors.add(2)
        return frozenset(divisors)

    def __str__(self):
        if self.family in ("C", "D"):
            return f"{self.family}{self.order}"
        if self.family == "other":
            return f"Other({self.order})"
        return self.family


def parse_kind(text: str) -> GroupKind:
    """Parse a CLI-style kind flag: A4, S4, A5, C<n>, D<n>."""
    text = text.strip()
    if text == "A4":
        return GroupKind.alt4()
    if text == "S4":
        return GroupKind.sym4()
    if text == "A5":
        return GroupKind.alt5()
    if len(text) > 1 and text[0] in ("C", "D") and text[1:].isdigit():
        n = int(text[1:])
        if text[0] == "C":
            if n < 1:
                raise ValueError(f"bad cyclic order in {text!r}")
            return GroupKind.cyclic(n)
        return GroupKind.dihedral(n)
    raise ValueError(f"unrecognized group kind {text!r}")


class Subgroup:
    """A fully enumerated subgroup: generators plus closed element set."""

    __slots__ = ("line", "generators", "elements")

    def __init__(self, line: ProjectiveLine, generators: Sequence[ProjectiveMatrix],
                 elements: frozenset[ProjectiveMatrix]):
        self.line = line
        self.generators = tuple(generators)
        self.elements = elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self) -> Iterator[ProjectiveMatrix]:
        return iter(sorted(self.elements))

    def __contains__(self, M: ProjectiveMatrix):
        return M in self.elements

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.line.p == self.line.p
                and other.elements == self.elements)

    def __hash__(self):
        return hash((self.line.p, self.elements))

    def __repr__(self):
        return f"Subgroup(p={self.line.p}, order={len(self.elements)})"

    @property
    def p(self) -> int:
        return self.line.p


def generate_closure(line: ProjectiveLine, generators: Iterable[ProjectiveMatrix],
                     cap: int | None = None) -> Subgroup:
    """Breadth-first closure of the generators under composition.

    Raises ClosureCapExceeded as soon as more than `cap` elements appear
    (inverses come for free in a finite group, so right-multiplication by
    generators suffices). The default cap is
    max(DEFAULT_CLOSURE_CAP, 2(p + 1)). Every subgroup of order coprime to
    p is cyclic, dihedral (up to D_{2(p+1)}), A4, S4 or A5, so it closes
    under 2(p + 1) or 60 elements; the floor of DEFAULT_CLOSURE_CAP keeps
    small-p groups of order divisible by p (the Borel subgroup at p = 11,
    of order 110) closable too.
    """
    gens = [line.matrix(g) if not isinstance(g, ProjectiveMatrix) else g
            for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    if cap is None:
        cap = max(DEFAULT_CLOSURE_CAP, 2 * (line.p + 1))
    if cap < 1:
        raise ValueError("cap must be >= 1")
    els = {line.identity}
    frontier = [line.identity]
    compose = line.compose
    while frontier:
        new = []
        for B in frontier:
            for A in gens:
                C = compose(B, A)
                if C not in els:
                    els.add(C)
                    if len(els) > cap:
                        raise ClosureCapExceeded(
                            f"closure of {len(gens)} generators exceeded cap {cap}")
                    new.append(C)
        frontier = new
    return Subgroup(line, gens, frozenset(els))


_ALT4_ORDERS = {1: 1, 2: 3, 3: 8}
_SYM4_ORDERS = {1: 1, 2: 9, 3: 8, 4: 6}
_ALT5_ORDERS = {1: 1, 2: 15, 3: 20, 5: 24}


def recognize(G: Subgroup) -> GroupKind:
    """Isomorphism type of G by order statistics plus structural tests.

    Sound for subgroups of PGL(2, q) of order coprime to q (they are
    cyclic, dihedral, A4, S4 or A5); anything else falls out as other.
    The Klein four-group is reported as D4 (order-based dihedral naming).
    """
    line = G.line
    n = len(G)
    orders = {A: line.element_order(A) for A in G.elements}
    if n in orders.values() or n == 1:
        return GroupKind.cyclic(n)
    if n >= 4 and n % 2 == 0:
        half = n // 2
        rotations = sorted(A for A, o in orders.items() if o == half)
        involutions = sorted(A for A, o in orders.items() if o == 2)
        for r in rotations:
            cyc = {line.power(r, k) for k in range(half)}
            r_inv = line.inverse(r)
            for s in involutions:
                if s in cyc:
                    continue
                if line.compose(line.compose(line.inverse(s), r), s) == r_inv:
                    return GroupKind.dihedral(n)
    tally = dict(Counter(orders.values()))
    if n == 12 and tally == _ALT4_ORDERS:
        return GroupKind.alt4()
    if n == 24 and tally == _SYM4_ORDERS:
        return GroupKind.sym4()
    if n == 60 and tally == _ALT5_ORDERS:
        return GroupKind.alt5()
    return GroupKind.other(n)


def intersect(G: Subgroup, H: Subgroup) -> Subgroup:
    """Subgroup on the set intersection of canonical forms."""
    if G.line.p != H.line.p:
        raise ModulusMismatch(f"p={G.line.p} vs p={H.line.p}")
    els = G.elements & H.elements
    return Subgroup(G.line, tuple(sorted(els)), frozenset(els))


def conjugate(G: Subgroup, C: ProjectiveMatrix) -> Subgroup:
    """Subgroup {C^-1 A C : A in G}.

    Under the row action this realizes the transformation conjugation
    "C then A then C^-1" on points, which is what gluing a conjugated
    group onto the same orbit structure requires.
    """
    line = G.line
    C = line.matrix(C)
    Ci = line.inverse(C)
    conj = lambda A: line.compose(line.compose(Ci, A), C)
    gens = tuple(conj(A) for A in G.generators)
    els = frozenset(conj(A) for A in G.elements)
    return Subgroup(line, gens, els)


def orbit(G: Subgroup, Q: ProjectivePoint) -> frozenset[ProjectivePoint]:
    """{Q·A : A in G}."""
    line = G.line
    Q = _check_point(line, Q)
    return frozenset(line.apply(Q, A) for A in G.elements)


def orbit_labels(G: Subgroup) -> list[int]:
    """The G-orbit of every point, indexed like line.points().

    Two points share a label iff they share an orbit. Built by union-find
    over the point permutations of G.generators, in O(p * |generators|).
    """
    line = G.line
    index = {Q: i for i, Q in enumerate(line.points())}
    parent = list(range(len(index)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for A in G.generators:
        for Q, i in index.items():
            ri, rj = find(i), find(index[line.apply(Q, A)])
            if ri != rj:
                parent[ri] = rj
    return [find(i) for i in range(len(parent))]


def _check_point(line: ProjectiveLine, Q: ProjectivePoint) -> ProjectivePoint:
    if not (0 <= Q.s < line.p and 0 <= Q.t < line.p):
        raise ModulusMismatch(f"point {Q} is not reduced mod {line.p}")
    return line.point(Q.s, Q.t)


class Partition:
    """Disjoint blocks of points covering all of P^1(F_p)."""

    __slots__ = ("line", "blocks")

    def __init__(self, line: ProjectiveLine, blocks: Sequence[Iterable[ProjectivePoint]]):
        self.line = line
        self.blocks = tuple(frozenset(b) for b in blocks)
        seen: set[ProjectivePoint] = set()
        for block in self.blocks:
            if seen & block:
                raise ValueError("blocks are not pairwise disjoint")
            seen |= block
        if seen != set(line.points()):
            raise ValueError("blocks do not cover P^1(F_p)")

    def __len__(self):
        return len(self.blocks)


def block_action(line: ProjectiveLine, A: ProjectiveMatrix,
                 partition: Partition) -> tuple[int, ...]:
    """Permutation i -> j induced by A on block indices.

    Raises NotBlockPreserving if the image of some block is not a block.
    """
    perm = []
    for i, block in enumerate(partition.blocks):
        image = frozenset(line.apply(Q, A) for Q in block)
        for j, target in enumerate(partition.blocks):
            if image == target:
                perm.append(j)
                break
        else:
            raise NotBlockPreserving(f"{A} maps block {i} onto a non-block")
    return tuple(perm)


def is_faithful_on_blocks(G: Subgroup, partition: Partition) -> bool:
    """True iff only the identity induces the identity block permutation."""
    line = G.line
    ident_perm = tuple(range(len(partition)))
    for A in G.elements:
        if A == line.identity:
            continue
        if block_action(line, A, partition) == ident_perm:
            return False
    return True
