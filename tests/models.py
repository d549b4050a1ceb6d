"""Reference models of small finite groups and a brute-force isomorphism test.

The models (cyclic, dihedral, A4, S4, A5) are independent of the matrix
machinery: plain element sets with explicit multiplication. Isomorphism is
decided by generator-image backtracking with a full edge-consistency sweep,
so a positive answer is a verified homomorphism that is bijective.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations
from typing import Callable, Hashable, Sequence

from galoispairs import (GroupKind, ProjectiveLine,
                         ProjectiveMatrix, Subgroup, generate_closure)


class GroupModel:
    """A finite group given by an element list and a multiplication map."""

    def __init__(self, kind: GroupKind, elements: Sequence[Hashable],
                 mult: Callable, identity: Hashable):
        self.kind = kind
        self.elements = tuple(elements)
        self.mult = mult
        self.identity = identity
        self.orders = {x: self._order(x) for x in self.elements}
        self.by_order: dict[int, list] = {}
        for x in self.elements:
            self.by_order.setdefault(self.orders[x], []).append(x)

    def _order(self, x) -> int:
        n = 1
        y = x
        while y != self.identity:
            y = self.mult(y, x)
            n += 1
        return n

    def order_tally(self) -> dict[int, int]:
        return dict(Counter(self.orders.values()))


def _perm_compose(p: tuple, q: tuple) -> tuple:
    # (p then q) so that words map to left-to-right products, matching compose()
    return tuple(q[i] for i in p)


def _perm_parity(p: tuple) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


@lru_cache(maxsize=None)
def cyclic_model(n: int) -> GroupModel:
    return GroupModel(GroupKind.cyclic(n), range(n), lambda a, b: (a + b) % n, 0)


@lru_cache(maxsize=None)
def dihedral_model(n: int) -> GroupModel:
    """Dihedral group of order n (n even >= 4): pairs (rotation, flip)."""
    m = n // 2

    def mult(x, y):
        i, e = x
        j, f = y
        return ((i + (j if e == 0 else -j)) % m, e ^ f)

    elements = [(i, e) for e in (0, 1) for i in range(m)]
    return GroupModel(GroupKind.dihedral(n), elements, mult, (0, 0))


@lru_cache(maxsize=None)
def permutation_model(kind_name: str) -> GroupModel:
    if kind_name == "A4":
        kind, deg, even_only = GroupKind.alt4(), 4, True
    elif kind_name == "S4":
        kind, deg, even_only = GroupKind.sym4(), 4, False
    elif kind_name == "A5":
        kind, deg, even_only = GroupKind.alt5(), 5, True
    else:
        raise ValueError(kind_name)
    elements = [p for p in permutations(range(deg))
                if not even_only or _perm_parity(p) == 0]
    return GroupModel(kind, elements, _perm_compose, tuple(range(deg)))


def candidate_models(n: int) -> list[GroupModel]:
    """All reference models of order n, in recognition precedence order."""
    out = [cyclic_model(n)]
    if n >= 4 and n % 2 == 0:
        out.append(dihedral_model(n))
    if n == 12:
        out.append(permutation_model("A4"))
    if n == 24:
        out.append(permutation_model("S4"))
    if n == 60:
        out.append(permutation_model("A5"))
    return out


def minimal_generators(G: Subgroup) -> list[ProjectiveMatrix]:
    """Small deterministic generating sequence (greedy, largest order first)."""
    line = G.line
    if len(G) == 1:
        return [line.identity]
    ranked = sorted(G.elements, key=lambda A: (-line.element_order(A), A))
    gens: list[ProjectiveMatrix] = []
    closure = {line.identity}
    for A in ranked:
        if A in closure:
            continue
        gens.append(A)
        closure = set(generate_closure(line, gens).elements)
        if len(closure) == len(G):
            return gens
    raise AssertionError("generators never closed; broken subgroup")


def _extend_homomorphism(line: ProjectiveLine, G: Subgroup,
                         gens: Sequence[ProjectiveMatrix], model: GroupModel,
                         images: Sequence) -> bool:
    """True iff gens -> images extends to an isomorphism G -> model."""
    hom = {line.identity: model.identity}
    for g, h in zip(gens, images):
        if hom.get(g, h) != h:
            return False
        hom[g] = h
    frontier = list(hom)
    while frontier:
        new = []
        for x in frontier:
            hx = hom[x]
            for g, h in zip(gens, images):
                y = line.compose(x, g)
                hy = model.mult(hx, h)
                seen = hom.get(y)
                if seen is None:
                    hom[y] = hy
                    new.append(y)
                elif seen != hy:
                    return False
        frontier = new
    if len(hom) != len(G):
        return False
    # full edge sweep: with every (x, generator) edge consistent, the word
    # image of any product is forced, so this certifies a homomorphism
    for x, hx in hom.items():
        for g, h in zip(gens, images):
            if hom[line.compose(x, g)] != model.mult(hx, h):
                return False
    return len(set(hom.values())) == len(G)


def is_isomorphic(G: Subgroup, model: GroupModel) -> bool:
    """Generator-image backtracking against the model."""
    if len(G) != len(model.elements):
        return False
    line = G.line
    tally = Counter(line.element_order(A) for A in G.elements)
    if dict(tally) != model.order_tally():
        return False
    gens = minimal_generators(G)
    gen_orders = [line.element_order(g) for g in gens]
    # order of pairwise products is cheap extra pruning before extension
    probe = None
    if len(gens) >= 2:
        probe = line.element_order(line.compose(gens[0], gens[1]))

    def backtrack(i: int, images: list) -> bool:
        if i == len(gens):
            return _extend_homomorphism(line, G, gens, model, images)
        for h in model.by_order.get(gen_orders[i], ()):
            if i == 1 and probe is not None:
                if model._order(model.mult(images[0], h)) != probe:
                    continue
            images.append(h)
            if backtrack(i + 1, images):
                return True
            images.pop()
        return False

    return backtrack(0, [])


def recognize_by_isomorphism(G: Subgroup) -> GroupKind:
    """Oracle twin of recognize(): explicit isomorphism search over models."""
    for model in candidate_models(len(G)):
        if is_isomorphic(G, model):
            return model.kind
    return GroupKind.other(len(G))
