"""Finite subgroups of PGL(2, F_p): closure, recognition, orbits."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .errors import ClosureCapExceeded, ModulusMismatch
from .projline import ProjectiveLine, ProjectiveMatrix, ProjectivePoint, new

DEFAULT_CLOSURE_CAP = 600

# A4, S4 and A5: name -> order (search._transitive_group presents each)
POLYHEDRAL = {"A4": 12, "S4": 24, "A5": 60}


class GroupKind:
    """Isomorphism type tag: C_n, D_n (order convention), A4, S4, A5, other.

    Immutable, compared and hashed by (family, order). It and the package's
    other records are plain classes, not dataclasses: importing
    `dataclasses` cost about 10 ms of every CLI process.
    """

    __slots__ = ("family", "order")

    def __init__(self, family: str, order: int):
        # "C" | "D" | "A4" | "S4" | "A5" | "other"
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable GroupKind")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable GroupKind")

    def __eq__(self, other):
        if other.__class__ is not GroupKind:
            return NotImplemented
        return self.family == other.family and self.order == other.order

    def __hash__(self):
        return hash((self.family, self.order))

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
        return cls("A4", POLYHEDRAL["A4"])

    @classmethod
    def sym4(cls) -> "GroupKind":
        return cls("S4", POLYHEDRAL["S4"])

    @classmethod
    def alt5(cls) -> "GroupKind":
        return cls("A5", POLYHEDRAL["A5"])

    @classmethod
    def other(cls, n: int) -> "GroupKind":
        return cls("other", n)

    def __str__(self):
        if self.family in ("C", "D"):
            return f"{self.family}{self.order}"
        if self.family == "other":
            return f"Other({self.order})"
        return self.family


def parse_kind(text: str) -> GroupKind:
    """Parse a CLI-style kind flag: A4, S4, A5, C<n>, D<n>."""
    text = text.strip()
    if text in POLYHEDRAL:
        return GroupKind(text, POLYHEDRAL[text])
    if len(text) > 1 and text[0] in ("C", "D") and text[1:].isdecimal():
        n = int(text[1:])
        if text[0] == "C":
            if n < 1:
                raise ValueError(f"bad cyclic order in {text!r}")
            return GroupKind.cyclic(n)
        return GroupKind.dihedral(n)
    raise ValueError(f"unrecognized group kind {text!r}")


class Subgroup:
    """A subgroup: its generators and its element set.

    A C_{p+1} torus <A>, for A of order p + 1, keeps A in `torus` and lists
    its elements only when `elements` is read; its order, membership, kind,
    orbits, conjugates and intersections are read off A. Let
    N = A - aI = (0, b, c, d - a).

    The torus lemma. By ProjectiveLine._class_order, only an elliptic class
    has order p + 1 (p + 1 divides neither p - 1 nor p), so the
    characteristic polynomial of A has no root in F_p and
    F_p[A] = span(I, N) is the field F_{p^2}. Its nonzero elements are all
    units, and modulo F_p^* they form a cyclic group of order
    (p^2 - 1)/(p - 1) = p + 1 that holds <A>, so the two are equal: every
    class of <A> is that of a nonzero alpha I + beta N, that is of N or of
    I + uN with u = beta/alpha. I + uN = (1, ub, uc, 1 + u(d - a)) is
    canonical as it stands, u = 0 giving I; N is brought to canonical form
    by line.matrix. So the listing costs O(p) scalar products and one pow.

    The membership lemma. M = (m_a, m_b, m_c, m_d) lies in <A> iff
    (m_b, m_c, m_d - m_a) is parallel to (b, c, d - a). By the torus lemma
    M is in <A> iff M lies in F_p[A] = span(I, N), that is iff
    M - m_a I = (0, m_b, m_c, m_d - m_a) does; as N has 0 in its top-left
    entry, that is iff M - m_a I = yN for some y. The zero vector is I, and
    the condition does not change under scaling, so it holds for classes.
    As b != 0 (A would fix (1:0) otherwise, and it fixes no point, by
    search.find_cyclic_regular's regularity lemma), it reads
    b m_c = c m_b and b (m_d - m_a) = (d - a) m_b.

    The two-tori lemma. Two tori <A1> and <A2> meet in 1 class or in all
    p + 1, and they are equal iff A2 (!= 1) lies in <A1>. Let g != 1 lie in
    both. g is not scalar, so F_p[g] = span(I, g) is 2-dimensional and lies
    in both F_p[A1] and F_p[A2], which are 2-dimensional too: all three are
    equal, and so are the two tori, by the torus lemma.
    """

    __slots__ = ("line", "generators", "torus", "_elements")

    def __init__(self, line: ProjectiveLine, generators: Sequence[ProjectiveMatrix],
                 elements: frozenset[ProjectiveMatrix] | None = None,
                 torus: ProjectiveMatrix | None = None):
        self.line = line
        self.generators = tuple(generators)
        self.torus = torus  # A, for the torus <A>; else None
        self._elements = elements  # None for a torus until first read

    @property
    def elements(self) -> frozenset[ProjectiveMatrix]:
        if self._elements is None:  # the torus lemma
            p = self.line.p
            a, b, c, d = self.torus
            e = d - a
            els = [new(ProjectiveMatrix, (1, b * u % p, c * u % p, (1 + e * u) % p))
                   for u in range(p)]
            els.append(self.line.matrix([[0, b], [c, e]]))  # N
            self._elements = frozenset(els)
        return self._elements

    def __len__(self):
        return len(self.elements) if self.torus is None else self.line.p + 1

    def __contains__(self, M: ProjectiveMatrix):
        if self.torus is None:
            return M in self.elements
        p = self.line.p
        a, b, c, d = self.torus
        x = M[1]  # the membership lemma
        return not ((b * M[2] - c * x) % p or (b * (M[3] - M[0]) - (d - a) * x) % p)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.line.p == self.line.p
                and other.elements == self.elements)

    def __hash__(self):
        return hash((self.line.p, self.elements))

    def __repr__(self):
        return f"Subgroup(p={self.line.p}, order={len(self)})"


def generate_closure(line: ProjectiveLine, generators: Iterable[ProjectiveMatrix]) -> Subgroup:
    """Closure of the generators under composition, by Dimino's algorithm
    (G. Butler, Fundamental Algorithms for Permutation Groups, LNCS 559,
    1991). Each generator, raw rows or a ProjectiveMatrix, is kept as its
    canonical class, in the given order with repeats.

    The generators are walked by descending element order (a stable sort),
    so H starts as the largest cycle <A>, A the first of the walk. For each
    further generator s, the right cosets H·s, then H·(r·t) for each coset
    representative r and generator t so far with r·t not yet found, are
    added whole, each product brought to canonical form in one loop (times).
    Right cosets suffice, as (H·r)·t = H·(r·t): their union is closed under
    right multiplication by the generators, so it is the finite group they
    generate, whatever their order. This costs |G| products plus k probes
    per coset representative, for k generators, where a breadth-first
    search costs k products and k probes per element.

    <A> is the powers of A, I first, unless A has order p + 1: then it is
    the torus <A> (Subgroup), and if every generator lies in it (the
    membership lemma) it is returned unlisted, as Subgroup(line, gens,
    torus=A); else its listing is the first block, with no power of A
    multiplied out.

    ClosureCapExceeded is raised once more than cap = max(DEFAULT_CLOSURE_CAP,
    2(p + 1)) elements appear, which closes every subgroup of order prime to
    p (Dickson, Linear Groups, 1901: cyclic, dihedral up to D_{2(p+1)}, A4,
    S4 or A5) and, for small p, some of order divisible by p. The check
    before each coset representative is the only bound: every class has
    order dividing p - 1, p or p + 1 (ProjectiveLine._class_order), so
    |<A>| <= p + 1 < cap, and each block is formed from an H that passed
    the check, |H| <= cap.
    """
    gens = [line.matrix(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    p, I = line.p, line.identity
    cap = max(DEFAULT_CLOSURE_CAP, 2 * (p + 1))

    def times(H, R, out):
        # h·R for each h in H (H may be out) up to I, which ends the powers
        A, B, C, D = R
        for a, b, c, d in H:
            x, y = (a * A + b * C) % p, (a * B + b * D) % p
            u = pow(x or y, -1, p)
            M = new(ProjectiveMatrix, (x * u % p, y * u % p, (c * A + d * C) * u % p,
                                       (c * B + d * D) * u % p))
            if M == I:
                break
            out.append(M)
        return out

    walk = sorted(gens, key=line.element_order, reverse=True)
    if line.element_order(walk[0]) == p + 1:
        T = Subgroup(line, gens, torus=walk[0])
        if all(g in T for g in walk):
            return T
        els = set(T.elements)
    else:
        powers = [I]
        els = set(times(powers, walk[0], powers))
    for k, s in enumerate(walk):
        H, reps = tuple(els), [s]
        for r in reps:
            if len(els) > cap:
                raise ClosureCapExceeded(f"closure of {len(gens)} generators exceeded cap {cap}")
            if r not in els:  # add the coset H·r, which does not hold I
                els.update(times(H, r, []))
                reps += [line.compose(r, t) for t in walk[:k + 1]]
    return Subgroup(line, gens, frozenset(els))


def recognize(G: Subgroup) -> GroupKind:
    """Isomorphism type of G from n = |G|, its involutions and at most a few
    element orders: C_n if some element has order n, else D_n if at least
    n/2 elements are involutions, else A4, S4 or A5 if n is 12, 24 or 60,
    else other.

    The involutions are the non-identity classes of trace 0, read with no
    element order: by ProjectiveLine._class_order the classes of order 2
    are those of tau = tr^2/det = 0 (lambda = -1 for odd p, the parabolic
    tau = 0 = 4 for p = 2). A cyclic group has at most one involution, so
    only with at most one is an element of order n sought, among
    G.generators first, where this package's groups keep it, then in G.
    A torus (Subgroup) is C_{p+1} by the torus lemma, with nothing read.

    The ladder is exact on subgroups of PGL(2, p) (Dickson, Linear Groups,
    1901). One of order prime to p is cyclic, dihedral, A4, S4 or A5. Only
    a cyclic group has an element of its order. D_n has at least n/2
    involutions, while A4, S4 and A5 have 3, 9 and 15, fewer than half
    their order. Odd orders have no involution and order 2 is cyclic, so
    D_n comes only with even n >= 4; the Klein four-group, with no element
    of order 4 and 3 involutions, is D4 (order-based dihedral naming). A
    subgroup of order divisible by p is C_p x| C_k with k | p - 1 (cyclic
    for k = 1, dihedral for k = 2), PSL(2, p) or PGL(2, p), and p = 2 gives
    only C_2 and PGL(2, 2) = D6. For k >= 3, C_p x| C_k has no element of
    order pk and at most p < pk/2 involutions, and pk <= p(p - 1) is never
    12, 24 or 60, whose prime factors are at most 5. For p >= 3, PSL(2, p)
    has p(p -+ 1)/2 involutions and PGL(2, p) has p^2, fewer than half
    their order, and neither has an element of its order. So none of them
    reaches the C_n or D_n rung, and of the orders 12, 24 and 60 they
    reach only 12 as PSL(2, 3) = A4, 24 as PGL(2, 3) = S4 and 60 as
    PSL(2, 5) = A5.
    """
    n, line = len(G), G.line
    p = line.p
    if G.torus is not None:
        return GroupKind.cyclic(n)
    # at p = 2 the identity has trace 2 = 0 too
    involutions = sum(1 for a, _, _, d in G.elements if (a + d) % p == 0) - (p == 2)
    if involutions < 2 and any(line.element_order(A) == n
                               for A in chain(G.generators, G.elements)):
        return GroupKind.cyclic(n)
    if 2 * involutions >= n:
        return GroupKind.dihedral(n)
    for name, order in POLYHEDRAL.items():
        if order == n:
            return GroupKind(name, n)
    return GroupKind.other(n)


def intersect(G: Subgroup, H: Subgroup) -> Subgroup:
    """Subgroup on the set intersection of canonical forms, generated by
    its sorted elements. With a torus T (Subgroup) among the two, it is the
    elements of the other that pass T's O(1) membership test (the
    membership lemma); of two tori it is T itself if they are equal, else
    the trivial group (the two-tori lemma)."""
    if G.line.p != H.line.p:
        raise ModulusMismatch(f"p={G.line.p} vs p={H.line.p}")
    T, H = (G, H) if G.torus is not None else (H, G)
    if T.torus is None:
        els = T.elements & H.elements
    elif H.torus is None:
        els = frozenset([M for M in H.elements if M in T])
    elif H.torus in T:
        return T
    else:
        els = frozenset([T.line.identity])
    return Subgroup(G.line, tuple(sorted(els)), els)


def conjugate(G: Subgroup, C: ProjectiveMatrix) -> Subgroup:
    """Subgroup {C^-1 A C : A in G}, C a class or raw 2x2 rows.

    Under the row action this realizes the transformation conjugation
    "C then A then C^-1" on points, which is what gluing a conjugated
    group onto the same orbit structure requires. Each element is the
    product adj(C)·A·C, scaled once to canonical form: the adjugate is
    C^-1 up to the scalar det C, which the class absorbs. A torus <A>
    (Subgroup) goes to the torus of C^-1 A C, with nothing listed.
    """
    line = G.line
    p = line.p
    al, be, ga, de = line.matrix(C)

    def conj(A):
        a, b, c, d = A
        # adj(C)·A, then times C
        e, f = de * a - be * c, de * b - be * d
        g, h = al * c - ga * a, al * d - ga * b
        a, b = (e * al + f * ga) % p, (e * be + f * de) % p
        u = pow(a or b, -1, p)  # the first row of a class is never zero
        return new(ProjectiveMatrix, (a * u % p, b * u % p, (g * al + h * ga) * u % p,
                                      (g * be + h * de) * u % p))

    gens = tuple(map(conj, G.generators))
    if G.torus is not None:
        return Subgroup(line, gens, torus=conj(G.torus))
    return Subgroup(line, gens, frozenset(map(conj, G.elements)))


def orbit(G: Subgroup, Q: ProjectivePoint) -> frozenset[ProjectivePoint]:
    """{Q·A : A in G}. The image of Q = (s:t) is (x:y) = (s·a + t·c : s·b + t·d),
    that is (1 : y/x), or (0:1) where x = 0."""
    p = G.line.p
    if not (0 <= Q.s < p and 0 <= Q.t < p):
        raise ModulusMismatch(f"point {Q} is not reduced mod {p}")
    s, t = G.line.point(Q.s, Q.t)
    return frozenset([new(ProjectivePoint, (1, (s * b + t * d) * pow(x, -1, p) % p)
                          if (x := (s * a + t * c) % p) else (0, 1))
                      for a, b, c, d in G.elements])


def point_permutation(line: ProjectiveLine, A: ProjectiveMatrix) -> list[int]:
    """The index of the image under A of every point, indexed like
    line.points(): (0:1) at 0 and (1:t) at t + 1.

    The row action sends (1:t) to (1:(b + td)/(a + tc)), or to (0:1) where
    a + tc = 0, and (0:1) to (1:d/c), or to itself where c = 0. With the
    inverses of line.inverses(), this costs O(p).
    """
    p, inv = line.p, line.inverses()
    a, b, c, d = A
    return ([d * inv[c] % p + 1 if c else 0]
            + [(b + t * d) * inv[u] % p + 1 if (u := (a + t * c) % p) else 0
               for t in range(p)])


def orbit_partition(G: Subgroup) -> tuple[list[int], dict[int, int]]:
    """The G-orbit of every point, indexed like line.points(), and the
    length of each orbit, keyed by its label.

    Two points share a label, the least index in their orbit, iff they
    share an orbit. The orbits are the connected parts of the graph with an
    edge i -> i·A for each generator A, as G is finite. Each generator is
    read once as a point_permutation, so this costs O(p * |generators|).
    Each orbit's length is that of the list its walk builds, with no second
    pass: a Counter would make one, and its first call in each process also
    walks the ABC registry (isinstance(labels, Mapping)), which costs more
    than a whole partition at small p.
    A torus (Subgroup) is regular by search.find_cyclic_regular's
    regularity lemma, so all its labels are 0.
    """
    line = G.line
    if G.torus is not None:
        return [0] * (line.p + 1), {0: line.p + 1}
    perms = [point_permutation(line, A) for A in G.generators]
    labels, sizes = [-1] * (line.p + 1), {}
    for i in range(line.p + 1):
        if labels[i] < 0:
            labels[i] = i
            block = [i]
            for j in block:  # block grows as the walk labels its points
                for perm in perms:
                    k = perm[j]
                    if labels[k] < 0:
                        labels[k] = i
                        block.append(k)
            sizes[i] = len(block)
    return labels, sizes
