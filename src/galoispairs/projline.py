"""Canonical points of P^1(F_p) and canonical PGL(2, F_p) matrix classes.

Convention: matrices act on the right of row vectors, (s, t) -> (s, t)A.
Consequently apply(apply(Q, A), B) == apply(Q, compose(A, B)), i.e. the
matrix product A*B means "A first, then B" on points.

Canonical forms make projective equivalence a syntactic equality:
a point is (1, t) or (0, 1); a matrix class is scaled so that its first
nonzero entry in reading order (a, b, c, d) equals 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .errors import SingularMatrix
from .field import PrimeField, prime_factors


class ProjectivePoint(NamedTuple):
    s: int
    t: int

    def __str__(self):
        return f"({self.s}:{self.t})"


class ProjectiveMatrix(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


class ProjectiveLine:
    """P^1(F_p) together with the right action of PGL(2, F_p)."""

    def __init__(self, field: PrimeField | int):
        self.field = field if isinstance(field, PrimeField) else PrimeField(field)
        self.p = self.field.p
        self._points: tuple[ProjectivePoint, ...] | None = None
        self._orders: dict[int, int] = {}  # tau = tr^2/det -> class order

    def __eq__(self, other):
        return isinstance(other, ProjectiveLine) and other.p == self.p

    def __hash__(self):
        return hash(("ProjectiveLine", self.p))

    def __repr__(self):
        return f"ProjectiveLine({self.p})"

    # -- construction ---------------------------------------------------

    def point(self, s: int, t: int) -> ProjectivePoint:
        """Canonical point (s:t); (0,0) is rejected."""
        p = self.p
        s %= p
        t %= p
        if s == 0 and t == 0:
            raise ValueError("(0:0) is not a projective point")
        if s == 0:
            return ProjectivePoint(0, 1)
        return ProjectivePoint(1, t * pow(s, -1, p) % p)

    def matrix(self, rows: Sequence[Sequence[int]] | ProjectiveMatrix) -> ProjectiveMatrix:
        """Canonical class representative of a raw 2x2 integer matrix.

        Entries are reduced mod p on ingestion (negative entries welcome);
        a zero determinant raises SingularMatrix.
        """
        p = self.p
        if isinstance(rows, ProjectiveMatrix):
            a, b, c, d = rows
        else:
            (a, b), (c, d) = rows
        a %= p
        b %= p
        c %= p
        d %= p
        if (a * d - b * c) % p == 0:
            raise SingularMatrix(f"[[{a},{b}],[{c},{d}]] is singular mod {p}")
        for lead in (a, b, c, d):
            if lead:
                break
        u = pow(lead, -1, p)
        return ProjectiveMatrix(a * u % p, b * u % p, c * u % p, d * u % p)

    identity = ProjectiveMatrix(1, 0, 0, 1)

    def points(self) -> tuple[ProjectivePoint, ...]:
        """All p+1 rational points: (0:1) first, then (1:t) for t = 0..p-1."""
        if self._points is None:
            pts = [ProjectivePoint(0, 1)]
            pts.extend(ProjectivePoint(1, t) for t in range(self.p))
            self._points = tuple(pts)
        return self._points

    def matrices(self) -> Iterator[ProjectiveMatrix]:
        """All canonical classes in lexicographic (a, b, c, d) order."""
        p = self.p
        for c in range(1, p):
            for d in range(p):
                yield ProjectiveMatrix(0, 1, c, d)
        for b in range(p):
            for c in range(p):
                bad = b * c % p
                for d in range(p):
                    if d != bad:
                        yield ProjectiveMatrix(1, b, c, d)

    # -- operations -----------------------------------------------------

    def compose(self, A: ProjectiveMatrix, B: ProjectiveMatrix) -> ProjectiveMatrix:
        """Canonical form of the matrix product A*B."""
        p = self.p
        a = (A.a * B.a + A.b * B.c) % p
        b = (A.a * B.b + A.b * B.d) % p
        c = (A.c * B.a + A.d * B.c) % p
        d = (A.c * B.b + A.d * B.d) % p
        for lead in (a, b, c, d):
            if lead:
                break
        u = pow(lead, -1, p)
        return ProjectiveMatrix(a * u % p, b * u % p, c * u % p, d * u % p)

    def inverse(self, A: ProjectiveMatrix) -> ProjectiveMatrix:
        """Class inverse via the adjugate (determinant scaling is absorbed)."""
        return self.matrix([[A.d, -A.b], [-A.c, A.a]])

    def apply(self, Q: ProjectivePoint, A: ProjectiveMatrix) -> ProjectivePoint:
        """Image of Q under the row action: canonical form of (s,t)A."""
        return self.point(Q.s * A.a + Q.t * A.c, Q.s * A.b + Q.t * A.d)

    def element_order(self, A: ProjectiveMatrix | tuple[int, int, int, int]) -> int:
        """Least n >= 1 with A**n in the identity class.

        A may be any nonsingular (a, b, c, d) 4-tuple with entries in
        [0, p), a ProjectiveMatrix or not, canonical or not: the identity
        class is every lambda * I, and tau is invariant under scaling.

        The order of a non-identity class depends only on tau = tr^2 / det,
        by the conjugacy classification of PGL(2, q) (Dickson, Linear
        Groups, 1901): tau = 4 is parabolic, of order p; tau = 0 has order
        2; otherwise the order divides p - 1 if tau(tau - 4) is a square
        mod p (eigenvalues in F_p) and p + 1 if not (eigenvalues in
        F_{p^2}). The exact order is that bound with every superfluous prime
        factor stripped, and it is cached per tau, so at most p values are
        ever stored.
        """
        a, b, c, d = A
        if b == c == 0 and a == d:
            return 1
        p = self.p
        tau = (a + d) ** 2 * pow(a * d - b * c, -1, p) % p
        n = self._orders.get(tau)
        if n is None:
            n = self._orders[tau] = self._class_order(ProjectiveMatrix(a, b, c, d), tau)
        return n

    def _class_order(self, A: ProjectiveMatrix, tau: int) -> int:
        p = self.p
        if tau == 4 % p:
            return p
        if tau == 0:
            return 2
        # F_2 has no quadratic character; its only such class is tau = 1,
        # of order 3 = p + 1
        split = p > 2 and pow(tau * (tau - 4), (p - 1) // 2, p) == 1
        n = p - 1 if split else p + 1
        for q in prime_factors(n):
            while n % q == 0 and self.power(A, n // q) == self.identity:
                n //= q
        return n

    def power(self, A: ProjectiveMatrix, e: int) -> ProjectiveMatrix:
        """A**e as a class (negative e via inverse)."""
        if e < 0:
            return self.power(self.inverse(A), -e)
        R = self.identity
        M = A
        while e:
            if e & 1:
                R = self.compose(R, M)
            M = self.compose(M, M)
            e >>= 1
        return R


@lru_cache(maxsize=None)
def projective_line(p: int) -> ProjectiveLine:
    """Shared per-prime instance, so its point tuple and its per-tau table
    of element orders are built once per prime."""
    return ProjectiveLine(p)
