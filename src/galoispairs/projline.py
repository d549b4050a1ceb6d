"""Canonical points of P^1(F_p) and canonical PGL(2, F_p) matrix classes.

Convention: matrices act on the right of row vectors, (s, t) -> (s, t)A.
Consequently apply(apply(Q, A), B) == apply(Q, compose(A, B)), i.e. the
matrix product A*B means "A first, then B" on points.

Canonical forms make projective equivalence a syntactic equality:
a point is (1, t) or (0, 1); a matrix class is scaled so that its first
nonzero entry in reading order (a, b, c, d) equals 1. The first row of a
nonsingular matrix is never zero, so that entry is a or b.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import ModulusOutOfRange, SingularMatrix
from .field import is_prime, prime_factors

new = tuple.__new__  # new(ProjectiveMatrix, (a, b, c, d)), skipping NamedTuple's Python __new__


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

    def __init__(self, p: int):
        if p >= 2 ** 31:  # before is_prime's trial division and any O(p) table
            raise ModulusOutOfRange(f"p={p} is not below 2**31")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        self.p = p
        self._points: tuple[ProjectivePoint, ...] | None = None
        self._inverses: list[int] | None = None
        self._orders: dict[int, int] = {}  # tau = tr^2/det -> class order

    def __repr__(self):
        return f"ProjectiveLine({self.p})"

    # -- construction ---------------------------------------------------

    def point(self, s: int, t: int) -> ProjectivePoint:
        """Canonical point (s:t); (0,0) is rejected."""
        p = self.p
        s, t = s % p, t % p
        if s == 0 and t == 0:
            raise ValueError("(0:0) is not a projective point")
        return new(ProjectivePoint, (1, t * pow(s, -1, p) % p) if s else (0, 1))

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
        a, b, c, d = a % p, b % p, c % p, d % p
        if (a * d - b * c) % p == 0:
            raise SingularMatrix(f"[[{a},{b}],[{c},{d}]] is singular mod {p}")
        u = pow(a or b, -1, p)
        return new(ProjectiveMatrix, (a * u % p, b * u % p, c * u % p, d * u % p))

    identity = ProjectiveMatrix(1, 0, 0, 1)

    def points(self) -> tuple[ProjectivePoint, ...]:
        """All p+1 rational points: (0:1) first, then (1:t) for t = 0..p-1."""
        if self._points is None:
            self._points = tuple([new(ProjectivePoint, (1, t - 1) if t else (0, 1))
                                  for t in range(self.p + 1)])
        return self._points

    def inverses(self) -> list[int]:
        """x -> 1/x mod p for x = 0..p-1, with 0 -> 0, from the recurrence
        1/x = -(p // x) / (p % x): O(p), no pow."""
        p = self.p
        if self._inverses is None:
            inv = self._inverses = [0, 1][:p]
            for x in range(2, p):
                inv.append(-(p // x) * inv[p % x] % p)
        return self._inverses

    # -- operations -----------------------------------------------------

    def compose(self, A: ProjectiveMatrix, B: ProjectiveMatrix) -> ProjectiveMatrix:
        """Canonical form of the matrix product A*B."""
        p = self.p
        a = (A.a * B.a + A.b * B.c) % p
        b = (A.a * B.b + A.b * B.d) % p
        c = (A.c * B.a + A.d * B.c) % p
        d = (A.c * B.b + A.d * B.d) % p
        u = pow(a or b, -1, p)
        return new(ProjectiveMatrix, (a * u % p, b * u % p, c * u % p, d * u % p))

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
        class is every lambda * I, and tau = tr^2 / det is invariant under
        scaling. The order of a non-identity class depends on tau alone
        (_class_order), so it is cached per tau: at most p values are ever
        stored, and a cache miss reads four scalars and builds no matrix.
        """
        a, b, c, d = A
        if b == c == 0 and a == d:
            return 1
        p = self.p
        tau = (a + d) ** 2 * pow(a * d - b * c, -1, p) % p
        n = self._orders.get(tau)
        if n is None:
            n = self._orders[tau] = self._class_order(tau)
        return n

    def _class_order(self, tau: int) -> int:
        """Order of every non-identity class with tr^2 / det = tau.

        Let mu, nu be the eigenvalues of a representative A (in F_p or
        F_{p^2}) and lambda = mu / nu, so tau = mu/nu + 2 + nu/mu and
        s = tau - 2 = lambda + 1/lambda. tau = 4 % p is the parabolic
        class (lambda = 1, A not scalar), of order p, and tau = 0 is
        lambda = -1, of order 2. Otherwise mu != nu, A is diagonalizable
        over F_{p^2}, and A**m is scalar iff mu^m = nu^m iff lambda^m = 1.
        By the classification of PGL(2, q) (Dickson, Linear Groups, 1901),
        lambda lies in F_p^* when tau(tau - 4) is a nonzero square and in
        the norm-1 subgroup of F_{p^2}^* otherwise, so the order divides
        n = p - 1 or n = p + 1; it is n with every superfluous prime
        factor stripped.

        Each test lambda^m = 1 is read off the Lucas sequence with Q = 1,
        V_m = lambda^m + lambda^-m, a polynomial in s over F_p:
        lambda^m (V_m - 2) = (lambda^m - 1)^2, so V_m = 2 iff lambda^m = 1,
        in every characteristic. V_m is computed by the ladder
        V_2k = V_k^2 - 2, V_2k+1 = V_k V_k+1 - s from (V_0, V_1) = (2, s):
        two scalar products per bit of m.
        """
        p = self.p
        if tau == 4 % p:
            return p
        if tau == 0:
            return 2
        # F_2 has no quadratic character; its only such class is tau = 1,
        # of order 3 = p + 1
        split = p > 2 and pow(tau * (tau - 4), (p - 1) // 2, p) == 1
        n = p - 1 if split else p + 1
        s = (tau - 2) % p
        two = 2 % p
        for q in prime_factors(n):
            while n % q == 0 and _lucas_v(n // q, s, p) == two:
                n //= q
        return n

    def power(self, A: ProjectiveMatrix, e: int) -> ProjectiveMatrix:
        """A**e as a class, for e >= 0."""
        R = self.identity
        M = A
        while e:
            if e & 1:
                R = self.compose(R, M)
            M = self.compose(M, M)
            e >>= 1
        return R


def _lucas_v(m: int, s: int, p: int) -> int:
    """V_m(s) mod p for the Lucas sequence V_0 = 2, V_1 = s,
    V_k+1 = s V_k - V_k-1, by the doubling ladder over the bits of m."""
    lo, hi = 2, s  # (V_k, V_k+1), k = the bits of m read so far
    for bit in bin(m)[2:]:
        if bit == "1":
            lo, hi = (lo * hi - s) % p, (hi * hi - 2) % p
        else:
            lo, hi = (lo * lo - 2) % p, (lo * hi - s) % p
    return lo


@lru_cache(maxsize=None)
def projective_line(p: int) -> ProjectiveLine:
    """Shared per-prime instance, so its point tuple and its per-tau table
    of element orders are built once per prime."""
    return ProjectiveLine(p)
