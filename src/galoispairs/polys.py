"""Dense univariate polynomials over F_p and coprime rational functions.

Coefficients are plain ints in [0, p), stored lowest degree first with no
trailing zeros. Every product is one Kronecker substitution (von zur
Gathen and Gerhard, Modern Computer Algebra, 8.4): both operands are
packed into Python ints, one coefficient per slot, with slots wide enough
for any coefficient of the integer product, so no slot carries into the
next. The ints are multiplied once and the slots unpacked mod p. Python
ints are unbounded, so the product is exact for every p.
"""

from __future__ import annotations


def _trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _pack(coeffs, size: int) -> int:
    return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]),
                          "little")


class Poly:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = _trim([c % p for c in coeffs])

    @classmethod
    def _raw(cls, p: int, coeffs: tuple) -> "Poly":
        out = object.__new__(cls)
        out.p = p
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls._raw(p, ())

    @classmethod
    def const(cls, p: int, c) -> "Poly":
        c %= p
        return cls._raw(p, (c,) if c else ())

    @property
    def degree(self) -> int:
        """Degree with deg(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.p == self.p
                and other.coeffs == self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other):
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return Poly._raw(p, _trim(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = self.p
        return Poly._raw(p, tuple(-c % p for c in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.p)
        p = self.p
        # a product coefficient is a sum of at most min(len a, len b) products
        # of residues, so it is below 2**w for w the bit length of
        # min(len a, len b) * (p - 1)**2; slots are w bits rounded up to bytes
        size = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7 >> 3
        buf = (_pack(a, size) * _pack(b, size)).to_bytes(
            (len(a) + len(b) - 1) * size, "little")
        from_bytes = int.from_bytes
        # the leading coefficient is a product of two units, so no trim
        return Poly._raw(p, tuple([from_bytes(buf[i:i + size], "little") % p
                                   for i in range(0, len(buf), size)]))

    def scale(self, c) -> "Poly":
        p = self.p
        c %= p
        if not c:
            return Poly.zero(p)
        return Poly._raw(p, tuple(a * c % p for a in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(pow(self.lead, -1, self.p))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        p = self.p
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = len(b) - 1
        dq = len(rem) - len(b)
        if dq < 0:
            return Poly.zero(p), self
        inv_lead = pow(b[-1], -1, p)
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + db]
            if not top:
                continue
            q = top * inv_lead % p
            quo[k] = q
            # rem[k + db] becomes 0 and is never read again
            rem[k:k + db] = [(r - q * c) % p for r, c in zip(rem[k:k + db], b)]
        del rem[db:]
        return Poly._raw(p, tuple(quo)), Poly._raw(p, _trim(rem))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()


class RationalFunction:
    """num/den for a coprime pair, with the denominator made monic and no
    gcd taken: the package builds every pair coprime (quotient._top_ratio).
    The oracle reduced_fraction in tests/conftest.py reduces any pair."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        u = pow(den.lead, -1, den.p)
        self.num = num.scale(u)
        self.den = den.scale(u)

    @property
    def degree(self) -> int:
        """Degree as a self-map of the projective line."""
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and other.num == self.num and other.den == self.den)

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"

