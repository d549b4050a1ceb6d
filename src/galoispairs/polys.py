"""Dense univariate polynomials and reduced rational functions.

Coefficients are stored lowest degree first with no trailing zeros, over
any field object implementing the small element protocol (zero/one,
element, add/sub/mul/neg, inv). Multiplication over a prime field
goes through numpy's int64 convolution whenever its sums cannot overflow.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField

INFINITY = "infinity"  # projective value of a pole

_INT64_MAX = (1 << 63) - 1


def _fits_int64(terms: int, p: int) -> bool:
    """Whether a sum of `terms` products of residues mod p fits in int64."""
    return terms * (p - 1) ** 2 <= _INT64_MAX


def _trim(field, coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = _trim(field, [field.element(c) for c in coeffs])

    @classmethod
    def _raw(cls, field, coeffs: tuple) -> "Poly":
        out = object.__new__(cls)
        out.field = field
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls._raw(field, ())

    @classmethod
    def const(cls, field, c) -> "Poly":
        c = field.element(c)
        return cls._raw(field, () if c == field.zero else (c,))

    @classmethod
    def x(cls, field) -> "Poly":
        return cls._raw(field, (field.zero, field.one))

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
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly._raw(f, _trim(f, out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Poly._raw(f, tuple(f.neg(c) for c in self.coeffs))

    def __mul__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if (isinstance(f, PrimeField) and len(a) + len(b) > 8
                and _fits_int64(min(len(a), len(b)), f.p)):
            conv = np.convolve(np.array(a, dtype=np.int64),
                               np.array(b, dtype=np.int64)) % f.p
            return Poly._raw(f, _trim(f, [int(c) for c in conv]))
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == f.zero:
                continue
            for j, bj in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly._raw(f, _trim(f, out))

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.element(c)
        if c == f.zero:
            return Poly.zero(f)
        return Poly._raw(f, tuple(f.mul(a, c) for a in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lead))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(f), self
        inv_lead = f.inv(other.lead)
        quo = [f.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top == f.zero:
                continue
            q = f.mul(top, inv_lead)
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] = f.sub(rem[k + i], f.mul(q, c))
        return Poly._raw(f, _trim(f, quo)), Poly._raw(f, _trim(f, rem))

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

    def eval(self, t):
        """Horner evaluation at a field element."""
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, t), c)
        return acc


def vanishing_poly(field, roots) -> Poly:
    """Monic polynomial with the given roots (each simple)."""
    out = Poly.const(field, field.one)
    for t in roots:
        out = out * Poly(field, [field.neg(field.element(t)), field.one])
    return out


class RationalFunction:
    """Quotient of polynomials, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        u = den.field.inv(den.lead)
        self.num = num.scale(u)
        self.den = den.scale(u)

    @property
    def field(self):
        return self.den.field

    @property
    def degree(self) -> int:
        """Degree as a self-map of the projective line."""
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and other.num == self.num and other.den == self.den)

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"

    def reciprocal(self) -> "RationalFunction":
        return RationalFunction(self.den, self.num)

    def shift_value(self, c) -> "RationalFunction":
        """self - c (c a finite field element)."""
        return RationalFunction(self.num - self.den.scale(c), self.den)

    def eval_affine(self, t):
        """Value at the point (1:t); INFINITY at a pole."""
        vn = self.num.eval(t)
        vd = self.den.eval(t)
        if vd == self.field.zero:
            return INFINITY
        return self.field.mul(vn, self.field.inv(vd))

    def eval_infinity(self):
        """Value at (0:1)."""
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            return INFINITY
        if dn < dd:
            return self.field.zero
        return self.field.mul(self.num.lead, self.field.inv(self.den.lead))

    def eval_point(self, Q):
        """Value at a projective point (s:t) in canonical form."""
        if Q.s == 0:
            return self.eval_infinity()
        return self.eval_affine(Q.t)
