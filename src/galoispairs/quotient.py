"""Constructive quotient maps and plane-curve parametrizations.

For a subgroup G with |G| coprime to p, a G-invariant rational function of
degree exactly |G| is read off the coefficients of prod_{g in G}(X - g(t)):
each coefficient is a symmetric function of the orbit {g(t)} and hence
invariant. A non-constant invariant has degree divisible by |G| (Artin's
theorem: F_p(t) has degree |G| over its G-invariant subfield), and each
coefficient has degree at most |G|, so every non-constant coefficient has
degree exactly |G|; they are not all constant, since t is a root of the
product. The product is expanded by a balanced product tree
(von zur Gathen and Gerhard, Modern Computer Algebra, 10.1), each node one
univariate Poly product by Kronecker substitution. The coefficient of
X^(deg - j) in a product depends only on the top j + 1 X-rows of each
factor, so a tree whose nodes keep only their top r rows gives the top r
rows of the product exactly. The first ratio tried, minus the orbit
trace, needs only the top two rows and is the invariant for every bundled
group; the full product is expanded only when that ratio is constant.
A Moebius adjustment 1/(f - f(Q)) then moves the orbit of the base point
to the polar set, giving two maps over one common denominator and the
projective parametrization (A : B : D). At a pole Q of f it keeps f: for
regular transitive G, the top-ratio invariant has all of P^1(F_p) as its
polar set.
"""

from __future__ import annotations

from .criterion import PairCertificate
from .errors import DegenerateInvariant, EvaluationAtPole, IrregularOrbit
from .polys import Poly, RationalFunction, _trim, point_values
from .projline import ProjectivePoint, projective_line
from .subgroups import Subgroup, generate_closure, orbit


def _orbit_product(G: Subgroup, rows: int | None = None) -> list[Poly]:
    """The rows of prod_{g in G} (D_g X - N_g), N_g = b + d t, D_g = a + c t:
    row i is the t-polynomial multiplying X^i, so there are |G| + 1 rows;
    with `rows`, only the top `rows` of them.

    Balanced product tree: the linear factors are multiplied pairwise,
    level by level, an odd one out carried up to the next level. Every
    row holds residues mod p from the leaves on, so rows become Poly
    without another reduction. With `rows`, each node keeps its top rows
    only, which is exact: the top row of every node is prod D_g, never
    zero since (a, c) is the first column of a nonsingular matrix, and the
    coefficient of X^(deg - j) in a product reads the top j + 1 rows of
    each factor.
    """
    p = G.line.p
    r = rows or len(G) + 1
    level = [[(-b % p, -d % p), (a, c)] for (a, b, c, d) in G]
    while len(level) > 1:
        paired = [_mul_rows(p, A[-r:], B[-r:])[-r:]
                  for A, B in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return [Poly._raw(p, _trim(list(row))) for row in level[0][-r:]]


def _mul_rows(p: int, A: list, B: list) -> list:
    """Product of two polynomials in X, each given as rows of t-coefficients
    (row i multiplies X^i, lowest t-degree first).

    One univariate Poly product by Kronecker substitution X = t^s: with s
    one more than the largest t-degree a product row can reach, no row
    spills into the next. Rows must hold residues mod p, and each operand
    needs a non-zero row; product rows come back as residues, possibly
    with trailing zeros.
    """
    s = max(map(len, A)) + max(map(len, B)) - 1

    def pack(rows):
        out = []
        for row in rows:
            out.extend(row)
            out.extend([0] * (s - len(row)))
        return Poly._raw(p, _trim(out))

    prod = (pack(A) * pack(B)).coeffs
    return [prod[i:i + s] for i in range(0, (len(A) + len(B) - 1) * s, s)]


def invariant_generator(G: Subgroup) -> RationalFunction:
    """A rational function of degree |G| fixed by every element of G: the
    first ratio polys[i]/polys[|G|] of orbit-product rows, from the top,
    that is not constant.

    The top ratio, minus the orbit trace, is read off a product tree that
    keeps two rows per node; only when it is constant is the full product
    expanded and scanned. One scan always finds it. Every ratio is
    G-invariant, so by Artin's theorem a non-constant one has degree
    divisible by |G|, and every row has t-degree at most |G|. The ratios
    are the coefficients of prod_g (X - g(t)), which has the root X = t
    from the identity, so they cannot all be constants in F_p.
    DegenerateInvariant marks a broken orbit product.
    """
    p = G.line.p
    n = len(G)
    if n % p == 0:
        raise ValueError("group order must be coprime to p")
    if n == 1:
        return RationalFunction(Poly.x(p), Poly.const(p, 1))
    f = RationalFunction(*_orbit_product(G, 2))
    if f.degree == n:
        return f
    polys = _orbit_product(G)
    top = polys[n]
    for i in range(n - 2, -1, -1):
        if polys[i].degree < 0:
            continue
        f = RationalFunction(polys[i], top)
        if f.degree == n:
            return f
    raise DegenerateInvariant(f"no degree-{n} invariant coefficient found")


def moebius_adjust(f: RationalFunction, G: Subgroup,
                   Q: ProjectivePoint) -> RationalFunction:
    """h = 1/(f - f(Q)), with the orbit of Q as its simple polar set.

    With (vn, vd) the values of f.num and f.den at Q (point_values), h is
    vd den / (vd num - vn den), coprime as num and den are. At a pole of f,
    vd = 0 and h = f: for regular transitive G, the top-ratio invariant has
    all of P^1(F_p) as its polar set.

    Requires the orbit to be regular (length |G|). The reduced denominator
    must come out as the monic vanishing polynomial of the orbit's affine
    points, with the degree excess accounting for a pole at (0:1) exactly
    when the orbit contains it. The denominator is monic, so it is that
    polynomial exactly when its degree is the number of affine orbit points
    and it vanishes at each of them: they are distinct roots.
    """
    line = G.line
    Q = line.point(Q.s, Q.t)
    pts = orbit(G, Q)
    if len(pts) != len(G):
        raise IrregularOrbit(f"orbit of {Q} has length {len(pts)} != {len(G)}")
    vn, vd = point_values((f.num, f.den), f.degree, Q)
    h = f
    if vd:
        h = RationalFunction._coprime(f.den.scale(vd),
                                      f.num.scale(vd) - f.den.scale(vn))
    affine = [P.t for P in pts if P.s == 1]
    n = len(affine)
    ok = h.den.degree == n and not any(h.den.eval(t) for t in affine)
    if n < len(pts):  # (0:1) is in the orbit
        ok = ok and h.num.degree == n + 1
    else:
        ok = ok and h.num.degree <= n
    if not ok or h.degree != len(G):
        raise EvaluationAtPole(
            f"polar set of the adjusted invariant is not the orbit of {Q}")
    return h


class CurveParametrization:
    """Projective map (A(t) : B(t) : D(t)) of max component degree `degree`."""

    __slots__ = ("p", "A", "B", "D", "degree")

    def __init__(self, p: int, A: Poly, B: Poly, D: Poly, degree: int):
        self.p = p
        self.A = A
        self.B = B
        self.D = D
        self.degree = degree

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "A": list(self.A.coeffs),
            "B": list(self.B.coeffs),
            "D": list(self.D.coeffs),
        }


def emit_parametrization(cert: PairCertificate) -> CurveParametrization:
    """Degree-d plane parametrization witnessing a passing certificate.

    The two coordinate projections (A : D) and (B : D) are the adjusted
    invariants of the two groups, sharing the base-point orbit as their
    common polar set.
    """
    if cert.verdict != "pass":
        raise ValueError("pair fails the criterion: " + "; ".join(cert.failures))
    line = projective_line(cert.p)
    G1 = generate_closure(line, cert.g1_generators)
    G2 = generate_closure(line, cert.g2_generators)
    Q = cert.base_point
    h1 = moebius_adjust(invariant_generator(G1), G1, Q)
    h2 = moebius_adjust(invariant_generator(G2), G2, Q)
    if h1.den != h2.den:
        raise EvaluationAtPole("the two adjusted invariants disagree on the "
                               "common denominator")
    degree = max(h1.num.degree, h2.num.degree, h1.den.degree)
    return CurveParametrization(p=cert.p, A=h1.num, B=h2.num, D=h1.den,
                                degree=degree)
