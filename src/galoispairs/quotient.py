"""Constructive quotient maps and plane-curve parametrizations.

For a subgroup G with |G| coprime to p, a G-invariant rational function of
degree exactly |G| is read off the coefficients of prod_{g in G}(X - g(t)):
each coefficient is a symmetric function of the orbit {g(t)} and hence
invariant. A non-constant invariant has degree divisible by |G| (Artin's
theorem: F_p(t) has degree |G| over its G-invariant subfield), and each
coefficient has degree at most |G|, so every non-constant coefficient has
degree exactly |G|; they are not all constant, since t is a root of the
product.

The first coefficient tried is minus the orbit trace, f = -sum_g g(t),
and it is the invariant for every bundled group. It is read off the
partial fractions of the trace, not off the product:
- g = (a, b, c, d) sends t to (b + d t)/(a + c t). For c = 0 that is the
  line (b + d t)/a. Otherwise it is d/c plus the residue
  R = (bc - ad)/c^2 over t - u at the pole u = -a/c. So the trace is a
  line c0 + c1 t plus sum_u R_u/(t - u), with R_u summed over the g with
  pole u.
- Over the common denominator t^p - t, the sum has numerator
  sum_u R_u (t^p - t)/(t - u), whose coefficient of t^k is
  N_k = S_{p-1-k} - [k = 0] S_0, with S_j = sum_u R_u u^j and 0^0 = 1:
  (t^p - t)/(t - u) is sum_k u^(p-1-k) t^k - 1, as u^p = u.
- The power sums are one chirp transform (Bluestein, 1970). With u =
  alpha^i for a primitive root alpha and ij = C(i + j, 2) - C(i, 2) -
  C(j, 2), the u != 0 part of S_j is alpha^-C(j,2) sum_i R_(alpha^i)
  alpha^-C(i,2) alpha^C(i+j,2), a correlation read off one Poly product
  of p - 1 and 2(p - 1) terms; u = 0 adds R_0 to S_0 alone.
- Points u with R_u = 0 are no poles: their product C divides t^p - t and
  the numerator exactly, and E = (t^p - t)/C is the reduced denominator.
  f = -(N + (c0 + c1 t) E)/E is then in lowest terms with no gcd: at each
  root u of E the numerator is -R_u E'(u), and E is squarefree.
The cost is O(M(p)), one product of length O(p), whatever |G| is: a
small group at large p pays for the whole line, and a product tree and a
division more for C. Only when f has degree below |G| is the full
product expanded, by a balanced product tree (von zur Gathen and
Gerhard, Modern Computer Algebra, 10.1), and scanned.

A Moebius adjustment 1/(f - f(Q)) then moves the orbit of the base point
to the polar set, giving two maps over one common denominator and the
projective parametrization (A : B : D). At a pole Q of f it keeps f: for
regular transitive G every point of F_p is the pole of exactly one g, so
the top-ratio invariant has all of P^1(F_p) as its polar set.
"""

from __future__ import annotations

from .criterion import PairCertificate
from .errors import DegenerateInvariant, EvaluationAtPole, IrregularOrbit
from .field import primitive_root
from .polys import Poly, RationalFunction, _trim, point_values
from .projline import ProjectivePoint, projective_line
from .subgroups import Subgroup, generate_closure, orbit


def _orbit_product(G: Subgroup) -> list[Poly]:
    """The rows of prod_{g in G} (D_g X - N_g), N_g = b + d t, D_g = a + c t:
    row i is the t-polynomial multiplying X^i, so there are |G| + 1 rows.

    A _tree_product of the linear factors. Every row holds residues mod p
    from the leaves on, so rows become Poly without another reduction.
    """
    p = G.line.p
    rows = _tree_product([[(-b % p, -d % p), (a, c)] for (a, b, c, d) in G],
                         lambda A, B: _mul_rows(p, A, B))
    return [Poly._raw(p, _trim(list(row))) for row in rows]


def _tree_product(level: list, mul):
    """Balanced product tree: the factors are multiplied pairwise, level by
    level, an odd one out carried up to the next level."""
    while len(level) > 1:
        paired = [mul(A, B) for A, B in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


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


def _vanishing(p: int, roots) -> Poly:
    """prod_{z in roots} (t - z) by a _tree_product; 1 for no roots."""
    return _tree_product([Poly._raw(p, (-z % p, 1)) for z in roots]
                         or [Poly.const(p, 1)], Poly.__mul__)


def _line_poly(p: int) -> Poly:
    """t^p - t, the monic polynomial with all of F_p as simple roots."""
    return Poly._raw(p, (0, p - 1) + (0,) * (p - 2) + (1,))


def _power_sums(p: int, R: list) -> list:
    """S_j = sum_u R[u] u^j for j = 0..p-1, with 0^0 = 1, by the chirp
    transform of the module docstring (alpha = 1 at p = 2): coefficient
    p - 2 + j of w, highest i first, times the chirp alpha^C(m,2),
    m < 2(p - 1). Each chirp value is the one before times alpha^m, so no
    exponent is reduced mod p - 1."""
    n = p - 1
    alpha = primitive_root(p) if p > 2 else 1
    beta = pow(alpha, -1, p)
    chirp, x, step = [], 1, 1
    for _ in range(2 * n):
        chirp.append(x)
        x = x * step % p
        step = step * alpha % p
    down, x, step = [], 1, 1  # alpha^-C(j,2), j < p
    for _ in range(p):
        down.append(x)
        x = x * step % p
        step = step * beta % p
    w, u = [], 1
    for i in range(n):
        w.append(R[u] * down[i] % p)
        u = u * alpha % p
    w.reverse()
    prod = ((Poly._raw(p, _trim(w)) * Poly._raw(p, tuple(chirp))).coeffs
            or (0,) * (2 * n))
    S = [down[j] * prod[n - 1 + j] % p for j in range(p)]
    S[0] = (S[0] + R[0]) % p
    return S


def _top_ratio(G: Subgroup) -> RationalFunction:
    """Minus the orbit trace, -sum_g g(t), in lowest terms from its
    residues (module docstring): rows X^(|G|-1) over X^|G| of the orbit
    product, with no product and no gcd."""
    line = G.line
    p, inv = line.p, line.inverses()
    R = [0] * p
    c0 = c1 = 0
    for a, b, c, d in G.elements:
        if c:
            ic = inv[c]
            c0 += d * ic
            u = -a * ic % p
            R[u] += (b * c - a * d) * ic * ic
        else:
            ia = inv[a]
            c0 += b * ia
            c1 += d * ia
    R = [r % p for r in R]
    S = _power_sums(p, R)
    N = S[::-1]
    N[0] -= S[0]
    N = Poly(p, N)
    E = _line_poly(p)
    zeros = [u for u in range(p) if not R[u]]
    if zeros:
        C = _vanishing(p, zeros)
        E, N = E // C, N // C
    return RationalFunction._coprime(-(N + Poly(p, (c0, c1)) * E), E)


def invariant_generator(G: Subgroup) -> RationalFunction:
    """A rational function of degree |G| fixed by every element of G: the
    first ratio polys[i]/polys[|G|] of orbit-product rows, from the top,
    that is not constant.

    The top ratio, minus the orbit trace, is a line plus sum_u R_u/(t - u),
    R_u = sum (bc - ad)/c^2 over the g with pole u = -a/c. One chirp
    transform (ij = C(i + j, 2) - C(i, 2) - C(j, 2)) gives its numerator
    over t^p - t, with no gcd: the numerator is -R_u E'(u) != 0 at each
    root u of the denominator E. That costs O(M(p)) for every G, a small
    group at large p too. Only a ratio of degree below |G| sends the scan
    to the full product.

    One scan always finds it. Every ratio is G-invariant, so by Artin's
    theorem a non-constant one has degree divisible by |G|, and every row
    has t-degree at most |G|. The ratios are the coefficients of
    prod_g (X - g(t)), which has the root X = t from the identity, so they
    cannot all be constants in F_p. DegenerateInvariant marks a broken
    orbit product.
    """
    p = G.line.p
    n = len(G)
    if n % p == 0:
        raise ValueError("group order must be coprime to p")
    if n == 1:
        return RationalFunction(Poly.x(p), Poly.const(p, 1))
    f = _top_ratio(G)
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
    when the orbit contains it. That polynomial is (t^p - t) divided by
    the product over the other points of F_p, which is 1 when the orbit
    holds all of F_p: a comparison of coefficients, with no evaluation.
    Like the invariant, this costs O(M(p)) and more for a small orbit at
    large p, which pays a product tree and a division.
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
    p = line.p
    affine = {P.t for P in pts if P.s == 1}
    n = len(affine)
    polar = _line_poly(p)
    if n < p:
        polar = polar // _vanishing(p, [z for z in range(p) if z not in affine])
    ok = h.den == polar
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
    common polar set. The proof that the image curve has degree d is in
    the docstring of the implicitize module.
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
