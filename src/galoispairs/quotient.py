"""Constructive quotient maps and plane-curve parametrizations.

For a subgroup G with |G| coprime to p and a base point Q, the invariant
of G anchored at the orbit of Q is

    h_Q = -sum_{g in G} Phi(g(t)),

where P is the first point of the orbit in line.points() order and Phi is
the Moebius map that sends P to (0:1): the identity for P = (0:1), else
x -> 1/(x - P.t). It gives both coordinates of a curve:
- h_Q is G-invariant: h_Q(k(t)) = -sum_g Phi(g(k(t))) for k in G, and g
  after k runs over G as g does.
- Phi(g(t)) has degree 1, with its one pole at the point that g sends to
  P. If the orbit is regular, g -> that point is a bijection from G onto
  the orbit, so each orbit point is a simple pole of exactly one term,
  with a non-zero residue, and there is no other pole: h_Q has degree |G|
  and the orbit as its polar set.
- If the stabilizer S of P has order e > 1, then e is prime to p, and
  Phi S Phi^-1 fixes (0:1): s in S acts as w -> z_s w + b_s, and s -> z_s
  is one-to-one (a translation has order p), so the z_s are the e-th
  roots of unity. The terms with a pole at an orbit point u are
  Phi(s(g(t))) = z_s Phi(g(t)) + b_s, for one g that sends u to P, so
  their residues are r z_s, which sum to 0. h_Q has no pole and is
  constant, and the orbit is regular exactly when deg h_Q = |G|: the
  orbit-length test of moebius_adjust is the degree test.
When (0:1) lies in the orbit, Phi is the identity and h_Q is minus the
orbit trace. For regular transitive G every point of F_p is the pole of
exactly one g, so that invariant has all of P^1(F_p) as its polar set.

h_Q is read off the partial fractions of the sum of the maps g', Phi
after g, not off a product:
- g' = (a, b, c, d) sends t to (b + d t)/(a + c t). For c = 0 that is the
  line (b + d t)/a. Otherwise it is d/c plus the residue
  R = (bc - ad)/c^2 over t - u at the pole u = -a/c. So the sum is a
  line c0 + c1 t plus sum_u R_u/(t - u), with R_u summed over the g' with
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
  h = -(N + (c0 + c1 t) E)/E is then in lowest terms with no gcd: at each
  root u of E the numerator is -R_u E'(u), and E is squarefree.
The cost is O(M(p)), one product of length O(p), whatever |G| is: a
small group at large p pays for the whole line, and a balanced product
tree (von zur Gathen and Gerhard, Modern Computer Algebra, 10.1) and a
division more for C.
"""

from __future__ import annotations

from .criterion import DEFAULT_BASE_POINT, PairCertificate
from .errors import EvaluationAtPole, IrregularOrbit
from .field import primitive_root
from .polys import Poly, RationalFunction, _trim
from .projline import (ProjectiveLine, ProjectiveMatrix, ProjectivePoint,
                       projective_line)
from .subgroups import Subgroup, generate_closure, orbit


def _tree_product(level: list):
    """Balanced product tree: the factors are multiplied pairwise, level by
    level, an odd one out carried up to the next level."""
    while len(level) > 1:
        paired = [A * B for A, B in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def _vanishing(p: int, roots) -> Poly:
    """prod_{z in roots} (t - z) by a _tree_product; 1 for no roots."""
    return _tree_product([Poly._raw(p, (-z % p, 1)) for z in roots]
                         or [Poly.const(p, 1)])


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


def _top_ratio(line: ProjectiveLine, elements) -> RationalFunction:
    """Minus the sum of the maps t -> (b + d t)/(a + c t) of `elements`, in
    lowest terms from its residues (module docstring), with no product and
    no gcd."""
    p, inv = line.p, line.inverses()
    R = [0] * p
    c0 = c1 = 0
    for a, b, c, d in elements:
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
    return RationalFunction(-(N + Poly(p, (c0, c1)) * E), E)


def invariant_generator(G: Subgroup,
                        Q: ProjectivePoint = DEFAULT_BASE_POINT) -> RationalFunction:
    """h_Q = -sum_g Phi(g(t)), the invariant of G anchored at the orbit of Q
    (module docstring), returned once moebius_adjust checks that it has
    degree |G| and the orbit of Q as its simple polar set.

    The anchor P = min(orbit(G, Q)) is (0:1), with no orbit walk, when Q
    is (0:1), and Phi = (-P.t, 1, 1, 0) sends it to (0:1); _top_ratio sums
    the maps g then Phi. Raises ValueError when p divides |G|, and
    IrregularOrbit or EvaluationAtPole from moebius_adjust.
    """
    line = G.line
    if len(G) % line.p == 0:
        raise ValueError("group order must be coprime to p")
    Q = line.point(Q.s, Q.t)
    elements = G.elements
    if Q.s:
        P = min(orbit(G, Q))
        if P.s:
            phi = ProjectiveMatrix(-P.t, 1, 1, 0)
            elements = [line.compose(A, phi) for A in elements]
    return moebius_adjust(_top_ratio(line, elements), G, Q)


def moebius_adjust(f: RationalFunction, G: Subgroup,
                   Q: ProjectivePoint) -> RationalFunction:
    """f, once its polar set is checked to be the orbit of Q, simple.

    Raises IrregularOrbit unless the orbit is regular (length |G|). The
    reduced denominator must be the monic vanishing polynomial of the
    orbit's affine points, with the degree excess accounting for a pole at
    (0:1) exactly when the orbit contains it, or EvaluationAtPole is
    raised. That polynomial is t^p - t when the orbit holds all of F_p,
    else the product tree over the orbit's at most |G| affine points: a
    comparison of coefficients, with no evaluation. invariant_generator
    calls it on every invariant it returns, the tests on other functions.
    """
    line = G.line
    Q = line.point(Q.s, Q.t)
    pts = orbit(G, Q)
    if len(pts) != len(G):
        raise IrregularOrbit(f"orbit of {Q} has length {len(pts)} != {len(G)}")
    p = line.p
    affine = [P.t for P in pts if P.s == 1]
    polar = _line_poly(p) if len(affine) == p else _vanishing(p, affine)
    # with deg f.den = len(affine), deg f = |G| puts the excess pole at (0:1)
    # exactly when the orbit holds it: deg f.num is one more then, else no more
    if f.den != polar or f.degree != len(G):
        raise EvaluationAtPole(f"polar set of the invariant is not the orbit of {Q}")
    return f


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

    The two coordinate projections (A : D) and (B : D) are the invariants
    of the two groups anchored at the base point, each checked to have its
    orbit as polar set. The proof that the image curve has degree d is in
    the docstring of the implicitize module.
    """
    if cert.verdict != "pass":
        raise ValueError("pair fails the criterion: " + "; ".join(cert.failures))
    line = projective_line(cert.p)
    G1 = generate_closure(line, cert.g1_generators)
    G2 = generate_closure(line, cert.g2_generators)
    Q = cert.base_point
    h1 = invariant_generator(G1, Q)
    h2 = invariant_generator(G2, Q)
    if h1.den != h2.den:
        raise EvaluationAtPole("the two invariants disagree on the common "
                               "denominator")
    degree = max(h1.num.degree, h2.num.degree, h1.den.degree)
    return CurveParametrization(p=cert.p, A=h1.num, B=h2.num, D=h1.den,
                                degree=degree)
