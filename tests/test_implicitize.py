import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galoispairs import (CurveParametrization, Poly, ResultantVanishes,
                         SearchConfig, case_subgroups, check_pair,
                         emit_parametrization, implicit_degree, parse_kind,
                         run_search)

REFERENCE_CASES = [(p, label) for p in (11, 23, 59) for label in "abc"]


def reference_parametrization(p, label):
    G1, G2 = case_subgroups(p, label)
    return emit_parametrization(check_pair(G1, G2))


def parametrization(p, A, B, D):
    return CurveParametrization(p, A, B, D, max(A.degree, B.degree, D.degree))


def compose(P, h):
    """P(h(t)) by Horner's rule."""
    out = Poly.zero(h.p)
    for c in reversed(P.coeffs):
        out = out * h + Poly.const(h.p, c)
    return out


def test_implicit_degree_line():
    p = 11
    param = CurveParametrization(p, Poly(p, [0, 1]), Poly(p, [1]),
                                 Poly(p, [1]), 1)
    assert implicit_degree(param) == 1


def test_implicit_degree_collapse_flagged():
    param = reference_parametrization(11, "a")
    collapsed = CurveParametrization(11, param.A, param.A, param.D, param.degree)
    assert implicit_degree(collapsed) == 1 != param.degree


@pytest.mark.parametrize("p,label", REFERENCE_CASES)
def test_implicit_degree_reference_cases(p, label):
    param = reference_parametrization(p, label)
    assert implicit_degree(param) == param.degree == p + 1


def resultant_image_degree(param):
    """The degree of a birational image by the sympy resultant, or None.

    Res_t(A - x D, B - y D) over ZZ[x, y], reduced mod p, is a constant
    times (image equation)^(map degree). A squarefree line slice of the
    resultant's full degree shows the power is 1, and then that degree is
    the image's. The sign fault of sympy.resultant (odd degrees,
    deg f < deg g) is immaterial.
    """
    sympy = pytest.importorskip("sympy")
    p = param.p
    t, x, y = sympy.symbols("t x y")

    def to_sympy(poly):
        return sum(int(c) * t ** k for k, c in enumerate(poly.coeffs))

    f = to_sympy(param.A) - x * to_sympy(param.D)
    g = to_sympy(param.B) - y * to_sympy(param.D)
    R = sympy.Poly(sympy.resultant(f, g, t), x, y, modulus=p)
    n = R.total_degree()
    for c, e in itertools.product(range(p), repeat=2):
        s = sympy.Poly(R.as_expr().subs(y, c * x + e), x, modulus=p)
        if s.degree() == n and all(m == 1 for _, m in s.sqf_list()[1]):
            return n
    return None


@pytest.mark.parametrize("label", "abc")
def test_resultant_oracle_at_11(label):
    param = reference_parametrization(11, label)
    assert resultant_image_degree(param) == 12
    assert implicit_degree(param) == 12


def c6_self_pair_at_5():
    """The curve of search --p 5 --kind1 C6 --kind2 C6 --strategy
    exhaustive-cyclic; D = t^5 - t vanishes at every rational parameter, so
    all six rational fibers lie over the line at infinity."""
    kind = parse_kind("C6")
    cert = run_search(SearchConfig(5, kind, kind, "exhaustive-cyclic"))
    return emit_parametrization(cert)


def test_resultant_oracle_reads_degree_6_on_the_c6_self_pair_at_5():
    param = c6_self_pair_at_5()
    assert param.degree == 6
    assert resultant_image_degree(param) == 6


@pytest.mark.xfail(strict=True, reason="the six rational fibers lie over three points "
                   "at infinity, two each, so the fiber scan reads d/2 = 3")
def test_implicit_degree_reads_degree_6_on_the_c6_self_pair_at_5():
    assert implicit_degree(c6_self_pair_at_5()) == 6


def test_resultant_vanishes_on_shared_factor():
    p = 11
    t = Poly(p, [0, 1])
    param = CurveParametrization(11, t * Poly(p, [1, 1]), t * Poly(p, [2, 1]),
                                 t, 2)
    with pytest.raises(ResultantVanishes):
        implicit_degree(param)


def test_point_image_raises():
    p = 11
    A = Poly(p, [3, 4, 6, 8])
    with pytest.raises(ResultantVanishes):
        implicit_degree(parametrization(p, A, Poly.zero(p), Poly.zero(p)))


def test_map_onto_the_line_at_infinity():
    p = 11
    A, B = Poly(p, [1, 2, 3]), Poly(p, [5, 0, 1, 4])
    assert A.gcd(B).degree == 0
    assert implicit_degree(parametrization(p, A, B, Poly.zero(p))) == 1


def test_fiber_at_infinity_counts():
    # D = 10 A + 4: the image is a line, and the affine fibers alone read 3
    p = 11
    A = Poly(p, [3, 4, 6, 8])
    param = parametrization(p, A, A + Poly.const(p, 1), A.scale(10) + Poly.const(p, 4))
    assert implicit_degree(param) == 1


def test_point_at_infinity_is_sampled():
    # a birational quartic at p = 5 whose five affine fibers all have size 2
    p = 5
    param = parametrization(p, Poly(p, [3, 4, 4]), Poly(p, [2, 4, 0, 0, 3]),
                            Poly(p, [2, 0, 3, 3, 1]))
    assert implicit_degree(param) == 4


def test_fiber_sizes_combine_by_gcd():
    # a quintic composed with t^2 + 2t + 3 at p = 5: no rational fiber has
    # the map degree 2, but the fiber sizes 4 and 6 are both multiples of it
    p = 5
    h = Poly(p, [3, 2, 1])
    base = parametrization(p, Poly(p, [1, 4]), Poly(p, [0, 0, 4, 1]),
                           Poly(p, [4, 0, 2, 2, 2, 3]))
    composed = parametrization(p, *(compose(P, h) for P in (base.A, base.B, base.D)))
    assert implicit_degree(composed) == implicit_degree(base) == 5


def test_quadratic_image_of_degree_two_map():
    # t -> (t^2 : t^2 + t + 1 : 1): a conic parametrized birationally
    p = 11
    param = CurveParametrization(p, Poly(p, [0, 0, 1]), Poly(p, [1, 1, 1]),
                                 Poly(p, [1]), 2)
    assert implicit_degree(param) == 2


PRIMES = st.sampled_from([5, 7, 11, 13, 101])


def polys(p, max_degree, min_degree=-1):
    """Polynomials over F_p of degree in [min_degree, max_degree]."""
    lower = st.lists(st.integers(0, p - 1), min_size=max(min_degree, 0),
                     max_size=max_degree)
    lead = st.integers(1 if min_degree >= 0 else 0, p - 1)
    return st.builds(lambda cs, c: Poly(p, cs + [c]), lower, lead)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_implicit_degree_invariant_under_reparametrization(data):
    p = data.draw(PRIMES)
    A, B, D = (data.draw(polys(p, 4)) for _ in range(3))
    h = data.draw(polys(p, 3, min_degree=2))
    d = max(A.degree, B.degree, D.degree)
    assume(d >= 1)
    # the exactness bound of the fiber count, for both maps
    assume(p + 1 > h.degree * (d - 1) * (d - 2))
    base = parametrization(p, A, B, D)
    composed = parametrization(p, *(compose(P, h) for P in (A, B, D)))
    try:
        want = implicit_degree(base)
    except ResultantVanishes:
        with pytest.raises(ResultantVanishes):
            implicit_degree(composed)
        return
    assert implicit_degree(composed) == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_implicit_degree_of_a_line_is_coordinate_free(data):
    # (A : A + c D : D) is (A : c D : D) after the change y -> y - x, and
    # both are non-constant maps onto a line unless A and D share a factor
    p = data.draw(PRIMES)
    A, D = data.draw(polys(p, 6)), data.draw(polys(p, 6))
    c = data.draw(st.integers(0, p - 1))
    line = parametrization(p, A, D.scale(c), D)
    sheared = parametrization(p, A, A + D.scale(c), D)
    try:
        want = implicit_degree(line)
    except ResultantVanishes:
        with pytest.raises(ResultantVanishes):
            implicit_degree(sheared)
        return
    assert implicit_degree(sheared) == want == (1 if line.degree >= 1 else 0)
