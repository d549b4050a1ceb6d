import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CubicField, canonical_matrices, fiber_size, image_degree, run_main
from galoispairs import (CurveParametrization, DegenerateInvariant, PairCertificate, Poly,
                         SearchConfig, case_subgroups, check_pair, conjugate,
                         emit_parametrization, intersect, parse_kind, projective_line,
                         run_search)
from galoispairs.cli import EXIT_EXHAUSTED, EXIT_FAIL, EXIT_INVALID, EXIT_PASS
from galoispairs.implicitize import implicit_degree
from galoispairs.search import _transitive_group

REFERENCE_CASES = [(p, label) for p in (11, 23, 59) for label in "abc"]


def reference_certificate(p, label):
    return check_pair(*case_subgroups(p, label))


def reference_parametrization(p, label):
    return emit_parametrization(reference_certificate(p, label))


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
    assert image_degree(param) == 1


def test_implicit_degree_collapse_flagged():
    param = reference_parametrization(11, "a")
    collapsed = CurveParametrization(11, param.A, param.A, param.D, param.degree)
    assert image_degree(collapsed) == 1 != param.degree


@pytest.mark.parametrize("p,label", REFERENCE_CASES)
def test_implicit_degree_reference_cases(p, label):
    cert = reference_certificate(p, label)
    param = emit_parametrization(cert)
    assert implicit_degree(cert, param) == image_degree(param) == param.degree == p + 1


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
    cert = reference_certificate(11, label)
    param = emit_parametrization(cert)
    assert resultant_image_degree(param) == 12
    assert implicit_degree(cert, param) == 12


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


def emit_self_pair_curve(tmp_path, p, kind):
    """search --p p --kind1 kind --kind2 kind --strategy exhaustive-cyclic,
    then emit-curve on its certificate: (search exit code, emit-curve exit
    code, emit-curve stdout lines)."""
    rc, cert, _ = run_main(["search", "--p", str(p), "--kind1", kind, "--kind2", kind,
                            "--strategy", "exhaustive-cyclic"])
    if rc != EXIT_PASS:
        return rc, None, None
    path = tmp_path / "cert.json"
    path.write_text(cert)
    rc_emit, curve, _ = run_main(["emit-curve", str(path)])
    return rc, rc_emit, curve.splitlines()


def test_emit_curve_reads_degree_6_on_the_c6_self_pair_at_5(tmp_path):
    # the six rational fibers lie over three points at infinity, two each, so
    # P^1(F_5) alone reads d/2 = 3; the fibers over F_125 read 6
    assert emit_self_pair_curve(tmp_path, 5, "C6") == (
        EXIT_PASS, EXIT_PASS, [json.dumps(c6_self_pair_at_5().to_dict(), sort_keys=True),
                               "implicit_degree=6"])
    assert image_degree(c6_self_pair_at_5()) == 6


SWEEP_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


@pytest.mark.parametrize("family", "CD")
@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_emit_curve_reads_degree_p_plus_1_on_every_self_pair(tmp_path, p, family):
    # the C and D self-pair certificates that search writes at p <= 61; D4 is
    # the one kind with no transitive pair (search exits 3)
    rc, rc_emit, lines = emit_self_pair_curve(tmp_path, p, f"{family}{p + 1}")
    if (p, family) == (3, "D"):
        assert rc == EXIT_EXHAUSTED
        return
    assert (rc, rc_emit, lines[-1]) == (EXIT_PASS, EXIT_PASS, f"implicit_degree={p + 1}")
    curve = json.loads(lines[0])
    param = CurveParametrization(p, *(Poly(p, curve[key]) for key in "ABD"), curve["degree"])
    assert image_degree(param) == p + 1


@pytest.mark.parametrize("family", "CD")
@pytest.mark.parametrize("p", [401, 1009])
def test_one_fiber_over_f_p3_reads_degree_p_plus_1_on_large_self_pairs(p, family):
    # every fiber size is a multiple of the map degree, so one fiber of size 1
    # proves the map birational and the image of degree d. The rational points
    # of these curves lie over the line at infinity, most of them over nodes,
    # so the scan would spend about p gcds of degree p + 1 before F_{p^3}
    kind = parse_kind(f"{family}{p + 1}")
    param = emit_parametrization(run_search(SearchConfig(p, kind, kind, "exhaustive-cyclic")))
    F = CubicField(p)
    assert param.degree == p + 1
    assert fiber_size(param, F, F.element(p)) == 1  # the fiber over the image of w


def d8_and_conjugates_at_7():
    """D8 at p = 7, and for each size 2 and 4 the first conjugate in the
    canonical order that meets it in that many elements."""
    line = projective_line(7)
    G = _transitive_group(line, parse_kind("D8"))
    meets = {}
    for b in canonical_matrices(7):
        H = conjugate(G, b)
        meets.setdefault(len(intersect(G, H)), H)
    return G, meets


@pytest.mark.parametrize("meet", [2, 4])
def test_the_map_degree_is_the_intersection_order(tmp_path, meet):
    # the degree proof needs G1 ∩ G2 = 1: a pair that meets in `meet`
    # elements fails check-pair and emit-curve, and its parametrization, made
    # by force, is a map of degree `meet` onto a curve of degree 8 / meet
    G, meets = d8_and_conjugates_at_7()
    H = meets[meet]
    cert = check_pair(G, H)
    assert (cert.intersection_size, cert.failures) == (meet, ("intersection not trivial",))
    doc = {"p": 7, "g1": {"generators": [M.rows() for M in G.generators]},
           "g2": {"generators": [M.rows() for M in H.generators]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert run_main(["check-pair", str(path)]) == (EXIT_FAIL, cert.to_json() + "\n", "")
    assert run_main(["emit-curve", str(path)])[0] == EXIT_INVALID
    forced = PairCertificate(**{key: getattr(cert, key) for key in PairCertificate.__slots__
                                if key != "failures"}, failures=())
    param = emit_parametrization(forced)
    assert param.degree == 8
    assert param.degree // image_degree(param) == meet


def test_pinned_map_of_degree_2_onto_a_quartic_at_5():
    # every one of the six rational fibers has size 4, so P^1(F_5) alone reads
    # 8 / 4 = 2; the fibers over F_125 find the map degree 2
    p = 5
    param = parametrization(p, Poly(p, [3, 4, 0, 3, 3, 4, 0, 1, 4]), Poly(p, [3, 2, 2]),
                            Poly(p, [2, 0, 4, 4, 4, 1, 3, 3, 2]))
    assert image_degree(param) == 4


def test_implicit_degree_needs_a_passing_certificate_of_the_curve_degree():
    cert = reference_certificate(11, "a")
    param = emit_parametrization(cert)
    G1, _ = case_subgroups(11, "a")
    with pytest.raises(DegenerateInvariant, match="verdict is fail"):
        implicit_degree(check_pair(G1, G1), param)
    line = CurveParametrization(11, Poly(11, [0, 1]), Poly(11, [1]), Poly(11, [1]), 1)
    with pytest.raises(DegenerateInvariant, match="parametrization's degree 1"):
        implicit_degree(cert, line)


def test_resultant_vanishes_on_shared_factor():
    p = 11
    t = Poly(p, [0, 1])
    param = CurveParametrization(11, t * Poly(p, [1, 1]), t * Poly(p, [2, 1]),
                                 t, 2)
    with pytest.raises(ValueError):
        image_degree(param)


def test_point_image_raises():
    p = 11
    A = Poly(p, [3, 4, 6, 8])
    with pytest.raises(ValueError):
        image_degree(parametrization(p, A, Poly.zero(p), Poly.zero(p)))


def test_map_onto_the_line_at_infinity():
    p = 11
    A, B = Poly(p, [1, 2, 3]), Poly(p, [5, 0, 1, 4])
    assert A.gcd(B).degree == 0
    assert image_degree(parametrization(p, A, B, Poly.zero(p))) == 1


def test_fiber_at_infinity_counts():
    # D = 10 A + 4: the image is a line, and the affine fibers alone read 3
    p = 11
    A = Poly(p, [3, 4, 6, 8])
    param = parametrization(p, A, A + Poly.const(p, 1), A.scale(10) + Poly.const(p, 4))
    assert image_degree(param) == 1


def test_point_at_infinity_is_sampled():
    # a birational quartic at p = 5 whose five affine fibers all have size 2
    p = 5
    param = parametrization(p, Poly(p, [3, 4, 4]), Poly(p, [2, 4, 0, 0, 3]),
                            Poly(p, [2, 0, 3, 3, 1]))
    assert image_degree(param) == 4


def test_fiber_sizes_combine_by_gcd():
    # a quintic composed with t^2 + 2t + 3 at p = 5: no rational fiber has
    # the map degree 2, but the fiber sizes 4 and 6 are both multiples of it
    p = 5
    h = Poly(p, [3, 2, 1])
    base = parametrization(p, Poly(p, [1, 4]), Poly(p, [0, 0, 4, 1]),
                           Poly(p, [4, 0, 2, 2, 2, 3]))
    composed = parametrization(p, *(compose(P, h) for P in (base.A, base.B, base.D)))
    assert image_degree(composed) == image_degree(base) == 5


def test_quadratic_image_of_degree_two_map():
    # t -> (t^2 : t^2 + t + 1 : 1): a conic parametrized birationally
    p = 11
    param = CurveParametrization(p, Poly(p, [0, 0, 1]), Poly(p, [1, 1, 1]),
                                 Poly(p, [1]), 2)
    assert image_degree(param) == 2


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
    # the bound under which P^1(F_p) alone decides both degrees
    assume(p + 1 > h.degree * (d - 1) * (d - 2))
    base = parametrization(p, A, B, D)
    composed = parametrization(p, *(compose(P, h) for P in (A, B, D)))
    try:
        want = image_degree(base)
    except ValueError:
        with pytest.raises(ValueError):
            image_degree(composed)
        return
    assert image_degree(composed) == want


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
        want = image_degree(line)
    except ValueError:
        with pytest.raises(ValueError):
            image_degree(sheared)
        return
    assert image_degree(sheared) == want == (1 if line.degree >= 1 else 0)
