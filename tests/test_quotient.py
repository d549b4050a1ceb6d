import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (POLE, all_subgroups, anchored_invariant, canonical_matrices,
                      expanded_orbit_product, is_invariant_under,
                      reduced_fraction, seeded_random_subgroups,
                      trivial_subgroup, value_at, vanishing_poly)
from galoispairs import (LABELS, PRIMES, CurveParametrization,
                         EvaluationAtPole, GroupKind, IrregularOrbit, PairCertificate, Poly,
                         ProjectivePoint, RationalFunction, case_subgroups,
                         check_pair, conjugate, emit_parametrization,
                         generate_closure, invariant_generator, moebius_adjust,
                         orbit, projective_line, quotient)
from galoispairs.quotient import (_line_poly, _power_sums, _top_ratio,
                                  _vanishing)
from galoispairs.search import _transitive_group


def fibers(f, line):
    """Level sets of f on the rational points, keyed by value (or POLE)."""
    out = {}
    for Q in line.points():
        out.setdefault(value_at(f, Q), set()).add(Q)
    return {k: frozenset(v) for k, v in out.items()}


def negation_group(p=11):
    line = projective_line(p)
    return generate_closure(line, [line.matrix([[-1, 0], [0, 1]])])


def test_trivial_group_invariant_is_identity_map():
    # anchored at (0:1), the one term is minus the identity map: -t
    line = projective_line(11)
    f = invariant_generator(trivial_subgroup(line))
    assert f.num == -Poly(line.p, [0, 1])
    assert f.den == Poly(line.p, [1])


def test_order_two_invariant():
    G = negation_group()
    f = invariant_generator(G, G.line.point(1, 3))
    assert f.degree == 2
    # t -> -t invariance means only even-degree terms survive
    assert all(c == 0 for c in f.num.coeffs[1::2])
    assert all(c == 0 for c in f.den.coeffs[1::2])
    for M in G.elements:
        assert is_invariant_under(f, M)


def test_reference_group_invariants():
    for p, label in ((11, "a"), (23, "a")):
        for G in case_subgroups(p, label):
            f = invariant_generator(G)
            assert f.degree == len(G)
            for M in G.generators:
                assert is_invariant_under(f, M)


def test_invariance_consistent_with_point_action():
    # the cleared substitution matches apply() on every rational point
    line = projective_line(11)
    G = case_subgroups(11, "a")[0]
    f = invariant_generator(G)
    for M in list(G.elements)[:6]:
        for Q in line.points():
            assert value_at(f, line.apply(Q, M)) == value_at(f, Q)


def test_moebius_adjust_trivial():
    # anchored at (1:0), the invariant of the trivial group is -1/t, with
    # its pole at Q; -t, anchored at (0:1), fails the polar check at Q
    line = projective_line(11)
    G = trivial_subgroup(line)
    Q = line.point(1, 0)
    h = invariant_generator(G, Q)
    assert moebius_adjust(h, G, Q) is h
    assert h.num == Poly(line.p, [-1])
    assert h.den == Poly(line.p, [0, 1])
    with pytest.raises(EvaluationAtPole):
        moebius_adjust(invariant_generator(G), G, Q)


def test_moebius_adjust_full_orbit():
    line = projective_line(11)
    G1 = case_subgroups(11, "a")[0]
    h = moebius_adjust(invariant_generator(G1), G1, line.point(0, 1))
    assert h.den.degree == 11  # infinity lies in the orbit
    assert h.num.degree == 12
    assert h.den == vanishing_poly(line.p, range(11))
    # poles are exactly the orbit: every affine point is a simple root
    for t in range(11):
        assert value_at(h, line.point(1, t)) is POLE


def test_moebius_adjust_partial_orbit_poles():
    line = projective_line(11)
    G = negation_group()
    Q = line.point(1, 3)
    h = moebius_adjust(invariant_generator(G, Q), G, Q)
    assert h.degree == 2
    pts = orbit(G, Q)
    assert h.den == vanishing_poly(line.p, sorted(P.t for P in pts))
    for P in line.points():
        assert (value_at(h, P) is POLE) == (P in pts)


def test_bundled_groups_have_every_point_as_a_pole():
    # the pole lemma: the invariant of a regular transitive group has all
    # of P^1(F_p) as its polar set, so the polar check passes at every
    # point, and every point, in the one orbit of (0:1), anchors it there
    groups = [G for p in PRIMES for label in LABELS for G in case_subgroups(p, label)]
    assert len(groups) == 18
    for G in groups:
        f = invariant_generator(G)
        line = G.line
        for Q in line.points():
            assert value_at(f, Q) is POLE
            assert moebius_adjust(f, G, Q) is f
        assert invariant_generator(G, line.point(1, 1)) == f


@pytest.mark.parametrize("p", [7, 11, 13])
def test_moebius_adjust_matches_the_reducing_constructor(p):
    # the invariant anchored at every regular orbit of the seeded groups is
    # the sum reduced_fraction builds one term at a time, and
    # passes the polar check at every point of that orbit and no other
    line = projective_line(p)
    tried = 0
    for G in seeded_random_subgroups(p, 30, 17 * p):
        if len(G) % p == 0:
            continue
        for Q in line.points():
            pts = orbit(G, Q)
            if len(pts) != len(G):
                continue
            f = invariant_generator(G, Q)
            assert f == anchored_invariant(G, Q)
            assert moebius_adjust(f, G, Q) is f
            for R in line.points():
                if R not in pts and len(orbit(G, R)) == len(G):
                    with pytest.raises(EvaluationAtPole):
                        moebius_adjust(f, G, R)
            tried += ProjectivePoint(0, 1) not in pts
    assert tried


def test_moebius_adjust_rejects_irregular_orbit():
    # t -> -t fixes (1:0) and (0:1)
    line = projective_line(11)
    G = negation_group()
    f = invariant_generator(G, line.point(1, 3))
    for Q in (line.point(1, 0), line.point(0, 1)):
        with pytest.raises(IrregularOrbit):
            moebius_adjust(f, G, Q)
        with pytest.raises(IrregularOrbit):
            invariant_generator(G, Q)


def test_moebius_adjust_rejects_a_denominator_with_the_wrong_roots():
    # H = <t -> 2 - t> is conjugate to G = <t -> -t>, and the H-orbit
    # {3, 10} of Q is as affine as the G-orbit {3, 8}: adjusting the
    # H-invariant gives a denominator of the right degree, (t - 3)(t - 10),
    # with the wrong roots for G
    line = projective_line(11)
    G = negation_group()
    H = conjugate(G, line.matrix([[0, 1], [1, 1]]))
    Q = line.point(1, 3)
    f = invariant_generator(H, Q)
    assert moebius_adjust(f, H, Q).den == vanishing_poly(line.p, [3, 10])
    with pytest.raises(EvaluationAtPole):
        moebius_adjust(f, G, Q)


def test_invariant_generator_rejects_an_order_divisible_by_p():
    # <t -> t + 1> has order p = 11
    line = projective_line(11)
    G = generate_closure(line, [[[1, 1], [0, 1]]])
    with pytest.raises(ValueError, match="group order must be coprime to p"):
        invariant_generator(G)


def test_invariant_generator_returns_only_checked_invariants(monkeypatch):
    # a sum with the wrong polar set, the H-invariant of the test above,
    # never leaves invariant_generator for G
    line = projective_line(11)
    G = negation_group()
    H = conjugate(G, line.matrix([[0, 1], [1, 1]]))
    Q = line.point(1, 3)
    f = invariant_generator(H, Q)
    monkeypatch.setattr(quotient, "_top_ratio", lambda line, elements: f)
    with pytest.raises(EvaluationAtPole):
        invariant_generator(G, Q)


def test_emit_parametrization_checks_each_invariant_once(monkeypatch):
    G1, G2 = case_subgroups(11, "a")
    cert = check_pair(G1, G2)
    checks = counted(monkeypatch, quotient, "moebius_adjust")
    emit_parametrization(cert)
    assert checks == ["moebius_adjust"] * 2


def test_emit_parametrization_reference_degrees():
    for p, label, d in ((11, "a", 12), (23, "c", 24)):
        G1, G2 = case_subgroups(p, label)
        param = emit_parametrization(check_pair(G1, G2))
        assert param.degree == d
        assert max(param.A.degree, param.B.degree, param.D.degree) == d
        assert param.A.gcd(param.D).degree == 0
        assert param.B.gcd(param.D).degree == 0


def test_paper_pairs_give_the_default_curve_at_every_base_point():
    # (0:1) lies in the one orbit, P^1(F_p), so every point anchors there
    for p in PRIMES:
        for label in LABELS:
            G1, G2 = case_subgroups(p, label)
            default = emit_parametrization(check_pair(G1, G2)).to_dict()
            for Q in G1.line.points():
                assert emit_parametrization(check_pair(G1, G2, Q)).to_dict() == default


def test_emit_parametrization_is_the_same_at_every_base_point_of_an_orbit():
    # pairs of cyclic groups at p = 7 that share a regular orbit O avoiding
    # (0:1): the certificate at each point of O gives one curve. Each such
    # O has two points; assert_anchored_invariants compares the invariant
    # across longer orbits
    p = 7
    line = projective_line(p)
    by_orbit = {}
    for G in {generate_closure(line, [A]) for A in canonical_matrices(p)}:
        if len(G) > 1 and len(G) % p:
            for Q in line.points():
                O = orbit(G, Q)
                if len(O) == len(G) and ProjectivePoint(0, 1) not in O:
                    by_orbit.setdefault(O, set()).add(G)
    passed = 0
    for O, groups in by_orbit.items():
        groups = sorted(groups, key=lambda G: sorted(G.elements))
        for i, G1 in enumerate(groups):
            for G2 in groups[i + 1:]:
                certs = [check_pair(G1, G2, Q) for Q in sorted(O)]
                if len(G1) == len(G2) and all(c.verdict == "pass" for c in certs):
                    curves = {json.dumps(emit_parametrization(c).to_dict())
                              for c in certs}
                    assert len(curves) == 1
                    passed += 1
    assert passed > 100


def test_emit_parametrization_rejects_failing_certificate():
    G1, _ = case_subgroups(11, "a")
    bad = check_pair(G1, G1)
    with pytest.raises(ValueError):
        emit_parametrization(bad)


def test_emit_parametrization_rejects_invariants_with_different_denominators():
    # t -> -t and t -> 1/t at p = 11 are both regular at (1:2), with the
    # orbits {2, 9} and {2, 6}: a certificate that claims a pass anyway
    # gives two invariants whose denominators differ
    line = projective_line(11)
    G1 = generate_closure(line, [[[-1, 0], [0, 1]]])
    G2 = generate_closure(line, [[[0, 1], [1, 0]]])
    Q = line.point(1, 2)
    assert (len(orbit(G1, Q)), len(orbit(G2, Q))) == (2, 2)
    assert orbit(G1, Q) != orbit(G2, Q)
    cert = PairCertificate(p=11, g1_generators=G1.generators, g2_generators=G2.generators,
                           kind1=GroupKind.cyclic(2), kind2=GroupKind.cyclic(2), degree=2,
                           base_point=Q, intersection_size=1, orbit_length=2,
                           orbit_equal=False, failures=())
    assert cert.verdict == "pass"
    with pytest.raises(EvaluationAtPole, match="the two invariants disagree"):
        emit_parametrization(cert)


def test_fibers_are_unions_of_orbits():
    line = projective_line(11)
    G = negation_group()
    Q = line.point(1, 3)
    h = moebius_adjust(invariant_generator(G, Q), G, Q)
    orbits = {frozenset(orbit(G, P)) for P in line.points()}
    for value, fiber in fibers(h, line).items():
        merged = set()
        for o in orbits:
            if o <= fiber:
                merged |= o
        assert merged == fiber


def test_curve_json_round_trip():
    G1, G2 = case_subgroups(11, "a")
    param = emit_parametrization(check_pair(G1, G2))
    doc = param.to_dict()
    assert set(doc) == {"p", "degree", "A", "B", "D"}
    p = doc["p"]
    back = CurveParametrization(p, Poly(p, doc["A"]), Poly(p, doc["B"]),
                                Poly(p, doc["D"]), doc["degree"])
    assert (back.A, back.B, back.D, back.degree) == (param.A, param.B,
                                                     param.D, param.degree)
    # invariance re-check after the round trip
    h1 = RationalFunction(back.A, back.D)
    for M in G1.generators:
        assert is_invariant_under(h1, M)


def expanded_top_ratio(G):
    """The oracle for _top_ratio on G's own elements: the rows X^(|G|-1)
    and X^|G| of the O(|G|^3) expansion, reduced by reduced_fraction."""
    return reduced_fraction(*expanded_orbit_product(G)[-2:])


def assert_anchored_invariants(G):
    """Every base point Q of G: IrregularOrbit if its orbit is not regular,
    else an invariant of degree |G| fixed by every generator, with the
    orbit of Q as its polar set, the same at every point of that orbit, and
    the expansion's top ratio when (0:1) is in the orbit. Returns the
    numbers of regular and other base points."""
    line = G.line
    seen = {}
    counts = [0, 0]
    for Q in line.points():
        pts = orbit(G, Q)
        counts[len(pts) != len(G)] += 1
        if len(pts) != len(G):
            with pytest.raises(IrregularOrbit):
                invariant_generator(G, Q)
            continue
        f = invariant_generator(G, Q)
        if pts in seen:
            assert f == seen[pts]
            continue
        seen[pts] = f
        assert f.degree == len(G)
        for M in G.generators:
            assert is_invariant_under(f, M)
        assert {R for R in line.points() if value_at(f, R) is POLE} == pts
        assert moebius_adjust(f, G, Q) is f
        if ProjectivePoint(0, 1) in pts:
            assert f == expanded_top_ratio(G)
    return counts


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
def test_anchored_invariants_on_seeded_groups(p):
    counts = [0, 0]
    for G in seeded_random_subgroups(p, 30, 17 * p):
        if len(G) % p:
            regular, other = assert_anchored_invariants(G)
            counts[0] += regular
            counts[1] += other
    assert all(counts), counts


def small_prime_subgroups():
    """Every subgroup of order coprime to p at p = 2 and 3, where p - 1
    has one residue or two."""
    return [G for p in (2, 3) for G in sorted(all_subgroups(p), key=len)
            if len(G) % p]


def affine_subgroups():
    """Groups with non-identity elements that fix (0:1) (c = 0): the
    scalings t -> gt and the dihedral groups they make with t -> 1/t."""
    out = []
    for p in (5, 7, 11, 13):
        line = projective_line(p)
        for g in range(2, p):
            C = generate_closure(line, [line.matrix([[1, 0], [0, g]])])
            out.append(C)
            out.append(generate_closure(line, list(C.generators)
                                        + [line.matrix([[0, 1], [1, 0]])]))
    return out


def test_top_ratio_matches_expansion_at_p_2_and_3_and_on_affine_groups():
    groups = small_prime_subgroups() + affine_subgroups()
    assert {G.line.p for G in groups} >= {2, 3}
    assert any(c == 0 and (a, b, d) != (1, 0, 1)
               for G in groups for a, b, c, d in G.elements)
    for G in groups:
        assert _top_ratio(G.line, G.elements) == expanded_top_ratio(G)
        assert_anchored_invariants(G)


def direct_power_sums(p, R):
    """Oracle for _power_sums: sum_u R[u] u^j, one power at a time, 0^0 = 1."""
    return [sum(r * pow(u, j, p) for u, r in enumerate(R)) % p for j in range(p)]


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def residue_tables(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    shape = draw(st.sampled_from(["random", "sparse", "zero"]))
    if shape == "random":
        return p, draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    R = [0] * p
    if shape == "sparse":
        for u in draw(st.sets(st.integers(0, p - 1), max_size=3)):
            R[u] = draw(st.integers(1, p - 1))
    return p, R


@settings(max_examples=200, deadline=None)
@given(residue_tables())
def test_power_sums_match_direct_sums(table):
    p, R = table
    assert _power_sums(p, R) == direct_power_sums(p, R)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_power_sums_read_each_point_alone(p):
    # a unit residue at one point u gives the powers of u, 0^0 = 1 included
    for u in range(p):
        R = [0] * p
        R[u] = 1
        assert _power_sums(p, R) == [pow(u, j, p) for j in range(p)]


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_vanishing_matches_the_one_factor_oracle(p):
    rng = random.Random(p)
    subsets = [[], list(range(p))] + [rng.sample(range(p), rng.randrange(p + 1))
                                      for _ in range(5)]
    for roots in subsets:
        assert _vanishing(p, roots) == vanishing_poly(p, roots)
    assert _vanishing(p, range(p)) == _line_poly(p)


@pytest.mark.parametrize("kind", [GroupKind.cyclic(402), GroupKind.dihedral(402)])
def test_invariant_of_a_regular_group_at_401(kind):
    line = projective_line(401)
    G = _transitive_group(line, kind)
    f = invariant_generator(G)
    assert f.degree == 402
    assert f.den == _line_poly(401)
    for M in G.generators:
        assert is_invariant_under(f, M)
    assert moebius_adjust(f, G, line.point(0, 1)) == f


@pytest.mark.parametrize("p", [1009, 10007])
def test_polar_check_builds_its_tree_over_the_orbit_alone(monkeypatch, p):
    # anchored at (1:1), the invariant of <t -> -t> has the orbit {1, -1}
    # as its polar set; _top_ratio's tree runs over the p - 2 points of
    # zero residue, the polar check's over the two orbit points alone
    sizes = []

    def vanishing(p, roots):
        sizes.append(len(roots))
        return _vanishing(p, roots)

    monkeypatch.setattr(quotient, "_vanishing", vanishing)
    line = projective_line(p)
    G = generate_closure(line, [line.matrix([[-1, 0], [0, 1]])])
    f = invariant_generator(G, line.point(1, 1))
    assert f.den == Poly(p, [p - 1, 0, 1])
    assert sizes == [p - 2, 2]


def counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_bundled_invariants_take_no_gcd_product_or_evaluation(monkeypatch):
    # the residues give the reduced top ratio, and at (0:1) the polar check
    # compares coefficients: no gcd and no product tree (every point is a
    # pole); Poly has no evaluation method left to call
    gcds = counted(monkeypatch, Poly, "gcd")
    products = counted(monkeypatch, quotient, "_tree_product")
    for p in PRIMES:
        for label in LABELS:
            for G in case_subgroups(p, label):
                f = invariant_generator(G)
                assert moebius_adjust(f, G, G.line.point(0, 1)) == f
    assert (gcds, products) == ([], [])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(0, 29))
def test_invariant_generator_returns_from_one_scan(p, i):
    # one residue sum per base point, on a second seeded sample
    G = seeded_random_subgroups(p, 30, 31 * p)[i]
    assume(len(G) % p)
    assert_anchored_invariants(G)
