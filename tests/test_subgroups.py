from collections import Counter
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (all_subgroups, canonical_matrices, conjugated, made_subgroups,
                      raw_conjugate, reference_closure, seeded_random_subgroups,
                      singer_documents, stabilizer, torus_by_powers, trivial_subgroup)
from galoispairs import (LABELS, ClosureCapExceeded, GroupKind, ModulusMismatch,
                         ProjectiveMatrix, ProjectivePoint, SearchConfig, Subgroup,
                         case_subgroups, check_pair, conjugate, find_cyclic_regular,
                         generate_closure, intersect, orbit, orbit_partition, parse_kind,
                         projective_line, recognize, reverify, run_search,
                         subgroups_from_dict)
from galoispairs.cases import prime_table
from galoispairs.field import is_prime
from galoispairs.search import _POLYHEDRAL_GENERATORS, _singer, _transitive_group


def order_multiset(G):
    """Map element order -> count; counts sum to |G|."""
    return dict(Counter(G.line.element_order(A) for A in G.elements))


def suite_groups():
    for p in (11, 23, 59):
        for label in ("a", "b", "c"):
            G1, G2 = case_subgroups(p, label)
            yield G1
            yield G2


def test_closure_trivial():
    line = projective_line(11)
    G = generate_closure(line, [line.identity])
    assert len(G) == 1


def test_closure_reference_sizes():
    assert len(case_subgroups(11, "a")[0]) == 12
    assert len(case_subgroups(23, "b")[1]) == 24
    assert len(case_subgroups(59, "a")[0]) == 60


def test_closure_cap_exceeded():
    line = projective_line(11)
    gens = [line.matrix([[1, 1], [0, 1]]), line.matrix([[0, 1], [1, 0]])]
    with pytest.raises(ClosureCapExceeded):
        generate_closure(line, gens)


def test_closure_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator required"):
        generate_closure(projective_line(11), [])


def closure_outcome(close, line, gens):
    """The generators and elements close() returns, or the type and message
    of what it raises."""
    try:
        G = close(line, gens)
    except ClosureCapExceeded as exc:
        return type(exc), str(exc)
    return G.generators, G.elements


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_matches_the_breadth_first_reference(data):
    # generators as raw rows, with scalar identities, repeats and products of
    # earlier generators among them; at p = 11 and 13 some closures, PGL(2, p)
    # among them, exceed the cap 600
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    line = projective_line(p)
    unit = st.integers(1, p - 1)
    entries = st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p)
    gens = []
    for _ in range(data.draw(st.integers(1, 4))):
        how = data.draw(st.sampled_from(["entries", "identity", "repeat", "product"]))
        if how == "identity":
            c = data.draw(unit)
            gens.append([[c, 0], [0, c]])
        elif how == "repeat" and gens:
            gens.append(data.draw(st.sampled_from(gens)))
        elif how == "product" and gens:
            A, B = (line.matrix(data.draw(st.sampled_from(gens))) for _ in range(2))
            gens.append(line.compose(A, B).rows())
        else:
            a, b, c, d = data.draw(entries)
            gens.append([[a, b], [c, d]])
    assert (closure_outcome(generate_closure, line, gens)
            == closure_outcome(reference_closure, line, gens))


def test_closure_matches_the_breadth_first_reference_on_transitive_groups():
    groups = list(suite_groups())
    for p in (101, 199):
        line = projective_line(p)
        groups += [find_cyclic_regular(line), _transitive_group(line, GroupKind.dihedral(p + 1))]
    for G in groups:
        assert reference_closure(G.line, G.generators).elements == G.elements


@pytest.mark.parametrize("p", [q for q in range(2, 32) if is_prime(q)])
def test_closure_of_every_class_of_order_p_plus_1_matches_the_reference(p):
    # the torus lemma: <A> listed as I + uN and N, N = A - aI
    line = projective_line(p)
    singers = [A for A in canonical_matrices(p) if line.element_order(A) == p + 1]
    assert singers
    for A in singers:
        assert generate_closure(line, [A]).elements == reference_closure(line, [A]).elements


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([q for q in range(2, 3000) if is_prime(q)]), st.data())
def test_closure_of_a_conjugated_singer_cycle_matches_the_reference(p, data):
    line = projective_line(p)
    entries = st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p)
    C = line.matrix(ProjectiveMatrix(*data.draw(entries)))
    A = line.compose(line.compose(line.inverse(C), _singer(line)), C)
    G = generate_closure(line, [A])
    assert len(G) == p + 1
    assert G.elements == reference_closure(line, [A]).elements


@pytest.mark.parametrize("p", [5, 11, 59, 401])
def test_dihedral_closure_is_the_torus_and_one_coset(monkeypatch, p):
    # f = (1, 0, d, -1) inverts A = (0, 1, c, d): <f, A> = D_{2(p+1)}, walked
    # from A, so the one coset A's torus misses is found with two products
    line = projective_line(p)
    A = _singer(line)
    f = line.matrix([[1, 0], [A.d, -1]])
    products = []
    compose = line.compose
    monkeypatch.setattr(line, "compose", lambda X, Y: products.append(1) or compose(X, Y))
    G = generate_closure(line, [f, A])
    monkeypatch.undo()
    assert len(products) == 2
    assert len(G) == 2 * (p + 1)
    assert G.elements == reference_closure(line, [f, A]).elements


def generators_by_torus(p):
    """Every class of order p + 1 at p, grouped by its torus as
    conftest.torus_by_powers lists it."""
    line = projective_line(p)
    tori = {}
    for A in canonical_matrices(p):
        if line.element_order(A) == p + 1:
            tori.setdefault(torus_by_powers(line, A), []).append(A)
    return tori


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_torus_membership_matches_the_powers_for_every_generator_and_class(p):
    # the membership lemma, for every class A of order p + 1 and every class M
    line = projective_line(p)
    classes = list(canonical_matrices(p))
    for powers, gens in generators_by_torus(p).items():
        want = [M in powers for M in classes]
        for A in gens:
            T = generate_closure(line, [A])
            assert T.torus == A and len(T) == p + 1
            assert [M in T for M in classes] == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_two_tori_meet_in_one_class_or_all_and_intersect_agrees(p):
    # the two-tori lemma on every pair of tori, each closed from one of its
    # generators and the other from another where it has one; intersect
    # agrees with the set intersection of the powers, on the unlisted tori
    # and on a torus beside a listed twin
    line = projective_line(p)
    tori = generators_by_torus(p)
    for L1, gens1 in tori.items():
        T1 = generate_closure(line, [gens1[0]])
        for L2, gens2 in tori.items():
            T2 = generate_closure(line, [gens2[-1]])
            want = L1 & L2
            assert len(want) == (p + 1 if L1 == L2 else 1)
            assert intersect(T1, T2).elements == want
            assert intersect(T1, Subgroup(line, T2.generators, L2)).elements == want
            assert intersect(Subgroup(line, T1.generators, L1), T2).elements == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([q for q in range(2, 402) if is_prime(q)]), st.data())
def test_torus_lemmas_hold_on_conjugated_singer_cycles(p, data):
    # A1 a conjugate of the Singer cycle; A2 a power of A1 prime to p + 1,
    # of the same torus, or another conjugate of A1
    line = projective_line(p)
    entries = st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p)
    C1, C2, M = (line.matrix(ProjectiveMatrix(*data.draw(entries))) for _ in range(3))
    A1 = conjugated(line, _singer(line), C1)
    k = data.draw(st.integers(1, p).filter(lambda k: gcd(k, p + 1) == 1))
    A2 = line.power(A1, k) if data.draw(st.booleans()) else conjugated(line, A1, C2)
    T1, T2 = generate_closure(line, [A1]), generate_closure(line, [A2])
    L1, L2 = torus_by_powers(line, A1), torus_by_powers(line, A2)
    assert (M in T1) == (M in L1)
    assert all(A in T1 for A in L1)
    want = L1 & L2
    assert len(want) in (1, p + 1)
    assert intersect(T1, T2).elements == want
    assert intersect(T1, Subgroup(line, T2.generators, L2)).elements == want


@pytest.mark.parametrize("verdict", ["pass", "fail"])
def test_reverify_never_lists_a_singer_torus(monkeypatch, verdict):
    # the check reads order, kind, orbits and intersection off each generator
    doc = singer_documents(401, 401)[verdict]
    made = made_subgroups(monkeypatch)
    assert reverify(doc, all_basepoints=True).verdict == verdict
    tori = [G for G in made if G.torus is not None]
    assert len(tori) == 2
    assert all(G._elements is None for G in tori)


@pytest.mark.parametrize("strategy", ["exhaustive-cyclic", "scaling"])
def test_search_never_lists_a_singer_torus(monkeypatch, strategy):
    # G1 and every conjugate the walk visits stay unlisted
    made = made_subgroups(monkeypatch)
    kind = GroupKind.cyclic(402)
    assert run_search(SearchConfig(401, kind, kind, strategy=strategy)).verdict == "pass"
    tori = [G for G in made if G.torus is not None]
    assert len(tori) >= 2
    assert all(G._elements is None for G in tori)


def test_closure_keeps_the_given_order_of_its_generators():
    # the walk starts from the largest cycle; the generators stay as given
    line = projective_line(59)
    a, b = _POLYHEDRAL_GENERATORS["A5"]
    G = generate_closure(line, [a.rows(), b, a, line.identity])
    assert G.generators == (a, b, a, line.identity)
    assert G.elements == reference_closure(line, [a, b]).elements


def test_closure_is_closed_and_lagrange():
    for G in suite_groups():
        line = G.line
        n = line.p ** 3 - line.p
        assert n % len(G) == 0
        for A in G.generators:
            assert A in G.elements
        for A in list(G.elements)[:8]:
            assert line.inverse(A) in G.elements
            for B in list(G.elements)[:8]:
                assert line.compose(A, B) in G.elements


def test_order_multiset():
    line = projective_line(11)
    assert order_multiset(trivial_subgroup(line)) == {1: 1}
    G1 = case_subgroups(11, "a")[0]
    assert order_multiset(G1) == {1: 1, 2: 3, 3: 8}
    G3 = case_subgroups(11, "b")[1]
    tally = Counter(line.element_order(A) for A in G3.elements)
    assert order_multiset(G3) == dict(tally) == {1: 1, 2: 7, 3: 2, 6: 2}


def test_recognize_reference_kinds():
    assert recognize(case_subgroups(11, "a")[1]) == GroupKind.cyclic(12)
    assert recognize(case_subgroups(23, "a")[0]) == GroupKind.sym4()
    assert recognize(case_subgroups(59, "b")[1]) == GroupKind.dihedral(60)
    assert recognize(case_subgroups(11, "a")[0]) == GroupKind.alt4()
    assert recognize(case_subgroups(59, "a")[0]) == GroupKind.alt5()


def test_recognize_klein_as_dihedral_4():
    line = projective_line(5)
    G = generate_closure(line, [line.matrix([[-1, 0], [0, 1]]),
                                line.matrix([[0, 1], [1, 0]])])
    assert len(G) == 4
    assert recognize(G) == GroupKind.dihedral(4)


def test_recognize_trivial_and_cyclic():
    line = projective_line(11)
    assert recognize(trivial_subgroup(line)) == GroupKind.cyclic(1)
    G = generate_closure(line, [line.matrix([[-1, 0], [0, 1]])])
    assert recognize(G) == GroupKind.cyclic(2)


def test_intersect():
    G1, G2 = case_subgroups(11, "a")
    assert intersect(G1, G1).elements == G1.elements
    assert len(intersect(G1, G2)) == 1
    G1_23, G4_23 = case_subgroups(23, "c")
    assert len(intersect(G1_23, G4_23)) == 1
    with pytest.raises(ModulusMismatch):
        intersect(G1, G1_23)


def test_closure_keeps_canonical_generators():
    # a ProjectiveMatrix generator is reduced to its canonical class like
    # raw rows are, so it is a member of G and a certificate of G reprints
    # itself
    line = projective_line(11)
    G = generate_closure(line, [ProjectiveMatrix(2, 0, 0, 1)])
    assert G.generators == (ProjectiveMatrix(1, 0, 0, 6),)
    assert all(g in G for g in G.generators)
    cert = check_pair(G, G)
    assert cert.to_dict()["g1"] == [[[1, 0], [0, 6]]]
    assert reverify(cert.to_dict()).to_json() == cert.to_json()


def test_intersect_symmetric():
    G1, _ = case_subgroups(11, "a")
    _, G3 = case_subgroups(11, "b")
    assert intersect(G1, G3).elements == intersect(G3, G1).elements


def test_conjugate():
    tab = prime_table(11)
    line, gen = tab["line"], tab["gen"]
    G1 = case_subgroups(11, "a")[0]
    assert conjugate(G1, line.identity).elements == G1.elements
    # single-element check against the printed conjugated involution
    sigma_conj = conjugate(generate_closure(line, [gen["s"]]), gen["c"])
    assert line.matrix([[0, 6], [1, 0]]) in sigma_conj.elements
    G4_23 = conjugate(case_subgroups(23, "a")[0], prime_table(23)["gen"]["c"])
    assert recognize(G4_23) == GroupKind.sym4()


def test_conjugate_preserves_invariants():
    line = projective_line(11)
    C = line.matrix([[3, 1], [5, 2]])
    for G in (case_subgroups(11, "a")[0], case_subgroups(11, "b")[1]):
        H = conjugate(G, C)
        assert len(H) == len(G)
        assert order_multiset(H) == order_multiset(G)
        assert recognize(H) == recognize(G)


def assert_conjugate_matches_raw_conjugate(G, C):
    got, want = conjugate(G, C), raw_conjugate(G, C)
    assert got.generators == want.generators
    assert got.elements == want.elements


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_conjugate_matches_raw_conjugate_by_every_class(p):
    line = projective_line(p)
    groups = [find_cyclic_regular(line), *seeded_random_subgroups(p, 4, seed=5)]
    for C in canonical_matrices(p):
        for G in groups:
            assert_conjugate_matches_raw_conjugate(G, C)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([11, 23, 59, 401]), st.tuples(*[st.integers(0, 400)] * 4))
def test_conjugate_matches_raw_conjugate(p, entries):
    # C is a raw matrix, reduced mod p but not scaled to canonical form
    a, b, c, d = (x % p for x in entries)
    assume((a * d - b * c) % p)
    line = projective_line(p)
    groups = [find_cyclic_regular(line)]
    if p < 100:
        groups += [G for label in LABELS for G in case_subgroups(p, label)]
    for G in groups:
        assert_conjugate_matches_raw_conjugate(G, ProjectiveMatrix(a, b, c, d))


def test_orbit():
    line = projective_line(11)
    Q = line.point(0, 1)
    assert orbit(trivial_subgroup(line), Q) == {Q}
    G1 = case_subgroups(11, "a")[0]
    assert orbit(G1, Q) == frozenset(line.points())
    # order-3 generator at p=23 gives a 3-point orbit off the first block
    tab = prime_table(23)
    line23 = projective_line(23)
    T = generate_closure(line23, [tab["gen"]["t"]])
    orb = orbit(T, line23.point(1, 0))
    assert len(orb) == 3
    O = tab["o_partition"]
    assert orb <= O[1] | O[2] | O[3]


@pytest.mark.parametrize("p,seed", [(2, 11), (3, 12), (5, 13), (7, 14), (11, 15), (13, 16)])
def test_orbit_is_the_image_of_the_point_under_every_element(p, seed):
    line = projective_line(p)
    for G in seeded_random_subgroups(p, 20, seed):
        for Q in line.points():
            images = frozenset(line.apply(Q, A) for A in G.elements)
            # Q as given, and as the reduced representative (-s : -t)
            assert orbit(G, Q) == images
            assert orbit(G, ProjectivePoint(-Q.s % p, -Q.t % p)) == images


def test_stabilizer():
    line = projective_line(11)
    Q = line.point(0, 1)
    assert len(stabilizer(trivial_subgroup(line), Q)) == 1
    G1 = case_subgroups(11, "a")[0]
    assert len(stabilizer(G1, Q)) == 1
    # involution diag(-1,1) fixes (1:0) and (0:1); scan all points
    G = generate_closure(line, [line.matrix([[-1, 0], [0, 1]])])
    fixed = [P for P in line.points()
             if line.apply(P, G.generators[0]) == P]
    assert fixed == [line.point(0, 1), line.point(1, 0)]
    for P in fixed:
        assert stabilizer(G, P).elements == G.elements


def test_orbit_stabilizer_product():
    for G in suite_groups():
        line = G.line
        for Q in line.points():
            assert len(orbit(G, Q)) * len(stabilizer(G, Q)) == len(G)


def test_regularity_of_order_p_plus_1_groups():
    for p in (11, 23, 59):
        G2 = case_subgroups(p, "a")[1]
        line = G2.line
        assert len(G2) == p + 1
        assert len(orbit(G2, line.points()[0])) == p + 1
        for Q in line.points():
            assert len(stabilizer(G2, Q)) == 1


def assert_orbit_partition_matches_orbits(G):
    """orbit_partition(G) and orbit() at every point give one partition: the
    points that share the label of point i are the orbit of point i, the
    size at that label is its length, and the sizes are keyed by the labels
    alone."""
    line = G.line
    points = line.points()
    labels, sizes = orbit_partition(G)
    assert len(labels) == len(points)
    assert set(sizes) == set(labels)
    for i, Q in enumerate(points):
        block = {points[j] for j, label in enumerate(labels) if label == labels[i]}
        assert block == orbit(G, Q), (G, Q)
        assert sizes[labels[i]] == len(block), (G, Q)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_labels_match_orbits_on_every_subgroup(p):
    for G in all_subgroups(p):
        assert_orbit_partition_matches_orbits(G)


@pytest.mark.parametrize("q,count,seed", [(7, 110, 202), (11, 110, 303)])
def test_orbit_labels_match_orbits_on_random_subgroups(q, count, seed):
    for G in seeded_random_subgroups(q, count, seed):
        assert_orbit_partition_matches_orbits(G)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_labels_match_orbits_on_random_generator_sets(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    line = projective_line(p)
    entries = st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p)
    gens = data.draw(st.lists(entries, min_size=1, max_size=3))
    # the closure is all of the group, PGL(2, 11) included, so orbit() sees
    # every element
    G = reference_closure(line, [[m[:2], m[2:]] for m in gens], cap=p ** 3 - p)
    assert_orbit_partition_matches_orbits(G)


@pytest.mark.parametrize("p", [101, 199, 401, 10007])
def test_torus_partition_matches_the_walk_on_its_listed_twin(p):
    # the Singer torus, and the tori of a Singer pair document
    line = projective_line(p)
    G1, G2, _ = subgroups_from_dict(singer_documents(p, p)["fail"])
    for T in (find_cyclic_regular(line), G1, G2):
        assert T.torus is not None
        twin = Subgroup(line, T.generators, frozenset(T.elements))
        assert orbit_partition(T) == orbit_partition(twin) == ([0] * (p + 1), {0: p + 1})


def test_orbit_rejects_a_point_not_reduced_mod_p():
    line = projective_line(11)
    G = generate_closure(line, [[[-1, 0], [0, 1]]])
    with pytest.raises(ModulusMismatch, match=r"point \(11:0\) is not reduced mod 11"):
        orbit(G, ProjectivePoint(11, 0))


def test_parse_kind():
    assert parse_kind("A4") == GroupKind.alt4()
    assert parse_kind("C12") == GroupKind.cyclic(12)
    assert parse_kind("D60") == GroupKind.dihedral(60)
    assert str(parse_kind("D24")) == "D24"
    assert str(GroupKind.other(42)) == "Other(42)"
    # any decimal digits int() reads, Arabic-Indic ones included
    assert parse_kind("C\u0661\u0662") == GroupKind.cyclic(12)
    for bad in ("B7", "C0", "D7", "D2", "", "A6"):
        with pytest.raises(ValueError):
            parse_kind(bad)
    # superscripts are digits but not decimal: int() cannot read them
    for bad in ("C²", "D¹²"):
        with pytest.raises(ValueError, match="unrecognized group kind"):
            parse_kind(bad)
