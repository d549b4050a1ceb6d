import json
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (all_subgroups, b_element, canonical_matrices, counted_certificate,
                      listed_twin, per_point_certificate, reference_closure,
                      seeded_random_subgroups, singer_documents, trivial_subgroup)
from galoispairs import (ClosureCapExceeded, GroupKind, ModulusMismatch, SearchConfig,
                         case_subgroups, check_pair, check_pair_all_basepoints, conjugate,
                         find_cyclic_regular, find_scaling_conjugates, generate_closure,
                         intersect, orbit_partition, projective_line, reverify,
                         run_search, subgroups_from_dict)
from galoispairs.search import _transitive_group

SCHEMA_KEYS = {"p", "g1", "g2", "kind1", "kind2", "degree", "base_point",
               "intersection_size", "orbit_equal", "orbit_length", "verdict",
               "failures"}


def test_reference_pair_passes_at_default_basepoint():
    G1, G2 = case_subgroups(11, "a")
    cert = check_pair(G1, G2, projective_line(11).point(0, 1))
    assert cert.verdict == "pass"
    assert cert.degree == 12
    assert (cert.kind1, cert.kind2) == (GroupKind.alt4(), GroupKind.cyclic(12))
    assert cert.intersection_size == 1
    assert cert.orbit_length == 12 and cert.orbit_equal


def test_identical_groups_fail():
    G1, _ = case_subgroups(11, "a")
    cert = check_pair(G1, G1)
    assert cert.verdict == "fail"
    assert "groups not different" in cert.failures
    # no short-circuiting: the intersection condition is also reported
    assert "intersection not trivial" in cert.failures


def test_dihedral_pair_at_59():
    G1, G3 = case_subgroups(59, "b")
    cert = check_pair(G1, G3)
    assert cert.verdict == "pass"
    assert cert.degree == 60
    assert (cert.kind1, cert.kind2) == (GroupKind.alt5(), GroupKind.dihedral(60))


def test_all_basepoints_quantification():
    G1, G2 = case_subgroups(11, "a")
    assert check_pair_all_basepoints(G1, G2).verdict == "pass"
    G1_23, G4_23 = case_subgroups(23, "c")
    assert check_pair_all_basepoints(G1_23, G4_23).verdict == "pass"
    line = projective_line(11)
    cert = check_pair_all_basepoints(trivial_subgroup(line), trivial_subgroup(line))
    assert cert.verdict == "fail"


def test_verdict_symmetric_in_the_pair():
    pairs = [case_subgroups(11, "a"), case_subgroups(11, "b"),
             (case_subgroups(11, "a")[0], case_subgroups(11, "a")[0])]
    for G1, G2 in pairs:
        for Q in G1.line.points():
            assert (check_pair(G1, G2, Q).verdict
                    == check_pair(G2, G1, Q).verdict)


def test_per_basepoint_results_uniform_for_regular_pairs():
    # both orbits are the whole line, so every base point gives one verdict
    G1, G2 = case_subgroups(23, "a")
    verdicts = {check_pair(G1, G2, Q).verdict for Q in G1.line.points()}
    assert verdicts == {"pass"}


def test_certificate_schema_and_determinism():
    G1, G2 = case_subgroups(11, "a")
    cert = check_pair(G1, G2)
    doc = cert.to_dict()
    assert set(doc) == SCHEMA_KEYS
    assert doc["verdict"] == "pass" and doc["failures"] == []
    assert doc["base_point"] == [0, 1]
    assert json.loads(cert.to_json()) == json.loads(cert.to_json())
    assert cert.to_json() == check_pair(G1, G2).to_json()


def test_certificate_reverifies_from_generators_alone():
    G1, G2 = case_subgroups(23, "b")
    cert = check_pair_all_basepoints(G1, G2)
    again = reverify(cert.to_dict(), all_basepoints=True)
    assert again.to_json() == cert.to_json()
    single = check_pair(G1, G2)
    assert reverify(single.to_dict()).to_json() == single.to_json()


def test_subgroups_from_dict_accepts_both_shapes():
    G1, G2 = case_subgroups(11, "a")
    cert_doc = check_pair(G1, G2).to_dict()
    H1, H2, Q = subgroups_from_dict(cert_doc)
    assert H1.elements == G1.elements and H2.elements == G2.elements
    pair_doc = {"p": 11,
                "g1": {"generators": cert_doc["g1"]},
                "g2": {"generators": cert_doc["g2"]},
                "base_point": [1, 3]}
    H1, H2, Q = subgroups_from_dict(pair_doc)
    assert H1.elements == G1.elements
    assert (Q.s, Q.t) == (1, 3)


MATRIX_ENTRIES = "must be [[a, b], [c, d]]; entries must be integers"
GOOD = [[[1, 1], [0, 1]]]


@pytest.mark.parametrize("doc, message", [
    # an int leads the matrix, so no pow() sees the float
    ({"p": 11, "g1": [[[1, 0], [0, 1]], [[1, 0.0], [0, 1]]], "g2": [[[1, 1], [0, 1]]]},
     f"g1 generator 2 {MATRIX_ENTRIES}"),
    ({"p": 11, "g1": GOOD, "g2": {"generators": [[[1, 1, 0], [0, 1]]]}},
     f"g2 generator 1 {MATRIX_ENTRIES}"),
    ({"p": 11, "g1": GOOD, "g2": [[[1, 1], [0, 1], [0, 1]]]},
     f"g2 generator 1 {MATRIX_ENTRIES}"),
    ({"p": 11, "g1": {"generators": []}, "g2": GOOD},
     "g1 must hold a non-empty list of generators"),
    ({"p": 11, "g1": GOOD, "g2": GOOD, "base_point": [1, True]},
     "base_point must be [s, t]; entries must be integers"),
    ({"p": 11, "g1": GOOD, "g2": GOOD, "base_point": [11, -22]},
     "base_point (0:0) is not a projective point"),
    # the document-level checks, shared with the CLI
    ([{"p": 11, "g1": GOOD, "g2": GOOD}], "top-level value must be an object"),
    ({}, "missing required field 'p'"),
    ({"p": 11, "g1": GOOD}, "missing required field 'g2'"),
    *[({"p": p, "g1": GOOD, "g2": GOOD}, "field 'p' must be a prime integer")
      for p in (11.9, "11", True, 12)],
    *[({"p": p, "g1": GOOD, "g2": GOOD}, "field 'p' must be below 2**31")
      for p in (2 ** 31, 2000000000000000018)],
])
def test_reverify_names_a_bad_entry(doc, message):
    for call in (reverify, subgroups_from_dict):
        with pytest.raises(ValueError) as info:
            call(doc)
        assert str(info.value) == message


def test_subgroups_from_dict_takes_tuples_as_lists():
    G1, G2 = case_subgroups(11, "a")
    doc = check_pair(G1, G2, projective_line(11).point(1, 3)).to_dict()
    as_tuples = {"p": 11, "base_point": tuple(doc["base_point"]),
                 **{key: tuple(tuple(map(tuple, rows)) for rows in doc[key])
                    for key in ("g1", "g2")}}
    assert ([H.elements for H in subgroups_from_dict(as_tuples)[:2]]
            == [G1.elements, G2.elements])
    assert reverify(as_tuples).to_json() == reverify(doc).to_json()


def test_modulus_mismatch():
    G1, _ = case_subgroups(11, "a")
    H1, _ = case_subgroups(23, "a")
    with pytest.raises(ModulusMismatch):
        check_pair(G1, H1)


def test_failures_name_offending_basepoints():
    # two distinct order-2 groups sharing no regular common orbit
    line = projective_line(11)
    A = generate_closure(line, [line.matrix([[-1, 0], [0, 1]])])
    B = generate_closure(line, [line.matrix([[0, 1], [1, 0]])])
    cert = check_pair_all_basepoints(A, B)
    assert cert.verdict == "fail"
    assert any("orbit" in f for f in cert.failures)


def test_orbits_differ_at_a_point_whose_two_labels_agree():
    # both labels of (0:1) are 0, yet its G1-orbit {(0:1), (1:0)} is not
    # its G2-orbit {(0:1), (1:2)}: comparing a point's own two labels
    # would miss it, looking its label up among the split labels does not
    line = projective_line(3)
    G1 = generate_closure(line, [line.matrix([[0, 1], [2, 0]])])
    G2 = generate_closure(line, [line.matrix([[1, 1], [1, 2]])])
    assert (orbit_partition(G1)[0], orbit_partition(G2)[0]) == ([0, 0, 2, 2], [0, 1, 1, 0])
    Q = line.point(0, 1)
    cert = check_pair(G1, G2, Q)
    assert cert.failures == ("orbits at (0:1) differ",) and not cert.orbit_equal
    assert cert.to_json() == per_point_certificate(G1, G2, Q, [Q]).to_json()
    cert = check_pair_all_basepoints(G1, G2)
    assert cert.failures == tuple(f"orbits at {P} differ" for P in line.points())
    assert cert.to_json() == per_point_certificate(G1, G2, Q, line.points()).to_json()


def test_all_basepoints_matches_per_point_orbits_on_reference_pairs():
    for p in (11, 23):
        for label in "abc":
            G1, G2 = case_subgroups(p, label)
            line = G1.line
            for pair in ((G1, G2), (G2, G1), (G1, G1)):
                assert (check_pair_all_basepoints(*pair).to_json()
                        == per_point_certificate(*pair, line.point(0, 1),
                                                 line.points()).to_json())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_all_basepoints_matches_per_point_orbits(data):
    p, seed = data.draw(st.sampled_from([(5, 101), (7, 202), (11, 303), (13, 404)]))
    groups = seeded_random_subgroups(p, 30, seed)
    G1, G2 = (groups[data.draw(st.integers(0, 29))] for _ in range(2))
    line = G1.line
    a, b, c, d = (data.draw(st.integers(0, p - 1)) for _ in range(4))
    assume((a * d - b * c) % p)
    Q = data.draw(st.sampled_from(line.points()))
    # conjugate moves the generators along with the elements; intersect
    # takes every element as a generator
    for H1, H2 in ((G1, G2), (G1, conjugate(G1, line.matrix([[a, b], [c, d]]))),
                   (intersect(G1, G2), G2)):
        assert (check_pair_all_basepoints(H1, H2).to_json()
                == per_point_certificate(H1, H2, line.point(0, 1),
                                         line.points()).to_json())
        assert (check_pair(H1, H2, Q).to_json()
                == per_point_certificate(H1, H2, Q, [Q]).to_json())


@pytest.mark.parametrize("p,seed", [(5, 21), (7, 22), (11, 23), (13, 24)])
def test_all_basepoints_scan_matches_the_point_by_point_reference(p, seed):
    # seeded cyclic groups, each against three conjugates of itself and
    # against each of them: a cyclic group's orbits are regular off its fixed
    # points, so some pairs fail at some points and not at others, which
    # pins the order of the failures; others pass, with the scan skipped
    line = projective_line(p)
    rng = random.Random(seed)
    matrices = list(canonical_matrices(p))
    cyclic = [generate_closure(line, [g]) for g in rng.sample(matrices, 8)]
    pairs = [(G, conjugate(G, b)) for G in cyclic for b in rng.sample(matrices, 3)]
    pairs += [(G, H) for G in cyclic for H in cyclic]
    # C_{p+1} is regular at every point and shares its one orbit with
    # D_{2(p+1)} = <r, s>, s r s = r^-1, whose orbit is irregular everywhere
    C = find_cyclic_regular(line)
    r = C.generators[0]
    D = generate_closure(line, [r, line.matrix([[1, 0], [r.d, -1]])])
    assert len(D) == 2 * (p + 1)
    pairs += [(C, D), (D, C)]
    partial = passed = 0
    for G1, G2 in pairs:
        cert = check_pair_all_basepoints(G1, G2)
        assert cert.to_json() == per_point_certificate(
            G1, G2, line.point(0, 1), line.points()).to_json()
        named = set(re.findall(r" at (\(\d+:\d+\))", " ".join(cert.failures)))
        partial += 0 < len(named) < p + 1
        passed += cert.verdict == "pass"
        for Q in line.points()[:3]:
            assert (check_pair(G1, G2, Q).to_json()
                    == per_point_certificate(G1, G2, Q, [Q]).to_json())
    assert partial and passed


def assert_certificates_match_listed_twins(G1, G2):
    """A torus read off its generator gives the certificate bytes of its
    twin listed by powers (conftest.listed_twin), alone or beside the other
    group's twin, in either order, at every base point and at (0:1)."""
    L1, L2 = listed_twin(G1), listed_twin(G2)
    for H1, H2, K1, K2 in ((G1, G2, L1, L2), (G2, G1, L2, L1)):
        for check in (check_pair_all_basepoints, check_pair):
            want = check(K1, K2).to_json()
            assert check(H1, H2).to_json() == want
            assert check(H1, K2).to_json() == want
            assert check(K1, H2).to_json() == want


@pytest.mark.parametrize("verdict", ["pass", "fail"])
@pytest.mark.parametrize("p", [101, 199, 401])
def test_singer_certificates_match_their_listed_twins(p, verdict):
    # the scale benchmark's pairs: x against a passing conjugate, or x^-1
    G1, G2, _ = subgroups_from_dict(singer_documents(p, p)[verdict])
    assert G1.torus is not None and G2.torus is not None
    assert check_pair_all_basepoints(G1, G2).verdict == verdict
    assert_certificates_match_listed_twins(G1, G2)


@pytest.mark.parametrize("p", [11, 23, 59])
def test_paper_a_pair_certificates_match_their_listed_twins(p):
    G1, G2 = case_subgroups(p, "a")
    assert G2.torus is not None
    assert check_pair_all_basepoints(G1, G2).verdict == "pass"
    assert_certificates_match_listed_twins(G1, G2)


@pytest.mark.parametrize("p", [11, 101, 199])
def test_torus_and_dihedral_certificates_match_their_listed_twins(p):
    # the first conjugates of D_{p+1} in the B walk, and the first that passes
    line = projective_line(p)
    T = find_cyclic_regular(line)
    C, D = GroupKind.cyclic(p + 1), GroupKind.dihedral(p + 1)
    found = run_search(SearchConfig(p, C, D, strategy="exhaustive-cyclic"))
    dihedral = _transitive_group(line, D)
    conjugates = [generate_closure(line, found.g2_generators)]
    conjugates += [conjugate(dihedral, b_element(p, i)) for i in range(4)]
    for H in conjugates:
        assert_certificates_match_listed_twins(T, H)


@pytest.mark.parametrize("p", [11, 101, 199])
def test_scaling_certificates_match_their_listed_twins(p):
    # every diagonal conjugate diag(c, 1): c = 1 gives T itself, which
    # fails, and c = 2, ..., p - 1 pass exactly when find_scaling_conjugates
    # lists them
    line = projective_line(p)
    T = find_cyclic_regular(line)
    passing = find_scaling_conjugates(listed_twin(T))
    for c in range(1, p):
        H = conjugate(T, [[c, 0], [0, 1]])
        assert H.torus is not None
        assert (check_pair_all_basepoints(T, H).verdict == "pass") == (c in passing)
        assert_certificates_match_listed_twins(T, H)


def assert_certificates_match_the_counted_twin(G1, G2, bases=(0,)):
    """check_pair at each point of index in `bases`, and
    check_pair_all_basepoints, give the bytes of conftest.counted_certificate,
    which counts orbit sizes with Counter and always builds split."""
    points = G1.line.points()
    assert (check_pair_all_basepoints(G1, G2).to_json()
            == counted_certificate(G1, G2, 0, range(len(points))).to_json())
    for i in bases:
        assert (check_pair(G1, G2, points[i]).to_json()
                == counted_certificate(G1, G2, i, (i,)).to_json())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_certificates_match_the_counted_twin_on_every_pair_of_subgroups(p):
    # every ordered pair: orders that differ, groups that are not
    # transitive, partitions that differ and partitions that are equal
    for G1 in all_subgroups(p):
        for G2 in all_subgroups(p):
            assert_certificates_match_the_counted_twin(G1, G2, bases=(0, p))


@pytest.mark.parametrize("p,seed", [(7, 202), (11, 303)])
def test_certificates_match_the_counted_twin_on_random_subgroups(p, seed):
    groups = seeded_random_subgroups(p, 30, seed)
    for G1 in groups:
        for G2 in groups:
            assert_certificates_match_the_counted_twin(G1, G2)


@pytest.mark.parametrize("p", [11, 23, 59])
def test_paper_certificates_match_the_counted_twin(p):
    for label in "abc":
        G1, G2 = case_subgroups(p, label)
        for pair in ((G1, G2), (G2, G1), (G1, G1), (G2, G2)):
            assert_certificates_match_the_counted_twin(*pair, bases=(0, 1, p))


@pytest.mark.parametrize("verdict", ["pass", "fail"])
@pytest.mark.parametrize("p", [101, 199, 401])
def test_singer_certificates_match_the_counted_twin(p, verdict):
    G1, G2, _ = subgroups_from_dict(singer_documents(p, p)[verdict])
    for pair in ((G1, G2), (G2, G1), (G1, G1)):
        assert_certificates_match_the_counted_twin(*pair, bases=(0, p))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_certificates_match_the_counted_twin_on_random_generator_sets(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    line = projective_line(p)
    entries = st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p)
    groups = []
    for _ in range(2):
        gens = [[m[:2], m[2:]] for m in data.draw(st.lists(entries, min_size=1, max_size=3))]
        try:
            groups.append(generate_closure(line, gens))
        except ClosureCapExceeded:  # PSL(2, 11) or PGL(2, 11), closed in full
            groups.append(reference_closure(line, gens, cap=p ** 3 - p))
    i = data.draw(st.integers(0, p))
    assert_certificates_match_the_counted_twin(*groups, bases=(i,))
