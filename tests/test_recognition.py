"""Recognition vs the generator-image backtracking oracle."""

import pytest

from conftest import (all_subgroups, count_element_orders, recognize_by_element_orders,
                      seeded_random_subgroups)
from galoispairs import (GroupKind, case_subgroups, find_cyclic_regular, generate_closure,
                         primitive_root, projective_line, recognize)
from galoispairs.search import _transitive_group
from models import (candidate_models, cyclic_model, dihedral_model,
                    is_isomorphic, permutation_model, recognize_by_isomorphism)


def test_model_order_statistics():
    assert permutation_model("A4").order_tally() == {1: 1, 2: 3, 3: 8}
    assert permutation_model("S4").order_tally() == {1: 1, 2: 9, 3: 8, 4: 6}
    assert permutation_model("A5").order_tally() == {1: 1, 2: 15, 3: 20, 5: 24}
    assert dihedral_model(12).order_tally() == {1: 1, 2: 7, 3: 2, 6: 2}
    assert cyclic_model(12).order_tally() == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}


def test_models_are_groups():
    for model in (cyclic_model(6), dihedral_model(8), permutation_model("A4")):
        els = model.elements
        assert len(set(els)) == len(els)
        for x in els:
            assert model.mult(model.identity, x) == x
            assert model.mult(x, model.identity) == x
        # spot-check associativity on the generator-rich corner
        for x in els[:4]:
            for y in els[:4]:
                for z in els[:4]:
                    assert (model.mult(model.mult(x, y), z)
                            == model.mult(x, model.mult(y, z)))


def test_candidate_models_cover_orders():
    kinds_12 = [m.kind for m in candidate_models(12)]
    assert kinds_12 == [GroupKind.cyclic(12), GroupKind.dihedral(12),
                       GroupKind.alt4()]
    kinds_7 = [m.kind for m in candidate_models(7)]
    assert kinds_7 == [GroupKind.cyclic(7)]


def test_oracle_on_reference_groups():
    expected = {
        (11, "a"): (GroupKind.alt4(), GroupKind.cyclic(12)),
        (11, "b"): (GroupKind.alt4(), GroupKind.dihedral(12)),
        (11, "c"): (GroupKind.alt4(), GroupKind.alt4()),
        (23, "a"): (GroupKind.sym4(), GroupKind.cyclic(24)),
        (23, "b"): (GroupKind.sym4(), GroupKind.dihedral(24)),
        (23, "c"): (GroupKind.sym4(), GroupKind.sym4()),
        (59, "a"): (GroupKind.alt5(), GroupKind.cyclic(60)),
        (59, "b"): (GroupKind.alt5(), GroupKind.dihedral(60)),
        (59, "c"): (GroupKind.alt5(), GroupKind.alt5()),
    }
    for (p, label), kinds in expected.items():
        G1, G2 = case_subgroups(p, label)
        assert recognize_by_isomorphism(G1) == recognize(G1) == kinds[0]
        assert recognize_by_isomorphism(G2) == recognize(G2) == kinds[1]


def test_oracle_rejects_wrong_models():
    G1 = case_subgroups(11, "a")[0]  # tetrahedral, order 12
    assert not is_isomorphic(G1, cyclic_model(12))
    assert not is_isomorphic(G1, dihedral_model(12))
    assert is_isomorphic(G1, permutation_model("A4"))


@pytest.mark.parametrize("q,count,seed", [(5, 40, 101), (7, 110, 202),
                                          (11, 110, 303)])
def test_recognize_agrees_with_oracle_on_random_subgroups(q, count, seed):
    groups = seeded_random_subgroups(q, count, seed)
    assert len(groups) == count
    for G in groups:
        assert len(G) <= 120
        assert recognize(G) == recognize_by_isomorphism(G)


@pytest.mark.parametrize("p,count", [(2, 6), (3, 30), (5, 156)])
def test_recognize_agrees_with_oracle_on_every_subgroup(p, count):
    # PGL(2, 2), PGL(2, 3) and PGL(2, 5) are S3, S4 and S5: every kind,
    # orders divisible by p included
    subgroups = all_subgroups(p)
    assert len(subgroups) == count
    for G in subgroups:
        assert (recognize(G) == recognize_by_element_orders(G)
                == recognize_by_isomorphism(G))


@pytest.mark.parametrize("p", [7, 11, 13])
def test_recognize_agrees_with_oracle_on_borel_subgroups(p):
    # C_p x| C_k for each k | p - 1: the translation u = (1, 1, 0, 1) of
    # order p and the diagonal (g^((p-1)/k), 0, 0, 1) of order k, with g a
    # primitive root. Only k = 1 and k = 2 are cyclic or dihedral; with odd k
    # there is no involution, so recognize seeks an element of order pk in all
    # of the group
    line, g = projective_line(p), primitive_root(p)
    u = line.matrix([[1, 1], [0, 1]])
    for k in range(1, p):
        if (p - 1) % k:
            continue
        d = line.matrix([[pow(g, (p - 1) // k, p), 0], [0, 1]])
        G = generate_closure(line, [u, d])
        assert len(G) == p * k
        want = {1: GroupKind.cyclic(p), 2: GroupKind.dihedral(2 * p)}.get(
            k, GroupKind.other(p * k))
        assert (recognize(G) == recognize_by_element_orders(G)
                == recognize_by_isomorphism(G) == want)


def test_recognize_agrees_with_oracle_on_psl_2_7():
    # PSL(2, 7) is the image of SL(2, 7) = <(1, 1, 0, 1), (0, -1, 1, 0)>
    line = projective_line(7)
    G = generate_closure(line, [line.matrix([[1, 1], [0, 1]]),
                                line.matrix([[0, -1], [1, 0]])])
    assert len(G) == 168
    assert (recognize(G) == recognize_by_element_orders(G)
            == recognize_by_isomorphism(G) == GroupKind.other(168))


def test_recognize_reads_one_order_on_the_singer_cycle(monkeypatch):
    # C402 has one involution, and its generator has order 402
    G = find_cyclic_regular(projective_line(401))
    calls = count_element_orders(monkeypatch)
    assert recognize(G) == GroupKind.cyclic(402)
    assert len(calls) <= 1


def test_recognize_reads_no_order_on_the_dihedral_group(monkeypatch):
    # D402 has 201 involutions, read off the trace, so it cannot be cyclic
    G = _transitive_group(projective_line(401), GroupKind.dihedral(402))
    calls = count_element_orders(monkeypatch)
    assert recognize(G) == GroupKind.dihedral(402)
    assert calls == []
