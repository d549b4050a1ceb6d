import json

import pytest

from galoispairs import (GroupKind, UnknownCase, case_subgroups, load_case,
                         recognize, verify_prime)
from galoispairs.cases import LABELS, PRIMES, prime_table


def iter_cases():
    for p in PRIMES:
        for label in LABELS:
            yield load_case(p, label)


def test_load_case_rejects_unknown():
    with pytest.raises(UnknownCase):
        load_case(13, "a")
    with pytest.raises(UnknownCase):
        load_case(11, "d")
    with pytest.raises(UnknownCase):
        prime_table(7)


def test_nine_cases_enumerate():
    cases = list(iter_cases())
    assert len(cases) == 9
    assert {(c.p, c.label) for c in cases} == {(p, l) for p in PRIMES
                                               for l in LABELS}


def test_case_kinds_and_degrees():
    for case in iter_cases():
        G1, G2 = case_subgroups(case.p, case.label)
        assert len(G1) == len(G2) == case.p + 1
        assert recognize(G1) == case.expected_kind1
        assert recognize(G2) == case.expected_kind2
        if case.label == "c":
            assert case.conjugator is not None
            assert case.expected_kind2 == case.expected_kind1
        else:
            assert case.conjugator is None


def test_printed_element_lists_live_in_their_groups():
    tab = prime_table(11)
    G1 = case_subgroups(11, "a")[0]
    G4 = case_subgroups(11, "c")[1]
    line = tab["line"]
    for M in tab["g1_order2"] + tab["g1_order3"]:
        assert M in G1.elements
    for M in tab["g4_order2"] + tab["g4_order3"]:
        assert M in G4.elements
    assert {line.element_order(M) for M in tab["g1_order2"]} == {2}
    assert {line.element_order(M) for M in tab["g4_order3"]} == {3}


def test_partition_sizes_as_published():
    tab = prime_table(23)
    assert [len(b) for b in tab["o_partition"].blocks] == [6, 6, 6, 6]
    assert [len(b) for b in tab["t_partition"].blocks] == [12, 12]


@pytest.mark.parametrize("p", PRIMES)
def test_verify_prime_all_items_pass(p):
    report = verify_prime(p)
    failed = [i.id for i in report.items if not i.passed]
    assert report.passed, f"failed items at p={p}: {failed}"
    assert report.p == p
    assert len(report.items) >= 20


def test_verify_report_shape_and_determinism():
    r1 = verify_prime(11)
    r2 = verify_prime(11)
    assert r1.to_json() == r2.to_json()
    doc = json.loads(r1.to_json())
    assert set(doc) == {"p", "items", "pass"}
    assert all(set(item) == {"id", "claim", "pass"} for item in doc["items"])
    text = r1.to_text()
    assert text.count("[PASS]") == len(r1.items)


def test_verify_case_filter():
    full = verify_prime(11)
    only_a = verify_prime(11, "a")
    pair_ids = [i.id for i in only_a.items if i.id.startswith("pair.")]
    assert pair_ids and all(i.startswith("pair.a.") for i in pair_ids)
    assert len(only_a.items) < len(full.items)
    with pytest.raises(UnknownCase):
        verify_prime(11, "z")
    with pytest.raises(UnknownCase):
        verify_prime(13)


def test_verify_items_cover_the_headline_claims():
    ids11 = {i.id for i in verify_prime(11).items}
    for needed in ("order.s", "order.x", "g1.order2_list", "g1.order3_list",
                   "g4.order2_list", "g4.order3_list", "x.power6", "x.power4",
                   "g1.transitive", "g2.transitive", "g3.transitive",
                   "pair.a.intersection", "pair.b.intersection",
                   "pair.c.intersection", "products.differ.0"):
        assert needed in ids11
    ids23 = {i.id for i in verify_prime(23).items}
    for needed in ("g1.m_is_h2", "blocks.o.faithful", "cells.unique_singleton",
                   "conj_blocks.unique_empty", "x.power12.at.inf",
                   "blocks.t.preserved", "order.x"):
        assert needed in ids23
    ids59 = {i.id for i in verify_prime(59).items}
    for needed in ("g1.kind", "g3.dihedral", "order.r", "pair.c.orbits"):
        assert needed in ids59


def test_block_check_propagates_unexpected_errors(monkeypatch):
    from galoispairs import NotBlockPreserving, verify

    def raising(error):
        def block_action(*args):
            raise error
        return block_action

    monkeypatch.setattr(verify, "block_action", raising(NotBlockPreserving("moved")))
    assert verify._preserves(None, None, None) is False
    monkeypatch.setattr(verify, "block_action", raising(KeyError("not a block error")))
    with pytest.raises(KeyError):
        verify._preserves(None, None, None)
