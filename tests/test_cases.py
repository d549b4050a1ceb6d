import json
import random
from collections import Counter

import pytest

from conftest import CASE_KINDS, trivial_subgroup
from galoispairs import (UnknownCase, case_subgroups, cases, conjugate,
                         generate_closure, recognize, verify, verify_prime)
from galoispairs.cases import LABELS, PRIMES, prime_table
from galoispairs.verify import _block_action


def test_case_subgroups_rejects_unknown():
    with pytest.raises(UnknownCase):
        case_subgroups(13, "a")
    with pytest.raises(UnknownCase):
        case_subgroups(11, "d")
    with pytest.raises(UnknownCase):
        prime_table(7)


def test_case_kinds_and_degrees():
    assert set(CASE_KINDS) == {(p, label) for p in PRIMES for label in LABELS}
    for (p, label), kinds in CASE_KINDS.items():
        G1, G2 = case_subgroups(p, label)
        assert len(G1) == len(G2) == p + 1
        assert (recognize(G1), recognize(G2)) == kinds


@pytest.mark.parametrize("p", PRIMES)
def test_g4_is_g1_conjugated_by_c(p):
    # the oracle composes c' A c for each generator A of G1, in order
    tab = prime_table(p)
    line, c = tab["line"], tab["gen"]["c"]
    G1, G4 = case_subgroups(p, "c")
    want = tuple(line.compose(line.compose(line.inverse(c), A), c)
                 for A in G1.generators)
    assert G4.generators == want
    assert G4.elements == generate_closure(line, want).elements


@pytest.mark.parametrize("p, closures", [(11, 3), (23, 4), (59, 3)])
def test_verify_prime_builds_each_group_once(p, closures, monkeypatch):
    # G1, G2 and G3 are closed once and G4 is conjugated from G1; at p=23
    # verify closes <s, m, t> as well
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for mod in (cases, verify):
        monkeypatch.setattr(mod, "generate_closure",
                            counted("generate_closure", generate_closure))
    monkeypatch.setattr(cases, "conjugate", counted("conjugate", conjugate),
                        raising=False)
    prime_table.cache_clear()
    assert verify_prime(p).passed
    assert calls == {"generate_closure": closures, "conjugate": 1}


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
    assert [len(b) for b in tab["o_partition"]] == [6, 6, 6, 6]
    assert [len(b) for b in tab["t_partition"]] == [12, 12]


def test_partition_validation():
    # the block sizes add up to the size of their union, which is the whole
    # line: the blocks are pairwise disjoint and cover P^1(F_23)
    tab = prime_table(23)
    points = set(tab["line"].points())
    for blocks in (tab["o_partition"], tab["t_partition"]):
        assert set().union(*blocks) == points
        assert sum(map(len, blocks)) == len(points)


def test_block_perm_printed_images():
    tab = prime_table(23)
    line, gen = tab["line"], tab["gen"]
    O, T = tab["o_partition"], tab["t_partition"]
    o_perm, t_perm = _block_action(line, O), _block_action(line, T)
    assert o_perm(line.identity) == (0, 1, 2, 3)
    assert o_perm(gen["s"]) == (1, 0, 3, 2)
    assert t_perm(gen["r"]) == (0, 1)
    assert o_perm(line.matrix([[1, 1], [0, 1]])) is None


def block_images(line, A, blocks):
    """Oracle for _block_action: the index of each block's image, as a set
    of points moved by line.apply, or None when some image is not a block."""
    index = {block: j for j, block in enumerate(blocks)}
    perm = tuple(index.get(frozenset(line.apply(Q, A) for Q in block))
                 for block in blocks)
    return None if None in perm else perm


def test_block_action_matches_the_point_images():
    # the elements of the four p = 23 groups and 300 random classes, most
    # of which break both block systems
    tab = prime_table(23)
    line = tab["line"]
    rng = random.Random(23)
    mats = [A for G in tab["groups"] for A in G.elements]
    while len(mats) < 24 * 4 + 300:
        a, b, c, d = (rng.randrange(23) for _ in range(4))
        if (a * d - b * c) % 23:
            mats.append(line.matrix([[a, b], [c, d]]))
    for blocks in (tab["o_partition"], tab["t_partition"]):
        perm = _block_action(line, blocks)
        got = [perm(A) for A in mats]
        assert got == [block_images(line, A, blocks) for A in mats]
        assert None in got


def faithful_on(G, blocks):
    """Every element of G permutes the blocks, and no two alike."""
    perm = _block_action(G.line, blocks)
    perms = [perm(A) for A in G.elements]
    return None not in perms and len(set(perms)) == len(perms)


def test_faithfulness():
    tab = prime_table(23)
    O, T = tab["o_partition"], tab["t_partition"]
    assert faithful_on(trivial_subgroup(tab["line"]), O)
    G1 = case_subgroups(23, "a")[0]
    assert faithful_on(G1, O)
    G3 = case_subgroups(23, "b")[1]
    assert not faithful_on(G3, T)


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


def test_block_breaking_generator_fails_its_item(monkeypatch):
    # x, the Singer cycle, does not preserve O: claiming it permutes the
    # four blocks must give one FAIL item, not an exception
    tab = dict(prime_table(23))
    tab["o_block_images"] = {**tab["o_block_images"], "x": (0, 1, 2, 3)}
    monkeypatch.setattr(verify, "prime_table", lambda p: tab)
    report = verify_prime(23)
    assert [i.id for i in report.items if not i.passed] == ["blocks.o.x"]
    assert not report.passed
