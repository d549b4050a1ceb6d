import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scanned_elements_of_order, seeded_random_subgroups
from galoispairs import (LABELS, PRIMES, ClosureCapExceeded, GroupKind,
                         NotFound, SearchConfig, case_subgroups, check_pair,
                         check_pair_all_basepoints, conjugate,
                         find_cyclic_regular, find_scaling_conjugates,
                         generate_closure, intersect, load_case, orbit,
                         parse_kind, projective_line, random_pair_search,
                         recognize, reverify, run_search, stabilizer)
from galoispairs.cli import main
from galoispairs.search import (_order_pools, _orders_fit,
                                exhaustive_cyclic_search, scaling_pair_search)


def brute_force_scaling_sweep(G):
    """Independent oracle: raw sweep with direct set operations."""
    line = G.line
    base = line.points()[0]
    full = frozenset(line.points())
    regular = len(G) == line.p + 1 and orbit(G, base) == full
    out = []
    for c in range(2, line.p):
        C = line.matrix([[c, 0], [0, 1]])
        Ci = line.inverse(C)
        conj_els = {line.compose(line.compose(Ci, A), C) for A in G.elements}
        if len(conj_els & G.elements) != 1:
            continue
        if regular:
            H = conjugate(G, C)
            if check_pair(G, H, base).verdict != "pass":
                continue
        out.append(c)
    return out


def test_scaling_conjugates_reference_values():
    G1_11 = case_subgroups(11, "a")[0]
    found = find_scaling_conjugates(G1_11)
    assert 2 in found
    assert 1 not in found and 0 not in found
    assert found == brute_force_scaling_sweep(G1_11)
    G1_23 = case_subgroups(23, "a")[0]
    found23 = find_scaling_conjugates(G1_23)
    assert 17 in found23  # alpha^7 at p=23
    assert found23 == brute_force_scaling_sweep(G1_23)


def test_scaling_conjugates_recheck_to_passing_certificates():
    for p in (11, 23):
        G = case_subgroups(p, "a")[0]
        line = G.line
        for c in find_scaling_conjugates(G):
            H = conjugate(G, line.matrix([[c, 0], [0, 1]]))
            assert check_pair_all_basepoints(G, H).verdict == "pass"


def test_scaling_conjugates_deterministic():
    G = case_subgroups(11, "a")[0]
    assert find_scaling_conjugates(G) == find_scaling_conjugates(G)


def test_scaling_conjugates_requires_nontrivial_group():
    from galoispairs import trivial_subgroup
    with pytest.raises(ValueError):
        find_scaling_conjugates(trivial_subgroup(projective_line(11)))


@pytest.mark.parametrize("p", [5, 7, 11, 23])
def test_find_cyclic_regular(p):
    G = find_cyclic_regular(p)
    line = G.line
    assert len(G) == p + 1
    assert recognize(G) == GroupKind.cyclic(p + 1)
    assert orbit(G, line.points()[0]) == frozenset(line.points())
    assert len(stabilizer(G, line.points()[0])) == 1
    # deterministic scan: same subgroup every time
    assert find_cyclic_regular(p).elements == G.elements


def test_search_config_validation():
    kinds = dict(kind1=GroupKind.alt4(), kind2=GroupKind.cyclic(12))
    with pytest.raises(ValueError):
        SearchConfig(p=11, limit=0, **kinds)
    with pytest.raises(ValueError):
        SearchConfig(p=11, strategy="nope", **kinds)
    with pytest.raises(ValueError):
        SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.alt5())
    with pytest.raises(ValueError):
        SearchConfig(p=11, seed=-1, **kinds)
    cfg = SearchConfig(p=11, **kinds)
    assert cfg.strategy == "random"


def test_random_search_finds_reference_kind_pair():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.cyclic(12),
                       strategy="random", seed=7, limit=4000)
    cert = random_pair_search(cfg)
    assert cert is not None and cert.verdict == "pass"
    assert (str(cert.kind1), str(cert.kind2)) == ("A4", "C12")
    assert cert.degree == 12
    # determinism: byte-identical output for identical configs
    again = random_pair_search(cfg)
    assert again.to_json() == cert.to_json()
    # emitted certificates re-verify from their generators alone
    assert reverify(cert.to_dict(), all_basepoints=True).to_json() == cert.to_json()


def test_random_search_exhausts_gracefully():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt5(), kind2=GroupKind.alt5(),
                       strategy="random", seed=1, limit=5)
    assert random_pair_search(cfg) is None  # no A5 inside PGL(2, 11) pairs in 5 tries


def test_exhaustive_cyclic_search():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.cyclic(12),
                       strategy="exhaustive-cyclic", limit=1000)
    cert = exhaustive_cyclic_search(cfg)
    assert cert is not None and cert.verdict == "pass"
    assert (str(cert.kind1), str(cert.kind2)) == ("A4", "C12")
    assert reverify(cert.to_dict(), all_basepoints=True).to_json() == cert.to_json()
    # swapped kind order works too and respects the requested order
    cfg_sw = SearchConfig(p=11, kind1=GroupKind.cyclic(12), kind2=GroupKind.alt4(),
                          strategy="exhaustive-cyclic", limit=1000)
    cert_sw = exhaustive_cyclic_search(cfg_sw)
    assert cert_sw is not None and str(cert_sw.kind1) == "C12"


def test_exhaustive_cyclic_requires_a_cyclic_kind():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.dihedral(12),
                       strategy="exhaustive-cyclic", limit=10)
    with pytest.raises(ValueError):
        exhaustive_cyclic_search(cfg)


def test_scaling_strategy():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.alt4(),
                       strategy="scaling", limit=100)
    cert = scaling_pair_search(cfg)
    assert cert is not None and cert.verdict == "pass"
    assert str(cert.kind1) == str(cert.kind2) == "A4"
    with pytest.raises(ValueError):
        scaling_pair_search(SearchConfig(p=11, kind1=GroupKind.cyclic(12),
                                         kind2=GroupKind.dihedral(12),
                                         strategy="scaling", limit=10))


def test_run_search_dispatch():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.cyclic(12),
                       strategy="exhaustive-cyclic", limit=1000)
    assert run_search(cfg).verdict == "pass"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 23])
def test_order_pools_match_the_scan(p):
    line = projective_line(p)
    orders = sorted({line.element_order(M) for M in line.matrices()})
    scans = {n: scanned_elements_of_order(line, n) for n in orders}
    assert sum(map(len, scans.values())) == p ** 3 - p
    for cap in (1, 3, 40, p ** 3):
        pools = _order_pools(line, orders, cap)
        assert pools == {n: scans[n][:cap] for n in orders}


def test_order_pools_match_the_scan_at_59():
    line = projective_line(59)
    pools = _order_pools(line, [2, 3, 5], cap=4000)
    for n in (2, 3, 5):
        assert pools[n] == scanned_elements_of_order(line, n, cap=4000)
    # every involution and order-3 class, but only the first 4000 of order 5
    assert [len(pools[n]) for n in (2, 3, 5)] == [59 ** 2, 59 * 58, 4000]


ALL_KINDS = ([parse_kind(k) for k in ("A4", "S4", "A5")]
             + [GroupKind.cyclic(n) for n in range(1, 61)]
             + [GroupKind.dihedral(n) for n in range(4, 61, 2)])


def test_element_orders_hold_in_recognized_subgroups():
    for p in (5, 7, 11, 13, 23):
        for G in seeded_random_subgroups(p, 30, 1, cap=60):
            kind = recognize(G)
            if kind.family != "other":
                assert {G.line.element_order(A) for A in G.elements} <= kind.element_orders


@st.composite
def generator_tuples(draw):
    """One or two generators: random classes, or elements of one small
    subgroup so that small closures of every family come up."""
    p = draw(st.sampled_from([5, 7, 11, 13, 23]))
    line = projective_line(p)
    n_gens = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        G = draw(st.sampled_from(seeded_random_subgroups(p, 30, 1, cap=60)))
        pool = list(G)
    else:
        pool = list(line.matrices())
    return line, [draw(st.sampled_from(pool)) for _ in range(n_gens)]


@settings(max_examples=60, deadline=None)
@given(generator_tuples())
def test_order_screen_rejects_only_impossible_kinds(case):
    line, gens = case
    for kind in ALL_KINDS:
        if _orders_fit(line, kind, gens):
            continue
        try:
            G = generate_closure(line, gens, cap=kind.order)
        except ClosureCapExceeded:
            continue
        assert recognize(G) != kind, (gens, kind)


def test_order_screen_admits_the_bundled_generators():
    for case in (load_case(p, label) for p in PRIMES for label in LABELS):
        groups = case_subgroups(case.p, case.label)
        for G, kind in zip(groups, (case.expected_kind1, case.expected_kind2)):
            line = G.line
            gens = G.generators
            if len(gens) == 1:
                assert _orders_fit(line, kind, gens)
            for g in gens:
                for h in gens:
                    assert _orders_fit(line, kind, (g, h)), (case.p, case.label, kind)


# stdout SHA-256 and exit code of `search` commands, recorded at commit
# edee7c6, before generator pools were solved per tau class and tuples
# screened by word orders: neither may change an output byte
GOLDEN_SEARCHES = [
    ("--p 11 --kind1 A4 --kind2 C12 --strategy random --seed 17 --limit 2000", 0,
     "24c7c3c9f4bca70924672c8d84327df6562d076da8b8269da7a91171028671f8"),
    ("--p 11 --kind1 A4 --kind2 D12 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 11 --kind1 A4 --kind2 A4 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 23 --kind1 S4 --kind2 C24 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 23 --kind1 S4 --kind2 D24 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 23 --kind1 S4 --kind2 S4 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 59 --kind1 A5 --kind2 C60 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 59 --kind1 A5 --kind2 D60 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 59 --kind1 A5 --kind2 A5 --strategy random --seed 17 --limit 2000", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("--p 11 --kind1 A4 --kind2 C12 --strategy exhaustive-cyclic", 0,
     "f9033a0123fad674f07b07b0574c6c4a14e2325630453df075c257cf8d17bdc8"),
    ("--p 23 --kind1 S4 --kind2 C24 --strategy exhaustive-cyclic", 0,
     "45c1226df9b2d5d08c96442ca5654ccda742e2c8a9466275156d32c592390f98"),
    ("--p 59 --kind1 A5 --kind2 C60 --strategy exhaustive-cyclic", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    # certificates from both search strategies, both kind orders and the
    # second-cyclic branch, and the p = 2 enumeration
    ("--p 59 --kind1 A5 --kind2 C60 --strategy exhaustive-cyclic --limit 3000", 0,
     "a7230f36179ab9fb3a41a7dd23b37a79dbdc628011bb6c124931f96153833ec6"),
    ("--p 59 --kind1 C60 --kind2 A5 --strategy exhaustive-cyclic --limit 3000", 0,
     "07f5e29366a320b851bf99119fcdc3839064de88c835f241e05fb3ed3efa275f"),
    ("--p 23 --kind1 S4 --kind2 C24 --strategy random --seed 3973012086 --limit 10000", 0,
     "86e15e538cf03ab4c62b936a618b948ed555fd248925d41a39a88dd263dd4f0a"),
    ("--p 11 --kind1 C12 --kind2 A4 --strategy random --seed 3 --limit 3000", 0,
     "2fd9d955d1848deb50114ab0d57290c989dd0e79aea85dd3113eaa2c345e1941"),
    ("--p 13 --kind1 D14 --kind2 C14 --strategy random --seed 5 --limit 500", 0,
     "4c2aed8c48660271a7724135ea7191078eb1b822181624e2164fe7fa32a963e9"),
    ("--p 13 --kind1 D14 --kind2 C14 --strategy exhaustive-cyclic --seed 5 --limit 500", 0,
     "435790721870800dadb20ede99bd13956523373496f32454f8bc1e1c26595b1a"),
    ("--p 7 --kind1 C8 --kind2 C8 --strategy exhaustive-cyclic --seed 5 --limit 500", 0,
     "77480b7eb401b3d4ebce97cbe1d11582460376d95c69ff433ac4c41d052f90d0"),
    ("--p 2 --kind1 C3 --kind2 C3 --strategy exhaustive-cyclic --seed 5 --limit 500", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_SEARCHES,
                         ids=["-".join(a.split()[1::2]) for a, _, _ in GOLDEN_SEARCHES])
def test_search_output_is_pinned(capsys, argv, code, digest):
    assert main(["search", *argv.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
