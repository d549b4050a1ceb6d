import pytest

from galoispairs import (GroupKind, NotFound, SearchConfig, case_subgroups,
                         check_pair, check_pair_all_basepoints, conjugate,
                         find_cyclic_regular, find_scaling_conjugates,
                         generate_closure, intersect, orbit, projective_line,
                         random_pair_search, recognize, reverify, run_search,
                         stabilizer)
from galoispairs.search import exhaustive_cyclic_search, scaling_pair_search


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
