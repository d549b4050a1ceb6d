import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (randrange_matrix_entries, randrange_sample_subgroup,
                      scanned_elements_of_order, seeded_random_subgroups,
                      stabilizer, trivial_subgroup)
from galoispairs import (LABELS, PRIMES, ClosureCapExceeded, GroupKind,
                         NotFound, SearchConfig, case_subgroups, check_pair,
                         check_pair_all_basepoints, conjugate,
                         find_cyclic_regular, find_scaling_conjugates,
                         generate_closure, intersect, load_case, orbit,
                         parse_kind, projective_line, random_pair_search,
                         recognize, reverify, run_search)
from galoispairs.cli import main
from galoispairs.search import (_base_group, _diagonal_conjugate, _order_pools,
                                _orders_fit, _sample_matrix, _sample_subgroup,
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
    with pytest.raises(ValueError):
        find_scaling_conjugates(trivial_subgroup(projective_line(11)))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
def test_diagonal_conjugate_matches_conjugate(p):
    line = projective_line(p)
    groups = [find_cyclic_regular(line)]
    if p in PRIMES:
        groups += [G for label in LABELS for G in case_subgroups(p, label)]
    for G in groups:
        for c in range(1, p):
            want = conjugate(G, line.matrix([[c, 0], [0, 1]]))
            got = _diagonal_conjugate(G, c)
            assert got.generators == want.generators
            assert got.elements == want.elements


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


# 4294967311 is the least prime above 2**32: getrandbits(33) consumes two
# 32-bit words per entry
SAMPLER_PRIMES = [2, 3, 5, 11, 59, 401, 2 ** 31 - 1, 4294967311]
SEEDS = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SAMPLER_PRIMES), SEEDS, st.integers(1, 20))
def test_sampled_matrices_follow_the_randrange_stream(p, seed, draws):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        M = _sample_matrix(rng.getrandbits, p.bit_length(), p)
        assert M == randrange_matrix_entries(oracle_rng, p)
    assert rng.getstate() == oracle_rng.getstate()


# the nine reference kinds, C and D kinds of orders p + 1 and p - 1 at
# small primes, and the Borel subgroup of order 20 at p = 5 ("other")
SAMPLER_KINDS = ([(11, parse_kind(k)) for k in ("A4", "C12", "D12")]
                 + [(23, parse_kind(k)) for k in ("S4", "C24", "D24")]
                 + [(59, parse_kind(k)) for k in ("A5", "C60", "D60")]
                 + [(p, parse_kind(f"{f}{n}"))
                    for p in (5, 7, 13) for n in (p + 1, p - 1) for f in "CD"]
                 + [(5, GroupKind.other(20))])


def assert_same_samples(line, kind, seed, calls):
    """_sample_subgroup and its oracle return equal results and leave equal
    RNG states; returns how many calls found a subgroup."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    hits = 0
    for _ in range(calls):
        G = _sample_subgroup(rng.getrandbits, line.p.bit_length(), line, kind)
        want = randrange_sample_subgroup(oracle_rng, line, kind)
        if want is None:
            assert G is None
            continue
        hits += 1
        assert G is not None
        assert G.generators == want.generators and G.elements == want.elements
    assert rng.getstate() == oracle_rng.getstate()
    return hits


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SAMPLER_KINDS), SEEDS, st.integers(1, 40))
def test_sampled_subgroups_follow_the_randrange_stream(case, seed, calls):
    p, kind = case
    assert_same_samples(projective_line(p), kind, seed, calls)


@pytest.mark.parametrize("p,kind", [(5, GroupKind.other(20)), (11, GroupKind.alt4()),
                                    (13, GroupKind.dihedral(14)), (59, GroupKind.cyclic(60))],
                         ids=str)
def test_sampled_subgroups_match_the_oracle_where_they_find(p, kind):
    assert assert_same_samples(projective_line(p), kind, seed=2, calls=300) > 0


def reference_random_search(cfg):
    """Oracle for random_pair_search: the same tick loop on the
    randrange_sample_subgroup oracle, without any order screen."""
    rng = random.Random(cfg.seed)
    line = projective_line(cfg.p)
    for _ in range(cfg.limit):
        G1 = randrange_sample_subgroup(rng, line, cfg.kind1)
        if G1 is None:
            continue
        G2 = randrange_sample_subgroup(rng, line, cfg.kind2)
        if G2 is None:
            continue
        cert = check_pair_all_basepoints(G1, G2)
        if cert.verdict == "pass":
            return cert
    return None


def reference_base_group(cfg):
    """Oracle for _base_group's seeded fallback: the first subgroup the
    randrange_sample_subgroup oracle finds within cfg.limit calls."""
    rng = random.Random(cfg.seed)
    line = projective_line(cfg.p)
    for _ in range(cfg.limit):
        G = randrange_sample_subgroup(rng, line, cfg.kind1)
        if G is not None:
            return G
    return None


# ordered pairs of SAMPLER_KINDS at one prime that share a group order
SAMPLER_KIND_PAIRS = [(p, k1, k2) for p, k1 in SAMPLER_KINDS
                      for q, k2 in SAMPLER_KINDS if q == p and k1.order == k2.order]


def assert_random_search_matches_reference(cfg):
    got, want = random_pair_search(cfg), reference_random_search(cfg)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.to_json() == want.to_json()
    return want is not None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SAMPLER_KIND_PAIRS), SEEDS, st.integers(1, 300))
def test_random_search_matches_the_reference_loop(case, seed, limit):
    p, kind1, kind2 = case
    assert_random_search_matches_reference(
        SearchConfig(p, kind1, kind2, "random", seed, limit))


@pytest.mark.parametrize("p,kind1,kind2", [(5, "C6", "D6"), (7, "D8", "C8"),
                                           (11, "A4", "C12"), (13, "C14", "C14")])
def test_random_search_matches_the_reference_where_it_finds(p, kind1, kind2):
    found = [assert_random_search_matches_reference(
        SearchConfig(p, parse_kind(kind1), parse_kind(kind2), "random", seed, 300))
        for seed in range(6)]
    assert any(found)


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.integers(1, 300))
def test_scaling_fallback_base_group_matches_the_reference(seed, limit):
    # p = 13 has no bundled case and D14 is not C(p+1), so the base group
    # comes from the seeded sampler
    kind = GroupKind.dihedral(14)
    cfg = SearchConfig(13, kind, kind, "scaling", seed, limit)
    want = reference_base_group(cfg)
    G = _base_group(cfg, projective_line(13))
    if want is None:
        assert G is None
        assert scaling_pair_search(cfg) is None
        return
    assert G is not None
    assert G.generators == want.generators and G.elements == want.elements
    cert = scaling_pair_search(cfg)
    if cert is not None:
        assert cert.g1_generators == want.generators


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
    # random-strategy certificates at p = 23 and p = 59, recorded at commit
    # 92b5bdc, before the sampler screened raw draws
    ("--p 23 --kind1 S4 --kind2 S4 --strategy random --seed 97 --limit 10000", 0,
     "fd4249cbe5558e5568aef69cd14d8c4bbb63c18ec08b08cf733f37b298d1343f"),
    ("--p 23 --kind1 D24 --kind2 C24 --strategy random --seed 7 --limit 3000", 0,
     "163e26a4b82e5eb1232f4c0fae05b46431f5cfa1334f102a183c0b90a3e7bf37"),
    ("--p 59 --kind1 A5 --kind2 C60 --strategy random --seed 2 --limit 10000", 0,
     "bfdf27a05844b1e3e5c04ff8bb4741f0472ce8dfb76e7cd0479cfe98d7b30e28"),
    ("--p 59 --kind1 D60 --kind2 C60 --strategy random --seed 42 --limit 3000", 0,
     "85eb866f53c691d74af5f4459a739378eec0f0b03607dfff1e06a995fe2281c8"),
    ("--p 59 --kind1 C60 --kind2 C60 --strategy random --seed 0 --limit 2000", 0,
     "b73d94ee21d63c0aee11689eaa42d84b3736185fa5fbf5d2278fd97e115d3862"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_SEARCHES,
                         ids=["-".join(a.split()[1::2]) for a, _, _ in GOLDEN_SEARCHES])
def test_search_output_is_pinned(capsys, argv, code, digest):
    assert main(["search", *argv.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
