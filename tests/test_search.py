import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CASE_KINDS, all_subgroups, b_element, canonical_matrices,
                      count_element_orders, iterated_order, raw_conjugate,
                      reference_b_walk, reference_transitive_group,
                      scanned_cyclic_regular, seeded_random_subgroups, stabilizer,
                      trivial_subgroup)
from galoispairs import (LABELS, PRIMES, GroupKind, ProjectiveMatrix, SearchConfig,
                         cases, case_subgroups, check_pair, check_pair_all_basepoints,
                         conjugate, find_cyclic_regular, find_scaling_conjugates,
                         generate_closure, is_prime, orbit, parse_kind,
                         primitive_root, projective_line, recognize, reverify,
                         run_search, search)
from galoispairs.cli import main
from galoispairs.search import _POLYHEDRAL_GENERATORS, _singer, _transitive_group
from galoispairs.subgroups import POLYHEDRAL


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
            H = raw_conjugate(G, C)
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


def test_scaling_conjugates_match_the_sweep_on_bundled_groups():
    groups = [G for p in PRIMES for label in LABELS for G in case_subgroups(p, label)]
    assert len(groups) == 18
    for G in groups:
        assert find_scaling_conjugates(G) == brute_force_scaling_sweep(G)


@pytest.mark.parametrize("p", [q for q in range(2, 102) if is_prime(q)])
def test_scaling_conjugates_match_the_sweep_on_singer_cycles(p):
    G = find_cyclic_regular(projective_line(p))
    assert find_scaling_conjugates(G) == brute_force_scaling_sweep(G)


@pytest.mark.parametrize("p", [q for q in range(3, 62) if is_prime(q)])
def test_scaling_conjugates_match_the_sweep_on_dihedral_groups(p):
    G = _transitive_group(projective_line(p), GroupKind.dihedral(p + 1))
    assert find_scaling_conjugates(G) == brute_force_scaling_sweep(G)


def test_scaling_conjugates_match_the_sweep_on_random_subgroups():
    # a non-identity diagonal (1, 0, 0, d) meets every conjugate; a group
    # without one but with an involution (0, 1, x, 0) meets the conjugate
    # by c = p - 1
    diagonal = involution = 0
    for p in (q for q in range(2, 24) if is_prime(q)):
        for G in seeded_random_subgroups(p, 30, seed=11):
            if len(G) < 2:
                continue
            assert find_scaling_conjugates(G) == brute_force_scaling_sweep(G), G.generators
            if any(M.a and not M.b and not M.c and M.d != 1 for M in G.elements):
                diagonal += 1
            elif any(not M.a and not M.d for M in G.elements):
                involution += 1
    assert diagonal and involution


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_scaling_conjugates_match_the_sweep_on_groups_fixing_0_1(p):
    # subgroups of the stabilizer of (0:1): translations (1, k, 0, 1), so
    # buckets of several (1, b, 0, d), with and without diagonals
    line = projective_line(p)
    g = primitive_root(p)
    for gens in ([[1, 1], [0, 1]], [[1, 1], [0, g]]), ([[1, 1], [0, 1]],), ([[1, 1], [0, g]],):
        G = generate_closure(line, [line.matrix(rows) for rows in gens])
        assert find_scaling_conjugates(G) == brute_force_scaling_sweep(G), gens


def test_scaling_conjugates_match_the_sweep_on_a_singer_cycle_at_401():
    # this conjugate of the scanned Singer cycle holds the involution
    # (0, 1, 62, 0), which diag(-1, 1) fixes: c = 400 is the one rejection
    G0 = find_cyclic_regular(projective_line(401))
    G = conjugate(G0, G0.line.matrix([[0, 1], [1, 201]]))
    found = find_scaling_conjugates(G)
    assert found == list(range(2, 400))
    assert found == brute_force_scaling_sweep(G)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
def test_diagonal_conjugate_matches_conjugate(p):
    # the conjugates the scaling strategy visits, by every diag(c, 1)
    line = projective_line(p)
    groups = [find_cyclic_regular(line)]
    if p in PRIMES:
        groups += [G for label in LABELS for G in case_subgroups(p, label)]
    for G in groups:
        for c in range(1, p):
            want = raw_conjugate(G, ProjectiveMatrix(c, 0, 0, 1))
            got = conjugate(G, [[c, 0], [0, 1]])
            assert got.generators == want.generators
            assert got.elements == want.elements


@pytest.mark.parametrize("p", [5, 7, 11, 23])
def test_find_cyclic_regular(p):
    G = find_cyclic_regular(projective_line(p))
    line = G.line
    assert len(G) == p + 1
    assert recognize(G) == GroupKind.cyclic(p + 1)
    assert orbit(G, line.points()[0]) == frozenset(line.points())
    assert len(stabilizer(G, line.points()[0])) == 1
    # deterministic scan: same subgroup every time
    assert find_cyclic_regular(line).elements == G.elements


def test_find_cyclic_regular_matches_the_scan():
    # the walk reads only the classes (0, 1, c, d), which hold the first
    # class of order p+1 in the scan of all of PGL(2, p)
    for p in (q for q in range(2, 500) if is_prime(q)):
        line = projective_line(p)
        want = scanned_cyclic_regular(line)
        assert find_cyclic_regular(line).generators == want.generators, p
        assert want.generators[0].a == 0


def test_classes_of_order_p_plus_1_have_a_non_square_tau():
    # the lemma by which search._singer skips the rows c with -c a square
    for p in (q for q in range(3, 1000) if is_prime(q)):
        line = projective_line(p)
        taus = [tau for tau in range(p) if line._class_order(tau) == p + 1]
        assert taus, p
        for tau in taus:
            assert pow(tau, (p - 1) // 2, p) == p - 1, (p, tau)


def row_scanned_singer(line):
    """Oracle for search._singer: the first class (0, 1, c, d) of order
    p+1, with no row skipped."""
    p = line.p
    return next(M for c in range(1, p) for d in range(p)
                if line.element_order(M := ProjectiveMatrix(0, 1, c, d)) == p + 1)


def test_find_cyclic_regular_matches_the_row_scan():
    for p in (q for q in range(2, 2000) if is_prime(q)):
        line = projective_line(p)
        want = row_scanned_singer(line)
        assert find_cyclic_regular(line).generators == (want,), p


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
    cert = run_search(cfg)
    assert cert is not None and cert.verdict == "pass"
    assert (str(cert.kind1), str(cert.kind2)) == ("A4", "C12")
    assert cert.degree == 12
    # determinism: byte-identical output for identical configs
    again = run_search(cfg)
    assert again.to_json() == cert.to_json()
    # emitted certificates re-verify from their generators alone
    assert reverify(cert.to_dict(), all_basepoints=True).to_json() == cert.to_json()


def test_random_search_exhausts_gracefully():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt5(), kind2=GroupKind.alt5(),
                       strategy="random", seed=1, limit=5)
    assert run_search(cfg) is None  # |A5| != 12, so no A5 pair exists at p = 11


def test_exhaustive_cyclic_search():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.cyclic(12),
                       strategy="exhaustive-cyclic", limit=1000)
    cert = run_search(cfg)
    assert cert is not None and cert.verdict == "pass"
    assert (str(cert.kind1), str(cert.kind2)) == ("A4", "C12")
    assert reverify(cert.to_dict(), all_basepoints=True).to_json() == cert.to_json()
    # swapped kind order works too and respects the requested order
    cfg_sw = SearchConfig(p=11, kind1=GroupKind.cyclic(12), kind2=GroupKind.alt4(),
                          strategy="exhaustive-cyclic", limit=1000)
    cert_sw = run_search(cfg_sw)
    assert cert_sw is not None and str(cert_sw.kind1) == "C12"


def test_scaling_strategy():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.alt4(),
                       strategy="scaling", limit=100)
    cert = run_search(cfg)
    assert cert is not None and cert.verdict == "pass"
    assert str(cert.kind1) == str(cert.kind2) == "A4"
    with pytest.raises(ValueError, match="scaling strategy needs kind1 == kind2"):
        SearchConfig(p=11, kind1=GroupKind.cyclic(12), kind2=GroupKind.dihedral(12),
                     strategy="scaling", limit=10)


def test_run_search_dispatch():
    cfg = SearchConfig(p=11, kind1=GroupKind.alt4(), kind2=GroupKind.cyclic(12),
                       strategy="exhaustive-cyclic", limit=1000)
    assert run_search(cfg).verdict == "pass"


SEEDS = st.integers(0, 2 ** 64 - 1)
# the nine reference kinds, C and D kinds of orders p + 1 and p - 1 at
# small primes, the Borel subgroup of order 20 at p = 5 and an "other" kind
# of order 12 at p = 11, which no subgroup has; a kind of order other than
# p + 1 finds none at once
SEARCH_KINDS = ([(11, parse_kind(k)) for k in ("A4", "C12", "D12")]
                + [(23, parse_kind(k)) for k in ("S4", "C24", "D24")]
                + [(59, parse_kind(k)) for k in ("A5", "C60", "D60")]
                + [(p, parse_kind(f"{f}{n}"))
                   for p in (3, 5, 7, 13) for n in (p + 1, p - 1) for f in "CD"
                   if f == "C" or n >= 4]
                + [(5, GroupKind.other(20)), (11, GroupKind.other(12))])


REFERENCE_TRIPLES = [(p, str(k1), str(k2)) for (p, _), (k1, k2) in CASE_KINDS.items()]


def test_b_walk_finds_the_nine_reference_triples_from_kinds_alone(monkeypatch):
    def unread(p):
        raise AssertionError("the B walk read the bundled cases")
    monkeypatch.setattr(cases, "prime_table", unread)
    for p, kind1, kind2 in REFERENCE_TRIPLES:
        runs = [("exhaustive-cyclic", 0)] + [("random", seed) for seed in range(10)]
        if kind1 == kind2:
            runs.append(("scaling", 0))
        for strategy, seed in runs:
            cfg = SearchConfig(p, parse_kind(kind1), parse_kind(kind2), strategy, seed)
            cert = run_search(cfg)
            assert cert is not None, (p, kind1, kind2, strategy, seed)
            assert (str(cert.kind1), str(cert.kind2)) == (kind1, kind2)
            again = reverify(cert.to_dict(), all_basepoints=True)
            assert again.to_json() == cert.to_json()


def b_pass_count(p, kind1, kind2):
    """How many b in B make (G1, b^-1 G2 b) pass at every base point."""
    line = projective_line(p)
    G1, G2 = (_transitive_group(line, parse_kind(k)) for k in (kind1, kind2))
    return sum(check_pair_all_basepoints(G1, conjugate(G2, b_element(p, i))).verdict
               == "pass" for i in range(p * (p - 1)))


@pytest.mark.parametrize("p,kind1,kind2,passes", [
    (11, "A4", "C12", 96), (11, "A4", "D12", 72), (11, "A4", "A4", 72),
    (23, "S4", "C24", 480), (23, "S4", "D24", 336), (23, "S4", "S4", 360),
    (59, "A5", "C60", 3360), (59, "A5", "D60", 2640), (59, "A5", "A5", 2820)])
def test_b_walk_pass_counts_over_all_of_b(p, kind1, kind2, passes):
    assert b_pass_count(p, kind1, kind2) == passes


@pytest.mark.parametrize("p", [5, 7])
def test_b_pass_count_times_p_plus_1_is_the_pgl_count(p):
    # PGL(2, p) = B·G1 with |B| |G1| = |PGL(2, p)|, so each x = bg is counted
    # once, and (G1, x^-1 G2 x) is (G1, b^-1 G2 b) conjugated by g
    line = projective_line(p)
    for kind1 in (f"C{p + 1}", f"D{p + 1}"):
        for kind2 in (f"C{p + 1}", f"D{p + 1}"):
            G1, G2 = (_transitive_group(line, parse_kind(k)) for k in (kind1, kind2))
            pgl = sum(check_pair_all_basepoints(G1, conjugate(G2, x)).verdict == "pass"
                      for x in canonical_matrices(p))
            assert (p + 1) * b_pass_count(p, kind1, kind2) == pgl, (kind1, kind2)


def test_order_screen_rejects_only_impossible_kinds():
    # the B walk finds none at once for a kind of order other than p + 1;
    # by the order lemma (the search docstring) no such pair passes, as a
    # brute force over every pair of subgroups at p = 3 and 5 confirms. A
    # pair of unequal orders fails "orders differ", so only equal orders
    # are checked.
    for p, subgroups, passes in ((3, 30, 6), (5, 156, 240)):
        groups = all_subgroups(p)
        assert len(groups) == subgroups  # PGL(2, 3) and PGL(2, 5) are S4 and S5
        orders = [len(G1) for G1 in groups for G2 in groups if len(G1) == len(G2)
                  and check_pair_all_basepoints(G1, G2).verdict == "pass"]
        assert len(orders) == passes, p
        assert set(orders) == {p + 1}, p


@pytest.mark.parametrize("p,kind", [(p, k) for p, k in SEARCH_KINDS
                                     if k.order == p + 1 and k.family != "other"], ids=str)
def test_transitive_group_matches_the_scans(p, kind):
    line = projective_line(p)
    G, want = _transitive_group(line, kind), reference_transitive_group(line, kind)
    assert G.elements == want.elements
    if kind.family != "D":  # D is checked by its elements
        assert G.generators == want.generators
    assert recognize(G) == kind
    assert orbit(G, line.points()[0]) == frozenset(line.points())


# C_{p+1} and D_{p+1} at every odd prime to 61 and at the primes that the
# benchmark and CI search, and A4, S4 and A5 at their one prime each
TRANSITIVE_PRIMES = [q for q in range(3, 62) if is_prime(q)] + [101, 199, 401, 1009]
TRANSITIVE_KINDS = ([(p, make(p + 1)) for make in (GroupKind.cyclic, GroupKind.dihedral)
                     for p in TRANSITIVE_PRIMES]
                    + [(11, GroupKind.alt4()), (23, GroupKind.sym4()), (59, GroupKind.alt5())])


@pytest.mark.parametrize("p,kind", TRANSITIVE_KINDS, ids=str)
def test_transitive_group_has_its_kind_and_is_transitive(p, kind):
    # the regularity lemma, the D lemma and the Coxeter-Moser presentation
    # prove all three; _transitive_group builds the group unchecked
    line = projective_line(p)
    G = _transitive_group(line, kind)
    assert len(G) == p + 1
    assert recognize(G) == kind
    assert orbit(G, line.point(0, 1)) == frozenset(line.points())


def test_kinds_of_another_order_find_none_at_once(capsys, monkeypatch):
    # the order lemma: no pair of order other than p + 1 passes, so no
    # group is built
    monkeypatch.setattr("galoispairs.search.generate_closure", None)
    for strategy in ("random", "exhaustive-cyclic"):
        for kind in ("C12", "D12", "A4"):
            argv = ["search", "--p", "13", "--kind1", kind, "--kind2", "C12",
                    "--strategy", strategy]
            assert main(argv) == 3
            assert capsys.readouterr() == ("none\n", "")


def tau(line, M):
    """tr^2/det of the class M."""
    a, b, c, d = M
    return (a + d) ** 2 * pow(a * d - b * c, -1, line.p) % line.p


@pytest.mark.parametrize("p", [q for q in range(2, 100) if is_prime(q)])
def test_tau_0_and_1_are_the_classes_of_order_2_and_3(p):
    # _transitive_group's tabled generators are of order 2 (tau = 0) and 3
    # (tau = 1); each tau holds the class (0, 1, 1, 0) (tau = 0) or
    # (0, 1, -1/tau, 1), as (0, 1, c, d) has tau = -d^2/c
    line = projective_line(p)
    for t in range(p):
        M = line.matrix([[0, 1], [1, 0]] if t == 0 else [[0, 1], [-pow(t, -1, p), 1]])
        assert tau(line, M) == t
        n = line.element_order(M)
        assert n == iterated_order(line, M)
        assert (n == 2) == (t == 0) and (n == 3) == (t == 1), t


@pytest.mark.parametrize("family", sorted(_POLYHEDRAL_GENERATORS))
def test_tabled_generators_present_the_polyhedral_kind(family):
    # <a, b | a^2 = b^3 = (ab)^k = 1> at the one prime p = |kind| - 1
    order, k = POLYHEDRAL[family], {"A4": 3, "S4": 4, "A5": 5}[family]
    line = projective_line(order - 1)
    a, b = _POLYHEDRAL_GENERATORS[family]
    assert (tau(line, a), tau(line, b)) == (0, 1)
    assert [iterated_order(line, M) for M in (a, b, line.compose(a, b))] == [2, 3, k]


def count_closures(monkeypatch) -> list:
    """Record the generators of every generate_closure call made in search."""
    calls = []

    def counted(line, gens):
        calls.append(gens)
        return generate_closure(line, gens)

    monkeypatch.setattr(search, "generate_closure", counted)
    return calls


@pytest.mark.parametrize("p,kind", [(11, "A4"), (23, "S4"), (59, "A5")])
def test_polyhedral_kinds_are_one_closure_and_no_order(monkeypatch, p, kind):
    # the generators are tabled: no pair is scanned for them, and the only
    # orders read are the closure's own, of its generators, to order its walk
    line = projective_line(p)
    closures, orders = count_closures(monkeypatch), count_element_orders(monkeypatch)
    _transitive_group(line, parse_kind(kind))
    assert len(closures) == 1
    assert orders and set(orders) <= set(_POLYHEDRAL_GENERATORS[kind])


@pytest.mark.parametrize("p", [59, 401])
def test_dihedral_kind_is_one_closure(monkeypatch, p):
    # <r^2, s r> is closed at once; <r^2, s> is never tried (the D lemma)
    line = projective_line(p)
    closures = count_closures(monkeypatch)
    _transitive_group(line, GroupKind.dihedral(p + 1))
    assert len(closures) == 1


def test_the_d_lemma_at_every_odd_prime_below_300():
    # s = (1, 0, d, -1) inverts r = _singer(line) = (0, 1, c, d) and fixes
    # (1:0), so no regular group holds it; <r^2, s r> is the transitive D_{p+1}
    for p in (q for q in range(3, 300) if is_prime(q)):
        line = projective_line(p)
        r = _singer(line)
        s = line.matrix([[1, 0], [r.d, -1]])
        Q = line.point(1, 0)
        assert line.apply(Q, s) == Q, p
        assert line.compose(line.compose(s, r), s) == line.inverse(r), p
        G = _transitive_group(line, GroupKind.dihedral(p + 1))  # asserts transitivity
        assert G.generators == (line.compose(r, r), line.compose(s, r)), p


ALL_KINDS = ([parse_kind(k) for k in ("A4", "S4", "A5")]
             + [GroupKind.cyclic(n) for n in range(1, 61)]
             + [GroupKind.dihedral(n) for n in range(4, 61, 2)])


# every kind of order p + 1 paired with C(p+1), in both kind orders: the
# pairs the enumeration this strategy once ran could take
EXHAUSTIVE_CASES = [(p, k1, k2) for p in (2, 3, 5, 7, 11, 13, 23)
                    for k in ALL_KINDS if k.order == p + 1
                    for k1, k2 in dict.fromkeys([(k, GroupKind.cyclic(p + 1)),
                                                 (GroupKind.cyclic(p + 1), k)])]
EXHAUSTIVE_LIMITS = (1, 2, 3, 5, 8, 13, 21, 50, 100, 200, 300, 500, 1000)


@pytest.mark.parametrize("p,kind1,kind2", EXHAUSTIVE_CASES,
                         ids=[f"{p}-{k1}-{k2}" for p, k1, k2 in EXHAUSTIVE_CASES])
def test_exhaustive_cyclic_search_matches_the_reference_loop(p, kind1, kind2):
    for limit in EXHAUSTIVE_LIMITS:
        cfg = SearchConfig(p, kind1, kind2, "exhaustive-cyclic", 0, limit)
        got, want = run_search(cfg), reference_b_walk(cfg)
        assert (got and got.to_json()) == (want and want.to_json()), limit


# ordered pairs of SEARCH_KINDS at one prime that share a group order
SEARCH_KIND_PAIRS = [(p, k1, k2) for p, k1 in SEARCH_KINDS
                     for q, k2 in SEARCH_KINDS if q == p and k1.order == k2.order]


def assert_random_search_matches_reference(cfg):
    got, want = run_search(cfg), reference_b_walk(cfg)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.to_json() == want.to_json()
    return want is not None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SEARCH_KIND_PAIRS), SEEDS, st.integers(1, 300))
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
    # the base group of D14 at p = 13 is built from the kind alone: the same
    # group at every seed and limit, which spends no part of the limit
    kind = GroupKind.dihedral(14)
    cfg = SearchConfig(13, kind, kind, "scaling", seed, limit)
    line = projective_line(13)
    G = _transitive_group(line, kind)
    assert G.elements == reference_transitive_group(line, kind).elements
    cert = run_search(cfg)
    assert cert is not None and cert.g1_generators == G.generators


def reference_scaling_search(cfg):
    """Oracle for the scaling visits of run_search: each scalar
    c = 2, 3, ... in turn counts against the limit, and its conjugate by
    diag(c, 1), built by raw_conjugate, is checked at every base point.
    The base group is reference_transitive_group's, from scans of all of
    PGL(2, p)."""
    G = reference_transitive_group(projective_line(cfg.p), cfg.kind1)
    if G is None:
        return None
    for spent, c in enumerate(range(2, cfg.p)):
        if spent >= cfg.limit:
            return None
        cert = check_pair_all_basepoints(G, raw_conjugate(G, ProjectiveMatrix(c, 0, 0, 1)))
        if cert.verdict == "pass":
            return cert
    return None


# kinds of order p + 1 and p - 1 (no base group) at small primes, where
# small scalars often fail, and the A4 and S4 of the paper's primes
SCALING_KINDS = ([(p, parse_kind(f"{f}{n}"))
                  for p in (5, 7, 13, 17) for n in (p + 1, p - 1) for f in "CD"]
                 + [(11, GroupKind.alt4()), (23, GroupKind.sym4())])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCALING_KINDS), st.integers(0, 50),
       st.integers(1, 20) | st.integers(100, 400))
def test_scaling_search_matches_the_reference_loop(case, seed, limit):
    p, kind = case
    cfg = SearchConfig(p, kind, kind, "scaling", seed, limit)
    got, want = run_search(cfg), reference_scaling_search(cfg)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.to_json() == want.to_json()


@pytest.mark.parametrize("p,kind", [(11, "D12"), (11, "A4"), (23, "D24"), (59, "A5"),
                                    (59, "D60")])
def test_scaling_search_counts_rejected_scalars_against_the_limit(p, kind):
    # these base groups meet their conjugate at c = 2 (the first kept
    # scalar is 5, 3, 4, 3 and 3); the walk visits those scalars too, so the
    # limit counts every scalar walked, the rejected ones included
    kind = parse_kind(kind)
    first = find_scaling_conjugates(_transitive_group(projective_line(p), kind))[0]
    assert first > 2
    found = []
    for limit in range(1, first + 2):
        cfg = SearchConfig(p, kind, kind, "scaling", 0, limit)
        got, want = run_search(cfg), reference_scaling_search(cfg)
        assert (got and got.to_json()) == (want and want.to_json()), limit
        found.append(got is not None)
    assert not found[0] and found[-1]


# searches that find none: nothing in B passes for these kinds at p = 2
# and 3, and no scalar passes for D6 at p = 5
FINDS_NONE = [("exhaustive-cyclic", 2, "C3", "C3"), ("exhaustive-cyclic", 3, "C4", "D4"),
              ("exhaustive-cyclic", 3, "D4", "D4"), ("random", 3, "D4", "C4"),
              ("random", 3, "D4", "D4"), ("scaling", 2, "C3", "C3"),
              ("scaling", 3, "D4", "D4"), ("scaling", 5, "D6", "D6")]


def test_limit_counts_the_conjugates_visited_in_every_order(monkeypatch):
    calls = []

    def counted(G1, G2):
        calls.append(G2)
        return check_pair_all_basepoints(G1, G2)

    monkeypatch.setattr("galoispairs.search.check_pair_all_basepoints", counted)
    for strategy, p, kind1, kind2 in FINDS_NONE:
        most = {"exhaustive-cyclic": p * (p - 1), "random": None, "scaling": p - 2}[strategy]
        for limit in (1, 2, 3, 5, 8, 40):
            calls.clear()
            cfg = SearchConfig(p, parse_kind(kind1), parse_kind(kind2), strategy, 0, limit)
            assert run_search(cfg) is None, (strategy, p, kind1, kind2, limit)
            want = limit if most is None else min(limit, most)
            assert len(calls) == want, (strategy, p, kind1, kind2, limit)
    # D12 at p = 11: the scalars c = 2, 3 and 4 meet G1, and c = 5 passes
    kind = parse_kind("D12")
    for limit, found in ((3, False), (4, True), (9, True)):
        calls.clear()
        cert = run_search(SearchConfig(11, kind, kind, "scaling", 0, limit))
        assert (cert is not None, len(calls)) == (found, min(limit, 4)), limit


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scaling_search_on_a_trivial_base_group_finds_none(capsys, p):
    # |C1| != p + 1, so no base group is built
    assert _transitive_group(projective_line(p), GroupKind.cyclic(1)) is None
    assert main(["search", "--p", str(p), "--strategy", "scaling",
                 "--kind1", "C1", "--kind2", "C1"]) == 3
    assert capsys.readouterr().out == "none\n"


# stdout SHA-256 and exit code of `search` commands, re-recorded when the
# B walk replaced the seeded sampler and the generator enumeration: each
# certificate re-verifies at every base point, and the row that still finds
# none (p = 2) keeps its digest
GOLDEN_SEARCHES = [
    ("--p 11 --kind1 A4 --kind2 C12 --strategy random --seed 17 --limit 2000", 0,
     "9c4c92d7a9244691050e2e118fa7aa0ac524f1fc3cb14b2cc28fb3d8ac399e28"),
    ("--p 11 --kind1 A4 --kind2 D12 --strategy random --seed 17 --limit 2000", 0,
     "840809dea21bd601ac232c0f19d502f81a041e63405cad890915c2f0d9188c47"),
    ("--p 11 --kind1 A4 --kind2 A4 --strategy random --seed 17 --limit 2000", 0,
     "37255f7f295838639a5296d5364fd8ef76add0d70b05b54df6adf7dcbb6433f5"),
    ("--p 23 --kind1 S4 --kind2 C24 --strategy random --seed 17 --limit 2000", 0,
     "7202652b3706e501fd78c02a3f931bfea259fbc9fcdca230bcb358d7139a30fc"),
    ("--p 23 --kind1 S4 --kind2 D24 --strategy random --seed 17 --limit 2000", 0,
     "cf38f682887ceb5627f578c4176e1437f21e042a08a3ca7b2afb70dc83611361"),
    ("--p 23 --kind1 S4 --kind2 S4 --strategy random --seed 17 --limit 2000", 0,
     "81b3773be88d88260e03469ee12a06b00fc9e64d073bce9cc545b69b0fa5ba3d"),
    ("--p 59 --kind1 A5 --kind2 C60 --strategy random --seed 17 --limit 2000", 0,
     "050715433c760c757f0cd06403fd4da8f97de455b361c2f8920658e0c6e592c4"),
    ("--p 59 --kind1 A5 --kind2 D60 --strategy random --seed 17 --limit 2000", 0,
     "58a287996d164bba49ee811ace4427f30c527be489ddd95e8f5b27a7e31c58b2"),
    ("--p 59 --kind1 A5 --kind2 A5 --strategy random --seed 17 --limit 2000", 0,
     "63809c05068d935ee283ee344e9817b0c2269f18922d67294b021001719cdeb4"),
    ("--p 11 --kind1 A4 --kind2 C12 --strategy exhaustive-cyclic", 0,
     "f9033a0123fad674f07b07b0574c6c4a14e2325630453df075c257cf8d17bdc8"),
    ("--p 23 --kind1 S4 --kind2 C24 --strategy exhaustive-cyclic", 0,
     "45c1226df9b2d5d08c96442ca5654ccda742e2c8a9466275156d32c592390f98"),
    ("--p 59 --kind1 A5 --kind2 C60 --strategy exhaustive-cyclic", 0,
     "b1652c70448c4476922922edd78048dea518b873aaf8cb9dabc892cf714e94c9"),
    # certificates from both visiting orders, both kind orders, a
    # C(p+1) x C(p+1) search, and the p = 2 walk, which finds none
    ("--p 59 --kind1 A5 --kind2 C60 --strategy exhaustive-cyclic --limit 3000", 0,
     "b1652c70448c4476922922edd78048dea518b873aaf8cb9dabc892cf714e94c9"),
    ("--p 59 --kind1 C60 --kind2 A5 --strategy exhaustive-cyclic --limit 3000", 0,
     "08cd3b5ccfd5f95645e7a6b7401c6c3bf2d2acaf871ebc635fd5cb620389281e"),
    ("--p 23 --kind1 S4 --kind2 C24 --strategy random --seed 3973012086 --limit 10000", 0,
     "ab92dcd90d7f352d50a8222c568afb94fdb6047e85153ec8e08b2d0c2b4665b7"),
    ("--p 11 --kind1 C12 --kind2 A4 --strategy random --seed 3 --limit 3000", 0,
     "c9f59f76e013d02640143bb860c9b67afec700dd5413acfc3d60fafe278871ac"),
    ("--p 13 --kind1 D14 --kind2 C14 --strategy random --seed 5 --limit 500", 0,
     "ad5059c09d47b44406ccce4d5980d1b03a7dd30a23a6cebd61283db70f62dea0"),
    ("--p 13 --kind1 D14 --kind2 C14 --strategy exhaustive-cyclic --seed 5 --limit 500", 0,
     "ea96f838812c6832edbf567849c4c41da40067ef6a247f4ccb2d61a84f3c26a7"),
    ("--p 7 --kind1 C8 --kind2 C8 --strategy exhaustive-cyclic --seed 5 --limit 500", 0,
     "9e02fd7da45fb750f123734f3c5ba2adafd6e5823343bebea4c45dfcddb1b16e"),
    ("--p 2 --kind1 C3 --kind2 C3 --strategy exhaustive-cyclic --seed 5 --limit 500", 3,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    # random-strategy certificates at p = 23 and p = 59
    ("--p 23 --kind1 S4 --kind2 S4 --strategy random --seed 97 --limit 10000", 0,
     "316078bb3da76578f12cf95a7072136c68f9f6c2ed90583ed0bbe979b924c084"),
    ("--p 23 --kind1 D24 --kind2 C24 --strategy random --seed 7 --limit 3000", 0,
     "05e29eb526a4d58d8db785c297c0c2b98d2f36fbdcf200b5b20b06343752750d"),
    ("--p 59 --kind1 A5 --kind2 C60 --strategy random --seed 2 --limit 10000", 0,
     "fbcf97d1bc6595b97971dcd8fadb5e5d70d70e7125654ea2ab70ad9a93f26348"),
    ("--p 59 --kind1 D60 --kind2 C60 --strategy random --seed 42 --limit 3000", 0,
     "afa7a23e7e436d99f2e16dd2096a5d168aafca4e679aba00218e5a730af7bde9"),
    ("--p 59 --kind1 C60 --kind2 C60 --strategy random --seed 0 --limit 2000", 0,
     "52bd2c59a1ee02b95c3ea35d4ab07ef3072f703bdf3f65edd032c0b0c205bf9e"),
    # scaling self-pairs at the paper's primes, built from the kinds alone
    ("--p 11 --kind1 C12 --kind2 C12 --strategy scaling", 0,
     "924e7f1a3902a70a9d2aa8c1652353eeb4090a868a4022074d8e1944d8188742"),
    ("--p 11 --kind1 D12 --kind2 D12 --strategy scaling", 0,
     "c00389bc147293912db5e8c6b62d2ccc5d05b2332e1f980b2e373efd81578b13"),
    ("--p 11 --kind1 A4 --kind2 A4 --strategy scaling", 0,
     "f73931d014b282cedc46858528cdcfe85aebfdd92224fe2de51b97b03cf3a56f"),
    ("--p 23 --kind1 C24 --kind2 C24 --strategy scaling", 0,
     "edbec3fc863d6643dbe68b72b48dd39676a1e62a636d90e04177fac8e735b134"),
    ("--p 23 --kind1 D24 --kind2 D24 --strategy scaling", 0,
     "9bb3dd003f39ade49b7fdbafc13c7633d51f26fa1967b5b719c644107da0a059"),
    ("--p 23 --kind1 S4 --kind2 S4 --strategy scaling", 0,
     "6d924785f056d5d28afd7f3d09f4bbc5aabdead511677cfc62951567d3ffde32"),
    ("--p 59 --kind1 C60 --kind2 C60 --strategy scaling", 0,
     "fdc7ef1facffb8bcf74104e84cd24bbd47e295fdab0b4cac9abaeb0962dff6ea"),
    ("--p 59 --kind1 D60 --kind2 D60 --strategy scaling", 0,
     "eca61ef1cae9ecb45a6b1b3bdaa5d8e74fde0b9d147b7fa46e75c8b02f0f7b98"),
    ("--p 59 --kind1 A5 --kind2 A5 --strategy scaling", 0,
     "dc6afadbf33637b8fa4b88a9c67b4f66a1086f2f505db9a71baa7b5b6f414d91"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_SEARCHES,
                         ids=["-".join(a.split()[1::2]) for a, _, _ in GOLDEN_SEARCHES])
def test_search_output_is_pinned(capsys, argv, code, digest):
    assert main(["search", *argv.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if code == 0:
        again = reverify(json.loads(out), all_basepoints=True)
        assert again.to_json() + "\n" == out
