import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import exhaustive_projline_checks, iterated_order
from galoispairs import (ProjectiveLine, ProjectiveMatrix, ProjectivePoint,
                         SingularMatrix, is_prime, projective_line)
from galoispairs.cases import prime_table


def scalar_multiples(rows, p):
    """Oracle: every nonzero scalar multiple of a raw matrix, reduced."""
    (a, b), (c, d) = rows
    return {tuple((v * k) % p for v in (a, b, c, d)) for k in range(1, p)}


def test_normalize_scalar_identity():
    line = projective_line(11)
    assert line.matrix([[2, 0], [0, 2]]) == line.identity


def test_normalize_matches_printed_class():
    line = projective_line(11)
    assert line.matrix([[4, 4], [4, 7]]) == line.matrix([[1, 1], [1, 10]])
    assert tuple(line.matrix([[4, 4], [4, 7]])) == (1, 1, 1, 10)


def test_normalize_by_leading_inverse():
    # 12^-1 = 2 mod 23, so the class of [[0,12],[2,0]] is [[0,1],[4,0]]
    line = projective_line(23)
    M = line.matrix([[0, 12], [2, 0]])
    assert tuple(M) == (0, 1, 4, 0)
    assert tuple(M) in scalar_multiples([[0, 12], [2, 0]], 23)


def test_normalize_idempotent_and_scalar_invariant():
    for p in (5, 7):
        line = projective_line(p)
        for M in line.matrices():
            assert line.matrix(M.rows()) == M
            for c in range(1, p):
                scaled = [[v * c for v in row] for row in M.rows()]
                assert line.matrix(scaled) == M


def test_singular_matrix_rejected():
    line = projective_line(11)
    with pytest.raises(SingularMatrix):
        line.matrix([[2, 4], [1, 2]])
    with pytest.raises(SingularMatrix):
        line.matrix([[0, 0], [1, 2]])


def test_point_canonicalization():
    line = projective_line(11)
    assert line.point(3, 6) == ProjectivePoint(1, 2)
    assert line.point(0, 5) == ProjectivePoint(0, 1)
    with pytest.raises(ValueError):
        line.point(0, 0)


def test_compose_identity_and_commutation():
    tab = prime_table(11)
    line, gen = tab["line"], tab["gen"]
    for M in (gen["s"], gen["x"], gen["h"]):
        assert line.compose(line.identity, M) == M
        assert line.compose(M, line.identity) == M
    # direct multiplication: [[0,2],[1,0]] * [[1,2],[10,10]] = [[9,9],[1,2]]
    prod = line.compose(gen["s"], gen["t"])
    assert prod == line.matrix([[9, 9], [1, 2]])
    assert prod == line.compose(gen["t"], gen["s"])


def test_compose_printed_noncommuting_products():
    tab = prime_table(11)
    line, gen = tab["line"], tab["gen"]
    r3 = line.power(gen["r"], 3)
    assert line.compose(r3, gen["s"]) == line.matrix([[2, 9], [1, 5]])
    assert line.compose(gen["s"], r3) == line.matrix([[6, 9], [1, 9]])


def test_inverse():
    tab = prime_table(11)
    line, gen = tab["line"], tab["gen"]
    assert line.inverse(line.identity) == line.identity
    # the flip generator is an involution
    assert line.inverse(gen["s"]) == gen["s"]
    xi_inv = line.inverse(gen["x"])
    assert line.compose(gen["x"], xi_inv) == line.identity
    assert line.compose(xi_inv, gen["x"]) == line.identity


def test_apply_examples():
    line = projective_line(23)
    gen = prime_table(23)["gen"]
    Q = line.point(0, 1)
    assert line.apply(Q, line.identity) == Q
    assert line.apply(Q, line.power(gen["x"], 8)) == line.point(1, 17)
    # the 12th power sends (0:1) to (1:11) = (1:alpha^9)
    assert line.apply(Q, line.power(gen["x"], 12)) == line.point(1, 11)


def test_element_order_examples():
    line11 = projective_line(11)
    assert line11.element_order(line11.identity) == 1
    assert line11.element_order(prime_table(11)["gen"]["x"]) == 12
    line59 = projective_line(59)
    assert line59.element_order(prime_table(59)["gen"]["r"]) == 30


def test_element_order_divides_group_order():
    for p in (5, 7):
        line = projective_line(p)
        n = p ** 3 - p
        for M in line.matrices():
            assert n % line.element_order(M) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_element_order_matches_iteration_on_every_class(p):
    line = projective_line(p)
    for M in line.matrices():
        assert line.element_order(M) == iterated_order(line, M), M
    # one cached order per value of tr^2/det
    assert len(line._orders) <= p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_element_order_reads_any_representative(p):
    line = projective_line(p)
    for M in line.matrices():
        n = line.element_order(M)
        for lam in range(1, p):
            raw = ProjectiveMatrix(*(lam * v % p for v in M))
            assert line.element_order(raw) == n, (M, lam)
    for lam in range(1, p):
        assert line.element_order(ProjectiveMatrix(lam, 0, 0, lam)) == 1
    assert len(line._orders) <= p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_element_order_reads_plain_tuples_on_a_cold_cache(p):
    # one fresh line per form, so that each form takes the cache miss of
    # every tau it reaches first
    as_tuple, as_matrix, as_multiple = (ProjectiveLine(p) for _ in range(3))
    for i, M in enumerate(as_matrix.matrices()):
        lam = 1 + i % (p - 1)
        n = 1
        while as_matrix.power(M, n) != as_matrix.identity:
            n += 1
        assert as_tuple.element_order(tuple(M)) == n, M
        assert as_matrix.element_order(M) == n, M
        assert as_multiple.element_order(tuple(lam * v % p for v in M)) == n, (M, lam)
    assert as_tuple._orders == as_matrix._orders == as_multiple._orders


def test_element_order_without_a_quadratic_character():
    # PGL(2, F_2) is S3; tr^2/det = 1 is its class of order 3 = p + 1
    line = projective_line(2)
    M = line.matrix([[0, 1], [1, 1]])
    assert line.element_order(M) == 3 == iterated_order(line, M)


PRIMES_TO_401 = [q for q in range(2, 402) if is_prime(q)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_element_order_matches_iteration_on_random_classes(data):
    p = data.draw(st.sampled_from(PRIMES_TO_401))
    a, b, c, d = (data.draw(st.integers(0, p - 1)) for _ in range(4))
    assume((a * d - b * c) % p)
    line = projective_line(p)
    M = line.matrix([[a, b], [c, d]])
    assert line.element_order(M) == iterated_order(line, M)


def test_enumerate_points():
    line2 = projective_line(2)
    assert [tuple(q) for q in line2.points()] == [(0, 1), (1, 0), (1, 1)]
    assert len(projective_line(11).points()) == 12
    line23 = projective_line(23)
    pts = set(line23.points())
    assert len(pts) == 24
    O = prime_table(23)["o_partition"]
    assert set().union(*O.blocks) == pts


def test_matrices_enumeration_is_all_of_pgl():
    for p in (3, 5, 7):
        line = projective_line(p)
        mats = list(line.matrices())
        assert len(mats) == p ** 3 - p
        assert len(set(mats)) == len(mats)


def test_right_action_law_exhaustive_small():
    # full law over every pair of classes and every point
    stats = exhaustive_projline_checks(5)
    assert stats["pairs"] == 120 ** 2
