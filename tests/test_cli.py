import json

import pytest

from galoispairs import (case_subgroups, check_pair, conjugate,
                         find_cyclic_regular, projective_line)
from galoispairs.cli import EXIT_EXHAUSTED, EXIT_FAIL, EXIT_INVALID, EXIT_PASS, main


def pair_document(tmp_path, G1, G2):
    doc = {"p": G1.line.p,
           "g1": {"generators": [A.rows() for A in G1.generators]},
           "g2": {"generators": [A.rows() for A in G2.generators]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def case_11a():
    return case_subgroups(11, "a")


def test_emit_curve_passes_with_the_implicit_degree(tmp_path, capsys, case_11a):
    assert main(["emit-curve", pair_document(tmp_path, *case_11a)]) == EXIT_PASS
    assert capsys.readouterr().out.splitlines()[-1] == "implicit_degree=12"


def test_emit_curve_rejects_a_failing_pair(tmp_path, capsys, case_11a):
    G1, _ = case_11a
    assert main(["emit-curve", pair_document(tmp_path, G1, G1)]) == EXIT_INVALID
    assert "fails the criterion" in capsys.readouterr().err


def test_check_pair_exit_codes(tmp_path, capsys, case_11a):
    G1, G2 = case_11a
    assert main(["check-pair", pair_document(tmp_path, G1, G2)]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == check_pair(G1, G2).to_json()
    assert main(["check-pair", pair_document(tmp_path, G1, G1)]) == EXIT_FAIL


def test_exhausted_search_prints_none(capsys):
    # PGL(2, F_11) has no element of order 60, so no C60 pair exists
    argv = ["search", "--p", "11", "--kind1", "A5", "--kind2", "C60", "--limit", "5"]
    assert main(argv) == EXIT_EXHAUSTED
    assert capsys.readouterr().out == "none\n"


def test_check_pair_closes_groups_above_600_elements(tmp_path, capsys):
    # a Singer cycle C602 and a diagonal conjugate of it: a valid pair whose
    # closures exceed the fixed floor of 600 elements
    line = projective_line(601)
    G = find_cyclic_regular(line)
    H = conjugate(G, line.matrix([[2, 0], [0, 1]]))
    argv = ["check-pair", "--all-basepoints", pair_document(tmp_path, G, H)]
    assert main(argv) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind1"], doc["verdict"]) == ("C602", "pass")
