import json

import pytest

from galoispairs import case_subgroups, check_pair
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
