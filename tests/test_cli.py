import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import argparse_reading, run_main
import galoispairs
from galoispairs import (case_subgroups, check_pair, cli, conjugate, criterion,
                         find_cyclic_regular, projective_line)
from galoispairs.cli import (COMMANDS, EXIT_EXHAUSTED, EXIT_FAIL, EXIT_INVALID,
                             EXIT_PASS, UsageError, main, parse_args)
from galoispairs.errors import DegenerateInvariant


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


def test_emit_curve_out_writes_the_stdout_json_line(tmp_path, capsys, case_11a):
    out = tmp_path / "curve.json"
    argv = ["emit-curve", pair_document(tmp_path, *case_11a), "--out", str(out)]
    assert main(argv) == EXIT_PASS
    assert out.read_text() == capsys.readouterr().out.splitlines()[0] + "\n"


def test_emit_curve_out_to_an_unwritable_path_is_invalid_input(tmp_path, capsys,
                                                                case_11a):
    out = tmp_path / "missing" / "c.json"
    argv = ["emit-curve", pair_document(tmp_path, *case_11a), "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n")


def test_check_pair_past_the_closure_cap_is_invalid_input(tmp_path, capsys):
    # [[1,1],[0,1]] and [[0,1],[1,0]] generate PGL(2, 11), of 1,320 elements;
    # the closure cap at p = 11 is 600
    path = tmp_path / "pgl.json"
    path.write_text(json.dumps({"p": 11,
                                "g1": {"generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]},
                                "g2": {"generators": [[[0, -1], [1, 0]]]}}))
    assert main(["check-pair", str(path)]) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", f"error: {path}: closure of 2 generators exceeded cap 600\n")


def test_emit_curve_implicit_degree_error_is_a_failure(tmp_path, monkeypatch,
                                                       case_11a):
    # the handler's own catch exits 1; main's catch of invalid input (exit 2)
    # never sees the error
    def unproven(cert, param):
        raise DegenerateInvariant("no degree proof")
    monkeypatch.setattr(cli, "implicit_degree", unproven)
    rc, out, err = run_main(["emit-curve", pair_document(tmp_path, *case_11a)])
    assert (rc, out, err) == (EXIT_FAIL, "", "error: no degree proof\n")


def test_main_lets_other_exceptions_propagate(tmp_path, monkeypatch, case_11a):
    # main turns only ValueError and UnknownCase into exit 2: a bug surfaces
    def broken(*args):
        raise RuntimeError("not invalid input")
    monkeypatch.setattr(criterion, "check_pair", broken)  # the one reverify calls
    with pytest.raises(RuntimeError, match="not invalid input"):
        main(["check-pair", pair_document(tmp_path, *case_11a)])


def test_emit_curve_rejects_a_failing_pair(tmp_path, capsys, case_11a):
    G1, _ = case_11a
    assert main(["emit-curve", pair_document(tmp_path, G1, G1)]) == EXIT_INVALID
    assert capsys.readouterr().err == ("error: pair fails the criterion: "
                                       "groups not different; intersection not trivial\n")


def test_emit_curve_anchors_a_c2_pair_at_its_shared_orbit(tmp_path):
    # t -> -t and t -> -1/t at p = 11 share the orbit {1, 10} of (1:1), and
    # their orbit traces are constant; anchored at (1:1) the invariants are
    # -2/(t^2 - 1) and (t^2 - 2t - 1)/(t^2 - 1)
    doc = {"p": 11, "g1": {"generators": [[[-1, 0], [0, 1]]]},
           "g2": {"generators": [[[0, -1], [1, 0]]]}, "base_point": [1, 1]}
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_main(["check-pair", str(path)])
    assert (rc, err) == (EXIT_PASS, "")
    assert run_main(["emit-curve", str(path)]) == (
        EXIT_PASS,
        '{"A": [9], "B": [10, 9, 1], "D": [10, 0, 1], "degree": 2, "p": 11}\n'
        "implicit_degree=2\n", "")


def test_check_pair_exit_codes(tmp_path, capsys, case_11a):
    G1, G2 = case_11a
    assert main(["check-pair", pair_document(tmp_path, G1, G2)]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == check_pair(G1, G2).to_json()
    assert main(["check-pair", pair_document(tmp_path, G1, G1)]) == EXIT_FAIL


@pytest.mark.parametrize("args, message", [
    (["--p", "12", "--kind1", "A4", "--kind2", "C12"], "p=12 is not prime"),
    (["--p", "12", "--kind1", "Q8", "--kind2", "C12"], "unrecognized group kind 'Q8'"),
    (["--p", "11", "--kind1", "A4", "--kind2", "C60"],
     "kinds must share one group order, got A4 vs C60"),
])
def test_search_rejects_bad_input_with_one_line(args, message):
    assert run_main(["search", *args]) == (EXIT_INVALID, "", f"error: {message}\n")


def test_exhausted_search_prints_none(capsys):
    # PGL(2, F_11) has no element of order 60, so no C60 pair exists
    argv = ["search", "--p", "11", "--kind1", "A5", "--kind2", "C60", "--limit", "5"]
    assert main(argv) == EXIT_EXHAUSTED
    assert capsys.readouterr().out == "none\n"


def test_search_certificate_round_trips_through_a_file(tmp_path):
    # a certificate that search writes is a document that check-pair reprints
    # byte for byte and that emit-curve takes
    cert = tmp_path / "cert.json"
    rc, out, err = run_main(["search", "--p", "23", "--kind1", "S4", "--kind2", "C24",
                             "--strategy", "exhaustive-cyclic"])
    assert (rc, err) == (EXIT_PASS, "")
    cert.write_text(out)
    assert run_main(["check-pair", "--all-basepoints", str(cert)]) == (EXIT_PASS, out, "")
    rc, curve, err = run_main(["emit-curve", str(cert)])
    assert (rc, err) == (EXIT_PASS, "")
    assert curve.splitlines()[-1] == "implicit_degree=24"


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


# the nine paper pairs: G1 per prime, G2 per case (generator rows)
PAPER_G1 = {
    11: [[[0, 1], [6, 0]], [[1, 2], [10, 10]], [[1, 8], [6, 2]]],
    23: [[[0, 1], [17, 0]], [[1, 15], [9, 21]], [[1, 9], [8, 19]],
         [[1, 22], [17, 22]]],
    59: [[[1, 8], [57, 58]], [[1, 2], [5, 27]]],
}
PAPER_G2 = {
    "11a": [[[1, 6], [6, 0]]],
    "11b": [[[0, 1], [7, 0]], [[1, 3], [1, 4]]],
    "11c": [[[0, 1], [2, 0]], [[1, 1], [9, 10]], [[1, 4], [1, 2]]],
    "23a": [[[0, 1], [1, 22]]],
    "23b": [[[0, 1], [14, 0]], [[1, 16], [6, 13]]],
    "23c": [[[0, 1], [14, 0]], [[1, 9], [15, 21]], [[1, 10], [21, 19]],
            [[1, 4], [13, 22]]],
    "59a": [[[1, 1], [25, 0]]],
    "59b": [[[0, 1], [37, 0]], [[1, 2], [44, 44]]],
    "59c": [[[1, 10], [11, 58]], [[1, 53], [45, 44]]],
}
# SHA-256 of the stdout of each paper command, recorded at commit 026f07e
# (perfbench/paper_digests.json)
PAPER_DIGESTS = {
    "verify-paper/11":
        "0376bc0dac7a94e2ff7716a729e79e6641857404b641836bc43e48910565f348",
    "verify-paper/23":
        "58a08ea55211699435f6dc118cdc5b955f39b3bcf62ccd0c204a8afae9e906ae",
    "verify-paper/59":
        "098327406b748a226d9667857d3b22e909851583aca910688b1d5503707f8ed3",
    "check-pair/11a":
        "8b55a16c58f4ab9aa3134f5970ddbad70ddd6364c21ae352210d284e03909549",
    "emit-curve/11a":
        "6040e2f2fe607c67cf92007622ecf7ca388e6277c5bb829091cadd3abafb8f62",
    "check-pair/11b":
        "5d6c830fdf31551bd1f6a45128021a1a4b7f523365aee245e76bfad6b637651c",
    "emit-curve/11b":
        "54a26efd0c3075daa3979f5607237f5f4b29f934886ed778fedef4e0daee10e6",
    "check-pair/11c":
        "34f2f2f3bce836f37e5b5b3fda8ef4fe5323d85433662b799f3f4f50b155bdee",
    "emit-curve/11c":
        "a7daf1d199603323bb81ccd843c8a8cdd825dd8c345b8999b7dbbc84216dc0ba",
    "check-pair/23a":
        "78d7d71ccd7f9afbdfdc09f8433acf9c8238bfb11d5b0ebc9873f92413f13899",
    "emit-curve/23a":
        "59348a018705ffd67b3d9c1efba01d54a8204d320a6dcdb042449cf0482bd979",
    "check-pair/23b":
        "7f2609e8d5ffc371d7e6eba5669537193199013f340ee65a400c814cb1dd7862",
    "emit-curve/23b":
        "2d1fb6953e3bca3798329abeb076b947ef5da01aa80bd02f86efba4e62802f2a",
    "check-pair/23c":
        "cc84779b98ab011c83ea54a92ae0cfa882100e7e86ac95e9ad7feb81b599b52b",
    "emit-curve/23c":
        "d60b84fedc2786d8ddda08a5784b29543c74cc68ed14943bcb32237a5c908ec5",
    "check-pair/59a":
        "270d5fabd433ec4335a62c7176a9fc086d232df4ab0edbb81c2b4dc12b1c0505",
    "emit-curve/59a":
        "54c140043b3eb81cbc8b9696881f23a5cf2528faa69476562609f10e7ac57972",
    "check-pair/59b":
        "4e69b7488933f7be15dc479b8d016846c1b2535c9a77e90dabc32be6c13e79ab",
    "emit-curve/59b":
        "b6984d7703ab0fd1d1b8da509c1997f9c2f97b60f6aaa1628dec6bb7d5f7ba29",
    "check-pair/59c":
        "3bc51ee3bc201ca209100dfb41ea19639c2beba5d6ae52be17b88af629852f97",
    "emit-curve/59c":
        "9739c90618c10158d03288b5eef877d9c4d04ace927e3dafe0757d61f63a9509",
}


def paper_argv(job, tmp_path):
    command, name = job.split("/")
    if command == "verify-paper":
        return ["verify-paper", "--p", name, "--json"]
    p = int(name[:2])
    doc = {"p": p, "g1": {"generators": PAPER_G1[p]},
           "g2": {"generators": PAPER_G2[name]}}
    path = tmp_path / f"pair_{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    if command == "check-pair":
        return ["check-pair", "--all-basepoints", str(path)]
    return ["emit-curve", str(path)]


@pytest.mark.parametrize("job", sorted(PAPER_DIGESTS))
def test_paper_output_is_pinned(job, tmp_path, capsys):
    assert main(paper_argv(job, tmp_path)) == EXIT_PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_DIGESTS[job]


@pytest.mark.parametrize("p", [11, 23, 59])
def test_verify_paper_text_lists_the_json_items(p):
    def text(items):
        return ([f"[PASS] {p}/{i['id']}: {i['claim']}" for i in items]
                + [f"p={p}: {len(items)}/{len(items)} items pass"])

    items = json.loads(run_main(["verify-paper", "--p", str(p), "--json"])[1])["items"]
    rc, out, err = run_main(["verify-paper", "--p", str(p)])
    assert (rc, err) == (EXIT_PASS, "") and out.splitlines() == text(items)
    # --case a keeps the shared items and, of the pair items, exactly pair.a.*
    kept = [i for i in items
            if not i["id"].startswith("pair.") or i["id"].startswith("pair.a.")]
    assert any(i["id"].startswith("pair.a.") for i in kept) and len(kept) < len(items)
    rc, out, err = run_main(["verify-paper", "--p", str(p), "--case", "a"])
    assert (rc, err) == (EXIT_PASS, "") and out.splitlines() == text(kept)


def package_env():
    """The environment with this package's source directory first on
    PYTHONPATH, for a fresh interpreter that imports it."""
    src = str(Path(galoispairs.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(*args):
    """A fresh interpreter that imports this package: (exit code, out, err)."""
    done = subprocess.run([sys.executable, *args], env=package_env(), capture_output=True,
                          text=True)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_stdout_ends_the_command_by_sigpipe():
    # in `verify-paper --p 59 | head -1` a race decides whether a write meets
    # the closed pipe, as the report fits the pipe; a reader closed before
    # the command writes makes it meet one every time. The command is killed
    # by SIGPIPE, as cat is, with no BrokenPipeError traceback and no exit 1.
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "galoispairs", "verify-paper", "--p", "59"],
                              env=package_env(), stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (-signal.SIGPIPE, b"")


def test_cli_import_leaves_numpy_out():
    # numpy is a test extra: the package itself runs on the standard library;
    # argparse and gettext (which argparse imports) are the parser it replaced;
    # dataclasses, with inspect, ast, dis and tokenize, cost about 10 ms of
    # every CLI process. Only the modules that the import adds count, so a
    # site hook that loads one of them first cannot fail the test.
    code = ("import sys; before = set(sys.modules); import galoispairs.cli; "
            "added = set(sys.modules) - before; "
            "print([m for m in ('numpy', 'argparse', 'gettext', 'dataclasses', "
            "'inspect', 'ast', 'dis', 'tokenize') if m in added])")
    assert run_python("-c", code)[:2] == (0, "[]\n")


# the argv alphabet of the parity property, one branch per sort of token so
# that each sort turns up often: commands, every option name and each of its
# prefixes, `--`, help requests, ints, choices, paths and junk
OPTION_NAMES = sorted({"--help", *(opt for _, _, opts in COMMANDS.values() for opt in opts)})
OPTION_WORDS = ["-h", *sorted({opt[:k] for opt in OPTION_NAMES
                               for k in range(3, len(opt) + 1)})]
VALUES = ["11", "23", "-1", "+5", " 7", "1_0", "1.5", "-1.5", "a", "b", "z", "random",
          "scaling", "greedy", "A4", "C12", "pair.json", "dir/p q.json", "", "-", "-x",
          "--x", "-p", "a b", "--p 5", "=", "-1x", "--=x"]
TOKENS = st.one_of(
    st.sampled_from(list(COMMANDS)), st.sampled_from(OPTION_WORDS), st.just("--"),
    st.sampled_from(["-h", "--help", "--he", "-hh"]), st.integers(-99, 99).map(str),
    st.sampled_from(VALUES),
    # no `--` among VALUES: argparse before 3.13 stores [] for an attached
    # `--` (`--out=--`), so test_attached_double_dash_is_the_value pins it
    st.builds("{}={}".format, st.sampled_from(OPTION_WORDS), st.sampled_from(VALUES)))
CHUNKS = st.one_of(TOKENS.map(lambda tok: [tok]),
                   st.tuples(st.sampled_from(OPTION_WORDS), TOKENS).map(list))
SEARCH = ["search", "--p", "11", "--kind1", "A4", "--kind2", "C12"]
# a command line each command accepts, to insert chunks into
VALID = [["verify-paper", "--p", "11"], ["check-pair", "pair.json"], SEARCH,
         ["emit-curve", "pair.json"]]


def spliced(argv, inserts):
    """argv with each (at, chunk) of inserts put in at position at mod (len + 1)."""
    argv = list(argv)
    for at, chunk in inserts:
        argv[at % (len(argv) + 1):at % (len(argv) + 1)] = chunk
    return argv


ARGVS = st.one_of(
    st.lists(CHUNKS, max_size=5).map(lambda chunks: sum(chunks, [])),
    st.builds(lambda cmd, chunks: sum(chunks, [cmd]), st.sampled_from(list(COMMANDS)),
              st.lists(CHUNKS, max_size=5)),
    st.builds(spliced, st.sampled_from(VALID),
              st.lists(st.tuples(st.integers(1, 20), CHUNKS), max_size=3)))


def assert_reads_as_argparse(argv):
    """parse_args accepts argv with the same values as build_parser(), or
    rejects it, or asks for help, as that did; main then prints the usage."""
    want = argparse_reading(argv)
    try:
        got = vars(parse_args(argv))
    except UsageError as exc:
        got = "help" if exc.args[1] is None else "error"
    assert got == want
    if want != "help" and want != "error":
        return
    rc, out, err = run_main(argv)  # a help or error never runs a command
    if want == "help":
        assert (rc, err) == (EXIT_PASS, "") and out.startswith("usage: galois-pairs")
    else:
        assert (rc, out) == (EXIT_INVALID, "")
        assert err.startswith("usage: galois-pairs") and "\nerror: " in err


@settings(max_examples=1000, deadline=None)
@given(ARGVS)
def test_parse_args_reads_argv_as_argparse_did(argv):
    assert_reads_as_argparse(argv)


@pytest.mark.parametrize("argv", [
    SEARCH + ["--seed=7", "--lim", "5", "--st=scaling"],  # `=` and unique prefixes
    ["check-pair", "--all", "p.json"],
    SEARCH + ["--s", "1"],                            # --seed or --strategy
    SEARCH + ["--seed", "1", "--seed", "2"],          # the last repeat wins
    SEARCH + ["--seed", "-1"],                        # a negative number is a value
    SEARCH + ["--kind1", "--kind2"],                  # an option is not
    ["check-pair", "--", "-x.json"],                  # after `--` all are values
    ["check-pair", "p.json", "--"],
    ["check-pair", "--", "--", "p.json"],
    ["verify-paper", "--p", "11", "--"],
    ["--", "check-pair", "p.json"],
    ["verify-paper", "--p", " 11 "],                  # int() reads the value
    ["verify-paper", "--p", "1_1"],
    ["verify-paper", "--p", "11.0"],
    ["verify-paper", "--p", "11", "--case", "d"],     # choices
    SEARCH + ["--strategy", "greedy"],
    ["--he"], ["search", "-hh"], ["-h", "prove"], ["prove", "-h"],
    ["search", "-h", "--s"],                          # ambiguity is found first
])
def test_parse_args_reads_the_listed_cases_as_argparse_did(argv):
    assert_reads_as_argparse(argv)


def test_attached_double_dash_is_the_value():
    # argparse 3.13 reads `--out=--` as the value "--"; earlier versions
    # stored an empty list, which no handler expects
    ns = parse_args(["emit-curve", "f.json", "--out=--"])
    assert (ns.input, ns.out) == ("f.json", "--")
    assert run_main(["verify-paper", "--p=--"])[0] == EXIT_INVALID


@pytest.mark.parametrize("argv", [["-hx"], ["search", "-hx"], ["search", "-h=h"]])
def test_h_with_other_letters_attached_is_an_error(argv):
    # argparse versions disagree here: 3.13 reads -hx as help and -h=h as an
    # error, earlier versions the other way round
    rc, out, err = run_main(argv)
    assert (rc, out) == (EXIT_INVALID, "") and "error: -h takes no value" in err


@pytest.mark.parametrize("argv, code", [
    ([], EXIT_INVALID),                                 # no command
    (["prove"], EXIT_INVALID),                          # unknown command
    (["verify-paper"], EXIT_INVALID),                   # missing required option
    (["search", "--p", "x", "--kind1", "A4", "--kind2", "C12"], EXIT_INVALID),
    (SEARCH + ["--strategy", "greedy"], EXIT_INVALID),  # not a strategy
    (["verify-paper", "--p", "11", "extra"], EXIT_INVALID),
    (["verify-paper", "--p", "13"], EXIT_INVALID),      # no bundled case at 13
    (["check-pair", "{missing}"], EXIT_INVALID),
    (["search", "--p", "12", "--kind1", "A4", "--kind2", "C12"], EXIT_INVALID),
    (SEARCH + ["--limit", "0"], EXIT_INVALID),
    (["emit-curve", "{malformed}"], EXIT_INVALID),
    (["--help"], EXIT_PASS),
    (["search", "--help"], EXIT_PASS),
    (["check-pair", "{float_entry}"], EXIT_INVALID),    # bad document entries
    (["emit-curve", "{float_entry}"], EXIT_INVALID),
    (["check-pair", "{string_entry}"], EXIT_INVALID),
    (["emit-curve", "{null_entry}"], EXIT_INVALID),
    (["check-pair", "{late_float_entry}"], EXIT_INVALID),
    (["emit-curve", "{short_base_point}"], EXIT_INVALID),
    (["check-pair", "{zero_base_point}"], EXIT_INVALID),
    (["check-pair", "{malformed}"], EXIT_INVALID),
    (["check-pair", "{not_utf8}"], EXIT_INVALID),       # read as UTF-8
    (["search", "--p", "11", "--kind1", "A4", "--kind2", "D12",
      "--strategy", "exhaustive-cyclic"], EXIT_PASS),   # no kind need be C12
    (["search", "--p", "11", "--kind1", "C12", "--kind2", "D12",
      "--strategy", "scaling"], EXIT_INVALID),          # scaling keeps the kind
    (["search", "--p", "11", "--kind1", "C²", "--kind2", "C12"],
     EXIT_INVALID),                                     # a superscript order
    # p is bounded before is_prime runs, which took minutes on this p
    (["search", "--p", "2000000000000000018", "--kind1", "C3", "--kind2", "C3"],
     EXIT_INVALID),
    (["search", "--p", "2147483647", "--kind1", "C3", "--kind2", "C3"],
     EXIT_EXHAUSTED),                                   # the largest prime taken
    (["check-pair", "{huge_p}"], EXIT_INVALID),
])
def test_exit_code_contract(argv, code, tmp_path):
    files = {"missing": tmp_path / "missing.json"}
    for name, text in BAD_DOCUMENTS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text)
    not_utf8 = files["not_utf8"] = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff{"p": 11}')
    argv = [a.format(**files) for a in argv]
    missing, malformed = files["missing"], files["malformed"]
    whole_stderr = {  # eight of the lines that main's catch prints, pinned whole
        ("verify-paper", "--p", "13"): "error: no reference data for p=13\n",
        ("search", "--p", "11", "--kind1", "C12", "--kind2", "D12", "--strategy",
         "scaling"): "error: scaling strategy needs kind1 == kind2\n",
        ("search", "--p", "11", "--kind1", "C²", "--kind2", "C12"):
            "error: unrecognized group kind 'C²'\n",
        ("check-pair", str(missing)): f"error: cannot read {missing}: [Errno "
                                      f"{errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
                                      f"'{missing}'\n",
        ("check-pair", str(malformed)): f"error: {malformed}: invalid JSON at line 1, "
                                        "column 17\n",
        ("check-pair", str(not_utf8)): f"error: {not_utf8}: 'utf-8' codec can't decode "
                                       "byte 0xff in position 0: invalid start byte\n",
        ("search", "--p", "2000000000000000018", "--kind1", "C3", "--kind2", "C3"):
            "error: p=2000000000000000018 is not below 2**31\n",
        ("check-pair", str(files["huge_p"])):
            f"error: {files['huge_p']}: field 'p' must be below 2**31\n",
    }
    rc, out, err = run_main(argv)
    assert rc == code
    if code == EXIT_INVALID:
        assert out == "" and "error: " in err
        assert err == whole_stderr.get(tuple(argv), err)
    elif "--help" in argv:
        assert err == "" and out.startswith("usage: galois-pairs")
    elif code == EXIT_EXHAUSTED:
        assert (out, err) == ("none\n", "")
    else:  # a search that finds a pair prints its certificate
        assert err == "" and json.loads(out)["verdict"] == "pass"


GOOD_GENERATOR = "[[1, 1], [0, 1]]"
BAD_DOCUMENTS = {
    "malformed": '{"p": 11, "g1": ',
    "float_entry": f'{{"p": 11, "g1": [[[1.5, 0], [0, 1]]], "g2": [{GOOD_GENERATOR}]}}',
    "string_entry": f'{{"p": 11, "g1": [{GOOD_GENERATOR}], "g2": [[["1", 0], [0, 1]]]}}',
    "null_entry": f'{{"p": 11, "g1": {{"generators": [[[null, 0], [0, 1]]]}}, '
                  f'"g2": [{GOOD_GENERATOR}]}}',
    # an int leads the matrix, so no pow() sees the float and it reached the
    # orbit labels unchecked
    "late_float_entry": f'{{"p": 11, "g1": [{GOOD_GENERATOR}, [[1, 0.0], [0, 1]]], '
                        f'"g2": [{GOOD_GENERATOR}]}}',
    "short_base_point": f'{{"p": 11, "g1": [{GOOD_GENERATOR}], "g2": [{GOOD_GENERATOR}], '
                        '"base_point": [1]}',
    "zero_base_point": f'{{"p": 11, "g1": [{GOOD_GENERATOR}], "g2": [{GOOD_GENERATOR}], '
                       '"base_point": [0, 22]}',
    "bool_base_point": f'{{"p": 11, "g1": [{GOOD_GENERATOR}], "g2": [{GOOD_GENERATOR}], '
                       '"base_point": [true, 1]}',
    "top_level_list": f'[{{"p": 11, "g1": [{GOOD_GENERATOR}], "g2": [{GOOD_GENERATOR}]}}]',
    "missing_field": f'{{"p": 11, "g1": [{GOOD_GENERATOR}]}}',
    "float_p": f'{{"p": 11.9, "g1": [{GOOD_GENERATOR}], "g2": [{GOOD_GENERATOR}]}}',
    "composite_p": f'{{"p": 12, "g1": [{GOOD_GENERATOR}], "g2": [{GOOD_GENERATOR}]}}',
    "huge_p": f'{{"p": 2000000000000000018, "g1": [{GOOD_GENERATOR}], '
              f'"g2": [{GOOD_GENERATOR}]}}',
}


MATRIX_ENTRIES = "must be [[a, b], [c, d]]; entries must be integers"
POINT_ENTRIES = "base_point must be [s, t]; entries must be integers"


@pytest.mark.parametrize("name, message", [
    ("float_entry", f"g1 generator 1 {MATRIX_ENTRIES}"),
    ("string_entry", f"g2 generator 1 {MATRIX_ENTRIES}"),
    ("null_entry", f"g1 generator 1 {MATRIX_ENTRIES}"),
    ("late_float_entry", f"g1 generator 2 {MATRIX_ENTRIES}"),
    ("short_base_point", POINT_ENTRIES),
    ("zero_base_point", "base_point (0:0) is not a projective point"),
    ("bool_base_point", POINT_ENTRIES),
    ("top_level_list", "top-level value must be an object"),
    ("missing_field", "missing required field 'g2'"),
    ("float_p", "field 'p' must be a prime integer"),
    ("composite_p", "field 'p' must be a prime integer"),
    ("huge_p", "field 'p' must be below 2**31"),
])
@pytest.mark.parametrize("command", ["check-pair", "emit-curve"])
def test_bad_document_entries_are_named(command, name, message, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(BAD_DOCUMENTS[name])
    rc, out, err = run_main([command, str(path)])
    assert (rc, out, err) == (EXIT_INVALID, "", f"error: {path}: {message}\n")


def test_console_entry_point_exit_codes():
    # through `python -m galoispairs`, so entrypoint's sys.exit carries the code
    rc, out, err = run_python("-m", "galoispairs", "search", "--p", "x", "--kind1", "A4",
                              "--kind2", "C12")
    assert (rc, out) == (EXIT_INVALID, "") and "error: --p: 'x' is not an int" in err
    rc, out, err = run_python("-m", "galoispairs", "--help")
    assert (rc, err) == (EXIT_PASS, "") and "galois-pairs verify-paper --p P" in out
