"""Tests of the benchmark's own parts: the oracle, the input generator and
the tracer. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from galoispairs import check_pair_all_basepoints, subgroups_from_dict  # noqa: E402

with open(os.path.join(BENCH, "paper_pairs.json")) as fh:
    PAPER_PAIRS = json.load(fh)
FACT_KEYS = ("p", "degree", "kind1", "kind2", "intersection_size", "orbit_length",
             "orbit_equal", "verdict")


def program_facts(doc):
    cert = check_pair_all_basepoints(*subgroups_from_dict(doc)[:2]).to_dict()
    return {k: cert[k] for k in FACT_KEYS}


@pytest.mark.parametrize("name", sorted(PAPER_PAIRS))
def test_oracle_agrees_with_check_pair_on_bundled_pairs(name):
    pair = PAPER_PAIRS[name]
    facts = oracle.pair_facts(pair["p"], pair["g1"], pair["g2"])
    assert facts == program_facts(pair)
    assert (facts["kind1"], facts["kind2"], facts["verdict"]) == (
        pair["kind1"], pair["kind2"], "pass")


def test_oracle_agrees_with_check_pair_on_generated_pairs(tmp_path):
    docs = [job["doc"] for job in gen.make_jobs("scale", 0, str(tmp_path))
            if "doc" in job and job["doc"]["p"] == 101]
    verdicts = []
    for doc in docs:
        facts = oracle.pair_facts(doc["p"], doc["g1"]["generators"],
                                  doc["g2"]["generators"])
        assert facts == program_facts(doc)
        verdicts.append(facts["verdict"])
    assert verdicts == ["pass", "fail"]


def test_oracle_rejects_a_wrong_certificate():
    pair = PAPER_PAIRS["23a"]
    cert = {"p": 23, "g1": pair["g1"], "g2": pair["g2"], "kind1": "S4", "kind2": "C24",
            "degree": 24, "orbit_length": 24, "intersection_size": 1,
            "orbit_equal": True, "verdict": "pass"}
    assert oracle.check_certificate(cert, 23, "S4", "C24") == []
    assert oracle.check_certificate(cert, 23, "S4", "D24")
    assert oracle.check_certificate(dict(cert, g2=pair["g1"]), 23, "S4", "C24")


def test_checker_holds_search_yield():
    pair = PAPER_PAIRS["23a"]
    cert = json.dumps({"p": 23, "g1": pair["g1"], "g2": pair["g2"], "kind1": "S4",
                       "kind2": "C24", "degree": 24, "orbit_length": 24,
                       "intersection_size": 1, "orbit_equal": True, "verdict": "pass"})
    checker = run.Checker()

    def problems(job_id, kind2, rc, out):
        job = {"id": job_id, "p": 23, "kinds": ["S4", kind2], "argv": ["search"]}
        return checker.problems("search", job, {"rc": rc, "stdout": out})

    # found a certificate at the seed commit, so "none" is a failure
    assert problems("search-exhaustive/23/S4xC24", "C24", 3, "none\n")
    assert problems("search-random/23/S4xC24", "C24", 0, cert) == []
    # the same stdout for other requested kinds is checked again, and fails
    assert problems("search-random/23/S4xD24", "D24", 0, cert)
    # a seeded search that found nothing must find nothing in later passes
    assert problems("search-random/23/S4xS4", "S4", 3, "none\n") == []
    assert problems("search-random/23/S4xS4", "S4", 0, cert)
    assert problems("search-random/23/S4xC24", "C24", 3, "none\n")


def test_singer_cycle_and_its_normalizer():
    import random
    x, f = gen.singer_cycle(random.Random(5), 101)
    assert oracle.order(101, x) == 102
    assert oracle.order(101, f) == 2
    assert len(oracle.orbit(101, oracle.closure(101, [x]), (0, 1))) == 102


def _inputs(workload, seed, workdir):
    jobs = gen.make_jobs(workload, seed, str(workdir))
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    strip = [{k: v for k, v in job.items() if k not in ("argv", "input")} for job in jobs]
    args = [[a.replace(str(workdir), "") for a in job.get("argv", [])] for job in jobs]
    return files, strip, args


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    if workload != "paper":
        assert first != _inputs(workload, 8, tmp_path / "c")


def test_generator_never_imports_the_package(tmp_path):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "[gen.make_jobs(w, 1, sys.argv[2]) for w in gen.WORKLOADS]; "
            "assert not [m for m in sys.modules if m.startswith('galoispairs')]")
    subprocess.run([sys.executable, "-c", code, BENCH, str(tmp_path)], check=True)


def run_child(job, trace):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), SRC,
                           json.dumps(job), "1" if trace else "0"],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_traced(job):
    return run_child(job, True)


def test_untraced_child_times_its_speed_probe(tmp_path):
    pair = PAPER_PAIRS["11b"]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"p": 11, "g1": {"generators": pair["g1"]},
                                "g2": {"generators": pair["g2"]}}))
    job = {"argv": ["check-pair", "--all-basepoints", str(path)]}
    plain, traced = run_child(job, False), run_child(job, True)
    assert plain["probe_ns"] > 0 and traced["probe_ns"] is None
    assert plain["rc"] == traced["rc"] == 0
    assert plain["stdout"] == traced["stdout"]
    # a run slowed to half the reference speed counts half its time
    rec = {"job_s": 3.0, "probe_ns": 2 * run.REF_PROBE_NS}
    assert run.job_time(rec, "job_s") == pytest.approx(1.5)
    assert run.job_time(rec, "job_s", at_reference=False) == 3.0


def test_self_times_sum_to_traced_job_time(tmp_path):
    pair = PAPER_PAIRS["11b"]
    doc = {"p": 11, "g1": {"generators": pair["g1"]}, "g2": {"generators": pair["g2"]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    rec = run_traced({"argv": ["emit-curve", str(path)]})
    assert rec["error"] is None and rec["rc"] == 0
    nodes = rec["trace"]["nodes"]
    (root,) = [n for n in nodes if n[0] == ["job"]]
    self_sum = sum(n[3] for n in nodes)
    assert self_sum == pytest.approx(root[2], rel=1e-9)
    assert root[2] <= rec["job_s"] <= root[2] + 0.05
    names = {n[0][-1] for n in nodes}
    # generate_closure is bound in criterion and quotient; both paths traced
    closures = {tuple(n[0][-2:]) for n in nodes if n[0][-1] == "subgroups.generate_closure"}
    assert ("criterion.subgroups_from_dict", "subgroups.generate_closure") in closures
    assert ("quotient.emit_parametrization", "subgroups.generate_closure") in closures
    assert {"cli.main", "implicitize.implicit_degree", "polys.Poly.mul",
            "quotient.invariant_generator"} <= names
    for path, calls, total, self_s in nodes:
        assert calls >= 1 and 0 <= self_s <= total + 1e-9
