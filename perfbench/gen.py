"""Seeded input generator for the benchmark; stdlib only.

It never imports galoispairs, so one seed gives byte-identical inputs on
every commit. `make_jobs` writes the input files a workload needs and
returns its job list; the program under test sees only those files and
the command lines.
"""

from __future__ import annotations

import json
import os
import random

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))

SCALE_PRIMES = (101, 199, 401)
# find_scaling_conjugates takes 78 s at p=401, so that call stops at 199.
SCALING_CALL_PRIMES = (101, 199)
SEARCH_TRIPLES = ((11, "A4", "C12"), (11, "A4", "D12"), (11, "A4", "A4"),
                  (23, "S4", "C24"), (23, "S4", "D24"), (23, "S4", "S4"),
                  (59, "A5", "C60"), (59, "A5", "D60"), (59, "A5", "A5"))
RANDOM_LIMIT = 10000


def rows(M):
    a, b, c, d = M
    return [[a, b], [c, d]]


def random_class(rng, p):
    while True:
        m = tuple(rng.randrange(p) for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % p:
            return oracle.canon(p, m)


def singer_cycle(rng, p):
    """(x, f): x generates a cyclic group of order p+1 (a Singer cycle),
    and the involution f normalizes <x> and inverts x.

    x is the companion matrix of an irreducible z^2 - t z + n, the action
    of a root theta on F_p(theta) in the basis (1, theta), and f is the
    Frobenius theta -> t - theta in that basis. Both are conjugated by
    one random class so that each seed gives a different pair.
    """
    while True:
        t, n = rng.randrange(p), rng.randrange(1, p)
        if pow((t * t - 4 * n) % p, (p - 1) // 2, p) != p - 1:
            continue
        M = oracle.canon(p, (0, 1, -n, t))
        if oracle.order(p, M) == p + 1:
            break
    P = random_class(rng, p)
    x = oracle.conj(p, M, P)
    f = oracle.conj(p, oracle.canon(p, (1, 0, t, -1)), P)
    assert oracle.conj(p, x, f) == oracle.inv(p, x)
    return x, f


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return path


def _pair_doc(p, g1, g2):
    return {"p": p, "g1": {"generators": [rows(A) for A in g1]},
            "g2": {"generators": [rows(A) for A in g2]}}


def paper_jobs(workdir, rng):
    with open(os.path.join(HERE, "paper_pairs.json")) as fh:
        pairs = json.load(fh)
    jobs = [{"id": f"verify-paper/{p}", "argv": ["verify-paper", "--p", str(p), "--json"]}
            for p in (11, 23, 59)]
    for name, pair in pairs.items():
        doc = {"p": pair["p"], "g1": {"generators": pair["g1"]},
               "g2": {"generators": pair["g2"]}}
        path = _write(os.path.join(workdir, f"pair_{name}.json"), doc)
        jobs.append({"id": f"check-pair/{name}",
                     "argv": ["check-pair", "--all-basepoints", path]})
        jobs.append({"id": f"emit-curve/{name}", "argv": ["emit-curve", path]})
    return jobs


def scale_jobs(workdir, rng):
    jobs = []
    for p in SCALE_PRIMES:
        x, f = singer_cycle(rng, p)
        while True:
            c = random_class(rng, p)
            x_pass = oracle.conj(p, x, c)
            if oracle.pair_verdict(p, oracle.closure(p, [x]),
                                   oracle.closure(p, [x_pass])) == "pass":
                break
        for verdict, g2 in (("pass", x_pass), ("fail", oracle.conj(p, x, f))):
            doc = _pair_doc(p, [x], [g2])
            path = _write(os.path.join(workdir, f"singer_{p}_{verdict}.json"), doc)
            jobs.append({"id": f"check-pair/{p}/{verdict}", "doc": doc,
                         "argv": ["check-pair", "--all-basepoints", path]})
        n = f"C{p + 1}"
        jobs.append({"id": f"search-scaling/{p}", "p": p, "kinds": [n, n],
                     "argv": ["search", "--p", str(p), "--strategy", "scaling",
                              "--kind1", n, "--kind2", n]})
        if p in SCALING_CALL_PRIMES:
            path = _write(os.path.join(workdir, f"singer_{p}.json"),
                          {"p": p, "generator": rows(x)})
            jobs.append({"id": f"find_scaling_conjugates/{p}", "p": p,
                         "generator": x, "call": "find_scaling_conjugates",
                         "input": path})
    return jobs


def search_jobs(workdir, rng):
    jobs = []
    for p, k1, k2 in SEARCH_TRIPLES:
        seed = rng.randrange(2 ** 32)
        jobs.append({"id": f"search-random/{p}/{k1}x{k2}", "p": p, "kinds": [k1, k2],
                     "argv": ["search", "--p", str(p), "--kind1", k1, "--kind2", k2,
                              "--strategy", "random", "--seed", str(seed),
                              "--limit", str(RANDOM_LIMIT)]})
    for p, k1, k2 in SEARCH_TRIPLES:
        if k2 == f"C{p + 1}":
            jobs.append({"id": f"search-exhaustive/{p}/{k1}x{k2}", "p": p,
                         "kinds": [k1, k2],
                         "argv": ["search", "--p", str(p), "--kind1", k1,
                                  "--kind2", k2, "--strategy", "exhaustive-cyclic"]})
    return jobs


WORKLOADS = {"paper": paper_jobs, "scale": scale_jobs, "search": search_jobs}


def make_jobs(workload, seed, workdir):
    """Write the workload's inputs for `seed` under workdir; return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](workdir, random.Random(f"{workload}:{seed}"))
