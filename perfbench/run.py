"""Benchmark driver for galoispairs.

    python3 perfbench/run.py --workload {paper,scale,search} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. Each job is one fresh interpreter
(perfbench/child.py), one at a time, so per-process caches start cold as
they do for a CLI user. A pass runs every job of the workload once;
passes repeat while another one fits in --seconds (at least two run).
Every output is checked: `paper` stdout against SHA-256 digests recorded
at the seed commit, `scale` and `search` results against the stdlib
oracle; a search must find, or find nothing, alike in every pass, and one
listed in seed_found.json must still find. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics BENCHMARK.json lists with --trace 0, its per-layer
metrics with --trace 1. Untraced children time a fixed probe loop while
they work, and their times are reported at the probe's reference speed
(job_time). A traced run alternates untraced and traced passes; the
traced ones give the per-layer figures and trace.overhead_s, and their
spans are written to .bench_out/trace-<workload>-seed<N>.json when the
run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

SRC = "src"
OUT_DIR = ".bench_out"
# A run must end within 180 s; no job starts after this and a running job
# is killed at it.
DEADLINE_S = 165.0
# Job times are each job's best over the passes, so every run makes at
# least two; a traced run makes one untraced and one traced pass at least.
MIN_PASSES = 2
# The probe loop's median time (child.py) on the baseline machine when
# nothing else ran; job and import times are reported at this speed.
REF_PROBE_NS = 30000.0
WORKLOADS = tuple(gen.WORKLOADS)
# Printed by --workload all beside the end-to-end metrics of BENCHMARK.json.
RATIO_METRICS = (("error_frac", "ratio"), ("found_frac", "ratio"))
COUNTERS = ("subgroups.generate_closure.cap_exceeded",
            "subgroups.generate_closure.elements", "search.candidates")
RATIOS = {
    "criterion.check_pair_all_basepoints.pass_frac":
        ("criterion.check_pair_all_basepoints.passes",
         "criterion.check_pair_all_basepoints.calls"),
    "search.cap_exceeded_frac": ("search.cap_exceeded", "search.candidates"),
    "search.wrong_kind_frac": ("search.wrong_kind", "search.candidates"),
    "search.pass_per_candidate": ("search.passes", "search.candidates"),
}


class Checker:
    """Decides whether one job's result is right, without trusting the
    code under test. Oracle answers are computed once per run."""

    def __init__(self):
        with open(os.path.join(HERE, "paper_digests.json")) as fh:
            self.digests = json.load(fh)
        with open(os.path.join(HERE, "seed_found.json")) as fh:
            self.found_at_seed = set(json.load(fh)["found"])
        self.cache: dict = {}
        self.found: dict[str, bool] = {}

    def _once(self, key, fn, *args):
        if key not in self.cache:
            self.cache[key] = fn(*args)
        return self.cache[key]

    def problems(self, workload, job, rec) -> list[str]:
        """What is wrong with the job's result; [] if nothing."""
        if rec.get("error"):
            return [rec["error"].strip().splitlines()[-1]]
        try:
            return self._check(workload, job, rec["stdout"], rec["rc"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"unreadable output ({exc!r}): {rec['stdout'][:60]!r}"]

    def _check(self, workload, job, out, rc) -> list[str]:
        if workload == "paper":
            digest = hashlib.sha256(out.encode()).hexdigest()
            if rc != 0 or digest != self.digests[job["id"]]:
                return [f"rc={rc}, stdout sha256 {digest} differs from the seed's"]
            return []
        if "doc" in job:
            doc = job["doc"]
            facts = self._once(job["id"], oracle.pair_facts, doc["p"],
                               doc["g1"]["generators"], doc["g2"]["generators"])
            want_rc = 0 if facts["verdict"] == "pass" else 1
            cert = json.loads(out)
            bad = [k for k, v in facts.items() if cert.get(k) != v]
            if rc != want_rc or bad:
                return [f"rc={rc} (want {want_rc}); fields {bad} disagree with the oracle"]
            return []
        if job.get("call") == "find_scaling_conjugates":
            want = self._once(job["id"], oracle.scaling_conjugates, job["p"],
                              job["generator"])
            if rc != 0 or json.loads(out) != want:
                return [f"rc={rc}; scalar list disagrees with the oracle"]
            return []
        if rc not in (0, 3):
            return [f"search exited {rc}"]
        # Yield must repeat: a search finds the same in every pass of a run,
        # and a seed-independent one still finds what it found at the seed.
        found = self.found.setdefault(job["id"], rc == 0)
        if found != (rc == 0):
            return [f"exit {rc}, but the run's first pass {'found' if found else 'found none'}"]
        if rc == 3:
            if job["id"] in self.found_at_seed:
                return ["found none, but found a certificate at the seed commit"]
            return [] if out == "none\n" else [f"exit 3 with stdout {out[:40]!r}"]
        return self._once((out, job["p"], *job["kinds"]), oracle.check_certificate,
                          json.loads(out), job["p"], *job["kinds"])


def is_search(job) -> bool:
    return job.get("argv", [""])[0] == "search"


def run_child(job, trace, timeout):
    spec = {k: job[k] for k in ("argv", "call", "input") if k in job}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, json.dumps(spec),
           "1" if trace else "0"]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": f"child failed: {tail[0]}"}
    return json.loads(lines[-1])


def run_pass(workload, jobs, trace, checker, start):
    """Run every job once; returns (records, whether the pass completed)."""
    recs = []
    for job in jobs:
        left = DEADLINE_S - (time.perf_counter() - start)
        if left <= 0:
            print(f"FAIL run stopped at the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
            return recs, False
        rec = run_child(job, trace, left)
        rec["id"] = job["id"]
        rec["search"] = is_search(job)
        rec["problems"] = checker.problems(workload, job, rec)
        if rec["problems"]:
            print(f"FAIL {job['id']}: {'; '.join(rec['problems'])}", file=sys.stderr)
        recs.append(rec)
    return recs, True


def job_time(rec, key, at_reference=True) -> float:
    """A child's job_s or import_s. An untraced child timed its probe loop
    while it worked (child.py); its time is scaled to the speed at which
    that loop takes REF_PROBE_NS, so that a machine slowed by other load
    does not read as a slower program."""
    if at_reference and rec.get("probe_ns"):
        return rec[key] * REF_PROBE_NS / rec["probe_ns"]
    return rec[key]


def best_job_times(passes, key="job_s", at_reference=True) -> dict[str, float]:
    """Each job's shortest time over the passes. The work of a job is the
    same in every pass, so the slower repeats measure interference from
    other load on the machine, not the program (as with timeit's repeat)."""
    best: dict[str, float] = {}
    for recs in passes:
        for r in recs:
            if key in r:
                t = job_time(r, key, at_reference)
                best[r["id"]] = min(best.get(r["id"], t), t)
    return best


def end_to_end(passes, all_recs):
    """The end-to-end figures of a run."""
    best = best_job_times(passes) or {"none": 0.0}
    searches = [r for r in all_recs if r["search"]]
    # Every job imports the same package: its best import over the passes,
    # median over the jobs.
    imports = best_job_times(passes, "import_s") or {"none": 0.0}
    probes = [r["probe_ns"] for recs in passes for r in recs if r.get("probe_ns")]
    return {
        "setup_s": statistics.median(imports.values()),
        "wall_s": sum(best.values()),
        "slowest_job_s": max(best.values()),
        "peak_rss_mb": max(r.get("maxrss_kb", 0) for r in all_recs) / 1024,
        "error_frac": sum(bool(r["problems"]) for r in all_recs) / len(all_recs),
        "found_frac": (sum(r.get("rc") == 0 and not r["problems"] for r in searches)
                       / len(searches)) if searches else 0.0,
        "run.wall_raw_s": sum(best_job_times(passes, at_reference=False).values()),
        "run.probe_ns": statistics.median(probes) if probes else 0.0,
    }


def per_layer(recs):
    """Per-layer figures of one traced pass."""
    totals: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    for rec in recs:
        tr = rec.get("trace")
        if not tr:
            continue
        for path, calls, _total, self_s in tr["nodes"]:
            name = path[-1]
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + calls
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
        for key, value in tr["counters"].items():
            totals[key] = totals.get(key, 0) + value
    for key, (num, den) in RATIOS.items():
        totals[key] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return totals


def write_trace(workload, seed, traced):
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    doc = [[{"job": r["id"], **r["trace"]} for r in recs if r.get("trace")]
           for recs in traced]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": doc}, fh)


def run_workload(workload, seed, seconds, trace):
    """Run passes of the workload; returns (attempted, failed, figures)."""
    start = time.perf_counter()
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}-{workload}-{seed}")
    checker = Checker()
    plain, traced, all_recs = [], [], []
    complete = True
    try:
        jobs = gen.make_jobs(workload, seed, workdir)
        pass_s = 0.0
        while True:
            tracing = trace and len(traced) < len(plain)
            t0 = time.perf_counter()
            recs, complete = run_pass(workload, jobs, tracing, checker, start)
            pass_s = max(pass_s, time.perf_counter() - t0)
            all_recs += recs
            if not complete:
                break
            (traced if tracing else plain).append(recs)
            if (len(plain) + len(traced) >= MIN_PASSES
                    and time.perf_counter() - start + pass_s > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    figures = end_to_end(plain or [all_recs], all_recs)
    if trace and traced:
        write_trace(workload, seed, traced)
        layers = [per_layer(recs) for recs in traced]
        for key in set().union(*layers):
            figures[key] = statistics.median(layer.get(key, 0) for layer in layers)
        traced_wall = sum(best_job_times(traced).values())
        figures["trace.overhead_s"] = traced_wall - figures["run.wall_raw_s"]
        figures["search.found_frac"] = figures["found_frac"]
    failed = sum(bool(r["problems"]) for r in all_recs) + (not complete)
    return len(all_recs), failed, figures


def declared_metrics(trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, SRC, "galoispairs", "__init__.py")):
        print(f"error: no galoispairs package under {os.path.join(ROOT, SRC)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "all":
        for workload in WORKLOADS:
            attempted, failed, figures = run_workload(workload, args.seed,
                                                      args.seconds, False)
            shown = {k: {"value": figures[k], "unit": u}
                     for k, u in declared_metrics(False) + list(RATIO_METRICS)}
            print(json.dumps({"workload": workload, "attempted": attempted,
                              "failed": failed, "metrics": shown}))
        return 0
    attempted, failed, figures = run_workload(args.workload, args.seed,
                                              args.seconds, args.trace)
    metrics = {name: {"value": figures.get(name, 0), "unit": unit}
               for name, unit in declared_metrics(args.trace)}
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
