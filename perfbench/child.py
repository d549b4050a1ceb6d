"""Runs one benchmark job in a fresh interpreter, as a CLI invocation does.

    python3 perfbench/child.py SRC_DIR JOB_JSON TRACE(0|1)

It times `import galoispairs` (with its CLI module), then the job from just
after the import to the command's return, with the command's stdout
captured in memory. The last line of its own stdout is one JSON record:
import_s, job_s, probe_ns, rc, stdout, maxrss_kb, error and, when traced,
the job's calling-context tree and counters. Only `sys`, `time` and
`signal` are imported before the timed import, so the record's import_s
is the package's own.

An untraced child also measures how fast the CPU runs while it works:
every PROBE_TICK_S a timer signal runs `probe`, a fixed loop, and times
it. probe_ns is the median of those times; the probes' own time is taken
out of import_s and job_s. A traced child runs no probe (probe_ns null),
so that its spans time the program alone.
"""

import signal
import sys
import time

PROBE_TICK_S = 0.005


def probe():
    """A fixed pure-Python loop of integer arithmetic, like the field
    operations the program is made of; about 30 us on an idle 2-vCPU Xeon."""
    s = 1
    for i in range(400):
        s = (s * 31 + i) % 1000003
    return s


class SpeedProbe:
    """Times `probe` on every tick of a real-time interval timer."""

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        probe()
        t1 = time.perf_counter_ns()
        self.samples.append(t1 - t0)
        self.spent_ns += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S, PROBE_TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def spent_s(self) -> float:
        """Time spent in probes so far."""
        return self.spent_ns / 1e9


def run_job(gp, job):
    import json

    if "argv" in job:
        return gp.cli.main(job["argv"])
    if job["call"] == "find_scaling_conjugates":
        with open(job["input"]) as fh:
            doc = json.load(fh)
        line = gp.projective_line(doc["p"])
        G = gp.generate_closure(line, [line.matrix(doc["generator"])])
        print(json.dumps(gp.find_scaling_conjugates(G)))
        return 0
    raise ValueError(f"unknown call {job['call']!r}")


def main():
    src, job_text, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    speed = SpeedProbe()
    if not trace:
        speed.start()
    t0 = time.perf_counter()
    import galoispairs
    import galoispairs.cli
    import_s = time.perf_counter() - t0 - speed.spent_s()

    import contextlib
    import io
    import json
    import os
    import resource
    import statistics
    import traceback

    job = json.loads(job_text)
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.install(galoispairs)
    out = io.StringIO()
    rc = error = None
    spent0 = speed.spent_s()
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = run_job(galoispairs, job)
            else:
                rc = tracer.run(run_job, galoispairs, job)
    except Exception:
        error = traceback.format_exc()
    job_s = time.perf_counter() - t1 - (speed.spent_s() - spent0)
    speed.stop()
    record = {"import_s": import_s, "job_s": job_s,
              "probe_ns": statistics.median(speed.samples) if speed.samples else None,
              "rc": rc, "stdout": out.getvalue(),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "error": error}
    if tracer is not None:
        record["trace"] = tracer.record()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
