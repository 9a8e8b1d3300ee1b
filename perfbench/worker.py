"""One fresh benchmark process: import agcoh, load the generated inputs,
then (unless probing) run the workload's job list once and check it.
Every job time is also scaled by a reference of `speed.py`, timed between
jobs; `wall_s` and `job_ms` are the scaled times, `raw_wall_s` and
`raw_job_ms` the measured ones.

    python3 perfbench/worker.py SPEC MODE [SPANS]

MODE is `probe` (set up and exit), `sweep` (the timed job list; for `cli`
one subprocess per job), `replay` (`cli` only: the same argv list through
the in-process `cli.run`) or `traced` (a sweep, or for `cli` a replay, with
spans around every traced function; the spans go to SPANS).  The process
prints one JSON line and exits.  `ready` is a CLOCK_MONOTONIC reading, so the
runner can subtract its own spawn time from it.
"""
import time

_t0 = time.perf_counter()
import agcoh.cli  # noqa: E402  (the timed import)
IMPORT_MS = (time.perf_counter() - _t0) * 1e3

import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import jobs  # noqa: E402
from speed import LOOP, SPAWN  # noqa: E402
from tracer import Tracer  # noqa: E402


def _reference_near(refs: list[int], ref_at: list[int], start: int, length: int) -> float:
    """The reference time a job is scaled by: the median of the timings
    that ended within the job's own length before or after it, and at
    least of the four nearest (two before, two after).  A long job thus
    gets the host's speed around it rather than at its two edges, and one
    outlying timing moves no job by much."""
    lo = bisect.bisect_left(ref_at, start - length)
    hi = bisect.bisect_right(ref_at, start + 2 * length)
    first = bisect.bisect_left(ref_at, start)  # the first timing after the job
    lo, hi = min(lo, max(first - 2, 0)), max(hi, first + 2)
    return statistics.median(refs[lo:hi])


def main(spec_path: str, mode: str, spans_path: str | None = None) -> dict:
    src = os.path.abspath("src")
    if not os.path.abspath(agcoh.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"agcoh imported from {agcoh.cli.__file__}, not from {src}")
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = jobs.WORKLOADS[spec["workload"]]
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    state = workload.setup(spec)
    ready = time.monotonic()
    result = {"import_ms": IMPORT_MS, "ready": ready}
    if mode == "probe":
        return result

    in_process = spec["workload"] == "cli" and mode in ("replay", "traced")
    run = workload.run_in_process if in_process else workload.run
    # The reference is timed before the first job and again once
    # `every_ns` of job time has passed, so every job is scaled by the
    # host's speed close to it.
    reference = SPAWN if spec["workload"] == "cli" and not in_process else LOOP
    clock = time.perf_counter_ns
    refs, ref_at = [], []  # reference timings and when each ended

    def time_reference():
        refs.append(reference.time_ns())
        ref_at.append(clock())

    reference.time_ns()  # the first timing in a fresh process warms up
    time_reference()
    outputs, errors, job_start, job_ns = [], {}, [], []
    since_ref = 0
    for i, job in enumerate(spec["jobs"]):
        if since_ref >= reference.every_ns:
            time_reference()
            since_ref = 0
        if tracer is not None:
            tracer.job = i
        t = clock()
        try:
            out = run(state, job)
        except Exception as exc:  # a failed job is recorded, the sweep goes on
            out = None
            errors[i] = f"{type(exc).__name__}: {str(exc)[:200]}"
        job_start.append(t)
        job_ns.append(clock() - t)
        since_ref += job_ns[-1]
        outputs.append(out)
    time_reference()
    job_s = [reference.scale(ns / 1e9, _reference_near(refs, ref_at, t, ns))
             for t, ns in zip(job_start, job_ns)]
    raw_wall_s = sum(job_ns) / 1e9
    usage = resource.RUSAGE_CHILDREN if spec["workload"] == "cli" and not in_process \
        else resource.RUSAGE_SELF
    result.update(wall_s=sum(job_s), job_ms=[s * 1e3 for s in job_s],
                  raw_wall_s=raw_wall_s, raw_job_ms=[n / 1e6 for n in job_ns],
                  reference=reference.name, ref_ms=[n / 1e6 for n in refs],
                  rss_mb=resource.getrusage(usage).ru_maxrss / 1024)

    if tracer is not None:
        tracer.enabled = False
        # self times are scaled by the sweep's overall scaling factor
        result["layers"] = tracer.metrics(sum(job_s) / raw_wall_s)
        result["trace_missing"] = tracer.missing
        tracer.write(spans_path)
    problems, digests = {}, {}
    for i, (job, out) in enumerate(zip(spec["jobs"], outputs)):
        if i in errors:
            problems[i] = [errors[i]]
            continue
        try:
            found = workload.check(state, job, out)
        except Exception as exc:  # malformed output: a failed check, not a crash
            found = [f"check raised {type(exc).__name__}: {str(exc)[:200]}"]
        if found:
            problems[i] = found
        digests[job["id"]] = hashlib.sha256(
            workload.digest(job, out).encode()).hexdigest()[:16]
    if spec["workload"] == "cli" and not in_process:
        result["stdout_bytes"] = sum(len(out[1].encode()) for out in outputs if out)
    result.update(problems=problems, digests=digests)
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
